"""Kinetic function machinery: level counts, residuals, commutators.

The kinetic function of a state field u is the indicator chi(x, b) = 1
where the xi-bin center lies at or below u(x).  Since the centers ascend,
chi is held as its level count n(x), the number of such bins, and chi(x, b)
= [b < n(x)]; `kinetic_residual` reads only level counts.  `contraction`
takes the ordering functional of two states exactly, as the integral of
(u_a - u_b)_+, so it reads no xi-grid.  `kinetic_residual` tests the
kinetic equation weakly against a battery of smooth test functions; its
terms linear in chi are summed over time first, so the space operators are
applied once.  `friedrichs_commutator` measures how smoothing by a
symmetric polynomial bump commutes with multiplication and differentiation.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .entropy import battery_profile, dissipation_densities
from .exprparse import compile_expr  # noqa: F401  (the traced benchmark run wraps it here)


class KineticError(ValueError):
    pass


# --- kinetic function ---------------------------------------------------------

def level_count(u, xi):
    """Per node, the number of xi-bin centers at or below u(x).

    The kinetic function is chi(x, b) = [b < level_count(u, xi)(x)], so
    every sum of chi over bins is read off this count.
    """
    u = np.asarray(u, dtype=float)
    # false for negative states and for NaN
    if not (u >= 0.0).all():
        raise KineticError("kinetic function requires nonnegative states")
    return np.searchsorted(xi.centers, u, side="right")


def contraction(u_a, u_b, M):
    """Ordering functional: integral of chi_a (1 - chi_b) over chart x state.

    For the exact kinetic functions chi(x, xi) = [xi < u(x)], the state
    integral of chi_a (1 - chi_b) at a node is (u_a - u_b)_+, so this is the
    chart integral of that (Chen & Perthame, Ann. IHP 20, 2003).
    """
    return geo.integrate(np.maximum(u_a - u_b, 0.0), M)


# --- mollifier ----------------------------------------------------------------

def bump_symmetric(s):
    """Unit-mass C^3 polynomial bump supported in (-1,1)."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    out[inside] = (1.0 - s[inside] ** 2) ** 4
    return out * (315.0 / 256.0)


def bump_kernel(eps, spacing):
    """Discrete unit-mass weights w[m], m = -R..R, of the bump of half-width eps."""
    if eps < 2.0 * spacing:
        raise KineticError(
            f"kernel narrower than 2 cells (scale {eps:.3g}, spacing {spacing:.3g})")
    R = int(np.floor(eps / spacing + 1e-12))
    m = np.arange(-R, R + 1)
    w = bump_symmetric(m * spacing / eps)
    return m, w / w.sum()


def _convolve_periodic(F, offsets, weights, axis):
    """out[i] = sum_m F[i - m] w[m] along a non-negative axis, with periodic wrap.

    Each shift F[i - m] is a view of one copy of F padded by R = max |m| slabs.
    """
    n, R = F.shape[axis], int(np.max(np.abs(offsets)))
    padded = geo._wrap_pad(F, axis, R)
    lead = (slice(None),) * axis
    out = np.zeros_like(F)
    for m, w in zip(offsets, weights):
        if w != 0.0:
            out += w * padded[lead + (slice(R - m, R - m + n),)]
    return out


# --- kinetic test battery ------------------------------------------------------

class KineticTestFn:
    """Battery of separable test functions psi_j(t, x, xi) = tau_j(t) phi_j(x) theta_j(xi).

    The last axis of every array runs over the battery j.  tau_j(t) =
    a_j + b_j cos(omega_j t); phi is grid + (count,); theta_j is the bump
    (1 - s^2)^2 with s = (xi - center_j) / radius_j, sampled on the bin
    centers as bins x count; `dtheta` is its exact derivative at off-lattice
    state values, grid + (count,).
    """

    def __init__(self, xi, phi, t_coeffs, xi_center, xi_radius):
        self.phi = phi
        a, b, omega = t_coeffs
        self.tau = lambda t: a + b * np.cos(omega * t)
        self.dtau = lambda t: -b * omega * np.sin(omega * t)
        s = (xi.centers[:, None] - xi_center) / xi_radius
        self.theta = np.where(np.abs(s) < 1.0, (1.0 - s ** 2) ** 2, 0.0)
        self.xi_center = xi_center
        self.xi_radius = xi_radius

    def dtheta(self, values):
        s = (np.asarray(values)[..., None] - self.xi_center) / self.xi_radius
        return np.where(np.abs(s) < 1.0, -4.0 * s * (1.0 - s ** 2) / self.xi_radius, 0.0)


def kinetic_battery(grid, xi, seed=0, count=5, t_scale=1.0):
    """Deterministic battery of smooth test functions, compact in state."""
    rng = np.random.default_rng(seed)
    phis, coeffs = [], []
    for _ in range(count):
        phis.append(battery_profile(rng, grid, 0.8))
        coeffs.append((rng.uniform(0.6, 1.2), rng.uniform(0.2, 0.6),
                       rng.uniform(0.5, 2.0) * np.pi / max(t_scale, 1e-12),
                       rng.uniform(0.4, 0.6), rng.uniform(0.25, 0.34)))
    a, b, omega, center, radius = np.array(coeffs).T
    return KineticTestFn(xi, np.stack(phis, axis=-1), (a, b, omega), center, radius)


# --- weak residual of the kinetic equation -------------------------------------

def kinetic_residual(traj, fm, dm, M, battery):
    """Max weak residual of the kinetic equation over a test battery.

    The equation is d_t chi + div(f' chi) - divdiv(a' chi) - eta Lap_g chi =
    d_xi(m + n), with m and n the viscous and degenerate dissipation measures.
    Each test function is separable, psi = tau(t) phi(x) theta(xi), and time
    integrals use the trapezoid rule on the stored snapshots, with weights w_k.

    The terms linear in chi are summed over the snapshots before any space
    operator is applied.  Per snapshot only the level count n_k(x) is formed
    (chi_k(x, b) = [b < n_k(x)]), and w_k tau(t_k) is added to a per-node
    histogram over levels; one reverse cumulative sum over levels gives
    X(x, b) = sum_k w_k tau(t_k) chi_k(x, b).  The theta-weighted bin sums of
    X, X f' and X a' at the bin centers then go through one
    `geometry.transport` call, whose minus is the space term.  The boundary
    terms and the -tau' term read the prefix sums of theta dxi at n_k.  Only
    the measure term, nonlinear in u, is formed per snapshot: the per-node
    dissipation densities times the exact state derivative of theta at u(x).
    Every term is paired with phi through one `geometry.integrate`; the last
    axis of every array runs over the battery, whose theta is sampled on the
    bin centers of the models' xi-grid.
    """
    grid, nodes, xi = M.grid, M.sqrt_det.size, dm.xi
    times = np.asarray(traj.times)
    w_t = np.zeros(len(times))
    w_t[1:] += 0.5 * np.diff(times)
    w_t[:-1] += 0.5 * np.diff(times)

    thetas = battery.theta * xi.dxi  # bins x battery
    prefix = np.zeros((xi.n + 1, thetas.shape[1]))  # theta dxi summed below each level
    prefix[1:] = np.cumsum(thetas, axis=0)

    counts = [level_count(u, xi).reshape(-1) for u in traj.snapshots]
    hist, rows = np.zeros((nodes, xi.n + 1, thetas.shape[1])), np.arange(nodes)
    # pointwise terms: boundary, -tau' and measure, paired with phi at the end
    local = (battery.tau(times[-1]) * prefix[counts[-1]]
             - battery.tau(times[0]) * prefix[counts[0]]).reshape(grid.shape + (-1,))
    for t, w, u, n in zip(times, w_t, traj.snapshots, counts):
        hist[rows, n] += w * battery.tau(t)
        m_density, n_density = dissipation_densities(u, dm, M, traj.eta)
        local += w * (battery.tau(t) * (m_density + n_density)[..., None] * battery.dtheta(u)
                      - battery.dtau(t) * prefix[n].reshape(local.shape))

    # reverse cumulative sum over levels, in place: level b + 1 holds X(x, b)
    np.cumsum(hist[:, ::-1], axis=1, out=hist[:, ::-1])
    weighted = hist[:, 1:]
    weighted *= thetas

    def bin_sums(table):
        """theta-weighted bin sums of X times `table` at the bin centers: comps + grid + battery."""
        centers = 0.5 * (table[..., 1:] + table[..., :-1])
        per_node = np.matmul(centers.reshape(-1, nodes, xi.n).transpose(1, 0, 2), weighted)
        return per_node.transpose(1, 0, 2).reshape(table.shape[:-1] + (-1,))

    theta_chi = weighted.sum(axis=1).reshape(local.shape)
    # a' one row at a time, so its centre table holds d components, not d*d
    theta_a = np.stack([bin_sums(row) for row in dm.aprime])
    local -= geo.transport(bin_sums(fm.fprime), theta_a, theta_chi, M, traj.eta)
    residuals = geo.integrate(battery.phi * local, M)
    return float(np.max(np.abs(residuals)))


# --- Friedrichs commutator demo -------------------------------------------------

def friedrichs_commutator(a, v, eps_list, grid):
    """Commutator decay table for smoothing vs. multiplication.

    For each scale: the coefficient commutator (a dv)*k - a (dv*k) and the
    product-rule commutator d(av)*k - d(a (v*k)), both in the flat L1 norm.
    Derivatives are central differences along the first axis; kernels are
    the symmetric bump, periodic wrap.
    """
    a_field = grid.eval_expr(a)
    v = np.asarray(v, dtype=float)
    h = grid.h
    cellvol = h ** grid.d
    dv = geo.ddx(v, 0, h)
    table = []
    for eps in eps_list:
        offsets, weights = bump_kernel(eps, h)

        def smooth(F):
            out = F
            for axis in range(grid.d):
                out = _convolve_periodic(out, offsets, weights, axis)
            return out

        coef = smooth(a_field * dv) - a_field * smooth(dv)
        prod = smooth(geo.ddx(a_field * v, 0, h)) - geo.ddx(a_field * smooth(v), 0, h)
        table.append({
            "eps": float(eps),
            "l1_coefficient": float(np.sum(np.abs(coef)) * cellvol),
            "l1_product_rule": float(np.sum(np.abs(prod)) * cellvol),
        })
    return table
