"""Kinetic function machinery: level-set fields, residuals, commutators.

The kinetic function of a state field u is the indicator chi(x, b) = 1
where the xi-bin center lies at or below u(x).  `kinetic_residual` tests the
kinetic equation weakly against a battery of smooth test functions, and
`friedrichs_commutator` measures how smoothing by a symmetric polynomial
bump commutes with multiplication and differentiation.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .entropy import battery_profile, dissipation_densities
from .exprparse import compile_expr  # noqa: F401  (the traced benchmark run wraps it here)


class KineticError(ValueError):
    pass


# --- kinetic function ---------------------------------------------------------

def chi_from_u(u, xi):
    """Binary kinetic function on grid x bin-centers (bin-center rule)."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise KineticError("kinetic function requires nonnegative states")
    return (xi.centers <= u[..., None]).astype(float)


def contraction(chi_a, chi_b, M, xi):
    """Ordering functional: integral of chi_a (1 - chi_b) over chart x state."""
    per_node = xi.dxi * np.sum(chi_a * (1.0 - chi_b), axis=-1)
    return geo.integrate(per_node, M)


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
    """out[i] = sum_m F[i - m] w[m] along one axis, with periodic wrap."""
    out = np.zeros_like(F)
    for m, w in zip(offsets, weights):
        if w != 0.0:
            out += w * np.roll(F, m, axis)
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

def kinetic_residual(traj, fm, dm, M, xi, battery):
    """Max weak residual of the kinetic equation over a test battery.

    The equation is d_t chi + div(f' chi) - divdiv(a' chi) - eta Lap_g chi =
    d_xi(m + n), with m and n the viscous and degenerate dissipation measures.
    Each test function is separable, psi = tau(t) phi(x) theta(xi), so the
    state integrals come first: Theta = sum_b theta_b chi_b dxi, and the same
    theta-weighted sums of chi f' and chi a' at the bin centers.  The space
    terms are minus `geometry.transport` of those three sums, once per
    snapshot on the whole battery, carried as a batch axis, and every term is
    paired with phi through `geometry.integrate`.
    Time integrals use the trapezoid rule on the stored snapshots; the
    measure term pairs per-node dissipation densities with the exact state
    derivative of theta at u(x).
    """
    eta = traj.eta
    times = np.asarray(traj.times)
    w_t = np.zeros(len(times))
    w_t[1:] += 0.5 * np.diff(times)
    w_t[:-1] += 0.5 * np.diff(times)

    fprime_centers = 0.5 * (fm.fprime[..., 1:] + fm.fprime[..., :-1])
    aprime_centers = 0.5 * (dm.aprime[..., 1:] + dm.aprime[..., :-1])

    thetas = battery.theta * xi.dxi  # bins x battery
    # the end snapshots enter both the boundary terms and the time integral
    last = len(times) - 1
    chi0, chiT = chi_from_u(traj.snapshots[0], xi), chi_from_u(traj.u_final, xi)
    residuals = (battery.tau(times[-1]) * geo.integrate(battery.phi * (chiT @ thetas), M)
                 - battery.tau(times[0]) * geo.integrate(battery.phi * (chi0 @ thetas), M))

    for k, (t, u) in enumerate(zip(times, traj.snapshots)):
        chi = chi0 if k == 0 else chiT if k == last else chi_from_u(u, xi)
        # theta-weighted state integrals; the last axis runs over the battery
        theta_chi = chi @ thetas
        theta_flux = (chi * fprime_centers) @ thetas
        theta_diff = (chi * aprime_centers) @ thetas
        m_density, n_density = dissipation_densities(u, dm.sigmaT, xi, M, eta)
        total_density = m_density + n_density
        strong = (-geo.transport(theta_flux, theta_diff, theta_chi, M, eta)
                  + total_density[..., None] * battery.dtheta(u))
        residuals += w_t[k] * (battery.tau(t) * geo.integrate(battery.phi * strong, M)
                               - battery.dtau(t) * geo.integrate(battery.phi * theta_chi, M))

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
