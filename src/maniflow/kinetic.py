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
from .entropy import dissipation_densities
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
    """Separable space-time-state test function with coded derivatives."""

    def __init__(self, grid, xi, x_profile, t_coeffs, xi_center, xi_radius):
        self.x_profile = x_profile  # ScalarField
        a, b, omega = t_coeffs
        self._t = lambda t: a + b * np.cos(omega * t)
        self._dt = lambda t: -b * omega * np.sin(omega * t)
        s = (xi.centers - xi_center) / xi_radius
        inside = np.abs(s) < 1.0
        prof = np.zeros_like(s)
        prof[inside] = (1.0 - s[inside] ** 2) ** 2
        self.xi_profile = prof
        self.xi_center = xi_center
        self.xi_radius = xi_radius

    def value(self, t):
        return self._t(t) * self.x_profile[..., None] * self.xi_profile

    def dt(self, t):
        return self._dt(t) * self.x_profile[..., None] * self.xi_profile

    def dxi_at_values(self, t, values):
        """d_xi psi evaluated at off-lattice state values (exact profile)."""
        s = (np.asarray(values) - self.xi_center) / self.xi_radius
        dprof = np.where(np.abs(s) < 1.0, -4.0 * s * (1.0 - s ** 2) / self.xi_radius, 0.0)
        return self._t(t) * self.x_profile * dprof


def kinetic_battery(grid, xi, seed=0, count=5, t_scale=1.0):
    """Deterministic battery of smooth test functions, compact in state."""
    rng = np.random.default_rng(seed)
    xs = grid.coords()
    battery = []
    for _ in range(count):
        prof = np.ones(grid.shape)
        for x in xs:
            k = int(rng.integers(1, 3))
            shift = rng.uniform(0.0, 1.0)
            amp = rng.uniform(0.3, 0.8)
            prof = prof * (1.0 + amp * np.sin(2.0 * np.pi * k * (x + shift)))
        t_coeffs = (rng.uniform(0.6, 1.2), rng.uniform(0.2, 0.6),
                    rng.uniform(0.5, 2.0) * np.pi / max(t_scale, 1e-12))
        center = rng.uniform(0.4, 0.6)
        radius = rng.uniform(0.25, 0.34)
        battery.append(KineticTestFn(grid, xi, prof, t_coeffs, center, radius))
    return battery


# --- weak residual of the kinetic equation -------------------------------------

def kinetic_residual(traj, fm, dm, M, xi, battery):
    """Max weak residual of the kinetic equation over a test battery.

    Time integrals use the trapezoid rule on the stored snapshots; space
    operators are the discrete geometry operators applied per state bin;
    the measure term pairs per-node dissipation densities with the exact
    state derivative of the test function at u(x).
    """
    grid = M.grid
    eta = traj.eta
    times = np.asarray(traj.times)
    n_snap = len(times)
    w_t = np.zeros(n_snap)
    w_t[1:] += 0.5 * np.diff(times)
    w_t[:-1] += 0.5 * np.diff(times)

    fprime_centers = 0.5 * (fm.fprime[..., 1:] + fm.fprime[..., :-1])
    aprime_centers = 0.5 * (dm.aprime[..., 1:] + dm.aprime[..., :-1])
    cell = M.sqrt_det * grid.h ** grid.d

    residuals = np.zeros(len(battery))
    chi0 = chi_from_u(traj.snapshots[0], xi)
    chiT = chi_from_u(traj.u_final, xi)
    for i, psi in enumerate(battery):
        residuals[i] = (np.sum(chiT * psi.value(times[-1]) * cell[..., None]) -
                        np.sum(chi0 * psi.value(times[0]) * cell[..., None])) * xi.dxi

    for k, (t, u) in enumerate(zip(times, traj.snapshots)):
        chi = chi_from_u(u, xi)
        transport = np.empty(grid.shape + (xi.n,))
        diffusion = np.empty(grid.shape + (xi.n,))
        for b in range(xi.n):
            transport[..., b] = geo.div_vector(chi[..., b] * fprime_centers[..., b], M)
            diffusion[..., b] = geo.divdiv_tensor11(chi[..., b] * aprime_centers[..., b], M)
        m_density, n_density = dissipation_densities(u, dm, M, eta)
        total_density = m_density + n_density
        for i, psi in enumerate(battery):
            val = psi.value(t)
            term = -np.sum(chi * psi.dt(t) * cell[..., None]) * xi.dxi
            term += np.sum(transport * val * cell[..., None]) * xi.dxi
            term -= np.sum(diffusion * val * cell[..., None]) * xi.dxi
            term += np.sum(total_density * psi.dxi_at_values(t, u) * cell)
            residuals[i] += w_t[k] * term

    return float(np.max(np.abs(residuals)))


# --- Friedrichs commutator demo -------------------------------------------------

def friedrichs_commutator(a, v, eps_list, grid):
    """Commutator decay table for smoothing vs. multiplication.

    For each scale: the coefficient commutator (a dv)*k - a (dv*k) and the
    product-rule commutator d(av)*k - d(a (v*k)), both in the flat L1 norm.
    Derivatives are central differences along the first axis; kernels are
    the symmetric bump, periodic wrap.
    """
    a_field = grid.eval_expr(a) if not isinstance(a, np.ndarray) else a
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
