"""Entropy identity residuals, dissipation bookkeeping and balance checks.

Two dissipation densities are tracked per time step:

    viscous:    eta * |grad u|_g^2
    degenerate: |w|_g^2  with  w_i = (sigma^t(x, u(x)))^j_i d_j u(x)

Each node deposits its weight (density * sqrt|g| * h^d * dt) into the two
xi-bins nearest to u(x) with linear hat weights, which conserves the total
deposited mass exactly.  g is the diffusion model's own metric, `dm.M`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .model import beta_at, cumtrapz_edges, xi_interp
from .exprparse import compile_expr


@dataclass
class EntropyFn:
    """Twice-differentiable state functional with S(0) = 0."""
    s: object
    ds: object
    d2s: object
    name: str = "entropy"

    def __post_init__(self):
        if abs(float(self.s(0.0))) > 1e-12:
            raise ValueError(f"{self.name}: S(0) must vanish")

    def on(self, values):
        return np.asarray(self.s(np.asarray(values, dtype=float)))


def square_entropy():
    return EntropyFn(lambda v: 0.5 * v * v, lambda v: v, lambda v: np.ones_like(np.asarray(v, dtype=float)),
                     name="half-square")


def identity_entropy():
    return EntropyFn(lambda v: v, lambda v: np.ones_like(np.asarray(v, dtype=float)),
                     lambda v: np.zeros_like(np.asarray(v, dtype=float)),
                     name="identity")


def hat_weights(values, xi):
    """Two-bin linear deposition indices/weights for an array of states."""
    pos = np.asarray(values) / xi.dxi - 0.5
    i0 = np.floor(pos).astype(int)
    w1 = pos - i0
    # edge bins absorb out-of-range deposits so total mass is conserved
    j0 = np.minimum(np.maximum(i0, 0), xi.n - 1)
    j1 = np.minimum(np.maximum(i0 + 1, 0), xi.n - 1)
    return j0, j1, w1


class DissipationLedger:
    """xi-binned accumulators for the viscous and degenerate dissipation."""

    def __init__(self, xi):
        self.xi = xi
        self.bins_m = np.zeros(xi.n)
        self.bins_n = np.zeros(xi.n)

    def add(self, values, weights_m, weights_n):
        """Deposit the rows of (states, nodes) arrays, or one state's (nodes,) arrays.

        Within a state the lower-bin shares of all nodes go in before the
        upper-bin shares, so the bins sum in the same order whether states
        arrive one at a time or in a block.
        """
        j0, j1, w1 = hat_weights(values, self.xi)
        j = np.concatenate((j0, j1), axis=-1).ravel()
        for bins, weights in ((self.bins_m, weights_m), (self.bins_n, weights_n)):
            shares = np.concatenate(((1.0 - w1) * weights, w1 * weights), axis=-1)
            np.add.at(bins, j, shares.ravel())

    @property
    def total_m(self):
        return float(np.sum(self.bins_m))

    @property
    def total_n(self):
        return float(np.sum(self.bins_n))


def dissipation_densities(u, dm, eta):
    """Per-node viscous and degenerate dissipation densities at state u; u may carry batch axes.

    sigma^t is read from `dm.sigmaT` on the model's own xi-grid, and g from `dm.M`.
    """
    M, grid = dm.M, dm.grid
    du = np.stack([geo.ddx(u, i, grid.h) for i in range(grid.d)])
    m_density = eta * geo.oneform_norm_sq(du, M)
    sT = xi_interp(dm.sigmaT, u, dm.xi, grid.d)
    w = np.einsum("ji...,j...->i...", sT, du)
    n_density = geo.oneform_norm_sq(w, M)
    return m_density, n_density


def deposit(u, dm, eta, dt, ledger):
    """Bin the dissipation weights of accepted steps of length dt at their state values.

    u is the state before one step, or grid + batch axes: one column per
    step, deposited in the C order of the batch axes.  The densities read
    sigma^t on the model's xi-grid; the ledger bins them on its own.
    """
    M, grid = dm.M, dm.grid
    m_density, n_density = dissipation_densities(u, dm, eta)
    cell = M.sqrt_det.reshape(grid.shape + (1,) * (u.ndim - grid.d)) * grid.h ** grid.d * dt

    def rows(a):  # (states, nodes)
        return a.reshape(M.sqrt_det.size, -1).T

    ledger.add(rows(u), rows(m_density * cell), rows(n_density * cell))


# --- entropy flux fields and the weak residual ------------------------------

def entropy_flux_fields(u, S, fm, dm):
    """Integrals of f' S' and a' S' from 0 to u(x), one consistent path.

    Returns (VectorField, Tensor11Field).  Both use the cumulative
    trapezoid on the xi edges followed by linear interpolation at u, the
    same convention as the coefficient tables themselves.
    """
    xi = fm.xi
    sp = np.asarray(S.ds(xi.edges), dtype=float)
    # the flux table is looked up and freed before the diffusion table is built
    flux = xi_interp(cumtrapz_edges(fm.fprime * sp, xi.dxi), u, xi)
    return flux, xi_interp(cumtrapz_edges(dm.aprime * sp, xi.dxi), u, xi)


def _binned_s2_dissipation(u, S, dm, eta):
    """integral of S''(xi) (n+m)(., xi) dxi realized through the hat bins of `dm.xi`."""
    xi = dm.xi
    m_density, n_density = dissipation_densities(u, dm, eta)
    total = m_density + n_density
    j0, j1, w1 = hat_weights(u, xi)
    s2 = np.asarray(S.d2s(xi.centers), dtype=float)
    return total * ((1.0 - w1) * s2[j0] + w1 * s2[j1])


def entropy_residual(u_prev, u_next, dt, S, fm, dm, eta, battery):
    """Weak residual of the entropy identity on one snapshot pair.

    battery: spatial test profiles, grid + (count,).  Returns the max
    absolute residual over the battery.
    """
    u_mid = 0.5 * (u_prev + u_next)
    dS_dt = (S.on(u_next) - S.on(u_prev)) / dt
    flux_field, diff_field = entropy_flux_fields(u_mid, S, fm, dm)
    strong = (dS_dt - geo.transport(flux_field, diff_field, S.on(u_mid), dm.M, eta)
              + _binned_s2_dissipation(u_mid, S, dm, eta))
    return float(np.max(np.abs(geo.integrate(battery * strong[..., None], dm.M))))


def battery_profile(rng, grid, amp_max):
    """Product over the axes of 1 + amp sin(2 pi k (x + shift)), amp in [0.3, amp_max).

    Per axis, draws k, shift and amp from `rng`, in that order.
    """
    phi = np.ones(grid.shape)
    for x in grid.coords():
        k = int(rng.integers(1, 3))
        shift = rng.uniform(0.0, 1.0)
        amp = rng.uniform(0.3, amp_max)
        phi = phi * (1.0 + amp * np.sin(2.0 * np.pi * k * (x + shift)))
    return phi


def spatial_battery(grid, seed=0, count=5):
    """Deterministic battery of smooth periodic test profiles, grid + (count,)."""
    rng = np.random.default_rng(seed)
    return np.stack([battery_profile(rng, grid, 0.9) for _ in range(count)], axis=-1)


# --- energy balance ----------------------------------------------------------

def energy_balance(traj):
    """Finite-horizon balance: dissipated totals vs. half-square energy drop.

    residual = total(m) + total(n) + E(T) - E(0), E the run's energy monitor.
    The infinite-horizon statement has no terminal term; on a closed domain
    with conserved mass the terminal energy does not vanish, so the report
    keeps it and the residual measures the finite-horizon identity.
    """
    e0, eT = float(traj.energy[0]), float(traj.energy[-1])
    dissipated = traj.ledger.total_m + traj.ledger.total_n
    residual = dissipated + eT - e0
    return {
        "initial_energy": e0,
        "final_energy": eT,
        "total_viscous": traj.ledger.total_m,
        "total_degenerate": traj.ledger.total_n,
        "residual": residual,
        "relative_residual": abs(residual) / e0 if e0 > 0 else 0.0,
    }


# --- chain rule ---------------------------------------------------------------

# the weights `maniflow run` reports the chain rule for; not psi = 1, whose lhs and rhs
# are the same arrays (the root weight is 1), so its residual is 0.0 by construction
CHAIN_RULE_PSI = ("xi",)


def chain_rule_residual(u, psi, dm):
    """L2 norm of the chain-rule defect for a weight psi >= 0.

    lhs = div(B^psi(., u)) - [div B^psi(., xi)] evaluated at xi = u
    rhs = sqrt(psi(u)) * (same construction with the unweighted table)

    Both beta tables and their frozen divergences are evaluated at u by
    cubic Hermite interpolation in xi (`model.beta_at`), so each defect
    carries the xi-slope sqrt(psi) sigma^t to second order and the residual
    is O(h^2 + dxi^2) for psi smooth on the range of u.  It vanishes exactly
    for psi = 1 and psi = 0.
    """
    xi, M = dm.xi, dm.M
    # div beta(., u) of both weights before the table div_x sigma^t, which is
    # then not held while beta_at builds its two sigma^t-sized tables
    div_lhs, div_rhs = [geo.div_tensor11(beta_at(dm.sigmaT, u, xi, w), M) for w in (psi, None)]
    div_slope = geo.div_tensor11(dm.sigmaT, M)
    lhs = div_lhs - beta_at(div_slope, u, xi, psi)
    root = np.sqrt(np.maximum(np.asarray(compile_expr(psi)(xi=u), dtype=float), 0.0))
    rhs = root * (div_rhs - beta_at(div_slope, u, xi, None))
    diff = lhs - rhs
    sq = geo.oneform_norm_sq(diff, M)
    return float(np.sqrt(max(geo.integrate(sq, M), 0.0)))


# --- measure bound ------------------------------------------------------------

def nu_profile(u0, M, xi):
    """nu(xi_b) = integral of (u0 - xi_b)_+ over the chart."""
    return geo.integrate(np.maximum(u0[..., None] - xi.centers, 0.0), M)


NU_SAFETY = 1.1  # multiplicative slack on nu
NU_MARGIN_BINS = 2.0  # additive slack, in bin widths times the chart volume


def nu_bound_check(ledger, u0, M):
    """Per-bin check of binned deposits against the initial-data profile.

    Passes when (M_b + N_b)/dxi <= NU_SAFETY * nu(xi_b) + margin, where the
    additive margin NU_MARGIN_BINS * dxi * Vol(M) absorbs the hat-deposition
    smearing of at most one bin width.
    """
    xi = ledger.xi
    nu = nu_profile(u0, M, xi)
    density = (ledger.bins_m + ledger.bins_n) / xi.dxi
    margin = NU_MARGIN_BINS * xi.dxi * M.volume()
    bound = NU_SAFETY * nu + margin
    ok = density <= bound
    return {
        "nu": nu,
        "density": density,
        "bound": bound,
        "pass": bool(np.all(ok)),
        "worst_bin": int(np.argmax(density - bound)),
        "worst_excess": float(np.max(density - bound)),
    }
