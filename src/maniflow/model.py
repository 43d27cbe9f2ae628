"""Coefficient fields: flux, diffusion tensor, antiderivative tensors.

Every state-dependent coefficient is tabulated once on grid x xi-edges and
evaluated afterwards by linear interpolation in xi.  The same tabulate /
cumulative-trapezoid / interpolate path is shared by the solver, the
entropy integrals and the measure deposits, so quantities that coincide
analytically coincide here up to one quadrature convention.  The one
exception is the beta family of the chain rule: its antiderivative tables
carry their integrand as an exact xi-slope, so they are evaluated by cubic
Hermite interpolation (`xi_hermite`), whose xi-derivative is second order.
Both read tables through one path: `_locate` maps u to the flat row index
k = node*(n_xi+1) + i0 and an in-cell weight; `_gather` reads rows k, k+1.
"""

from __future__ import annotations

import numpy as np

from .exprparse import compile_expr
from . import geometry as geo


class ModelError(ValueError):
    pass


class XiGrid:
    """State interval [0,1] split into n_xi bins.

    Coefficient tables live on the bin edges b/n_xi (so xi = 0 and 1 are
    sampled exactly); the kinetic function and the dissipation ledger live
    on the bin centers.
    """

    def __init__(self, n_xi):
        if n_xi < 16:
            raise ModelError(f"xi bin count must be >= 16, got {n_xi}")
        self.n = int(n_xi)
        self.dxi = 1.0 / n_xi
        self.edges = np.arange(n_xi + 1) * self.dxi
        self.centers = (np.arange(n_xi) + 0.5) * self.dxi

    def __repr__(self):
        return f"XiGrid(n_xi={self.n})"


def cumtrapz_edges(table, dxi):
    """Cumulative trapezoid along the last (xi-edge) axis, zero at xi=0."""
    out = np.zeros_like(table)
    steps = 0.5 * dxi * (table[..., 1:] + table[..., :-1])
    out[..., 1:] = np.cumsum(steps, axis=-1)
    return out


def _locate(u, xi):
    """Flat row index k = node*(n_xi+1) + i0 of the xi-cell holding u, and the weight in it."""
    pos = np.asarray(u) / xi.dxi
    i0 = np.minimum(np.maximum(np.floor(pos).astype(int), 0), xi.n - 1)
    k = i0 + (xi.n + 1) * np.arange(i0.size).reshape(i0.shape)
    return k, pos - i0


def _gather(table, k):
    """Rows k of a comps + grid + (n_edges,) table, read in its stored layout.

    For a C-contiguous table the reshape is a view, so nothing is copied.
    """
    return np.take(table.reshape(table.shape[:table.ndim - 1 - k.ndim] + (-1,)), k, axis=-1)


def xi_interp(table, u, xi):
    """Linear interpolation of an edge table at state values u.

    `table` has shape comps + grid + (n_edges,), `u` has the grid shape.
    Values outside [0,1] are extrapolated linearly from the end cells.
    """
    k, w = _locate(u, xi)
    return _gather(table, k) * (1.0 - w) + _gather(table, k + 1) * w


def xi_hermite(values, slopes, u, xi):
    """Cubic Hermite interpolation of an edge table at state values u.

    `values` and `slopes` are edge tables of the same shape, comps + grid +
    (n_edges,); `slopes` holds the xi-derivative of `values` at the edges.
    Cubic tables are reproduced exactly, and the xi-derivative of the result
    is second order in dxi.  Values outside [0,1] are extrapolated from the
    end cells, as in `xi_interp`.
    """
    dxi = xi.dxi
    k, t = _locate(u, xi)
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = (t3 - 2.0 * t2 + t) * dxi
    h01 = 3.0 * t2 - 2.0 * t3
    h11 = (t3 - t2) * dxi
    return (h00 * _gather(values, k) + h10 * _gather(slopes, k)
            + h01 * _gather(values, k + 1) + h11 * _gather(slopes, k + 1))


def _tabulate(expr, grid, edges):
    """Sample an expression of (x, xi) on grid x edges -> grid + (n_edges,)."""
    fn = compile_expr(expr)
    xs = grid.coords()
    bindings = {"x1": xs[0][..., None]}
    if grid.d == 2:
        bindings["x2"] = xs[1][..., None]
    bindings["xi"] = edges.reshape((1,) * grid.d + (-1,))
    out = fn(**bindings)
    return np.broadcast_to(np.asarray(out, dtype=float), grid.shape + (len(edges),)).copy()


def _xi_fd(table, dxi):
    """Centered xi-derivative of an edge table, one-sided at the ends."""
    out = np.empty_like(table)
    out[..., 1:-1] = (table[..., 2:] - table[..., :-2]) / (2.0 * dxi)
    out[..., 0] = (table[..., 1] - table[..., 0]) / dxi
    out[..., -1] = (table[..., -1] - table[..., -2]) / dxi
    return out


class FluxModel:
    """Convection coefficients: vector field f(x, xi) and its xi-derivative."""

    def __init__(self, grid, xi, f_table, fprime_table=None):
        self.grid = grid
        self.xi = xi
        expected = (grid.d,) + grid.shape + (xi.n + 1,)
        f_table = np.asarray(f_table, dtype=float)
        if f_table.shape != expected:
            raise ModelError(f"flux table shape {f_table.shape} != {expected}")
        if not np.all(np.isfinite(f_table)):
            raise ModelError("flux table contains non-finite entries")
        self.f = f_table
        self.fprime = np.asarray(fprime_table, dtype=float) if fprime_table is not None \
            else _xi_fd(f_table, xi.dxi)

    @classmethod
    def from_exprs(cls, exprs, grid, xi, prime_exprs=None):
        f = np.stack([_tabulate(e, grid, xi.edges) for e in exprs])
        fp = None
        if prime_exprs is not None:
            fp = np.stack([_tabulate(e, grid, xi.edges) for e in prime_exprs])
        return cls(grid, xi, f, fp)

    @classmethod
    def zero(cls, grid, xi):
        return cls(grid, xi, np.zeros((grid.d,) + grid.shape + (xi.n + 1,)))

    def at(self, u):
        """Vector field x -> f(x, u(x))."""
        return xi_interp(self.f, u, self.xi)

    def max_prime_gnorm(self, M):
        norms = np.einsum("ij...,i...b,j...b->...b", M.g, self.fprime, self.fprime)
        return float(np.sqrt(max(np.max(norms), 0.0)))


class DiffusionModel:
    """Diffusion coefficients derived from the tensor square root sigma.

    Tables (all on grid x xi-edges): sigma, its metric transpose, the
    diffusivity a' = sigma^t sigma, and the antiderivative A with A(x,0)=0.
    """

    def __init__(self, grid, xi, M, sigma_table):
        self.grid = grid
        self.xi = xi
        expected = (grid.d, grid.d) + grid.shape + (xi.n + 1,)
        sigma_table = np.asarray(sigma_table, dtype=float)
        if sigma_table.shape != expected:
            raise ModelError(f"sigma table shape {sigma_table.shape} != {expected}")
        if not np.all(np.isfinite(sigma_table)):
            raise ModelError("sigma table contains non-finite entries")
        self.sigma = sigma_table
        self.sigmaT = geo.transpose11(sigma_table, M)
        self.aprime = np.einsum("km...z,mi...z->ki...z", self.sigmaT, sigma_table)
        self.A = cumtrapz_edges(self.aprime, xi.dxi)

    @classmethod
    def from_exprs(cls, entries, grid, xi, M):
        d = grid.d
        sig = np.empty((d, d) + grid.shape + (xi.n + 1,))
        for k in range(d):
            for i in range(d):
                sig[k, i] = _tabulate(entries[k][i], grid, xi.edges)
        return cls(grid, xi, M, sig)

    @classmethod
    def zero(cls, grid, xi, M):
        return cls(grid, xi, M, np.zeros((grid.d, grid.d) + grid.shape + (xi.n + 1,)))

    def A_at(self, u):
        """Tensor field x -> A(x, u(x)), the discrete antiderivative of a'."""
        return xi_interp(self.A, u, self.xi)

    def sigmaT_at(self, u):
        return xi_interp(self.sigmaT, u, self.xi)

    def max_aprime_opnorm(self):
        a = self.aprime
        if self.grid.d == 1:
            return float(np.max(np.abs(a[0, 0])))
        tr = a[0, 0] + a[1, 1]
        disc = np.sqrt(np.maximum((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] * a[1, 0], 0.0))
        return float(np.max(np.maximum(np.abs(0.5 * (tr + disc)), np.abs(0.5 * (tr - disc)))))


def root_weight(psi, xi):
    """sqrt(psi) on the xi-edges; psi is an expression of xi, >= 0 on [0,1]."""
    w = np.asarray(compile_expr(psi)(xi=xi.edges), dtype=float)
    w = np.broadcast_to(w, xi.edges.shape)
    if np.any(w < 0):
        raise ModelError("psi must be nonnegative on [0,1]")
    return np.sqrt(w)


class BetaFamily:
    """Antiderivatives of the transposed square root, plain and psi-weighted.

    beta^psi(x, xi) = integral_0^xi sqrt(psi(z)) sigma^t(x, z) dz is tabulated
    on the xi-edges by the cumulative trapezoid (psi = None: plain, psi = 1)
    and evaluated at a state u by cubic Hermite interpolation in xi, with the
    integrand table sqrt(psi) sigma^t as the slopes.  The frozen divergence
    (div_x beta^psi)(x, u) is evaluated the same way from per-edge
    divergences of the integrand, which are computed once per family and
    shared by every psi, since div_x commutes with the xi-quadrature.
    """

    def __init__(self, dm):
        self.dm = dm
        self.xi = dm.xi
        self._div_slope = None
        self._div_metric = None

    def _tables(self, slope, psi):
        """(values, slopes) edge tables of the sqrt(psi)-weighted antiderivative of slope."""
        if psi is not None:
            slope = slope * root_weight(psi, self.xi)
        return cumtrapz_edges(slope, self.xi.dxi), slope

    def at(self, u, psi=None):
        """Tensor field x -> beta^psi(x, u(x))."""
        return xi_hermite(*self._tables(self.dm.sigmaT, psi), u, self.xi)

    def div_at(self, u, M, psi=None):
        """One-form field x -> (div_x beta^psi)(x, xi) evaluated at xi = u(x)."""
        if self._div_metric is not M:
            self._div_slope = geo.div_tensor11(self.dm.sigmaT, M)
            self._div_metric = M
        return xi_hermite(*self._tables(self._div_slope, psi), u, self.xi)


# --- geometry compatibility -------------------------------------------------

def compat_residual(fm, dm, M, xi_value):
    """Pointwise residual div f(., xi) - divdiv A(., xi) at one state value."""
    const = np.full(fm.grid.shape, float(xi_value))
    f_slice = xi_interp(fm.f, const, fm.xi)
    A_slice = xi_interp(dm.A, const, dm.xi)
    return geo.div_vector(f_slice, M) - geo.divdiv_tensor11(A_slice, M)


def compat_norms(fm, dm, M, xi_value):
    r = compat_residual(fm, dm, M, xi_value)
    return {"max": float(np.max(np.abs(r))), "l1": geo.norm_l1(r, M)}


def stream_vector(stream, M):
    """Divergence-free vector from a stream function: W^i = eps^{ij} d_j psi / sqrt|g|."""
    grid = M.grid
    if grid.d != 2:
        raise ModelError("stream functions require d = 2")
    psi = grid.eval_expr(stream)
    W = np.empty((2,) + grid.shape)
    W[0] = geo.ddx(psi, 1, grid.h) / M.sqrt_det
    W[1] = -geo.ddx(psi, 0, grid.h) / M.sqrt_det
    return W


def make_compatible_flux(dm, M, stream=None):
    """Manufacture a flux satisfying the compatibility condition.

    f(., xi) = (div A(., xi))# + W with W divergence-free; the two sides of
    the compatibility residual then agree analytically, so the audit sees
    pure stencil truncation.
    """
    f = geo.sharp(geo.div_tensor11(dm.A, M), M)
    if stream is not None:
        f += stream_vector(stream, M)[..., None]
    return FluxModel(dm.grid, dm.xi, f)


def psd_audit(dm, M, n_dirs=8, seed=0):
    """Minimum of <a' v, v>_g over nodes, xi-samples and random directions."""
    v = np.random.default_rng(seed).normal(size=(n_dirs, dm.grid.d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    g_a = np.einsum("ij...,jk...z->ik...z", M.g, dm.aprime)
    quad = np.einsum("ni,ik...z,nk->n...z", v, g_a, v)
    return {"min_quadratic_form": float(np.min(quad)), "n_dirs": n_dirs, "seed": seed}
