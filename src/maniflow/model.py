"""Coefficient fields: flux, diffusion tensor, antiderivative tensors.

Every state-dependent coefficient is tabulated once on grid x xi-edges and
evaluated afterwards by linear interpolation in xi.  The same tabulate /
cumulative-trapezoid / interpolate path is shared by the solver, the
entropy integrals and the measure deposits, so quantities that coincide
analytically coincide here up to one quadrature convention.  The one
exception is `beta_at`, the psi-weighted antiderivatives of the chain rule:
their tables carry the integrand as an exact xi-slope, so they are evaluated
by cubic Hermite interpolation (`xi_hermite`), whose xi-derivative is second
order.
Both read tables through one path: `_locate` maps u to the flat row index
k = node*(n_xi+1) + i0 and an in-cell weight; `_gather` reads rows k, k+1.
A node is numbered by its grid position only: axes of u after the grid axes
are batch columns, and every column reads the rows of the same nodes.
"""

from __future__ import annotations

import math

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


def _locate(u, xi, grid_ndim):
    """Flat row index k = node*(n_xi+1) + i0 of the xi-cell holding u, and the weight in it.

    The first `grid_ndim` axes of u are the grid; the node number counts only
    those, so batch axes after them share the node's rows.
    """
    pos = np.asarray(u) / xi.dxi
    i0 = np.minimum(np.maximum(np.floor(pos).astype(int), 0), xi.n - 1)
    grid = i0.shape[:grid_ndim]
    node = np.arange(math.prod(grid)).reshape(grid + (1,) * (i0.ndim - grid_ndim))
    return i0 + (xi.n + 1) * node, pos - i0


def _gather(table, k, grid_ndim):
    """Rows k of a comps + grid + (n_edges,) table, read in its stored layout.

    k has the grid axes then any batch axes; the result is comps + k.shape.
    For a C-contiguous table the reshape is a view, so nothing is copied.
    """
    return np.take(table.reshape(table.shape[:table.ndim - 1 - grid_ndim] + (-1,)), k, axis=-1)


def xi_interp(table, u, xi, grid_ndim=None):
    """Linear interpolation of an edge table at state values u.

    `table` has shape comps + grid + (n_edges,); `u` has the grid shape, or
    the grid shape followed by batch axes when `grid_ndim` (the number of
    grid axes) is given.  The result is comps + u.shape.  Values outside
    [0,1] are extrapolated linearly from the end cells.
    """
    g = np.ndim(u) if grid_ndim is None else grid_ndim
    k, w = _locate(u, xi, g)
    return _gather(table, k, g) * (1.0 - w) + _gather(table, k + 1, g) * w


def xi_hermite(values, slopes, u, xi):
    """Cubic Hermite interpolation of an edge table at state values u.

    `values` and `slopes` are edge tables of the same shape, comps + grid +
    (n_edges,); `slopes` holds the xi-derivative of `values` at the edges.
    Cubic tables are reproduced exactly, and the xi-derivative of the result
    is second order in dxi.  Values outside [0,1] are extrapolated from the
    end cells, as in `xi_interp`.
    """
    dxi = xi.dxi
    g = np.ndim(u)
    k, t = _locate(u, xi, g)
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = (t3 - 2.0 * t2 + t) * dxi
    h01 = 3.0 * t2 - 2.0 * t3
    h11 = (t3 - t2) * dxi
    return (h00 * _gather(values, k, g) + h10 * _gather(slopes, k, g)
            + h01 * _gather(values, k + 1, g) + h11 * _gather(slopes, k + 1, g))


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
        """Vector field x -> f(x, u(x)); u may carry batch axes."""
        return xi_interp(self.f, u, self.xi, self.grid.d)

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
        """Tensor field x -> A(x, u(x)), the discrete antiderivative of a'; u may be batched."""
        return xi_interp(self.A, u, self.xi, self.grid.d)

    def sigmaT_at(self, u):
        """Tensor field x -> sigma^t(x, u(x)); u may carry batch axes."""
        return xi_interp(self.sigmaT, u, self.xi, self.grid.d)

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


def beta_at(slope, u, xi, psi=None):
    """x -> integral_0^u(x) sqrt(psi(z)) slope(x, z) dz, for an edge table `slope`.

    The sqrt(psi)-weighted integrand is tabulated on the xi-edges (psi = None:
    unweighted), its antiderivative by the cumulative trapezoid, and the pair
    is evaluated at u by cubic Hermite interpolation with the integrand as the
    slopes.  With slope = sigma^t this is beta^psi(x, u(x)); with slope =
    div_x sigma^t it is the frozen divergence (div_x beta^psi)(x, u(x)), since
    div_x commutes with the xi-quadrature.
    """
    if psi is not None:
        slope = slope * root_weight(psi, xi)
    return xi_hermite(cumtrapz_edges(slope, xi.dxi), slope, u, xi)


# --- geometry compatibility -------------------------------------------------

def compat_residual(fm, dm, M, xi_value):
    """div f(., xi) - divdiv A(., xi): minus `geometry.transport` at the constant state xi."""
    const = np.full(fm.grid.shape, float(xi_value))
    f_slice = xi_interp(fm.f, const, fm.xi)
    A_slice = xi_interp(dm.A, const, dm.xi)
    return -geo.transport(f_slice, A_slice, const, M, 0.0)


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
