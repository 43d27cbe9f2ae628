"""Coefficient fields: flux, diffusion tensor, antiderivative tensors.

Every state-dependent coefficient is tabulated once on grid x xi-edges (an
expression by `ChartGrid.eval_expr`) and evaluated afterwards by linear
interpolation in xi.  The same tabulate / cumulative-trapezoid /
interpolate path is shared by the solver, the entropy integrals and the
measure deposits, so quantities that coincide analytically coincide here up
to one quadrature convention.  The one
exception is `beta_at`, the psi-weighted antiderivatives of the chain rule:
their tables carry the integrand as an exact xi-slope, so they are evaluated
by cubic Hermite interpolation (`xi_hermite`), whose xi-derivative is second
order.
Both read tables through one path: `_locate` maps u to a node number, an
xi-cell i0 and an in-cell weight; `_gather` reads the entries at edges i0
and i0 + 1 of each node.  A node is numbered by its grid position only: axes
of u after the grid axes are batch columns, and every column reads the rows
of the same nodes.

Every table has the shape comps + grid + (n_edges,) and is stored xi-major:
within each component, the entries of all nodes at one edge are adjacent, so
a lookup at a smooth state reads one cache line per 8 nodes, and `_flat`
views each component's edge and grid axes as one flat axis without a copy.
The models build their tables so: `from_exprs` samples into an
`_empty_xi_major` table (`_edge_table`), the constructors pass their input
through `xi_major`, and every table derived from one keeps its layout.  The
step loop reads them as they are; `transport_table` stacks f and A on one
component axis, so the solver's right-hand side reads both with one lookup.
A table in any other layout is still read correctly, through a copy.
"""

from __future__ import annotations

import functools
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
    """Cumulative trapezoid along the last (xi-edge) axis, zero at xi=0.

    The steps 0.5 dxi (t[i] + t[i+1]) are written into the output and summed
    there, so the output is the only table-sized array it allocates.
    """
    out = np.empty_like(table)
    out[..., 0] = 0.0
    np.add(table[..., 1:], table[..., :-1], out=out[..., 1:])
    out[..., 1:] *= 0.5 * dxi
    # edge by edge, the sums np.cumsum forms: each add reads whole slabs of an
    # xi-major table, where a cumsum along its strided edge axis is 5x slower
    for i in range(1, table.shape[-1] - 1):
        out[..., i + 1] += out[..., i]
    return out


def _locate(u, xi, grid_ndim):
    """Node number, xi-cell index i0 and in-cell weight of each state value in u.

    The first `grid_ndim` axes of u are the grid; the node number counts only
    those and has a unit axis for each batch axis after them, so every batch
    column reads the rows of the same nodes.
    """
    pos = np.asarray(u) / xi.dxi
    # truncation toward 0, not floor: they differ only below 0, where both clip to cell 0
    i0 = pos.astype(int)
    np.maximum(i0, 0, out=i0)
    np.minimum(i0, xi.n - 1, out=i0)
    return _nodes(i0.shape[:grid_ndim], i0.ndim - grid_ndim), i0, pos - i0


@functools.lru_cache(maxsize=16)
def _nodes(grid, batch_ndim):
    """Node numbers of a grid, with a unit axis per batch axis; read-only, shared by every caller."""
    node = np.arange(math.prod(grid)).reshape(grid + (1,) * batch_ndim)
    node.flags.writeable = False
    return node


def _flat(table, grid_ndim):
    """An edge table as comps + (n_edges * nodes,): row i * nodes + node holds edge i of that node.

    A view of a dense xi-major table; a table in any other layout is copied.
    """
    c = table.ndim - 1 - grid_ndim
    # the edge axis moved ahead of the grid axes, as np.moveaxis would at 3 us more per lookup
    flat = table.transpose((*range(c), table.ndim - 1, *range(c, table.ndim - 1)))
    return flat.reshape(table.shape[:c] + (-1,))


def _gather(table, node, i0, grid_ndim):
    """Entries at edges i0 and i0 + 1 of each node of an edge table, each comps + i0.shape."""
    flat = _flat(table, grid_ndim)
    nodes = flat.shape[-1] // table.shape[-1]
    k = i0 * nodes
    k += node
    lo = flat.take(k, axis=-1)
    k += nodes
    return lo, flat.take(k, axis=-1)


def xi_interp(table, u, xi, grid_ndim=None, out=None):
    """Linear interpolation of an edge table at state values u.

    `table` has shape comps + grid + (n_edges,);
    `u` has the grid shape, or the grid shape followed by batch axes when
    `grid_ndim` (the number of grid axes) is given.  The result is
    comps + u.shape, written into `out` when it is given (and returned).
    Values outside [0,1] are extrapolated linearly from the end cells.
    """
    g = np.ndim(u) if grid_ndim is None else grid_ndim
    node, i0, w = _locate(u, xi, g)
    lo, hi = _gather(table, node, i0, g)
    # lo * (1 - w) + hi * w, the same products and sum, formed in place
    hi *= w
    np.subtract(1.0, w, out=w)
    out = np.multiply(lo, w, out=lo if out is None else out)
    out += hi
    return out


def xi_hermite(values, slopes, u, xi):
    """Cubic Hermite interpolation of an edge table at state values u.

    `values` and `slopes` are edge tables of the same shape, comps + grid +
    (n_edges,); `slopes` holds the
    xi-derivative of `values` at the edges.  Cubic tables are reproduced
    exactly, and the xi-derivative of the result is second order in dxi.
    Values outside [0,1] are extrapolated from the end cells, as in
    `xi_interp`.
    """
    dxi = xi.dxi
    g = np.ndim(u)
    node, i0, t = _locate(u, xi, g)
    v0, v1 = _gather(values, node, i0, g)
    s0, s1 = _gather(slopes, node, i0, g)
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = (t3 - 2.0 * t2 + t) * dxi
    h01 = 3.0 * t2 - 2.0 * t3
    h11 = (t3 - t2) * dxi
    return h00 * v0 + h10 * s0 + h01 * v1 + h11 * s1


def _xi_fd(table, dxi):
    """Centered xi-derivative of an edge table, second-order one-sided at the ends.

    (-3 f0 + 4 f1 - f2) / (2 dxi) and its mirror, so every edge is exact for
    a table quadratic in xi, up to rounding.
    """
    out = np.empty_like(table)
    # an overflow to inf, or inf - inf, is the caller's to reject
    with np.errstate(over="ignore", invalid="ignore"):
        out[..., 1:-1] = (table[..., 2:] - table[..., :-2]) / (2.0 * dxi)
        out[..., 0] = (4.0 * table[..., 1] - 3.0 * table[..., 0] - table[..., 2]) / (2.0 * dxi)
        out[..., -1] = (3.0 * table[..., -1] - 4.0 * table[..., -2] + table[..., -3]) / (2.0 * dxi)
    return out


def _empty_xi_major(shape, grid_ndim):
    """An uninitialised comps + grid + (n_edges,) table stored xi-major."""
    c = len(shape) - 1 - grid_ndim
    return np.moveaxis(np.empty(shape[:c] + shape[-1:] + shape[c:-1]), c, -1)


def xi_major(table, grid_ndim):
    """An edge table stored xi-major: the table itself when it already is, else a copy."""
    c = table.ndim - 1 - grid_ndim
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(table, -1, c)), c, -1)


def _edge_table(exprs, grid, xi):
    """Expressions of x and xi sampled on nodes x xi-edges, one per component, stored xi-major."""
    table = _empty_xi_major((len(exprs),) + grid.shape + (xi.n + 1,), grid.d)
    for k, e in enumerate(exprs):
        table[k] = grid.eval_expr(e, xi.edges)
    return table


def _finite(table, name):
    if not np.all(np.isfinite(table)):
        raise ModelError(f"{name} table contains non-finite entries")
    return table


class FluxModel:
    """Convection coefficients: vector field f(x, xi) and its xi-derivative f'.

    f' has one source, the f table: its centred xi-difference, second-order
    one-sided at the two end edges (`_xi_fd`).  It is exact at every edge for
    a flux quadratic in xi, up to rounding.
    """

    def __init__(self, grid, xi, f_table):
        self.grid = grid
        self.xi = xi
        expected = (grid.d,) + grid.shape + (xi.n + 1,)
        f_table = np.asarray(f_table, dtype=float)
        if f_table.shape != expected:
            raise ModelError(f"flux table shape {f_table.shape} != {expected}")
        self.f = _finite(xi_major(f_table, grid.d), "flux")
        self.fprime = _finite(_xi_fd(self.f, xi.dxi), "flux derivative")

    @classmethod
    def from_exprs(cls, exprs, grid, xi):
        return cls(grid, xi, _edge_table(exprs, grid, xi))

    def max_prime_gnorm(self, M):
        """max over nodes and xi-edges of |f'|_g, one edge at a time: no table-sized temporary."""
        top = max(float(np.max(np.einsum("ij...,i...,j...->...", M.g, self.fprime[..., e],
                                         self.fprime[..., e])))
                  for e in range(self.fprime.shape[-1]))
        return float(np.sqrt(max(top, 0.0)))


class DiffusionModel:
    """Diffusion coefficients from the tensor square root sigma, on the metric `dm.M` it keeps.

    Tables (all on grid x xi-edges, xi-major): sigma, its metric transpose, the
    diffusivity a' = sigma^t sigma, and the antiderivative A with A(x,0)=0.
    """

    def __init__(self, M, xi, sigma_table):
        self.M, self.xi = M, xi
        self.grid = grid = M.grid
        expected = (grid.d, grid.d) + grid.shape + (xi.n + 1,)
        sigma_table = np.asarray(sigma_table, dtype=float)
        if sigma_table.shape != expected:
            raise ModelError(f"sigma table shape {sigma_table.shape} != {expected}")
        self.sigma = _finite(xi_major(sigma_table, grid.d), "sigma")
        # einsum keeps the inputs' layout, so these come out xi-major too
        self.sigmaT = geo.transpose11(self.sigma, M)
        self.aprime = np.einsum("km...z,mi...z->ki...z", self.sigmaT, self.sigma)
        with np.errstate(over="ignore"):  # an overflow to inf is rejected just below
            self.A = cumtrapz_edges(self.aprime, xi.dxi)
        # A accumulates along xi, so a non-finite entry carries on to the last edge
        _finite(self.A[..., -1], "A")

    @classmethod
    def from_exprs(cls, entries, M, xi):
        sig = _edge_table([e for row in entries for e in row], M.grid, xi)
        return cls(M, xi, sig.reshape((M.grid.d, M.grid.d) + sig.shape[1:]))

    def max_abs_aprime(self, lo, hi):
        """|a'| per component and node, maximised over the xi-edges of the cells [lo, hi] touches.

        A cell touches the interval when they share a point, so the result
        bounds the slope of `xi_interp` of A at every state in [lo, hi].  It
        is shaped (d, d) + grid; the edges are taken one at a time, so no
        table-sized temporary is made.
        """
        n, dxi = self.xi.n, self.xi.dxi
        first = min(max(math.ceil(lo / dxi) - 1, 0), n - 1)
        last = max(min(math.floor(hi / dxi), n - 1), first) + 1
        out = np.abs(self.aprime[..., first])
        edge = np.empty_like(out)
        for e in range(first + 1, last + 1):
            np.maximum(out, np.abs(self.aprime[..., e], out=edge), out=out)
        return out


def transport_table(fm, dm):
    """F = f and T = A on one component axis: (d + d*d,) + grid + (n_edges,), xi-major.

    A contiguous copy of the two xi-major tables, stacked in the order
    `geometry.transport_stencil` takes its parts: `xi_interp` of it at u gives
    f(x, u) and A(x, u) with one locate, each component equal to a lookup of
    its own table.
    """
    d = fm.grid.d
    table = _empty_xi_major((d + d * d,) + fm.f.shape[1:], d)
    table[:d] = fm.f
    table[d:] = dm.A.reshape((d * d,) + dm.A.shape[2:])
    return table


def root_weight(psi, xi):
    """sqrt(psi) on the xi-edges; psi is an expression of xi, >= 0 on [0,1]."""
    w = np.asarray(compile_expr(psi)(xi=xi.edges), dtype=float)
    w = np.broadcast_to(w, xi.edges.shape)
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ModelError("psi must be finite and nonnegative on [0,1]")
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

# the threshold of `maniflow audit-compat` on each edge's max norm, in units of h^2
COMPAT_TOL_FACTOR = 10.0


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


def make_compatible_flux(dm, stream=None):
    """Manufacture a flux satisfying the compatibility condition on the metric `dm.M`.

    f(., xi) = (div A(., xi))# + W with W divergence-free, at every xi-edge.
    `divdiv_tensor11` is the flux-form divergence of the same (div A)#,
    except that it takes d_i A^i_j by a compact second difference, so the
    defect `solver.compat_defect` reads at each edge is only the truncation
    of that stencil.  W is a discrete curl, whose flux-form divergence
    vanishes to round-off: at xi = 0, where A = 0, the defect is round-off.
    """
    f = geo.sharp(geo.div_tensor11(dm.A, dm.M), dm.M)
    if stream is not None:
        f += stream_vector(stream, dm.M)[..., None]
    return FluxModel(dm.grid, dm.xi, f)


def psd_audit(dm):
    """Minimum of <a' v, v>_g, g = `dm.M`, over nodes, xi-edges and unit directions.

    The minimum over directions is the least eigenvalue of S, the symmetric
    part of g a': S itself for d = 1 and (tr S - hypot(S11 - S22, 2 S12)) / 2
    for d = 2, formed in place on the g a' table.
    """
    S = np.einsum("ij...,jk...z->ik...z", dm.M.g, dm.aprime)
    if dm.grid.d == 2:
        s11, s12, s21, s22 = S[0, 0], S[0, 1], S[1, 0], S[1, 1]
        s12 += s21  # 2 S12
        np.subtract(s11, s22, out=s21)
        s11 += s22
        s11 -= np.hypot(s21, s12, out=s12)
        s11 *= 0.5
    return {"min_quadratic_form": float(np.min(S[0, 0]))}
