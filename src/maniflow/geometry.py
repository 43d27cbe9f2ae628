"""Discrete Riemannian calculus on a periodic structured grid.

A chart is the unit torus [0,1)^d (d = 1 or 2) sampled on n points per
axis.  A metric is an SPD matrix field g_ij sampled on the nodes; its
inverse, volume density sqrt|g| and Christoffel symbols are derived once
and reused by every differential operator.

Array shape conventions:
    ScalarField   : grid
    VectorField   : (d,) + grid          components X^k
    OneFormField  : (d,) + grid          components w_i
    Tensor11Field : (d, d) + grid        components T[k, i] = T^k_i

Axes after the grid axes are batch axes: `div_vector`, `div_tensor11`,
`divdiv_tensor11`, `laplace_beltrami`, `transpose11`, `sharp`,
`oneform_norm_sq` and `integrate` treat each column along them as an
independent field (see `_batched`), and `integrate` returns one value per
column.

All first derivatives are second-order central differences with periodic
wrap; the Laplace-Beltrami operator alone uses a conservative face-flux
form so that its integral against the volume density telescopes to zero
exactly.  Every periodic stencil reads its neighbours f[i-1], f[i+1] through
`_neighbours`, two views of one padded copy.

Beyond those, a metric caches only the lower-order coefficients of
`divdiv_tensor11` (`MetricField.divdiv_coef`), read once per kinetic
residual, once per entropy residual and by every stencil assembly.  The
metric coefficients of `div_tensor11` and `laplace_beltrami` are one
contraction or average of arrays the metric already holds, cheap beside the
operators, and outside the step loop, which applies an assembled stencil,
the operators are called a few times per diagnostic, so they form them on
each call.

The equation's spatial operator, L(F, T, u) = -div F + divdiv T +
eta * Laplace-Beltrami(u), is defined once, as `transport`.  The diagnostics
call it, the compatibility audit applies it to constant states (where the
Laplace-Beltrami term is exactly zero) and the step loop applies it
assembled: every operator reads at most one node away along each axis, so L
is a `Stencil`, per-node weights on the 3^d - 1 off-centre neighbours plus
its value on constant fields.  `assemble_stencil` derives the weights by
probing an operator with period-4 combs and raises GeometryError when it
reaches further.  A stencil is applied in difference form, so weights of
order 1/h^2 multiply neighbour differences rather than cancel after rounding.
`transport_stencil` assembles `transport` at one eta; its caller owns it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .exprparse import compile_expr


class GeometryError(ValueError):
    pass


class ChartGrid:
    """Periodic grid on [0,1)^d with spacing h = 1/n."""

    def __init__(self, d, n):
        if d not in (1, 2):
            raise GeometryError(f"dimension must be 1 or 2, got {d}")
        if n < 16 or (n & (n - 1)) != 0:
            raise GeometryError(f"points-per-axis must be a power of two >= 16, got {n}")
        self.d = int(d)
        self.n = int(n)
        self.h = 1.0 / n
        self.shape = (n,) * d

    def coords(self):
        """d arrays of node coordinates, each shaped like a scalar field."""
        x = np.arange(self.n) * self.h
        if self.d == 1:
            return [x]
        return list(np.meshgrid(x, x, indexing="ij"))

    def eval_expr(self, expr, edges=None):
        """Sample an expression (text or number) of x1...x_d on the nodes: grid.

        Given the xi-`edges`, sample an expression of x1...x_d and xi on
        nodes x edges: grid + (len(edges),).  Every expression of x in a
        config is sampled here.
        """
        fn = compile_expr(expr)
        bindings = {f"x{i}": x for i, x in enumerate(self.coords(), start=1)}
        shape = self.shape
        if edges is not None:
            bindings = {k: x[..., None] for k, x in bindings.items()}
            bindings["xi"] = edges.reshape((1,) * self.d + (-1,))
            shape += (len(edges),)
        return np.broadcast_to(np.asarray(fn(**bindings), dtype=float), shape).copy()

    def __repr__(self):
        return f"ChartGrid(d={self.d}, n={self.n})"


# --- stencils ---------------------------------------------------------------

def _wrap_pad(f, axis):
    """f with its last slab prepended and its first slab appended along `axis` (periodic)."""
    n = f.shape[axis]
    lead = (slice(None),) * axis
    return np.concatenate((f[lead + (slice(n - 1, n),)], f, f[lead + (slice(0, 1),)]), axis)


def _neighbours(f, axis):
    """(f[i-1], f[i+1]) along a non-negative `axis`, periodic wrap.

    Both are views of one copy of f padded with its last and first slabs.
    """
    n = f.shape[axis]
    lead = (slice(None),) * axis
    padded = _wrap_pad(f, axis)
    return padded[lead + (slice(0, n),)], padded[lead + (slice(2, n + 2),)]


def ddx(f, axis, h):
    """Central first derivative along an array axis, periodic wrap."""
    fm, fp = _neighbours(f, axis)
    return (fp - fm) / (2.0 * h)


def d2dx(f, ax1, ax2, h):
    """Second derivative: 3-point stencil if repeated, central cross otherwise."""
    if ax1 == ax2:
        fm, fp = _neighbours(f, ax1)
        return (fp - 2.0 * f + fm) / (h * h)
    return ddx(ddx(f, ax1, h), ax2, h)


# --- metric -----------------------------------------------------------------

LAM_MIN = 1e-6  # the smallest metric eigenvalue accepted as positive


class MetricField:
    """Sampled metric with derived inverse, density and Christoffel symbols."""

    def __init__(self, grid, g):
        self.grid = grid
        d, shape = grid.d, grid.shape
        g = np.asarray(g, dtype=float)
        if g.shape != (d, d) + shape:
            raise GeometryError(f"metric shape {g.shape} != {(d, d) + shape}")
        if not np.all(np.isfinite(g)):
            raise GeometryError("metric entries are not finite")
        if not np.array_equal(g, np.swapaxes(g, 0, 1)):
            raise GeometryError("metric entries are not symmetric")
        self.g = g
        self._check_spd()
        self.ginv, self.det = self._invert()
        self.sqrt_det = np.sqrt(self.det)
        self.gamma = self._christoffel()
        # Gamma^j_{kj} contracted over the repeated slot, indexed by k
        self.gamma_trace = np.einsum("jkj...->k...", self.gamma)

    def _check_spd(self):
        if self.grid.d == 1:
            lam = self.g[0, 0]
        else:
            # entries near the float limit overflow here; the NaN or -inf
            # eigenvalue they give fails the test below
            with np.errstate(over="ignore", invalid="ignore"):
                tr = self.g[0, 0] + self.g[1, 1]
                det = self.g[0, 0] * self.g[1, 1] - self.g[0, 1] * self.g[1, 0]
                disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
                lam = 0.5 * (tr - disc)
        if not np.all(lam >= LAM_MIN):  # NaN fails it too
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(lam)), self.grid.shape))
            raise GeometryError(
                f"metric not SPD at node {idx}: min eigenvalue "
                f"{float(lam[idx]):.3e} < {LAM_MIN:.1e}")

    def _invert(self):
        if self.grid.d == 1:
            det = self.g[0, 0].copy()
            ginv = np.empty_like(self.g)
            ginv[0, 0] = 1.0 / det
            return ginv, det
        a, b, c = self.g[0, 0], self.g[0, 1], self.g[1, 1]
        det = a * c - b * b
        ginv = np.empty_like(self.g)
        ginv[0, 0] = c / det
        ginv[1, 1] = a / det
        ginv[0, 1] = -b / det
        ginv[1, 0] = ginv[0, 1]
        return ginv, det

    def _christoffel(self):
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), FD of g
        d, h, shape = self.grid.d, self.grid.h, self.grid.shape
        dg = np.empty((d, d, d) + shape)  # dg[i, j, l] = d_i g_jl
        for i in range(d):
            dg[i] = ddx(self.g, 2 + i, h)
        # bracket[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
        bracket = dg + np.swapaxes(dg, 0, 1) - np.moveaxis(dg, 0, 2)
        return 0.5 * np.einsum("kl...,ijl...->kij...", self.ginv, bracket)

    @cached_property
    def divdiv_coef(self):
        """(P, Q) with divdiv T = g^{ij} d_i d_k T^k_j + P[a, b, c] d_a T^b_c + Q[a, b] T^a_b.

        The bracket form of div(div T), grouped by derivative order of T, with
        t_l = Gamma^j_{lj}, c^k = g^{ij} Gamma^k_{ij} and d_i Gamma by central FD;
        built on first use.
        """
        d, h = self.grid.d, self.grid.h
        gi, G, t = self.ginv, self.gamma, self.gamma_trace
        dG = np.stack([ddx(G, 3 + i, h) for i in range(d)])  # dG[i, k, l, j] = d_i Gamma^k_{lj}
        c = np.einsum("ij...,kij...->k...", gi, G)
        P = np.einsum("ac...,b...->abc...", gi, t) - np.einsum("aj...,cbj...->abc...", gi, G)
        for a in range(d):
            P[a, a] -= c
        Q = (np.einsum("ib...,ikka...->ab...", gi, dG) - np.einsum("ij...,ibaj...->ab...", gi, dG)
             - np.einsum("a...,b...->ab...", t, c) + np.einsum("k...,bka...->ab...", c, G))
        return P, Q

    def volume(self):
        return float(np.sum(self.sqrt_det) * self.grid.h ** self.grid.d)


def build_metric(entries, grid):
    """Sample a d x d expression table into a MetricField, which checks it is symmetric."""
    d = grid.d
    g = np.empty((d, d) + grid.shape)
    for i in range(d):
        for j in range(d):
            g[i, j] = grid.eval_expr(entries[i][j])
    return MetricField(grid, g)


# --- first-order operators --------------------------------------------------

def gradient(v, M):
    """(grad v)^j = g^{ji} d_i v."""
    grid = M.grid
    dv = np.stack([ddx(v, i, grid.h) for i in range(grid.d)])
    return np.einsum("ji...,i...->j...", M.ginv, dv)


def div_vector(X, M):
    """div X = d_k X^k + Gamma^j_{kj} X^k; X may carry batch axes."""
    grid = M.grid
    t, = _batched(M, X, 1, M.gamma_trace)
    out = np.zeros(X.shape[1:])
    for k in range(grid.d):
        out += ddx(X[k], k, grid.h)
    out += np.einsum("k...,k...->...", t, X)
    return out


def div_oneform(w, M):
    """div w = g^{ij} d_i w_j - Gamma^k_{il} g^{il} w_k."""
    grid = M.grid
    dw = np.stack([ddx(w, 1 + i, grid.h) for i in range(grid.d)])  # dw[i, j] = d_i w_j
    out = np.einsum("ij...,ij...->...", M.ginv, dw)
    contr = np.einsum("kil...,il...->k...", M.gamma, M.ginv)
    out -= np.einsum("k...,k...->...", contr, w)
    return out


def div_tensor11(T, M):
    """(div T)_i = d_j T^j_i + Gamma^j_{jl} T^l_i - Gamma^l_{ji} T^j_l.

    The Christoffel terms are one contraction R[i, a, b] T^a_b with
    R[i, a, b] = Gamma^j_{ja} delta^b_i - Gamma^b_{ai}.  T may carry trailing
    batch axes after the grid axes (see `_batched`).
    """
    grid = M.grid
    R = -np.einsum("bai...->iab...", M.gamma)
    for i in range(grid.d):
        R[i, :, i] += M.gamma_trace
    R, = _batched(M, T, 2, R)
    out = np.einsum("iab...,ab...->i...", R, T)
    for j in range(grid.d):
        out += ddx(T[j], 1 + j, grid.h)
    return out


def divdiv_tensor11(T, M):
    """Scalar double divergence of a (1,1) tensor field.

    The principal part g^{ij} d_i d_k T^k_j uses the compact 3-point stencil
    when i = k and central-of-central otherwise; the lower-order terms use the
    metric-only coefficients of `MetricField.divdiv_coef`.  T may carry batch
    axes.
    """
    grid = M.grid
    d, h = grid.d, grid.h
    P, Q, ginv = _batched(M, T, 2, *M.divdiv_coef, M.ginv)
    dT = np.stack([ddx(T, 2 + a, h) for a in range(d)])  # dT[a, b, c] = d_a T^b_c
    out = np.einsum("abc...,abc...->...", P, dT) + np.einsum("ab...,ab...->...", Q, T)
    for i in range(d):
        for k in range(d):
            # d_i d_k T^k_j; a cross derivative always differences the lower axis first
            ddT = d2dx(T[k], 1 + min(i, k), 1 + max(i, k), h)
            out += np.einsum("j...,j...->...", ginv[i], ddT)
    return out


def laplace_beltrami(v, M):
    """Conservative-form Laplace-Beltrami operator; v may carry batch axes.

    Diagonal terms use compact face fluxes, with sqrt|g| g^{aa} averaged onto
    the faces i + 1/2 along axis a; off-diagonal terms central differences of
    central differences with sqrt|g| g^{ab}.  Every term telescopes under the
    full-grid sum and the associated quadratic form is symmetric.
    """
    grid = M.grid
    d, h = grid.d, grid.h
    kappa = M.sqrt_det * np.einsum("aa...->a...", M.ginv)
    face = np.stack([0.5 * (kappa[a] + _neighbours(kappa[a], a)[1]) for a in range(d)])
    face, cross, sqrt_det = _batched(M, v, 0, face, M.sqrt_det * M.ginv, M.sqrt_det)
    acc = np.zeros(v.shape)
    for a in range(d):
        flux = face[a] * (_neighbours(v, a)[1] - v) / h
        acc += (flux - _neighbours(flux, a)[0]) / h
        for b in range(d):
            if b != a:
                acc += ddx(cross[a, b] * ddx(v, b, h), a, h)
    return acc / sqrt_det


# --- assembled operators ----------------------------------------------------

def transport(F, T, u, M, eta):
    """-div F + divdiv T + eta * laplace_beltrami(u); F, T and u share their batch axes."""
    return -div_vector(F, M) + divdiv_tensor11(T, M) + eta * laplace_beltrami(u, M)


class Stencil:
    """Per-node weights of a linear periodic operator of reach one.

    `weights[j, q]` multiplies component q at offset `offsets[j]` (the 3^d - 1
    off-centre neighbours) and `zeroth[q]` is the operator applied to the unit
    constant field of component q.  Applied in difference form,
    zeroth . Y + sum_j weights[j] . (Y(x + offsets[j]) - Y(x)), so weights of
    order 1/h^2 act on differences and do not cancel after rounding.
    Each offset updates only the components lo:hi that hold its non-zero
    weights (on a curved 2D chart the flux has none at the corners), so
    exact-zero weight blocks at either end of the component axis are skipped.
    """

    def __init__(self, offsets, weights, zeroth):
        self.offsets, self.weights, self.zeroth = offsets, weights, zeroth
        n = zeroth.shape[1]
        # per offset: the components lo:hi (None for all of them), the view of
        # Y(x + s) in Y padded by one node on each side of every grid axis, and
        # the weights as a view
        self._blocks = []
        for s, W in zip(offsets, weights):
            live = np.flatnonzero(W.reshape(len(W), -1).any(axis=1))
            if live.size:
                lo, hi = int(live[0]), int(live[-1]) + 1
                rows = None if hi - lo == len(W) else slice(lo, hi)
                shifted = (slice(lo, hi),) + tuple(slice(1 + a, 1 + a + n) for a in s)
                self._blocks.append((rows, shifted, W[lo:hi]))

    def __call__(self, *parts):
        """One state's parts, each index axes + grid, stacked on axis 0; returns a scalar field."""
        Y = np.concatenate([p.reshape((-1,) + self.zeroth.shape[1:]) for p in parts])
        padded = Y
        for axis in range(1, Y.ndim):
            padded = _wrap_pad(padded, axis)
        acc = self.zeroth * Y
        diff = np.empty_like(Y)
        for rows, shifted, W in self._blocks:
            y, part, total = (Y, diff, acc) if rows is None else (Y[rows], diff[rows], acc[rows])
            np.subtract(padded[shifted], y, out=part)
            part *= W
            total += part
        return acc.sum(axis=0)


def assemble_stencil(op, n_comp, grid):
    """Probe a linear periodic operator into a `Stencil`.

    op maps (n_comp,) + grid + batch to grid + batch.  The grid size is a
    power of two >= 16, so period-4 combs separate the three neighbours of a
    node along each axis; op is called once per comb phase, with the unit
    probe of each component on the batch axis.  A check on one random field
    raises GeometryError if op reaches beyond one node.
    """
    d, shape = grid.d, grid.shape
    offsets = [tuple(a - 1 for a in s) for s in np.ndindex((3,) * d) if s != (1,) * d]
    weights = np.empty((len(offsets), n_comp) + shape)
    eye = np.arange(n_comp)
    probe = np.zeros((n_comp,) + shape + (n_comp,))
    probe[eye, ..., eye] = 1.0
    zeroth = np.ascontiguousarray(np.moveaxis(op(probe), -1, 0))
    for phase in np.ndindex((4,) * d):
        probe[...] = 0.0
        probe[(eye,) + tuple(slice(p, None, 4) for p in phase) + (eye,)] = 1.0
        out = np.moveaxis(op(probe), -1, 0)
        for j, s in enumerate(offsets):
            # the nodes x with x + s on this phase's comb
            nodes = tuple(slice((p - a) % 4, None, 4) for p, a in zip(phase, s))
            weights[(j, slice(None)) + nodes] = out[(slice(None),) + nodes]
    st = Stencil(offsets, weights, zeroth)
    Y = np.random.default_rng(0).standard_normal((n_comp,) + shape)
    ref = op(Y)
    err = float(np.max(np.abs(st(Y) - ref)))
    if err > 1e-12 * float(np.max(np.abs(ref))):
        raise GeometryError(f"operator reaches beyond one node: stencil differs by {err:.3e}")
    return st


def transport_stencil(M, eta):
    """`Stencil` of `transport` at eta, applied as stencil(F, T, u); assembled on every call."""
    d = M.grid.d
    return assemble_stencil(
        lambda Y: transport(Y[:d], Y[d:-1].reshape((d, d) + Y.shape[1:]), Y[-1], M, eta),
        d + d * d + 1, M.grid)


# --- algebraic operators ----------------------------------------------------

def _batched(M, field, n_index, *arrays):
    """Metric arrays (index axes + grid) with one unit axis per batch axis of `field`.

    `field` has `n_index` index axes, the grid axes, then any batch axes (such
    as the xi-edges of a coefficient table), which all see the same metric.
    """
    tail = (1,) * (field.ndim - n_index - M.grid.d)
    return [a.reshape(a.shape + tail) for a in arrays]


def transpose11(T, M):
    """Metric transpose: (T^t)^k_i = g^{kl} T^m_l g_{mi}; T may carry batch axes."""
    ginv, g = _batched(M, T, 2, M.ginv, M.g)
    return np.einsum("kl...,ml...,mi...->ki...", ginv, T, g)


def sharp(w, M):
    """Raise an index: (w#)^j = g^{ji} w_i; w may carry batch axes."""
    ginv, = _batched(M, w, 1, M.ginv)
    return np.einsum("ji...,i...->j...", ginv, w)


def flat(X, M):
    """Lower an index: (Xb)_i = g_{ij} X^j."""
    return np.einsum("ij...,j...->i...", M.g, X)


def oneform_norm_sq(w, M):
    """|w|_g^2 = g^{ij} w_i w_j (nonnegative); w may carry batch axes."""
    ginv, = _batched(M, w, 1, M.ginv)
    return np.einsum("ij...,i...,j...->...", ginv, w, w)


def integrate(v, M):
    """Sum of v * sqrt|g| * h^d over the grid: a float, or one per column of the batch axes."""
    s, = _batched(M, v, 0, M.sqrt_det)
    out = np.sum(v * s, axis=tuple(range(M.grid.d))) * M.grid.h ** M.grid.d
    return float(out) if out.ndim == 0 else out


def norm_l1(v, M):
    return integrate(np.abs(v), M)

