import numpy as np
import pytest

from maniflow import cli, geometry
from maniflow.catalog import METRICS, SCENARIOS
from maniflow.exprparse import compile_expr
from maniflow.geometry import (ChartGrid, GeometryError, MetricField, Stencil,
                               assemble_stencil, build_metric, ddx, div_oneform,
                               div_tensor11, div_vector, divdiv_tensor11, flat,
                               gradient, integrate, laplace_beltrami, oneform_norm_sq,
                               sharp, transport, transport_stencil, transpose11)
from maniflow.kinetic import _convolve_periodic, bump_kernel
from maniflow.solver import total_variation

from helpers import euclidean_metric
from sym_oracles import CURVED2D, MetricOracle, sample_tensor, sample_vector

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def wavy(request):
    grid = ChartGrid(1, 256)
    M = build_metric([["(1 + 0.5*sin(2*pi*x1))^2"]], grid)
    x = grid.coords()[0]
    w = 1.0 + 0.5 * np.sin(TWO_PI * x)
    wp = np.pi * np.cos(TWO_PI * x)
    return grid, M, x, w, wp


class TestChartGrid:
    def test_rejects_bad_dimension(self):
        with pytest.raises(GeometryError):
            ChartGrid(3, 64)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GeometryError):
            ChartGrid(1, 48)

    def test_rejects_small(self):
        with pytest.raises(GeometryError):
            ChartGrid(1, 8)


class TestMetricField:
    def test_euclidean_trivia(self):
        grid = ChartGrid(2, 32)
        M = euclidean_metric(grid)
        assert np.all(M.gamma == 0.0)
        assert np.all(M.sqrt_det == 1.0)
        assert np.max(np.abs(M.ginv - M.g)) == 0.0

    def test_inverse_identity(self):
        grid = ChartGrid(2, 32)
        M = build_metric(CURVED2D_STR, grid)
        prod = np.einsum("ik...,kj...->ij...", M.g, M.ginv)
        eye = np.zeros_like(prod)
        eye[0, 0] = eye[1, 1] = 1.0
        assert np.max(np.abs(prod - eye)) <= 1e-12

    def test_christoffel_symmetry_exact(self):
        grid = ChartGrid(2, 32)
        M = build_metric(CURVED2D_STR, grid)
        assert np.array_equal(M.gamma, np.swapaxes(M.gamma, 1, 2))

    def test_wavy_christoffel_vs_hand_formula(self, wavy):
        grid, M, x, w, wp = wavy
        # d=1: Gamma = g'/(2g) = w'/w
        err = np.max(np.abs(M.gamma[0, 0, 0] - wp / w))
        assert err <= 50.0 * grid.h ** 2

    def test_diag2d_density_product_form(self):
        grid = ChartGrid(2, 32)
        M = build_metric([["1 + 0.3*cos(2*pi*x1)", "0"],
                          ["0", "1 + 0.3*cos(2*pi*x2)"]], grid)
        x1, x2 = grid.coords()
        exact = np.sqrt((1 + 0.3 * np.cos(TWO_PI * x1)) * (1 + 0.3 * np.cos(TWO_PI * x2)))
        assert np.max(np.abs(M.sqrt_det - exact)) <= 1e-12

    def test_non_spd_reports_node(self):
        grid = ChartGrid(1, 32)
        with pytest.raises(GeometryError, match="node"):
            build_metric([["sin(2*pi*x1)"]], grid)  # negative half the time

    def test_asymmetric_rejected(self):
        grid = ChartGrid(2, 32)
        g = np.zeros((2, 2) + grid.shape)
        g[0, 0] = g[1, 1] = 1.0
        g[0, 1] = 0.1
        with pytest.raises(GeometryError, match="symmetric"):
            MetricField(grid, g)

    def test_overflowing_eigenvalue_is_not_spd(self):
        grid = ChartGrid(2, 16)
        g = np.zeros((2, 2) + grid.shape)
        g[0, 0] = g[1, 1] = 1e300  # tr^2 - 4 det = inf - inf = NaN
        with pytest.raises(GeometryError, match="not SPD at node .* nan"):
            MetricField(grid, g)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_rejected_before_symmetry(self, entry):
        grid = ChartGrid(1, 32)
        g = np.ones((1, 1) + grid.shape)
        g[0, 0, 5] = entry
        with pytest.raises(GeometryError, match="metric entries are not finite"):
            MetricField(grid, g)


CURVED2D_STR = [[e.replace("**", "^") for e in row] for row in
                [[str(c) for c in row] for row in CURVED2D]]


class TestFlatOperators:
    def setup_method(self):
        self.grid = ChartGrid(2, 64)
        self.M = euclidean_metric(self.grid)
        self.x1, self.x2 = self.grid.coords()

    def test_gradient_constant_zero(self):
        assert np.all(gradient(np.ones(self.grid.shape), self.M) == 0.0)

    def test_gradient_flat_mode(self):
        v = np.sin(TWO_PI * self.x1)
        gv = gradient(v, self.M)
        exact = TWO_PI * np.cos(TWO_PI * self.x1)
        assert np.max(np.abs(gv[0] - exact)) <= 1e-2 * TWO_PI
        assert np.max(np.abs(gv[1])) == 0.0

    def test_div_constant_zero(self):
        X = np.ones((2,) + self.grid.shape)
        assert np.all(div_vector(X, self.M) == 0.0)

    def test_div_flat_modes(self):
        X = np.stack([np.sin(TWO_PI * self.x1), np.cos(TWO_PI * self.x2)])
        exact = TWO_PI * (np.cos(TWO_PI * self.x1) - np.sin(TWO_PI * self.x2))
        err = np.max(np.abs(div_vector(X, self.M) - exact))
        assert err <= 2.0 * TWO_PI ** 3 / 6 * self.grid.h ** 2 * 1.1

    def test_div_oneform_equals_div_sharp_flat(self):
        w = np.stack([np.sin(TWO_PI * self.x2), np.cos(TWO_PI * self.x1)])
        a = div_oneform(w, self.M)
        b = div_vector(sharp(w, self.M), self.M)
        assert np.max(np.abs(a - b)) <= 1e-14

    def test_divtensor_flat_reduction(self):
        f = np.sin(TWO_PI * self.x1) * np.cos(TWO_PI * self.x2)
        T = np.zeros((2, 2) + self.grid.shape)
        T[0, 0] = T[1, 1] = f
        out = div_tensor11(T, self.M)
        for i, xi_ in enumerate((self.x1, self.x2)):
            exact = ddx(f, i, self.grid.h)  # flat: (div T)_i = d_i f, same stencil
            assert np.max(np.abs(out[i] - exact)) <= 1e-14

    def test_divdiv_flat_trace_laplacian(self):
        f = np.sin(TWO_PI * self.x1)
        T = np.zeros((2, 2) + self.grid.shape)
        T[0, 0] = T[1, 1] = f
        out = divdiv_tensor11(T, self.M)
        exact = -TWO_PI ** 2 * f
        assert np.max(np.abs(out - exact)) <= TWO_PI ** 4 / 12 * self.grid.h ** 2 * 1.1

    def test_divdiv_constant_identity_zero(self):
        T = np.zeros((2, 2) + self.grid.shape)
        T[0, 0] = T[1, 1] = 3.25
        assert np.max(np.abs(divdiv_tensor11(T, self.M))) == 0.0

    def test_laplace_flat_mode(self):
        v = np.sin(TWO_PI * self.x1)
        out = laplace_beltrami(v, self.M)
        assert np.max(np.abs(out + TWO_PI ** 2 * v)) <= TWO_PI ** 4 / 12 * self.grid.h ** 2 * 1.1

    def test_transpose_flat_is_matrix_transpose(self):
        T = np.zeros((2, 2) + self.grid.shape)
        T[0, 1] = np.sin(TWO_PI * self.x1)
        T[1, 0] = np.cos(TWO_PI * self.x2)
        Tt = transpose11(T, self.M)
        assert np.array_equal(Tt, np.swapaxes(T, 0, 1))


class TestCurvedOneD:
    """Hand-derived closed forms on the wavy metric."""

    def test_gradient(self, wavy):
        grid, M, x, w, wp = wavy
        v = np.sin(TWO_PI * x)
        exact = TWO_PI * np.cos(TWO_PI * x) / w ** 2
        err = np.max(np.abs(gradient(v, M)[0] - exact))
        assert err <= 150.0 * grid.h ** 2

    def test_div_vector(self, wavy):
        grid, M, x, w, wp = wavy
        X = np.cos(TWO_PI * x)[None]
        exact = -TWO_PI * np.sin(TWO_PI * x) + (wp / w) * np.cos(TWO_PI * x)
        err = np.max(np.abs(div_vector(X, M) - exact))
        assert err <= 100.0 * grid.h ** 2

    def test_div_tensor11(self, wavy):
        grid, M, x, w, wp = wavy
        T = np.sin(TWO_PI * x)[None, None]
        # d=1: the two Christoffel terms cancel, leaving the plain derivative
        exact = TWO_PI * np.cos(TWO_PI * x)
        err = np.max(np.abs(div_tensor11(T, M)[0] - exact))
        assert err <= 60.0 * grid.h ** 2

    def test_laplace(self, wavy):
        grid, M, x, w, wp = wavy
        v = np.sin(TWO_PI * x)
        vp = TWO_PI * np.cos(TWO_PI * x)
        vpp = -TWO_PI ** 2 * np.sin(TWO_PI * x)
        exact = (vpp - (wp / w) * vp) / w ** 2  # (1/w) d(v'/w)
        err = np.max(np.abs(laplace_beltrami(v, M) - exact))
        assert err <= 4000.0 * grid.h ** 2

    def test_oneform_norm_closed_form(self, wavy):
        grid, M, x, w, wp = wavy
        one = np.ones((1,) + grid.shape)
        assert np.max(np.abs(oneform_norm_sq(one, M) - 1.0 / w ** 2)) <= 1e-12

    def test_sharp_closed_form(self, wavy):
        grid, M, x, w, wp = wavy
        one = np.ones((1,) + grid.shape)
        assert np.max(np.abs(sharp(one, M)[0] - 1.0 / w ** 2)) <= 1e-12

    def test_integrate_exact_volume(self, wavy):
        grid, M, x, w, wp = wavy
        # trapezoid on a periodic analytic integrand is spectrally accurate
        assert abs(integrate(np.ones(grid.shape), M) - 1.0) <= 1e-10


class TestAlgebraicInvariants:
    def setup_method(self):
        self.grid = ChartGrid(2, 32)
        self.M = build_metric(CURVED2D_STR, self.grid)
        rng = np.random.default_rng(7)
        self.T = rng.normal(size=(2, 2) + self.grid.shape)
        self.X = rng.normal(size=(2,) + self.grid.shape)
        self.Y = rng.normal(size=(2,) + self.grid.shape)
        self.w = rng.normal(size=(2,) + self.grid.shape)

    def test_transpose_involution(self):
        TT = transpose11(transpose11(self.T, self.M), self.M)
        assert np.max(np.abs(TT - self.T)) <= 1e-12

    def test_transpose_pairing_identity(self):
        g = self.M.g
        lhs = np.einsum("ij...,i...,j...->...", g,
                        np.einsum("ki...,i...->k...", self.T, self.X), self.Y)
        rhs = np.einsum("ij...,i...,j...->...", g, self.X,
                        np.einsum("ki...,i...->k...", transpose11(self.T, self.M), self.Y))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_sharp_flat_round_trip(self):
        assert np.max(np.abs(sharp(flat(self.X, self.M), self.M) - self.X)) <= 1e-12
        assert np.max(np.abs(flat(sharp(self.w, self.M), self.M) - self.w)) <= 1e-12

    def test_oneform_norm_nonnegative(self):
        assert np.min(oneform_norm_sq(self.w, self.M)) >= 0.0

    def test_integrate_linearity(self):
        v = self.X[0]
        w = self.Y[1]
        lhs = integrate(2.5 * v - 1.25 * w, self.M)
        rhs = 2.5 * integrate(v, self.M) - 1.25 * integrate(w, self.M)
        assert abs(lhs - rhs) <= 1e-12


class TestBatchAxes:
    """Operators on a grid x xi-edge table equal the stack of per-edge results, bit for bit.

    n_xi = 31 makes the batch axis as long as a grid axis (n_xi + 1 = n), so an
    operator that lets the metric broadcast against the batch axis gives wrong
    values there instead of raising.
    """

    @pytest.fixture(params=[(32, 31), (64, 32), (32, 32)], ids=lambda p: f"n{p[0]}-nxi{p[1]}")
    def table(self, request):
        n, n_xi = request.param
        grid = ChartGrid(2, n)
        M = build_metric(CURVED2D_STR, grid)
        rng = np.random.default_rng(3)
        return M, rng.normal(size=(2, 2) + grid.shape + (n_xi + 1,))

    @pytest.mark.parametrize("op", [transpose11, div_tensor11, divdiv_tensor11])
    def test_tensor_operators(self, table, op):
        M, T = table
        per_edge = np.stack([op(T[..., b], M) for b in range(T.shape[-1])], axis=-1)
        assert np.array_equal(op(T, M), per_edge)

    def test_sharp(self, table):
        M, T = table
        w = T[0]
        per_edge = np.stack([sharp(w[..., b], M) for b in range(w.shape[-1])], axis=-1)
        assert np.array_equal(sharp(w, M), per_edge)

    def test_div_vector(self, table):
        M, T = table
        X = T[0]
        per_edge = np.stack([div_vector(X[..., b], M) for b in range(X.shape[-1])], axis=-1)
        assert np.array_equal(div_vector(X, M), per_edge)

    def test_laplace_beltrami(self, table):
        M, T = table
        v = T[0, 0]
        per_edge = np.stack([laplace_beltrami(v[..., b], M) for b in range(v.shape[-1])], axis=-1)
        assert np.array_equal(laplace_beltrami(v, M), per_edge)

    def test_transport(self, table):
        M, T = table
        F, u = T[1], T[1, 1]
        per_edge = np.stack([transport(F[..., b], T[..., b], u[..., b], M, 3e-3)
                             for b in range(T.shape[-1])], axis=-1)
        assert np.array_equal(transport(F, T, u, M, 3e-3), per_edge)

    def test_oneform_norm_sq(self, table):
        M, T = table
        w = T[0]
        per_edge = np.stack([oneform_norm_sq(w[..., b], M) for b in range(w.shape[-1])], axis=-1)
        assert np.array_equal(oneform_norm_sq(w, M), per_edge)

    def test_integrate(self, table):
        # the batched sum runs over the grid in another order, so equal to round-off only
        M, T = table
        v = np.abs(T[0, 0])
        per_edge = np.array([integrate(v[..., b], M) for b in range(v.shape[-1])])
        assert np.allclose(integrate(v, M), per_edge, rtol=1e-14, atol=0.0)


def bracket_div_tensor11(T, M):
    """Reference: (div T)_i = d_j T^j_i + Gamma^j_{jl} T^l_i - Gamma^l_{ji} T^j_l, term by term."""
    dT = np.stack([ddx(T, 2 + j, M.grid.h) for j in range(M.grid.d)])  # dT[j, k, i] = d_j T^k_i
    out = np.einsum("jji...->i...", dT)
    out += np.einsum("jlj...,li...->i...", M.gamma, T)
    out -= np.einsum("lji...,jl...->i...", M.gamma, T)
    return out


class TestMetricCoefficientsMatchBracketForm:
    """`div_tensor11` equals its term-by-term bracket form.

    On flat metrics every Christoffel term vanishes and the stencils are the
    same, so the results agree bit for bit; on curved metrics the regrouped
    sums round differently, within a few ulps of max |out|.
    """

    CASES = [("flat1d", 64, True), ("flat2d", 32, True), ("wavy1d", 128, False),
             ("curved2d", 32, False), ("curved2d", 64, False)]

    @pytest.mark.parametrize("name, n, bitwise", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
    @pytest.mark.parametrize("op, ref", [(div_tensor11, bracket_div_tensor11)],
                             ids=["div_tensor11"])
    def test_random_tensor(self, name, n, bitwise, op, ref):
        metric = METRICS[name]
        grid = ChartGrid(metric["d"], n)
        M = build_metric(metric["entries"], grid)
        T = np.random.default_rng(11).normal(size=(grid.d, grid.d) + grid.shape)
        got, want = op(T, M), ref(T, M)
        if bitwise:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def roll_ddx(f, axis, h):
    """Reference: the former np.roll body of `ddx`."""
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)


def roll_laplace_beltrami(v, M):
    """Reference: the former np.roll body of `laplace_beltrami`, coefficients built per call."""
    grid = M.grid
    d, h = grid.d, grid.h
    s = M.sqrt_det
    acc = np.zeros(grid.shape)
    for a in range(d):
        kappa = s * M.ginv[a, a]
        face_kappa = 0.5 * (kappa + np.roll(kappa, -1, a))
        flux = face_kappa * (np.roll(v, -1, a) - v) / h
        acc += (flux - np.roll(flux, 1, a)) / h
        for b in range(d):
            if b != a:
                acc += roll_ddx(s * M.ginv[a, b] * roll_ddx(v, b, h), a, h)
    return acc / s


def roll_convolve_periodic(F, offsets, weights, axis):
    """Reference: the former np.roll body of `kinetic._convolve_periodic`."""
    out = np.zeros_like(F)
    for m, w in zip(offsets, weights):
        if w != 0.0:
            out += w * np.roll(F, m, axis)
    return out


def roll_total_variation(u):
    """Reference: the former np.roll body of `solver.total_variation`."""
    tv = 0.0
    for axis in range(u.ndim):
        tv += float(np.sum(np.abs(np.roll(u, -1, axis) - u)))
    return tv


class TestPeriodicStencils:
    """The padded-copy stencils and shifts equal their np.roll forms bit for bit."""

    H = 1.0 / 64

    @pytest.fixture(scope="class")
    def table(self):
        # (2, 2) components, a 64^2 grid and 33 xi-edges, as a coefficient table
        return np.random.default_rng(5).normal(size=(2, 2, 64, 64, 33))

    def test_ddx_1d(self):
        f = np.random.default_rng(4).normal(size=128)
        assert np.array_equal(ddx(f, 0, 1.0 / 128), roll_ddx(f, 0, 1.0 / 128))

    # the grid axes and the xi axis; on a length-2 index axis both neighbours are one entry
    @pytest.mark.parametrize("axis", [2, 3, 4])
    def test_ddx_batched_table(self, table, axis):
        assert np.array_equal(ddx(table, axis, self.H), roll_ddx(table, axis, self.H))

    @pytest.mark.parametrize("name, n", [("flat1d", 128), ("wavy1d", 128), ("curved2d", 64),
                                         ("flat2d", 64), ("diag2d", 64)])
    def test_laplace_beltrami(self, name, n):
        metric = METRICS[name]
        grid = ChartGrid(metric["d"], n)
        M = build_metric(metric["entries"], grid)
        rng = np.random.default_rng(6)
        v = rng.normal(size=grid.shape)
        assert np.array_equal(laplace_beltrami(v, M), roll_laplace_beltrami(v, M))

    # one slab as every stencil pads, a whole period, and more than two periods
    @pytest.mark.parametrize("width", [1, 16, 37])
    def test_wrap_pad_extends_periodically(self, width):
        f = np.random.default_rng(7).normal(size=(3, 16))
        want = f[:, np.arange(-width, 16 + width) % 16]
        assert np.array_equal(geometry._wrap_pad(f, 1, width), want)

    # the kernels of every kinetic_report.json, on a 16-point axis: R = 32 wraps twice
    @pytest.mark.parametrize("shape, axis", [((16,), 0), ((16, 32), 0), ((16, 32), 1)])
    @pytest.mark.parametrize("cells", [32, 8, 4])
    def test_convolve_periodic(self, shape, axis, cells):
        F = np.random.default_rng(8).normal(size=shape)
        offsets, weights = bump_kernel(cells / 16, 1 / 16)
        assert np.array_equal(_convolve_periodic(F, offsets, weights, axis),
                              roll_convolve_periodic(F, offsets, weights, axis))

    @pytest.mark.parametrize("shape", [(128,), (64, 64)])
    def test_total_variation(self, shape):
        u = np.random.default_rng(9).normal(size=shape)
        assert total_variation(u) == roll_total_variation(u)


def times_identity(v, d):
    """The (1,1)-tensor v I: v on the diagonal, zeros off it."""
    T = np.zeros((d, d) + np.shape(v))
    T[range(d), range(d)] = v
    return T


class TestLaplaceBeltramiIsDivdivOfVI:
    """div(v I) = dv, so the Laplacian is divdiv(v I), with no round-off between the two."""

    # one field, and five columns of a batch axis as the xi-edges of a table
    @pytest.mark.parametrize("batch", [(), (5,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("name", list(METRICS))
    def test_constant_multiple_of_identity_is_exactly_annihilated(self, name, batch):
        metric = METRICS[name]
        grid = ChartGrid(metric["d"], 64)
        M = build_metric(metric["entries"], grid)
        c = np.broadcast_to(np.linspace(-2.0, 3.0, 5) if batch else 0.7, grid.shape + batch)
        cI = times_identity(c, grid.d)
        assert np.all(geometry._christoffel_terms(cI, M) == 0.0)
        assert np.all(divdiv_tensor11(cI, M) == 0.0)

    @pytest.mark.parametrize("n", [32, 64])
    def test_divdiv_of_v_identity_is_the_roll_laplacian(self, n):
        metric = METRICS["curved2d"]
        grid = ChartGrid(metric["d"], n)
        M = build_metric(metric["entries"], grid)
        v = np.random.default_rng(12).normal(size=grid.shape)
        assert np.array_equal(divdiv_tensor11(times_identity(v, grid.d), M),
                              roll_laplace_beltrami(v, M))


class TestTransportStencil:
    """The assembled transport operator equals the sum of the three operators it combines."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("name", ["flat1d", "wavy1d", "flat2d", "diag2d", "curved2d"])
    def test_equals_the_operators(self, name, n):
        grid = ChartGrid(METRICS[name]["d"], n)
        M = build_metric(METRICS[name]["entries"], grid)
        d, eta = grid.d, 3e-3
        Y = np.random.default_rng(n).normal(size=(d + d * d + 1,) + grid.shape)
        ref = (-div_vector(Y[:d], M) + divdiv_tensor11(Y[d:-1].reshape((d, d) + grid.shape), M)
               + eta * laplace_beltrami(Y[-1], M))
        err = np.max(np.abs(transport_stencil(M, eta)(Y) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("name", ["flat1d", "wavy1d", "flat2d", "diag2d", "curved2d"])
    def test_per_operator_probes_equal_the_all_columns_probe(self, name, n):
        """Probing each operator on its own components gives bitwise the weights of probing
        `transport` on all d + d*d + 1 components at once."""
        grid = ChartGrid(METRICS[name]["d"], n)
        M = build_metric(METRICS[name]["entries"], grid)
        d, eta = grid.d, 3e-3
        ref = assemble_stencil(
            lambda Y: transport(Y[:d], Y[d:-1].reshape((d, d) + Y.shape[1:]), Y[-1], M, eta),
            d + d * d + 1, grid)
        st = transport_stencil(M, eta)
        assert st.offsets == ref.offsets
        assert np.array_equal(st.weights, ref.weights)
        assert np.array_equal(st.zeroth, ref.zeroth)

    @pytest.mark.parametrize("name, n", [("flat1d", 128), ("wavy1d", 128), ("curved2d", 64)])
    def test_skipped_zero_blocks_change_no_bit(self, name, n):
        grid = ChartGrid(METRICS[name]["d"], n)
        st = transport_stencil(build_metric(METRICS[name]["entries"], grid), 3e-3)
        if name == "curved2d":
            # the flux has no weight at the corners, nor F^k off its own axis
            zero = [q for W in st.weights for q in range(2) if not W[q].any()]
            assert len(zero) == 12
        Y = np.random.default_rng(9).normal(size=st.zeroth.shape)
        # the difference form over every (offset, component) block, zero or not
        padded = np.pad(Y, [(0, 0)] + [(1, 1)] * grid.d, mode="wrap")
        acc = st.zeroth * Y
        for s, W in zip(st.offsets, st.weights):
            shifted = padded[(slice(None),) + tuple(slice(1 + a, 1 + a + n) for a in s)]
            acc += (shifted - Y) * W
        assert np.array_equal(st(Y), acc.sum(axis=0))

    @pytest.mark.parametrize("d", [1, 2])
    def test_reach_two_is_rejected(self, d):
        grid = ChartGrid(d, 32)

        def op(v):
            return ddx(ddx(v[0], 0, grid.h), 0, grid.h)

        with pytest.raises(GeometryError, match="beyond one node"):
            assemble_stencil(op, 1, grid)

    def test_one_run_assembles_one_stencil_and_keeps_none_on_the_metric(self, monkeypatch):
        pipe = cli.build_pipeline({s: dict(kv) for s, kv in SCENARIOS["curved_evo"].items()})
        pipe.solver_cfg.t_end = 1e-3  # a few steps
        calls = []

        def counted(*args):
            calls.append(args)
            return transport_stencil(*args)

        monkeypatch.setattr(geometry, "transport_stencil", counted)
        pipe.run()
        assert len(calls) == 1
        held = [w for v in vars(pipe.M).values()
                for w in (v.values() if isinstance(v, dict) else (v,))]
        assert not any(isinstance(w, Stencil) for w in held)


class TestConservationAndConsistency:
    def setup_method(self):
        self.grid = ChartGrid(2, 64)
        self.M = build_metric(CURVED2D_STR, self.grid)
        x1, x2 = self.grid.coords()
        self.v = np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2) + 0.3 * np.cos(TWO_PI * x2)

    def test_laplace_integral_telescopes(self):
        out = laplace_beltrami(self.v, self.M)
        assert abs(integrate(out, self.M)) <= 1e-12

    def test_laplace_self_adjoint(self):
        x1, x2 = self.grid.coords()
        u = np.cos(TWO_PI * x2) + 0.2 * np.sin(TWO_PI * (x1 + x2))
        a = integrate(u * laplace_beltrami(self.v, self.M), self.M)
        b = integrate(self.v * laplace_beltrami(u, self.M), self.M)
        assert abs(a - b) <= 1e-12

    def test_divergence_theorem_vector(self):
        x1, x2 = self.grid.coords()
        X = np.stack([np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2),
                      np.cos(TWO_PI * x1)])
        div = div_vector(X, self.M)
        assert abs(integrate(div, self.M)) <= 1e-14 * integrate(np.abs(div), self.M)

    # every operator of `transport` is in flux form, so its sqrt|g|-weighted sum
    # telescopes to round-off even on rough fields
    @pytest.mark.parametrize("name, n", [("curved2d", 32), ("diag2d", 32), ("wavy1d", 128)])
    @pytest.mark.parametrize("op, index", [(div_vector, 1), (divdiv_tensor11, 2),
                                           (laplace_beltrami, 0)],
                             ids=["div_vector", "divdiv_tensor11", "laplace_beltrami"])
    def test_flux_form_telescopes(self, name, n, op, index):
        metric = METRICS[name]
        grid = ChartGrid(metric["d"], n)
        M = build_metric(metric["entries"], grid)
        field = np.random.default_rng(0).standard_normal((grid.d,) * index + grid.shape)
        out = op(field, M)
        assert abs(integrate(out, M)) <= 1e-14 * integrate(np.abs(out), M)

    def test_divdiv_matches_composition_at_h2(self):
        T = np.empty((2, 2) + self.grid.shape)
        x1, x2 = self.grid.coords()
        T[0, 0] = 1 + 0.3 * np.sin(TWO_PI * x1)
        T[0, 1] = 0.2 * np.cos(TWO_PI * x2)
        T[1, 0] = 0.1 * np.sin(TWO_PI * (x1 + x2))
        T[1, 1] = 1 - 0.2 * np.cos(TWO_PI * x1)
        errs = []
        for n in (32, 64):
            grid = ChartGrid(2, n)
            M = build_metric(CURVED2D_STR, grid)
            y1, y2 = grid.coords()
            Tn = np.empty((2, 2) + grid.shape)
            Tn[0, 0] = 1 + 0.3 * np.sin(TWO_PI * y1)
            Tn[0, 1] = 0.2 * np.cos(TWO_PI * y2)
            Tn[1, 0] = 0.1 * np.sin(TWO_PI * (y1 + y2))
            Tn[1, 1] = 1 - 0.2 * np.cos(TWO_PI * y1)
            diff = divdiv_tensor11(Tn, M) - div_oneform(div_tensor11(Tn, M), M)
            errs.append(np.max(np.abs(diff)))
        assert errs[1] <= errs[0]  # decays
        assert 2.5 <= errs[0] / errs[1] <= 6.0  # ~O(h^2)

    def test_metric_identity_density_derivative(self):
        M, grid = self.M, self.grid
        for k in range(2):
            lhs = ddx(M.sqrt_det, k, grid.h)
            rhs = np.einsum("jj...->...", M.gamma[:, k]) * M.sqrt_det
            assert np.max(np.abs(lhs - rhs)) <= 50.0 * grid.h ** 2

    def test_metric_identity_inverse_derivative(self):
        M, grid = self.M, self.grid
        dginv = np.stack([ddx(M.ginv, 2 + j, grid.h) for j in range(2)])
        resid = (np.einsum("jij...->i...", dginv)
                 + np.einsum("ia...,jaj...->i...", M.ginv, M.gamma)
                 + np.einsum("jb...,ijb...->i...", M.ginv, M.gamma))
        assert np.max(np.abs(resid)) <= 80.0 * grid.h ** 2


@pytest.fixture(scope="module")
def oracle():
    return MetricOracle(CURVED2D, d=2)


class TestOperatorOrderAgainstSymbolicOracle:
    """max-norm error vs exact sympy oracles shrinks ~4x when n doubles."""

    V_EXPR = "sin(2*pi*x1)*cos(2*pi*x2) + cos(2*pi*x2)/3"
    X_EXPRS = ["sin(2*pi*x1 + 1)", "cos(2*pi*x2)*sin(2*pi*x1)"]
    T_EXPRS = [["1 + sin(2*pi*x1)*cos(2*pi*x2)/3", "cos(2*pi*x2)/4"],
               ["sin(2*pi*(x1 + x2))/5", "1 - cos(2*pi*x1)/3"]]

    def _errors(self, oracle, op_name, n):
        import sympy as sp

        grid = ChartGrid(2, n)
        M = build_metric(CURVED2D_STR, grid)
        v = sp.sympify(self.V_EXPR)
        if op_name == "gradient":
            num = gradient(oracle.lambdify(v, grid), M)
            ref = np.stack([oracle.lambdify(e, grid) for e in oracle.gradient(v)])
        elif op_name == "div_vector":
            num = div_vector(sample_vector(oracle, grid, self.X_EXPRS), M)
            ref = oracle.lambdify(oracle.div_vector([sp.sympify(e) for e in self.X_EXPRS]), grid)
        elif op_name == "div_oneform":
            num = div_oneform(sample_vector(oracle, grid, self.X_EXPRS), M)
            ref = oracle.lambdify(oracle.div_oneform([sp.sympify(e) for e in self.X_EXPRS]), grid)
        elif op_name == "div_tensor11":
            num = div_tensor11(sample_tensor(oracle, grid, self.T_EXPRS), M)
            ref = np.stack([oracle.lambdify(e, grid) for e in oracle.div_tensor11(
                [[sp.sympify(c) for c in row] for row in self.T_EXPRS])])
        elif op_name == "divdiv_tensor11":
            num = divdiv_tensor11(sample_tensor(oracle, grid, self.T_EXPRS), M)
            ref = oracle.lambdify(oracle.divdiv_tensor11(
                [[sp.sympify(c) for c in row] for row in self.T_EXPRS]), grid)
        else:
            num = laplace_beltrami(oracle.lambdify(v, grid), M)
            ref = oracle.lambdify(oracle.laplace(v), grid)
        return float(np.max(np.abs(num - ref)))

    @pytest.mark.parametrize("op_name", ["gradient", "div_vector", "div_oneform",
                                         "div_tensor11", "divdiv_tensor11",
                                         "laplace_beltrami"])
    def test_second_order(self, oracle, op_name):
        e32 = self._errors(oracle, op_name, 32)
        e64 = self._errors(oracle, op_name, 64)
        assert 3.2 <= e32 / e64 <= 4.8, f"{op_name}: ratio {e32 / e64:.2f}"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("expr", ["sin(2*pi*x1)*xi^2 + x{d}/(1 + xi)", "x{d}^3", "sqrt(xi)", "0.25"])
def test_eval_expr_on_edges_matches_a_broadcast_reference(d, expr):
    """grid.eval_expr(e, edges) is e at every (node, edge) pair, xi on the last axis."""
    expr = expr.format(d=d)
    grid = ChartGrid(d, 16)
    edges = np.linspace(0.0, 1.0, 9)
    axes = np.meshgrid(*[np.arange(grid.n) * grid.h] * d, edges, indexing="ij")
    bindings = dict({f"x{i}": x for i, x in enumerate(axes[:-1], start=1)}, xi=axes[-1])
    ref = np.broadcast_to(np.asarray(compile_expr(expr)(**bindings), dtype=float), axes[0].shape)
    out = grid.eval_expr(expr, edges)
    assert out.shape == grid.shape + (len(edges),)
    assert np.array_equal(out, ref)
