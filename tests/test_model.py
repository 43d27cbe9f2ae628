import inspect

import numpy as np
import pytest

from maniflow.geometry import (ChartGrid, build_metric, div_vector, divdiv_tensor11, norm_l1,
                               transport_stencil)
from maniflow.model import (DiffusionModel, FluxModel, ModelError, XiGrid, _locate, beta_at,
                            cumtrapz_edges, make_compatible_flux, psd_audit, root_weight,
                            stream_vector, transport_table, xi_hermite, xi_interp, xi_major)
from maniflow import catalog, cli, entropy, kinetic, solver

from helpers import euclidean_metric, zero_diffusion, zero_flux

TWO_PI = 2.0 * np.pi
CURVED2D = catalog.METRICS["curved2d"]["entries"]


class TestXiGrid:
    def test_rejects_small(self):
        with pytest.raises(ModelError):
            XiGrid(8)

    def test_edges_and_centers(self):
        xi = XiGrid(16)
        assert xi.edges[0] == 0.0 and xi.edges[-1] == 1.0
        assert len(xi.edges) == 17 and len(xi.centers) == 16
        assert np.allclose(xi.centers, xi.edges[:-1] + xi.dxi / 2)

    def test_cumtrapz_linear_exact(self):
        xi = XiGrid(32)
        table = 2.0 * xi.edges  # integrand 2 xi -> antiderivative xi^2
        out = cumtrapz_edges(table, xi.dxi)
        assert np.max(np.abs(out - xi.edges ** 2)) <= 1e-15

    def test_xi_interp_extrapolates_linearly(self):
        xi = XiGrid(16)
        table = np.ones((2, 4, 1)) * (3.0 * xi.edges + 1.0)  # comps + grid + edges
        for u in (-0.05, 0.37, 1.08):
            got = xi_interp(table, np.full((4,), u), xi)
            assert np.allclose(got, 3.0 * u + 1.0, atol=1e-14)


class TestGather:
    """xi_interp and xi_hermite read the same rows as a loop over the nodes."""

    @staticmethod
    def per_node_rows(table, u, xi):
        """(table[..., node, i0], table[..., node, i0 + 1], weight), node by node."""
        lo = np.empty(table.shape[:-1])
        hi = np.empty(table.shape[:-1])
        w = np.empty(u.shape)
        for node in np.ndindex(u.shape):
            pos = u[node] / xi.dxi
            i0 = min(max(int(np.floor(pos)), 0), xi.n - 1)
            lo[(Ellipsis,) + node] = table[(Ellipsis,) + node + (i0,)]
            hi[(Ellipsis,) + node] = table[(Ellipsis,) + node + (i0 + 1,)]
            w[node] = pos - i0
        return lo, hi, w

    @pytest.fixture(scope="class")
    def setup(self):
        xi = XiGrid(16)
        rng = np.random.default_rng(11)
        shape = (2, 2, 32, 32, xi.n + 1)
        values, slopes = rng.normal(size=shape), rng.normal(size=shape)
        # on edges, exactly 1, below 0, above 1 and inside the cells
        kinds = rng.integers(0, 5, size=(32, 32))
        u = np.choose(kinds, [xi.edges[rng.integers(0, xi.n + 1, size=(32, 32))],
                              np.ones((32, 32)),
                              rng.uniform(-0.1, 0.0, size=(32, 32)),
                              rng.uniform(1.0, 1.1, size=(32, 32)),
                              rng.uniform(0.0, 1.0, size=(32, 32))])
        assert np.any(u == 1.0) and np.any(u < 0.0) and np.any(u > 1.0)
        assert np.any(np.isin(u, xi.edges[1:-1]))
        return xi, values, slopes, u

    def layouts(self, table):
        """The table as stored, as a transposed view, as a broadcast view and stored xi-major."""
        transposed = np.ascontiguousarray(table.swapaxes(0, 1)).swapaxes(0, 1)
        broadcast = np.broadcast_to(table[:1, :1], table.shape)
        major = xi_major(table, 2)
        assert not transposed.flags.c_contiguous and not broadcast.flags.c_contiguous
        # the same shape, with each component's edge axis outermost in memory
        assert major.shape == table.shape and np.moveaxis(major, -1, 2).flags.c_contiguous
        assert np.shares_memory(xi_major(major, 2), major)  # already xi-major: not copied
        return {"stored": table, "transposed": transposed, "broadcast": broadcast,
                "xi_major": major}

    @classmethod
    def hermite_reference(cls, values, slopes, u, xi):
        v0, v1, t = cls.per_node_rows(values, u, xi)
        s0, s1, _ = cls.per_node_rows(slopes, u, xi)
        t2, t3 = t * t, t * t * t
        return ((2.0 * t3 - 3.0 * t2 + 1.0) * v0 + (t3 - 2.0 * t2 + t) * xi.dxi * s0
                + (3.0 * t2 - 2.0 * t3) * v1 + (t3 - t2) * xi.dxi * s1)

    def test_xi_interp_equals_per_node_reference(self, setup):
        xi, values, _, u = setup
        for name, table in self.layouts(values).items():
            lo, hi, w = self.per_node_rows(table, u, xi)
            assert np.array_equal(xi_interp(table, u, xi), lo * (1.0 - w) + hi * w), name

    def test_xi_hermite_equals_per_node_reference(self, setup):
        xi, values, slopes, u = setup
        for (name, v), s in zip(self.layouts(values).items(), self.layouts(slopes).values()):
            assert np.array_equal(xi_hermite(v, s, u, xi),
                                  self.hermite_reference(v, s, u, xi)), name

    def test_xi_hermite_reads_values_and_slopes_in_their_own_orders(self, setup):
        xi, values, slopes, u = setup
        ref = self.hermite_reference(values, slopes, u, xi)
        for v, s in ((values, xi_major(slopes, 2)), (xi_major(values, 2), slopes)):
            assert np.array_equal(xi_hermite(v, s, u, xi), ref)

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_columns_read_their_nodes_rows(self, d):
        # B = n columns: a batch axis as long as a grid axis must not be numbered as nodes
        n = 32
        grid = ChartGrid(d, n)
        M = build_metric(CURVED2D if d == 2 else [["(1 + 0.5*sin(2*pi*x1))^2"]], grid)
        xi = XiGrid(16)
        entries = [["0.3 + 0.3*xi", "0.1*xi"], ["0.05", "0.2 + 0.4*xi^2"]]
        dm = DiffusionModel.from_exprs([row[:d] for row in entries[:d]], M, xi)
        U = np.random.default_rng(7).uniform(-0.05, 1.05, size=grid.shape + (n,))
        for name, table in (("stored", dm.A), ("C order", np.ascontiguousarray(dm.sigmaT))):
            per_column = np.stack([xi_interp(table, U[..., b], xi) for b in range(n)], axis=-1)
            assert np.array_equal(xi_interp(table, U, xi, d), per_column), name


    def test_node_numbers_are_shared_read_only(self):
        # one cached array serves every lookup on a grid, so no caller may write it
        xi = XiGrid(16)
        node = _locate(np.zeros((4, 4, 3)), xi, 2)[0]
        assert node.shape == (4, 4, 1) and not node.flags.writeable
        assert _locate(np.zeros((4, 4, 5)), xi, 2)[0] is node


class TestXiInterpOut:
    """`xi_interp(..., out=buf)` fills and returns buf, bitwise equal to the allocating call."""

    @pytest.fixture(scope="class")
    def curved(self):
        grid = ChartGrid(2, 16)
        M = build_metric(CURVED2D, grid)
        xi = XiGrid(16)
        dm = DiffusionModel.from_exprs([["0.3 + 0.3*xi", "0.1*xi"], ["0.05", "0.2 + 0.4*xi^2"]],
                                       M, xi)
        fm = FluxModel.from_exprs(["xi^2", "0.5*xi*cos(2*pi*x1)"], grid, xi)
        return grid, xi, fm, dm

    def test_transport_table_on_one_state(self, curved):
        grid, xi, fm, dm = curved
        table = transport_table(fm, dm)
        u = np.random.default_rng(5).uniform(-0.05, 1.05, size=grid.shape)
        buf = np.full(table.shape[:-1], np.nan)
        assert xi_interp(table, u, xi, 2, out=buf) is buf
        assert np.array_equal(buf, xi_interp(table, u, xi, 2))

    def test_sigma_t_on_a_block_of_states(self, curved):
        grid, xi, fm, dm = curved
        U = np.random.default_rng(6).uniform(-0.05, 1.05, size=grid.shape + (3,))
        buf = np.full(dm.sigmaT.shape[:2] + U.shape, np.nan)
        assert xi_interp(dm.sigmaT, U, xi, 2, out=buf) is buf
        assert np.array_equal(buf, xi_interp(dm.sigmaT, U, xi, 2))


class TestXiHermite:
    @staticmethod
    def random_tables(xi, seed=3):
        rng = np.random.default_rng(seed)
        shape = (2, 5, xi.n + 1)  # comps + grid + edges
        return rng.normal(size=shape), rng.normal(size=shape)

    def test_reproduces_cubic_exactly(self):
        xi = XiGrid(16)
        coef = np.array([[0.3, -1.2, 2.0, 0.7], [1.0, 0.5, -3.0, 4.0]])  # per comp
        z = xi.edges
        values = np.stack([np.broadcast_to(c[0] + c[1] * z + c[2] * z ** 2 + c[3] * z ** 3, (3, xi.n + 1))
                           for c in coef])
        slopes = np.stack([np.broadcast_to(c[1] + 2 * c[2] * z + 3 * c[3] * z ** 2, (3, xi.n + 1))
                           for c in coef])
        u = np.array([0.0, 0.413, 0.9999])
        got = xi_hermite(values, slopes, u, xi)
        exact = np.stack([c[0] + c[1] * u + c[2] * u ** 2 + c[3] * u ** 3 for c in coef])
        assert np.max(np.abs(got - exact)) <= 1e-13

    def test_edges_return_values_and_slopes(self):
        xi = XiGrid(16)
        values, slopes = self.random_tables(xi)
        delta = 1e-5
        for b in range(xi.n + 1):
            at = np.full((5,), xi.edges[b])
            assert np.array_equal(xi_hermite(values, slopes, at, xi), values[..., b])
            # second-order one-sided differences inside each neighbouring cell
            for side in [s for s in (1.0, -1.0) if 0 <= b + s <= xi.n]:
                h = side * delta
                f0, f1, f2 = (xi_hermite(values, slopes, at + k * h, xi) for k in (0, 1, 2))
                fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
                assert np.max(np.abs(fd - slopes[..., b])) <= 1e-5

    def test_out_of_range_uses_end_cells(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        xi = XiGrid(16)
        values, slopes = self.random_tables(xi)
        spline = interpolate.CubicHermiteSpline(xi.edges, values, slopes, axis=-1,
                                                extrapolate=True)
        for u in (-0.07, -0.01, 0.37, 1.02, 1.1):
            got = xi_hermite(values, slopes, np.full((5,), u), xi)
            assert np.max(np.abs(got - spline(u))) <= 1e-12 * (1.0 + np.max(np.abs(got)))


@pytest.fixture(scope="module")
def one_d():
    grid = ChartGrid(1, 64)
    M = euclidean_metric(grid)
    xi = XiGrid(64)
    return grid, M, xi


@pytest.fixture(scope="module")
def wavy_1d():
    grid = ChartGrid(1, 64)
    M = build_metric([["(1 + 0.5*sin(2*pi*x1))^2"]], grid)
    xi = XiGrid(64)
    return grid, M, xi


class TestDiffusionModel:
    def test_the_model_owns_its_metric(self, wavy_1d):
        grid, M, xi = wavy_1d
        dm = DiffusionModel(M, xi, np.zeros((1, 1) + grid.shape + (xi.n + 1,)))
        assert dm.M is M and dm.grid is M.grid
        pipe = cli.build_pipeline(catalog.SCENARIOS["curved_evo"])
        assert pipe.dm.M is pipe.M

    @pytest.mark.parametrize("fn", [
        solver.run, solver.stable_dt, solver.Recorder, entropy.dissipation_densities,
        entropy.deposit, entropy._binned_s2_dissipation, entropy.entropy_residual,
        entropy.chain_rule_residual, kinetic.kinetic_residual, solver.compat_defect,
        make_compatible_flux, psd_audit], ids=lambda fn: fn.__name__)
    def test_functions_of_the_model_take_no_second_metric(self, fn):
        assert "M" not in inspect.signature(fn).parameters

    def test_zero_sigma_gives_zero_everything(self, one_d):
        grid, M, xi = one_d
        dm = zero_diffusion(M, xi)
        assert np.all(dm.aprime == 0.0) and np.all(dm.A == 0.0)

    def test_identity_sigma_gives_identity_aprime(self, one_d):
        grid, M, xi = one_d
        dm = DiffusionModel.from_exprs([["1"]], M, xi)
        assert np.max(np.abs(dm.aprime - 1.0)) <= 1e-15
        # A(xi) = xi * Id exactly (trapezoid of a constant)
        assert np.max(np.abs(dm.A[0, 0] - xi.edges)) <= 1e-14

    def test_one_d_transpose_cancels_metric(self, wavy_1d):
        # d=1: sigma^t = g^{11} s g_11 = s, so a' = s^2 for any metric
        grid, M, xi = wavy_1d
        dm = DiffusionModel.from_exprs([["(1 + xi)*(1 + 0.25*cos(2*pi*x1))"]], M, xi)
        assert np.max(np.abs(dm.sigmaT - dm.sigma)) <= 1e-12
        assert np.max(np.abs(dm.aprime - dm.sigma ** 2)) <= 1e-12

    def test_overflowing_antiderivative_rejected(self, one_d):
        grid, M, xi = one_d
        # sigma is finite, a' = sigma^2 = 1e400 is not
        with pytest.raises(ModelError, match="A table contains non-finite entries"):
            DiffusionModel.from_exprs([["1e200"]], M, xi)

    def test_porous_antiderivative(self, one_d):
        grid, M, xi = one_d
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        # a' = 2 xi sampled exactly; its trapezoid is xi^2 exactly at edges
        assert np.max(np.abs(dm.aprime[0, 0] - 2.0 * xi.edges)) <= 1e-14
        assert np.max(np.abs(dm.A[0, 0] - xi.edges ** 2)) <= 1e-14
        # off-lattice evaluation: linear interp error O(dxi^2)
        u = np.full(grid.shape, 0.3721)
        got = xi_interp(dm.A, u, xi)[0, 0]
        assert np.max(np.abs(got - 0.3721 ** 2)) <= xi.dxi ** 2

    def test_A_at_zero_is_zero(self, wavy_1d):
        grid, M, xi = wavy_1d
        dm = DiffusionModel.from_exprs([["1 + xi"]], M, xi)
        assert np.max(np.abs(xi_interp(dm.A, np.zeros(grid.shape), xi))) == 0.0

    def test_xi_derivative_of_A_matches_aprime(self, one_d):
        grid, M, xi = one_d
        dm = DiffusionModel.from_exprs([["sin(xi) + 1"]], M, xi)
        # centered xi-FD of the A table at interior edges
        dA = (dm.A[..., 2:] - dm.A[..., :-2]) / (2.0 * xi.dxi)
        err = np.max(np.abs(dA - dm.aprime[..., 1:-1]))
        assert err <= 2.0 * xi.dxi ** 2  # smooth integrand, O(dxi^2)

    def test_psd_of_aprime_random_sigma(self):
        grid = ChartGrid(2, 16)
        M = build_metric(CURVED2D, grid)
        xi = XiGrid(16)
        dm = DiffusionModel.from_exprs(
            [["0.5 + 0.3*sin(2*pi*x1)*xi", "0.2*cos(2*pi*x2)"],
             ["0.1*xi", "0.4 + 0.2*cos(2*pi*x1 + xi)"]], M, xi)
        g_a = np.einsum("ij...,jk...z->ik...z", M.g, dm.aprime)
        sym = 0.5 * (g_a + np.swapaxes(g_a, 0, 1))
        # the exact minimum of the form over unit directions, at every node and xi-edge
        exact = np.min(np.linalg.eigvalsh(np.moveaxis(sym, (0, 1), (-2, -1))))
        assert exact >= -1e-10
        # the audit takes the least eigenvalue in closed form
        assert abs(psd_audit(dm)["min_quadratic_form"] - exact) <= 1e-12

    def test_psd_audit_identity_positive(self, one_d):
        grid, M, xi = one_d
        dm = DiffusionModel.from_exprs([["1"]], M, xi)
        assert psd_audit(dm)["min_quadratic_form"] > 0.0

    def test_psd_audit_zero_sigma(self, one_d):
        grid, M, xi = one_d
        dm = zero_diffusion(M, xi)
        assert psd_audit(dm)["min_quadratic_form"] == 0.0

    def test_max_abs_aprime_flat_identity(self, one_d):
        grid, M, xi = one_d
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        full = dm.max_abs_aprime(0.0, 1.0)
        assert full.shape == (1, 1) + grid.shape
        assert np.max(np.abs(full - 2.0)) <= 1e-14

    @pytest.mark.parametrize("lo, hi, top", [
        (0.1, 0.9, 58),  # cells 6 .. 57 hold 0.1 and 0.9
        (0.5, 0.5, 33),  # an edge touches the cells on both sides of it
        (0.0, 0.0, 1), (1.0, 1.0, 64), (0.5 + 1e-9, 0.5 + 1e-9, 33)])
    def test_max_abs_aprime_reads_the_edges_of_the_touched_cells(self, one_d, lo, hi, top):
        # a' = 2 xi grows with xi, so the largest edge read gives the value
        grid, M, xi = one_d
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        assert np.allclose(dm.max_abs_aprime(lo, hi), 2.0 * top / xi.n, rtol=0, atol=1e-14)

    def test_max_abs_aprime_takes_the_absolute_value_per_component(self):
        # curved2d with an off-diagonal sigma: a' has entries of both signs
        grid = ChartGrid(2, 16)
        M = build_metric(CURVED2D, grid)
        xi = XiGrid(16)
        dm = DiffusionModel.from_exprs([["0.3 + 0.2*xi", "-0.4*xi"], ["0.1", "0.2 + xi"]],
                                       M, xi)
        assert np.any(dm.aprime < 0.0)
        want = np.max(np.abs(dm.aprime[..., 3:9]), axis=-1)  # cells 3 .. 7 hold [0.24, 0.44]
        assert np.array_equal(dm.max_abs_aprime(0.24, 0.44), want)


class TestBetaFamily:
    """beta^psi(x, u) = integral_0^u sqrt(psi) sigma^t dz, evaluated by `beta_at`."""

    def test_zero_at_origin(self, wavy_1d):
        grid, M, xi = wavy_1d
        dm = DiffusionModel.from_exprs([["1 + xi"]], M, xi)
        zero = np.zeros(grid.shape)
        assert np.max(np.abs(beta_at(dm.sigmaT, zero, xi))) == 0.0
        assert np.max(np.abs(beta_at(dm.sigmaT, zero, xi, "xi"))) == 0.0

    def test_psi_one_bit_identical_to_plain(self, wavy_1d):
        grid, M, xi = wavy_1d
        dm = DiffusionModel.from_exprs([["1 + 0.5*xi"]], M, xi)
        plain = cumtrapz_edges(dm.sigmaT, xi.dxi)
        # xi_hermite returns the table itself at the edges
        for b, z in enumerate(xi.edges):
            assert np.array_equal(beta_at(dm.sigmaT, np.full(grid.shape, z), xi, "1"),
                                  plain[..., b])
        u = 0.5 + 0.4 * np.sin(TWO_PI * grid.coords()[0])
        assert np.array_equal(beta_at(dm.sigmaT, u, xi, "1"), beta_at(dm.sigmaT, u, xi))

    def test_at_is_hermite_in_xi(self, wavy_1d):
        # sigma = 1 + xi: the trapezoid table of xi + xi^2/2 is exact, and the
        # Hermite evaluation with slope sigma^t reproduces the quadratic
        grid, M, xi = wavy_1d
        dm = DiffusionModel.from_exprs([["1 + xi"]], M, xi)
        u = 0.5 + 0.3 * np.sin(TWO_PI * grid.coords()[0])
        assert np.max(np.abs(beta_at(dm.sigmaT, u, xi)[0, 0] - (u + 0.5 * u * u))) <= 1e-14
        assert np.max(np.abs(beta_at(dm.sigmaT, u, xi, "4")[0, 0]
                             - 2.0 * (u + 0.5 * u * u))) <= 1e-14

    def test_sqrt_weight_closed_form(self, one_d):
        # sigma = 1, psi(z) = z: antiderivative of sqrt(z) is (2/3) z^{3/2}
        grid, M, xi = one_d
        dm = DiffusionModel.from_exprs([["1"]], M, xi)
        # the weighted table, read back at the edges where xi_hermite returns it
        table = np.stack([beta_at(dm.sigmaT, np.full(grid.shape, z), xi, "xi")
                          for z in xi.edges], axis=-1)
        exact = (2.0 / 3.0) * xi.edges ** 1.5
        err = np.max(np.abs(table[0, 0] - exact))
        # sqrt singularity at 0 costs half an order: O(dxi^{3/2})
        assert err <= 0.5 * xi.dxi ** 1.5

    def test_derivative_recovers_sigmaT(self, wavy_1d):
        grid, M, xi = wavy_1d
        dm = DiffusionModel.from_exprs([["1 + xi^2"]], M, xi)
        plain = cumtrapz_edges(dm.sigmaT, xi.dxi)
        db = (plain[..., 2:] - plain[..., :-2]) / (2.0 * xi.dxi)
        assert np.max(np.abs(db - dm.sigmaT[..., 1:-1])) <= 2.0 * xi.dxi ** 2

    def test_negative_psi_rejected(self, one_d):
        _, _, xi = one_d
        for psi in ("xi - 0.5", "1 + 0*10^400"):
            with pytest.raises(ModelError, match="finite and nonnegative"):
                root_weight(psi, xi)


class TestFluxModel:
    def test_zero_flux(self, one_d):
        grid, M, xi = one_d
        fm = zero_flux(grid, xi)
        assert np.all(xi_interp(fm.f, np.full(grid.shape, 0.5), xi) == 0.0)

    def test_fd_prime_matches_analytic(self, one_d):
        grid, M, xi = one_d
        fm = FluxModel.from_exprs(["xi^2 / 2"], grid, xi)
        exact = grid.eval_expr("xi", xi.edges)
        # centered FD of a quadratic is exact at interior edges; the ends are one-sided
        assert np.max(np.abs(fm.fprime[0, ..., 1:-1] - exact[..., 1:-1])) <= 1e-14
        assert np.allclose(fm.fprime[0][..., [0, -1]], [0.5 * xi.dxi, 1.0 - 0.5 * xi.dxi],
                           rtol=0.0, atol=1e-14)

    def test_max_prime_gnorm(self, one_d):
        grid, M, xi = one_d
        fm = FluxModel.from_exprs(["xi^2 / 2"], grid, xi)
        # the largest |f'| is the one-sided difference at xi = 1
        assert fm.max_prime_gnorm(M) == pytest.approx(1.0 - 0.5 * xi.dxi, abs=1e-14)

    def test_shape_validation(self, one_d):
        grid, M, xi = one_d
        with pytest.raises(ModelError, match="shape"):
            FluxModel(grid, xi, np.zeros((1, 3, 5)))

    def test_non_finite_derivative_rejected(self, one_d):
        grid, M, xi = one_d
        # a finite flux whose centred differences overflow: cos(pi b / 2) at edge b
        with pytest.raises(ModelError, match="flux derivative table contains non-finite"):
            FluxModel.from_exprs(["1.7e308*cos(32*pi*xi)"], grid, xi)
        # a finite flux whose difference quotient overflows
        f = np.broadcast_to(np.where(np.arange(xi.n + 1) % 2 == 0, 1e308, -1e308),
                            (1,) + grid.shape + (xi.n + 1,))
        with pytest.raises(ModelError, match="flux derivative"):
            FluxModel(grid, xi, f)


def defect(fm, dm, eta=1e-2):
    """Per-edge max and L1 compatibility defects; eta does not enter on constant states."""
    return solver.compat_defect(fm, dm, transport_stencil(dm.M, eta))


class TestCompatibility:
    def test_trivial_zero_pair(self, one_d):
        grid, M, xi = one_d
        maxes, l1s = defect(zero_flux(grid, xi), zero_diffusion(M, xi))
        assert maxes.shape == l1s.shape == (xi.n + 1,)
        assert np.all(maxes == 0.0) and np.all(l1s == 0.0)

    @pytest.mark.parametrize("name", ["curved_const", "curved_evo", "shock"])
    def test_residual_is_the_divergence_difference(self, name):
        # the stencil's defect at each edge is div f - divdiv A of the operator functions
        pipe = cli.build_pipeline({s: dict(kv) for s, kv in catalog.SCENARIOS[name].items()})
        maxes, l1s = defect(pipe.fm, pipe.dm, pipe.solver_cfg.eta)
        ref = np.stack([div_vector(pipe.fm.f[..., e], pipe.M)
                        - divdiv_tensor11(pipe.dm.A[..., e], pipe.M)
                        for e in range(pipe.xi.n + 1)], axis=-1)
        ref_max = np.max(np.abs(ref), axis=tuple(range(pipe.grid.d)))
        ref_l1 = norm_l1(ref, pipe.M)
        # relative to each edge, with a floor at the round-off of the largest
        assert maxes == pytest.approx(ref_max, rel=1e-12, abs=1e-12 * np.max(ref_max))
        assert l1s == pytest.approx(ref_l1, rel=1e-12, abs=1e-12 * np.max(ref_l1))

    def test_stream_requires_2d(self, wavy_1d):
        grid, M, xi = wavy_1d
        dm = zero_diffusion(M, xi)
        with pytest.raises(ModelError, match="d = 2"):
            make_compatible_flux(dm, stream="x1")

    def test_flat_stream_hand_curl(self):
        grid = ChartGrid(2, 64)
        M = euclidean_metric(grid)
        x1, x2 = grid.coords()
        W = stream_vector("sin(2*pi*x1)*sin(2*pi*x2)", M)
        # W = (d2 psi, -d1 psi) on the flat chart
        exact0 = TWO_PI * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2)
        exact1 = -TWO_PI * np.cos(TWO_PI * x1) * np.sin(TWO_PI * x2)
        scale = TWO_PI ** 3 / 6 * grid.h ** 2
        assert np.max(np.abs(W[0] - exact0)) <= 1.1 * scale
        assert np.max(np.abs(W[1] - exact1)) <= 1.1 * scale

    def test_stream_vector_is_divergence_free_to_round_off(self):
        # A(., 0) = 0, so at xi = 0 the manufactured flux is the stream vector alone,
        # and the flux-form divergence of a discrete curl cancels term by term
        pipe = cli.build_pipeline({s: dict(kv) for s, kv in
                                   catalog.SCENARIOS["curved_const"].items()})
        assert defect(pipe.fm, pipe.dm)[0][0] <= 1e-13

    def test_manufactured_pair_truncation_only(self):
        grid = ChartGrid(2, 32)
        M = build_metric(CURVED2D, grid)
        xi = XiGrid(32)
        sc = catalog.SCENARIOS["curved_const"]["scenario"]
        sigma = [[sc[f"sigma{k}{i}"] for i in (1, 2)] for k in (1, 2)]
        dm = DiffusionModel.from_exprs(sigma, M, xi)
        fm = make_compatible_flux(dm, stream=sc["stream"])
        maxes = defect(fm, dm)[0]
        assert np.all(maxes <= 10.0 * grid.h ** 2), maxes

    def test_manufactured_pair_refines_at_h2(self):
        worst = []
        for n in (32, 64):
            grid = ChartGrid(2, n)
            M = build_metric(CURVED2D, grid)
            xi = XiGrid(32)
            sc = catalog.SCENARIOS["curved_const"]["scenario"]
            sigma = [[sc[f"sigma{k}{i}"] for i in (1, 2)] for k in (1, 2)]
            dm = DiffusionModel.from_exprs(sigma, M, xi)
            fm = make_compatible_flux(dm, stream=sc["stream"])
            worst.append(np.max(defect(fm, dm)[0]))
        assert 2.5 <= worst[0] / worst[1] <= 6.0

    def test_perturbed_pair_detected(self):
        grid = ChartGrid(2, 32)
        M = build_metric(CURVED2D, grid)
        xi = XiGrid(32)
        sc = catalog.SCENARIOS["curved_const"]["scenario"]
        sigma = [[sc[f"sigma{k}{i}"] for i in (1, 2)] for k in (1, 2)]
        dm = DiffusionModel.from_exprs(sigma, M, xi)
        fm = make_compatible_flux(dm, stream=sc["stream"])
        perturbed = fm.f.copy()
        perturbed[0] += 0.1
        fmp = FluxModel(grid, xi, perturbed)
        # an order above the pass threshold at every edge
        assert np.min(defect(fmp, dm)[0]) >= 10.0 * 10.0 * grid.h ** 2

    def test_flat_metric_manufactured_pair(self):
        grid = ChartGrid(2, 32)
        M = euclidean_metric(grid)
        xi = XiGrid(32)
        dm = DiffusionModel.from_exprs(
            [["0.3 + 0.3*xi + 0.005*sin(2*pi*x1)", "0"],
             ["0", "0.3 + 0.3*xi + 0.005*cos(2*pi*x2)"]], M, xi)
        fm = make_compatible_flux(dm, stream="0.005*sin(2*pi*x1)*sin(2*pi*x2)")
        assert np.all(defect(fm, dm)[0] <= 10.0 * grid.h ** 2)
