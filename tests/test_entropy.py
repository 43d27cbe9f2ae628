import numpy as np
import pytest

from maniflow.entropy import (DissipationLedger, EntropyFn, chain_rule_residual,
                              deposit, dissipation_densities, energy_balance,
                              entropy_flux_fields, entropy_residual,
                              identity_entropy, nu_bound_check, nu_profile,
                              spatial_battery, square_entropy)
from maniflow.geometry import (ChartGrid, build_metric, div_vector, divdiv_tensor11,
                               integrate, laplace_beltrami)
from maniflow.model import DiffusionModel, FluxModel, XiGrid, xi_interp
from maniflow.solver import SolverConfig, run
from maniflow import catalog

from helpers import euclidean_metric, quartic_entropy, zero_diffusion, zero_flux

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def flat_1d():
    grid = ChartGrid(1, 64)
    return grid, euclidean_metric(grid), XiGrid(64)


class TestEntropyFn:
    def test_zero_at_origin_enforced(self):
        with pytest.raises(ValueError, match="vanish"):
            EntropyFn(lambda v: v + 1.0, lambda v: 1.0, lambda v: 0.0)

    def test_named_entropies(self):
        for S in (square_entropy(), identity_entropy(), quartic_entropy()):
            assert S.s(0.0) == 0.0


class TestLedger:
    def test_hat_deposition_conserves_mass(self, flat_1d):
        grid, M, xi = flat_1d
        ledger = DissipationLedger(xi)
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1.0, size=grid.shape)
        wm = rng.uniform(0.0, 1.0, size=grid.shape)
        wn = rng.uniform(0.0, 1.0, size=grid.shape)
        ledger.add(values, wm, wn)
        assert ledger.total_m == pytest.approx(float(np.sum(wm)), rel=1e-13)
        assert ledger.total_n == pytest.approx(float(np.sum(wn)), rel=1e-13)
        assert np.all(ledger.bins_m >= 0.0) and np.all(ledger.bins_n >= 0.0)

    def test_edge_values_absorbed(self, flat_1d):
        grid, M, xi = flat_1d
        ledger = DissipationLedger(xi)
        ledger.add(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.zeros(2))
        assert ledger.total_m == pytest.approx(2.0, abs=1e-14)

    def test_constant_state_no_deposits(self, flat_1d):
        grid, M, xi = flat_1d
        dm = DiffusionModel.from_exprs([["1"]], M, xi)
        ledger = DissipationLedger(xi)
        deposit(np.full(grid.shape, 0.4), dm, 1e-2, 1e-3, ledger)
        assert ledger.total_m == 0.0 and ledger.total_n == 0.0

    def test_zero_sigma_no_degenerate_deposits(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        ledger = DissipationLedger(xi)
        x = grid.coords()[0]
        deposit(0.5 + 0.4 * np.sin(TWO_PI * x), dm, 1e-2, 1e-3, ledger)
        assert ledger.total_n == 0.0 and ledger.total_m > 0.0

    def test_frozen_step_closed_form(self):
        # sigma = 1, u = 0.5 + 0.4 sin: one deposit totals dt * 0.32 pi^2
        grid = ChartGrid(1, 8192)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = DiffusionModel.from_exprs([["1"]], M, xi)
        ledger = DissipationLedger(xi)
        dt = 1e-3
        x = grid.coords()[0]
        deposit(0.5 + 0.4 * np.sin(TWO_PI * x), dm, 0.0, dt, ledger)
        exact = dt * 0.32 * np.pi ** 2
        assert ledger.total_n == pytest.approx(exact, rel=1e-6)


class TestEntropyFluxFields:
    def test_identity_entropy_collapses_exactly(self, flat_1d):
        # flux linear in the state: the two tabulation paths coincide bitwise
        grid, M, xi = flat_1d
        fm = FluxModel.from_exprs(["xi*(0.3 + 0.1*sin(2*pi*x1))"], grid, xi)
        dm = DiffusionModel.from_exprs([["0.7"]], M, xi)
        x = grid.coords()[0]
        u = 0.4 + 0.3 * np.sin(TWO_PI * x + 0.3)
        ff, df = entropy_flux_fields(u, identity_entropy(), fm, dm)
        assert np.max(np.abs(ff - xi_interp(fm.f, u, xi))) <= 1e-15
        assert np.max(np.abs(df - xi_interp(dm.A, u, xi))) <= 1e-15

    def test_identity_entropy_smooth_flux_quadrature_close(self, flat_1d):
        grid, M, xi = flat_1d
        fm = FluxModel.from_exprs(["sin(xi)"], grid, xi)
        dm = zero_diffusion(M, xi)
        u = np.full(grid.shape, 0.77)
        ff, _ = entropy_flux_fields(u, identity_entropy(), fm, dm)
        # f(x,0) = 0 here, so the integral should reproduce f(x,u)
        assert np.max(np.abs(ff - xi_interp(fm.f, u, xi))) <= xi.dxi ** 2

    def test_zero_state_zero_fields(self, flat_1d):
        grid, M, xi = flat_1d
        fm = FluxModel.from_exprs(["xi^2"], grid, xi)
        dm = DiffusionModel.from_exprs([["1 + xi"]], M, xi)
        ff, df = entropy_flux_fields(np.zeros(grid.shape), square_entropy(), fm, dm)
        assert np.max(np.abs(ff)) == 0.0 and np.max(np.abs(df)) == 0.0

    def test_square_entropy_constant_sigma_closed_form(self, flat_1d):
        # S' = xi, sigma = 1: integral of a' S' = u^2/2 * Id
        grid, M, xi = flat_1d
        fm = zero_flux(grid, xi)
        dm = DiffusionModel.from_exprs([["1"]], M, xi)
        x = grid.coords()[0]
        u = 0.5 + 0.4 * np.sin(TWO_PI * x)
        _, df = entropy_flux_fields(u, square_entropy(), fm, dm)
        assert np.max(np.abs(df[0, 0] - 0.5 * u ** 2)) <= 2.0 * xi.dxi ** 2


class TestEntropyResidual:
    def _heat_pair(self, n=64):
        grid = ChartGrid(1, n)
        M = euclidean_metric(grid)
        xi = XiGrid(n)
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.4 * np.sin(TWO_PI * x)
        traj = run(SolverConfig(eta=1e-2, t_end=0.02), fm, dm, u0)
        return grid, M, xi, dm, fm, traj

    def test_constant_state_residual_tiny(self):
        grid = ChartGrid(2, 32)
        M = build_metric(catalog.METRICS["curved2d"]["entries"], grid)
        xi = XiGrid(32)
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        traj = run(SolverConfig(eta=1e-2, t_end=0.02), fm, dm,
                   np.full(grid.shape, 0.5))
        battery = spatial_battery(grid, seed=0)
        r = entropy_residual(traj.snapshots[-2], traj.snapshots[-1],
                             traj.times[-1] - traj.times[-2],
                             square_entropy(), fm, dm, 1e-2, battery)
        assert r <= 1e-8

    def test_identity_entropy_matches_plain_scheme(self, flat_1d):
        grid, M, xi = flat_1d
        fm = FluxModel.from_exprs(["xi*(0.3 + 0.1*sin(2*pi*x1))"], grid, xi)
        dm = DiffusionModel.from_exprs([["0.5"]], M, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.3 * np.sin(TWO_PI * x)
        eta = 1e-2
        traj = run(SolverConfig(eta=eta, t_end=0.01), fm, dm, u0)
        ua, ub = traj.snapshots[-2], traj.snapshots[-1]
        dt = traj.times[-1] - traj.times[-2]
        um = 0.5 * (ua + ub)
        battery = spatial_battery(grid, seed=1)
        plain = max(abs(integrate(phi * (
            (ub - ua) / dt + div_vector(xi_interp(fm.f, um, xi), M)
            - divdiv_tensor11(xi_interp(dm.A, um, xi), M) - eta * laplace_beltrami(um, M)), M))
            for phi in np.moveaxis(battery, -1, 0))
        kinetic_form = entropy_residual(ua, ub, dt, identity_entropy(),
                                        fm, dm, eta, battery)
        assert abs(kinetic_form - plain) <= 1e-10

    def test_linear_in_entropy(self, flat_1d):
        grid, M, xi = flat_1d
        fm = zero_flux(grid, xi)
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.4 * np.sin(TWO_PI * x)
        eta = 1e-2
        traj = run(SolverConfig(eta=eta, t_end=0.01), fm, dm, u0)
        ua, ub = traj.snapshots[-2], traj.snapshots[-1]
        dt = traj.times[-1] - traj.times[-2]
        phi = spatial_battery(grid, seed=2, count=1)

        S1, S2 = square_entropy(), quartic_entropy()
        S_sum = EntropyFn(lambda v: S1.s(v) + S2.s(v),
                          lambda v: S1.ds(v) + S2.ds(v),
                          lambda v: S1.d2s(v) + S2.d2s(v), name="sum")

        def signed(S):
            from maniflow.entropy import _binned_s2_dissipation
            um = 0.5 * (ua + ub)
            ff, df = entropy_flux_fields(um, S, fm, dm)
            strong = ((S.on(ub) - S.on(ua)) / dt + div_vector(ff, M)
                      - divdiv_tensor11(df, M) - eta * laplace_beltrami(S.on(um), M)
                      + _binned_s2_dissipation(um, S, dm, eta))
            return integrate(phi[..., 0] * strong, M)

        assert abs(signed(S_sum) - signed(S1) - signed(S2)) <= 1e-10

    def test_refines_with_grid_and_step(self):
        # flat heat with the half-square entropy: residual drops ~4x per halving
        res = []
        for n in (32, 64):
            grid, M, xi, dm, fm, traj = self._heat_pair(n)
            battery = spatial_battery(grid, seed=0)
            res.append(entropy_residual(traj.snapshots[-2], traj.snapshots[-1],
                                        traj.times[-1] - traj.times[-2],
                                        square_entropy(), fm, dm, 1e-2, battery))
        assert res[1] <= 0.5 * res[0]


class TestEnergyBalance:
    def test_constant_run_exact_zero(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        traj = run(SolverConfig(eta=1e-2, t_end=0.02), fm, dm,
                   np.full(grid.shape, 0.25))
        report = energy_balance(traj)
        assert abs(report["residual"]) <= 1e-14

    def test_heat_identity(self):
        grid = ChartGrid(1, 128)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        traj = run(SolverConfig(eta=1e-2, t_end=0.5), fm, dm,
                   0.5 + 0.4 * np.sin(TWO_PI * x))
        report = energy_balance(traj)
        assert report["relative_residual"] <= 0.02
        assert report["total_degenerate"] == 0.0

    def test_porous_identity(self):
        grid = ChartGrid(1, 128)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        traj = run(SolverConfig(eta=1e-2, t_end=0.05), fm, dm,
                   0.5 + 0.4 * np.sin(TWO_PI * x))
        report = energy_balance(traj)
        assert report["relative_residual"] <= 0.05
        assert report["total_degenerate"] > report["total_viscous"]


class TestChainRule:
    @pytest.fixture(scope="class")
    def curved_setup(self):
        def make(n, n_xi):
            grid = ChartGrid(1, n)
            M = build_metric([["(1 + 0.5*sin(2*pi*x1))^2"]], grid)
            xi = XiGrid(n_xi)
            dm = DiffusionModel.from_exprs(
                [["(0.4 + 0.4*xi)*(1 + 0.3*sin(2*pi*x1))"]], M, xi)
            x = grid.coords()[0]
            u = 0.5 + 0.3 * np.sin(TWO_PI * x)
            return grid, M, xi, dm, u
        return make

    def test_psi_constant_exactly_zero(self, curved_setup):
        grid, M, xi, dm, u = curved_setup(64, 32)
        assert chain_rule_residual(u, "1", dm) == 0.0

    def test_psi_zero_both_sides_vanish(self, curved_setup):
        grid, M, xi, dm, u = curved_setup(64, 32)
        assert chain_rule_residual(u, "0", dm) == 0.0

    def test_linear_psi_refines(self, curved_setup):
        grid1, M1, xi1, dm1, u1 = curved_setup(64, 32)
        r_coarse = chain_rule_residual(u1, "xi", dm1)
        grid2, M2, xi2, dm2, u2 = curved_setup(128, 64)
        r_fine = chain_rule_residual(u2, "xi", dm2)
        assert r_coarse / r_fine >= 3.0

    def test_x_refinement_at_fixed_xi_does_not_raise(self, curved_setup):
        residuals = []
        for n in (64, 128, 256, 512):
            grid, M, xi, dm, u = curved_setup(n, 32)
            residuals.append(chain_rule_residual(u, "xi", dm))
        assert all(fine <= coarse for coarse, fine in zip(residuals, residuals[1:]))

    def test_curved2d_refines_second_order(self):
        sc = catalog.SCENARIOS["curved_evo"]["scenario"]
        residuals = []
        for n in (16, 32, 64):
            grid = ChartGrid(2, n)
            M = build_metric(catalog.METRICS["curved2d"]["entries"], grid)
            sigma = [[sc[f"sigma{k}{i}"] for i in (1, 2)] for k in (1, 2)]
            dm = DiffusionModel.from_exprs(sigma, M, XiGrid(n))
            residuals.append(chain_rule_residual(grid.eval_expr(sc["u0"]), "xi", dm))
        for coarse, fine in zip(residuals, residuals[1:]):
            assert coarse / fine >= 3.0


class TestNuBound:
    def test_constant_initial_closed_form(self, flat_1d):
        grid, M, xi = flat_1d
        u0 = np.full(grid.shape, 0.5)
        nu = nu_profile(u0, M, xi)
        exact = np.maximum(0.5 - xi.centers, 0.0)  # volume is 1
        assert np.max(np.abs(nu - exact)) <= 1e-12

    def test_bins_above_initial_max_empty(self):
        grid = ChartGrid(1, 128)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.3 * np.sin(TWO_PI * x)  # max 0.8
        traj = run(SolverConfig(eta=1e-2, t_end=0.2), fm, dm, u0)
        high = xi.centers > 0.8 + 2 * xi.dxi
        assert np.max(traj.ledger.bins_m[high] + traj.ledger.bins_n[high]) == 0.0
        nu = nu_profile(u0, M, xi)
        assert np.max(nu[xi.centers >= 0.8]) <= 1e-12

    def test_heat_run_bound_holds(self):
        grid = ChartGrid(1, 128)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.4 * np.sin(TWO_PI * x)
        traj = run(SolverConfig(eta=1e-2, t_end=0.5), fm, dm, u0)
        verdict = nu_bound_check(traj.ledger, u0, M)
        assert verdict["pass"]
