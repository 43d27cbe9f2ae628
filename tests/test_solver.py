import re
import tracemalloc

import numpy as np
import pytest

from maniflow.geometry import ChartGrid, build_metric, integrate, norm_l1, transport_stencil
from maniflow.model import (DiffusionModel, FluxModel, XiGrid, make_compatible_flux,
                            transport_table, xi_interp)
from maniflow.entropy import DissipationLedger, deposit, energy_balance
from maniflow.solver import (BLOCK_NODE_STEPS, MAX_STEPS, RangeViolation, SolverConfig,
                             SolverError, Trajectory, max_principle, rhs, run, stable_dt,
                             total_variation)
from maniflow import catalog, cli, solver

from helpers import euclidean_metric, zero_diffusion, zero_flux

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def flat_1d():
    grid = ChartGrid(1, 64)
    M = euclidean_metric(grid)
    xi = XiGrid(64)
    return grid, M, xi


def heat_setup(n, eta):
    grid = ChartGrid(1, n)
    M = euclidean_metric(grid)
    xi = XiGrid(64)
    dm = zero_diffusion(M, xi)
    fm = zero_flux(grid, xi)
    x = grid.coords()[0]
    u0 = 0.5 + 0.4 * np.sin(TWO_PI * x)
    return grid, M, xi, dm, fm, u0


def step_dt(cfg, fm, dm, M, u0):
    """The dt bound, cfl times the smaller step bound, of a run from u0 under cfg."""
    return stable_dt(cfg, fm, dm, transport_stencil(M, cfg.eta), np.asarray(u0)).dt


class TestStableDt:
    def test_pure_diffusion_plugin_value(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        cfg = SolverConfig(eta=1.0, t_end=1.0, cfl=0.4)
        assert step_dt(cfg, fm, dm, M, np.zeros(grid.shape)) == pytest.approx(4.8828125e-5,
                                                                              rel=1e-12)

    def test_doubling_eta_halves_dt(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        u0 = np.zeros(grid.shape)
        dt1 = step_dt(SolverConfig(eta=1.0, t_end=1.0), fm, dm, M, u0)
        dt2 = step_dt(SolverConfig(eta=2.0, t_end=1.0), fm, dm, M, u0)
        assert dt1 / dt2 == pytest.approx(2.0, rel=1e-12)

    def test_min_of_two_branches(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = FluxModel.from_exprs(["xi^2 / 2"], grid, xi)
        # convective branch: 0.4 * h / max|f'|, the one-sided difference 1 - dxi / 2 at
        # xi = 1; diffusive branch: 0.4 h^2 / (2 eta)
        for eta in (1e-4, 1e-1):
            cfg = SolverConfig(eta=eta, t_end=1.0, cfl=0.4)
            conv = 0.4 * grid.h / (1.0 - 0.5 * xi.dxi)
            diff = 0.4 * grid.h ** 2 / (2.0 * eta)
            assert step_dt(cfg, fm, dm, M, np.zeros(grid.shape)) == pytest.approx(
                min(conv, diff), rel=1e-12)

    @pytest.mark.parametrize("prime", [1e200, np.nan], ids=["zero", "nan"])
    def test_bound_that_is_not_positive_and_finite_is_an_error(self, flat_1d, prime):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        # |f'|^2 = 1e400 overflows to inf, a bound of 0, or is NaN
        fm.fprime = np.full_like(fm.fprime, prime)
        with pytest.raises(SolverError, match="stable step bound"):
            step_dt(SolverConfig(eta=1.0, t_end=1.0), fm, dm, M, np.zeros(grid.shape))


class TestRhs:
    def test_flat_heat_is_discrete_laplacian(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        u = 0.5 + 0.3 * np.sin(TWO_PI * x)
        eta = 2e-2
        lap = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / grid.h ** 2
        r = rhs(u, transport_table(fm, dm), xi, transport_stencil(M, eta))
        assert np.max(np.abs(r - eta * lap)) <= 1e-14

    def test_porous_matches_hand_stencil(self, flat_1d):
        # flat, f=0, a' = 2 xi: rhs must equal D2(u^2) + eta D2(u) where the
        # double divergence reduces to the 3-point second difference
        grid, M, xi = flat_1d
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        u = 0.5 + 0.4 * np.sin(TWO_PI * x)
        eta = 1e-2

        def d2(v):
            return (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / grid.h ** 2

        # A(u) interpolated on the xi lattice, not u^2 exactly; build the same
        # quantization into the oracle stencil
        A_vals = np.interp(u, xi.edges, xi.edges ** 2)
        oracle = d2(A_vals) + eta * d2(u)
        r = rhs(u, transport_table(fm, dm), xi, transport_stencil(M, eta))
        assert np.max(np.abs(r - oracle)) <= 1e-10

    def test_compatible_constant_state_small(self):
        grid = ChartGrid(2, 32)
        M = build_metric(catalog.METRICS["curved2d"]["entries"], grid)
        xi = XiGrid(32)
        sc = catalog.SCENARIOS["curved_const"]["scenario"]
        sigma = [[sc[f"sigma{k}{i}"] for i in (1, 2)] for k in (1, 2)]
        dm = DiffusionModel.from_exprs(sigma, M, xi)
        fm = make_compatible_flux(dm, stream=sc["stream"])
        u = np.full(grid.shape, 0.5)
        r = rhs(u, transport_table(fm, dm), xi, transport_stencil(M, 5e-3))
        assert np.max(np.abs(r)) <= 10.0 * grid.h ** 2

    @pytest.mark.parametrize("metric", ["flat1d", "wavy1d", "curved2d"])
    def test_one_table_lookup_equals_two(self, metric):
        # the former rhs looked f and A up in their own tables; the reference keeps that path
        d = catalog.METRICS[metric]["d"]
        grid = ChartGrid(d, 16)
        M = build_metric(catalog.METRICS[metric]["entries"], grid)
        xi = XiGrid(16)
        axes = [1, 2][:d]
        sigma = [[f"0.3 + 0.4*xi^2 + 0.05*sin(2*pi*x{k})" if i == k else "0.1*xi*cos(2*pi*x1)"
                  for i in axes] for k in axes]
        dm = DiffusionModel.from_exprs(sigma, M, xi)
        fm = FluxModel.from_exprs([f"xi^2*(1 + 0.2*cos(2*pi*x{k}))" for k in axes], grid, xi)
        stencil = transport_stencil(M, 1e-2)
        table = transport_table(fm, dm)
        s = sum(grid.coords())
        states = {"cells": 0.5 + 0.4 * np.sin(TWO_PI * s),
                  "edges": np.floor((0.5 + 0.5 * np.sin(TWO_PI * s)) * xi.n) / xi.n,
                  "zero": np.zeros(grid.shape), "one": np.ones(grid.shape)}
        for name, u in states.items():
            want = stencil(xi_interp(fm.f, u, xi), xi_interp(dm.A, u, xi), u)
            assert np.array_equal(rhs(u, table, xi, stencil), want), name

    @staticmethod
    def buffer_case(metric):
        """(grid, stencil, table, xi) of a small problem with flux and diffusion on `metric`."""
        d = catalog.METRICS[metric]["d"]
        grid = ChartGrid(d, 16)
        M = build_metric(catalog.METRICS[metric]["entries"], grid)
        xi = XiGrid(16)
        axes = [1, 2][:d]
        dm = DiffusionModel.from_exprs([["0.3 + 0.4*xi^2" if i == k else "0.1*xi" for i in axes]
                                        for k in axes], M, xi)
        fm = FluxModel.from_exprs([f"xi^2*(1 + 0.2*cos(2*pi*x{k}))" for k in axes], grid, xi)
        return grid, transport_stencil(M, 1e-2), transport_table(fm, dm), xi

    @pytest.mark.parametrize("metric", ["flat1d", "curved2d"])
    def test_successive_calls_leave_earlier_results_alone(self, metric):
        # rhs fills the stencil's one input buffer, so each result must be an array of its own
        grid, stencil, table, xi = self.buffer_case(metric)
        s = sum(grid.coords())
        u, v = 0.5 + 0.4 * np.sin(TWO_PI * s), 0.5 - 0.3 * np.cos(TWO_PI * s)
        first = rhs(u, table, xi, stencil)
        kept = first.copy()
        second = rhs(v, table, xi, stencil)
        assert np.array_equal(first, kept)
        assert np.array_equal(first, stencil(xi_interp(table, u, xi, u.ndim), u))
        assert np.array_equal(second, stencil(xi_interp(table, v, xi, v.ndim), v))

    @pytest.mark.parametrize("metric", ["flat1d", "curved2d"])
    def test_call_after_rhs_applies_the_stacked_parts(self, metric):
        grid, stencil, table, xi = self.buffer_case(metric)
        d = grid.d
        rhs(np.full(grid.shape, 0.25), table, xi, stencil)  # leaves its input in stencil.state
        filled = stencil.state.copy()
        rng = np.random.default_rng(9)
        F, T, w = (rng.standard_normal(shape + grid.shape) for shape in ((d,), (d, d), ()))
        Y = np.concatenate((F, T.reshape((d * d,) + grid.shape), w[None]))
        assert np.array_equal(stencil(F, T, w), stencil.apply(Y))
        assert np.array_equal(stencil.state, filled)

    def test_range_violation_diagnostic(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        u = np.full(grid.shape, 0.5)
        u[13] = 1.2
        with pytest.raises(RangeViolation, match=r"\(13,\)"):
            rhs(u, transport_table(fm, dm), xi, transport_stencil(M, 1e-2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_is_not_a_range_violation(self, flat_1d, bad):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        u = np.full(grid.shape, 0.5)
        u[13] = bad
        u[20] = 1.2  # also out of range: the non-finite value still decides the error
        with pytest.raises(SolverError, match="non-finite state") as info:
            rhs(u, transport_table(fm, dm), xi, transport_stencil(M, 1e-2))
        assert not isinstance(info.value, RangeViolation)


def per_step_run(cfg, fm, dm, M, u0):
    """Reference: the step loop with a monitor and a deposit on every step."""
    dt_raw = step_dt(cfg, fm, dm, M, u0)
    n_steps = max(1, int(np.ceil(cfg.t_end / dt_raw)))
    dt = cfg.t_end / n_steps
    n_snap = min(cfg.n_snapshots, n_steps)
    targets = [i * cfg.t_end / n_snap for i in range(1, n_snap + 1)]
    next_target = 0
    stencil = transport_stencil(M, cfg.eta)
    table = transport_table(fm, dm)
    xi = dm.xi
    ledger = DissipationLedger(xi)
    u = np.asarray(u0, dtype=float).copy()
    times, snapshots = [0.0], [u.copy()]
    mon = {"monitor_t": [], "mass": [], "u_min": [], "u_max": [], "energy": []}

    def monitor(t, v):
        mon["monitor_t"].append(t)
        mon["mass"].append(integrate(v, M))
        mon["u_min"].append(float(np.min(v)))
        mon["u_max"].append(float(np.max(v)))
        mon["energy"].append(integrate(0.5 * v * v, M))

    monitor(0.0, u)
    for step in range(1, n_steps + 1):
        deposit(u, dm, cfg.eta, dt, ledger)
        k1 = rhs(u, table, xi, stencil)
        k2 = rhs(u + dt * k1, table, xi, stencil)
        u = u + 0.5 * dt * (k1 + k2)
        t = step * dt
        monitor(t, u)
        if next_target < len(targets) and t >= targets[next_target] - 1e-12:
            times.append(t)
            snapshots.append(u.copy())
            next_target += 1
    return Trajectory(times=times, snapshots=snapshots, ledger=ledger, dt=dt, eta=cfg.eta,
                      **{k: np.asarray(v) for k, v in mon.items()})


def bookkeeping_case(name):
    """(fm, dm, M, u0, xi, eta) of a porous-type flat 1D or a compatible curved 2D problem."""
    if name == "flat1d":
        grid = ChartGrid(1, 128)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        fm = FluxModel.from_exprs(["0.3*xi^2"], grid, xi)
        u0 = 0.5 + 0.4 * np.sin(TWO_PI * grid.coords()[0])
        return fm, dm, M, u0, xi, 1e-3
    grid = ChartGrid(2, 32)
    M = build_metric(catalog.METRICS["curved2d"]["entries"], grid)
    xi = XiGrid(32)
    sc = catalog.SCENARIOS["curved_const"]["scenario"]
    dm = DiffusionModel.from_exprs([[sc[f"sigma{k}{i}"] for i in (1, 2)] for k in (1, 2)],
                                   M, xi)
    fm = make_compatible_flux(dm, stream=sc["stream"])
    x1, x2 = grid.coords()
    u0 = 0.5 + 0.3 * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2)
    return fm, dm, M, u0, xi, 5e-3


# (block count, remainder) of n_steps = count * B + remainder, with n_snapshots;
# a case at 3 snapshots is named by its step count alone
BOOKKEEPING_STEPS = {"1": (0, 1), "B-1": (1, -1), "B": (1, 0), "B+1": (1, 1), "2B+1": (2, 1)}
BOOKKEEPING_CASES = [(blocks, snaps) for snaps in ("3", "1", "n_steps")
                     for blocks in BOOKKEEPING_STEPS.values()]
BOOKKEEPING_IDS = [step_id if snaps == "3" else f"{step_id},snaps={snaps}"
                   for snaps in ("3", "1", "n_steps") for step_id in BOOKKEEPING_STEPS]


class TestRun:
    def test_heat_matches_spectral_solution(self):
        grid, M, xi, dm, fm, u0 = heat_setup(128, 1e-2)
        traj = run(SolverConfig(eta=1e-2, t_end=0.05), fm, dm, u0)
        # exact heat semigroup of the band-limited initial data
        x = grid.coords()[0]
        exact = 0.5 + 0.4 * np.exp(-1e-2 * TWO_PI ** 2 * 0.05) * np.sin(TWO_PI * x)
        assert np.max(np.abs(traj.u_final - exact)) <= 1e-4

    def test_mass_conserved(self):
        grid, M, xi, dm, fm, u0 = heat_setup(64, 1e-2)
        traj = run(SolverConfig(eta=1e-2, t_end=0.1), fm, dm, u0)
        assert abs(traj.mass[-1] - traj.mass[0]) <= 1e-6

    def test_mass_conserved_on_a_curved_chart(self):
        # every divergence of the scheme is in flux form, so its sqrt|g|-weighted
        # sum telescopes on a curved chart as on a flat one
        cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS["curved_evo"].items()}
        cfg["solver"]["t_end"] = 2e-3
        mass = np.asarray(cli.build_pipeline(cfg).run().mass)
        assert len(mass) > 2
        assert np.max(np.abs(mass - mass[0])) <= 1e-14 * abs(mass[0])

    def test_compatible_constant_stays_constant(self):
        cfg_dict = catalog.SCENARIOS["curved_const"]
        grid = ChartGrid(2, 32)
        M = build_metric(catalog.METRICS["curved2d"]["entries"], grid)
        xi = XiGrid(32)
        sc = cfg_dict["scenario"]
        sigma = [[sc[f"sigma{k}{i}"] for i in (1, 2)] for k in (1, 2)]
        dm = DiffusionModel.from_exprs(sigma, M, xi)
        fm = make_compatible_flux(dm, stream=sc["stream"])
        u0 = np.full(grid.shape, 0.5)
        traj = run(SolverConfig(eta=5e-3, t_end=0.1), fm, dm, u0)
        assert np.max(np.abs(traj.u_final - 0.5)) <= 1e-4

    def test_maximum_principle_shock(self):
        grid = ChartGrid(1, 128)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = zero_diffusion(M, xi)
        fm = FluxModel.from_exprs(["xi^2 / 2"], grid, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.5 * np.sin(TWO_PI * x)
        traj = run(SolverConfig(eta=5e-3, t_end=0.3), fm, dm, u0)
        assert np.min(traj.u_min) >= -1e-6
        assert np.max(traj.u_max) <= 1.0 + 1e-6

    def test_tv_monotone_in_eta(self):
        grid = ChartGrid(1, 128)
        M = euclidean_metric(grid)
        xi = XiGrid(64)
        dm = zero_diffusion(M, xi)
        fm = FluxModel.from_exprs(["xi^2 / 2"], grid, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.5 * np.sin(TWO_PI * x)
        tvs = [total_variation(run(SolverConfig(eta=e, t_end=0.3), fm, dm, u0,
                                   record_dissipation=False).u_final)
               for e in (5e-3, 1e-2, 2e-2)]
        assert tvs[0] >= tvs[1] >= tvs[2]

    def test_determinism_bitwise(self):
        grid, M, xi, dm, fm, u0 = heat_setup(64, 1e-2)
        a = run(SolverConfig(eta=1e-2, t_end=0.02), fm, dm, u0)
        b = run(SolverConfig(eta=1e-2, t_end=0.02), fm, dm, u0)
        assert np.array_equal(a.u_final, b.u_final)
        assert np.array_equal(a.ledger.bins_m, b.ledger.bins_m)
        assert a.times == b.times

    def test_initial_range_enforced(self, flat_1d):
        grid, M, xi = flat_1d
        dm = zero_diffusion(M, xi)
        fm = zero_flux(grid, xi)
        with pytest.raises(SolverError, match=r"\[0,1\]"):
            run(SolverConfig(eta=1e-2, t_end=0.01), fm, dm, np.full(grid.shape, 1.5))

    def test_range_violation_keeps_its_type(self):
        # the data of tests/test_cli.py::test_range_violation_exits_1
        grid = ChartGrid(1, 16)
        M = euclidean_metric(grid)
        xi = XiGrid(16)
        dm = zero_diffusion(M, xi)
        fm = FluxModel.from_exprs(["20*xi^2"], grid, xi)
        u0 = 0.5 + 0.25 * np.sin(TWO_PI * grid.coords()[0])
        with pytest.raises(RangeViolation, match=r"^step 32 \(t=.*node \(7,\) outside"):
            run(SolverConfig(eta=1e-4, t_end=0.5, cfl=1.0), fm, dm, u0)

    def test_blowup_aborts_with_step_index(self, flat_1d):
        grid, M, xi = flat_1d
        # anti-diffusive flux via a fake diffusion table: negate A by flipping
        # the sign of the tabulated antiderivative directly
        dm = DiffusionModel.from_exprs([["1"]], M, xi)
        dm.A = -5.0 * dm.A
        fm = zero_flux(grid, xi)
        x = grid.coords()[0]
        u0 = 0.5 + 0.4 * np.sin(TWO_PI * x)
        with pytest.raises(SolverError, match="step"):
            run(SolverConfig(eta=1e-3, t_end=0.5), fm, dm, u0)

    def test_step_count_is_bounded_before_any_allocation(self, monkeypatch):
        grid, M, xi, dm, fm, u0 = heat_setup(16, 1e-2)
        cfg = SolverConfig(eta=1e-2, t_end=0.5)
        n_steps = int(np.ceil(cfg.t_end / step_dt(cfg, fm, dm, M, u0)))
        monkeypatch.setattr(solver, "MAX_STEPS", n_steps)
        assert len(run(cfg, fm, dm, u0).mass) == n_steps + 1
        monkeypatch.setattr(solver, "MAX_STEPS", n_steps - 1)
        # the table is the first thing a run builds after its step count
        monkeypatch.setattr(solver.model, "transport_table", None)
        with pytest.raises(SolverError, match=re.escape(
                f"set by the parabolic bound, needs {n_steps:.3e} steps to t_end = 0.5; "
                f"at most {n_steps - 1} are allowed")):
            run(cfg, fm, dm, u0)

    def test_nothing_is_allocated_per_step(self, monkeypatch):
        # 8 MB per monitor at MAX_STEPS; the block of states is 128 kB on 16 nodes
        grid, M, xi, dm, fm, u0 = heat_setup(16, 1e-2)
        dt = step_dt(SolverConfig(eta=1e-2, t_end=1.0), fm, dm, M, u0)
        cfg = SolverConfig(eta=1e-2, t_end=(MAX_STEPS - 0.5) * dt)
        assert np.ceil(cfg.t_end / step_dt(cfg, fm, dm, M, u0)) == MAX_STEPS

        def failing(*args):
            raise SolverError("stopped")

        monkeypatch.setattr(solver, "rhs", failing)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with pytest.raises(SolverError, match=r"^step 1 \(t=.*\): stopped$"):
                run(cfg, fm, dm, u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_snapshot_times_hit_targets(self):
        grid, M, xi, dm, fm, u0 = heat_setup(64, 1e-2)
        traj = run(SolverConfig(eta=1e-2, t_end=0.02, n_snapshots=4), fm, dm, u0)
        assert len(traj.snapshots) == 5
        targets = [0.0, 0.005, 0.01, 0.015, 0.02]
        assert all(abs(t - s) <= traj.dt for t, s in zip(traj.times, targets))

    def test_ledger_bins_on_the_models_xi_grid(self):
        # the run reads xi from the models: tables and ledger share their 32 bins
        grid = ChartGrid(1, 64)
        M = euclidean_metric(grid)
        xi = XiGrid(32)
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        u0 = 0.5 + 0.4 * np.sin(TWO_PI * grid.coords()[0])
        traj = run(SolverConfig(eta=1e-2, t_end=0.02), zero_flux(grid, xi), dm, u0)
        assert traj.ledger.xi is xi
        assert traj.ledger.bins_m.shape == traj.ledger.bins_n.shape == (32,)
        assert traj.ledger.total_n > 0.0
        # measured 2.8e-4
        assert energy_balance(traj)["relative_residual"] <= 1e-3

    def test_eta_cauchy_contractive(self):
        grid, M, xi, dm, fm, u0 = heat_setup(64, 1e-2)
        finals = [run(SolverConfig(eta=e, t_end=0.1), fm, dm, u0,
                      record_dissipation=False).u_final
                  for e in (4e-2, 2e-2, 1e-2)]
        e1 = norm_l1(finals[0] - finals[1], M)
        e2 = norm_l1(finals[1] - finals[2], M)
        assert e2 <= 0.9 * e1

    @pytest.mark.parametrize("name", ["flat1d", "curved2d"])
    @pytest.mark.parametrize("blocks, snaps", BOOKKEEPING_CASES, ids=BOOKKEEPING_IDS)
    def test_block_bookkeeping_matches_per_step(self, name, blocks, snaps, monkeypatch):
        # the integer snapshot steps against the float-target rule of `per_step_run`
        fm, dm, M, u0, xi, eta = bookkeeping_case(name)
        B = BLOCK_NODE_STEPS // u0.size
        n_steps = blocks[0] * B + blocks[1]
        n_snap = n_steps if snaps == "n_steps" else int(snaps)
        cfg0 = SolverConfig(eta=eta, t_end=1.0, n_snapshots=3)
        cfg = SolverConfig(eta=eta, t_end=(n_steps - 0.5) * step_dt(cfg0, fm, dm, M, u0),
                           n_snapshots=n_snap)
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return deposit(*args)

        monkeypatch.setattr(solver, "deposit", counted)
        got = run(cfg, fm, dm, u0)
        ref = per_step_run(cfg, fm, dm, M, u0)
        assert len(got.monitor_t) == n_steps + 1
        assert len(got.snapshots) == min(n_snap, n_steps) + 1
        assert len(calls) == -(-n_steps // B)  # one deposit per block, not per step
        assert sum(shape[-1] for shape in calls) == n_steps
        assert np.array_equal(got.u_final, ref.u_final)
        assert got.times == ref.times
        assert all(np.array_equal(a, b) for a, b in zip(got.snapshots, ref.snapshots))
        assert len(got.snapshots) == len(ref.snapshots)
        # each block column is summed, and deposited, in the order of a lone state
        for key in ("monitor_t", "u_min", "u_max", "mass", "energy"):
            assert np.array_equal(getattr(got, key), getattr(ref, key)), key
        for key in ("bins_m", "bins_n"):
            a, b = getattr(got.ledger, key), getattr(ref.ledger, key)
            assert np.any(b > 0.0) and np.array_equal(a, b), key

        if snaps != "3":
            return  # the snapshot count does not reach the ledger
        calls.clear()
        quiet = run(cfg, fm, dm, u0, record_dissipation=False)
        assert not calls
        assert not np.any(quiet.ledger.bins_m) and not np.any(quiet.ledger.bins_n)
        assert np.array_equal(quiet.u_final, ref.u_final)


def fd_jacobian(u, table, xi, stencil, eps=1e-7):
    """Dense central-difference Jacobian of `rhs` at u, one column per node."""
    flat = u.ravel()
    J = np.empty((flat.size, flat.size))
    for j in range(flat.size):
        v = flat.copy()
        v[j] += eps
        plus = rhs(v.reshape(u.shape), table, xi, stencil)
        v[j] -= 2.0 * eps
        J[:, j] = (plus - rhs(v.reshape(u.shape), table, xi, stencil)).ravel() / (2.0 * eps)
    return J


def bound_case(metric, n, diffusion=True):
    """(cfg, fm, dm, M, u0, xi) of a parabolic problem on a catalog metric: no flux and
    a state-dependent sigma, whose A on a curved metric is incompatible, so I widens;
    heat (sigma = 0) without `diffusion`."""
    d = catalog.METRICS[metric]["d"]
    grid = ChartGrid(d, n)
    M = build_metric(catalog.METRICS[metric]["entries"], grid)
    xi = XiGrid(16)
    axes = [1, 2][:d]
    sigma = [[f"0.2 + 0.5*xi + 0.05*sin(2*pi*x{k})" if i == k else "0.1*xi" for i in axes]
             for k in axes]
    dm = DiffusionModel.from_exprs(sigma, M, xi) if diffusion else \
        zero_diffusion(M, xi)
    u0 = 0.5 + 0.3 * np.sin(TWO_PI * sum(grid.coords()))
    return SolverConfig(eta=1e-2, t_end=0.01), zero_flux(grid, xi), dm, M, u0, xi


def scaled_spectral_radii(metric, n, diffusion=True):
    """dt * rho(J) / (2 cfl) at u0 and at the final state of the run; <= 1 is stable."""
    cfg, fm, dm, M, u0, xi = bound_case(metric, n, diffusion)
    traj = run(cfg, fm, dm, u0, record_dissipation=False)
    stencil, table = transport_stencil(M, cfg.eta), transport_table(fm, dm)
    return [traj.dt * np.max(np.abs(np.linalg.eigvals(fd_jacobian(u, table, xi, stencil))))
            / (2.0 * cfg.cfl) for u in (u0, traj.u_final)]


def scenario_run(name, **solver_keys):
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS[name].items()}
    cfg["solver"].update(solver_keys)
    return cli.build_pipeline(cfg).run()


class TestStepBound:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("metric", sorted(catalog.METRICS))
    def test_dt_times_spectral_radius_is_within_heun_stability(self, metric, n):
        assert max(scaled_spectral_radii(metric, n)) <= 1.0

    def test_a_bound_without_the_inverse_metric_is_unstable_on_wavy1d(self, monkeypatch):
        # the former parabolic bound h^2 / (2 d (eta + max|a'|)) on heat data, without
        # g^aa, which reaches 4 on wavy1d
        cfg, _, _, M, _, _ = bound_case("wavy1d", 32, diffusion=False)

        def flat(stencil, amax):
            return 4.0 * (cfg.eta + float(np.max(amax))) / M.grid.h ** 2

        assert max(scaled_spectral_radii("wavy1d", 32, diffusion=False)) <= 1.0
        monkeypatch.setattr(solver, "parabolic_rho", flat)
        assert max(scaled_spectral_radii("wavy1d", 32, diffusion=False)) > 1.0

    def test_wavy1d_heat_is_stable_at_cfl_0_4(self):
        # the former bound left dt 4x too large here: RangeViolation at step 38
        grid = ChartGrid(1, 128)
        M = build_metric(catalog.METRICS["wavy1d"]["entries"], grid)
        xi = XiGrid(64)
        u0 = 0.5 + 0.3 * np.sin(TWO_PI * grid.coords()[0])
        traj = run(SolverConfig(eta=1e-2, t_end=0.1, cfl=0.4), zero_flux(grid, xi),
                   zero_diffusion(M, xi), u0)
        assert len(traj.mass) == 328 + 1
        assert np.min(traj.u_min) >= 0.2 and np.max(traj.u_max) <= 0.8

    @pytest.mark.parametrize("name, n_steps", [("heat", 410), ("shock", 205)])
    def test_flat_scenarios_keep_their_step_count(self, name, n_steps):
        assert len(scenario_run(name).mass) == n_steps + 1

    @pytest.mark.parametrize("name", ["heat", "shock", "porous"])
    def test_flat_bound_is_the_closed_form_on_the_data_range(self, name):
        pipe = cli.build_pipeline(catalog.SCENARIOS[name])
        cfg, grid = pipe.solver_cfg, pipe.grid
        bound = stable_dt(cfg, pipe.fm, pipe.dm, transport_stencil(pipe.M, cfg.eta),
                          pipe.u0)
        assert bound.spread == 0.0  # a flux and an A constant in x are compatible on flat charts
        assert bound.interval == (max(0.0, pipe.u0.min()), min(1.0, pipe.u0.max()))
        amax = float(np.max(pipe.dm.max_abs_aprime(*bound.interval)))
        closed = grid.h ** 2 / (2.0 * grid.d * (cfg.eta + amax))
        assert bound.bounds["parabolic"] == pytest.approx(closed, rel=2.3e-16)

    def test_data_spanning_the_table_give_the_full_range_bound(self):
        grid, M, xi, _, fm, _ = heat_setup(128, 1e-2)
        dm = DiffusionModel.from_exprs([["sqrt(2*xi)"]], M, xi)
        cfg = SolverConfig(eta=1e-2, t_end=0.05)
        u0 = 0.5 + 0.5 * np.sin(TWO_PI * grid.coords()[0])
        bound = stable_dt(cfg, fm, dm, transport_stencil(M, cfg.eta), u0)
        assert bound.interval == (0.0, 1.0)
        assert bound.bounds["parabolic"] == pytest.approx(grid.h ** 2 / (2.0 * (1e-2 + 2.0)),
                                                          rel=1e-14)
        narrow = stable_dt(cfg, fm, dm, transport_stencil(M, cfg.eta), 0.5 + 0.4 * (u0 - 0.5))
        assert narrow.bounds["parabolic"] > 1.1 * bound.bounds["parabolic"]

    @pytest.mark.parametrize("metric", ["wavy1d", "curved2d"])
    def test_interval_widens_by_t_end_times_the_largest_edge_defect(self, metric):
        cfg, _, dm, M, u0, xi = bound_case(metric, 16)
        fm = FluxModel.from_exprs([f"0.2*xi^2*sin(2*pi*x{k})" for k in (1, 2)[:M.grid.d]],
                                  M.grid, xi)
        maxes, l1s = solver.compat_defect(fm, dm, transport_stencil(M, cfg.eta))
        assert maxes.shape == l1s.shape == (xi.n + 1,)
        assert maxes[0] == 0.0 and np.all(maxes[1:] > 0.0)  # f and A vanish at xi = 0 only
        bound = stable_dt(cfg, fm, dm, transport_stencil(M, cfg.eta), u0)
        assert bound.spread == cfg.t_end * np.max(maxes)
        assert bound.interval == (u0.min() - bound.spread, u0.max() + bound.spread)

    def test_the_exact_flux_derivative_leaves_the_shock_run_unchanged(self):
        # shock is parabolic-bound, so f' enters only the kinetic diagnostics, not the run
        pipe = cli.build_pipeline(catalog.SCENARIOS["shock"])
        fd = pipe.run()
        assert fd.bound.limit == "parabolic"
        exact = np.empty_like(pipe.fm.fprime)
        exact[0] = pipe.grid.eval_expr("xi", pipe.xi.edges)
        pipe.fm.fprime = exact
        assert np.array_equal(pipe.run().u_final, fd.u_final)


class TestMaxPrinciple:
    @pytest.mark.parametrize("name", sorted(catalog.SCENARIOS))
    def test_every_catalog_scenario_keeps_the_bound(self, name):
        report = max_principle(scenario_run(name))
        assert report["pass"], report
        assert 0.0 <= report["excess"] <= report["bound"]

    def test_a_constant_source_breaks_it(self, monkeypatch):
        def with_source(u, table, xi, stencil):
            return rhs(u, table, xi, stencil) + 1e-3

        monkeypatch.setattr(solver, "rhs", with_source)
        # a constant state: diffusion, which narrows the range of other data, cannot hide it
        report = max_principle(scenario_run("const"))
        assert not report["pass"]
        assert report["excess"] == pytest.approx(1e-3 * 0.05, rel=1e-6)
