import numpy as np
import pytest

from maniflow import catalog, cli
from maniflow.entropy import dissipation_densities
from maniflow.geometry import (ChartGrid, build_metric, div_vector, divdiv_tensor11,
                               integrate, laplace_beltrami, transport_stencil)
from maniflow.kinetic import (KineticError, bump_kernel, contraction, friedrichs_commutator,
                              kinetic_battery, kinetic_residual, level_count)
from maniflow.model import COMPAT_TOL_FACTOR, XiGrid
from maniflow.solver import Trajectory, compat_defect

from helpers import chi_from_u


def pipeline(name, **overrides):
    """A catalog scenario with `section_key=value` overrides, built and run."""
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS[name].items()}
    for target, value in overrides.items():
        section, key = target.split("_", 1)
        cfg.setdefault(section, {})[key] = value
    pipe = cli.build_pipeline(cfg)
    return pipe, pipe.run()


def battery_of(pipe, seed):
    return kinetic_battery(pipe.grid, pipe.xi, seed=seed, t_scale=pipe.solver_cfg.t_end)


def per_bin_residual(traj, fm, dm, M, battery):
    """The weak kinetic residual with the space operators applied per xi-bin."""
    grid, xi = M.grid, dm.xi
    times = np.asarray(traj.times)
    w_t = np.zeros(len(times))
    w_t[1:] += 0.5 * np.diff(times)
    w_t[:-1] += 0.5 * np.diff(times)
    fprime_c = 0.5 * (fm.fprime[..., 1:] + fm.fprime[..., :-1])
    aprime_c = 0.5 * (dm.aprime[..., 1:] + dm.aprime[..., :-1])
    cell = (M.sqrt_det * grid.h ** grid.d)[..., None]

    phi, theta = battery.phi, battery.theta  # the last axis runs over the battery

    def value(i, t):
        return battery.tau(t)[i] * phi[..., i, None] * theta[:, i]

    res = np.zeros(phi.shape[-1])
    chi0, chiT = chi_from_u(traj.snapshots[0], xi), chi_from_u(traj.u_final, xi)
    for i in range(len(res)):
        res[i] = (np.sum(chiT * value(i, times[-1]) * cell)
                  - np.sum(chi0 * value(i, times[0]) * cell)) * xi.dxi
    for k, (t, u) in enumerate(zip(times, traj.snapshots)):
        chi = chi_from_u(u, xi)
        transport = np.stack([div_vector(chi[..., b] * fprime_c[..., b], M)
                              for b in range(xi.n)], axis=-1)
        diffusion = np.stack([divdiv_tensor11(chi[..., b] * aprime_c[..., b], M)
                              for b in range(xi.n)], axis=-1)
        viscous = np.stack([laplace_beltrami(chi[..., b], M) for b in range(xi.n)], axis=-1)
        density = sum(dissipation_densities(u, dm, traj.eta))
        for i in range(len(res)):
            dt_psi = battery.dtau(t)[i] * phi[..., i, None] * theta[:, i]
            term = np.sum((-chi * dt_psi + (transport - diffusion - traj.eta * viscous)
                           * value(i, t)) * cell) * xi.dxi
            term += np.sum(density * battery.tau(t)[i] * phi[..., i] * battery.dtheta(u)[..., i]
                           * cell[..., 0])
            res[i] += w_t[k] * term
    return float(np.max(np.abs(res)))


class TestBumpKernel:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    def test_unit_mass_and_symmetric(self, eps):
        m, w = bump_kernel(eps, 1.0 / 64)
        assert abs(np.sum(w) - 1.0) <= 1e-14
        assert np.array_equal(m, -m[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(w >= 0.0)

    def test_rejects_below_two_cells(self):
        with pytest.raises(KineticError, match="2 cells"):
            bump_kernel(1.5 / 64, 1.0 / 64)


class TestKineticFunction:
    def test_rejects_negative_states(self):
        with pytest.raises(KineticError, match="nonnegative"):
            level_count(np.array([0.5, -1e-3]), XiGrid(16))

    def test_rejects_nan_states(self):
        # a NaN would be counted above every center
        with pytest.raises(KineticError, match="nonnegative"):
            level_count(np.array([0.5, np.nan]), XiGrid(16))

    def test_level_count_follows_the_bin_center_rule(self):
        # on the centers themselves, between them and at both ends of [0, 1]
        xi = XiGrid(16)
        u = np.concatenate([xi.centers, xi.edges])
        assert np.array_equal(level_count(u, xi), chi_from_u(u, xi).sum(axis=-1))

    @staticmethod
    def ordered_pair(metric):
        """(M, u, v) on the 32-node catalog `metric`: two smooth states that cross."""
        entry = catalog.METRICS[metric]
        grid = ChartGrid(entry["d"], 32)
        x = grid.coords()
        return (build_metric(entry["entries"], grid), 0.5 + 0.4 * np.sin(2.0 * np.pi * x[0]),
                0.5 + 0.3 * np.cos(2.0 * np.pi * x[-1]))

    def test_self_contraction_vanishes(self):
        M, u, _ = self.ordered_pair("flat1d")
        assert contraction(u, u, M) == 0.0

    @pytest.mark.parametrize("metric", ["flat1d", "curved2d"])
    def test_contraction_is_the_integral_of_the_positive_part(self, metric):
        M, u, v = self.ordered_pair(metric)
        got = contraction(u, v, M)
        assert got > 0.0
        assert got == integrate(np.maximum(u - v, 0.0), M)

    @pytest.mark.parametrize("metric", ["flat1d", "curved2d"])
    @pytest.mark.parametrize("n_xi", [16, 32, 64, 128, 256])
    def test_bin_centre_chi_sum_is_within_one_bin_of_the_contraction(self, metric, n_xi):
        # per node the bin-centre staircase of (u - v)_+ is off by at most one bin; the
        # measured gaps, 1.9e-3 ... 1.9e-4, do not fall monotonically in n_xi
        M, u, v = self.ordered_pair(metric)
        xi = XiGrid(n_xi)
        chi_sum = integrate(xi.dxi * np.sum(chi_from_u(u, xi) * (1.0 - chi_from_u(v, xi)),
                                            axis=-1), M)
        assert abs(chi_sum - contraction(u, v, M)) <= xi.dxi * M.volume()


class TestFriedrichsCommutator:
    def test_falls_under_smaller_kernels(self):
        # the table of every kinetic_report.json: a jump times a smooth coefficient;
        # measured ratios 3.85, 3.88, 3.51 (coefficient) and 3.56, 3.89, 4.14 (product rule)
        grid = ChartGrid(1, 128)
        x = grid.coords()[0]
        jump = ((x >= 0.25) & (x < 0.75)).astype(float)
        eps_list = [32 * grid.h, 16 * grid.h, 8 * grid.h, 4 * grid.h]
        table = friedrichs_commutator("1 + 0.5*sin(2*pi*x1)", jump, eps_list, grid)
        assert [row["eps"] for row in table] == eps_list
        for key in ("l1_coefficient", "l1_product_rule"):
            values = [row[key] for row in table]
            assert all(a >= 3.0 * b for a, b in zip(values, values[1:])), (key, values)


class TestKineticResidual:
    @pytest.mark.parametrize("name", ["shock", "curved_evo"])
    def test_equals_per_bin_formula(self, name):
        pipe, traj = pipeline(name, grid_n=32 if name == "shock" else 16, xi_n=16,
                              solver_t_end=0.02, solver_snapshots=4)
        battery = battery_of(pipe, seed=1)
        got = kinetic_residual(traj, pipe.fm, pipe.dm, battery)
        ref = per_bin_residual(traj, pipe.fm, pipe.dm, pipe.M, battery)
        assert ref > 0.0
        assert abs(got - ref) <= 1e-12 * ref

    def test_equals_per_bin_formula_on_bin_centers(self):
        # every state sits on a bin center or at 0 or 1, where the bin-center
        # rule (center <= u) decides each level; counting centers strictly
        # below u would move every one of them
        pipe = cli.build_pipeline(catalog.SCENARIOS["curved_evo"]
                                  | {"grid": {"d": 2, "n": 16}, "xi": {"n": 16}})
        values = np.concatenate([pipe.xi.centers, [0.0, 1.0]])
        rng = np.random.default_rng(3)
        snapshots = [rng.choice(values, size=pipe.grid.shape) for _ in range(3)]
        snapshots[0][0, :2] = 0.0, 1.0
        traj = Trajectory(times=[0.0, 0.01, 0.03], snapshots=snapshots, monitor_t=None,
                          mass=None, u_min=None, u_max=None, energy=None, ledger=None,
                          dt=0.01, eta=pipe.solver_cfg.eta)
        battery = battery_of(pipe, seed=1)
        got = kinetic_residual(traj, pipe.fm, pipe.dm, battery)
        ref = per_bin_residual(traj, pipe.fm, pipe.dm, pipe.M, battery)
        assert ref > 0.0
        assert abs(got - ref) <= 1e-12 * ref

    def test_falls_under_refinement(self):
        # measured ratios at seeds 0, 1, 2: 3.98, 3.14, 3.79
        runs = [pipeline("curved_evo", grid_n=n, xi_n=n, solver_snapshots=40) for n in (16, 32)]
        for seed in range(3):
            coarse, fine = (kinetic_residual(traj, p.fm, p.dm, battery_of(p, seed))
                            for p, traj in runs)
            assert coarse / fine >= 2.0, (seed, coarse, fine)

    def test_heat_residual_is_small(self):
        # pure viscous diffusion, so the residual rests on the -eta Lap_g Theta term;
        # measured 3.2e-4 and 3.0e-4 at seeds 0, 1, and 7.4e-3 and 1.7e-2 without the term
        pipe, traj = pipeline("heat", solver_snapshots=40)
        for seed in (0, 1):
            res = kinetic_residual(traj, pipe.fm, pipe.dm, battery_of(pipe, seed))
            assert res <= 1e-3, (seed, res)


class TestCompatibilityControl:
    """Negative control: the kinetic residual notices a flux that breaks div f = divdiv A.

    `wavy1d` heat with sigma = 0, eta = 1e-2, u0 = 0.5 + 0.3 sin 2 pi x1, t_end =
    0.1 and 40 snapshots, at cfl = 0.1 (1,310 steps at n = 128).  The compatible
    flux is f = 0; the incompatible one f = 0.2 xi sin 2 pi x1.  Measured kinetic
    residuals at seeds 0, 1, 2:
        compatible,   n = 128: 1.29e-4, 1.78e-4, 1.58e-4
        incompatible, n = 64:  4.89e-3, 6.60e-3, 1.08e-2
        incompatible, n = 128: 4.57e-3, 6.46e-3, 1.03e-2
    At cfl = 0.4 (328 steps) each reads within 1 % of these.
    """

    FLUX = {"compatible": "0", "incompatible": "0.2*xi*sin(2*pi*x1)"}

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for case, flux in self.FLUX.items():
            for n in (64, 128):
                pipe = cli.build_pipeline({
                    "grid": {"d": 1, "n": n}, "metric": {"name": "wavy1d"},
                    "scenario": {"flux1": flux, "u0": "0.5 + 0.3*sin(2*pi*x1)"},
                    "solver": {"eta": 1e-2, "t_end": 0.1, "cfl": 0.1, "snapshots": 40}})
                out[case, n] = pipe, pipe.run()
        return out

    def residuals(self, runs, case, n):
        pipe, traj = runs[case, n]
        return np.array([kinetic_residual(traj, pipe.fm, pipe.dm,
                                          battery_of(pipe, seed)) for seed in range(3)])

    def test_incompatible_residual_is_ten_times_the_compatible_one(self, runs):
        ratio = self.residuals(runs, "incompatible", 128) / self.residuals(runs, "compatible", 128)
        assert np.all(ratio >= 10.0), ratio

    def test_incompatible_residual_does_not_fall_under_refinement(self, runs):
        ratio = self.residuals(runs, "incompatible", 64) / self.residuals(runs, "incompatible", 128)
        assert np.all(ratio < 1.5), ratio

    def test_audit_separates_the_fluxes(self, runs):
        for n in (64, 128):
            for case in self.FLUX:
                pipe, _ = runs[case, n]
                stencil = transport_stencil(pipe.M, pipe.solver_cfg.eta)
                worst = np.max(compat_defect(pipe.fm, pipe.dm, stencil)[0])
                if case == "compatible":
                    assert worst == 0.0
                else:
                    assert worst > COMPAT_TOL_FACTOR * pipe.grid.h ** 2, (n, worst)
