"""Tests of the benchmark itself: the correctness gate, the tracing wrappers,
the committed workload inputs and the metric names in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from maniflow import cli, fieldio  # noqa: E402
from maniflow.geometry import ChartGrid  # noqa: E402


def _fake_output(out_dir, u=None, report=True):
    """A run directory laid out as `maniflow run --out` leaves it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = ChartGrid(1, 16)
    if u is None:
        u = np.full(grid.shape, 0.5)
    fieldio.write_raw(u, grid, str(out_dir / "u_final.f64"))
    (out_dir / "monitors.csv").write_text(
        "t,mass,min,max,energy\n0,0.5,0.5,0.5,0.125\n0.01,0.5,0.5,0.5,0.125\n")
    if report:
        (out_dir / "report.json").write_text(json.dumps({
            "energy_balance": {"relative_residual": 1e-5},
            "kinetic_residual": 2e-3, "violations": []}))
    return out_dir


class TestGate:
    def test_good_run_passes(self, tmp_path):
        facts, reason = run.check_output(0, _fake_output(tmp_path / "ok"))
        assert reason is None
        assert facts["steps"] == 1
        assert facts["dt"] == pytest.approx(0.01)
        assert facts["mass_drift"] == run.MASS_DRIFT_FLOOR

    @pytest.mark.parametrize("code", [1, 2, -9])
    def test_nonzero_exit_fails(self, tmp_path, code):
        facts, reason = run.check_output(code, _fake_output(tmp_path / "out"))
        assert facts is None and "exit code" in reason

    def test_missing_report_fails(self, tmp_path):
        facts, reason = run.check_output(0, _fake_output(tmp_path / "out", report=False))
        assert facts is None and "report.json" in reason

    def test_unparseable_report_fails(self, tmp_path):
        out = _fake_output(tmp_path / "out")
        (out / "report.json").write_text("{not json")
        facts, reason = run.check_output(0, out)
        assert facts is None and "report.json" in reason

    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
    def test_u_final_out_of_range_fails(self, tmp_path, bad):
        u = np.full(16, 0.5)
        u[3] = bad
        facts, reason = run.check_output(0, _fake_output(tmp_path / "out", u=u))
        assert facts is None and "u_final" in reason

    def test_missing_u_final_fails(self, tmp_path):
        out = _fake_output(tmp_path / "out")
        (out / "u_final.f64").unlink()
        facts, reason = run.check_output(0, out)
        assert facts is None and "u_final" in reason


class TestTracer:
    def _all_targets(self):
        mods = child._modules()
        return tracer.setup_targets(mods) + tracer.layer_targets(mods)

    def test_restore_puts_back_every_attribute(self):
        targets = self._all_targets()
        before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        with tracer.Patches(tracer.Recorder(), targets):
            for owner, attr, original in before:
                assert vars(owner)[attr] is not original
        for owner, attr, original in before:
            assert vars(owner)[attr] is original

    def test_restore_after_exception(self):
        targets = self._all_targets()
        before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        rec = tracer.Recorder()
        with pytest.raises(cli.ConfigError):
            with tracer.Patches(rec, targets):
                cli.load_config("no/such/file.ini")
        assert [row[0] for row in rec.spans] == ["cli.load_config"]
        for owner, attr, original in before:
            assert vars(owner)[attr] is original

    def test_wrapped_classmethod_still_binds_class(self):
        from maniflow import model

        rec = tracer.Recorder()
        grid, xi = ChartGrid(1, 16), model.XiGrid(16)
        with tracer.Patches(rec, tracer.layer_targets(child._modules())):
            fm = model.FluxModel.from_exprs(["xi"], grid, xi)
        assert isinstance(fm, model.FluxModel)
        assert [row[0] for row in rec.spans][0] == "model.tabulate"

    def test_summarize_stages_and_self_time(self):
        spans = [
            ["cli.build_pipeline", 0.0, 1.0, -1],
            ["geometry.div_tensor11", 0.2, 0.5, 0],
            ["solver.run", 1.0, 5.0, -1],
            ["solver.rhs", 1.0, 2.0, 2],
            ["geometry.divdiv_tensor11", 1.2, 1.7, 3],
            ["kinetic.kinetic_residual", 5.0, 9.0, -1],
            ["geometry.divdiv_tensor11", 6.0, 8.0, 5],
        ]
        stats = tracer.summarize(spans)
        dd = stats["geometry.divdiv_tensor11"]
        assert dd["calls"] == 2
        assert dd["step_s"] == pytest.approx(0.5)
        assert dd["diag_s"] == pytest.approx(2.0)
        assert stats["geometry.div_tensor11"]["setup_s"] == pytest.approx(0.3)
        assert stats["solver.run"]["self_s"] == pytest.approx(3.0)
        assert stats["kinetic.kinetic_residual"]["self_s"] == pytest.approx(2.0)

    def test_nested_same_name_counted_once(self):
        spans = [["model.xi_interp", 0.0, 2.0, -1], ["model.xi_interp", 0.5, 1.0, 0]]
        stats = tracer.summarize(spans)["model.xi_interp"]
        assert stats["calls"] == 2
        assert stats["busy_s"] == pytest.approx(2.0)
        assert stats["self_s"] == pytest.approx(1.5)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_ini_loads_and_builds(workload):
    ini = BENCH / "workloads" / f"{workload}.ini"
    cfg = cli.load_config(str(ini), overrides=["diagnostics.battery_seed=7"])
    pipe = cli.build_pipeline(cfg)
    assert pipe.battery_seed == 7
    ref, _ = fieldio.read_raw(str(BENCH / "reference" / f"{workload}.u_final.f64"))
    assert ref.shape == pipe.grid.shape


def test_benchmark_json_names_match_run():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
