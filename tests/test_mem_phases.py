"""tools/mem_phases.py reports each phase of a run: live MB before, traced peak above it, RSS after."""

import importlib.util
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from maniflow import cli
from maniflow.geometry import transport_stencil

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mem_phases.py"
# the catalog's curved_evo with more xi-bins and snapshots; SMALL makes it a 16^2 curved_evo
CONFIG = ROOT / "perfbench" / "workloads" / "curved_evo_diag.ini"
SMALL = ["grid.n=16", "xi.n=16", "solver.t_end=1e-3", "solver.snapshots=2"]
PHASES = ["build_pipeline", "transport_stencil", "stable_dt", "transport_table", "run",
          "energy_balance",
          "entropy_residual", "chain_rule_residual", "nu_bound_check", "psd_audit",
          "kinetic_residual", "friedrichs_commutator"]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("mem_phases", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_phase_is_measured_and_nested_peaks_reach_the_run(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    rc, rows = tool.measure(CONFIG, SMALL)
    assert rc == 0
    # one row per call, in the order the calls end: two entropies, the two default psi
    assert [r[0] for r in rows] == [
        "build_pipeline", "transport_stencil", "stable_dt", "transport_table", "run",
        "energy_balance",
        "entropy_residual", "entropy_residual", "chain_rule_residual", "chain_rule_residual",
        "nu_bound_check", "psd_audit", "kinetic_residual", "friedrichs_commutator"]
    assert all(live >= 0.0 and peak >= 0.0 and rss > 0.0 for _, live, peak, rss in rows)
    by_phase = {r[0]: r for r in rows}
    _, run_live, run_peak, _ = by_phase["run"]
    for inner in ("transport_stencil", "stable_dt", "transport_table"):
        _, live, peak, _ = by_phase[inner]
        assert run_live + run_peak >= live + peak
    # the run's outputs went to a temporary directory, which is gone
    assert list(tmp_path.iterdir()) == []


def test_main_prints_one_row_per_call(tool, capsys):
    assert tool.main([str(CONFIG)] + [a for o in SMALL for a in ("--override", o)]) == 0
    out = capsys.readouterr().out
    assert all(f"\n{phase} " in out for phase in PHASES)
    assert out.rstrip().endswith("run exit code 0")


def test_the_step_bound_makes_no_table_sized_temporary(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    config = ROOT / "perfbench" / "workloads" / "curved_const.ini"
    rc, rows = tool.measure(config, ["solver.t_end=1e-3"])
    assert rc == 0
    (peak,) = [peak for phase, _, peak, _ in rows if phase == "stable_dt"]
    # what the bound holds at once: |a'| at one edge beside its running maximum, or
    # one application of the stencil to its state, at one edge of the compatibility pass
    pipe = cli.build_pipeline(cli.load_config(str(config)))
    stencil = transport_stencil(pipe.M, pipe.solver_cfg.eta)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        stencil.apply(stencil.state)
        apply_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    one_edge = pipe.dm.aprime[..., 0].nbytes  # a (d, d) + grid array
    assert peak * tool.MB < one_edge + apply_peak
    # a table of one number per node and xi-edge would not fit under that bound
    assert one_edge + apply_peak < pipe.dm.aprime[0, 0].nbytes
