"""tools/mem_phases.py reports each phase of a run: live MB before, traced peak above it, RSS after."""

import importlib.util
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mem_phases.py"
# the catalog's curved_evo with more xi-bins and snapshots; SMALL makes it a 16^2 curved_evo
CONFIG = ROOT / "perfbench" / "workloads" / "curved_evo_diag.ini"
SMALL = ["grid.n=16", "xi.n=16", "solver.t_end=1e-3", "solver.snapshots=2"]
PHASES = ["build_pipeline", "transport_stencil", "transport_table", "run", "energy_balance",
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
        "build_pipeline", "transport_stencil", "transport_table", "run", "energy_balance",
        "entropy_residual", "entropy_residual", "chain_rule_residual", "chain_rule_residual",
        "nu_bound_check", "psd_audit", "kinetic_residual", "friedrichs_commutator"]
    assert all(live >= 0.0 and peak >= 0.0 and rss > 0.0 for _, live, peak, rss in rows)
    by_phase = {r[0]: r for r in rows}
    _, run_live, run_peak, _ = by_phase["run"]
    for inner in ("transport_stencil", "transport_table"):
        _, live, peak, _ = by_phase[inner]
        assert run_live + run_peak >= live + peak
    # the run's outputs went to a temporary directory, which is gone
    assert list(tmp_path.iterdir()) == []


def test_main_prints_one_row_per_call(tool, capsys):
    assert tool.main([str(CONFIG)] + [a for o in SMALL for a in ("--override", o)]) == 0
    out = capsys.readouterr().out
    assert all(f"\n{phase} " in out for phase in PHASES)
    assert out.rstrip().endswith("run exit code 0")
