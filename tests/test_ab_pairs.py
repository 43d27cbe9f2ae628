"""tools/ab_pairs.py applies the claim rule to paired runs (9 in 10 wins and a gap beyond the
IQR) and the benchmark's output gate to each full child."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from maniflow import fieldio
from maniflow.geometry import ChartGrid

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartiles 1.225, 1.45, 1.675


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_and_a_claim_that_holds(tool):
    s = tool.summarize(PARENT, [p - 0.5 for p in PARENT])
    assert s["parent"] == pytest.approx((1.225, 1.45, 1.675))
    assert s["change"] == pytest.approx((0.725, 0.95, 1.175))
    assert (s["wins"], s["pairs"], s["claim"]) == (10, 10, True)


def test_a_gap_inside_the_parents_iqr_is_no_claim(tool):
    # every pair won, but the medians differ by 0.4 < the parent's IQR of 0.45
    s = tool.summarize(PARENT, [p - 0.4 for p in PARENT])
    assert (s["wins"], s["claim"]) == (10, False)


def test_eight_wins_in_ten_is_no_claim_and_ties_count_for_neither(tool):
    change = [p - 1.0 for p in PARENT[:8]] + PARENT[8:]
    s = tool.summarize(PARENT, change)
    assert (s["wins"], s["claim"]) == (8, False)
    assert tool.summarize(PARENT, [p - 1.0 for p in PARENT[:9]] + [2.0])["claim"] is True


def test_unpaired_samples_are_rejected(tool):
    with pytest.raises(ValueError):
        tool.summarize(PARENT, PARENT[:-1])


def test_children_run_with_perfbench_environment(tool):
    env = tool.child_env()
    assert env["PYTHONHASHSEED"] == "0" and env["OMP_NUM_THREADS"] == "1"


def hand_made_output(out_dir, top):
    """A `maniflow run` output directory on 16 nodes: u_final holds `top` at one node."""
    u = np.linspace(0.0, 1.0, 16)
    u[7] = top
    out_dir.mkdir()
    (out_dir / "report.json").write_text(json.dumps(
        {"energy_balance": {"relative_residual": 2e-4}, "kinetic_residual": 1e-3}))
    fieldio.write_raw(u, ChartGrid(1, 16), str(out_dir / "u_final.f64"))
    (out_dir / "monitors.csv").write_text(
        "t,mass,min,max,energy\n0,0.5,0,1,0.2\n0.1,0.5000001,0,1,0.2\n")
    return out_dir


def test_gate_rejects_a_final_state_outside_the_unit_interval(tool, tmp_path):
    out = hand_made_output(tmp_path / "out", 1.5)
    with pytest.raises(RuntimeError, match=r"u_final outside \[0, 1\]"):
        tool.gate(0, out)


def test_gate_passes_a_valid_output_with_its_accuracy_metrics(tool, tmp_path):
    out = hand_made_output(tmp_path / "out", 0.5)
    got = tool.gate(0, out)
    assert set(got) == {"mass_drift", "energy_balance_rel"}
    assert got["mass_drift"] == pytest.approx(2e-7, rel=1e-6)
    assert got["energy_balance_rel"] == 2e-4
    with pytest.raises(RuntimeError, match="exit code 1"):
        tool.gate(1, out)
