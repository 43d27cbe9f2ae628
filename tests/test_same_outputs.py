"""tools/same_outputs.py names each numeric key that differs, with its largest relative difference."""

import importlib.util
import struct
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_keys_that_differ_and_their_largest_relative_difference(tool):
    parent = b'{"kinetic_residual": 2.0, "rows": [{"l1": 1.0}, {"l1": 4.0}], "name": "a"}'
    change = b'{"kinetic_residual": 2.0, "rows": [{"l1": 1.5}, {"l1": 3.0}], "name": "b"}'
    assert tool.relative_differences(parent, change) == [
        ("rows[]/l1", "largest relative difference 0.333")]


def test_text_numbers_are_keyed_by_the_words_before_them(tool):
    parent = b"xi= 0.500  max=1.0e-03  l1=2e-04  pass\n|u(0.02) - u(0.01)|_L1 = 4e-03\n"
    change = b"xi= 0.500  max=1.1e-03  l1=2e-04  pass\n|u(0.02) - u(0.01)|_L1 = 4e-03\n"
    assert tool.relative_differences(parent, change) == [
        ("max=", "largest relative difference 0.0909")]


def test_nan_and_count_changes_are_named(tool):
    assert tool.relative_differences(b'{"a": [1, NaN]}', b'{"a": [1, 1]}') == [
        ("a[]", "largest relative difference inf")]
    assert tool.relative_differences(b'{"a": [1]}', b'{"a": [1, 2]}') == [
        ("a[]", "1 numbers under parent, 2 under change, relative difference of the last 0.5")]
    assert tool.relative_differences(b'{"a": []}', b'{"a": [1]}') == [
        ("a[]", "0 numbers under parent, 1 under change")]


def test_a_count_change_quantifies_the_last_number(tool):
    # a run of another step count: the final monitor row is the one to compare
    monitors = (b"t,mass\n0,1\n0.5,2\n1,4\n", b"t,mass\n0,1\n0.25,1.5\n0.5,2\n0.75,3\n1,5\n")
    assert tool.relative_differences(*monitors, "monitors.csv") == [
        ("mass", "3 numbers under parent, 5 under change, relative difference of the last 0.2"),
        ("t", "3 numbers under parent, 5 under change, relative difference of the last 0")]
    # an audit table of another row count: its last row is the xi = 1 row on both sides
    audit = (b'{"rows": [{"xi": 0.0, "max": 1e-16}, {"xi": 1.0, "max": 8e-4}]}',
             b'{"rows": [{"xi": 0.0, "max": 1e-16}, {"xi": 0.5, "max": 3e-4},'
             b' {"xi": 1.0, "max": 1e-3}]}')
    counts = "2 numbers under parent, 3 under change, relative difference of the last"
    assert tool.relative_differences(*audit, "report.json") == [
        ("rows[]/max", f"{counts} 0.2"), ("rows[]/xi", f"{counts} 0")]


def test_differences_keep_the_bytes_of_json_files_and_stdout(tool):
    streams = {"stdout": b"1", "stderr": b"", "exit code": 0}
    parent = (streams, {"report.json": b"{}", "u.bin": b"1"})
    change = (dict(streams, stdout=b"2"), {"report.json": b"[]", "u.bin": b"2"})
    assert tool.differences(parent, change) == [
        ("stdout", b"1", b"2"), ("report.json", b"{}", b"[]"), ("u.bin", None, None)]


def test_csv_columns_and_raw_dumps_are_quantified(tool):
    streams = {"stdout": b"", "stderr": b"", "exit code": 0}
    csv = (b"t,mass,min\n0,1,0.25\n0.5,2,0.25\n", b"t,mass,min\n0,1,0.25\n0.5,2.5,0.25\n")
    raw = (struct.pack("<3d", 1.0, -2.0, 4.0), struct.pack("<3d", 1.0, -2.0, 5.0))
    diff = tool.differences((streams, {"monitors.csv": csv[0], "u.f64": raw[0]}),
                            (streams, {"monitors.csv": csv[1], "u.f64": raw[1]}))
    assert diff == [("monitors.csv",) + csv, ("u.f64",) + raw]
    assert tool.relative_differences(*csv, "monitors.csv") == [
        ("mass", "largest relative difference 0.2")]
    assert tool.relative_differences(*raw, "u.f64") == [
        ("values", "largest relative difference 0.2")]
    assert tool.relative_differences(raw[0], raw[0] + raw[0], "u.f64") == [
        ("values", "3 numbers under parent, 6 under change, relative difference of the last 0")]


def test_a_run_that_fails_in_the_step_loop_is_a_case(tool, tmp_path):
    cases = dict(tool.cases(tool.ROOT / "src", tmp_path))
    assert cases["run_shock_fails"] == ["run", str(tmp_path / "shock.ini"),
                                        "--override", "solver.cfl=1",
                                        "--override", "solver.eta=1e-4"]


def test_a_config_error_in_a_multi_key_step_is_a_case(tool, tmp_path):
    cases = dict(tool.cases(tool.ROOT / "src", tmp_path))
    argv = cases["run_bad_expression"]
    assert argv == ["run", str(tmp_path / "curved_evo.ini"),
                    "--override", 'scenario.sigma21="sqrt(xi - 2)"']
    streams, files = tool.run_case(tool.ROOT / "src", argv, tmp_path / "out")
    assert streams == {"stdout": b"", "exit code": 2, "stderr":
                       b"config error: [scenario] sigma21: sqrt of negative value (at offset 0)\n"}
    assert files == {}


def test_uniqueness_on_a_curved_chart_is_a_case(tool, tmp_path):
    cases = dict(tool.cases(tool.ROOT / "src", tmp_path))
    argv = cases["uniqueness_curved_evo"]
    assert argv == ["uniqueness", str(tmp_path / "curved_evo.ini"),
                    "--override", "solver.t_end=0.01"]
    streams, files = tool.run_case(tool.ROOT / "src", argv, tmp_path / "out")
    assert streams["exit code"] == 0 and list(files) == ["kinetic_report.json"]
    rows = [line.split() for line in streams["stdout"].decode().splitlines()]
    assert len(rows) == 11
    # one contraction column: the reverse one is the forward one minus the mass
    # difference, which both runs conserve
    assert all(len(row) == 8 and row[5:7] == ["contraction", "forward"] for row in rows)
    # both runs start from the same state, so only the rows after t = 0 tell them apart
    assert rows[0][7] == "0.000000e+00"
    assert all(float(row[7]) > 0.0 for row in rows[1:])
