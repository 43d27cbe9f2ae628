import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maniflow import catalog, cli
from maniflow.geometry import transport_stencil
from maniflow.solver import stable_dt

# a tiny 1D run: n = 16, n_xi = 16, about 30 Heun steps
BASE = {
    "grid": {"d": "1", "n": "16"},
    "xi": {"n": "16"},
    "metric": {"name": "flat1d"},
    "scenario": {"sigma11": '"sqrt(2*xi)"', "u0": '"0.5 + 0.25*sin(2*pi*x1)"'},
    "solver": {"eta": "1e-2", "t_end": "0.01"},
}

OUTPUTS = {"report.json", "kinetic_report.json", "u_final.f64", "u_final.f64.json",
           "u_final.csv", "monitors.csv", "ledger.csv"}


# BASE on a flat 2D chart given entry by entry
PLANE = [("grid.d", "2"), ("metric.name", None),
         ("metric.g11", '"1"'), ("metric.g12", '"0"'), ("metric.g22", '"1"')]


def write_config(tmp_path, changes=()):
    """BASE as INI text, with (section.key, raw value) pairs set or added; a value None drops the key."""
    sections = {s: dict(kv) for s, kv in BASE.items()}
    for target, value in changes:
        section, key = target.split(".")
        if value is None:
            del sections[section][key]
        else:
            sections.setdefault(section, {})[key] = value
    path = tmp_path / "case.ini"
    path.write_text("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                            for s, kv in sections.items()))
    return path


def run_cli(capsys, path, *extra):
    rc = cli.main(["run", str(path), *extra])
    return rc, capsys.readouterr().err


def read_monitors(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_valid_run_writes_every_output(tmp_path, capsys):
    out = tmp_path / "out"
    rc, err = run_cli(capsys, write_config(tmp_path), "--out", str(out))
    assert rc == 0, err
    assert {p.name for p in out.iterdir()} == OUTPUTS


def test_report_says_how_dt_was_chosen_and_gates_the_max_principle(tmp_path, capsys):
    out = tmp_path / "out"
    rc, err = run_cli(capsys, write_config(tmp_path), "--out", str(out))
    assert rc == 0, err
    report = json.loads((out / "report.json").read_text())
    t = read_monitors(out / "monitors.csv")[:, 0]
    block = report["run"]
    assert block["n_steps"] == len(t) - 1
    assert block["dt"] == pytest.approx(t[1], rel=1e-12)
    assert block["dt_bound"] == "parabolic"
    # flat 1D: rho = 4 (eta + max|a'|) / h^2 with a' = 2 xi on the cells of [0.25, 0.75]
    assert block["rho"] == pytest.approx(4.0 * (1e-2 + 2.0 * 13 / 16) * 16 ** 2, rel=1e-12)
    assert block["interval"] == pytest.approx([0.25, 0.75], rel=1e-12)
    principle = report["max_principle"]
    assert principle["pass"] and "max_principle" not in report["violations"]
    assert principle["lo"] == pytest.approx(0.25) and principle["hi"] == pytest.approx(0.75)
    assert principle["excess"] == 0.0 and principle["bound"] == 1e-12


def test_a_state_beyond_the_max_principle_exits_1(tmp_path, capsys, monkeypatch):
    from maniflow import solver

    def with_source(u, table, xi, stencil):
        return rhs(u, table, xi, stencil) + 1e-3

    rhs = solver.rhs
    monkeypatch.setattr(solver, "rhs", with_source)
    out = tmp_path / "out"
    rc, _ = run_cli(capsys, write_config(tmp_path, [("scenario.u0", '"0.5"')]),
                    "--out", str(out))
    assert rc == 1
    assert {p.name for p in out.iterdir()} == OUTPUTS
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == ["max_principle"]
    assert report["max_principle"]["excess"] == pytest.approx(1e-3 * 0.01, rel=1e-6)


def test_override_reaches_the_run(tmp_path, capsys):
    out = tmp_path / "out"
    rc, err = run_cli(capsys, write_config(tmp_path), "--out", str(out),
                      "--override", "solver.t_end=0.02")
    assert rc == 0, err
    assert read_monitors(out / "monitors.csv")[-1, 0] == pytest.approx(0.02, rel=1e-12)


@pytest.mark.parametrize("item", ["solver .t_end=0.02", "solver.t_end =0.02",
                                  " solver . t_end = 0.02"])
def test_override_strips_section_and_key_as_a_file_does(tmp_path, capsys, item):
    # a file's "[ solver ]" and " t_end =" name the same key
    out = tmp_path / "out"
    rc, err = run_cli(capsys, write_config(tmp_path), "--out", str(out), "--override", item)
    assert rc == 0, err
    assert read_monitors(out / "monitors.csv")[-1, 0] == pytest.approx(0.02, rel=1e-12)


def test_range_violation_exits_1(tmp_path, capsys):
    # steep convection at cfl = 1 and almost no viscosity
    path = write_config(tmp_path, [("scenario.sigma11", '"0"'), ("scenario.flux1", '"20*xi^2"'),
                                   ("solver.cfl", "1"), ("solver.eta", "1e-4"),
                                   ("solver.t_end", "0.5")])
    rc, err = run_cli(capsys, path)
    assert rc == 1
    assert err.startswith("runtime failure:") and "outside" in err



def test_kinetic_error_is_a_runtime_failure(tmp_path, capsys):
    # pure convection of a flat-topped bump: the state dips just below 0,
    # inside the solver's range but not the kinetic function's
    path = write_config(tmp_path, [("grid.n", "128"), ("scenario.sigma11", '"0"'),
                                   ("scenario.flux1", '"xi"'),
                                   ("scenario.u0", '"0.5*max(0, sin(2*pi*x1))^8"'),
                                   ("solver.eta", "5e-4"), ("solver.t_end", "0.05")])
    out = tmp_path / "out"
    rc, err = run_cli(capsys, path, "--out", str(out))
    assert rc == 1
    assert "Traceback" not in err
    for name in ("monitors.csv", "ledger.csv", "u_final.csv", "u_final.f64"):
        assert (out / name).is_file(), name
    # the report keeps every other diagnostic and names the failed kinetic check
    report = json.loads((out / "report.json").read_text())
    assert "residual" in report["energy_balance"]
    assert "kinetic" in report["violations"]
    assert report["kinetic_residual"] is None
    assert "nonnegative" in report["kinetic_error"]

def test_unwritable_output_is_one_runtime_failure_line(tmp_path, capsys):
    # a directory in the way, not permission bits, which do not stop root
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    rc, err = run_cli(capsys, write_config(tmp_path), "--out", str(out))
    assert rc == 1
    assert err.startswith("runtime failure: ") and str(out / "report.json") in err
    assert err.count("\n") == 1 and "Traceback" not in err
    for name in ("monitors.csv", "ledger.csv", "u_final.csv", "u_final.f64"):
        assert (out / name).is_file(), name


BAD = {
    "malformed_u0": ([("scenario.u0", '"sin(2*pi*x1"')], []),
    "misspelled_key": ([("scenario.sigma_11", '"1"')], []),
    "unknown_section": ([("solvr.eta", "1e-2")], []),
    "unknown_override": ([], ["--override", "solver.etaa=3"]),
    "negative_t_end": ([("solver.t_end", "-1")], []),
    "non_integer": ([("solver.snapshots", "abc")], []),
    "removed_key": ([("diagnostics.eps", "0.1")], []),
    "removed_scheme": ([("solver.scheme", "heun")], []),
    "removed_audit": ([("audit.tol_factor", "10")], []),
    "removed_battery_count": ([("diagnostics.battery_count", "5")], []),
    "removed_psi": ([("diagnostics.psi", '"1, xi"')], []),
    "flux_with_compatible": ([("scenario.flux1", '"xi"'), ("scenario.compatible", "true")], []),
    "stream_without_compatible": ([("scenario.stream", '"sin(2*pi*x1)"')], []),
    "g_with_name": ([("metric.g11", '"2"')], []),
    "second_axis_in_1d": ([("scenario.sigma12", '"0"')], []),
    "u0_out_of_range": ([("scenario.u0", '"1.5"')], []),
    "u0_not_finite": ([("scenario.u0", '"1e308*10 - 1e308*10"')], []),
    "eval_error": ([("scenario.sigma11", '"sqrt(xi - 0.5)"')], []),
    "small_n": ([("grid.n", "8")], []),
    "zero_snapshots": ([], ["--override", "solver.snapshots=0"]),
    "negative_snapshots": ([], ["--override", "solver.snapshots=-3"]),
    "empty_eta_list": ([("study.eta_list", '""')], []),
    "nan_t_end": ([("solver.t_end", "nan")], []),
    "inf_t_end": ([("solver.t_end", "inf")], []),
    "inf_eta": ([("solver.eta", "inf")], []),
    "nan_eta": ([], ["--override", "solver.eta=nan"]),
    "integer_beyond_float_range": ([("solver.t_end", "1" + "0" * 400)], []),
    "nan_in_list": ([("study.eta_list", '"0.01, nan"')], []),
    "one_entry_cfl_list": ([("uniqueness.cfl_list", "0.4")], []),
    "one_entry_eta_list": ([("study.eta_list", "0.01")], []),
    # cos(pi b / 2) at edge b of 64: centred differences of 2 * 1.7e308
    "flux_centred_difference_overflow": ([("xi.n", "64"),
                                          ("scenario.flux1", '"1.7e308*cos(32*pi*xi)"')], []),
    "flux_difference_overflow": ([("scenario.flux1", '"1.5e308*(2*xi - 1)"')], []),
    "u0_of_2000_terms": ([("scenario.u0", '"' + "+".join(["0.0001"] * 2000) + '"')], []),
    "sigma_product_overflow": ([("scenario.sigma11", '"1e200"')], []),
    "metric_determinant_overflow": (PLANE + [("metric.g11", '"1e300"'), ("metric.g22", '"1e300"')],
                                    []),
    "float_power_overflow": ([("scenario.u0", '"0.5 + 0*10^400"')], []),
    "zero_to_negative_power": ([("scenario.u0", '"0.5 + 0*0^(-1)"')], []),
    "sampled_overflow_warning": ([("scenario.sigma11", '"exp(1000)*0"')], []),
}


@pytest.mark.parametrize("changes, extra", list(BAD.values()), ids=list(BAD))
def test_bad_input_exits_2(tmp_path, capsys, changes, extra):
    rc, err = run_cli(capsys, write_config(tmp_path, changes), *extra)
    assert rc == 2
    assert err.startswith("config error: [") and err.count("\n") == 1
    assert "Traceback" not in err


# BASE's text: [grid] on line 1, its n on line 3, [xi] n on line 5, [solver] on line 11, 13 lines
@pytest.mark.parametrize("at, lines, message", [
    (3, ["n = 64"], "[grid] n: key repeated on line 4, first on line 3"),
    (13, ["[solver]", "cfl = 0.2"], "[solver] section repeated on line 14, first on line 11"),
], ids=["key", "section"])
def test_repeated_key_or_section_exits_2(tmp_path, capsys, at, lines, message):
    # `write_config` builds dicts, which cannot repeat a key, so the lines go in as text
    path = write_config(tmp_path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:at] + lines + text[at:]) + "\n")
    rc, err = run_cli(capsys, path)
    assert rc == 2
    assert err == f"config error: {message}\n"


# BASE's text: [grid] on line 1, its n on line 3, [xi] on line 4
@pytest.mark.parametrize("changes, line, extra, message", [
    ([("metric.name", "curved2d")], None, [], "[metric] name: no 1d catalog metric 'curved2d'"),
    (PLANE + [("metric.g12", None)], None, [], "[metric] missing key g12"),
    ([], (4, "[xi"), [], "line 4: malformed section header '[xi'"),
    ([], (3, "n 16"), [], "line 3: expected key = value, got 'n 16'"),
    ([], (1, "n = 16"), [], "line 1: key outside any [section]"),
    ([], None, ["--override", "solver_eta=1"],
     "override must look like section.key=value, got 'solver_eta=1'"),
    ([("study.eta_list", "0.01")], None, [], "[study] eta_list needs at least two entries"),
    # f' is the flux table's xi-difference, never a key of its own
    ([("scenario.flux_prime1", '"xi"')], None, [], "[scenario] unknown key 'flux_prime1'"),
], ids=["catalog_metric_of_other_d", "metric_without_g12", "malformed_header",
        "line_without_equals", "key_before_any_section", "override_without_section",
        "one_entry_eta_list", "removed_flux_prime"])
def test_config_error_is_one_exact_line(tmp_path, capsys, changes, line, extra, message):
    path = write_config(tmp_path, changes)
    if line is not None:
        at, replacement = line
        text = path.read_text().splitlines()
        text[at - 1] = replacement
        path.write_text("\n".join(text) + "\n")
    rc, err = run_cli(capsys, path, *extra)
    assert rc == 2
    assert err == f"config error: {message}\n"


def test_expression_error_names_its_key(tmp_path, capsys):
    path = write_config(tmp_path, [("scenario.sigma11", '"sqrt(xi - 0.5)"')])
    rc, err = run_cli(capsys, path)
    assert rc == 2
    assert err.startswith("config error: [scenario] sigma11: sqrt of negative value")


@pytest.mark.parametrize("changes, message", [
    ([("scenario.sigma11", '"1e200"')],
     "[scenario] sigma11: A table contains non-finite entries"),
    (PLANE + [("metric.g11", '"1e300"'), ("metric.g22", '"1e300"')],
     "[metric] metric not SPD at node (0, 0): min eigenvalue nan"),
], ids=["sigma", "metric"])
def test_overflowing_product_names_its_reason(tmp_path, capsys, changes, message):
    # a' = sigma^2 = 1e400 and det g = 1e600 overflow, although every entry is finite
    rc, err = run_cli(capsys, write_config(tmp_path, changes))
    assert rc == 2
    assert err.startswith(f"config error: {message}")


def test_overflowing_flux_difference_is_one_config_error_line(tmp_path, capsys):
    # every entry is finite; f' = (f(b + 1) - f(b - 1)) / (2 dxi) is not
    rc, err = run_cli(capsys, write_config(tmp_path, BAD["flux_centred_difference_overflow"][0]))
    assert rc == 2
    assert err == ("config error: [scenario] flux1: flux derivative table contains non-finite "
                   "entries\n")


def test_overflowing_flux_bound_is_one_runtime_failure_line(tmp_path, capsys):
    # |f'|_g^2 = 1e400 overflows, so the convective dt bound is 0
    rc, err = run_cli(capsys, write_config(tmp_path, [("scenario.flux1", '"1e200*xi"')]))
    assert rc == 1
    assert err.startswith("runtime failure: the stable step bound 0.000e+00")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unbounded_step_count_is_one_runtime_failure_line(tmp_path, capsys):
    # a' = 2e20 sets a finite dt near 1e-24: about 1e21 steps to t_end
    rc, err = run_cli(capsys, write_config(tmp_path, [("scenario.sigma11", '"1e10"')]))
    assert rc == 1
    assert err.startswith("runtime failure: dt = ") and "set by the parabolic bound" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_metric_has_no_g21_key(tmp_path, capsys):
    # g21 = g12 by construction: a mismatched entry is rejected, not averaged with g12
    path = write_config(tmp_path, PLANE + [("metric.g21", '"0.5"')])
    rc, err = run_cli(capsys, path)
    assert rc == 2
    assert err == "config error: [metric] unknown key 'g21'\n"


@pytest.mark.parametrize("changes, message", [
    (PLANE + [("metric.g22", '"sqrt(x1 - 2)"')], "[metric] g22: sqrt of negative value"),
    (PLANE + [("scenario.sigma21", '"sqrt(xi - 2)"')],
     "[scenario] sigma21: sqrt of negative value"),
    (PLANE + [("scenario.flux2", '"1/(xi-xi)"')], "[scenario] flux2: division by zero"),
], ids=["metric", "sigma", "flux"])
def test_multi_key_step_names_the_failing_key(tmp_path, capsys, changes, message):
    rc, err = run_cli(capsys, write_config(tmp_path, changes))
    assert rc == 2
    assert err.startswith(f"config error: {message}")


@pytest.mark.parametrize("value", ['"1e308*10"', '"1e308*10 - 1e308*10"'], ids=["inf", "nan"])
def test_non_finite_metric_entry_names_its_reason(tmp_path, capsys, value):
    # rejected before the symmetry check, which NaN would fail, and before the step bound
    path = write_config(tmp_path, [("metric.name", None), ("metric.g11", value)])
    rc, err = run_cli(capsys, path)
    assert rc == 2
    assert err == "config error: [metric] g11: metric entries are not finite\n"


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"\xff\xfe[grid]\n")
    rc, err = run_cli(capsys, path)
    assert rc == 2
    assert err.startswith(f"config error: cannot read config {path}: ") and err.count("\n") == 1


def test_config_with_a_byte_order_mark_loads_as_without(tmp_path):
    plain = write_config(tmp_path)
    marked = tmp_path / "marked.ini"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert cli.load_config(marked) == cli.load_config(plain)


def test_out_of_memory_is_one_runtime_failure_line(tmp_path, capsys, monkeypatch):
    # raised, not provoked: an oversized allocation can succeed under overcommit
    message = "Unable to allocate 8.00 GiB for an array with shape (1073741824,)"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run", exhausted)
    rc, err = run_cli(capsys, write_config(tmp_path))
    assert rc == 1
    assert err == f"runtime failure: out of memory: {message}\n"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_unusable_out_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", never)
    monkeypatch.setattr(cli, "build_pipeline", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = cli.main([command, str(write_config(tmp_path)), "--out", str(taken)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"config error: --out {taken}: File exists\n"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_empty_out_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", never)
    monkeypatch.setattr(cli, "build_pipeline", never)
    rc = cli.main([command, str(write_config(tmp_path)), "--out", ""])
    assert rc == 2
    assert capsys.readouterr().err == "config error: --out: empty path, expected a directory\n"


def test_validate_fills_defaults_and_converts():
    minimal = {"grid": {"d": 1, "n": 16}, "scenario": {"u0": "0.5"},
               "solver": {"eta": 1, "t_end": 0.1}}
    cfg = cli.validate(minimal)
    assert cfg["solver"] == {"eta": 1.0, "t_end": 0.1, "cfl": 0.4, "snapshots": 10}
    assert cfg["study"]["eta_list"] == (0.04, 0.02, 0.01)
    given = cli.validate(dict(minimal, study={"eta_list": "0.1, 1"}))
    assert given["study"]["eta_list"] == (0.1, 1.0)


def test_cli_import_loads_no_scipy():
    """`import maniflow.cli` stays free of scipy.

    Importing scipy.sparse alone adds about 20 MB of peak RSS, more than the
    benchmark's memory bound allows on any workload, so an operator path that
    needs scipy must import it only where it is used.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, maniflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# command -> (list key, three values, report file)
SWEEPS = {"study-eta": ("study.eta_list", "0.02, 0.01, 0.005", "report.json"),
          "uniqueness": ("uniqueness.cfl_list", "0.4, 0.2, 0.1", "kinetic_report.json")}


def per_value_builds(monkeypatch, path):
    """Make every sweep run use a pipeline built afresh with its solver value."""
    cfg, solver_run = cli.load_config(path), cli.run

    def fresh(solver_cfg, *_, **kwargs):
        sub = {s: dict(kv) for s, kv in cfg.items()}
        sub["solver"].update(eta=solver_cfg.eta, cfl=solver_cfg.cfl)
        pipe = cli.Pipeline(sub)
        return solver_run(pipe.solver_cfg, pipe.fm, pipe.dm, pipe.u0, **kwargs)

    monkeypatch.setattr(cli, "run", fresh)


@pytest.mark.parametrize("command", list(SWEEPS))
def test_sweep_builds_once_and_matches_per_value_builds(tmp_path, capsys, monkeypatch, command):
    key, values, report = SWEEPS[command]
    path = write_config(tmp_path, [("grid.n", "32"), (key, values)])
    builds, build = [], cli.build_pipeline
    monkeypatch.setattr(cli, "build_pipeline", lambda cfg: builds.append(cfg) or build(cfg))
    assert cli.main([command, str(path), "--out", str(tmp_path / "once")]) == 0
    assert len(builds) == 1
    once = capsys.readouterr().out
    per_value_builds(monkeypatch, path)
    assert cli.main([command, str(path), "--out", str(tmp_path / "each")]) == 0
    assert capsys.readouterr().out == once
    assert (tmp_path / "once" / report).read_bytes() == (tmp_path / "each" / report).read_bytes()


def test_uniqueness_rows_give_both_runs_snapshot_times(tmp_path, capsys):
    # snapshot k of each run comes after ceil(k n / 10) of its own steps, so the
    # paired states can lie up to one step apart; on porous they do
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS["porous"].items()}
    cfg["solver"]["t_end"] = 0.01
    assert cli.cmd_uniqueness(cfg, str(tmp_path)) == 0
    out = capsys.readouterr().out.splitlines()
    (series,) = json.loads((tmp_path / "kinetic_report.json").read_text())["series"]
    step = max(series["dt_pair"])
    gaps = []
    for row, line in zip(series["rows"], out, strict=True):
        t_a, t_b = row["t_pair"]
        assert t_a == row["t"] and abs(t_a - t_b) <= step
        assert line.startswith(f"t={t_a:.4f}  t_a {t_a:.6e}  t_b {t_b:.6e}  ")
        gaps.append(t_a - t_b)
    assert any(gaps)


@pytest.mark.parametrize("command", list(SWEEPS))
def test_bad_sweep_value_exits_2(tmp_path, capsys, command):
    key = SWEEPS[command][0]
    rc = cli.main([command, str(write_config(tmp_path, [(key, "0.01, -1")]))])
    assert rc == 2
    section, name = key.split(".")
    assert capsys.readouterr().err.startswith(f"config error: [{section}] {name}: ")


@pytest.mark.parametrize("name", ["curved_evo", "shock"])
def test_audit_compat_checks_every_xi_edge_of_the_run_bound(tmp_path, capsys, name):
    # one row per edge, from the defect whose largest max sets a run's state interval
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS[name].items()}
    assert cli.cmd_audit_compat(cfg, str(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    pipe = cli.build_pipeline(cfg)
    assert [row["xi"] for row in rows] == pipe.xi.edges.tolist()
    assert len(lines) == len(rows) + 1 and lines[-1].startswith("threshold ")
    bound = stable_dt(pipe.solver_cfg, pipe.fm, pipe.dm,
                      transport_stencil(pipe.M, pipe.solver_cfg.eta), pipe.u0)
    assert bound.spread == pipe.solver_cfg.t_end * max(row["max"] for row in rows)


def test_const_smoke_scenario_reads_exact_zeros(tmp_path, capsys):
    # a constant state with no flux and no A: the Laplacian of the constant, and
    # the Christoffel terms of the constant times the identity, are exactly 0
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS["const"].items()}
    (tmp_path / "run").mkdir()
    (tmp_path / "audit").mkdir()
    assert cli.cmd_run(cfg, str(tmp_path / "run")) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert set(report["entropy_residuals"].values()) == {0.0}
    assert report["chain_rule_residuals"]["xi"] == 0.0
    assert report["max_principle"]["excess"] == 0.0
    assert report["energy_balance"]["residual"] == 0.0
    assert cli.cmd_audit_compat(cfg, str(tmp_path / "audit")) == 0
    rows = json.loads((tmp_path / "audit" / "report.json").read_text())["rows"]
    assert {row["max"] for row in rows} == {row["l1"] for row in rows} == {0.0}
