import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maniflow import cli

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


def write_config(tmp_path, changes=()):
    """BASE as INI text, with (section.key, raw value) pairs set or added."""
    sections = {s: dict(kv) for s, kv in BASE.items()}
    for target, value in changes:
        section, key = target.split(".")
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


def test_override_reaches_the_run(tmp_path, capsys):
    out = tmp_path / "out"
    rc, err = run_cli(capsys, write_config(tmp_path), "--out", str(out),
                      "--override", "solver.t_end=0.02")
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
                                   ("scenario.flux1", '"xi"'), ("scenario.flux_prime1", '"1"'),
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

BAD = {
    "malformed_u0": ([("scenario.u0", '"sin(2*pi*x1"')], []),
    "misspelled_key": ([("scenario.sigma_11", '"1"')], []),
    "unknown_section": ([("solvr.eta", "1e-2")], []),
    "unknown_override": ([], ["--override", "solver.etaa=3"]),
    "negative_t_end": ([("solver.t_end", "-1")], []),
    "non_integer": ([("diagnostics.battery_count", "abc")], []),
    "empty_battery": ([("diagnostics.battery_count", "0")], []),
    "removed_key": ([("diagnostics.eps", "0.1")], []),
    "removed_scheme": ([("solver.scheme", "heun")], []),
    "flux_with_compatible": ([("scenario.flux1", '"xi"'), ("scenario.compatible", "true")], []),
    "stream_without_compatible": ([("scenario.stream", '"sin(2*pi*x1)"')], []),
    "g_with_name": ([("metric.g11", '"2"')], []),
    "second_axis_in_1d": ([("scenario.sigma12", '"0"')], []),
    "u0_out_of_range": ([("scenario.u0", '"1.5"')], []),
    "eval_error": ([("scenario.sigma11", '"sqrt(xi - 0.5)"')], []),
    "negative_psi": ([("diagnostics.psi", '"xi - 1"')], []),
    "small_n": ([("grid.n", "8")], []),
    "zero_snapshots": ([], ["--override", "solver.snapshots=0"]),
    "negative_snapshots": ([], ["--override", "solver.snapshots=-3"]),
    "empty_xi_samples": ([("audit.xi_samples", '""')], []),
    "empty_eta_list": ([("study.eta_list", '""')], []),
    "empty_psi": ([("diagnostics.psi", '""')], []),
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


def test_expression_error_names_its_key(tmp_path, capsys):
    path = write_config(tmp_path, [("scenario.sigma11", '"sqrt(xi - 0.5)"')])
    rc, err = run_cli(capsys, path)
    assert rc == 2
    assert err.startswith("config error: [scenario] sigma11: sqrt of negative value")


def test_validate_fills_defaults_and_converts():
    minimal = {"grid": {"d": 1, "n": 16}, "scenario": {"u0": "0.5"},
               "solver": {"eta": 1, "t_end": 0.1}}
    cfg = cli.validate(minimal)
    assert cfg["solver"] == {"eta": 1.0, "t_end": 0.1, "cfl": 0.4, "snapshots": 10}
    assert cfg["diagnostics"]["psi"] == ("1", "xi")
    assert cfg["study"]["eta_list"] == (0.04, 0.02, 0.01)
    given = cli.validate(dict(minimal, study={"eta_list": "0.1, 1"},
                              diagnostics={"psi": "xi, 1 - xi"}))
    assert given["study"]["eta_list"] == (0.1, 1.0)
    assert given["diagnostics"]["psi"] == ("xi", "1 - xi")


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
        return solver_run(pipe.solver_cfg, pipe.fm, pipe.dm, pipe.M, pipe.u0, pipe.xi, **kwargs)

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


@pytest.mark.parametrize("command", list(SWEEPS))
def test_bad_sweep_value_exits_2(tmp_path, capsys, command):
    key = SWEEPS[command][0]
    rc = cli.main([command, str(write_config(tmp_path, [(key, "0.01, -1")]))])
    assert rc == 2
    section, name = key.split(".")
    assert capsys.readouterr().err.startswith(f"config error: [{section}] {name}: ")
