"""Batch front door: scenario configs in, runs and reports out.

Config files are flat INI-style text: [section] headers, key = value lines,
expression values quoted.  `parse_config` turns the text into a plain
{section: {key: value}} dict; the scenarios in `catalog.SCENARIOS` are dicts
in the same schema, so `build_pipeline` runs either.

`KEYS` is the one table of accepted keys, with the kind and default of each,
for the sections [grid], [xi], [metric], [scenario], [solver] and
[diagnostics], plus [study] and [uniqueness] for the commands of those
names.  `validate` checks a config against it once, after any --override is
applied: it rejects unknown sections and keys, values of the wrong kind, and
keys that the chosen branch would ignore.  Range checks live with the
objects they guard (ChartGrid, XiGrid, SolverConfig, ...), and
`Pipeline` reports their errors as config errors naming the section.  An
expression error in a step that reads several keys names the first key whose
text is the expression that failed (`ExprError.source`), so no expression is
sampled twice.

The metric is a catalog entry, [metric] name, or the entries g11, g12 and
g22; g21 is not a key, since g21 = g12, so the metric is symmetric by
construction.  Likewise the flux is given only as flux1 (and flux2), or
made by `compatible = true`: its xi-derivative f' is always derived from
the flux table (`FluxModel`), so no key can set it apart from f.  Every
expression of x1, x2 (and xi) is sampled by `ChartGrid.eval_expr`.

`main` makes the --out directory before any command builds or runs: an
empty path, or one that cannot be a directory, is a config error, and a
config error found after that leaves the directory behind, empty.

Commands (`COMMANDS`):

    maniflow run          <config> [--out DIR] [--override sec.key=value ...]
    maniflow audit-compat <config> ...
    maniflow study-eta    <config> ...
    maniflow uniqueness   <config> ...

`audit-compat` reports the compatibility defect div f - divdiv A at every
xi-edge of the tables, one row each, from the stencil a run assembles
(`solver.compat_defect`), and fails when a row's max exceeds
COMPAT_TOL_FACTOR h^2.

Exit codes: 0 success, 1 runtime failure (an output that cannot be written
is one) or flagged invariant violation, 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__, catalog, entropy, fieldio, kinetic
from .exprparse import ExprError
from .geometry import ChartGrid, GeometryError, build_metric, norm_l1, transport_stencil
from .model import (COMPAT_TOL_FACTOR, DiffusionModel, FluxModel, ModelError, XiGrid,
                    make_compatible_flux, psd_audit)
from .solver import (SolverConfig, SolverError, check_initial_state, compat_defect,
                     max_principle, run, total_variation)


class ConfigError(ValueError):
    pass


# --- config parsing -----------------------------------------------------------

def _strip_comment(line):
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch in "#;" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _parse_value(text):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config(text):
    """Parse INI-like text into {section: {key: value}}.

    As in configparser's strict mode, a section or a key in it may appear
    only once (`--override` replaces a key).
    """
    sections, first = {}, {}  # (section,) or (section, key) -> line it first appears on
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw!r}")
            current = line[1:-1].strip()
            name, where = (current,), f"[{current}] section"
            sections[current] = {}
        else:
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            if current is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            name, where = (current, key), f"[{current}] {key}: key"
            sections[current][key] = _parse_value(value)
        if name in first:
            raise ConfigError(f"{where} repeated on line {lineno}, first on line {first[name]}")
        first[name] = lineno
    return sections


def load_config(path, overrides=()):
    try:
        with open(path, encoding="utf-8") as fh:
            # a byte-order mark, as some editors save one, is not part of line 1; the
            # utf-8-sig codec would strip it too, but its import costs 0.3 ms per process
            cfg = parse_config(fh.read().removeprefix("\ufeff"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        cfg.setdefault(section.strip(), {})[key.strip()] = _parse_value(value)
    return cfg


# --- the key table ------------------------------------------------------------

INT, NUM, BOOL, WORD, EXPR = "an integer", "a number", "true or false", "a word", "an expression"
NUMS = "a list of numbers"  # comma-separated
_TYPES = {INT: int, NUM: (int, float), BOOL: bool, WORD: str, EXPR: (str, int, float)}
REQUIRED = object()

# section -> key -> (kind, default); a default of None leaves the key unset,
# other defaults are in the form `_convert` returns
KEYS = {
    "grid": {"d": (INT, REQUIRED), "n": (INT, REQUIRED)},
    "xi": {"n": (INT, 64)},
    "metric": {"name": (WORD, None), "g11": (EXPR, None), "g12": (EXPR, None),
               "g22": (EXPR, None)},
    "scenario": {"sigma11": (EXPR, "0"), "sigma12": (EXPR, "0"), "sigma21": (EXPR, "0"),
                 "sigma22": (EXPR, "0"), "flux1": (EXPR, "0"), "flux2": (EXPR, "0"),
                 "compatible": (BOOL, False), "stream": (EXPR, None), "u0": (EXPR, REQUIRED)},
    "solver": {"eta": (NUM, REQUIRED), "t_end": (NUM, REQUIRED), "cfl": (NUM, 0.4),
               "snapshots": (INT, 10)},
    "diagnostics": {"battery_seed": (INT, 0)},
    "study": {"eta_list": (NUMS, (0.04, 0.02, 0.01))},
    "uniqueness": {"cfl_list": (NUMS, (0.4, 0.2))},
}


def _convert(kind, value):
    """`value` in the form the pipeline uses for `kind`; ValueError if it is not one."""
    if kind == NUMS:
        parts = [part.strip() for part in str(value).split(",") if part.strip()]
        if not parts:
            raise ValueError(f"must be {kind}, got {value!r}")
        return tuple(_convert(NUM, _parse_value(p)) for p in parts)
    if isinstance(value, bool) != (kind == BOOL) or not isinstance(value, _TYPES[kind]):
        raise ValueError(f"must be {kind}, got {value!r}")
    if kind != NUM:
        return value
    # false for NaN, infinities and integers beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def validate(cfg):
    """Check a config against KEYS; return every key of every section, defaults filled in.

    Also rejects keys that the chosen branch would ignore.
    """
    for section, given in cfg.items():
        if section not in KEYS:
            raise ConfigError(f"[{section}] unknown section")
        for key in given:
            if key not in KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
    out = {}
    for section, table in KEYS.items():
        given = cfg.get(section, {})
        out[section] = {}
        for key, (kind, default) in table.items():
            if default is REQUIRED and key not in given:
                raise ConfigError(f"[{section}] missing key {key}")
            try:
                out[section][key] = _convert(kind, given[key]) if key in given else default
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    compatible = out["scenario"]["compatible"]
    for section in ("metric", "scenario"):
        for key in cfg.get(section, {}):
            reason = ("when compatible = true" if compatible and key.startswith("flux") else
                      "unless compatible = true" if not compatible and key == "stream" else
                      "when name is set" if out["metric"]["name"] and key.startswith("g") else
                      # only the keys of a second axis contain a 2
                      "when d = 1" if out["grid"]["d"] == 1 and "2" in key else None)
            if reason:
                raise ConfigError(f"[{section}] {key} is ignored {reason}")
    # each sweep compares its runs pairwise, so one value would measure nothing
    for section, key in (("study", "eta_list"), ("uniqueness", "cfl_list")):
        if len(out[section][key]) < 2:
            raise ConfigError(f"[{section}] {key} needs at least two entries")
    return out


# --- pipeline -----------------------------------------------------------------

@contextmanager
def _building(section, keys=(), values=None):
    """Report an error raised while building from `section` as a ConfigError.

    The message names the key when the step reads one; for an expression
    error in a step that reads several, the first of `keys` whose text in
    `values` equals `ExprError.source`, the text that failed.
    """
    try:
        yield
    except (ExprError, GeometryError, ModelError, SolverError) as exc:
        if len(keys) > 1 and isinstance(exc, ExprError):
            keys = [k for k in keys if values[k] == exc.source][:1]
        where = f"[{section}] {keys[0]}:" if len(keys) == 1 else f"[{section}]"
        raise ConfigError(f"{where} {exc}") from None


def _metric_entries(mc, d):
    """The d x d metric expressions: a catalog entry, or g11, g12 and g22 with g21 = g12."""
    if mc["name"] is not None:
        entry = catalog.METRICS.get(mc["name"])
        if entry is None or entry["d"] != d:
            raise ConfigError(f"[metric] name: no {d}d catalog metric {mc['name']!r}")
        return entry["entries"]
    idx = range(1, d + 1)
    keys = [[f"g{min(i, j)}{max(i, j)}" for j in idx] for i in idx]
    missing = [k for row in keys for k in row if mc[k] is None]
    if missing:
        raise ConfigError(f"[metric] missing key {missing[0]}")
    return [[mc[k] for k in row] for row in keys]


class Pipeline:
    """Everything built from a validated config, ready to run."""

    def __init__(self, cfg):
        self.cfg = cfg = validate(cfg)
        sc, sv = cfg["scenario"], cfg["solver"]
        with _building("grid"):
            self.grid = grid = ChartGrid(cfg["grid"]["d"], cfg["grid"]["n"])
        with _building("xi", ["n"]):
            self.xi = xi = XiGrid(cfg["xi"]["n"])
        with _building("solver"):
            self.solver_cfg = SolverConfig(eta=sv["eta"], t_end=sv["t_end"], cfl=sv["cfl"],
                                           n_snapshots=sv["snapshots"])
        self.battery_seed = cfg["diagnostics"]["battery_seed"]

        d, idx = grid.d, range(1, grid.d + 1)
        pairs = [f"{i}{j}" for i in idx for j in idx]
        with _building("metric", [f"g{i}{j}" for i in idx for j in idx if i <= j], cfg["metric"]):
            self.M = build_metric(_metric_entries(cfg["metric"], d), grid)
        with _building("scenario", [f"sigma{p}" for p in pairs], sc):
            self.dm = DiffusionModel.from_exprs(
                [[sc[f"sigma{k}{i}"] for i in idx] for k in idx], self.M, xi)
        if sc["compatible"]:
            with _building("scenario", ["stream"]):
                self.fm = make_compatible_flux(self.dm, stream=sc["stream"])
        else:
            keys = [f"flux{k}" for k in idx]
            with _building("scenario", keys, sc):
                self.fm = FluxModel.from_exprs([sc[k] for k in keys], grid, xi)
        with _building("scenario", ["u0"]):
            self.u0 = grid.eval_expr(sc["u0"])
            check_initial_state(self.u0, grid)

    def run(self):
        return run(self.solver_cfg, self.fm, self.dm, self.u0)


def build_pipeline(cfg):
    return Pipeline(cfg)


# --- report helpers -------------------------------------------------------------

def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_monitors(traj, path):
    cols = (traj.monitor_t, traj.mass, traj.u_min, traj.u_max, traj.energy)
    np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",",
               header="t,mass,min,max,energy", comments="")


def _write_ledger(traj, nu, path):
    led = traj.ledger
    cols = (led.xi.centers, led.bins_m, led.bins_n, nu)
    np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",",
               header="xi_bin_center,M_b,N_b,nu", comments="")


# --- commands --------------------------------------------------------------------

def cmd_run(cfg, out_dir):
    pipe = build_pipeline(cfg)
    traj = pipe.run()

    report = {"version": __version__, "command": "run"}
    bound = traj.bound
    report["run"] = {"dt": traj.dt, "n_steps": traj.mass.size - 1, "dt_bound": bound.limit,
                     "rho": bound.rho, "interval": list(bound.interval)}
    principle = max_principle(traj)
    report["max_principle"] = principle
    violations = [] if principle["pass"] else ["max_principle"]

    balance = entropy.energy_balance(traj)
    report["energy_balance"] = balance

    battery = entropy.spatial_battery(pipe.grid, seed=pipe.battery_seed)
    ent_res = {}
    for S in (entropy.identity_entropy(), entropy.square_entropy()):
        ent_res[S.name] = entropy.entropy_residual(
            traj.snapshots[-2], traj.snapshots[-1], traj.times[-1] - traj.times[-2], S,
            pipe.fm, pipe.dm, traj.eta, battery)
    report["entropy_residuals"] = ent_res

    report["chain_rule_residuals"] = {p: entropy.chain_rule_residual(traj.u_final, p, pipe.dm)
                                      for p in entropy.CHAIN_RULE_PSI}

    nu_check = entropy.nu_bound_check(traj.ledger, pipe.u0, pipe.M)
    report["nu_bound"] = {k: nu_check[k] for k in ("pass", "worst_bin", "worst_excess")}
    if not nu_check["pass"]:
        violations.append("nu_bound")

    audit = psd_audit(pipe.dm)
    report["psd_audit"] = audit
    if audit["min_quadratic_form"] < -1e-10:
        violations.append("psd")

    if np.any(traj.ledger.bins_m < 0) or np.any(traj.ledger.bins_n < 0):
        violations.append("ledger_negative")

    if out_dir is not None:
        # the trajectory is on disk before the kinetic diagnostics, which can fail
        _write_monitors(traj, f"{out_dir}/monitors.csv")
        _write_ledger(traj, nu_check["nu"], f"{out_dir}/ledger.csv")
        fieldio.write_csv(traj.u_final, pipe.grid, f"{out_dir}/u_final.csv")
        fieldio.write_raw(traj.u_final, pipe.grid, f"{out_dir}/u_final.f64")

    kin_battery = kinetic.kinetic_battery(pipe.grid, pipe.xi, seed=pipe.battery_seed,
                                          t_scale=pipe.solver_cfg.t_end)
    try:
        kin_res = kinetic.kinetic_residual(traj, pipe.fm, pipe.dm, kin_battery)
    except kinetic.KineticError as exc:
        # keep the report: every other diagnostic is already computed
        kin_res = None
        report["kinetic_error"] = str(exc)
        violations.append("kinetic")
    report["kinetic_residual"] = kin_res
    report["violations"] = violations

    if out_dir is not None:
        _json_dump(report, f"{out_dir}/report.json")
        xs = pipe.grid.coords()[0]
        jump = ((xs >= 0.25) & (xs < 0.75)).astype(float)
        decay = kinetic.friedrichs_commutator(
            "1 + 0.5*sin(2*pi*x1)", jump,
            [32 * pipe.grid.h, 16 * pipe.grid.h, 8 * pipe.grid.h, 4 * pipe.grid.h],
            pipe.grid)
        _json_dump({"version": __version__,
                    "max_residual": kin_res,
                    "friedrichs": decay}, f"{out_dir}/kinetic_report.json")

    print(json.dumps(report, sort_keys=True))
    return 1 if violations else 0


def cmd_audit_compat(cfg, out_dir):
    pipe = build_pipeline(cfg)
    threshold = COMPAT_TOL_FACTOR * pipe.grid.h ** 2
    stencil = transport_stencil(pipe.M, pipe.solver_cfg.eta)

    rows = []
    for value, top, l1 in zip(pipe.xi.edges, *compat_defect(pipe.fm, pipe.dm, stencil)):
        passed = bool(top <= threshold)
        rows.append({"xi": float(value), "max": float(top), "l1": float(l1), "pass": passed})
        print(f"xi={value:8.6f}  max={top:.6e}  l1={l1:.6e}  {'pass' if passed else 'FAIL'}")
    print(f"threshold {threshold:.6e}")
    ok = all(row["pass"] for row in rows)
    report = {"version": __version__, "command": "audit-compat",
              "threshold": threshold, "rows": rows, "pass": ok}
    if out_dir is not None:
        _json_dump(report, f"{out_dir}/report.json")
    return 0 if ok else 1


def _sweep(cfg, section, key, field):
    """Build once, then run with solver `field` set to each value of [section] key.

    Returns the pipeline, the values and one trajectory per value; the runs
    leave their dissipation ledgers empty.  Every value is checked before the
    first run.
    """
    pipe = build_pipeline(cfg)
    values = pipe.cfg[section][key]
    with _building(section, [key]):
        configs = [dataclasses.replace(pipe.solver_cfg, **{field: v}) for v in values]
    return pipe, values, [run(c, pipe.fm, pipe.dm, pipe.u0, record_dissipation=False)
                          for c in configs]


def cmd_study_eta(cfg, out_dir):
    pipe, etas, trajectories = _sweep(cfg, "study", "eta_list", "eta")
    monitors = {}
    for eta, traj in zip(etas, trajectories):
        monitors[f"eta={eta:g}"] = {
            "tv_final": total_variation(traj.u_final),
            "mass_drift": float(traj.mass[-1] - traj.mass[0]),
            "min": float(np.min(traj.u_min)), "max": float(np.max(traj.u_max)),
        }
    diffs = [{"eta_hi": etas[a], "eta_lo": etas[a + 1],
              "l1_diff": norm_l1(trajectories[a].u_final - trajectories[a + 1].u_final, pipe.M)}
             for a in range(len(etas) - 1)]
    for row in diffs:
        print(f"|u({row['eta_hi']:g}) - u({row['eta_lo']:g})|_L1 = {row['l1_diff']:.6e}")
    report = {"version": __version__, "command": "study-eta",
              "etas": etas, "pairwise_l1": diffs, "monitors": monitors}
    if out_dir is not None:
        _json_dump(report, f"{out_dir}/report.json")
    return 0


def cmd_uniqueness(cfg, out_dir):
    pipe, cfls, trajectories = _sweep(cfg, "uniqueness", "cfl_list", "cfl")
    series = []
    base = trajectories[0]
    for other_idx in range(1, len(trajectories)):
        other = trajectories[other_idx]
        k_max = min(len(base.snapshots), len(other.snapshots))
        rows = []
        for k in range(k_max):
            u_a, u_b = base.snapshots[k], other.snapshots[k]
            rows.append({
                "t": base.times[k],
                "t_pair": [base.times[k], other.times[k]],
                "forward": kinetic.contraction(u_a, u_b, pipe.M),
            })
        series.append({"cfl_pair": [cfls[0], cfls[other_idx]],
                       "dt_pair": [base.dt, other.dt], "rows": rows})
        for row in rows:
            t_a, t_b = row["t_pair"]
            print(f"t={row['t']:.4f}  t_a {t_a:.6e}  t_b {t_b:.6e}  contraction forward "
                  f"{row['forward']:.6e}")
    report = {"version": __version__, "command": "uniqueness", "series": series}
    if out_dir is not None:
        _json_dump(report, f"{out_dir}/kinetic_report.json")
    return 0


# --- entry point ------------------------------------------------------------------

# command name -> handler(cfg, out_dir) returning the exit code; the one list of commands
COMMANDS = {"run": cmd_run, "audit-compat": cmd_audit_compat, "study-eta": cmd_study_eta,
            "uniqueness": cmd_uniqueness}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="maniflow", description=__doc__)
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SEC.KEY=VALUE")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, overrides=args.override)
        if args.out is not None:
            if not args.out:
                raise ConfigError("--out: empty path, expected a directory")
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {args.out}: {exc.strerror or exc}") from None
        return COMMANDS[args.command](cfg, args.out)
    except (ConfigError, ExprError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ModelError, GeometryError, kinetic.KineticError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"runtime failure: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
