"""Benchmark of `maniflow run` on three workloads, from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload, one table

Each `maniflow run` happens in a fresh child process (perfbench/child.py),
one at a time, with BLAS/OpenMP thread counts pinned to 1. The seed reaches
the program as `--override diagnostics.battery_seed=<seed>`; it selects the
random test-function batteries of the diagnostics. With `--trace 0` children
run untraced for about S seconds and the end-to-end metrics are medians over
them; with `--trace 1` traced and untraced children alternate and the
per-layer metrics are medians over the traced ones. Every child passes the
correctness gate in `check_output` or counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The environment and every
sample go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("curved_const", "porous", "curved_evo_diag")
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}

MIN_FULL_RUNS = 3         # untraced `maniflow run` children, even past --seconds
MIN_SETUP_CHILDREN = 3    # set-up-only children after the full runs
MAX_SETUP_CHILDREN = 12
HARD_LIMIT_S = 165.0      # a run is cut here whatever --seconds says
MASS_DRIFT_FLOOR = 1e-12  # drift below this is round-off: mass is conserved

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "1",
    "mass_drift": "1", "energy_balance_rel": "1",
}

# span name -> fields of tracer.summarize reported as `<span>.<field>`
LAYER_FIELDS = {
    "geometry.divdiv_tensor11": ("calls", "busy_s", "step_s", "diag_s"),
    "geometry.div_vector": ("calls", "busy_s", "step_s", "diag_s"),
    "geometry.laplace_beltrami": ("calls", "busy_s", "step_s", "diag_s"),
    "geometry.div_tensor11": ("calls", "busy_s", "diag_s"),
    "geometry.build_metric": ("busy_s",),
    "model.xi_interp": ("calls", "busy_s", "step_s", "diag_s"),
    "model.tabulate": ("busy_s",),
    "model.psd_audit": ("busy_s",),
    "solver.rhs": ("calls", "busy_s"),
    "solver.run": ("busy_s", "self_s"),
    "entropy.deposit": ("calls", "busy_s"),
    "entropy.entropy_residual": ("busy_s",),
    "entropy.chain_rule_residual": ("busy_s",),
    "entropy.energy_balance": ("busy_s",),
    "entropy.nu_bound_check": ("busy_s",),
    "kinetic.kinetic_residual": ("busy_s", "self_s"),
    "kinetic.friedrichs_commutator": ("busy_s",),
    "exprparse.compile_expr": ("calls", "busy_s"),
    "cli.load_config": ("busy_s",),
    "cli.build_pipeline": ("busy_s",),
    "fieldio.write": ("busy_s",),
}
LAYER_DERIVED = {
    "model.table_bytes": "B", "solver.steps": "count", "solver.dt": "1",
    "solver.us_per_step": "us", "solver.u_final_rel_l1_vs_ref": "1",
    "kinetic.kinetic_residual.value": "1", "out.bytes": "B", "trace.overhead_s": "s",
}


def per_layer_units():
    units = {f"{span}.{field}": ("count" if field == "calls" else "s")
             for span, fields in LAYER_FIELDS.items() for field in fields}
    units.update(LAYER_DERIVED)
    return units


# --- correctness gate ------------------------------------------------------------

def check_output(returncode, out_dir):
    """Gate one `maniflow run`: returns (facts, None) on success, else (None, reason).

    A run passes when it exited 0 (so its `violations` list was empty), left a
    `report.json` that parses and holds the reported residuals, a `u_final.f64`
    that reads back through `fieldio.read_raw`, is finite and lies in [0, 1],
    and a `monitors.csv` with at least two rows.
    """
    import numpy as np
    from maniflow import fieldio

    out_dir = Path(out_dir)
    if returncode != 0:
        return None, f"exit code {returncode}"
    try:
        with open(out_dir / "report.json") as fh:
            report = json.load(fh)
        balance = float(report["energy_balance"]["relative_residual"])
        kinetic = float(report["kinetic_residual"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"report.json: {exc!r}"
    try:
        u, _ = fieldio.read_raw(str(out_dir / "u_final.f64"))
    except (OSError, ValueError, KeyError) as exc:
        return None, f"u_final.f64: {exc!r}"
    if not np.all(np.isfinite(u)):
        return None, "u_final has non-finite values"
    if u.min() < 0.0 or u.max() > 1.0:
        return None, f"u_final outside [0, 1]: [{u.min():.17g}, {u.max():.17g}]"
    try:
        with open(out_dir / "monitors.csv") as fh:
            rows = [(float(r[0]), float(r[1])) for r in list(csv.reader(fh))[1:]]
    except (OSError, ValueError, IndexError) as exc:
        return None, f"monitors.csv: {exc!r}"
    if len(rows) < 2:
        return None, "monitors.csv has fewer than two rows"
    (_, mass0), (t_end, mass_t) = rows[0], rows[-1]
    steps = len(rows) - 1
    return {
        "u_final": u,
        "energy_balance_rel": balance,
        "kinetic_residual": kinetic,
        "mass_drift": max(abs(mass_t - mass0) / mass0, MASS_DRIFT_FLOOR),
        "steps": steps,
        "dt": t_end / steps,
        "out_bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),
    }, None


def rel_l1_vs_ref(u, workload):
    from maniflow import fieldio

    ref, _ = fieldio.read_raw(str(BENCH / "reference" / f"{workload}.u_final.f64"))
    if ref.shape != u.shape:
        raise ValueError(f"reference shape {ref.shape} != u_final shape {u.shape}")
    return float(abs(u - ref).sum() / abs(ref).sum())


# --- children ----------------------------------------------------------------------

def _wait(proc, hard_deadline):
    """Block until the child ends, killing it at the deadline; returns its rusage."""
    killer = threading.Timer(max(0.0, hard_deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(run_dir, index, workload, seed, hard_deadline, trace=False, setup_only=False):
    """Start one child, wait for it, and return its sample (gate applied to full runs)."""
    tag = f"c{index:02d}"
    out_dir, result_path = run_dir / tag, run_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path),
           "--ini", str(BENCH / "workloads" / f"{workload}.ini"), "--out", str(out_dir),
           "--override", f"diagnostics.battery_seed={seed}"]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    with open(run_dir / f"{tag}.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            usage = _wait(proc, hard_deadline)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    sample = {"tag": tag, "trace": trace, "setup_only": setup_only,
              "outer_s": time.monotonic() - started, "rc": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime, "nivcsw": usage.ru_nivcsw}
    try:
        with open(result_path) as fh:
            child = json.load(fh)
    except (OSError, ValueError) as exc:
        sample.update(ok=False, reason=f"no child result ({exc!r}), exit code {proc.returncode}")
        return sample
    sample.update(wall_s=child["wall_s"], setup_s=child["setup_s"],
                  table_bytes=child["table_bytes"], spans=child["spans"])
    if setup_only:
        sample.update(ok=proc.returncode == 0, reason=None if proc.returncode == 0
                      else f"exit code {proc.returncode}")
        return sample
    facts, reason = check_output(proc.returncode, out_dir)
    sample.update(ok=facts is not None, reason=reason, facts=facts)
    return sample


def measure(workload, seed, seconds, trace):
    """Run children for about `seconds`; returns the list of samples."""
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    samples = []

    def elapsed():
        return time.monotonic() - start

    def typical(kind):
        times = [s["outer_s"] for s in samples if kind(s)]
        return statistics.median(times) if times else 0.0

    if trace:
        kinds = [True, False]
        while True:
            mode = kinds[len(samples) % 2]
            samples.append(run_child(run_dir, len(samples), workload, seed, hard, trace=mode))
            nxt = kinds[len(samples) % 2]
            if len(samples) >= 2 and elapsed() + typical(lambda s: s["trace"] == nxt) > seconds:
                break
    else:
        while True:
            samples.append(run_child(run_dir, len(samples), workload, seed, hard))
            if (len(samples) >= MIN_FULL_RUNS
                    and elapsed() + typical(lambda s: not s["setup_only"]) > seconds):
                break
        n_setup = 0
        while n_setup < MIN_SETUP_CHILDREN or (
                n_setup < MAX_SETUP_CHILDREN
                and elapsed() + typical(lambda s: s["setup_only"]) <= seconds):
            samples.append(run_child(run_dir, len(samples), workload, seed, hard,
                                     setup_only=True))
            n_setup += 1
    _tidy(run_dir, samples)
    return samples


def _tidy(run_dir, samples):
    """Keep the files of the first passing full child and of every failed child."""
    keep = next((s for s in samples if s["ok"] and not s["setup_only"]), None)
    for s in samples:
        if s["ok"] and s is not keep:
            shutil.rmtree(run_dir / s["tag"], ignore_errors=True)
            (run_dir / f"{s['tag']}.json").unlink(missing_ok=True)


# --- metrics -------------------------------------------------------------------------

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(samples):
    full = [s for s in samples if not s["setup_only"]]
    good = [s for s in full if s["ok"]] or full
    facts = [s["facts"] for s in good if s.get("facts")]
    return {
        "wall_s": _median(s.get("wall_s") for s in good),
        "setup_s": _median(s.get("setup_s") for s in samples if s["ok"]),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in good),
        "pass_frac": sum(s["ok"] for s in samples) / len(samples),
        "mass_drift": _median(f["mass_drift"] for f in facts),
        "energy_balance_rel": _median(f["energy_balance_rel"] for f in facts),
    }


def per_layer(samples, workload):
    traced = [s for s in samples if s["trace"] and s["ok"]]
    untraced = [s for s in samples if not s["trace"] and s["ok"]]
    rows = []
    for s in traced:
        stats = tracer.summarize(s["spans"])
        f = s["facts"]
        row = {f"{span}.{field}": stats.get(span, {}).get(field, 0)
               for span, fields in LAYER_FIELDS.items() for field in fields}
        row.update({
            "model.table_bytes": s["table_bytes"],
            "solver.steps": f["steps"],
            "solver.dt": f["dt"],
            "solver.us_per_step": 1e6 * row["solver.run.busy_s"] / f["steps"],
            "solver.u_final_rel_l1_vs_ref": rel_l1_vs_ref(f["u_final"], workload),
            "kinetic.kinetic_residual.value": f["kinetic_residual"],
            "out.bytes": f["out_bytes"],
        })
        rows.append(row)
    names = [n for n in per_layer_units() if n != "trace.overhead_s"]
    metrics = {n: _median(r[n] for r in rows) for n in names}
    metrics["trace.overhead_s"] = (_median(s["wall_s"] for s in traced)
                                   - _median(s["wall_s"] for s in untraced))
    return metrics


# --- environment -----------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_revision():
    """HEAD of a .git directory at the root, read without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(ROOT / ".git" / ref)
    if rev is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                rev = line.split()[0]
    return rev


def _cpu():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return model or platform.processor() or None, caches


def _version(pkg):
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return None


def environment(seed, sample_counts):
    digest = hashlib.sha256()
    for path in sorted((SRC / "maniflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    model, caches = _cpu()
    return {
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache_l2": caches.get("L2"),
        "cache_l3": caches.get("L3"),
        "child_env": CHILD_ENV,
        "seed": seed,
        "samples": sample_counts,
    }


# --- entry point ---------------------------------------------------------------------

def _public(sample):
    """A sample without its spans and arrays, for the results file."""
    out = {k: v for k, v in sample.items() if k not in ("spans", "facts")}
    if sample.get("facts"):
        out["facts"] = {k: v for k, v in sample["facts"].items() if k != "u_final"}
    return out


def bench_one(workload, seed, seconds, trace):
    samples = measure(workload, seed, seconds, trace)
    if trace:
        metrics, units = per_layer(samples, workload), per_layer_units()
    else:
        metrics, units = end_to_end(samples), END_TO_END
    full = [s for s in samples if not s["setup_only"]]
    counts = {"children": len(samples), "full_runs": len(full),
              "traced": sum(s["trace"] for s in samples),
              "setup_only": len(samples) - len(full)}
    for s in samples:
        if not s["ok"]:
            print(f"perfbench: {workload} {s['tag']} failed: {s['reason']}", file=sys.stderr)
    result = {
        "workload": workload,
        "environment": environment(seed, counts),
        "samples": [_public(s) for s in samples],
        "correct": all(s["ok"] for s in samples),
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maniflow" / "cli.py").is_file():
        print(f"perfbench: program source not found at {SRC / 'maniflow'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [bench_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for r in results:
        print(json.dumps({"workload": r["workload"], "environment": r["environment"]}))
        for name, m in r["metrics"].items():
            print(f"{r['workload']:16s} {name:40s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
