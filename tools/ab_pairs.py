"""Alternating pairs of benchmark children under two source trees, with the claim rule.

    python3 tools/ab_pairs.py PARENT_SRC [CHANGE_SRC] --workload W --pairs N --seed S
                              [--setup-only]

PARENT_SRC and CHANGE_SRC are directories that hold the `maniflow` package;
CHANGE_SRC defaults to this repository's src/.  Each pair runs
perfbench/child.py on workload W once under each tree, each in a fresh
process with perfbench's single-thread child environment (which sets
PYTHONHASHSEED=0) and `diagnostics.battery_seed=S`; the side that runs first
alternates from pair to pair.  `wall_s` and `setup_s` are read from the
child's result file and `peak_rss_mb` from `os.wait4`.  Each full child's
output directory goes through the benchmark's own output gate,
`check_output` of perfbench/run.py, which also gives its `mass_drift` and
`energy_balance_rel`.  `--setup-only` children build the pipeline and stop,
and report `setup_s` and `peak_rss_mb` only.

Per metric (lower is better) it prints each side's median and quartiles, the
pairs the change won (ties count for neither side), and whether a gain may be
claimed: the change wins at least 9 in 10 of the pairs, and the parent's
median exceeds the change's by more than the parent's interquartile range.
A child that exits non-zero, or whose output the gate rejects, stops the
script with exit code 1 and the reason.  The script only reads perfbench/
and writes only to a temporary directory.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
ACCURACY = ("mass_drift", "energy_balance_rel")  # the gate's facts that the table shows


@functools.cache
def perfbench_run():
    """perfbench/run.py, loaded once: its child environment and its output gate."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the gate reads u_final through `maniflow.fieldio`
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling `tracer`
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def child_env():
    """perfbench's environment for a child: BLAS/OpenMP pinned to one thread, fixed hash seed."""
    return dict(perfbench_run().CHILD_ENV)


def gate(returncode, out_dir):
    """perfbench's output gate on one full child: {metric: value} for the ACCURACY metrics.

    Raises RuntimeError with the gate's reason when it rejects the output.
    """
    facts, reason = perfbench_run().check_output(returncode, out_dir)
    if reason is not None:
        raise RuntimeError(reason)
    return {name: facts[name] for name in ACCURACY}


def run_child(src, workload, seed, setup_only, work, env):
    """One child under source tree `src`: {metric: value}."""
    result, out = work / "result.json", work / "out"
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result),
           "--ini", str(BENCH / "workloads" / f"{workload}.ini"), "--out", str(out),
           "--override", f"diagnostics.battery_seed={seed}"]
    if setup_only:
        cmd.append("--setup-only")
    with open(work / "child.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(env, PYTHONPATH=str(src)),
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    returncode = os.waitstatus_to_exitcode(status)
    if returncode != 0:
        raise RuntimeError(f"child under {src} exited {returncode}:\n"
                           + (work / "child.log").read_text()[-2000:])
    with open(result) as fh:
        child = json.load(fh)
    sample = {"setup_s": child["setup_s"], "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if not setup_only:
        sample["wall_s"] = child["wall_s"]
        try:
            sample.update(gate(returncode, out))
        except RuntimeError as exc:
            raise RuntimeError(f"child under {src} fails the output gate: {exc}") from None
    return sample


def summarize(parent, change):
    """The claim rule on paired samples of one lower-is-better metric.

    `parent[i]` and `change[i]` are the two runs of pair i.  Returns each
    side's (lower quartile, median, upper quartile), the pairs the change won,
    the pair count and whether a gain may be claimed.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, with one parent and one change run each")
    quart = {side: tuple(statistics.quantiles(runs, n=4, method="inclusive"))
             for side, runs in (("parent", parent), ("change", change))}
    wins = sum(c < p for p, c in zip(parent, change))
    p_lo, p_mid, p_hi = quart["parent"]
    claim = 10 * wins >= 9 * len(parent) and p_mid - quart["change"][1] > p_hi - p_lo
    return {"parent": quart["parent"], "change": quart["change"], "wins": wins,
            "pairs": len(parent), "claim": claim}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?", default=ROOT / "src")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for src in trees.values():
        if not (src / "maniflow" / "cli.py").is_file():
            parser.error(f"no maniflow package under {src}")
    if not (BENCH / "workloads" / f"{args.workload}.ini").is_file():
        parser.error(f"no workload {args.workload!r} under {BENCH / 'workloads'}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    env = dict(os.environ, **child_env())
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                work = Path(tmp) / f"{i:03d}_{side}"
                work.mkdir()
                try:
                    runs[side].append(run_child(trees[side], args.workload, args.seed,
                                                args.setup_only, work, env))
                except RuntimeError as exc:
                    print(f"ab_pairs: {exc}", file=sys.stderr)
                    return 1
            print(f"pair {i + 1}: " + "  ".join(
                f"{side} {' '.join(f'{k}={v:.4g}' for k, v in runs[side][-1].items())}"
                for side in order), flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, parent {trees['parent']}, "
          f"change {trees['change']}")
    for metric in runs["parent"][0]:
        s = summarize([r[metric] for r in runs["parent"]], [r[metric] for r in runs["change"]])
        (pl, pm, ph), (cl, cm, ch) = s["parent"], s["change"]
        print(f"{metric}: parent {pm:.4g} [{pl:.4g}, {ph:.4g}]  change {cm:.4g} [{cl:.4g}, "
              f"{ch:.4g}]  ratio {cm / pm:.3f}  change lower in {s['wins']} of {s['pairs']}  "
              f"claim {'holds' if s['claim'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
