"""Check that two source trees of maniflow give byte-identical outputs.

    python3 tools/same_outputs.py PARENT_SRC [CHANGE_SRC]

PARENT_SRC and CHANGE_SRC are directories that hold the `maniflow` package;
CHANGE_SRC defaults to this repository's src/.  Every case runs `maniflow`
in a fresh single-threaded process, once under each tree, with --out set:

- `run` and `audit-compat` on the six scenarios of `catalog.SCENARIOS`,
  written out as INI files;
- `study-eta` on `shock`, and `uniqueness` on `porous` and on the curved
  `curved_evo`, each with a short t_end;
- `run` on `shock` at cfl 1 and eta 1e-4, which fails in the step loop, so
  the error path's stderr, exit code and files are compared too;
- `run` on `curved_evo` with a sigma21 that cannot be sampled, a config
  error that names one key of a step that reads several;
- `run` on the benchmark workloads perfbench/workloads/*.ini, with
  diagnostics.battery_seed=0.

The scenarios are read from PARENT_SRC's catalog, so both trees get the same
input files.  Every output file, stdout, stderr and exit code that differs
byte for byte is listed, and the exit code is 1 if any does.  Under a JSON,
CSV or raw float64 file or stdout that differs, each numeric key that
differs is listed with its largest relative difference
|a - b| / max(|a|, |b|) over the numbers it holds.  A key that holds a
different count of numbers under each tree, such as a CSV column over a
run of another step count or a table of another row count, is listed with
both counts and the relative difference of its last number: the final
monitor row, or the last row of a table.  A key is a path of JSON
object keys, a CSV column's header name, `values` for all the numbers of a
raw dump, or on a text line the words before a number.  The script only
reads perfbench/ and writes only to a temporary directory.
"""

from __future__ import annotations

import json
import math
import os
import re
import runpy
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUANTIFIED = (".json", ".csv", ".f64")  # the output files whose numbers are compared
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# (name, command, catalog scenario, overrides)
VARIANTS = [("study-eta_shock", "study-eta", "shock", ["solver.t_end=0.05"]),
            ("uniqueness_porous", "uniqueness", "porous", ["solver.t_end=0.01"]),
            ("uniqueness_curved_evo", "uniqueness", "curved_evo", ["solver.t_end=0.01"]),
            ("run_shock_fails", "run", "shock", ["solver.cfl=1", "solver.eta=1e-4"]),
            ("run_bad_expression", "run", "curved_evo", ['scenario.sigma21="sqrt(xi - 2)"'])]


def ini_text(scenario):
    """A catalog scenario as config text; strings are quoted as expressions."""
    def value(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return f'"{v}"' if isinstance(v, str) else repr(v)

    return "".join(f"[{section}]\n" + "".join(f"{k} = {value(v)}\n" for k, v in keys.items())
                   for section, keys in scenario.items())


def cases(parent_src, ini_dir):
    """(name, argv without --out) of every case."""
    scenarios = runpy.run_path(str(Path(parent_src) / "maniflow" / "catalog.py"))["SCENARIOS"]
    out = []
    for name, scenario in scenarios.items():
        path = ini_dir / f"{name}.ini"
        path.write_text(ini_text(scenario))
        out += [(f"run_{name}", ["run", str(path)]),
                (f"audit-compat_{name}", ["audit-compat", str(path)])]
    for name, command, scenario, overrides in VARIANTS:
        argv = [command, str(ini_dir / f"{scenario}.ini")]
        out.append((name, argv + [a for o in overrides for a in ("--override", o)]))
    for path in sorted((ROOT / "perfbench" / "workloads").glob("*.ini")):
        out.append((f"workload_{path.stem}",
                    ["run", str(path), "--override", "diagnostics.battery_seed=0"]))
    return out


def run_case(src, argv, out_dir):
    """stdout, stderr, exit code and {relative path: bytes} of the --out files."""
    env = dict(os.environ, PYTHONPATH=str(src), **{k: "1" for k in THREADS})
    proc = subprocess.run([sys.executable, "-m", "maniflow.cli", *argv, "--out", str(out_dir)],
                          env=env, capture_output=True)
    files = {str(p.relative_to(out_dir)): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()} if out_dir.is_dir() else {}
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode}, files


def differences(parent, change):
    """What differs between two `run_case` results: (label, parent bytes, change bytes) each.

    The bytes are None where the label is all there is to say.
    """
    (p_streams, p_files), (c_streams, c_files) = parent, change
    out = [(k, p_streams[k], c_streams[k]) if k == "stdout" else (k, None, None)
           for k in p_streams if p_streams[k] != c_streams[k]]
    for name in sorted(set(p_files) | set(c_files)):
        if name not in c_files or name not in p_files:
            out.append((f"{name} only under {'parent' if name in p_files else 'change'}",
                        None, None))
        elif p_files[name] != c_files[name]:
            out.append((name,) + ((p_files[name], c_files[name]) if name.endswith(QUANTIFIED)
                                  else (None, None)))
    return out


# a number not inside a word such as L1
NUMBER = re.compile(r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan\b|inf\b)")


def numbers(data, name=""):
    """{key: [number, ...]} of the bytes of the file `name`.

    A raw float64 dump is one key, a CSV file one key per column, JSON one
    key per path, and other text is read line by line.
    """
    if name.endswith(".f64"):
        return {"values": list(struct.unpack(f"<{len(data) // 8}d", data))}
    text = data.decode(errors="replace")
    found = {}
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        for row in rows:
            for column, word in zip(header.split(","), row.split(",")):
                found.setdefault(column, []).append(float(word))
        return found

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}/{k}" if key else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, f"{key}[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found.setdefault(key, []).append(float(node))

    try:
        walk(json.loads(text), "")
    except ValueError:
        for line in text.splitlines():
            at = 0
            for match in NUMBER.finditer(line):
                label = line[at:match.start()].strip() or "(number)"
                found.setdefault(label, []).append(float(match.group()))
                at = match.end()
    return found


def relative_differences(parent, change, name=""):
    """(key, largest relative difference) of every numeric key of the file `name` that differs."""
    def rel(a, b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return abs(a - b) / max(abs(a), abs(b))

    p_nums, c_nums = numbers(parent, name), numbers(change, name)
    out = []
    for key in sorted(set(p_nums) | set(c_nums)):
        a, b = p_nums.get(key, []), c_nums.get(key, [])
        if len(a) != len(b):
            last = f", relative difference of the last {rel(a[-1], b[-1]):.3g}" if a and b else ""
            out.append((key, f"{len(a)} numbers under parent, {len(b)} under change{last}"))
        else:
            worst = max((rel(x, y) for x, y in zip(a, b)), default=0.0)
            if worst:
                out.append((key, f"largest relative difference {worst:.3g}"))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src = Path(argv[0]).resolve()
    change_src = Path(argv[1] if len(argv) == 2 else ROOT / "src").resolve()
    for src in (parent_src, change_src):
        if not (src / "maniflow" / "cli.py").is_file():
            print(f"same_outputs: no maniflow package under {src}", file=sys.stderr)
            return 2
    found = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, case in cases(parent_src, tmp):
            results = [run_case(src, case, tmp / tree / name)
                       for tree, src in (("parent", parent_src), ("change", change_src))]
            diff = differences(*results)
            found += len(diff)
            rc = results[0][0]["exit code"]
            print(f"{name}: exit {rc}, {len(results[0][1])} files, "
                  + ("same" if not diff else "DIFFERS: " + ", ".join(d[0] for d in diff)))
            for label, p_bytes, c_bytes in diff:
                if p_bytes is not None:
                    for key, what in relative_differences(p_bytes, c_bytes, label):
                        print(f"  {label} {key}: {what}")
            sys.stdout.flush()
    print(f"{found} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
