"""One benchmark child: a single `maniflow run` (or set-up only) in a fresh process.

    python3 perfbench/child.py --result FILE --ini INI --out DIR
                               [--override SEC.KEY=VALUE ...] [--trace] [--setup-only]

The program's source directory must be on PYTHONPATH. `cli.load_config` and
`cli.build_pipeline` are always wrapped, which gives `setup_s`; `--trace`
also wraps every layer function in tracer.layer_targets. The timed region is
`cli.main` itself, so interpreter start and imports are excluded. The result
file holds the exit code, the times and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import tracer


def _modules():
    from maniflow import cli, entropy, fieldio, geometry, kinetic, model, solver
    return {"cli": cli, "entropy": entropy, "fieldio": fieldio, "geometry": geometry,
            "kinetic": kinetic, "model": model, "solver": solver}


def _table_bytes(pipe):
    fm, dm = pipe.fm, pipe.dm
    return int(sum(a.nbytes for a in (fm.f, fm.fprime, dm.sigma, dm.sigmaT, dm.aprime, dm.A)))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ini", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--override", action="append", default=[])
    args = parser.parse_args(argv)

    mods = _modules()
    cli = mods["cli"]
    rec = tracer.Recorder(keep=("cli.build_pipeline",))
    targets = tracer.setup_targets(mods)
    if args.trace:
        targets += tracer.layer_targets(mods)
    with tracer.Patches(rec, targets):
        start = time.perf_counter()
        if args.setup_only:
            cli.build_pipeline(cli.load_config(args.ini, overrides=args.override))
            rc = 0
        else:
            argv = ["run", args.ini, "--out", args.out]
            for item in args.override:
                argv += ["--override", item]
            rc = cli.main(argv)
        wall = time.perf_counter() - start

    stats = tracer.summarize(rec.spans)
    pipe = rec.returned.get("cli.build_pipeline")
    result = {
        "rc": rc,
        "wall_s": wall,
        "setup_s": sum(stats[name]["busy_s"] for name in tracer.SETUP_SPANS if name in stats),
        "table_bytes": _table_bytes(pipe) if pipe is not None else None,
        "spans": rec.spans if args.trace else None,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
