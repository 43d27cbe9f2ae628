"""Memory per phase of one `maniflow run`, in process under tracemalloc.

    python3 tools/mem_phases.py CONFIG [--override SEC.KEY=VALUE ...]

Runs `maniflow run CONFIG --out TMP` in this process with tracemalloc on and
wraps each phase of the run: `build_pipeline`, `transport_stencil`,
`stable_dt`, `transport_table`, `run` (the step loop, which holds the three
before it) and each diagnostic `cmd_run` calls.  For every call of a phase
it prints the traced MB live when the call starts, the traced peak during the
call above that, and the process's `ru_maxrss` in MB when the call returns.  A phase
called more than once (an entropy residual per entropy, a chain-rule residual
per psi) gets one row per call.  tracemalloc adds its own overhead to the
RSS, so the RSS column compares only with other runs of this script.  The
script reads only the config and writes only to a temporary directory; the
report that `run` prints is dropped, and the exit code is `run`'s.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from maniflow import cli, entropy, geometry, kinetic, model, solver  # noqa: E402

MB = 1024.0 * 1024.0

# (module, phase): each phase function is wrapped where its caller looks it up
PHASES = [
    (cli, "build_pipeline"), (geometry, "transport_stencil"), (solver, "stable_dt"),
    (model, "transport_table"), (cli, "run"), (entropy, "energy_balance"),
    (entropy, "entropy_residual"), (entropy, "chain_rule_residual"),
    (entropy, "nu_bound_check"), (cli, "psd_audit"), (kinetic, "kinetic_residual"),
    (kinetic, "friedrichs_commutator"),
]


class PhaseMeter:
    """Wraps phase functions; records (phase, live MB, peak MB above live, maxrss MB) per call.

    Phases nest (`run` holds the stencil, the step bound and the table): an
    inner call resets tracemalloc's peak, so the outer call's peak so far is
    saved before it and the inner peak is carried back into the outer one
    after it.
    """

    def __init__(self):
        self.rows = []
        self._stack = []  # per open call: the highest traced bytes seen so far

    def wrap(self, phase, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self._stack:
                self._stack[-1] = max(self._stack[-1], tracemalloc.get_traced_memory()[1])
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self._stack.append(live)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(self._stack.pop(), tracemalloc.get_traced_memory()[1])
                if self._stack:
                    self._stack[-1] = max(self._stack[-1], peak)
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.rows.append((phase, live / MB, (peak - live) / MB, rss))
        return measured


@contextlib.contextmanager
def patched(meter):
    saved = [(mod, phase, getattr(mod, phase)) for mod, phase in PHASES]
    try:
        for mod, phase, fn in saved:
            setattr(mod, phase, meter.wrap(phase, fn))
        yield
    finally:
        for mod, phase, fn in saved:
            setattr(mod, phase, fn)


def measure(config, overrides=()):
    """`maniflow run` on `config` under tracemalloc: (exit code, rows of `PhaseMeter`)."""
    meter = PhaseMeter()
    argv = ["run", str(config)] + [a for o in overrides for a in ("--override", o)]
    with tempfile.TemporaryDirectory() as tmp, patched(meter), \
            contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            rc = cli.main(argv + ["--out", tmp])
        finally:
            tracemalloc.stop()
    return rc, meter.rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--override", action="append", default=[], metavar="SEC.KEY=VALUE")
    args = parser.parse_args(argv)
    if not args.config.is_file():
        parser.error(f"no config file {args.config}")
    rc, rows = measure(args.config, args.override)
    print(f"{'phase':<22} {'live MB':>9} {'peak +MB':>9} {'maxrss MB':>10}")
    for phase, live, peak, rss in rows:
        print(f"{phase:<22} {live:9.1f} {peak:+9.1f} {rss:10.1f}")
    print(f"run exit code {rc}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
