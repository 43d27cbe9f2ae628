"""Span recording around maniflow's public functions, installed from outside.

Each wrapper is set on the attribute its callers look up (a module global or
a class attribute), so the program's own files stay untouched. Spans stay in
memory as [name, start, end, parent] rows and are summarised after the run;
`Patches.restore` puts every original attribute back.
"""

from __future__ import annotations

import functools
import time

SETUP_SPANS = ("cli.load_config", "cli.build_pipeline")
STEP_SPAN = "solver.run"


def setup_targets(mods):
    """The two set-up calls; wrapped in every child so `setup_s` is measured."""
    cli = mods["cli"]
    return [(cli, "load_config", "cli.load_config"),
            (cli, "build_pipeline", "cli.build_pipeline")]


def layer_targets(mods):
    """(owner, attribute, span name) for every function the traced run times.

    `owner` is where the caller looks the name up: `cli` imported `run`,
    `build_metric`, `psd_audit` and `make_compatible_flux` by name, the
    solver imported `deposit`, and `entropy` imported `xi_interp`.
    """
    cli, solver, geometry, model = mods["cli"], mods["solver"], mods["geometry"], mods["model"]
    entropy, kinetic, fieldio = mods["entropy"], mods["kinetic"], mods["fieldio"]
    targets = [
        (cli, "run", "solver.run"),
        (solver, "run", "solver.run"),
        (solver, "rhs", "solver.rhs"),
        (solver, "deposit", "entropy.deposit"),
        (cli, "build_metric", "geometry.build_metric"),
        (cli, "psd_audit", "model.psd_audit"),
        (cli, "make_compatible_flux", "model.tabulate"),
        (model.FluxModel, "from_exprs", "model.tabulate"),
        (model.DiffusionModel, "from_exprs", "model.tabulate"),
        (model, "xi_interp", "model.xi_interp"),
        (entropy, "xi_interp", "model.xi_interp"),
        (kinetic, "kinetic_residual", "kinetic.kinetic_residual"),
        (kinetic, "friedrichs_commutator", "kinetic.friedrichs_commutator"),
        (fieldio, "write_csv", "fieldio.write"),
        (fieldio, "write_raw", "fieldio.write"),
        (cli, "_write_monitors", "fieldio.write"),
        (cli, "_write_ledger", "fieldio.write"),
        (cli, "_json_dump", "fieldio.write"),
    ]
    for name in ("divdiv_tensor11", "div_vector", "laplace_beltrami", "div_tensor11"):
        targets.append((geometry, name, f"geometry.{name}"))
    for name in ("entropy_residual", "chain_rule_residual", "energy_balance", "nu_bound_check"):
        targets.append((entropy, name, f"entropy.{name}"))
    for mod in (geometry, model, entropy, kinetic):
        targets.append((mod, "compile_expr", "exprparse.compile_expr"))
    return targets


class Recorder:
    """In-memory span list; `returned` keeps the last result of kept spans."""

    def __init__(self, keep=()):
        self.spans = []
        self.returned = {}
        self._stack = []
        self._keep = frozenset(keep)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        returned = self.returned if name in self._keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()
            if returned is not None:
                returned[name] = result
            return result

        return wrapper


class Patches:
    """Wrappers installed on (owner, attribute) pairs, undone by `restore`."""

    def __init__(self, recorder, targets):
        self._saved = []
        try:
            for owner, attr, span in targets:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(recorder.wrap(span, original.__func__))
                else:
                    wrapped = recorder.wrap(span, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def summarize(spans):
    """Per span name: calls, busy, self and per-stage time.

    busy_s counts only spans with no same-name ancestor, so nested calls are
    not counted twice. self_s is busy time minus the time of direct child
    spans. A span's stage is `setup` under cli.load_config/build_pipeline,
    `step` under solver.run, and `diag` otherwise (everything after the step
    loop: diagnostics and output).
    """
    n = len(spans)
    stage = [""] * n
    outer = [True] * n
    child_time = [0.0] * n
    stats = {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        if name in SETUP_SPANS:
            stage[i] = "setup"
        elif name == STEP_SPAN:
            stage[i] = "step"
        else:
            stage[i] = stage[parent] if parent >= 0 else "diag"
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer[i] = False
                break
            p = spans[p][3]
        if parent >= 0:
            child_time[parent] += dur
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "setup_s": 0.0, "step_s": 0.0, "diag_s": 0.0})
        s["calls"] += 1
        if outer[i]:
            s["busy_s"] += dur
            s[stage[i] + "_s"] += dur
    for i, (name, start, end, _) in enumerate(spans):
        if outer[i]:
            stats[name]["self_s"] += (end - start) - child_time[i]
    return stats
