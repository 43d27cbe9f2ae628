"""The benchmark reads program attributes by name; each must exist.

The traced run wraps layer functions, and every benchmark child reads the
coefficient tables of the pipeline it built.
"""

import importlib.util
import sys
from pathlib import Path

from maniflow import catalog, cli, entropy, fieldio, geometry, kinetic, model, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODS = {"cli": cli, "entropy": entropy, "fieldio": fieldio, "geometry": geometry,
        "kinetic": kinetic, "model": model, "solver": solver}


def load(name, module_name):
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer.py", "perfbench_tracer")


def test_every_traced_attribute_exists():
    tracer = load_tracer()
    targets = tracer.setup_targets(MODS) + tracer.layer_targets(MODS)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in vars(owner)]
    assert not missing


def test_child_reads_the_coefficient_tables(monkeypatch):
    monkeypatch.setitem(sys.modules, "tracer", load_tracer())  # child.py imports it by name
    child = load("child.py", "perfbench_child")
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS["curved_evo"].items()}
    cfg["grid"]["n"], cfg["xi"]["n"] = 16, 16
    pipe = cli.build_pipeline(cfg)
    # f and f' are vector tables, sigma, sigma^t, a' and A tensor tables, on 16^2 x 17 edges
    assert child._table_bytes(pipe) == (2 * 2 + 4 * 4) * 16 * 16 * 17 * 8


def test_operator_spans_see_the_assembly_and_the_kinetic_residual():
    """The three operators sit behind `geometry.transport`; their traced spans still see every call.

    Each assembly probe applies `transport` once, and a kinetic residual
    applies it once on sums over all snapshots, so each operator is called
    once per probe and once per kinetic residual.
    """
    tracer = load_tracer()
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS["curved_evo"].items()}
    cfg["grid"]["n"], cfg["xi"]["n"] = 16, 16
    cfg["solver"].update(t_end=1e-3, snapshots=2)
    pipe = cli.build_pipeline(cfg)
    ops = ("div_vector", "divdiv_tensor11", "laplace_beltrami")
    rec = tracer.Recorder()
    targets = [(geometry, name, name) for name in ops] + [
        (geometry, "assemble_stencil", "assembly"), (kinetic, "kinetic_residual", "kinetic")]
    with tracer.Patches(rec, targets):
        traj = pipe.run()
        kinetic.kinetic_residual(traj, pipe.fm, pipe.dm,
                                 kinetic.kinetic_battery(pipe.grid, pipe.xi))
    for name in ops:
        parents = [rec.spans[parent][0] for span, _, _, parent in rec.spans if span == name]
        # the zeroth probe, one probe per comb phase and the reach check
        assert parents.count("assembly") == 2 + 4 ** pipe.grid.d, name
        assert parents.count("kinetic") == 1, name


def test_each_rhs_makes_one_traced_lookup():
    """`solver.rhs` reads F and T with one `xi_interp`, looked up where the tracer wraps it."""
    tracer = load_tracer()
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS["curved_evo"].items()}
    cfg["grid"]["n"], cfg["xi"]["n"] = 16, 16
    cfg["solver"].update(t_end=1e-3, snapshots=2)
    pipe = cli.build_pipeline(cfg)
    rec = tracer.Recorder()
    with tracer.Patches(rec, tracer.layer_targets(MODS)):
        pipe.run()
    rhs_spans = [i for i, (name, _, _, _) in enumerate(rec.spans) if name == "solver.rhs"]
    parents = [parent for name, _, _, parent in rec.spans if name == "model.xi_interp"]
    in_rhs = set(rhs_spans)
    assert rhs_spans
    assert sorted(p for p in parents if p in in_rhs) == rhs_spans
