"""The benchmark reads program attributes by name; each must exist.

The traced run wraps layer functions, and every benchmark child reads the
coefficient tables of the pipeline it built.
"""

import importlib.util
import sys
from pathlib import Path

from maniflow import catalog, cli, entropy, fieldio, geometry, kinetic, model, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, module_name):
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer.py", "perfbench_tracer")


def test_every_traced_attribute_exists():
    tracer = load_tracer()
    mods = {"cli": cli, "entropy": entropy, "fieldio": fieldio, "geometry": geometry,
            "kinetic": kinetic, "model": model, "solver": solver}
    targets = tracer.setup_targets(mods) + tracer.layer_targets(mods)
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
