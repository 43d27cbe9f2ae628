"""The traced benchmark run wraps program attributes by name; each must exist."""

import importlib.util
from pathlib import Path

from maniflow import cli, entropy, fieldio, geometry, kinetic, model, solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracer = load_tracer()
    mods = {"cli": cli, "entropy": entropy, "fieldio": fieldio, "geometry": geometry,
            "kinetic": kinetic, "model": model, "solver": solver}
    targets = tracer.setup_targets(mods) + tracer.layer_targets(mods)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in vars(owner)]
    assert not missing
