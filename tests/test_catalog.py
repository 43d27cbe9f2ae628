"""The catalog scenarios run through the CLI pipeline, and the benchmark
workloads are faithful copies of them."""

import copy
import re
from pathlib import Path

import numpy as np
import pytest

from maniflow import catalog, cli, model

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


@pytest.mark.parametrize("name", sorted(catalog.SCENARIOS))
def test_scenario_builds(name):
    pipe = cli.build_pipeline(catalog.SCENARIOS[name])
    assert pipe.grid.n == catalog.SCENARIOS[name]["grid"]["n"]


def header_claims(text):
    """(source scenario, {section.key: value}) from a workload's header comment."""
    source = re.search(r'^# Source: maniflow\.catalog\.SCENARIOS\["(\w+)"\]', text, re.M)
    overrides = dict(re.findall(r"^#\s+(\w+\.\w+) = (\S+)", text, re.M))
    return source.group(1), overrides


@pytest.mark.parametrize("path", sorted(WORKLOADS.glob("*.ini")), ids=lambda p: p.stem)
def test_workload_is_catalog_entry_plus_listed_overrides(path):
    source, overrides = header_claims(path.read_text())
    expected = {s: dict(kv) for s, kv in catalog.SCENARIOS[source].items()}
    for target, value in overrides.items():
        section, key = target.split(".")
        expected.setdefault(section, {})[key] = cli._parse_value(value)
    assert cli.load_config(str(path)) == expected


def is_xi_major(table, grid_ndim):
    """Within each component, all nodes at one edge adjacent in memory: the one storage order."""
    return np.moveaxis(table, -1, table.ndim - 1 - grid_ndim).flags.c_contiguous


@pytest.mark.parametrize("name", sorted(catalog.SCENARIOS))
def test_lookup_tables_are_read_without_a_copy(name, monkeypatch):
    # every edge table is stored xi-major, so each lookup views a component's edge
    # and grid axes as one flat axis; a table in any other layout is copied whole
    cfg = copy.deepcopy(catalog.SCENARIOS[name])
    cfg["solver"]["t_end"] = 1e-9  # one step
    seen, lookups = {}, []

    def keep(fn, key):
        def wrapped(*args, **kwargs):
            seen[key] = fn(*args, **kwargs)
            return seen[key]
        return wrapped

    model_flat = model._flat

    def flat(table, grid_ndim):
        out = model_flat(table, grid_ndim)
        lookups.append(np.shares_memory(out, table))
        return out

    monkeypatch.setattr(cli, "build_pipeline", keep(cli.build_pipeline, "pipe"))
    monkeypatch.setattr(model, "transport_table", keep(model.transport_table, "transport"))
    monkeypatch.setattr(model, "_flat", flat)
    cli.cmd_run(cfg, None)
    cli.cmd_audit_compat(cfg, None)

    pipe, d = seen["pipe"], cfg["grid"]["d"]
    fm, dm = pipe.fm, pipe.dm
    for table in (fm.f, fm.fprime, dm.sigma, dm.sigmaT, dm.aprime, dm.A, seen["transport"]):
        assert is_xi_major(table, d)
    assert lookups and all(lookups), f"{lookups.count(False)} of {len(lookups)} lookups copied"
