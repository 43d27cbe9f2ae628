"""The catalog scenarios run through the CLI pipeline, and the benchmark
workloads are faithful copies of them."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from maniflow import catalog, cli, model, solver

solver_rhs = solver.rhs

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


@pytest.mark.parametrize("name", sorted(catalog.SCENARIOS))
def test_lookup_tables_are_read_without_a_copy(name, monkeypatch):
    # the xi-lookup reads each component's grid and edge axes as one flat axis of
    # the stored table; a strided table would be copied whole on every lookup
    pipe = cli.build_pipeline(catalog.SCENARIOS[name])
    d = pipe.grid.d
    run_tables = {}

    def rhs(u, table, xi, stencil):
        run_tables["transport"] = table
        return solver_rhs(u, table, xi, stencil)

    def deposit(u, sigmaT, *rest):
        run_tables["sigmaT"] = sigmaT

    monkeypatch.setattr(solver, "rhs", rhs)
    monkeypatch.setattr(solver, "deposit", deposit)
    cfg = dataclasses.replace(pipe.solver_cfg, t_end=1e-9)  # one step
    solver.run(cfg, pipe.fm, pipe.dm, pipe.M, pipe.u0, pipe.xi)
    assert set(run_tables) == {"transport", "sigmaT"}

    # the models' tables are grid-major; the tables the step loop owns are xi-major
    for table in (pipe.fm.f, pipe.dm.A, pipe.dm.sigmaT):
        assert table.flags.c_contiguous
    for table in run_tables.values():
        assert np.moveaxis(table, -1, table.ndim - 1 - d).flags.c_contiguous
    assert np.array_equal(run_tables["sigmaT"], pipe.dm.sigmaT)
    for table in (pipe.fm.f, pipe.dm.A, pipe.dm.sigmaT, *run_tables.values()):
        assert np.shares_memory(model._flat(table, d)[0], table)
