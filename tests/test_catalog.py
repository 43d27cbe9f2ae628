"""The catalog scenarios run through the CLI pipeline, and the benchmark
workloads are faithful copies of them."""

import re
from pathlib import Path

import numpy as np
import pytest

from maniflow import catalog, cli
from maniflow.model import transport_table

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
def test_lookup_tables_are_read_without_a_copy(name):
    # the xi-lookup reads grid and edge axes as one flat axis of the stored table;
    # a strided table would be copied whole on every lookup
    pipe = cli.build_pipeline(catalog.SCENARIOS[name])
    for table in (pipe.fm.f, pipe.dm.A, pipe.dm.sigmaT, transport_table(pipe.fm, pipe.dm)):
        assert table.flags.c_contiguous
        comps = table.shape[:table.ndim - 1 - pipe.grid.d]
        assert np.shares_memory(table.reshape(comps + (-1,)), table)
