"""The catalog scenarios run through the CLI pipeline, and the benchmark
workloads are faithful copies of them."""

import re
from pathlib import Path

import pytest

from maniflow import catalog, cli

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
