import numpy as np
import pytest

from maniflow import fieldio
from maniflow.geometry import ChartGrid


@pytest.mark.parametrize("d, lead", [(1, ()), (2, ()), (2, (2,))], ids=["1d", "2d", "components"])
def test_raw_round_trip_is_bitwise(tmp_path, d, lead):
    grid = ChartGrid(d, 16)
    field = np.random.default_rng(0).normal(size=lead + grid.shape)
    path = str(tmp_path / "field.f64")
    fieldio.write_raw(field, grid, path)
    back, header = fieldio.read_raw(path)
    assert header == {"d": d, "n": 16, "components": list(lead)}
    assert back.shape == field.shape
    assert back.tobytes() == field.tobytes()


@pytest.mark.parametrize("d, lead, columns", [
    (1, (), ["i", "c0"]),
    (2, (), ["i", "j", "c0"]),
    (2, (2,), ["i", "j", "c0", "c1"]),
], ids=["1d", "2d", "components"])
def test_csv_headers_and_rows(tmp_path, d, lead, columns):
    grid = ChartGrid(d, 16)
    field = np.random.default_rng(1).normal(size=lead + grid.shape)
    path = tmp_path / "field.csv"
    fieldio.write_csv(field, grid, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == columns
    assert len(lines) == 1 + 16 ** d
    # node-major, full precision: the last node's components come back exactly
    last = [float(v) for v in lines[-1].split(",")[d:]]
    assert last == list(field.reshape(lead + (-1,)).reshape(-1, 16 ** d)[:, -1])
