"""Field serialization: CSV (node-major, full precision) and raw dumps."""

from __future__ import annotations

import json
import math

import numpy as np


def _component_count(field, grid):
    lead = field.shape[: field.ndim - grid.d]
    return math.prod(lead), lead


def write_csv(field, grid, path):
    """Node-major CSV: node index columns, then one column per component."""
    field = np.asarray(field, dtype=float)
    count, lead = _component_count(field, grid)
    flat = field.reshape(lead + (-1,)).reshape(count, -1)  # comps x nodes
    headers = ["i"] + (["j"] if grid.d == 2 else []) + [f"c{k}" for k in range(count)]
    nodes = np.indices(grid.shape).reshape(grid.d, -1)
    np.savetxt(path, np.vstack((nodes, flat)).T, fmt=["%d"] * grid.d + ["%.17g"] * count,
               delimiter=",", header=",".join(headers), comments="")


def write_raw(field, grid, path):
    """Little-endian float64 dump plus a JSON sidecar header."""
    field = np.ascontiguousarray(field, dtype="<f8")
    count, lead = _component_count(field, grid)
    field.tofile(path)
    header = {"d": grid.d, "n": grid.n, "components": list(lead)}
    with open(path + ".json", "w") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")


def read_raw(path):
    """Read a raw dump back; returns (array, header dict)."""
    with open(path + ".json") as fh:
        header = json.load(fh)
    data = np.fromfile(path, dtype="<f8")
    shape = tuple(header["components"]) + (header["n"],) * header["d"]
    return data.reshape(shape), header
