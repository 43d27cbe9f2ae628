"""Test-only builders: the Euclidean metric, zero coefficient models, a quartic entropy
and the binary kinetic function.

No command reaches these, so they live with the tests rather than in the
package.
"""

import numpy as np

from maniflow.entropy import EntropyFn
from maniflow.geometry import MetricField
from maniflow.model import DiffusionModel, FluxModel


def euclidean_metric(grid):
    g = np.zeros((grid.d, grid.d) + grid.shape)
    for i in range(grid.d):
        g[i, i] = 1.0
    return MetricField(grid, g)


def zero_flux(grid, xi):
    return FluxModel(grid, xi, np.zeros((grid.d,) + grid.shape + (xi.n + 1,)))


def zero_diffusion(M, xi):
    grid = M.grid
    return DiffusionModel(M, xi, np.zeros((grid.d, grid.d) + grid.shape + (xi.n + 1,)))


def quartic_entropy():
    return EntropyFn(lambda v: 0.25 * v ** 4, lambda v: v ** 3, lambda v: 3.0 * v * v,
                     name="quarter-quartic")


def chi_from_u(u, xi):
    """Binary kinetic function on grid x bin-centers: 1 where the center is at or below u.

    The bin-center rule written out directly, so that checks against it do
    not share `kinetic.level_count`'s search.
    """
    return (xi.centers <= np.asarray(u, dtype=float)[..., None]).astype(float)
