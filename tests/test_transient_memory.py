"""Passes over xi-tables hold at most one table-sized temporary at a time.

Each warm call's tracemalloc peak, above the bytes live when it starts, on
`curved2d` at 32^2 with n_xi = 32, is bounded in units of a table it reads
or builds.  The measured ratios are given beside each bound, with the
ratio of the all-at-once forms these replace.
"""

import tracemalloc

import numpy as np
import pytest

from maniflow import catalog, cli, entropy, geometry, model


@pytest.fixture(scope="module")
def pipe():
    cfg = {s: dict(kv) for s, kv in catalog.SCENARIOS["curved_const"].items()}
    cfg["grid"]["n"], cfg["xi"]["n"] = 32, 32
    return cli.build_pipeline(cfg)


def traced_peak(call):
    """Bytes that a warm `call()` allocates at its peak, above those live when it starts.

    A first call also pays numpy's one-time costs, which the warm call leaves out.
    """
    call()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def cumtrapz(p):
    return (lambda: model.cumtrapz_edges(p.dm.aprime, p.xi.dxi)), p.dm.aprime.nbytes


def psd(p):
    return (lambda: model.psd_audit(p.dm)), p.dm.aprime.nbytes


def flux_fields(p):
    u = p.u0 + 0.1 * np.sin(2 * np.pi * p.grid.coords()[0])
    return ((lambda: entropy.entropy_flux_fields(u, entropy.square_entropy(), p.fm, p.dm)),
            p.dm.aprime.nbytes)


def stencil(p):
    return (lambda: geometry.transport_stencil(p.M, 1e-3)), \
        geometry.transport_stencil(p.M, 1e-3).weights.nbytes


# (call and reference size, bound in units of the reference)
CASES = {
    # the output: 1.09 (2.06 with a separate steps array)
    "cumtrapz_edges": (cumtrapz, 1.1),
    # g a', its symmetric part's least eigenvalue formed in place: 1.06 (1.25 with
    # one of 8 random directions' forms at a time, 3.00 with all 8 at once)
    "psd_audit": (psd, 1.5),
    # a' S' and its antiderivative: 2.12 (3.56 with both antiderivatives alive)
    "entropy_flux_fields": (flux_fields, 2.25),
    # in units of the stencil's weights: 2.93 (4.71 probing all d + d*d + 1 columns)
    "transport_stencil": (stencil, 3.25),
}


@pytest.mark.parametrize("case", list(CASES))
def test_transient_memory_is_bounded(pipe, case):
    setup, bound = CASES[case]
    call, reference = setup(pipe)
    assert traced_peak(call) <= bound * reference
