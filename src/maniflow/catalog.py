"""Named metrics and reference scenarios used by configs and tests.

Each scenario is a config in the schema `cli.parse_config` returns, a plain
{section: {key: value}} dict, so `cli.build_pipeline(SCENARIOS[name])` runs
it.  Amplitudes in the curved 2D scenarios are deliberately small so that
the stencil truncation of the manufactured compatible pairs stays well below
the audit threshold at n = 64.
"""

from __future__ import annotations

METRICS = {
    "flat1d": {"d": 1, "entries": [["1"]]},
    "flat2d": {"d": 2, "entries": [["1", "0"], ["0", "1"]]},
    "wavy1d": {"d": 1, "entries": [["(1 + 0.5*sin(2*pi*x1))^2"]]},
    "diag2d": {"d": 2, "entries": [
        ["1 + 0.3*cos(2*pi*x1)", "0"],
        ["0", "1 + 0.3*cos(2*pi*x2)"]]},
    "curved2d": {"d": 2, "entries": [
        ["1 + 0.25*sin(2*pi*x1)*cos(2*pi*x2)", "0.1*sin(2*pi*x1)*sin(2*pi*x2)"],
        ["0.1*sin(2*pi*x1)*sin(2*pi*x2)", "1 + 0.25*cos(2*pi*x1)"]]},
}

_CURVED_PAIR = {
    "sigma11": "0.3 + 0.3*xi + 0.005*sin(2*pi*x1)",
    "sigma12": "0",
    "sigma21": "0",
    "sigma22": "0.3 + 0.3*xi + 0.005*cos(2*pi*x2)",
    "compatible": True,
    "stream": "0.005*sin(2*pi*x1)*sin(2*pi*x2)",
}

SCENARIOS = {
    # everything vanishes: residual smoke test
    "const": {
        "grid": {"d": 2, "n": 32},
        "xi": {"n": 32},
        "metric": {"name": "curved2d"},
        "scenario": {"sigma11": "0", "sigma12": "0", "sigma21": "0", "sigma22": "0",
                     "flux1": "0", "flux2": "0", "u0": "0.5"},
        "solver": {"eta": 1e-2, "t_end": 0.05, "cfl": 0.4},
    },
    # flat pure diffusion; closed-form spectral solution available
    "heat": {
        "grid": {"d": 1, "n": 128},
        "xi": {"n": 64},
        "metric": {"name": "flat1d"},
        "scenario": {"sigma11": "0", "flux1": "0", "u0": "0.5 + 0.4*sin(2*pi*x1)"},
        "solver": {"eta": 1e-2, "t_end": 0.5, "cfl": 0.4},
    },
    # convection-dominated with small viscosity: steepening front
    "shock": {
        "grid": {"d": 1, "n": 128},
        "xi": {"n": 64},
        "metric": {"name": "flat1d"},
        "scenario": {"sigma11": "0", "flux1": "xi^2 / 2", "u0": "0.5 + 0.5*sin(2*pi*x1)"},
        "solver": {"eta": 5e-3, "t_end": 0.5, "cfl": 0.4},
    },
    # degenerate diffusion (diffusivity vanishes at state 0)
    "porous": {
        "grid": {"d": 1, "n": 128},
        "xi": {"n": 64},
        "metric": {"name": "flat1d"},
        "scenario": {"sigma11": "sqrt(2*xi)", "flux1": "0", "u0": "0.5 + 0.4*sin(2*pi*x1)"},
        "solver": {"eta": 1e-2, "t_end": 0.05, "cfl": 0.4},
    },
    # curved chart, manufactured compatible pair, constant initial state
    "curved_const": {
        "grid": {"d": 2, "n": 64},
        "xi": {"n": 32},
        "metric": {"name": "curved2d"},
        "scenario": dict(_CURVED_PAIR, u0="0.5"),
        "solver": {"eta": 5e-3, "t_end": 0.1, "cfl": 0.4},
    },
    # curved chart, compatible pair, smooth non-constant data
    "curved_evo": {
        "grid": {"d": 2, "n": 32},
        "xi": {"n": 32},
        "metric": {"name": "curved2d"},
        "scenario": dict(_CURVED_PAIR, u0="0.5 + 0.25*sin(2*pi*x1)*sin(2*pi*x2)"),
        "solver": {"eta": 1e-2, "t_end": 0.05, "cfl": 0.4},
    },
}
