"""Explicit time integration of the viscous regularized equation.

du/dt = -div f(x,u) + divdiv A(x,u) + eta * laplace(u)

Heun stepping at a fixed dt chosen from the convective and parabolic
stability bounds.  `rhs` looks up F = f(x,u) and T = A(x,u), stacks
(F, T, u) and applies the transport stencil of the metric at this eta
(`geometry.transport_stencil`) in one pass: the three operators probed into
per-node weights on the first call.  Every accepted step appends monitor
values and deposits viscous / degenerate dissipation weights into the
xi-binned ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .entropy import DissipationLedger, deposit


class SolverError(RuntimeError):
    pass


class RangeViolation(SolverError):
    pass


@dataclass
class SolverConfig:
    eta: float
    t_end: float
    cfl: float = 0.4
    n_snapshots: int = 10  # snapshot count after t=0; cadence = t_end / n_snapshots

    def __post_init__(self):
        if self.eta <= 0:
            raise SolverError(f"viscosity must be positive, got {self.eta}")
        if not 0.0 < self.cfl <= 1.0:
            raise SolverError(f"CFL number must be in (0,1], got {self.cfl}")
        if self.t_end <= 0:
            raise SolverError(f"t_end must be positive, got {self.t_end}")
        if self.n_snapshots < 1:
            raise SolverError(f"snapshots must be >= 1, got {self.n_snapshots}")


@dataclass
class Trajectory:
    times: list
    snapshots: list
    monitor_t: np.ndarray
    mass: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    energy: np.ndarray
    ledger: DissipationLedger
    dt: float
    eta: float

    @property
    def u_final(self):
        return self.snapshots[-1]


RANGE_LO, RANGE_HI = -0.1, 1.1


def stable_dt(cfg, fm, dm, M):
    """Fixed step from convective and parabolic bounds (the smaller wins)."""
    grid = M.grid
    eps0 = 1e-30
    conv = grid.h / (grid.d * fm.max_prime_gnorm(M) + eps0)
    para = grid.h ** 2 / (2.0 * grid.d * (cfg.eta + dm.max_aprime_opnorm()))
    return cfg.cfl * min(conv, para)


def rhs(u, fm, dm, M, eta):
    """Semi-discrete right-hand side at state u."""
    # one pass: NaN fails both comparisons, +-inf one of them
    if not np.all((u >= RANGE_LO) & (u <= RANGE_HI)):
        if not np.all(np.isfinite(u)):
            raise SolverError("non-finite state")
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(u - 0.5))), u.shape))
        raise RangeViolation(
            f"state {float(u[idx]):.6f} at node {idx} outside [{RANGE_LO}, {RANGE_HI}]; "
            "coefficients are tabulated on [0,1]")
    F = fm.at(u)
    T = dm.A_at(u)
    Y = np.concatenate((F, T.reshape((-1,) + u.shape), u[None]))
    return geo.transport_stencil(M, eta)(Y)


def check_initial_state(u0, grid):
    """An initial state is a scalar field on the grid with values in [0,1]."""
    if u0.shape != grid.shape:
        raise SolverError(f"initial state shape {u0.shape} != {grid.shape}")
    if np.any(u0 < 0.0) or np.any(u0 > 1.0):
        raise SolverError("initial state must take values in [0,1]")


def run(cfg, fm, dm, M, u0, xi, record_dissipation=True):
    """Integrate to t_end; returns snapshots, monitors and the ledger."""
    grid = M.grid
    u0 = np.asarray(u0, dtype=float)
    check_initial_state(u0, grid)

    dt_raw = stable_dt(cfg, fm, dm, M)
    n_steps = max(1, int(np.ceil(cfg.t_end / dt_raw)))
    dt = cfg.t_end / n_steps

    # snapshot at (approximately) evenly spaced target times so that runs
    # with different dt produce comparable series
    n_snap = min(cfg.n_snapshots, n_steps)
    targets = [i * cfg.t_end / n_snap for i in range(1, n_snap + 1)]
    next_target = 0
    ledger = DissipationLedger(xi)

    u = u0.copy()
    times = [0.0]
    snapshots = [u0.copy()]
    mon_t, mass, umin, umax, energy = [], [], [], [], []

    def monitor(t, v):
        mon_t.append(t)
        mass.append(geo.integrate(v, M))
        umin.append(float(np.min(v)))
        umax.append(float(np.max(v)))
        energy.append(geo.integrate(0.5 * v * v, M))

    monitor(0.0, u)
    for step in range(1, n_steps + 1):
        try:
            if record_dissipation:
                deposit(u, dm, M, cfg.eta, dt, ledger)
            k1 = rhs(u, fm, dm, M, cfg.eta)
            u_star = u + dt * k1
            k2 = rhs(u_star, fm, dm, M, cfg.eta)
            u = u + 0.5 * dt * (k1 + k2)
        except SolverError as exc:
            raise SolverError(f"step {step} (t={step * dt:.6g}): {exc}") from exc
        if not np.all(np.isfinite(u)):
            raise SolverError(f"non-finite state after step {step} (t={step * dt:.6g})")
        t = step * dt
        monitor(t, u)
        if next_target < len(targets) and t >= targets[next_target] - 1e-12:
            times.append(t)
            snapshots.append(u.copy())
            next_target += 1

    return Trajectory(times=times, snapshots=snapshots,
                      monitor_t=np.asarray(mon_t), mass=np.asarray(mass),
                      u_min=np.asarray(umin), u_max=np.asarray(umax),
                      energy=np.asarray(energy), ledger=ledger, dt=dt,
                      eta=cfg.eta)


def total_variation(u):
    """Sum of absolute neighbor jumps over all axes (periodic)."""
    tv = 0.0
    for axis in range(u.ndim):
        tv += float(np.sum(np.abs(np.roll(u, -1, axis) - u)))
    return tv
