"""Explicit time integration of the viscous regularized equation.

du/dt = -div f(x,u) + divdiv A(x,u) + eta * laplace(u)

Heun stepping at a fixed dt chosen from the convective and parabolic
stability bounds.  The right-hand side is `geometry.transport`(F, T, u) with
F = f(x,u) and T = A(x,u).  Before the first step `run` builds, and owns for
the run, the stencil of that operator at its eta
(`geometry.transport_stencil`) and the table of F and T stacked on one
component axis (`model.transport_table`, 6.5 MB on `curved_const`: 64^2
nodes, 33 edges); `rhs` reads F and T with one lookup of the table and
applies the stencil to (F, T, u) in one pass.  The dissipation deposits read
the model's sigma^t table as it is.  Every table is stored xi-major (see
`model`), so each lookup of the step loop reads, per component, the entries
of all nodes at one edge from adjacent memory.
Snapshots are taken after steps ceil(i * n_steps / n_snap), i = 1 .. n_snap.
Every accepted state is copied into a block of up to B states, grid + (B,),
with B = BLOCK_NODE_STEPS // nodes (at least 1), so the block's memory is
bounded on every grid.  When the block is full, and after the last step,
one pass over it records the monitors (mass, energy, min, max) of each state
and deposits the viscous / degenerate dissipation weights of each state a
step started from (all but the run's final state) into the xi-binned ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import model
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
BLOCK_NODE_STEPS = 2 ** 14  # node-steps buffered between monitor/deposit passes


def stable_dt(cfg, fm, dm, M):
    """Fixed step from convective and parabolic bounds (the smaller wins)."""
    grid = M.grid
    eps0 = 1e-30
    conv = grid.h / (grid.d * fm.max_prime_gnorm(M) + eps0)
    para = grid.h ** 2 / (2.0 * grid.d * (cfg.eta + dm.max_aprime_opnorm()))
    dt = cfg.cfl * min(conv, para)
    # coefficients whose products overflow make the bound 0 or NaN
    if not 0.0 < dt < np.inf:
        raise SolverError(f"the stable step bound {dt:.3e} is not a positive finite number")
    return dt


def rhs(u, table, xi, stencil):
    """Semi-discrete right-hand side at state u.

    `table` is the run's `model.transport_table` and `stencil` its
    `geometry.transport_stencil`.
    """
    # one pass: NaN fails both comparisons, +-inf one of them
    if not ((u >= RANGE_LO) & (u <= RANGE_HI)).all():
        if not np.all(np.isfinite(u)):
            raise SolverError("non-finite state")
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(u - 0.5))), u.shape))
        raise RangeViolation(
            f"state {float(u[idx]):.6f} at node {idx} outside [{RANGE_LO}, {RANGE_HI}]; "
            "coefficients are tabulated on [0,1]")
    # looked up on the module, where the traced benchmark run wraps it
    return stencil(model.xi_interp(table, u, xi, u.ndim), u)


def check_initial_state(u0, grid):
    """An initial state is a scalar field on the grid with values in [0,1]."""
    if u0.shape != grid.shape:
        raise SolverError(f"initial state shape {u0.shape} != {grid.shape}")
    # NaN fails both comparisons, so a non-finite state is rejected too
    if not ((u0 >= 0.0) & (u0 <= 1.0)).all():
        raise SolverError("initial state must take values in [0,1]")


def run(cfg, fm, dm, M, u0, xi, record_dissipation=True):
    """Integrate to t_end; returns snapshots, monitors and the ledger."""
    grid = M.grid
    u0 = np.asarray(u0, dtype=float)
    check_initial_state(u0, grid)

    dt_raw = stable_dt(cfg, fm, dm, M)
    n_steps = max(1, int(np.ceil(cfg.t_end / dt_raw)))
    dt = cfg.t_end / n_steps

    # the first step at or after each of n_snap evenly spaced times, so that
    # runs with different dt produce comparable series
    n_snap = min(cfg.n_snapshots, n_steps)
    snap_steps = {-(-i * n_steps // n_snap) for i in range(1, n_snap + 1)}
    stencil = geo.transport_stencil(M, cfg.eta)
    table = model.transport_table(fm, dm)
    ledger = DissipationLedger(xi)

    u = u0.copy()
    times = [0.0]
    snapshots = [u0.copy()]
    mass, umin, umax, energy = (np.empty(n_steps + 1) for _ in range(4))
    # stored state after state, so every column is contiguous and a sum over
    # the grid adds each state's nodes in the order a lone state's sum does
    B = max(1, BLOCK_NODE_STEPS // u.size)
    block = np.moveaxis(np.empty((B,) + grid.shape), 0, -1)
    axes = tuple(range(grid.d))

    def record(first, count, final):
        """Monitor block states first .. first + count - 1; deposit each one a step starts from."""
        U = block[..., :count]
        span = slice(first, first + count)
        mass[span] = geo.integrate(U, M)
        energy[span] = geo.integrate(0.5 * U * U, M)
        umin[span] = np.min(U, axis=axes)
        umax[span] = np.max(U, axis=axes)
        n_dep = count - 1 if final else count
        if record_dissipation and n_dep:
            # node-major copy: the lookups and products then read each node's states together
            deposit(np.ascontiguousarray(U[..., :n_dep]), dm.sigmaT, M, cfg.eta, dt, ledger)

    block[..., 0] = u
    for step in range(1, n_steps + 1):
        try:
            k1 = rhs(u, table, xi, stencil)
            u_star = u + dt * k1
            k2 = rhs(u_star, table, xi, stencil)
            u = u + 0.5 * dt * (k1 + k2)
        except SolverError as exc:
            raise type(exc)(f"step {step} (t={step * dt:.6g}): {exc}") from exc
        if not np.all(np.isfinite(u)):
            raise SolverError(f"non-finite state after step {step} (t={step * dt:.6g})")
        if step % B == 0:
            record(step - B, B, final=False)
        block[..., step % B] = u
        if step in snap_steps:
            times.append(step * dt)
            snapshots.append(u.copy())
    record(n_steps - n_steps % B, n_steps % B + 1, final=True)

    return Trajectory(times=times, snapshots=snapshots,
                      monitor_t=np.arange(n_steps + 1) * dt, mass=mass,
                      u_min=umin, u_max=umax, energy=energy, ledger=ledger, dt=dt,
                      eta=cfg.eta)


def total_variation(u):
    """Sum of absolute neighbor jumps over all axes (periodic)."""
    tv = 0.0
    for axis in range(u.ndim):
        tv += float(np.sum(np.abs(np.roll(u, -1, axis) - u)))
    return tv
