"""Explicit time integration of the viscous regularized equation.

du/dt = -div f(x,u) + divdiv A(x,u) + eta * laplace(u)

Heun stepping at a fixed dt chosen from the convective and parabolic
stability bounds.  The right-hand side is `geometry.transport`(F, T, u) with
F = f(x,u) and T = A(x,u).  Before the first step `run` builds, and owns for
the run, the stencil of that operator at its eta (`geometry.transport_stencil`)
and the table of F and T stacked on one component axis
(`model.transport_table`, 6.5 MB on `curved_const`: 64^2 nodes, 33 edges);
`rhs` reads F and T with one lookup of the table, written straight into the
stencil's one-state input buffer `Stencil.state` beside a copy of u, and
applies the stencil to that buffer in one pass.  The Heun stages update the
run's state u and one stage buffer u* in place, with the same products and
sums as u* = u + dt k1, u = u + 0.5 dt (k1 + k2), so the stages allocate
nothing and every state is bitwise that of the allocating form.
A run takes at most MAX_STEPS steps; a step bound that asks for more is an
error before anything is allocated.  Every table is stored xi-major (see
`model`), so each lookup reads, per component, the entries of all nodes at
one edge from adjacent memory.  Each accepted state goes to the run's `Recorder`.
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
MAX_STEPS = 10 ** 6  # the largest catalog run takes 8,233 steps


def step_bounds(cfg, fm, dm, M):
    """The convective and parabolic step bounds, before the CFL factor."""
    grid = M.grid
    eps0 = 1e-30
    return {"convective": grid.h / (grid.d * fm.max_prime_gnorm(M) + eps0),
            "parabolic": grid.h ** 2 / (2.0 * grid.d * (cfg.eta + dm.max_aprime_opnorm()))}


def stable_dt(cfg, fm, dm, M):
    """Fixed step from convective and parabolic bounds (the smaller wins)."""
    dt = cfg.cfl * min(step_bounds(cfg, fm, dm, M).values())
    # coefficients whose products overflow make the bound 0 or NaN
    if not 0.0 < dt < np.inf:
        raise SolverError(f"the stable step bound {dt:.3e} is not a positive finite number")
    return dt


def rhs(u, table, xi, stencil):
    """Semi-discrete right-hand side at state u.

    `table` is the run's `model.transport_table` and `stencil` its
    `geometry.transport_stencil`, whose `state` buffer this call overwrites.
    """
    # NaN makes min and max NaN, which fails both comparisons; +-inf fails one
    if not (u.min() >= RANGE_LO and u.max() <= RANGE_HI):
        if not np.all(np.isfinite(u)):
            raise SolverError("non-finite state")
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(u - 0.5))), u.shape))
        raise RangeViolation(
            f"state {float(u[idx]):.6f} at node {idx} outside [{RANGE_LO}, {RANGE_HI}]; "
            "coefficients are tabulated on [0,1]")
    Y = stencil.state
    # looked up on the module, where the traced benchmark run wraps it
    model.xi_interp(table, u, xi, u.ndim, out=Y[:-1])
    Y[-1] = u
    return stencil.apply(Y)


def check_initial_state(u0, grid):
    """An initial state is a scalar field on the grid with values in [0,1]."""
    if u0.shape != grid.shape:
        raise SolverError(f"initial state shape {u0.shape} != {grid.shape}")
    # NaN fails both comparisons, so a non-finite state is rejected too
    if not ((u0 >= 0.0) & (u0 <= 1.0)).all():
        raise SolverError("initial state must take values in [0,1]")


class Recorder:
    """What a run keeps of its accepted states: snapshots, monitors and deposits.

    Snapshots are taken after steps ceil(i * n_steps / n_snap), i = 0 .. n_snap: the
    first steps at or after evenly spaced times, so runs with different dt compare.
    Accepted states are copied into a block of B = BLOCK_NODE_STEPS // nodes (at
    least 1) states, so its memory is bounded on every grid.  When it is full, and at
    `finish`, one pass records the monitors (mass, energy, min, max) of each state and
    deposits into `ledger`, unless it is None, the dissipation weights of each state a
    step started from (all but the run's last state), read from sigma^t as it is.
    """

    def __init__(self, cfg, dm, M, u0, n_steps, dt, ledger):
        self.cfg, self.dm, self.M, self.dt, self.ledger = cfg, dm, M, dt, ledger
        n_snap = min(cfg.n_snapshots, n_steps)
        self.snap_steps = {-(-i * n_steps // n_snap) for i in range(n_snap + 1)}
        self.times, self.snapshots, self.monitors = [], [], []
        # stored state after state, so every column is contiguous and a sum over
        # the grid adds each state's nodes in the order a lone state's sum does
        B = max(1, BLOCK_NODE_STEPS // u0.size)
        self.block = np.moveaxis(np.empty((B,) + u0.shape), 0, -1)
        self.count = 0  # states in the block
        self.accept(0, u0)

    def accept(self, step, u):
        if self.count == self.block.shape[-1]:
            self._record(self.count)
        self.block[..., self.count] = u
        self.count += 1
        if step in self.snap_steps:
            self.times.append(step * self.dt)
            self.snapshots.append(u.copy())

    def _record(self, n_dep):
        """Append the block's monitors, one 4 x count array; deposit its first n_dep states."""
        U, M = self.block[..., :self.count], self.M
        axes = tuple(range(M.grid.d))
        self.monitors.append(np.array([geo.integrate(U, M), geo.integrate(0.5 * U * U, M),
                                       np.min(U, axis=axes), np.max(U, axis=axes)]))
        if self.ledger is not None and n_dep:
            # node-major copy: the lookups and products then read each node's states together
            deposit(np.ascontiguousarray(U[..., :n_dep]), self.dm.sigmaT, M, self.cfg.eta,
                    self.dt, self.ledger)
        self.count = 0

    def finish(self):
        self._record(self.count - 1)
        mass, energy, u_min, u_max = np.concatenate(self.monitors, axis=1)
        return Trajectory(times=self.times, snapshots=self.snapshots, mass=mass, energy=energy,
                          monitor_t=np.arange(mass.size) * self.dt, u_min=u_min, u_max=u_max,
                          ledger=self.ledger or DissipationLedger(self.dm.xi), dt=self.dt,
                          eta=self.cfg.eta)


def run(cfg, fm, dm, M, u0, xi, record_dissipation=True):
    """Integrate to t_end; returns snapshots, monitors and the ledger."""
    u0 = np.asarray(u0, dtype=float)
    check_initial_state(u0, M.grid)

    dt_raw = stable_dt(cfg, fm, dm, M)
    # a float until it is checked: t_end / dt_raw may be too large for any array, or inf
    n_steps = np.ceil(cfg.t_end / dt_raw)
    if not n_steps <= MAX_STEPS:
        bounds = step_bounds(cfg, fm, dm, M)
        raise SolverError(
            f"dt = {dt_raw:.3e}, set by the {min(bounds, key=bounds.get)} bound, needs "
            f"{n_steps:.3e} steps to t_end = {cfg.t_end:g}; at most {MAX_STEPS} are allowed")
    n_steps = max(1, int(n_steps))
    dt = cfg.t_end / n_steps
    stencil = geo.transport_stencil(M, cfg.eta)
    table = model.transport_table(fm, dm)
    ledger = DissipationLedger(xi) if record_dissipation else None
    recorder = Recorder(cfg, dm, M, u0, n_steps, dt, ledger)
    u = u0.copy()
    u_star = np.empty_like(u)
    for step in range(1, n_steps + 1):
        try:
            k1 = rhs(u, table, xi, stencil)
            np.multiply(k1, dt, out=u_star)
            u_star += u
            k2 = rhs(u_star, table, xi, stencil)
            k1 += k2
            k1 *= 0.5 * dt
            u += k1
        except SolverError as exc:
            raise type(exc)(f"step {step} (t={step * dt:.6g}): {exc}") from exc
        if not np.isfinite(u).all():
            raise SolverError(f"non-finite state after step {step} (t={step * dt:.6g})")
        recorder.accept(step, u)
    return recorder.finish()


def total_variation(u):
    """Sum of absolute neighbor jumps over all axes (periodic)."""
    tv = 0.0
    for axis in range(u.ndim):
        tv += float(np.sum(np.abs(np.roll(u, -1, axis) - u)))
    return tv
