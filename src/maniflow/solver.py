"""Explicit time integration of the viscous regularized equation.

du/dt = -div f(x,u) + divdiv A(x,u) + eta * laplace(u)

Heun stepping at a fixed dt.  The right-hand side is `geometry.transport`(F,
T, u) with F = f(x,u) and T = A(x,u).  A run first builds, and owns for the
run, the stencil of that operator at its eta (`geometry.transport_stencil`),
and takes dt from it (`stable_dt`): the convective bound, and the parabolic
bound 2 / rho, rho the largest Gershgorin row sum of the frozen Jacobian's
parabolic part, the eta Laplace-Beltrami weights plus the T weights times
the largest |a'| on the states the run can reach.  Those lie in the paper's
L-infinity interval I = [min u0 - t_end C, max u0 + t_end C] within [0, 1],
C the largest compatibility defect |div f - divdiv A| over nodes and
xi-edges (`compat_defect`); the run's `max_principle` checks that they did.
Then `run` builds the table of F and T stacked on one component axis
(`model.transport_table`, 6.5 MB on `curved_const`: 64^2 nodes, 33 edges);
`rhs` reads F and T with one lookup of the table, written straight into the
stencil's one-state input buffer `Stencil.state` beside a copy of u, and
applies the stencil to that buffer in one pass.  The Heun stages update the
run's state u and one stage buffer u* in place, with the same products and
sums as u* = u + dt k1, u = u + 0.5 dt (k1 + k2), so the stages allocate
nothing and every state is bitwise that of the allocating form.
A run takes at most MAX_STEPS steps; a step bound that asks for more is an
error before any per-step storage is allocated.  Every table is stored
xi-major (see `model`), so each lookup reads, per component, the entries of
all nodes at one edge from adjacent memory.  Each accepted state goes to the
run's `Recorder`.
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


@dataclass(frozen=True)
class StepBound:
    """How `stable_dt` chose a run's step."""
    dt: float  # cfl times the smaller bound; the run steps at t_end / ceil(t_end / dt)
    bounds: dict  # "convective" and "parabolic" step bounds, before the CFL factor
    rho: float  # largest Gershgorin row sum of the parabolic part of the frozen Jacobian
    interval: tuple  # I, the states the run can reach
    spread: float  # t_end * C: how far the states may leave [min u0, max u0]

    @property
    def limit(self):
        """The name of the bound that set dt."""
        return min(self.bounds, key=self.bounds.get)


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
    bound: StepBound = None  # how the run chose dt

    @property
    def u_final(self):
        return self.snapshots[-1]


def max_principle(traj):
    """The paper's L-infinity bound on a run: its states' excess over [min u0, max u0].

    The bound is t_end * C + 1e-12, with t_end * C the run's `StepBound.spread`;
    the excess is read from the min and max monitors of every accepted state.
    """
    lo, hi = float(traj.u_min[0]), float(traj.u_max[0])
    excess = max(0.0, lo - float(np.min(traj.u_min)), float(np.max(traj.u_max)) - hi)
    bound = traj.bound.spread + 1e-12
    return {"lo": lo, "hi": hi, "excess": excess, "bound": bound, "pass": excess <= bound}


RANGE_LO, RANGE_HI = -0.1, 1.1
BLOCK_NODE_STEPS = 2 ** 14  # node-steps buffered between monitor/deposit passes
MAX_STEPS = 10 ** 6  # the largest catalog run (porous) takes 7,465 steps


def compat_defect(fm, dm, stencil):
    """Max and L1 norms of div f(., xi) - divdiv A(., xi) at each xi-edge: two arrays of n_xi + 1.

    The one source of the compatibility defect: `stable_dt` takes C as the
    largest max, and `maniflow audit-compat` reports and gates one row per
    edge.  It is the stencil applied to the constant state xi at each edge,
    one edge at a time through `stencil.state`, which this call overwrites;
    the stencil's eta Laplace-Beltrami part is exactly zero on a constant.
    """
    d = fm.grid.d
    Y = stencil.state
    T = Y[d:-1].reshape(dm.A.shape[:-1])  # a view: the state is contiguous
    maxes, l1s = np.empty((2, fm.xi.n + 1))
    for e, value in enumerate(fm.xi.edges):
        Y[:d] = fm.f[..., e]
        T[...] = dm.A[..., e]
        Y[-1] = value
        r = stencil.apply(Y)
        maxes[e] = np.max(np.abs(r))
        l1s[e] = geo.norm_l1(r, dm.M)
    return maxes, l1s


def parabolic_rho(stencil, amax):
    """Largest Gershgorin row sum over the nodes of the frozen Jacobian's parabolic part.

    The parabolic part reads the T components and u, the last d*d + 1 of the
    stencil's.  A row sums each one's |weight| times its factor at the
    weight's column node: `amax` for a T component (its |a'| bound, shaped
    like T's part of the state) and 1 for u.  The centre weight of a
    component is zeroth - sum_j weights[j].
    """
    scale = np.concatenate((amax, np.ones((1,) + amax.shape[1:])))
    W = stencil.weights[:, -len(scale):]
    centre = stencil.zeroth[-len(scale):] - W.sum(axis=0)
    row = np.einsum("q...,q...->...", np.abs(centre), scale)
    padded = scale
    for axis in range(1, scale.ndim):
        padded = geo._wrap_pad(padded, axis)
    n = scale.shape[1]
    for s, Ws in zip(stencil.offsets, W):
        shifted = padded[(slice(None),) + tuple(slice(1 + a, 1 + a + n) for a in s)]
        row += np.einsum("q...,q...->...", np.abs(Ws), shifted)
    return float(np.max(row))


def stable_dt(cfg, fm, dm, stencil, u0):
    """The step of a run from u0 with `stencil` = transport_stencil(dm.M, cfg.eta): a `StepBound`.

    dt is cfl times the smaller of the convective bound h / (d max|f'|_g) and
    the parabolic bound 2 / rho (`parabolic_rho`), with |a'| maximised over
    the cells of I = [min u0 - t_end C, max u0 + t_end C] within [0, 1]
    (C the largest of the per-edge maxima of `compat_defect`,
    `DiffusionModel.max_abs_aprime`).  On a flat metric 2 / rho is
    h^2 / (2 d (eta + max|a'|)).  Overwrites `stencil.state`.
    """
    spread = cfg.t_end * float(np.max(compat_defect(fm, dm, stencil)[0]))
    # NaN fails both comparisons of max and min, leaving the full range
    lo, hi = max(0.0, float(u0.min()) - spread), min(1.0, float(u0.max()) + spread)
    amax = dm.max_abs_aprime(lo, hi)
    rho = parabolic_rho(stencil, amax.reshape((-1,) + dm.grid.shape))
    bounds = {"convective": dm.grid.h / (dm.grid.d * fm.max_prime_gnorm(dm.M) + 1e-30),
              "parabolic": 2.0 / rho}
    for name, bound in bounds.items():
        # coefficients whose products overflow make a bound 0 or NaN
        if not 0.0 < bound < np.inf:
            raise SolverError(f"the stable step bound {bound:.3e} ({name}) is not a positive "
                              "finite number")
    dt = cfg.cfl * min(bounds.values())
    return StepBound(dt=dt, bounds=bounds, rho=rho, interval=(lo, hi), spread=spread)


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

    def __init__(self, cfg, dm, u0, n_steps, dt, ledger):
        self.cfg, self.dm, self.dt, self.ledger = cfg, dm, dt, ledger
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
        U, M = self.block[..., :self.count], self.dm.M
        axes = tuple(range(M.grid.d))
        self.monitors.append(np.array([geo.integrate(U, M), geo.integrate(0.5 * U * U, M),
                                       np.min(U, axis=axes), np.max(U, axis=axes)]))
        if self.ledger is not None and n_dep:
            # node-major copy: the lookups and products then read each node's states together
            deposit(np.ascontiguousarray(U[..., :n_dep]), self.dm, self.cfg.eta, self.dt,
                    self.ledger)
        self.count = 0

    def finish(self, bound):
        self._record(self.count - 1)
        mass, energy, u_min, u_max = np.concatenate(self.monitors, axis=1)
        return Trajectory(times=self.times, snapshots=self.snapshots, mass=mass, energy=energy,
                          monitor_t=np.arange(mass.size) * self.dt, u_min=u_min, u_max=u_max,
                          ledger=self.ledger or DissipationLedger(self.dm.xi), dt=self.dt,
                          eta=self.cfg.eta, bound=bound)


def run(cfg, fm, dm, u0, record_dissipation=True):
    """Integrate to t_end; returns snapshots, monitors and the ledger.

    The tables and the ledger's bins share the models' xi-grid; operators read `dm.M`.
    """
    u0 = np.asarray(u0, dtype=float)
    check_initial_state(u0, dm.grid)

    stencil = geo.transport_stencil(dm.M, cfg.eta)
    # looked up on the module, where a memory trace wraps it
    bound = stable_dt(cfg, fm, dm, stencil, u0)
    # a float until it is checked: t_end / dt may be too large for any array, or inf
    n_steps = np.ceil(cfg.t_end / bound.dt)
    if not n_steps <= MAX_STEPS:
        raise SolverError(
            f"dt = {bound.dt:.3e}, set by the {bound.limit} bound, needs "
            f"{n_steps:.3e} steps to t_end = {cfg.t_end:g}; at most {MAX_STEPS} are allowed")
    n_steps = max(1, int(n_steps))
    dt = cfg.t_end / n_steps
    table, xi = model.transport_table(fm, dm), dm.xi
    ledger = DissipationLedger(xi) if record_dissipation else None
    recorder = Recorder(cfg, dm, u0, n_steps, dt, ledger)
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
    return recorder.finish(bound)


def total_variation(u):
    """Sum of absolute neighbor jumps over all axes (periodic)."""
    tv = 0.0
    for axis in range(u.ndim):
        tv += float(np.sum(np.abs(geo._neighbours(u, axis)[1] - u)))
    return tv
