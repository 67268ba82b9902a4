"""Solved-trajectory container with barycentric evaluation.

A :class:`Trajectory` stores the per-interval state/control samples of
a collocated solution together with the mesh geometry, and evaluates
state, control and sensitivity at a time or an array of times inside
its span by barycentric Lagrange interpolation over the owning mesh
interval (right-continuous at interfaces).  :meth:`Trajectory.interval_values`
evaluates one interval's own polynomial, up to and including its right
end; each row of an array query equals the same time queried alone, bit
for bit.  At a stored sample time the stored sample itself is returned.
A time outside the span, or NaN, raises ValueError.
State polynomials are supported on the N_k collocation nodes plus the
right endpoint; control polynomials on the N_k collocation nodes only,
evaluated across the whole interval (the standard Radau convention for
the noncollocated endpoint).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lgr import barycentric_eval, basis, interval_node_times

__all__ = ["Trajectory", "control_reader", "sample_lanes"]


@dataclass
class Trajectory:
    """Time-stamped collocated solution samples plus evaluation metadata."""

    t0: float
    tf: float
    interval_times: np.ndarray          # (K + 1,), seconds
    orders: tuple                        # N_k per interval
    state_values: list                   # per interval (N_k + 1, full state width)
    control_values: list                 # per interval (N_k, n_controls)
    n_states: int                        # physical state count n
    sens_shape: Optional[tuple] = None   # (n, m) when sensitivities are carried
    objective: Optional[float] = None        # solved NLP objective
    base_objective: Optional[float] = None   # physical-cost value J
    state_times: list = field(default_factory=list)
    control_times: list = field(default_factory=list)

    def __post_init__(self):
        self.interval_times = np.asarray(self.interval_times, dtype=float)
        if not self.state_times or not self.control_times:
            self.state_times, self.control_times = interval_node_times(
                self.interval_times, self.orders)
        # interpolation nodes: the stored times mapped to local tau by the
        # same arithmetic as a query, so a query at a stored time lands
        # exactly on its node (the canonical LGR node can be an ulp away)
        self._state_taus = [self._local_tau(k, ts)
                            for k, ts in enumerate(self.state_times)]
        self._control_taus = [self._local_tau(k, ts)
                              for k, ts in enumerate(self.control_times)]

    @property
    def n_intervals(self) -> int:
        return len(self.orders)

    def locate(self, t):
        """Index of the mesh interval containing each time (right-continuous)."""
        t = np.asarray(t, dtype=float)
        slack = 1e-9 * max(1.0, abs(self.tf - self.t0))
        # negated, so that NaN counts as outside
        outside = ~((t >= self.t0 - slack) & (t <= self.tf + slack))
        if np.any(outside):
            raise ValueError(
                f"time {t[outside]} outside trajectory span "
                f"[{self.t0}, {self.tf}]"
            )
        k = np.searchsorted(self.interval_times, t, side="right") - 1
        return np.clip(k, 0, self.n_intervals - 1)

    def _local_tau(self, k: int, t):
        a, b = self.interval_times[k], self.interval_times[k + 1]
        return 2.0 * (t - a) / (b - a) - 1.0

    def _clamped_tau(self, k: int, t):
        """Local tau of times ``t`` in interval k, clamped to [-1, 1]."""
        return np.minimum(np.maximum(self._local_tau(k, t), -1.0), 1.0)

    def interval_values(self, k: int, times, control: bool = False):
        """Interval k's full-state (or control) polynomial at ``times``.

        Reads interval k even at its right end, where the locating
        methods switch to k + 1; times outside it are clamped to it.
        """
        tau = self._clamped_tau(k, np.asarray(times, dtype=float))
        bas = basis(self.orders[k])
        if control:
            return barycentric_eval(self._control_taus[k], bas.node_bary,
                                    self.control_values[k], tau)
        return barycentric_eval(self._state_taus[k], bas.support_bary,
                                self.state_values[k], tau)

    def _located(self, t, control: bool) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = sample_lanes([self], t.reshape(-1), control)[0]
        return out.reshape(t.shape + out.shape[-1:])

    def full_state_at(self, t) -> np.ndarray:
        """Full (physical + sensitivity) state at a time or array of times."""
        return self._located(t, control=False)

    def state_at(self, t) -> np.ndarray:
        return self.full_state_at(t)[..., : self.n_states]

    def control_at(self, t) -> np.ndarray:
        """Control at a time or array of times."""
        return self._located(t, control=True)

    def sensitivity_at(self, t) -> np.ndarray:
        """Sensitivity S = dx/dp, shape ``t.shape + (n, m)``."""
        if self.sens_shape is None:
            raise ValueError("trajectory carries no sensitivity states")
        n, m = self.sens_shape
        t = np.asarray(t, dtype=float)
        flat = self.full_state_at(t)[..., self.n_states:]
        # the sensitivity block is stored column-major (vec S)
        return np.swapaxes(flat.reshape(t.shape + (m, n)), -1, -2)

    def sample(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Stacked full-state and control samples at the given times."""
        return self.full_state_at(times), self.control_at(times)


def _interval_lanes(trajs, k: int, control: bool):
    """Interval k's local nodes and barycentric weights, shared by every
    trajectory of ``trajs``, and their (P, N, width) samples (a view of
    a single trajectory's own)."""
    first, bas = trajs[0], basis(trajs[0].orders[k])
    values = [(traj.control_values if control else traj.state_values)[k]
              for traj in trajs]
    values = values[0][None] if len(values) == 1 else np.stack(values)
    if control:
        return first._control_taus[k], bas.node_bary, values
    return first._state_taus[k], bas.support_bary, values


def sample_lanes(trajs, times, control: bool = False) -> np.ndarray:
    """Every trajectory in ``trajs``, a lane each, at the same ``times``
    (q,), in one lane-axis barycentric pass per mesh interval.

    Returns a (P, q, width) stack whose lane i is
    ``trajs[i].full_state_at(times)`` (with ``control``,
    ``control_at``), bit for bit.  The trajectories must share one mesh;
    the caller checks that.
    """
    first = trajs[0]
    owner = first.locate(times)
    width = (first.control_values if control
             else first.state_values)[0].shape[1]
    out = np.empty((len(trajs), times.size, width))
    for k in np.unique(owner):
        sel = owner == k
        tau = first._clamped_tau(k, times[sel])
        out[:, sel] = barycentric_eval(*_interval_lanes(trajs, k, control),
                                       tau[None].repeat(len(trajs), axis=0))
    return out


def control_reader(trajs, k: int):
    """Interval k's control polynomial of every trajectory in ``trajs``,
    a lane each, as one function of ``times`` (P, q) returning
    (P, q, n_controls).

    Lane i reads ``trajs[i]`` at ``times[i]`` exactly as
    ``trajs[i].interval_values(k, times[i], control=True)`` would, bit
    for bit.  The trajectories must share one mesh; the caller checks
    that.
    """
    first = trajs[0]
    nodes, weights, values = _interval_lanes(trajs, k, control=True)
    return lambda times: barycentric_eval(
        nodes, weights, values, first._clamped_tau(k, times))
