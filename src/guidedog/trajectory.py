"""Solved-trajectory container with barycentric evaluation.

A :class:`Trajectory` stores the per-interval state/control samples of
a collocated solution together with the mesh geometry, and evaluates
state, control and sensitivity at arbitrary times inside its span by
barycentric Lagrange interpolation over the owning mesh interval.
At a stored sample time the stored sample itself is returned.
State polynomials are supported on the N_k collocation nodes plus the
right endpoint; control polynomials on the N_k collocation nodes only,
evaluated across the whole interval (the standard Radau convention for
the noncollocated endpoint).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lgr import basis

__all__ = ["Trajectory"]


def _bary_eval(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray, tau: float):
    delta = tau - nodes
    hit = np.nonzero(delta == 0.0)[0]
    if hit.size:
        return np.array(values[hit[0]], copy=True)
    coef = weights / delta
    return coef @ values / np.sum(coef)


@dataclass
class Trajectory:
    """Time-stamped collocated solution samples plus evaluation metadata."""

    t0: float
    tf: float
    interval_times: np.ndarray          # (K + 1,), seconds
    orders: tuple                        # N_k per interval
    state_values: list                   # per interval (N_k + 1, n_total)
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
            self.state_times = []
            self.control_times = []
            for k, nk in enumerate(self.orders):
                a, b = self.interval_times[k], self.interval_times[k + 1]
                b_set = basis(nk)
                support = a + (b_set.support + 1.0) * 0.5 * (b - a)
                support[-1] = b   # a + (b - a) can round past b
                self.state_times.append(support)
                self.control_times.append(a + (b_set.nodes + 1.0) * 0.5 * (b - a))
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

    @property
    def n_total(self) -> int:
        return self.state_values[0].shape[1]

    def locate(self, t: float) -> int:
        """Index of the mesh interval containing ``t`` (right-continuous)."""
        span = self.tf - self.t0
        slack = 1e-9 * max(1.0, abs(span))
        if t < self.t0 - slack or t > self.tf + slack:
            raise ValueError(
                f"time {t} outside trajectory span [{self.t0}, {self.tf}]"
            )
        k = int(np.searchsorted(self.interval_times, t, side="right")) - 1
        return min(max(k, 0), self.n_intervals - 1)

    def _local_tau(self, k: int, t: float) -> float:
        a, b = self.interval_times[k], self.interval_times[k + 1]
        return 2.0 * (t - a) / (b - a) - 1.0

    def full_state_at(self, t: float) -> np.ndarray:
        """Full (physical + sensitivity) state row at time ``t``."""
        k = self.locate(t)
        b_set = basis(self.orders[k])
        tau = np.clip(self._local_tau(k, t), -1.0, 1.0)
        return np.atleast_1d(_bary_eval(self._state_taus[k], b_set.support_bary,
                                        self.state_values[k], tau))

    def state_at(self, t: float) -> np.ndarray:
        return self.full_state_at(t)[: self.n_states]

    def control_at(self, t: float) -> np.ndarray:
        k = self.locate(t)
        b_set = basis(self.orders[k])
        tau = np.clip(self._local_tau(k, t), -1.0, 1.0)
        return np.atleast_1d(_bary_eval(self._control_taus[k], b_set.node_bary,
                                        self.control_values[k], tau))

    def sensitivity_at(self, t: float) -> np.ndarray:
        if self.sens_shape is None:
            raise ValueError("trajectory carries no sensitivity states")
        n, m = self.sens_shape
        return self.full_state_at(t)[self.n_states:].reshape((n, m), order="F")

    def sample(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Stacked full-state and control samples at the given times."""
        times = np.asarray(times, dtype=float)
        states = np.stack([self.full_state_at(t) for t in times])
        controls = np.stack([self.control_at(t) for t in times])
        return states, controls

    def terminal_state(self) -> np.ndarray:
        return self.state_values[-1][-1, : self.n_states].copy()

