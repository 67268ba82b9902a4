"""Direct collocation transcription of (augmented) OCPs.

Maps a Bolza problem on a K-interval mesh to a dense NLP.  Interval k
carries N_k LGR collocation points; the state is supported on those
plus the right endpoint, with interface points shared between
neighbouring intervals (continuity by construction, not by extra
constraints).  Defect constraints per interval read

    sum_j D_ij X_j - h_k f(X_i, U_i, t_i) = 0,

where h_k is the interval half-width in seconds, and the cost is the
Mayer term plus an LGR quadrature of the running cost with the same
half-width scaling.  The defects and the endpoint pins are the only
constraint rows, so every row of the NLP is an equality.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .lgr import basis, interval_node_times
from .ocp import OcpDefinition
from .sensitivity import AugmentedOcp
from .trajectory import Trajectory

__all__ = [
    "Mesh",
    "Layout",
    "NlpProblem",
    "map_tau_to_time",
    "build_mesh",
    "example_mesh",
    "transcribe",
    "extract_solution",
    "pack_values",
    "base_objective",
]


def map_tau_to_time(tau, t0: float, tf: float):
    """Affine map from the canonical domain tau in [-1, 1] to seconds."""
    return 0.5 * (tf - t0) * np.asarray(tau) + 0.5 * (tf + t0)


@dataclass(frozen=True)
class Mesh:
    """Mesh-interval geometry: boundaries in tau-space plus orders."""

    t0: float
    tf: float
    tau_boundaries: np.ndarray   # (K + 1,), -1 = T_0 < ... < T_K = +1
    orders: tuple                # N_k >= 1 per interval

    def __post_init__(self):
        tb = np.asarray(self.tau_boundaries, dtype=float)
        if tb.ndim != 1 or tb.size != len(self.orders) + 1:
            raise ValueError("boundary count must be interval count + 1")
        if abs(tb[0] + 1.0) > 1e-12 or abs(tb[-1] - 1.0) > 1e-12:
            raise ValueError("mesh fractions must span [-1, +1]")
        if not (np.all(np.isfinite(tb)) and np.all(np.diff(tb) > 0.0)):
            raise ValueError("mesh fractions must be finite and strictly "
                             "increasing")
        tb = tb.copy()
        tb[0], tb[-1] = -1.0, 1.0
        object.__setattr__(self, "tau_boundaries", tb)
        if not (np.isfinite(self.t0) and np.isfinite(self.tf)
                and self.t0 < self.tf):
            raise ValueError(
                f"mesh needs finite t0 < tf, got ({self.t0}, {self.tf})")
        if any(not isinstance(nk, Integral) or nk < 1 for nk in self.orders):
            raise ValueError("collocation counts must be integers >= 1")
        object.__setattr__(self, "orders", tuple(int(nk) for nk in self.orders))

    @property
    def n_intervals(self) -> int:
        return len(self.orders)

    def interval_times(self) -> np.ndarray:
        return map_tau_to_time(self.tau_boundaries, self.t0, self.tf)

    def node_times(self) -> tuple[np.ndarray, np.ndarray]:
        """All P support and C = P - 1 collocation times, interfaces shared.

        The support times are the collocation times plus the final bound.
        """
        bounds = self.interval_times()
        colloc = np.concatenate(interval_node_times(bounds, self.orders)[1])
        return np.append(colloc, bounds[-1]), colloc

    def with_time_domain(self, t0: float, tf: float) -> "Mesh":
        """Same fractions and orders, compressed onto a new horizon."""
        return replace(self, t0=t0, tf=tf)


def build_mesh(t0: float, tf: float, n_intervals: int, order,
               fractions=None) -> Mesh:
    """Construct a mesh with uniform fractions unless given explicitly.

    ``order`` is a single collocation count or one per interval;
    ``fractions``, if provided, are the K + 1 interval boundaries in
    tau-space.  Counts must be integers (numpy integers included) and
    bounds and fractions finite, else ValueError.
    """
    if not isinstance(n_intervals, Integral) or n_intervals < 1:
        raise ValueError(
            f"need an integer count of mesh intervals >= 1, got {n_intervals}")
    if np.isscalar(order):
        orders = (order,) * n_intervals
    else:
        orders = tuple(order)
        if len(orders) != n_intervals:
            raise ValueError(
                f"got {len(orders)} orders for {n_intervals} intervals"
            )
    if fractions is None:
        fractions = np.linspace(-1.0, 1.0, n_intervals + 1)
    return Mesh(float(t0), float(tf), np.asarray(fractions, dtype=float), orders)


# Boundary fractions of the shipped default mesh, expressed as seconds
# on the nominal 50 s horizon.  The optimal state of the example drops
# through a sharp entry transient (width well under a second), coasts
# near zero for most of the horizon, then climbs a terminal layer to
# meet x(tf) = 1, so points are graded toward both ends: a uniform mesh
# of comparable size misses the layers entirely and its solution
# oscillates.
_EXAMPLE_MESH_SECONDS = (0.0, 0.5, 1.5, 3.5, 7.0, 15.0, 30.0, 40.0, 45.0,
                         47.5, 49.0, 49.7, 50.0)
_EXAMPLE_MESH_ORDER = 9


def example_mesh(t0: float = 0.0, tf: float = 50.0) -> Mesh:
    """Layer-graded default mesh for the shipped example problem."""
    secs = np.asarray(_EXAMPLE_MESH_SECONDS)
    fractions = 2.0 * secs / secs[-1] - 1.0
    return build_mesh(t0, tf, secs.size - 1, _EXAMPLE_MESH_ORDER,
                      fractions=fractions)


@dataclass
class Layout:
    """Decision-vector layout of a transcribed problem.

    Ordering: all P state support points (point-major, state-dim-minor),
    then all C collocation controls.  Interface support points are
    stored once and shared; the mesh (``NlpProblem.mesh``) says which
    points belong to which interval.
    """

    n_aug: int
    n_controls: int
    n_state_points: int          # P = sum N_k + 1
    n_colloc: int                # C = sum N_k = P - 1
    n_vars: int

    def split(self, z: np.ndarray):
        """States (..., P, na) and controls (..., C, nu) of a decision
        vector, or of each row of a stack of them."""
        P, na, nu = self.n_state_points, self.n_aug, self.n_controls
        lead = z.shape[:-1]
        X = z[..., : P * na].reshape(lead + (P, na))
        U = z[..., P * na: P * na + self.n_colloc * nu].reshape(
            lead + (self.n_colloc, nu))
        return X, U


def pack_values(layout: Layout, states: np.ndarray,
                controls: np.ndarray) -> np.ndarray:
    """Assemble a decision vector from stacked state/control samples."""
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if states.shape != (layout.n_state_points, layout.n_aug):
        raise ValueError(f"state block has shape {states.shape}")
    if controls.shape != (layout.n_colloc, layout.n_controls):
        raise ValueError(f"control block has shape {controls.shape}")
    return np.concatenate([states.ravel(), controls.ravel()])


@dataclass
class NlpProblem:
    """Dense equality-constrained NLP: min f(z) s.t. c(z) = lower.

    ``lower`` and ``upper`` must be equal row by row; a row with
    ``lower != upper`` (an inequality) raises ValueError, because the
    solver treats every row as an equality.  ``gradient(z)`` and
    ``jacobian(z)`` return the objective gradient and the dense
    constraint Jacobian; the solver has no finite-difference fallback.
    ``lagrangian_hessian(z, multipliers)``, when present, returns the
    Hessian of objective + multipliers @ constraints (``transcribe``
    builds it by second differences, not analytically); the solver
    takes Newton steps on it once the iterate is local (after a full
    step to a nearly feasible point, when its inertia is right) and it
    can seed the quasi-Newton matrix of a warm start.

    A lane-stacked NLP (``lanes`` = P > 1) is P problems that share
    every function but the right-hand side values of some constraint
    rows, the pins of each lane.  Its hooks also take a (Q, n_vars)
    stack of points, one row per lane, and return one result per row:
    ``objective`` (Q,), ``constraints(Z, lanes)`` (Q, m) with ``lanes``
    naming the lane of each row (row i is lane i by default),
    ``gradient`` (Q, n_vars), ``jacobian`` (Q, m, n_vars) and
    ``lagrangian_hessian(Z, multipliers)`` (Q, n_vars, n_vars) for a
    (Q, m) stack of multipliers.  Row i of each result is the bytes
    the single-lane problem of its lane returns for that row alone, so
    lanes solved together equal lanes solved alone.  A single vector
    ``z`` is lane 0 and gets the single-lane results, shaped as one
    row without its lane axis (the objective a 0-d array).
    """

    n_vars: int
    objective: Callable
    constraints: Callable
    lower: np.ndarray
    upper: np.ndarray
    gradient: Callable
    jacobian: Callable
    lagrangian_hessian: Optional[Callable] = None
    layout: Optional[Layout] = None
    mesh: Optional[Mesh] = None
    source: Optional[object] = None      # OcpDefinition or AugmentedOcp
    lanes: int = 1

    def __post_init__(self):
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper bounds differ in length")
        if np.any(self.lower != self.upper):
            raise ValueError("every constraint row must be an equality "
                             "(lower == upper)")

    @property
    def n_constraints(self) -> int:
        return self.lower.size


def _central_differences(fun, V: np.ndarray, rel_step: float,
                         out: np.ndarray, first: int = 0) -> np.ndarray:
    """Central differences of a batched function along columns of V.

    ``fun`` maps a (B', n) batch to one value (B',) or one row (B', r)
    per row.  Each column d >= ``first`` is moved by rel_step *
    (1 + |V[:, d]|) both ways, every moved copy of V in one stacked call,
    and the quotient goes to ``out[..., d]``; ``out`` is returned.
    """
    n = V.shape[1]
    if first >= n:
        return out
    step = rel_step * (1.0 + np.abs(V))
    moved = np.empty((2, n - first) + V.shape)
    moved[...] = V
    for k, d in enumerate(range(first, n)):
        moved[0, k, :, d] += step[:, d]
        moved[1, k, :, d] -= step[:, d]
    vals = np.asarray(fun(moved.reshape(-1, n)))
    vals = vals.reshape((2, n - first) + V.shape[:1] + vals.shape[1:])
    delta = vals[0] - vals[1]
    h = 2.0 * step[:, first:].T
    quotient = delta / h.reshape(h.shape + (1,) * (delta.ndim - 2))
    out[..., first:] = quotient.transpose(*range(1, delta.ndim), 0)
    return out


# width n -> the sign rows of _second_differences' stencil and the
# column pairs (a, b) of its cross moves
_STENCIL_CACHE: dict[int, tuple] = {}


def _stencil(n: int):
    """The cached 4-point stencil of width n (idempotent fill)."""
    cached = _STENCIL_CACHE.get(n)
    if cached is None:
        eye = np.eye(n)
        a, b = np.triu_indices(n, 1)
        signs = np.concatenate([np.zeros((1, n)), eye, -eye,
                                eye[a] + eye[b], eye[a] - eye[b],
                                -eye[a] + eye[b], -eye[a] - eye[b]])
        for arr in (signs, a, b):
            arr.flags.writeable = False
        cached = _STENCIL_CACHE[n] = (signs, a, b)
    return cached


def _second_differences(fun, V0: np.ndarray, rel_step: float) -> np.ndarray:
    """4-point second-difference Hessian blocks of a batched scalar function.

    ``fun`` maps a (B', n) batch to one value per row; the result is the
    (B, n, n) stack of its Hessians at the rows of V0, column d moved by
    rel_step * (1 + |V0[:, d]|).  The centre, the 2n single moves and
    the 4 moves of each column pair go to ``fun`` as one stacked batch.
    """
    B, n = V0.shape
    step = rel_step * (1.0 + np.abs(V0))
    signs, a, b = _stencil(n)
    vals = np.asarray(fun((V0 + signs[:, None, :] * step).reshape(-1, n)))
    vals = vals.reshape(signs.shape[0], B)
    centre, plus, minus = vals[0], vals[1:n + 1], vals[n + 1:2 * n + 1]
    pp, pm, mp, mm = vals[2 * n + 1:].reshape(4, a.size, B)
    blocks = np.empty((B, n, n))
    blocks[:, np.arange(n), np.arange(n)] = (
        (plus - 2.0 * centre + minus) / step.T ** 2).T
    cross = ((pp - pm - mp + mm) / (4.0 * step.T[a] * step.T[b])).T
    blocks[:, a, b] = cross
    blocks[:, b, a] = cross
    return blocks


def _pin_indices(values: Optional[np.ndarray]):
    """Pinned (non-NaN) components of ``values``, one vector or a (P, n)
    stack of rows that pin the same components, and their values."""
    if values is None:
        return np.array([], dtype=int), np.array([])
    values = np.asarray(values, dtype=float)
    free = np.isnan(values)
    if np.any(free != free.reshape(-1, free.shape[-1])[0]):
        raise ValueError("every lane must pin the same initial components")
    idx = np.nonzero(~free.reshape(-1, free.shape[-1])[0])[0]
    return idx, values[..., idx]


def transcribe(problem, mesh: Mesh, initial_states=None) -> NlpProblem:
    """Transcribe an :class:`OcpDefinition` or :class:`AugmentedOcp`.

    The mesh must match the problem's (fixed) time domain.  Rows are
    the collocation defects, then the initial and terminal pins, all
    equalities with zero right-hand side.  Every callback is evaluated
    on the stacked batch of collocation points, and a derivative hook's
    whole difference stencil in one stacked call.

    ``initial_states``, a (P, n) stack of the problem's full initial
    state with each lane's own values in the same pinned (non-NaN)
    components, makes the NLP lane-stacked (see :class:`NlpProblem`):
    lane i pins x(t0) to row i in place of ``initial_state``.  Every
    hook works on the (Q, n_vars) stack with the lane as a leading
    array axis, a vector as the one-row stack: each callback is
    evaluated once on every row's collocation points, the defects are
    one product of the stacked differentiation matrix with the stack,
    and each row's quadrature is its own (1, C) @ (C, 1) product, so
    row i sums as lane i alone does.

    The derivative hooks share one per-point block map: collocation
    point i owns the defect rows ``point_rows[i]`` and the columns
    ``point_vars[i]`` of its (x_i, u_i), and no two points share either.
    The gradient, the dynamics part of the Jacobian (the problem's
    ``jac_x`` where given, batched differences otherwise) and the
    Lagrangian Hessian are (C, ...) stacks of per-point blocks, each
    scattered through that map in one indexing operation; the Mayer
    term adds one block on the columns ``end_vars`` of x(t0), x(tf).
    """
    source = problem
    ocp = problem.ocp if isinstance(problem, AugmentedOcp) else problem
    if not isinstance(ocp, OcpDefinition):
        raise TypeError(f"cannot transcribe {type(problem).__name__}")
    t0, tf = ocp.time_domain
    if (abs(mesh.t0 - t0) > 1e-9 * max(1.0, abs(t0))
            or abs(mesh.tf - tf) > 1e-9 * max(1.0, abs(tf))):
        raise ValueError(
            f"mesh time domain ({mesh.t0}, {mesh.tf}) does not match "
            f"problem domain ({t0}, {tf})"
        )

    na, nu = ocp.n_states, ocp.n_controls
    orders = mesh.orders
    C = int(np.sum(orders))
    P = C + 1
    n_vars = P * na + C * nu
    layout = Layout(n_aug=na, n_controls=nu, n_state_points=P, n_colloc=C,
                    n_vars=n_vars)

    bases = [basis(nk) for nk in orders]

    # all interval differentiation matrices stacked into one (C, P) block
    # band so every defect evaluates in a single product
    diff_block = np.zeros((C, P))
    for a, nk, bs in zip(np.cumsum((0,) + orders), orders, bases):
        diff_block[a:a + nk, a:a + nk + 1] = bs.diff_matrix

    times = mesh.node_times()[1]
    halves = 0.5 * np.diff(mesh.interval_times())
    h_point = np.repeat(halves, orders)
    w_scaled = np.concatenate([h * bs.weights for h, bs in zip(halves, bases)])
    # the per-point block map (see the docstring); x_i's columns carry
    # the same numbers as point i's defect rows
    point_rows = np.arange(C * na).reshape(C, na)
    point_vars = np.hstack([point_rows,
                            P * na + np.arange(C * nu).reshape(C, nu)])
    end_vars = np.concatenate([np.arange(na), (P - 1) * na + np.arange(na)])

    if initial_states is None:
        initial_states = (None if ocp.initial_state is None
                          else ocp.initial_state[None])
    elif np.ndim(initial_states) != 2 or np.shape(initial_states)[1] != na:
        raise ValueError(f"initial_states must be a (P, {na}) stack")
    init_idx, init_vals = _pin_indices(initial_states)
    init_vals = np.atleast_2d(init_vals)   # (lanes, pins)
    term_idx, term_vals = _pin_indices(ocp.terminal_state)

    p_nom = ocp.nominal_params

    def eval_rates(X, U, times):
        out = np.asarray(ocp.dynamics(X, U, p_nom, times), dtype=float)
        return out.reshape(X.shape[0], na)

    def eval_running(X, U, times):
        if ocp.running_cost is None:
            return np.zeros(X.shape[0])
        return np.asarray(ocp.running_cost(X, U, times),
                          dtype=float).reshape(-1)

    tiled = {1: times}

    def tiled_times(M):
        # the collocation times of M stacked copies of the points, one
        # per lane or per stencil shift
        if M not in tiled:
            tiled[M] = np.concatenate((times,) * M)
        return tiled[M]

    def lane_points(Z):
        # every lane's support states, and the collocation states and
        # controls of all lanes, lane-major
        X, U = layout.split(Z)
        M = len(Z) * C
        return X, X[:, :-1].reshape(M, na), U.reshape(M, nu)

    def point_batch(Z):
        # one (na + nu) row of [x_i, u_i] per collocation point of each
        # lane, lane-major
        return np.hstack(lane_points(Z)[1:])

    def stacked(evaluate):
        # M stacked copies of the C point rows; times repeat per copy
        return lambda W: evaluate(W[:, :na], W[:, na:],
                                  tiled_times(W.shape[0] // C))

    # constraint rows: defects, then the initial and terminal pins
    n_rows = C * na + init_idx.size + term_idx.size

    def constraints(z: np.ndarray, lanes=None) -> np.ndarray:
        Z = z.reshape(-1, n_vars)
        X, Xc, Uc = lane_points(Z)
        F = eval_rates(Xc, Uc, tiled_times(len(Z))).reshape(len(Z), C, na)
        pins = init_vals[:len(Z)] if lanes is None else init_vals[lanes]
        rows = np.concatenate([
            (diff_block @ X - h_point[:, None] * F).reshape(len(Z), -1),
            X[:, 0, init_idx] - pins, X[:, -1, term_idx] - term_vals], axis=1)
        return rows.reshape(z.shape[:-1] + (n_rows,))

    def endpoint_cost(V):
        # the Mayer term on a batch of [x(t0), x(tf)] rows
        return np.asarray(ocp.terminal_cost(V[:, :na], t0, V[:, na:], tf),
                          dtype=float).reshape(-1)

    def objective(z: np.ndarray):
        # each lane's quadrature is its own (1, C) @ (C, 1) product, which
        # sums as w_scaled @ running of that lane alone; a (Q, C) @ (C,)
        # product need not
        Z = z.reshape(-1, n_vars)
        _, Xc, Uc = lane_points(Z)
        running = eval_running(Xc, Uc, tiled_times(len(Z)))
        value = (w_scaled @ running.reshape(len(Z), C, 1))[:, 0]
        if ocp.terminal_cost is not None:
            value = value + endpoint_cost(Z[:, end_vars])
        return value.reshape(z.shape[:-1])

    def gradient(z: np.ndarray) -> np.ndarray:
        # Quadrature costs are separable across collocation points, so
        # the gradient needs one central difference per state/control
        # dimension, all of them evaluated for all points in one call.
        Z = z.reshape(-1, n_vars)
        g = np.zeros(Z.shape)
        if ocp.running_cost is not None:
            V = point_batch(Z)
            g[:, point_vars] += w_scaled[:, None] * _central_differences(
                stacked(eval_running), V, 1e-6, np.empty_like(V)
            ).reshape(len(Z), C, -1)
        if ocp.terminal_cost is not None:
            ends = Z[:, end_vars]
            g[:, end_vars] += _central_differences(endpoint_cost, ends, 1e-6,
                                                   np.empty_like(ends))
        return g.reshape(z.shape)

    hess_step = float(np.finfo(float).eps) ** 0.25

    def lagrangian_hessian(z: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
        """Hessian of objective(z) + multipliers @ constraints(z).

        A 4-point second-difference stencil with step eps^(1/4) (relative
        error near 1e-8), not an analytic Hessian.  Quadrature cost and
        collocated dynamics are separable across collocation points, so
        the Hessian is a sum of per-point (na + nu) blocks plus one
        endpoint block for the Mayer term; each stencil, every shift of
        every point of every lane, is one stacked callback call.  The
        differencing part of the defects and the pins are linear and
        drop out.
        """
        Z = z.reshape(-1, n_vars)
        Q = len(Z)
        lam_defect = np.asarray(multipliers, dtype=float)[..., : C * na]
        weight = h_point[:, None] * lam_defect.reshape(Q, C, na)

        def point_scalar(W):
            # the per-point weights broadcast over the M stacked shifts
            val = -np.sum(weight * stacked(eval_rates)(W).reshape(-1, Q, C, na),
                          axis=3)
            if ocp.running_cost is not None:
                val = val + w_scaled * stacked(eval_running)(W).reshape(-1, Q, C)
            return val.ravel()

        hess = np.zeros((Q, n_vars, n_vars))
        blocks = _second_differences(point_scalar, point_batch(Z), hess_step)
        hess[:, point_vars[:, :, None], point_vars[:, None, :]] += \
            blocks.reshape(Q, C, na + nu, na + nu)
        if ocp.terminal_cost is not None:
            hess[:, end_vars[:, None], end_vars] += _second_differences(
                endpoint_cost, Z[:, end_vars], hess_step)
        return hess.reshape(z.shape[:-1] + (n_vars, n_vars))

    # --- constraint Jacobian ----------------------------------------------
    # The differencing part of the defects and the state pins are linear in
    # z, so those entries are assembled once into a template; each call
    # fills in only the per-point dynamics blocks.  kron's 0 * -D entries
    # are -0.0; adding 0.0 stores them as +0.0.
    jac_static = np.zeros((n_rows, n_vars))
    jac_static[: C * na, : P * na] = np.kron(diff_block, np.eye(na)) + 0.0
    jac_static[np.arange(C * na, n_rows),
               np.concatenate([init_idx, (P - 1) * na + term_idx])] = 1.0
    jac_step = float(np.finfo(float).eps) ** (1.0 / 3.0)

    def jacobian(z: np.ndarray) -> np.ndarray:
        # the template minus h_i * df/d(x_i, u_i) in every point block
        Z = z.reshape(-1, n_vars)
        V = point_batch(Z)
        Fj = np.empty((V.shape[0], na, na + nu))
        first = 0
        if ocp.jac_x is not None:
            Fj[:, :, :na] = np.asarray(
                ocp.jac_x(V[:, :na], V[:, na:], p_nom, tiled_times(len(Z))),
                dtype=float
            ).reshape(-1, na, na)
            first = na
        _central_differences(stacked(eval_rates), V, jac_step, Fj, first)
        J = np.repeat(jac_static[None], len(Z), axis=0)
        J[:, point_rows[:, :, None], point_vars[:, None, :]] -= \
            h_point[:, None, None] * Fj.reshape(len(Z), C, na, na + nu)
        return J.reshape(z.shape[:-1] + (n_rows, n_vars))

    return NlpProblem(
        n_vars=layout.n_vars,
        objective=objective,
        constraints=constraints,
        lower=np.zeros(n_rows),
        upper=np.zeros(n_rows),
        gradient=gradient,
        jacobian=jacobian,
        lagrangian_hessian=lagrangian_hessian,
        layout=layout,
        mesh=mesh,
        source=source,
        lanes=len(init_vals),
    )


def extract_solution(nlp: NlpProblem, z: np.ndarray,
                     objective_value: Optional[float] = None) -> Trajectory:
    """Split a decision vector into a :class:`Trajectory`."""
    layout = nlp.layout
    if layout is None:
        raise ValueError("NLP carries no transcription layout")
    z = np.asarray(z, dtype=float)
    if z.size != layout.n_vars:
        raise ValueError(f"decision vector has {z.size} entries, expected {layout.n_vars}")
    X, U = layout.split(z)
    mesh = nlp.mesh
    source = nlp.source
    if isinstance(source, AugmentedOcp):
        n_states = source.n_x
        sens_shape = (source.n_x, source.n_param)
    else:
        n_states = source.n_states if source is not None else layout.n_aug
        sens_shape = None
    # with b = a + N_k, interval k holds controls a..b - 1 and states a..b
    ends = np.cumsum((0,) + mesh.orders)
    state_values = [X[a:b + 1].copy() for a, b in zip(ends[:-1], ends[1:])]
    control_values = [U[a:b].copy() for a, b in zip(ends[:-1], ends[1:])]
    traj = Trajectory(
        t0=mesh.t0, tf=mesh.tf, interval_times=mesh.interval_times(),
        orders=mesh.orders,
        state_values=state_values, control_values=control_values,
        n_states=n_states, sens_shape=sens_shape,
        objective=objective_value,
    )
    if isinstance(source, AugmentedOcp):
        # the stored objective includes the sensitivity penalty; keep
        # the physical cost alongside it for reporting and comparisons
        traj.base_objective = base_objective(traj, source.base)
    return traj


def base_objective(traj: Trajectory, ocp: OcpDefinition) -> float:
    """Physical-cost value J of a trajectory, by the mesh's own quadrature."""
    total = 0.0
    n = ocp.n_states
    for k, nk in enumerate(traj.orders):
        a, b = traj.interval_times[k], traj.interval_times[k + 1]
        w = basis(nk).weights * 0.5 * (b - a)
        if ocp.running_cost is None:
            continue
        X = traj.state_values[k][:nk, :n]
        U = traj.control_values[k]
        times = traj.control_times[k]
        total += float(w @ np.asarray(ocp.running_cost(X, U, times), dtype=float))
    if ocp.terminal_cost is not None:
        x0 = traj.state_values[0][:1, :n]
        xf = traj.state_values[-1][-1:, :n]
        total += float(ocp.terminal_cost(x0, traj.t0, xf, traj.tf)[0])
    return total
