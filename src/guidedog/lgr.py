"""Legendre-Gauss-Radau (LGR) collocation primitives.

Nodes, quadrature weights, differentiation matrices and barycentric
interpolation weights on the canonical interval [-1, +1).  The LGR
points of order n are the n roots of P_{n-1} + P_n; they include the
left endpoint -1 and exclude +1.  State polynomials are supported on
the nodes plus the noncollocated endpoint +1, so the differentiation
matrix is rectangular, n x (n + 1).  Mesh node times and polynomial
evaluation live here too, for every caller in the package.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LgrBasisSet",
    "legendre_eval",
    "lgr_nodes",
    "lgr_weights",
    "differentiation_matrix",
    "barycentric_weights",
    "barycentric_eval",
    "basis",
    "interval_node_times",
]

_NEWTON_MAX_ITER = 100


def legendre_eval(n: int, tau):
    """Evaluate the Legendre polynomial P_n and its derivative.

    Parameters
    ----------
    n : int
        Polynomial degree, n >= 0.
    tau : float or ndarray
        Evaluation point(s) in [-1, 1].

    Returns
    -------
    (value, derivative)
        P_n(tau) and P_n'(tau), computed with the three-term
        recurrences; total on [-1, 1] including the endpoints.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    tau = np.asarray(tau, dtype=float)
    p_prev = np.ones_like(tau)
    d_prev = np.zeros_like(tau)
    if n == 0:
        return p_prev, d_prev
    p = tau.copy()
    d = np.ones_like(tau)
    # (k+1) P_{k+1} = (2k+1) tau P_k - k P_{k-1};  P'_{k+1} = P'_{k-1} + (2k+1) P_k
    for k in range(1, n):
        p_next = ((2 * k + 1) * tau * p - k * p_prev) / (k + 1)
        d_next = d_prev + (2 * k + 1) * p
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, d


def lgr_nodes(n: int) -> np.ndarray:
    """Compute the n Legendre-Gauss-Radau points on [-1, +1).

    The first point is exactly -1; the remaining n - 1 points are the
    interior roots of g(tau) = P_{n-1}(tau) + P_n(tau), found by Newton
    iteration from Chebyshev-Gauss-Radau initial guesses.  The Newton
    step uses the closed form g'(tau) = n (P_{n-1} - P_n) / (1 - tau).
    """
    if n < 1:
        raise ValueError(f"need at least one collocation point, got n={n}")
    if n == 1:
        return np.array([-1.0])
    # Chebyshev-Gauss-Radau estimates for the interior roots.
    k = np.arange(1, n)
    tau = -np.cos(2.0 * np.pi * k / (2 * n - 1))
    for _ in range(_NEWTON_MAX_ITER):
        p_lo, _ = legendre_eval(n - 1, tau)
        p_hi, _ = legendre_eval(n, tau)
        step = (1.0 - tau) * (p_lo + p_hi) / (n * (p_lo - p_hi))
        tau = tau - step
        if np.max(np.abs(step)) < 5e-16:
            break
    else:
        raise RuntimeError(f"LGR node iteration failed to converge for n={n}")
    nodes = np.concatenate(([-1.0], np.sort(tau)))
    if np.any(np.diff(nodes) <= 0.0) or nodes[-1] >= 1.0:
        raise RuntimeError(f"LGR nodes out of order for n={n}")
    return nodes


def lgr_weights(nodes: np.ndarray) -> np.ndarray:
    """Quadrature weights for LGR nodes: w_1 = 2/n^2, w_i = (1 - tau_i) / (n P_{n-1}(tau_i))^2."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    p, _ = legendre_eval(n - 1, nodes)
    w = (1.0 - nodes) / (n * p) ** 2
    w[0] = 2.0 / n**2  # P_{n-1}(-1)^2 = 1, so this is the same closed form
    return w


def barycentric_weights(points: np.ndarray) -> np.ndarray:
    """Barycentric interpolation weights for a set of distinct points.

    Normalized by the largest magnitude; the barycentric formula is
    invariant under a common scale factor.
    """
    points = np.asarray(points, dtype=float)
    diff = points[:, None] - points[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise ValueError("interpolation points must be distinct")
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))


def barycentric_eval(nodes, weights, values, tau):
    """Interpolant through ``(nodes, values)`` at a scalar or array ``tau``.

    ``values`` is (N,) or (N, w), and the result has shape
    ``tau.shape + values.shape[1:]``.  With a leading lane axis,
    ``values`` (P, N, w) holds P sample sets on the same nodes and
    ``tau`` (P, ...) their queries; lane i is read at ``tau[i]``, and
    the result is ``tau.shape + (w,)``.  By the second (true)
    barycentric formula (Berrut & Trefethen, SIAM Review 2004).  A query
    equal to a node returns that node's sample exactly.  Both sums run
    node by node in node order (a cumulative sum, never pairwise or
    BLAS), so each row of an array query, in any lane, is bit-identical
    to the same query made on its own.
    """
    values = np.asarray(values, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if values.ndim == 3:
        lanes, shape = values, tau.shape + values.shape[2:]
    else:
        lanes = values.reshape(1, values.shape[0], -1)
        shape = tau.shape + values.shape[1:]
    # (P, q, N) node offsets of each lane's queries
    delta = tau.reshape(lanes.shape[0], -1, 1) - nodes
    hits = () if delta.all() else np.nonzero(delta == 0.0)
    if hits:
        # a node hit would divide by zero: give its row a finite
        # one-term sum, then overwrite it with the stored sample
        delta[hits[:2]] = np.inf
        delta[hits] = 1.0
    coef = weights / delta
    num = (coef[..., None] * lanes[:, None]).cumsum(axis=2)[:, :, -1]
    out = num / coef.cumsum(axis=2)[:, :, -1, None]
    if hits:
        out[hits[:2]] = lanes[hits[0], hits[2]]
    return out.reshape(shape)


def differentiation_matrix(nodes: np.ndarray, noncollocated: float = 1.0) -> np.ndarray:
    """Differentiation matrix from the n + 1 support points to the n collocation points.

    Parameters
    ----------
    nodes : ndarray
        The n collocation points.
    noncollocated : float
        The extra support point (the right endpoint +1 for LGR).

    Returns
    -------
    ndarray, shape (n, n + 1)
        D such that D @ f(support) = f'(nodes) exactly for polynomials
        of degree <= n.  Built from the barycentric weights, with the
        diagonal set by the negative-sum trick so each row sums to zero.
    """
    nodes = np.asarray(nodes, dtype=float)
    support = np.concatenate((nodes, [float(noncollocated)]))
    w = barycentric_weights(support)
    m = support.size
    diff = support[:, None] - support[None, :]
    np.fill_diagonal(diff, 1.0)
    full = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(full, 0.0)
    np.fill_diagonal(full, -np.sum(full, axis=1))
    return full[: m - 1, :]


@dataclass(frozen=True)
class LgrBasisSet:
    """Nodes, weights and differentiation matrix for one mesh interval."""

    nodes: np.ndarray            # (n,), strictly increasing, nodes[0] = -1
    weights: np.ndarray          # (n,), positive, sums to 2
    diff_matrix: np.ndarray      # (n, n + 1)
    support: np.ndarray = field(repr=False, default=None)        # nodes + [+1]
    support_bary: np.ndarray = field(repr=False, default=None)   # barycentric weights on support
    node_bary: np.ndarray = field(repr=False, default=None)      # barycentric weights on nodes


_BASIS_CACHE: dict[int, LgrBasisSet] = {}


def basis(n: int) -> LgrBasisSet:
    """Return the cached LGR basis set of order n (idempotent fill)."""
    cached = _BASIS_CACHE.get(n)
    if cached is not None:
        return cached
    nodes = lgr_nodes(n)
    support = np.concatenate((nodes, [1.0]))
    made = LgrBasisSet(
        nodes=nodes,
        weights=lgr_weights(nodes),
        diff_matrix=differentiation_matrix(nodes),
        support=support,
        support_bary=barycentric_weights(support),
        node_bary=barycentric_weights(nodes),
    )
    _BASIS_CACHE[n] = made
    return made


def interval_node_times(bounds, orders) -> tuple[list, list]:
    """Per-interval support (N_k + 1) and collocation (N_k) times.

    Interval k maps the LGR points onto [bounds[k], bounds[k + 1]].  The
    last support time is the bound itself: a + (b - a) can round past b.
    """
    support, colloc = [], []
    for k, nk in enumerate(orders):
        a, b = bounds[k], bounds[k + 1]
        times = a + (basis(nk).support + 1.0) * 0.5 * (b - a)
        times[-1] = b
        support.append(times)
        colloc.append(times[:-1].copy())
    return support, colloc
