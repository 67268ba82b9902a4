"""SQP solver for the NLPs produced by transcription.

The solver handles problems of the form

    min f(z)   s.t.   c(z) = lower,

the only shape an :class:`NlpProblem` admits (``lower == upper`` on
every row).  Each search direction comes from one KKT solve of the
quadratic subproblem on all rows -- banded when the Hessian is
block-sparse, one LDL' factorization otherwise, which also gives the
Newton inertia -- globalized by a backtracking line search on the l1
exact-penalty merit function with a second-order correction of the
full step.  The subproblem Hessian is a damped
quasi-Newton matrix; once the iterate is local -- the previous step
was a full step and the constraint violation is at most 1e-6 -- the
problem's Lagrangian Hessian hook, when it provides one, takes its
place for every step whose KKT matrix has the inertia of a well-posed
equality QP, which restores Newton's local convergence.  For a
transcribed problem that hook is a second-difference stencil accurate
to about 1e-8 relative, not an analytic Hessian.
Multiplier convention: L = f + lambda' c, so ``min x^2 s.t. x = 3``
has multiplier -6.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs, solve_banded
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .sensitivity import AugmentedOcp
from .transcription import Mesh, NlpProblem

__all__ = [
    "SolverOptions",
    "IterationRecord",
    "NlpSolution",
    "constraint_violation",
    "estimate_multipliers",
    "initial_guess",
    "solve",
    "solve_lanes",
]


# backtracking of the merit line search: Armijo constant, step
# contraction per backtrack, and backtracks before giving up
SUFFICIENT_DECREASE = 1e-4
CONTRACTION = 0.5
MAX_BACKTRACKS = 30

# The banded KKT path (see _solve_kkt).  A QP Hessian with at most
# BANDED_MAX_FILL nonzeros per row on average is tried on it: a
# collocation Lagrangian Hessian holds one (states + controls) block per
# point, 1.5-2.2 nonzeros a row on the shipped problem, while a
# quasi-Newton matrix is full after one update.  The ordered KKT matrix
# is solved in band form when its half-bandwidth is at most
# BANDED_MAX_WIDTH_FRACTION of its order: the shipped problem's KKT
# matrices order to 0.054-0.068, and on KKT matrices of order 250-550
# ordered to 0.1-0.15 one banded solve, ordering included, took 0.35-0.7
# of a dense LU (2-core VM, one BLAS thread), break-even near 0.2.
# Below order BANDED_MIN_ORDER the ordering costs more than it saves:
# in situ at order 147 (OG on study_mesh()) a banded solve took 0.51 ms
# against 0.34 ms dense LU, at order 245 (DOG) 0.81 against 1.32 ms, and
# on synthetic KKT matrices the two broke even near order 175-200.
BANDED_MAX_FILL = 16
BANDED_MAX_WIDTH_FRACTION = 0.1
BANDED_MIN_ORDER = 200


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances for :func:`solve`."""

    kkt_tolerance: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if not (np.isfinite(self.kkt_tolerance) and self.kkt_tolerance > 0.0):
            raise ValueError("kkt_tolerance must be positive and finite")
        if (not isinstance(self.max_iterations, Integral)
                or self.max_iterations < 1):
            raise ValueError("max_iterations must be an integer >= 1")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted SQP step, for diagnostics and merit-trace tests."""

    iteration: int
    objective: float
    violation: float
    penalty: float
    step_length: float
    kkt: float


@dataclass
class NlpSolution:
    """Result of an SQP solve.

    ``status`` is one of ``converged``, ``max-iterations`` or
    ``line-search-failure``; non-converged statuses still carry the
    best iterate found.
    """

    z: np.ndarray
    multipliers: np.ndarray
    kkt_residual: float
    iterations: int
    status: str
    objective: float
    constraint_violation: float
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def constraint_violation(nlp: NlpProblem, c: np.ndarray) -> float:
    """Max-norm of the constraint residual c - lower."""
    if c.size == 0:
        return 0.0
    return float(np.max(np.abs(c - nlp.lower)))


def estimate_multipliers(nlp: NlpProblem, point: np.ndarray) -> np.ndarray:
    """Least-squares multiplier estimate at an arbitrary point.

    Minimizes the stationarity residual |g + J' lambda| over all rows.
    Near a solution this reproduces the optimal multipliers and makes a
    good warm-start companion to a Hessian seed.  A (P, n) stack of
    points, one per lane of a lane-stacked NLP, gives a (P, m) stack
    from one gradient and one Jacobian call.
    """
    z = np.asarray(point, dtype=float)
    if z.ndim == 1:
        return _least_squares_multipliers(nlp.gradient(z), nlp.jacobian(z))
    return np.array([_least_squares_multipliers(g, J)
                     for g, J in zip(nlp.gradient(z), nlp.jacobian(z))])


def _least_squares_multipliers(g, J):
    """Minimizer of |g + J' lambda|, from the normal equations.

    Solves J J' lambda = -J g by a Cholesky factorization, far cheaper
    than an SVD of J' for the full-row-rank Jacobians of a transcribed
    problem.  A rank-deficient J (redundant rows) makes J J' singular:
    when the factorization fails, a pivot keeps less than 1e-10 of its
    row's squared norm, or the solution is not finite, the minimum-norm
    ``lstsq`` estimate is returned instead, the same recovery as
    :func:`_solve_kkt`.
    """
    if J.shape[0] == 0:
        return np.zeros(0)
    gram = J @ J.T
    try:
        factor = cho_factor(gram)
        lam = cho_solve(factor, -(J @ g))
        if (np.all(np.diag(factor[0]) ** 2 >= 1e-10 * np.diag(gram))
                and np.all(np.isfinite(lam))):
            return lam
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(J.T, -g, rcond=None)[0]


def _banded_kkt_solve(H, A, rhs):
    """Solve [H A'; A 0] x = rhs in band form.

    Orders the KKT pattern by reverse Cuthill-McKee and solves the
    ordered band with LAPACK ``gbsv``.  Returns None when the ordered
    half-bandwidth exceeds ``BANDED_MAX_WIDTH_FRACTION`` of the order or
    the band LU meets an exactly zero pivot.
    """
    n, size = H.shape[0], rhs.size
    # numpy scans a boolean array several times faster than a float one
    h_src, a_src = np.flatnonzero(H != 0.0), np.flatnonzero(A != 0.0)
    hr, hc = np.divmod(h_src, n)
    ar, ac = np.divmod(a_src, n)
    ar += n
    rows = np.concatenate([hr, ar, ac])
    cols = np.concatenate([hc, ac, ar])
    pattern = csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                         shape=(size, size))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    rank = np.empty(size, dtype=np.intp)
    rank[perm] = np.arange(size)
    offset = rank[rows] - rank[cols]
    width = int(np.max(np.abs(offset), initial=0))
    if width > BANDED_MAX_WIDTH_FRACTION * size:
        return None
    # LAPACK band storage: ordered entry (i, j) at row width + i - j
    ab = np.zeros((2 * width + 1, size))
    a_val = A.take(a_src)
    ab[width + offset, rank[cols]] = np.concatenate([H.take(h_src), a_val,
                                                     a_val])
    try:
        x = solve_banded((width, width), ab, rhs[perm], overwrite_ab=True,
                         check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return x[rank]


def _kkt_ldl(H, A):
    """Bunch-Kaufman LDL' factorization of K = [H A'; A 0].

    Returns LAPACK ``sytrf``'s ``(ldu, ipiv, info)`` for K's lower
    triangle (``info > 0``: an exactly zero pivot) and K's inertia
    (positive, negative, zero), counted from D's 1x1 and 2x2 pivot
    blocks with pivots within rounding of zero as zero.  It is (n, m, 0)
    exactly when the QP on H has a unique minimizer: A has full row rank
    and H is positive definite on its null space.  ``scipy.linalg.ldl``
    runs the same routine but expands L and D into dense copies.
    """
    n = H.shape[0]
    size = n + A.shape[0]
    scale = max(1.0, float(np.max(np.abs(H), initial=0.0)),
                float(np.max(np.abs(A), initial=0.0)))
    K = np.zeros((size, size), order="F")
    K[:n, :n] = H
    K[n:, :n] = A
    sytrf, sytrf_lwork = get_lapack_funcs(("sytrf", "sytrf_lwork"), (K,))
    lwork = int(sytrf_lwork(size, lower=1)[0])
    ldu, ipiv, info = sytrf(K, lower=1, lwork=lwork, overwrite_a=1)
    # a negative pivot index marks the first row of a 2x2 block
    first, k = [], 0
    pivots = ipiv.tolist()
    while k < size:
        if pivots[k] < 0:
            first.append(k)
        k += 2 if pivots[k] < 0 else 1
    first = np.array(first, dtype=int)
    diag = np.diag(ldu)
    single = np.ones(size, dtype=bool)
    single[first] = single[first + 1] = False
    # closed-form eigenvalues of the symmetric 2x2 blocks
    a, b, c = diag[first], ldu[first + 1, first], diag[first + 1]
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    eigs = np.concatenate([diag[single], mid + rad, mid - rad])
    zero_tol = np.finfo(float).eps * size * scale
    pos = int(np.count_nonzero(eigs > zero_tol))
    neg = int(np.count_nonzero(eigs < -zero_tol))
    return ldu, ipiv, info, (pos, neg, size - pos - neg)


def _solve_kkt(B, A, g, b, ldl=None):
    """Solve the equality-constrained QP min 0.5 d'Bd + g'd s.t. A d = b.

    Returns the step and the multipliers of the rows of A.  ``ldl`` is
    :func:`_kkt_ldl`'s factorization of this KKT matrix when the caller
    has one (a Newton step, factored for its inertia test).  Otherwise a
    KKT matrix of order at least ``BANDED_MIN_ORDER`` whose B has at
    most ``BANDED_MAX_FILL`` nonzeros a row (a quasi-Newton B after its
    first update is full, and is counted, never scanned for its
    pattern) is first tried in band form by :func:`_banded_kkt_solve`.
    The dense path is one LDL' factorization solved by ``sytrs``:
    4.6-5.0 ms against 6.1-7.0 ms for an LU (``getrf``) at order 545.
    An answer counts only if its residual is at most 1e-8 (1 + |rhs|);
    a zero pivot or a failed test on the LDL' answer, e.g. from
    redundant rows, ends in the minimum-norm least-squares solution.
    """
    n = B.shape[0]
    rhs = np.concatenate([-g, b])
    tol = 1e-8 * (1.0 + np.linalg.norm(rhs))

    def accepted(sol):
        d, lam = sol[:n], sol[n:]
        resid = np.concatenate([B @ d + A.T @ lam, A @ d]) - rhs
        # a non-finite solution fails this comparison too
        return np.linalg.norm(resid) <= tol

    # counted on a boolean array, which numpy scans several times faster
    if (ldl is None and rhs.size >= BANDED_MIN_ORDER
            and np.count_nonzero(B != 0.0) <= BANDED_MAX_FILL * n):
        sol = _banded_kkt_solve(B, A, rhs)
        if sol is not None and accepted(sol):
            return sol[:n], sol[n:]
    ldu, ipiv, info, _ = ldl or _kkt_ldl(B, A)
    if info == 0:
        sytrs, = get_lapack_funcs(("sytrs",), (ldu,))
        sol, _ = sytrs(ldu, ipiv, rhs, lower=1)
        if accepted(sol):
            return sol[:n], sol[n:]
    M = np.block([[B, A.T], [A, np.zeros((A.shape[0],) * 2)]])
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return sol[:n], sol[n:]


def _qp_step(B, H_lag, J, g, b):
    """Step and multipliers of the QP on the Lagrangian Hessian ``H_lag``
    when given and its KKT matrix has inertia (n, m, 0), solved on the
    LDL' factors that tested it; otherwise of the QP on ``B``."""
    if H_lag is not None:
        m, n = J.shape
        H_lag = np.asarray(H_lag, dtype=float)
        factors = _kkt_ldl(H_lag, J)
        if factors[3] == (n, m, 0):
            return _solve_kkt(H_lag, J, g, b, factors)
    return _solve_kkt(B, J, g, b)


def _correction(J, resid):
    """Minimum-norm step removing the constraint residual ``resid``
    to first order: by the normal equations, or lstsq when J is
    ill-conditioned."""
    try:
        corr = J.T @ np.linalg.solve(J @ J.T, -resid)
        ok = np.all(np.isfinite(corr)) and (
            np.linalg.norm(J @ corr + resid)
            <= 1e-8 * (1.0 + np.linalg.norm(resid)))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        corr, *_ = np.linalg.lstsq(J, -resid, rcond=None)
    return corr


def _damped_bfgs_update(B, s, y):
    """Powell-damped BFGS update keeping B positive definite."""
    Bs = B @ s
    sBs = float(s @ Bs)
    if sBs <= 1e-16:
        return B
    sy = float(s @ y)
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
        sy = float(s @ y)
    if sy <= 1e-16:
        return B
    return B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy


def _merit(f, viol, nu):
    return f + nu * viol


def _l1_violation(nlp, c):
    return float(np.sum(np.abs(c - nlp.lower)))


def solve(nlp: NlpProblem, guess: np.ndarray,
          opts: Optional[SolverOptions] = None,
          hessian0: Optional[np.ndarray] = None,
          multipliers0: Optional[np.ndarray] = None) -> NlpSolution:
    """Run SQP from ``guess``; deterministic for identical inputs.

    Each step solves the KKT system of the quadratic subproblem on all
    rows at once (every row is an equality).  Steps use the damped
    quasi-Newton matrix until the iterate is local: after a full step
    (alpha = 1) to a point with constraint violation <= 1e-6, each QP
    is built on ``nlp.lagrangian_hessian`` at the current point and
    multipliers instead, provided the problem has that hook and the
    KKT matrix [H J'; J 0] has inertia (n, m, 0).  Otherwise the
    quasi-Newton matrix is used; it takes every step's update either
    way, applied when the next step is about to be computed, so a
    solve that converges after k steps makes k - 1 updates.

    ``hessian0``/``multipliers0`` seed the quasi-Newton matrix and the
    merit penalty from an earlier, closely related solve.  This is the
    one-lane case of :func:`solve_lanes`.
    """
    z = np.asarray(guess, dtype=float)
    if z.size != nlp.n_vars:
        raise ValueError(f"guess has {z.size} entries, expected {nlp.n_vars}")
    return solve_lanes(nlp, z.reshape(1, -1), opts,
                       None if hessian0 is None else [hessian0],
                       None if multipliers0 is None else [multipliers0])[0]


class _Iterate:
    """One lane of :func:`solve_lanes`: its iterate, quasi-Newton matrix,
    penalty and trace, and the state of its current step."""

    def __init__(self, lane, z, hessian0, multipliers0, m):
        n = z.size
        if hessian0 is not None:
            self.B = np.asarray(hessian0, dtype=float).copy()
            if self.B.shape != (n, n):
                raise ValueError(
                    f"hessian0 has shape {self.B.shape}, expected {(n, n)}")
        else:
            self.B = np.eye(n)
        mu = None if multipliers0 is None else np.asarray(multipliers0,
                                                          dtype=float)
        self.nu = 1.0
        if mu is not None and mu.size == m and m:
            self.nu = max(self.nu, 2.0 * float(np.max(np.abs(mu))))
        # Multipliers for the loop-top optimality check.  Any vector gives
        # an upper bound on the minimal stationarity residual (so passing
        # the check is always a valid certificate); the QP multipliers
        # from the previous accepted step are essentially free and tight
        # near the solution, so a fresh least-squares estimate is only
        # computed when neither they nor a caller-provided seed are
        # available.
        self.lam = mu if mu is not None and mu.size == m else None
        self.lane, self.z = lane, z
        self.alpha = 0.0   # no step taken yet, so the first QP is never local
        self.pair = None   # the last step's curvature pair, not yet applied
        self.trace: list = []
        self.status: Optional[str] = None   # set when the lane stops
        self.it = 0

    def stop(self, status: str) -> None:
        """End this lane's solve; the matrices only further steps need
        are dropped, so a stacked array dies with its last lane."""
        self.status, self.B, self.g, self.J = status, None, None, None

    def trial(self) -> None:
        """The line search's next point at step length ``alpha``."""
        self.soc = False
        self.point = self.z + self.alpha * self.d

    def contract(self) -> bool:
        """Shorten the step after a rejected trial; False when the
        backtracks are used up (a line-search failure)."""
        self.alpha *= CONTRACTION
        self.backtrack += 1
        if self.backtrack == MAX_BACKTRACKS:
            self.stop("line-search-failure")
            return False
        self.trial()
        return True


def solve_lanes(nlp: NlpProblem, guesses, opts: Optional[SolverOptions] = None,
                hessian0=None, multipliers0=None) -> list:
    """Run SQP from each row of ``guesses`` (P, n) in lock step.

    Row i is lane i of ``nlp``, which must have P lanes (a lane-stacked
    NLP when P > 1, see :class:`NlpProblem`); ``hessian0`` and
    ``multipliers0`` are None or one seed per lane.  Each lane runs
    :func:`solve`'s algorithm with its own iterate, quasi-Newton matrix,
    penalty weight, backtracking line search and second-order
    correction, convergence test, status and trace, and solves its own
    KKT systems.  Lanes advance one SQP iteration per round, and each
    round calls every hook once on the stack of the lanes that need it:
    the Lagrangian Hessian for lanes in their local phase, objective
    and constraints once per line-search trial (a backtrack or a
    correction), gradient and Jacobian at the accepted points.  A lane
    that stops drops out of later calls.  A single lane calls the hooks
    on its vector.  Returns one :class:`NlpSolution` per lane, each the
    bytes of its lane solved alone.
    """
    opts = opts or SolverOptions()
    Z = np.array(guesses, dtype=float)
    n = nlp.n_vars
    m = nlp.n_constraints
    if Z.ndim != 2 or Z.shape[1] != n:
        raise ValueError(f"guesses have shape {Z.shape}, expected (P, {n})")
    P = Z.shape[0]
    if P != nlp.lanes:
        raise ValueError(f"{P} guesses for an NLP of {nlp.lanes} lanes")

    def evaluate(hook, points, *extra, lanes=None):
        # one result per point; a single lane calls the hook on its vector
        if P == 1:
            return [hook(points[0], *(e[0] for e in extra))]
        args = [np.stack(points), *(np.stack(e) for e in extra)]
        return hook(*args) if lanes is None else hook(*args, lanes)

    iterates = [_Iterate(i, z, None if hessian0 is None else hessian0[i],
                         None if multipliers0 is None else multipliers0[i], m)
                for i, z in enumerate(Z)]
    # each lane holds a copy of its seed, dropped at its first update, so
    # a seed stack passed in and held nowhere else is freed here
    del hessian0
    eps = np.finfo(float).eps
    points = [lane.z for lane in iterates]
    for lane, f, g, c, J in zip(
            iterates, evaluate(nlp.objective, points),
            evaluate(nlp.gradient, points),
            evaluate(nlp.constraints, points),
            evaluate(nlp.jacobian, points)):
        lane.f, lane.g, lane.c, lane.J = float(f), g, c, J
    # a lane's first Jacobian dies with its first step, not held here
    del f, g, c, J

    for it in range(opts.max_iterations + 1):
        running = [lane for lane in iterates if lane.status is None]
        if not running:
            break
        local = []
        for lane in running:
            lane.it = it
            if lane.lam is None:
                lane.lam = _least_squares_multipliers(lane.g, lane.J)
            stat = lane.g + lane.J.T @ lane.lam if m else lane.g
            lane.viol_inf = constraint_violation(nlp, lane.c)
            lane.kkt = max(float(np.max(np.abs(stat))) if n else 0.0,
                           lane.viol_inf)
            if lane.kkt <= opts.kkt_tolerance:
                lane.stop("converged")
                continue
            if it == opts.max_iterations:
                lane.stop("max-iterations")
                continue
            # the previous step's quasi-Newton update, made only once
            # another step needs it: a warm re-solve that converges after
            # one step never pays for an n x n rank-2 update
            if lane.pair is not None:
                lane.B = _damped_bfgs_update(lane.B, *lane.pair)
            if (lane.alpha == 1.0 and lane.viol_inf <= 1e-6
                    and nlp.lagrangian_hessian is not None):
                local.append(lane)

        # local phase: after a full step onto a nearly feasible point,
        # take Newton steps on the problem's Lagrangian Hessian whenever
        # its reduced Hessian is positive definite, solved on the LDL'
        # factors that tested it; B stays the fallback
        hessians = dict(zip((lane.lane for lane in local), evaluate(
            nlp.lagrangian_hessian, [lane.z for lane in local],
            [lane.lam for lane in local]))) if local else {}

        searching = []
        for lane in running:
            if lane.status is not None:
                continue
            d, lane.lam_qp = _qp_step(lane.B, hessians.pop(lane.lane, None),
                                      lane.J, lane.g, nlp.lower - lane.c)
            step_scale = float(np.max(np.abs(d))) if n else 0.0
            if not np.all(np.isfinite(d)) or step_scale > 1e12:
                lane.stop("line-search-failure")
                continue
            # exact-penalty weight: raised when multipliers demand it,
            # relaxed slowly once they shrink again
            lam_qp = lane.lam_qp
            nu_req = 2.0 * float(np.max(np.abs(lam_qp))) + 1e-3 if lam_qp.size else 1e-3
            if nu_req > lane.nu:
                lane.nu = nu_req
            elif lane.nu > 10.0 * nu_req:
                lane.nu = max(nu_req, 0.1 * lane.nu)

            viol_l1 = _l1_violation(nlp, lane.c)
            lane.phi0 = _merit(lane.f, viol_l1, lane.nu)
            lane.dphi = float(lane.g @ d) - lane.nu * viol_l1
            rounding = 1e3 * eps * (1.0 + abs(lane.phi0))
            if lane.dphi > rounding:
                # not a descent direction for the merit (an indefinite
                # seeded matrix can give one): stop instead of climbing
                # along it
                lane.stop("line-search-failure")
                continue
            lane.tiny = abs(lane.dphi) <= rounding
            lane.d, lane.alpha, lane.backtrack = d, 1.0, 0
            lane.trial()
            searching.append(lane)

        # the line search, one round per trial point of every lane still
        # searching: a full or shortened step, or the second-order
        # correction tried once after a rejected full step
        accepted = []
        while searching:
            trials = [lane.point for lane in searching]
            pending = []
            for lane, f_new, c_new in zip(
                    searching, evaluate(nlp.objective, trials),
                    evaluate(nlp.constraints, trials,
                             lanes=[lane.lane for lane in searching])):
                f_new = float(f_new)
                phi_new = _merit(f_new, _l1_violation(nlp, c_new), lane.nu)
                if lane.soc:
                    ok = phi_new <= lane.phi0 + SUFFICIENT_DECREASE * lane.dphi
                else:
                    ok = lane.tiny or (phi_new <= lane.phi0 + SUFFICIENT_DECREASE
                                       * lane.alpha * lane.dphi)
                if ok:
                    lane.z_new, lane.f_new, lane.c_new = lane.point, f_new, c_new
                    accepted.append(lane)
                elif not lane.soc and lane.backtrack == 0 and m:
                    # second-order correction: retry the full step with the
                    # curvature-induced constraint violation removed
                    lane.soc, lane.point = True, lane.z + lane.d + \
                        _correction(lane.J, c_new - nlp.lower)
                    pending.append(lane)
                elif lane.contract():
                    pending.append(lane)
            searching = pending

        if accepted:
            news = [lane.z_new for lane in accepted]
            for lane, g_new, J_new in zip(accepted,
                                          evaluate(nlp.gradient, news),
                                          evaluate(nlp.jacobian, news)):
                s = lane.z_new - lane.z
                if m:
                    y = ((g_new + J_new.T @ lane.lam_qp)
                         - (lane.g + lane.J.T @ lane.lam_qp))
                else:
                    y = g_new - lane.g
                lane.pair = (s, y)
                lane.z, lane.f, lane.g = lane.z_new, lane.f_new, g_new
                lane.c, lane.J = lane.c_new, J_new
                lane.lam = lane.lam_qp
                lane.trace.append(IterationRecord(
                    iteration=it + 1, objective=lane.f,
                    violation=_l1_violation(nlp, lane.c), penalty=lane.nu,
                    step_length=lane.alpha, kkt=lane.kkt,
                ))

    # every lane stops at iteration ``it`` with the multipliers its
    # optimality check used
    return [NlpSolution(
        z=lane.z, multipliers=lane.lam, kkt_residual=lane.kkt,
        iterations=lane.it, status=lane.status, objective=lane.f,
        constraint_violation=constraint_violation(nlp, lane.c),
        trace=lane.trace,
    ) for lane in iterates]


def initial_guess(problem, mesh: Mesh) -> np.ndarray:
    """Cold-start decision vector for a transcribed problem.

    Each state dimension is interpolated linearly in time between its
    pinned boundary values; with only one pin it is held constant, and
    unpinned dimensions start at zero.  Controls start at zero.
    """
    ocp = problem.ocp if isinstance(problem, AugmentedOcp) else problem
    na, nu = ocp.n_states, ocp.n_controls
    t_support, t_colloc = mesh.node_times()

    init = ocp.initial_state
    term = ocp.terminal_state
    states = np.zeros((t_support.size, na))
    span = mesh.tf - mesh.t0
    frac = (t_support - mesh.t0) / span
    for d in range(na):
        a = None if init is None or np.isnan(init[d]) else float(init[d])
        b = None if term is None or np.isnan(term[d]) else float(term[d])
        if a is not None and b is not None:
            states[:, d] = a + (b - a) * frac
        elif a is not None:
            states[:, d] = a
        elif b is not None:
            states[:, d] = b
    return np.concatenate([states.ravel(), np.zeros(t_colloc.size * nu)])
