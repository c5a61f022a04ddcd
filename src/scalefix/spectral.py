"""Nonnegative-matrix spectral utilities and scale-aware norms.

Everything here is a pure function of its arguments: no caches, no
module state, safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "SpectralResult",
    "ReducibleMatrixError",
    "PowerIterationError",
    "is_irreducible",
    "is_primitive",
    "strongly_connected_components",
    "spectral_radius",
    "eigvals_mod_zero",
    "gauge_norm",
    "quotient_norm",
]


class ReducibleMatrixError(ValueError):
    """Raised when an operation requires an irreducible matrix."""


class PowerIterationError(RuntimeError):
    """Power iteration ran out of budget, or its iterate underflowed to
    a zero entry, before the bounds closed.

    Carries the last Collatz-Wielandt sandwich so callers can decide
    whether the partial answer is good enough.
    """

    def __init__(self, message: str, lower_bound: float, upper_bound: float,
                 iterations: int):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.iterations = iterations


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius estimate with the bracket it terminated in."""

    rho: float
    right_eigvec: NDArray[np.float64]
    lower_bound: float
    upper_bound: float
    iterations: int


def _as_nonneg_square(M) -> NDArray[np.float64]:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    if np.any(A < 0):
        j, k = np.argwhere(A < 0)[0]
        raise ValueError(f"negative entry {A[j, k]} at ({j}, {k}); "
                         "a nonnegative matrix is required")
    return A


def _reachable(adj: NDArray[np.bool_], start: int) -> NDArray[np.bool_]:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = np.flatnonzero(nxt).tolist()
    return seen


def is_irreducible(M) -> bool:
    """True iff the directed graph induced by the nonzero pattern of M
    is strongly connected.

    A 1x1 matrix counts as irreducible only when its entry is positive,
    so that the positive-eigenvector statement stays valid.
    """
    return _strongly_connected(_as_nonneg_square(M))


def _strongly_connected(A: NDArray[np.float64]) -> bool:
    """is_irreducible for an A that _as_nonneg_square has validated."""
    if A.shape[0] == 1:
        return bool(A[0, 0] > 0.0)
    adj = A > 0.0
    # strong connectivity == node 0 reaches everyone and everyone reaches it
    return bool(_reachable(adj, 0).all() and _reachable(adj.T, 0).all())


def is_primitive(M) -> bool:
    """Sufficient primitivity check: irreducible with a nonzero diagonal entry."""
    A = _as_nonneg_square(M)
    return _strongly_connected(A) and bool(np.any(np.diag(A) > 0.0))


def strongly_connected_components(M) -> list[list[int]]:
    """Strongly connected components of the nonzero pattern, as sorted
    index lists, ordered by smallest member.

    Iterative Tarjan; used for diagnosing disconnected trade networks.
    """
    A = _as_nonneg_square(M)
    n = A.shape[0]
    succ = [np.flatnonzero(A[j] > 0.0).tolist() for j in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    comps.sort(key=lambda c: c[0])
    return comps


def spectral_radius(M, tol: float = 1e-10, start=None) -> SpectralResult:
    """Perron root of an irreducible nonnegative matrix by power iteration.

    Stops once the Collatz-Wielandt sandwich
        min_j (Mv)_j / v_j  <=  rho  <=  max_j (Mv)_j / v_j
    is tighter than tol * max(1, rho); returns the bracket midpoint.
    The sandwich needs a strictly positive iterate, so when normalizing
    underflows an entry to 0 (entries of very mixed magnitude) a
    PowerIterationError carries the last bracket, as when the 100 * n
    iteration budget runs out.  Iteration starts from `start`, a
    strictly positive vector (all ones by default); a start at the
    Perron vector closes the bracket after one matvec.

    Imprimitive matrices can cycle without closing the bracket.  When the
    bracket stalls we add a tiny diagonal shift (1e-12 * max entry), which
    moves every eigenvalue by exactly the shift and leaves eigenvectors
    alone, and subtract it from the reported numbers at the end.
    """
    A = _as_nonneg_square(M)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not _strongly_connected(A):
        raise ReducibleMatrixError(
            "matrix is reducible; Collatz-Wielandt bounds need not close")
    n = A.shape[0]
    max_iter = 100 * n
    v = np.ones(n) if start is None else _check_gauge(start, "start vector")
    if v.shape != (n,):
        raise ValueError(f"start vector has shape {v.shape}, expected ({n},)")
    shift = 0.0
    stall = 0
    prev_width = np.inf
    lower = 0.0
    upper = np.inf
    for it in range(1, max_iter + 1):
        w = A @ v + shift * v
        ratios = w / v
        lower = float(ratios.min())
        upper = float(ratios.max())
        mid = 0.5 * (lower + upper)
        if upper - lower <= tol * max(1.0, mid):
            rho = mid - shift
            v = w / w.max()
            return SpectralResult(
                rho=rho,
                right_eigvec=v,
                lower_bound=lower - shift,
                upper_bound=upper - shift,
                iterations=it,
            )
        width = upper - lower
        if width > 0.95 * prev_width:
            stall += 1
        else:
            stall = 0
        prev_width = width
        if stall >= 5 and shift == 0.0:
            shift = 1e-12 * float(A.max())
            stall = 0
            prev_width = np.inf
        v = w / w.max()
        if not v.all():
            raise PowerIterationError(
                f"power iterate underflowed to 0 at iteration {it}; "
                f"Collatz-Wielandt bounds were [{lower - shift:.17g}, "
                f"{upper - shift:.17g}]",
                lower_bound=lower - shift,
                upper_bound=upper - shift,
                iterations=it,
            )
    raise PowerIterationError(
        f"Collatz-Wielandt bounds still [{lower - shift:.17g}, "
        f"{upper - shift:.17g}] after {max_iter} iterations",
        lower_bound=lower - shift,
        upper_bound=upper - shift,
        iterations=max_iter,
    )


def eigvals_mod_zero(M) -> NDArray:
    """Eigenvalues of the square matrix M, except that the multiplicity
    of the eigenvalue 0 may differ.

    Coordinates with a zero diagonal are peeled in rounds: each round
    takes those whose row has no nonzero entry in the columns of the
    zero-diagonal coordinates not yet peeled.  The peeled set K induces
    an acyclic graph, so N = M_KK is nilpotent, N^m = 0 after m rounds,
    and for the remaining coordinates R the Schur complement of
    lambda*I - N, whose inverse is sum_k lambda^-(k+1) N^k, gives exactly

        det(lambda*I - M) = lambda^|K| det(lambda*I - M_RR
                              - sum_{k<m} lambda^-(k+1) M_RK N^k M_KR).

    Times lambda^(m|R|) the right-hand determinant is that of a matrix
    polynomial of degree m+1 and size |R|, whose roots are the
    eigenvalues of its block companion matrix of size (m+1)|R|, top block
    row [M_RR, M_RK M_KR, ..., M_RK N^(m-1) M_KR] (Gohberg, Lancaster &
    Rodman, Matrix Polynomials, ch. 1).  When nothing peels, the
    companion would be no smaller than M, or its top block row overflows
    (the products below can, for finite M with huge entries), this is
    numpy.linalg.eigvals(M).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    nonzero = A != 0.0
    zero_diag = np.diag(A) == 0.0
    unpeeled = zero_diag.copy()
    m = 0
    while True:
        peel = unpeeled & ~nonzero[:, unpeeled].any(axis=1)
        if not peel.any():
            break
        unpeeled &= ~peel
        m += 1
    R = ~zero_diag | unpeeled
    r = int(R.sum())
    if r == 0:
        return np.zeros(n)          # M itself is nilpotent
    if (m + 1) * r >= n:
        return np.linalg.eigvals(A)
    # M_RK N^k M_KR as the R rows of M X, where X holds N^k M_KR in full
    # coordinates (R rows zero): no n x n submatrix is copied
    X = A[:, R]
    top = [X[R]]
    for _ in range(m):
        X[R] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            X = A @ X       # inf, then inf * 0 = nan, once it overflows
        top.append(X[R])
    C = np.zeros(((m + 1) * r, (m + 1) * r))
    C[:r] = np.concatenate(top, axis=1)
    if not np.all(np.isfinite(C[:r])):
        return np.linalg.eigvals(A)
    C[r:, :-r] = np.eye(m * r)
    return np.linalg.eigvals(C)


def _check_gauge(v, what: str = "gauge vector") -> NDArray[np.float64]:
    g = np.asarray(v, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if np.any(g <= 0) or not np.all(np.isfinite(g)):
        raise ValueError(f"{what} entries must be strictly positive")
    return g


def gauge_norm(z, v) -> float:
    """Weighted sup norm max_j |z_j| / v_j.

    Equivalently the least c >= 0 with |z| <= c*v componentwise.
    """
    z = np.asarray(z, dtype=float)
    g = _check_gauge(v)
    if z.shape != g.shape:
        raise ValueError(f"dimension mismatch: z has shape {z.shape}, "
                         f"v has shape {g.shape}")
    return float(np.max(np.abs(z) / g))


def quotient_norm(z, u, v) -> float:
    """Distance from z to the line span(u), measured in the v-gauge norm.

    min over lambda of gauge_norm(z - lambda*u, v).  With a = z/v and
    b = u/v the minimand is max_j |a_j - lambda*b_j|.  Entries with
    b_j = 0 contribute the constant |a_j|; the rest are |r_j - lambda|/w_j
    with r = a/b and w = 1/|b|, whose minimax over lambda is attained
    where two of them balance, so the exact answer is

        max( max_{b_j=0} |a_j|,  max_{i,j} (r_i - r_j) / (w_i + w_j) ).

    When v == |u| with every u_j nonzero all weights are 1 and the answer
    is half the spread of the ratios; that O(N) path is taken
    automatically.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    g = _check_gauge(v)
    if not (z.shape == u.shape == g.shape):
        raise ValueError("z, u, v must share one shape")
    if np.all(u == 0.0):
        raise ValueError("u must be nonzero")

    if np.all(u != 0.0) and np.array_equal(g, np.abs(u)):
        r = z / u
        return float(0.5 * (r.max() - r.min()))

    a = z / g
    b = u / g
    nz = b != 0.0
    # (r_i - r_j)/(w_i + w_j) with both sides multiplied by |b_i||b_j|,
    # so that no 1/b_j can overflow when some b_j is tiny
    q = a[nz] * np.sign(b[nz])
    beta = np.abs(b[nz])
    balanced = float(np.max((q[:, None] * beta[None, :]
                             - q[None, :] * beta[:, None])
                            / (beta[:, None] + beta[None, :])))
    return max(balanced, float(np.max(np.abs(a[~nz]), initial=0.0)))
