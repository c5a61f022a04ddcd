"""Nonnegative-matrix spectral utilities and scale-aware norms.

Everything here is a pure function of its arguments: no caches, no
module state, safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


POWER_STEPS = 5     # power steps before the first shifted solve
MAX_SOLVES = 30     # shifted solves before spectral_radius gives up


class ReducibleMatrixError(ValueError):
    """Raised when an operation requires an irreducible matrix."""


class PowerIterationError(RuntimeError):
    """spectral_radius stopped with its bounds open: MAX_SOLVES shifted
    solves did not close them, a solve failed, a matvec overflowed or
    underflowed the bracket, or an iterate lost a positive finite entry.

    Carries the last finite Collatz-Wielandt bracket ([0, inf] if none)
    so callers can decide whether the partial answer is good enough.
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


def _strongly_connected(A: NDArray) -> bool:
    """is_irreducible for a validated A, or a square boolean adjacency."""
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
    """Perron root of an irreducible nonnegative matrix.

    Each iterate v > 0 brackets it by an explicit matvec,
    min_j (Mv)_j / v_j <= rho <= max_j (Mv)_j / v_j, and the midpoint is
    returned once the bracket is positive and tighter than
    tol * max(1, rho).  v starts at `start` (all ones by default; a
    positive eigenvector closes at once).  The bracket holds for any
    nonnegative M, so a reducible M whose first bracket closes gets its
    radius too; otherwise it raises ReducibleMatrixError.
    POWER_STEPS power steps follow, then Noda's steps: v <- y solving
    (sigma I - M) y = v, sigma the upper bound.  For sigma > rho that
    inverse is positive with 1/(sigma - rho) its only dominant eigenvalue,
    so y > 0 and the bracket closes quadratically, imprimitive M included
    (Noda, Numer. Math. 17, 1971; Elsner, Linear Algebra Appl. 15, 1976).
    """
    A = _as_nonneg_square(M)
    if not 0.0 < tol < np.inf:     # NaN fails too
        raise ValueError("tol must be positive and finite")
    n = A.shape[0]
    v = np.ones(n) if start is None else _check_gauge(start, "start vector")
    if v.shape != (n,):
        raise ValueError(f"start vector has shape {v.shape}, expected ({n},)")
    return _perron_root(A, tol, v)


def _perron_root(A: NDArray, tol: float, v: NDArray) -> SpectralResult:
    """spectral_radius for a validated A, tol and start v of A's size."""
    lower, upper = 0.0, np.inf
    why = f"bounds still open after {MAX_SOLVES} shifted solves"
    with np.errstate(all="ignore"):
        for it in range(1, POWER_STEPS + MAX_SOLVES + 2):
            w = A @ v
            ratios = w / v
            lo, hi = float(ratios.min()), float(ratios.max())
            positive = 0.0 < lo <= hi < np.inf
            if positive:
                lower, upper, mid = lo, hi, 0.5 * (lo + hi)
                if upper - lower <= tol * max(1.0, mid):
                    return SpectralResult(
                        rho=mid, right_eigvec=w / w.max(), lower_bound=lower,
                        upper_bound=upper, iterations=it)
            if it == 1 and not _strongly_connected(A):
                raise ReducibleMatrixError(
                    "matrix is reducible; Collatz-Wielandt bounds stay open")
            if not positive:
                why = "bracket not finite and positive"
                break
            if it > POWER_STEPS + MAX_SOLVES:
                break
            if it > POWER_STEPS:
                S = -A
                S.flat[::len(A) + 1] += upper   # upper I - A
                try:
                    w = np.linalg.solve(S, v)
                except np.linalg.LinAlgError as exc:
                    why = f"shifted solve failed: {exc}"
                    break
            v = w / w[np.argmax(np.abs(w))]
            if not np.all((v > 0.0) & (v < np.inf)):
                why = "iterate underflowed or left the positive cone"
                break
    raise PowerIterationError(
        f"{why} at iteration {it}; Collatz-Wielandt bounds were "
        f"[{lower:.17g}, {upper:.17g}]",
        lower_bound=lower, upper_bound=upper, iterations=it)


def _krylov_steps(n: int) -> int:
    """Arnoldi steps of _dominant_ritz on n x n matrices: 4 sqrt(n), at
    least 32, at most n.  On the general trade model's elasticity
    matrices, n from 56 to 520, the dominant Ritz pairs of DG and |DG|
    converged within about 3.5 sqrt(n) steps."""
    return min(n, max(32, math.ceil(4.0 * math.sqrt(n))))


def _dominant_ritz(mats: Sequence[NDArray], accept: bool = True,
                   ) -> tuple[NDArray, NDArray, NDArray[np.bool_] | None]:
    """m = _krylov_steps(n) Arnoldi steps on each of the finite square
    matrices in mats, all of one size n, in lockstep: one matvec per
    matrix per step, with the classical Gram-Schmidt steps, done twice,
    and the Hessenberg updates batched over the (k, m+1, n) basis (Saad,
    Numerical Methods for Large Eigenvalue Problems, 2nd ed., 2011,
    ch. 6).  Every run starts from one fixed generic unit vector.  An
    h_{j+1,j} of at most 1e-12 ||A||_F is a breakdown (an invariant
    subspace, as at step n): it is set to 0 and zero vectors follow.

    Returns, per matrix, the Ritz value theta of largest modulus, its
    unit Ritz vector x (complex) and whether it converged: the residual
    ||A x - theta x||_2 = |h_{m+1,m} e_m' y|, 0 at a breakdown, times
    theta's condition number 1/|z^H y| in H_m, a first-order bound on its
    error (Golub & Van Loan, Matrix Computations, 4th ed., 2013, ch. 7),
    is finite and at most 1e-13 |theta|.  y and z are theta's unit right
    and left eigenvectors of H_m, z from one batched solve with
    (H_m - s I)^H, s = theta + 1e-14 |theta| (nonsingular where theta is
    exact), from all ones.  An overflow, or a failed eigensolve or solve,
    counts as not converged; no warning or LinAlgError escapes.  With
    accept=False, for a caller that reads x alone, converged is None.
    """
    k, n = len(mats), len(mats[0])
    m = _krylov_steps(n)
    V = np.empty((k, m + 1, n))
    H = np.zeros((k, m + 1, m))
    v = np.random.default_rng(0).standard_normal(n)
    V[:, 0] = v / np.linalg.norm(v)
    w = np.empty((k, 1, n))
    theta = np.full(k, np.nan, dtype=complex)
    X = np.full((k, n), np.nan, dtype=complex)
    error = np.full(k, np.inf)
    with np.errstate(all="ignore"):
        small = 1e-12 * np.array([np.linalg.norm(A) for A in mats])
        small[~(small < np.inf)] = -1.0     # overflowed: no breakdown
        for j in range(m):
            for i, A in enumerate(mats):
                np.dot(A, V[i, j], out=w[i, 0])
            B = V[:, :j + 1]
            c = w @ np.swapaxes(B, 1, 2)        # twice: the second pass
            w -= c @ B                          # restores orthogonality
            d = w @ np.swapaxes(B, 1, 2)
            w -= d @ B
            H[:, :j + 1, j] = (c + d)[:, 0]
            h = np.sqrt(np.einsum("kin,kin->k", w, w))
            invariant = h <= small
            h[invariant] = 0.0
            H[:, j + 1, j] = h
            np.divide(w[:, 0], h[:, None], out=V[:, j + 1])
            V[invariant, j + 1] = 0.0
        finite = np.flatnonzero(np.isfinite(H).all(axis=(1, 2)))
        try:
            vals, Y = np.linalg.eig(H[finite, :m])
        except np.linalg.LinAlgError:
            finite = finite[:0]
        if len(finite):
            top = np.argmax(np.abs(vals), axis=1)
            rows = np.arange(len(finite))
            y = Y[rows, :, top]
            theta[finite] = vals[rows, top]
            X[finite] = (y[:, None, :] @ V[finite, :m])[:, 0]
        if accept and len(finite):
            t = theta[finite]
            # conj(z) solves (H_m - s I)^T conj(z) = 1: z^H y = sum(conj(z) y)
            A = np.swapaxes(H[finite, :m], 1, 2).astype(complex)
            A[:, range(m), range(m)] -= (t + 1e-14 * np.abs(t))[:, None]
            try:
                zc = np.linalg.solve(A, np.ones((len(t), m, 1)))[:, :, 0]
            except np.linalg.LinAlgError:
                zc = np.zeros_like(y)
            cos = np.abs(np.sum(zc * y, axis=1)) / np.linalg.norm(zc, axis=1)
            error[finite] = np.abs(H[finite, m, m - 1] * y[:, m - 1]) / cos
        converged = error <= 1e-13 * np.abs(theta)
    return theta, X, converged if accept else None


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
