"""Nonnegative-matrix spectral utilities and scale-aware norms.

Everything here is a pure function of its arguments: no caches, no
module state, safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    n = len(adj)
    # strong connectivity == node 0 reaches everyone and everyone reaches it
    return (_reaches_all(n, lambda front: adj[front].any(axis=0))
            and _reaches_all(n, lambda front: adj[:, front].any(axis=1)))


def is_primitive(M) -> bool:
    """Sufficient primitivity check: irreducible with a nonzero diagonal entry."""
    A = _as_nonneg_square(M)
    return _strongly_connected(A) and bool(np.any(np.diag(A) > 0.0))


def _strongly_connected_edges(n: int, rows: NDArray, cols: NDArray) -> bool:
    """_strongly_connected for the graph on n nodes with edges rows[e] ->
    cols[e]: node 0 reaches every node along the edges, and against them,
    each level reading every edge.  A single node needs its self-loop."""
    if n == 1:
        return rows.size > 0
    return (_reaches_all(n, lambda front: cols[front[rows]])
            and _reaches_all(n, lambda front: rows[front[cols]]))


def _reaches_all(n: int, step) -> bool:
    """Whether node 0 reaches every one of n nodes, where step(front)
    indexes the successors of the nodes marked in the boolean front, by
    a mask or by their numbers: a level-synchronous breadth-first walk,
    the top-down step of Beamer, Asanovic & Patterson
    (Direction-optimizing breadth-first search, SC 2012)."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    front = seen.copy()
    while front.any():
        nxt = np.zeros(n, dtype=bool)
        nxt[step(front)] = True
        front = nxt & ~seen
        seen |= front
    return bool(seen.all())


def strongly_connected_components(M) -> list[list[int]]:
    """Strongly connected components of the nonzero pattern, as sorted
    index lists, ordered by smallest member.

    Iterative Tarjan; used for diagnosing disconnected trade networks.
    """
    A = _as_nonneg_square(M)
    return _components(A.shape[0], *np.nonzero(A > 0.0))


def _components(n: int, rows: NDArray, cols: NDArray) -> list[list[int]]:
    """strongly_connected_components of the graph on n nodes with edges
    rows[e] -> cols[e], rows ascending: Tarjan on successor lists, each
    frame of the walk a node and the iterator over its successors, which
    resumes where the frame's last child was entered."""
    succ = [c.tolist() for c in np.split(
        cols, np.cumsum(np.bincount(rows, minlength=n))[:-1])]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            if index[v] == -1:      # the frame's first turn
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            for w in successors:
                if index[w] == -1:
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:       # every successor done: v's frame closes
                work.pop()
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        on_stack[w] = False
                    comps.append(sorted(comp))
                if work:
                    u = work[-1][0]
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


def _bracket(w: NDArray, v: NDArray, tol: float,
             ) -> tuple[float, float, bool, bool]:
    """(lo, hi, positive, closed): the Collatz-Wielandt bracket
    [min w/v, max w/v] on the Perron root of a nonnegative A, w = A v
    for a positive v; positive when 0 < lo <= hi < inf, and closed,
    the one acceptance test of every proved root, when it is positive
    and hi - lo <= tol * max(1, its midpoint)."""
    ratios = w / v
    lo, hi = float(ratios.min()), float(ratios.max())
    positive = 0.0 < lo <= hi < np.inf
    return lo, hi, positive, (positive
                              and hi - lo <= tol * max(1.0, 0.5 * (lo + hi)))


def _perron_root(A: NDArray, tol: float, v: NDArray) -> SpectralResult:
    """spectral_radius for a validated A, tol and start v of A's size."""
    lower, upper = 0.0, np.inf
    why = f"bounds still open after {MAX_SOLVES} shifted solves"
    with np.errstate(all="ignore"):
        for it in range(1, POWER_STEPS + MAX_SOLVES + 2):
            w = A @ v
            lo, hi, positive, closed = _bracket(w, v, tol)
            if positive:
                lower, upper = lo, hi
            if closed:
                return SpectralResult(
                    rho=0.5 * (lo + hi), right_eigvec=w / w.max(),
                    lower_bound=lower, upper_bound=upper, iterations=it)
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
    """Arnoldi steps for the Perron-start pass (_perron_starts) on n x n
    matrices: 3 sqrt(n), at least 32, at most n, so that at n <= 32 the
    pass is a full reduction; 32 at n = 56 and 105, 55 at n = 330.  The
    pass only picks the start, which Noda's steps improve from any
    positive start.  Measured on 8 samples of each of 32 general models
    from the benchmark's generator (seeds 1 and 2) per size: of the 256
    starts per size (certify seeds 0-15 per generator seed), 0 at n = 56,
    2 at n = 105 and 0 at n = 330 left their first bracket open, so that
    _perron_root's later steps ran (8, 15 and 5 from the Ritz vector of a
    pass begun at a fixed random vector), and none fell back to an
    eigensolve of |DG|."""
    return min(n, max(32, math.ceil(3.0 * math.sqrt(n))))


def _arnoldi(mats: Sequence[NDArray], m: int, start: NDArray,
             ) -> tuple[NDArray, NDArray]:
    """(H, V): m Arnoldi steps (the caller's _krylov_steps) on each of the
    finite square matrices in mats, all of one size n, in lockstep, from
    start / ||start||, giving the (k, m+1, m) Hessenberg matrices and
    the (k, m+1, n) bases, A V_m' = V_{m+1}' H.  mats is read as one
    (k, n, n) array, not copied where it is one, as _perron_roots passes
    it.  Each step's matvecs, one per matrix, are one stacked matmul, as
    are the classical Gram-Schmidt steps, done twice, and the Hessenberg
    updates (Saad, Numerical Methods for Large Eigenvalue Problems, 2nd
    ed., 2011, ch. 6).  An h_{j+1,j} of at most 1e-12 ||A||_F is a
    breakdown (an invariant subspace, as at step n): it is set to 0 and
    zero vectors follow.  An overflow leaves H not finite."""
    A = np.asarray(mats)
    k, n = A.shape[:2]
    V = np.empty((k, m + 1, n))
    H = np.zeros((k, m + 1, m))
    V[:, 0] = start / np.linalg.norm(start)
    w = np.empty((k, 1, n))
    with np.errstate(all="ignore"):
        small = 1e-12 * np.array([np.linalg.norm(M) for M in mats])
        small[~(small < np.inf)] = -1.0     # overflowed: no breakdown
        for j in range(m):
            np.matmul(A, V[:, j, :, None], out=w.reshape(k, n, 1))
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
    return H, V


def _perron_starts(mats: Sequence[NDArray], m: int, start: NDArray) -> NDArray:
    """A start for _perron_root on each of the nonnegative n x n
    matrices in mats, the (k, n, n) stack of |DG| that _perron_roots
    passes for the samples whose Collatz-Wielandt bracket from the
    positive vector `start` stayed open: the real x = V_m' y of one
    lockstep pass of m _arnoldi steps begun at start, whose Krylov
    coordinates are then e_1.  The shift s is the largest eigenvalue
    modulus of the leading floor(m/2) block of each H_m (of all of H_m
    where m = n, a full reduction), the Perron root as half the steps
    see it.  One inverse step y <- (H_m - s I)^-1 e_1, then three
    Rayleigh-quotient steps, y <- (H_m - s I)^-1 y with s = y' H_m y for
    the unit y, each a stacked real m x m solve, converge to the
    eigenvector of H_m at its Perron Ritz value (Parlett, Math. Comp.
    28, 1974; Saad, Numerical Methods for Large Eigenvalue Problems, 2nd
    ed., 2011, ch. 4).  Each shift is s + 1e-14 |s|, nonsingular where s
    is exact.  Where the stacked eigensolve or a stacked solve fails, as
    one singular H_m - s I makes it, the steps run again matrix by
    matrix, so x is NaN only where H is not finite or that matrix's own
    eigensolve or solve fails; no warning or LinAlgError escapes.  Only
    real arrays are made: V's rows enter x as a view."""
    H, V = _arnoldi(mats, m, start)
    Y = np.full((len(H), 1, m), np.nan)
    lead = m if m == V.shape[2] else m // 2
    with np.errstate(all="ignore"):
        finite = np.flatnonzero(np.isfinite(H).all(axis=(1, 2)))
        try:
            Y[finite] = _rayleigh(H[finite, :m], lead)
        except np.linalg.LinAlgError:
            for i in finite:
                try:
                    Y[i:i + 1] = _rayleigh(H[i:i + 1, :m], lead)
                except np.linalg.LinAlgError:
                    pass
        return (Y @ V[:, :m])[:, 0]     # V's rows as a view: no copy


def _rayleigh(Hm: NDArray, lead: int) -> NDArray:
    """_perron_starts' Krylov coordinates y' for the (k, m, m) stacked
    Hessenberg matrices Hm, as (k, 1, m); a LinAlgError where the
    stacked eigensolve or a solve fails."""
    m = Hm.shape[2]
    y = np.eye(m, 1) + np.zeros((len(Hm), 1, 1))    # e_1 per matrix
    s = np.abs(np.linalg.eigvals(Hm[:, :lead, :lead])).max(axis=1)
    for _ in range(4):
        S = Hm - (s + 1e-14 * np.abs(s))[:, None, None] * np.eye(m)
        y = np.linalg.solve(S, y)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        s = (np.swapaxes(y, 1, 2) @ Hm @ y)[:, 0, 0]   # y' H_m y
    return np.swapaxes(y, 1, 2)


def _perron_roots(first: Sequence[NDArray], start: NDArray,
                  absolute: NDArray | Callable[[int], NDArray], tol: float,
                  ) -> list[tuple[float, tuple[float, float] | None]]:
    """rho(|DG|) and its proved Collatz-Wielandt bracket at each sample,
    from first[i] = |DG_i| start, for the positive vector start: the
    midpoint of that first bracket where it closes (_bracket), with no
    n x n array.  Where it stays open, |DG_i| comes from `absolute`:
    either the (k, n, n) array of every sample's finite |DG|, which the
    pass reads as it is where every sample is open, and otherwise copies
    the open samples' slices from, or a callable, asked in ascending
    order of i, whose |DG_i| fills one (k, n, n) array for the k open
    samples alone.  One lockstep pass of _krylov_steps(n) steps over
    that array, begun at start (_perron_starts), gives the Perron start
    x, and _perron_root runs from |x|, or from start where |x| is not
    positive and finite.  Where it raises, rho is the largest eigenvalue
    modulus of |DG_i|, clamped into the bracket proved so far, if any:
    the one rho not proved by a matvec."""
    roots = []
    for w in first:
        lo, hi, _, closed = _bracket(w, start, tol)
        roots.append((0.5 * (lo + hi), (lo, hi)) if closed else None)
    still_open = [i for i, root in enumerate(roots) if root is None]
    if not still_open:
        return roots
    n = len(start)
    if not callable(absolute):
        mats = (absolute if len(still_open) == len(roots)
                else absolute[still_open])
    else:
        mats = np.empty((len(still_open), n, n))
        for i, A in zip(still_open, mats):
            A[...] = absolute(i)
    x = _perron_starts(mats, _krylov_steps(n), start)
    for i, A, v in zip(still_open, mats, np.abs(x)):
        if not np.all((v > 0.0) & (v < np.inf)):    # NaN fails too
            v = start
        try:
            res = _perron_root(A, tol, v)
            roots[i] = res.rho, (res.lower_bound, res.upper_bound)
        except (ReducibleMatrixError, PowerIterationError) as exc:
            rho, bracket = float(np.max(np.abs(eigvals_mod_zero(A)))), None
            if isinstance(exc, PowerIterationError) and exc.lower_bound > 0:
                bracket = (exc.lower_bound, exc.upper_bound)    # proved
                rho = min(max(rho, bracket[0]), bracket[1])
            roots[i] = rho, bracket
    return roots


def eigvals_mod_zero(M) -> NDArray:
    """Eigenvalues of the square matrix M, except that the multiplicity
    of the eigenvalue 0 may differ.

    Coordinates with a zero diagonal whose graph is acyclic are
    eliminated exactly, by _support_eigvals on M's nonzero entries, and
    the eigensolver sees a block companion matrix of the rest.  Where no
    diagonal entry is 0, nothing peels, the companion would be no smaller
    than M, or its top block row overflows (its products can, for finite
    M with huge entries), this is numpy.linalg.eigvals(M).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if np.diag(A).all():            # NaN counts as nonzero
        return np.linalg.eigvals(A)
    rows, cols = np.nonzero(A)
    return _support_eigvals(A.shape[0], rows, cols, A[rows, cols], lambda: A)


def _support_eigvals(n: int, rows: NDArray, cols: NDArray, values: NDArray,
                     dense: Callable[[], NDArray]) -> NDArray:
    """eigvals_mod_zero of the n x n matrix M that holds values[e] at
    (rows[e], cols[e]), row-major, each place once and no value 0, and 0
    elsewhere, read from those entries alone, or where only the dense
    eigensolve will do, numpy.linalg.eigvals(dense()), dense() giving M.

    Coordinates with a zero diagonal are peeled in rounds: each round
    takes those whose row has no entry in the columns of the
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
    Rodman, Matrix Polynomials, ch. 1), the one array the eigensolver
    sees.  The peel reads the entries among zero-diagonal coordinates;
    M's columns in R are filled into an n x |R| array by index; each row
    block M_RK N^k comes from the one before by expanding its nonzero
    entries over N's rows (np.repeat, then np.bincount to sum), and one
    (m|R| x n)(n x |R|) product gives all m products with M_KR: no n x n
    array is made.  In the multi-sector model OMEGA and P peel, m = 2
    and R is the J wages.  The dense eigensolve runs where nothing
    peels, the companion would be no smaller than M, or its top block
    row is not finite.
    """
    zero_diag = np.ones(n, dtype=bool)
    zero_diag[rows[rows == cols]] = False
    inner = zero_diag[rows] & zero_diag[cols]
    er, ec = rows[inner], cols[inner]       # the edges a peel must wait on
    unpeeled, m = zero_diag.copy(), 0
    while (peel := unpeeled & (np.bincount(er, minlength=n) == 0)).any():
        unpeeled &= ~peel
        keep = unpeeled[ec]
        er, ec, m = er[keep], ec[keep], m + 1
    K = zero_diag & ~unpeeled
    r = n - int(K.sum())
    if r == 0:
        return np.zeros(n)          # M itself is nilpotent
    if (m + 1) * r >= n:
        return np.linalg.eigvals(dense())
    at = np.cumsum(~K) - 1          # R's coordinates numbered in order
    k_row, k_col = K[rows], K[cols]
    # M's columns in R: M_RR in R's rows, M_KR in K's; every row block
    # M_RK N^k below is 0 at R's coordinates, so its product is with M_KR
    X = np.zeros((n, r))
    to_r = ~k_col
    X.ravel()[rows[to_r] * r + at[cols[to_r]]] = values[to_r]
    C = np.zeros(((m + 1) * r, (m + 1) * r))
    C[:r, :r] = X[~K]
    kk = k_row & k_col              # N's entries, row-major
    nc, nv = cols[kk], values[kk]
    counts = np.bincount(rows[kk], minlength=n)
    starts = np.cumsum(counts) - counts
    W = np.zeros((m, r * n))        # row i of block k at W[k, i*n:]
    rk = k_col > k_row
    ij, w = at[rows[rk]] * n + cols[rk], values[rk]
    W[0, ij] = w
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, m):
            if k > 1:
                ij = np.flatnonzero(W[k - 1])
                w = W[k - 1, ij]
            j = ij % n
            reps = counts[j]        # entry (i, j) meets N's row j
            e = (np.repeat(starts[j] - np.cumsum(reps) + reps, reps)
                 + np.arange(reps.sum()))       # that row's entries
            W[k] = np.bincount((ij - j).repeat(reps) + nc[e],
                               w.repeat(reps) * nv[e], minlength=r * n)
        top = (W.reshape(m * r, n) @ X).reshape(m, r, r)
    C[:r, r:] = top.transpose(1, 0, 2).reshape(r, m * r)
    if not np.all(np.isfinite(C[:r])):
        return np.linalg.eigvals(dense())
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
