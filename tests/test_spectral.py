"""Spectral utilities against independent oracles.

Oracles used here:
  * reachability via repeated boolean matrix multiplication (transitive
    closure) for irreducibility,
  * characteristic-polynomial root solve for a 3x3 spectral radius,
  * golden-section search on the convex minimand for the quotient norm,
    and the minimum over every kink and pairwise crossing of its pieces,
  * dense numpy.linalg.eigvals for the block-reduced eigenvalues, and
    mpmath's 60-digit eigensolver where the dense one is too inexact.
"""

import importlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scalefix.spectral import (
    PowerIterationError,
    ReducibleMatrixError,
    eigvals_mod_zero,
    gauge_norm,
    is_irreducible,
    is_primitive,
    quotient_norm,
    spectral_radius,
    strongly_connected_components,
)


# ---------------------------------------------------------------- oracles


def closure_irreducible(A):
    """Transitive closure by boolean matrix powers: A is irreducible iff
    (I + B)^(n-1) is all ones for B = boolean pattern, with the 1x1
    positive-entry convention applied separately."""
    B = np.asarray(A) > 0
    n = B.shape[0]
    if n == 1:
        return bool(B[0, 0])
    R = np.eye(n, dtype=bool) | B
    P = np.eye(n, dtype=bool)
    for _ in range(n - 1):
        P = (P.astype(int) @ R.astype(int)) > 0
    return bool(P.all())


def charpoly_rho_3x3(A):
    """Largest-modulus root of det(A - x I) for a 3x3 matrix."""
    a = np.asarray(A, dtype=float)
    tr = np.trace(a)
    m = 0.5 * (tr ** 2 - np.trace(a @ a))
    d = np.linalg.det(a)
    roots = np.roots([1.0, -tr, m, -d])
    return float(np.max(np.abs(roots)))


def golden_min(f, lo, hi, tol=1e-12):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


def quotient_oracle(z, u, v):
    def f(lam):
        return np.max(np.abs(z - lam * u) / v)

    # for convex f a coarse grid argmin brackets the true minimizer
    span = 1.0 + np.max(np.abs(z)) / np.min(np.abs(u[u != 0]))
    coarse = np.linspace(-10 * span, 10 * span, 4001)
    lam0 = coarse[np.argmin([f(l) for l in coarse])]
    h = coarse[1] - coarse[0]
    return golden_min(f, lam0 - h, lam0 + h)


# ---------------------------------------------------------- irreducibility


def test_two_cycle_is_irreducible():
    assert is_irreducible([[0, 1], [1, 0]]) is True


def test_block_triangular_is_reducible():
    assert is_irreducible([[1, 1], [0, 1]]) is False


def test_one_by_one_convention():
    assert is_irreducible([[0.7]]) is True
    assert is_irreducible([[0.0]]) is False


def test_negative_entry_rejected():
    with pytest.raises(ValueError, match="negative"):
        is_irreducible([[1, -1], [1, 1]])


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        is_irreducible([[1, 2, 3], [4, 5, 6]])


def test_irreducibility_matches_closure_oracle():
    rng = np.random.default_rng(20240211)
    agree_true = agree_false = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        density = rng.uniform(0.05, 0.6)
        A = rng.random((n, n)) * (rng.random((n, n)) < density)
        want = closure_irreducible(A)
        assert is_irreducible(A) == want
        agree_true += want
        agree_false += not want
    # the draw must exercise both outcomes or the test proves nothing
    assert agree_true > 10 and agree_false > 10


def test_scc_partition():
    A = np.array([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ], dtype=float)
    assert strongly_connected_components(A) == [[0, 1], [2, 3]]
    B = np.ones((3, 3))
    assert strongly_connected_components(B) == [[0, 1, 2]]


def test_scc_matches_irreducibility():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        A = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        single = len(strongly_connected_components(A)) == 1
        assert single == is_irreducible(A)


# -------------------------------------------------------------- primitivity


def test_primitive_examples():
    assert is_primitive([[0, 1], [1, 0]]) is False
    assert is_primitive([[0.5, 1], [1, 0]]) is True
    assert is_primitive([[1, 1], [0, 1]]) is False


# ---------------------------------------------------------- spectral radius


def test_permutation_matrix_rho_one():
    res = spectral_radius([[0, 1], [1, 0]], tol=1e-10)
    assert res.rho == pytest.approx(1.0, abs=1e-10)
    assert res.right_eigvec == pytest.approx([1.0, 1.0])
    assert res.lower_bound <= res.rho <= res.upper_bound


def test_exponent_matrix_rho_one():
    # absolute elasticity exponents of the one-sector model with a
    # common labor share: columns sum to one, so the Perron root is 1
    theta, gamma = 4.0, 0.5
    a = 1.0 / (1.0 + theta * gamma)
    b = (1.0 - gamma) / (1.0 + theta * gamma)
    A = np.array([[a, abs(b - 1.0)], [abs(a - 1.0), b]])
    assert A.sum(axis=0) == pytest.approx([1.0, 1.0])
    res = spectral_radius(A, tol=1e-12)
    assert res.rho == pytest.approx(1.0, abs=1e-10)


def test_random_3x3_matches_charpoly():
    rng = np.random.default_rng(99)
    for _ in range(25):
        A = rng.uniform(0.05, 2.0, size=(3, 3))
        res = spectral_radius(A, tol=1e-12)
        assert res.rho == pytest.approx(charpoly_rho_3x3(A), rel=1e-9)


def test_collatz_wielandt_sandwich_every_stop():
    rng = np.random.default_rng(4242)
    for _ in range(20):
        A = rng.uniform(0.01, 1.0, size=(4, 4))
        rho_true = float(np.max(np.abs(np.linalg.eigvals(A))))
        for tol in (0.3, 1e-2, 1e-6, 1e-12):
            res = spectral_radius(A, tol=tol)
            assert res.lower_bound <= rho_true * (1 + 1e-12)
            assert res.upper_bound >= rho_true * (1 - 1e-12)
            assert res.lower_bound <= res.rho <= res.upper_bound


def test_eigvec_positive_and_max_normalized():
    rng = np.random.default_rng(5)
    A = rng.uniform(0.1, 1.0, size=(6, 6))
    res = spectral_radius(A)
    assert np.all(res.right_eigvec > 0)
    assert res.right_eigvec.max() == pytest.approx(1.0)
    # residual of the eigen equation
    r = A @ res.right_eigvec - res.rho * res.right_eigvec
    assert np.max(np.abs(r)) < 1e-8


def test_perron_start_closes_in_one_matvec():
    rng = np.random.default_rng(31)
    B = rng.uniform(0.1, 1.0, size=(6, 6))
    perron = rng.uniform(0.2, 5.0, size=6)
    A = (perron / (B @ perron))[:, None] * B   # A @ perron = perron
    res = spectral_radius(A, tol=1e-12, start=perron)
    assert res.iterations == 1
    assert res.lower_bound <= 1.0 + 1e-14 and res.upper_bound >= 1.0 - 1e-14
    assert res.rho == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("start", [
    [1.0, 0.0], [1.0, -0.5], [np.nan, 1.0], [1.0, 1.0, 1.0],
])
def test_start_vector_must_be_strictly_positive(start):
    with pytest.raises(ValueError, match="start vector"):
        spectral_radius([[0.5, 1.0], [1.0, 0.5]], start=start)


def test_reducible_refused():
    # the all-ones brackets [1, 2] and [0, 0] do not close
    with pytest.raises(ReducibleMatrixError):
        spectral_radius([[1, 1], [0, 1]])
    with pytest.raises(ReducibleMatrixError):
        spectral_radius([[0.0]])


def test_reducible_with_a_closed_first_bracket_gets_its_radius():
    # Collatz-Wielandt bounds hold for every nonnegative matrix, so the
    # identity's first bracket [1, 1] is its radius
    res = spectral_radius(np.eye(3))
    assert (res.rho, res.lower_bound, res.upper_bound) == (1.0, 1.0, 1.0)
    assert res.iterations == 1


@st.composite
def reducible_nonnegative(draw):
    """(A, start, closes): a reducible nonnegative n x n matrix, n from 2
    to 7, block upper triangular up to a permutation, with positive
    diagonal blocks of sizes k and n - k and a sparse upper-right block.
    "eigvec" and "ones" rescale its rows so that A p = p for a positive
    p; "eigvec" passes p as the start, "ones" draws p = 1, the default
    start.  Then the first bracket closes; "plain" leaves A as drawn."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    mode = draw(st.sampled_from(["plain", "eigvec", "ones"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(0.1, 2.0, (n, n))
    A[k:, :k] = 0.0
    A[:k, k:] *= rng.random((k, n - k)) < draw(st.floats(0.0, 1.0))
    p = rng.uniform(0.5, 2.0, n) if mode == "eigvec" else np.ones(n)
    if mode != "plain":
        A = (p / (A @ p))[:, None] * A
    order = rng.permutation(n)
    return (A[np.ix_(order, order)],
            p[order] if mode == "eigvec" else None, mode != "plain")


@settings(max_examples=300, deadline=None)
@given(reducible_nonnegative())
def test_reducible_radius_is_bracketed_or_refused(case):
    A, start, closes = case
    try:
        res = spectral_radius(A, start=start)
    except (ReducibleMatrixError, PowerIterationError):
        assert not closes
        return
    want = float(np.max(np.abs(np.linalg.eigvals(A))))
    assert res.lower_bound <= res.rho <= res.upper_bound
    assert (res.lower_bound * (1.0 - 1e-12) <= want
            <= res.upper_bound * (1.0 + 1e-12))


def test_budget_error_carries_bounds(monkeypatch):
    # the two-cycle with asymmetric weights makes power iteration orbit
    # between two ratio patterns; the shifted solves close the bracket
    res = spectral_radius([[0, 2], [0.5, 0]], tol=1e-10)
    assert res.lower_bound <= 1.0 <= res.upper_bound
    assert res.upper_bound - res.lower_bound <= 1e-10
    assert res.rho == pytest.approx(1.0, abs=1e-10)
    # with no solve allowed the orbit runs out of budget
    module = importlib.import_module("scalefix.spectral")
    monkeypatch.setattr(module, "MAX_SOLVES", 0)
    with pytest.raises(PowerIterationError, match="still open") as exc:
        spectral_radius([[0, 2], [0.5, 0]], tol=1e-10)
    assert exc.value.lower_bound <= 1.0 <= exc.value.upper_bound
    assert exc.value.iterations == module.POWER_STEPS + 1


@pytest.mark.parametrize("M,start", [
    ([[1e308, 1e308], [1.0, 1.0]], None),       # M 1 = [inf, 2]
    ([[1e300, 1e300], [1.0, 1.0]], [1e-10, 1.0]),   # ratio 1e300 / 1e-10
])
def test_overflowed_bracket_raises_instead_of_an_infinite_rho(M, start):
    # inf - lower <= tol * inf would pass the stopping test
    with pytest.raises(PowerIterationError, match="not finite") as exc:
        spectral_radius(M, tol=1e-10, start=start)
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    assert exc.value.lower_bound <= rho <= exc.value.upper_bound
    assert exc.value.iterations == 1


def test_underflowed_iterate_raises_with_the_last_bracket():
    # normalizing w = [4.4e-311, 3.5e16] underflows its first entry to 0,
    # so the next Collatz-Wielandt ratio would divide by zero
    A = [[2.2e-311, 2.2e-311], [2.2e-311, 3.5e16]]
    with pytest.raises(PowerIterationError, match="underflowed") as exc:
        spectral_radius(A, tol=1e-12)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    assert exc.value.lower_bound <= rho <= exc.value.upper_bound < np.inf
    assert exc.value.iterations == 1


@st.composite
def irreducible_nonnegative(draw):
    """An irreducible nonnegative n x n matrix, n from 1 to 8: a random
    Hamiltonian cycle keeps it strongly connected.  "primitive" adds
    random edges and a positive diagonal entry; "cyclic" puts coordinate
    j in class j mod p for a divisor p >= 2 of n and keeps only edges
    from class c to class c + 1, so the diagonal is zero and p
    eigenvalues share the Perron root's modulus; "wide" adds random
    edges with entries log-uniform over 1e-150 ... 1e150."""
    kind = draw(st.sampled_from(["primitive", "cyclic", "wide"]))
    n = draw(st.integers(2 if kind == "cyclic" else 1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    cycle = np.zeros((n, n), dtype=bool)
    cycle[order, np.roll(order, -1)] = True
    edges = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
    if kind == "cyclic":
        p = int(rng.choice([d for d in range(2, n + 1) if n % d == 0]))
        cls = np.empty(n, dtype=int)
        cls[order] = np.arange(n) % p
        edges &= (cls[None, :] - cls[:, None]) % p == 1
    pattern = cycle | edges
    if kind == "primitive":
        j = int(rng.integers(n))
        pattern[j, j] = True
    if kind == "wide":
        values = 10.0 ** rng.uniform(-150.0, 150.0, (n, n))
    else:
        values = rng.uniform(0.01, 2.0, (n, n))
    return np.where(pattern, values, 0.0)


@settings(max_examples=300, deadline=None)
@given(irreducible_nonnegative())
def test_radius_matches_dense_eigvals_or_raises(A):
    # rho >= min row sum, the all-ones Collatz-Wielandt lower bound, so
    # this tol asks for a bracket within 1e-13 * rho also where rho < 1
    tol = 1e-13 * min(1.0, float(A.sum(axis=1).min()))
    try:
        res = spectral_radius(A, tol=tol)
    except PowerIterationError as exc:
        assert exc.lower_bound <= exc.upper_bound
        return
    want = float(np.max(np.abs(np.linalg.eigvals(A))))
    assert np.isfinite(res.rho)
    assert res.lower_bound <= res.rho <= res.upper_bound
    assert abs(res.rho - want) <= 1e-12 * res.rho


def test_bad_tol_rejected():
    with pytest.raises(ValueError, match="tol"):
        spectral_radius([[0, 1], [1, 0]], tol=0.0)
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            spectral_radius([[0, 1], [1, 0]], tol=tol)


@pytest.mark.parametrize("M", [
    [[0.5, 1.0], [1.0, 0.5]],          # primitive
    [[0.0, 1.0], [1.0, 0.0]],          # irreducible, imprimitive
    [[1.0, 1.0], [0.0, 1.0]],          # reducible
    [[2.0]],
])
def test_each_call_validates_its_matrix_once(monkeypatch, M):
    module = importlib.import_module("scalefix.spectral")
    original = module._as_nonneg_square
    calls = []

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(module, "_as_nonneg_square", counted)
    is_primitive(M)
    assert len(calls) == 1
    try:
        spectral_radius(M)
    except ReducibleMatrixError:
        pass
    assert len(calls) == 2


@pytest.mark.parametrize("M,match", [
    ([[1.0, -1.0], [1.0, 1.0]], "negative"),
    ([[1.0, np.nan], [1.0, 1.0]], "finite"),
    ([[1.0, 1.0]], "square"),
])
def test_radius_and_primitivity_reject_invalid_matrices(M, match):
    for check in (spectral_radius, is_primitive):
        with pytest.raises(ValueError, match=match):
            check(M)


# ------------------------------------------------------------- gauge norm


def test_gauge_norm_examples():
    assert gauge_norm([1, -2, 3], [1, 1, 1]) == 3.0
    v = np.array([0.3, 2.0, 5.0])
    assert gauge_norm(v, v) == 1.0
    assert gauge_norm([2, -6], [1, 3]) == 2.0


def test_gauge_norm_axioms():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        z = rng.normal(size=n) * 10
        w = rng.normal(size=n) * 10
        v = rng.uniform(0.1, 5.0, size=n)
        nz = gauge_norm(z, v)
        assert nz >= 0
        assert gauge_norm(np.zeros(n), v) == 0.0
        if nz == 0:
            assert np.all(z == 0)
        c = rng.normal() * 4
        assert gauge_norm(c * z, v) == pytest.approx(abs(c) * nz, rel=1e-12)
        assert gauge_norm(z + w, v) <= nz + gauge_norm(w, v) + 1e-12


def test_gauge_norm_input_checks():
    with pytest.raises(ValueError, match="mismatch"):
        gauge_norm([1, 2], [1, 1, 1])
    with pytest.raises(ValueError, match="positive"):
        gauge_norm([1, 2], [1, 0])


# ----------------------------------------------------------- quotient norm


def test_quotient_norm_span_is_zero():
    u = np.array([2.0, -1.0, 0.5])
    for v in ([1, 1, 1], [0.2, 3, 7]):
        assert quotient_norm(3.0 * u, u, v) == pytest.approx(0.0, abs=1e-14)


def test_quotient_norm_symmetric_case():
    assert quotient_norm([1, -1], [1, 1], [1, 1]) == pytest.approx(1.0)


def test_quotient_norm_matches_golden_section():
    rng = np.random.default_rng(321)
    for _ in range(60):
        z = rng.normal(size=4) * 5
        u = rng.choice([-1.0, 1.0], size=4) * rng.uniform(0.3, 2.0, size=4)
        if rng.random() < 0.3:
            u[int(rng.integers(0, 4))] = 0.0
        v = rng.uniform(0.2, 4.0, size=4)
        got = quotient_norm(z, u, v)
        want = quotient_oracle(z, u, v)
        assert got == pytest.approx(want, abs=1e-9)
        # exact method can only do better than a numerical line search
        assert got <= want + 1e-12


def test_quotient_norm_fast_path_agrees_with_general():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        z = rng.normal(size=n) * 3
        u = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.3, 2.0, size=n)
        v = np.abs(u)
        got = quotient_norm(z, u, v)
        r = z / u
        assert got == pytest.approx(0.5 * (r.max() - r.min()), rel=1e-12)
        assert got == pytest.approx(quotient_oracle(z, u, v), abs=1e-9)


def test_quotient_norm_invariances():
    rng = np.random.default_rng(8)
    z = rng.normal(size=5)
    u = rng.normal(size=5)
    v = rng.uniform(0.5, 2.0, size=5)
    base = quotient_norm(z, u, v)
    assert base <= gauge_norm(z, v) + 1e-15
    for lam in (-10.0, -1.0, 0.5, 7.0):
        assert quotient_norm(z + lam * u, u, v) == pytest.approx(base, abs=1e-10)


def test_quotient_norm_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        quotient_norm([1.0, 2.0], [0.0, 0.0], [1.0, 1.0])


def quotient_brute_force(z, u, v):
    """Minimum of max_j |z_j - lam u_j| / v_j over lam = 0, every kink
    and every crossing of two of its affine pieces: the minimand is
    convex and piecewise linear, so one of them is a minimizer."""
    slopes = np.concatenate([-u / v, u / v])
    icepts = np.concatenate([z / v, -z / v])
    cands = [0.0] + [zj / uj for zj, uj in zip(z, u) if uj != 0.0]
    for i in range(len(slopes)):
        for j in range(len(slopes)):
            if slopes[i] != slopes[j]:
                cands.append((icepts[j] - icepts[i]) / (slopes[i] - slopes[j]))
    return min(float(np.max(slopes * lam + icepts)) for lam in cands)


@st.composite
def quotient_cases(draw):
    n = draw(st.integers(1, 9))
    z = draw(arrays(float, n, elements=st.floats(-5.0, 5.0)))
    u = draw(arrays(float, n, elements=st.floats(0.01, 3.0)))
    u[~draw(arrays(bool, n))] *= -1.0
    u[~draw(arrays(bool, n))] = 0.0
    if not u.any():
        u[0] = 1.0
    v = draw(arrays(float, n, elements=st.floats(0.1, 4.0)))
    return z, u, v


@settings(max_examples=200, deadline=None)
@given(quotient_cases())
def test_quotient_norm_closed_form_matches_brute_force(case):
    z, u, v = case
    want = quotient_brute_force(z, u, v)
    got = quotient_norm(z, u, v)
    assert abs(got - want) <= 1e-12 * (1.0 + np.max(np.abs(z) / v))


def test_quotient_norm_tiny_direction_does_not_overflow():
    # the weights 1/|u_j/v_j| are about 9e307 here, and their sum overflows
    u = np.full(2, 1.1e-308)
    assert quotient_norm([0.0, 1.0], u, [1.0, 1.0]) == pytest.approx(0.5)
    assert quotient_norm([0.0, 1.0], u, [1.0, 2.0]) == pytest.approx(1 / 3)


# ------------------------------------------------ reduced eigenvalues


def nonzero_eigs_match(got, want, scale):
    """Every eigenvalue of modulus above 1e-4*scale in either list pairs
    one to one with an eigenvalue of the other within 1e-9*scale.  Dense
    eigvals puts the eigenvalue 0 of a Jordan block of size k at about
    eps^(1/k)*scale, so below that floor "nonzero" has no meaning."""
    floor, tol = 1e-4 * scale, 1e-9 * scale
    pool = list(want)
    for mu in sorted(got, key=abs, reverse=True):
        if abs(mu) <= floor:
            continue
        k = int(np.argmin([abs(mu - lam) for lam in pool]))
        if abs(mu - pool[k]) > tol:
            return False
        pool.pop(k)
    return all(abs(lam) <= floor for lam in pool)


@st.composite
def planted_dag_matrices(draw, cycle=False):
    """A random matrix, randomly permuted, whose zero-diagonal
    coordinates K are split into levels, a row at level l having entries
    only in the columns of R and of lower levels: an acyclic K.  With
    cycle=True two more zero-diagonal coordinates point at each other,
    and at anything else.  Hypothesis draws the shape; the entries come
    from a seeded generator, so they are never exactly equal and the
    nonzero spectrum is generically simple."""
    r = draw(st.integers(1, 3))
    levels = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    density = draw(st.floats(0.3, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = np.concatenate(
        [np.full(r, -1)] + [np.full(c, lv) for lv, c in enumerate(levels)])
    allowed = (level[None, :] < level[:, None]) | (level[:, None] < 0)
    if cycle:
        n = level.size
        grown = np.zeros((n + 2, n + 2), dtype=bool)
        grown[:n, :n] = allowed
        grown[:r, n:] = True            # R reads the pair
        grown[n:, :] = True             # the pair reads everything ...
        grown[n, n] = grown[n + 1, n + 1] = False   # ... but itself
        allowed = grown
    n = allowed.shape[0]
    keep = allowed & (rng.random((n, n)) < density)
    if cycle:
        keep[n - 2, n - 1] = keep[n - 1, n - 2] = True
    M = np.where(keep, rng.uniform(0.1, 2.0, (n, n))
                 * rng.choice([-1.0, 1.0], (n, n)), 0.0)
    perm = rng.permutation(n)
    return M[np.ix_(perm, perm)]


def precise_eigvals(M):
    with mp.workdps(60):
        lam = mp.eig(mp.matrix(M.tolist()), left=False, right=False)
        return np.array([complex(x) for x in lam])


def check_reduced_eigs(M):
    """Dense eigvals moves an eigenvalue that sits close to a large
    Jordan block of 0 by far more than eps*scale, so where the dense
    oracle misses, the same match is asked of the 60-digit one."""
    got = eigvals_mod_zero(M)
    scale = max(1.0, np.linalg.norm(M, 2))
    assert got.size <= M.shape[0]
    assert (nonzero_eigs_match(got, np.linalg.eigvals(M), scale)
            or nonzero_eigs_match(got, precise_eigvals(M), scale))


# the eigenvalue 0.0039452786659513 lies next to a Jordan block of 0 that
# dense eigvals spreads to radius 6e-5; it reports 0.0039452645, 1.4e-8
# off, while the reduced eigenvalues are within 5e-15
JORDAN_ZERO_NEIGHBOUR = np.array([
    [0., -0.96331125, 0., 0., 0., 1.61509113, -1.66312077, 0., 0., 0., 0.,
     -0.86106766, 0., 0., 1.89223164, 0., 0.24372842, 0.],
    [0., 0., 0., 0., 0., 1.21699419, 0., 0., 0., 0., 0., 0., 0., 0., 0., 0.,
     0., 0.],
    [0., -0.268019, 0., 0., 0., -1.29665022, -0.21820995, 0., 0., 0., 0.,
     -1.89114423, 0., 0., -1.01321992, 0., -0.18767482, 0.],
    [0., -1.13160006, 0., 0., 0., -1.24192336, 1.18099198, 0., 0., 0., 0.,
     0.29532182, 0., 0., -1.08803233, 0., 1.97915954, 0.],
    [0.12129913, -0.16000308, -0.34091422, 0.17243551, 0., -1.71197885,
     -1.64019638, 0., 0., 0., -1.21545615, -1.84697032, 0., 0., -0.34778098,
     0., -0.5845371, -0.74344959],
    [-1.34317752, -0.63515094, 1.03065088, 1.36690565, -1.2171722, -1.18774157,
     -1.23177028, -0.67725721, 0.44653647, -0.22999314, 0.59656965,
     -1.98532611, 0.5823575, -1.80988158, -1.49571605, -1.0791062, 0.25912847,
     -1.6353063],
    [0., 0., 0., 0., 0., 1.33525285, 0., 0., 0., 0., 0., 0., 0., 0., 0., 0.,
     0., 0.],
    [-0.38686883, -1.64826439, 1.78879766, 0.29477725, 0., -0.62399804,
     0.76527835, 0., 0., 0., -1.4851721, -0.28164233, 0., 0., -0.96044575, 0.,
     -1.02153934, 0.783142],
    [1.53820726, 0.88060218, 1.16471459, 0.9693911, 0., -1.62699678,
     -0.58430408, 0., 0., 0., 0.86508774, 0.33964511, 0., 0., -1.04626627, 0.,
     -0.96514955, 1.47618522],
    [-1.55027009, 1.1593164, -0.22023897, 1.02927133, 0., -1.96400831,
     1.8157938, 0., 0., 0., 1.32240721, 0.5923021, 0., 0., 1.24696177, 0.,
     -1.99680586, -0.75154057],
    [0., 0.42902185, 0., 0., 0., -0.97289887, -0.65666086, 0., 0., 0., 0.,
     0.77763122, 0., 0., -1.68595155, 0., 1.86447384, 0.],
    [0., 0., 0., 0., 0., -1.80366601, 0., 0., 0., 0., 0., 0., 0., 0., 0., 0.,
     0., 0.],
    [-1.97861963, 1.07620602, 0.50857159, 1.89465183, -1.74410074, 0.29662321,
     0.74243378, -1.68768535, -1.69959591, 1.58310982, -0.76373323, 0.23353177,
     0., 1.79331828, 0.25161518, -1.0932072, -0.43693094, 1.05828533],
    [0.85849252, 1.49533846, -0.51506196, -1.17599994, -1.98575726, 0.32762851,
     0.35060806, 1.23510469, -0.73445522, 1.47914112, -1.8127112, -0.6703937,
     -0.30842204, 0., 0.18696942, 1.02477369, -1.28108979, 0.69831227],
    [0., 0., 0., 0., 0., 0.58500244, 0., 0., 0., 0., 0., 0., 0., 0., 0., 0.,
     0., 0.],
    [1.55229675, -0.12142724, -1.65722641, -1.3784543, 0., 0.10223677,
     0.73598954, 0., 0., 0., -0.10321962, -0.96581422, 0., 0., -1.03075446, 0.,
     0.32107478, -0.79142524],
    [0., 0., 0., 0., 0., 1.48577331, 0., 0., 0., 0., 0., 0., 0., 0., 0., 0.,
     0., 0.],
    [0., 1.19529934, 0., 0., 0., 1.1735056, -0.12047988, 0., 0., 0., 0.,
     0.66531705, 0., 0., 1.79955213, 0., 0.51747927, 0.],
])


@settings(max_examples=300, deadline=None)
@given(planted_dag_matrices())
def test_reduced_eigs_match_dense_on_planted_dag(M):
    check_reduced_eigs(M)


@settings(max_examples=200, deadline=None)
@given(planted_dag_matrices(cycle=True))
@example(M=JORDAN_ZERO_NEIGHBOUR)
def test_reduced_eigs_match_dense_with_zero_diagonal_cycle(M):
    check_reduced_eigs(M)


def test_reduced_eigs_shrink_the_problem():
    # K = {2, 3, 4}: row 2 reads only R, rows 3 and 4 read R and row 2,
    # so two peeling rounds, and the companion is (2+1)*2 = 6 < 7 wide
    rng = np.random.default_rng(4)
    M = rng.uniform(0.1, 1.0, (7, 7))
    M[2:, 2:] = 0.0
    M[3:5, 2] = rng.uniform(0.1, 1.0, 2)
    M[5:, :] = 0.0        # rows 5 and 6 read nothing but R
    M[5:, :2] = rng.uniform(0.1, 1.0, (2, 2))
    got = eigvals_mod_zero(M)
    assert got.size == 6
    assert nonzero_eigs_match(got, np.linalg.eigvals(M), np.linalg.norm(M, 2))


def test_reduced_eigs_fall_back_when_not_smaller():
    # K = {2}, one round: the companion would be (1+1)*2 = 4 >= 3 wide
    M = np.array([[0.5, 0.2, 0.3], [0.1, 0.4, 0.6], [0.7, 0.8, 0.0]])
    assert np.array_equal(eigvals_mod_zero(M), np.linalg.eigvals(M))
    # a 2-cycle of zero-diagonal coordinates cannot be peeled
    C = np.array([[0.0, 1.0, 0.4], [2.0, 0.0, 0.5], [0.3, 0.0, 0.9]])
    assert np.array_equal(eigvals_mod_zero(C), np.linalg.eigvals(C))


def test_reduced_eigs_of_nilpotent_matrix_are_zero():
    N = np.triu(np.ones((4, 4)), k=1)
    assert not np.any(eigvals_mod_zero(N))
    with pytest.raises(ValueError, match="square"):
        eigvals_mod_zero(np.ones((2, 3)))


def test_reduced_eigs_fall_back_when_the_companion_overflows():
    # one peeling round, companion 2 wide; its top block row holds
    # M_RK M_KR = 1e200 * 1e200 + 1, which overflows a finite M
    M = np.array([[1.0, 1e200, 1.0], [1e200, 0.0, 0.0], [1.0, 0.0, 0.0]])
    got = eigvals_mod_zero(M)
    assert np.array_equal(got, np.linalg.eigvals(M))
    assert np.allclose(sorted(got.real), [-1e200, 0.0, 1e200], rtol=1e-12)


# --------------------------------------------------- Krylov breakdown


def rank_one(n):
    a = np.arange(1.0, n + 1.0)
    return np.outer(a, np.linspace(-1.0, 1.0, n) + 0.3)


@pytest.mark.parametrize("M", [
    np.eye(50),
    rank_one(50),
    np.diag(np.repeat([3.0, -1.0, 0.5], [10, 20, 20])),
], ids=["identity", "rank-one", "three-eigenvalues"])
def test_krylov_breakdown_gives_the_exact_dominant_pair(M):
    # the Krylov space of a matrix with 1, 1 or 3 distinct eigenvalues
    # is invariant after that many steps, far below _krylov_steps(50) =
    # 32: the Ritz values there are eigenvalues, and the pair converges
    spectral = importlib.import_module("scalefix.spectral")
    dense = np.linalg.eigvals(M)
    want = dense[np.argmax(np.abs(dense))]
    theta, X, converged = spectral._dominant_ritz([M])
    assert converged[0]
    assert abs(theta[0] - want) <= 1e-12 * abs(want)
    assert np.linalg.norm(M @ X[0] - theta[0] * X[0]) <= 1e-12 * abs(want)


def test_krylov_breakdown_is_per_matrix_and_no_overflow_converges():
    # in one lockstep pass the identity breaks down at its first step,
    # while the matrix with entries near 1e200 overflows its norms, which
    # must not read as a breakdown
    spectral = importlib.import_module("scalefix.spectral")
    big = 1e200 * np.random.default_rng(2).standard_normal((50, 50))
    theta, _, converged = spectral._dominant_ritz([np.eye(50), big])
    assert list(converged) == [True, False]
    assert theta[0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 12, 32])
def test_krylov_pass_at_most_32_rows_is_a_full_reduction(n):
    # n steps span R^n, so the last one breaks down and the Ritz
    # values are the eigenvalues of A, up to rounding
    spectral = importlib.import_module("scalefix.spectral")
    A = np.random.default_rng(n).standard_normal((n, n))
    dense = np.linalg.eigvals(A)
    want = np.max(np.abs(dense))
    theta, _, converged = spectral._dominant_ritz([A, 2.0 * A])
    assert spectral._krylov_steps(n) == n
    assert list(converged) == [True, True]
    assert np.abs(theta) == pytest.approx([want, 2.0 * want], rel=1e-12)
