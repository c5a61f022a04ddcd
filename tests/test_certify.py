"""Certifier checks: built-in models must pass everything in exact mode,
and each hand-built counterexample must trip exactly the check it was
designed to violate."""

import dataclasses
import gc
import importlib
import pathlib
import runpy
import tracemalloc
import types
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_acceptance import MASTER_SEED, random_multi_sector, random_one_sector

from scalefix.certify import (
    TOL_EIGENVALUE,
    TOL_RESIDUAL,
    TOL_SIGN,
    AmbiguousScalingError,
    CheckResult,
    _one_small_singular_value,
    _signs,
    certify,
    check_connectedness,
    check_monotonicity,
    check_self_interaction,
    check_spectral,
    find_scaling_exponent,
    sample_states,
)
from scalefix.cli import exit_code_for_report
from scalefix.modelio import format_report, parse_report
from scalefix.solve import iterate
from scalefix.spectral import (
    eigvals_mod_zero,
    spectral_radius,
    strongly_connected_components,
)
from scalefix.system import (
    DifferentiationError,
    ElasticityMatrix,
    PositiveSystem,
    _pattern_support,
    _support_dg,
    _HeldDG,
    _SupportDG,
    _worst,
    elasticity_at,
)
from scalefix.trade import (
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    ShockStep,
    apply_shock,
    build_general,
    build_multi_sector,
    build_one_sector,
    counterfactual,
)


# ------------------------------------------------------------- oracles


def bisect_sign_flip(f, lo, hi, steps=80):
    """Locate a sign change of f by bisection; requires f(lo)*f(hi) < 0."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def charpoly_gap(A, B):
    """Largest relative mismatch between characteristic polynomials.

    Equal coefficient vectors mean the eigenvalue multisets coincide,
    which is an assignment-free way to test spectrum similarity.
    """
    ca, cb = np.poly(A), np.poly(B)
    scale = max(np.abs(ca).max(), np.abs(cb).max(), 1.0)
    return float(np.abs(ca - cb).max() / scale)


# ------------------------------------------------------------ fixtures


def one_sector_params(J=3, seed=5, gamma=0.6):
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.1, 1.5, (J, J))
    np.fill_diagonal(tau, 1.0)
    return OneSectorParams(
        A=rng.uniform(0.5, 2.0, J),
        tau=tau,
        gamma=np.full(J, gamma),
        L=rng.uniform(0.5, 2.0, J),
        theta=4.2,
        sigma=2.5,
    )


def multi_sector_params(J=3, S=2, seed=11):
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.1, 1.2, (J, J, S))
    for s in range(S):
        np.fill_diagonal(tau[:, :, s], 1.0)
    alpha = rng.uniform(0.2, 1.0, (J, S))
    alpha /= alpha.sum(axis=1, keepdims=True)
    return MultiSectorParams(
        A=rng.uniform(0.5, 2.0, (J, S)),
        tau=tau,
        alpha=alpha,
        L=rng.uniform(0.5, 2.0, J),
        theta=np.array([3.5, 5.0, 4.2])[:S],
        sigma=np.array([2.0, 2.8, 2.4])[:S],
    )


def general_params(J=2, S=2, seed=3):
    rng = np.random.default_rng(seed)
    base = multi_sector_params(J=J, S=S, seed=seed)
    gl = rng.uniform(0.5, 0.8, (J, S))
    gio = rng.uniform(0.1, 1.0, (J, S, S))
    gio *= ((1.0 - gl) / gio.sum(axis=1))[:, None, :]
    return GeneralParams(
        A=base.A, tau=base.tau, alpha=base.alpha, L=base.L,
        theta=base.theta, sigma=base.sigma,
        gamma_labor=gl, gamma_io=gio,
    )


def custom(labels, fn):
    return PositiveSystem(labels=labels, evaluate_values=fn)


SWAP = custom(("a", "b"), lambda x: x[::-1].copy())
SQRT_SWAP = custom(("a", "b"), lambda x: np.array([x[1] ** 0.5, x[0] ** 0.5]))
IDENTITY = custom(("a", "b"), lambda x: x.copy())
MIXED = custom(("a", "b"), lambda x: np.array([x[0] + x[1] ** 2 / x[0], x[0]]))
ROTATION = custom(("a", "b"), lambda x: np.array([x[1], 1.0 / x[0]]))


# ----------------------------------------------------------- sampling


def test_sample_states_deterministic():
    sys = build_one_sector(one_sector_params())
    a = sample_states(sys, 6, seed=42)
    b = sample_states(sys, 6, seed=42)
    c = sample_states(sys, 6, seed=43)
    for xa, xb in zip(a, b):
        assert np.array_equal(xa.values, xb.values)
    assert not np.array_equal(a[0].values, c[0].values)
    lo, hi = np.exp(-3.0), np.exp(3.0)
    for x in a:
        assert np.all(x.values >= lo) and np.all(x.values <= hi)


def test_sample_states_rejects_empty():
    sys = build_one_sector(one_sector_params())
    with pytest.raises(ValueError):
        sample_states(sys, 0, seed=1)


@pytest.mark.parametrize("check", [
    check_connectedness, check_self_interaction, find_scaling_exponent,
    lambda sys, samples: check_monotonicity(sys, sys.scaling, samples),
    lambda sys, samples: check_spectral(sys, sys.scaling, samples),
])
@pytest.mark.parametrize("build,params", [
    (build_one_sector, one_sector_params), (build_general, general_params)])
def test_public_checks_refuse_an_empty_sample_list(check, build, params):
    with pytest.raises(ValueError, match="need at least one sample"):
        check(build(params()), [])


# ----------------------------------------------- built-ins, exact mode


def test_one_sector_certifies_clean():
    p = one_sector_params()
    rep = certify(build_one_sector(p), sample_count=8, seed=0)
    assert rep.mode == "exact"
    assert rep.connectedness.verdict == "pass"
    assert rep.self_interaction.verdict == "pass"
    assert rep.scaling.verdict == "pass"
    assert rep.monotonicity.verdict == "pass"
    assert rep.uniqueness_applicable and rep.attractivity_applicable
    assert not rep.scaling_free_radius_one
    assert rep.differentiation == "analytic"
    assert rep.scaling.details["matches_closed_form"]
    J = p.J
    assert set(rep.partition.zeta_plus) == {f"OMEGA[{i+1}]" for i in range(J)}
    assert set(rep.partition.zeta_minus) == {f"P[{i+1}]" for i in range(J)}


def test_one_sector_exponent_values():
    p = one_sector_params()
    rep = certify(build_one_sector(p), sample_count=4, seed=1)
    u = rep.certificate.u
    J = p.J
    # scale fixed by max-abs normalization: market-size block at 1,
    # inverse-price block at -theta/(1+theta)
    assert np.all(np.abs(u[:J] - 1.0) < 1e-9)
    want = -p.theta / (1.0 + p.theta)
    assert np.all(np.abs(u[J:] - want) < 1e-9)
    assert rep.certificate.residual_fixed_eq < 1e-9
    assert rep.certificate.residual_direct < 1e-9


def test_multi_sector_certifies_clean():
    p = multi_sector_params()
    rep = certify(build_multi_sector(p), sample_count=6, seed=2)
    assert rep.mode == "exact"
    for check in (rep.connectedness, rep.self_interaction,
                  rep.scaling, rep.monotonicity):
        assert check.verdict == "pass"
    assert rep.attractivity_applicable
    J, S, Theta = p.J, p.S, float(p.theta.sum())
    u = rep.certificate.u
    # wage block carries the largest entry, so it pins the scale at 1
    assert np.all(np.abs(u[2 * J * S:] - 1.0) < 1e-9)
    om = np.tile((1.0 + p.theta) / (1.0 + Theta), J)
    pp = np.tile(-p.theta / (1.0 + Theta), J)
    assert np.all(np.abs(u[:J * S] - om) < 1e-9)
    assert np.all(np.abs(u[J * S:2 * J * S] - pp) < 1e-9)


def test_certificate_reproducible_across_seeds():
    sys = build_one_sector(one_sector_params())
    u0 = certify(sys, sample_count=5, seed=0).certificate.u
    u1 = certify(sys, sample_count=5, seed=99).certificate.u
    cos = abs(u0 @ u1) / (np.linalg.norm(u0) * np.linalg.norm(u1))
    assert cos >= 1.0 - 1e-10


def test_sign_tables_match_numbers_at_100_points():
    rng = np.random.default_rng(17)
    base = multi_sector_params(J=3, S=2)
    for sys in (build_one_sector(one_sector_params()),
                build_multi_sector(multi_sector_params(J=2, S=2)),
                build_multi_sector(multi_sector_params(J=3, S=1)),
                build_multi_sector(apply_shock(base, [
                    ShockStep("tau", (1, 2, 1), "=", np.inf)])),
                build_multi_sector(apply_shock(base, [
                    ShockStep("alpha", (2, 1), "=", 0.0),
                    ShockStep("alpha", (2, 2), "=", 1.0)]))):
        P = sys.sign_pattern
        for _ in range(100):
            x = sys.state(np.exp(rng.uniform(-3, 3, sys.dimension)))
            E = elasticity_at(sys, x).entries
            assert np.array_equal(np.sign(E), P)


# ----------------------------------------------------- spectral facts


@pytest.mark.parametrize("build,params", [
    (build_one_sector, one_sector_params()),
    (build_multi_sector, multi_sector_params(J=2, S=2)),
])
def test_spectral_evidence(build, params):
    sys = build(params)
    rep = certify(sys, sample_count=8, seed=4)
    sp = rep.spectral
    assert sp.max_rho_deviation <= 1e-8
    assert sp.eigvec_residual <= 1e-8
    # the block sign rule makes D DG D = |DG| exact, D = diag(sign u)
    assert sp.similarity_residual == 0.0
    assert sp.unique_modulus_one
    assert sp.spectral_gap > 1e-6
    lower, upper = sp.rho_bracket
    assert lower <= min(sp.rho) <= max(sp.rho) <= upper
    assert upper - lower <= 1e-8
    # dense eigensolver as the oracle for the reported radii
    for x, rho in zip(rep.samples, sp.rho):
        A = np.abs(elasticity_at(sys, x).entries)
        assert abs(rho - np.max(np.abs(np.linalg.eigvals(A)))) < 1e-9


@st.composite
def signed_perron_matrices(draw, diagonal=st.just(True)):
    """E = D M D for an irreducible nonnegative M with M v = v, a random
    signature D, and u = D v.  M has a positive diagonal unless the
    `diagonal` strategy draws False, which leaves it all zero."""
    n = draw(st.integers(2, 7))
    weights = draw(arrays(float, (n, n), elements=st.floats(0.1, 2.0)))
    keep = draw(arrays(bool, (n, n)))
    eye = np.eye(n, dtype=bool)
    # the cycle j -> j+1 makes B irreducible, the diagonal primitive
    keep = (keep | eye) if draw(diagonal) else (keep & ~eye)
    keep |= np.roll(eye, 1, axis=1)
    B = np.where(keep, weights, 0.0)
    v = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    M = (v / (B @ v))[:, None] * B
    d = np.where(draw(arrays(bool, n)), 1.0, -1.0)
    return d[:, None] * M * d[None, :], d * v, M


@settings(max_examples=60, deadline=None)
@given(signed_perron_matrices())
def test_signature_similarity_and_perron_bracket(case):
    E, u, M = case
    sys = custom(tuple(f"x{j}" for j in range(len(u))), lambda x: x)
    x = sys.state(np.ones(len(u)))
    sp = check_spectral(sys, u, [x], [ElasticityMatrix(E, x, "analytic")])
    assert sp.similarity_residual == 0.0
    assert abs(sp.rho[0] - 1.0) <= 1e-12
    assert abs(sp.rho[0] - np.max(np.abs(np.linalg.eigvals(M)))) <= 1e-9


def dense_unique_modulus_one(E):
    """check_spectral's eigenvalue test on numpy's dense spectrum."""
    eigs = np.linalg.eigvals(E)
    near = np.abs(eigs - 1.0) <= 1e-6
    second = np.max(np.abs(eigs[~near]), initial=0.0)
    return int(near.sum()) == 1 and second < 1.0 - 1e-6


def count_calls(patch, module, name):
    """Wrap module.name so that each call appends to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch.setattr(module, name, counted)
    return calls


def record_rule_tests(patch):
    """Wrap _witnesses, the block rule's one test, on the three DG
    formats: each call appends the array whose D DG D it forms, the
    support values of a _SupportDG, the n x n entries of an
    ElasticityMatrix or the held n x n |DG| of a _HeldDG, to the returned
    list."""
    products = []
    for cls, held in ((ElasticityMatrix, lambda E: E.entries),
                      (_SupportDG, lambda E: E.values),
                      (_HeldDG, lambda E: E._abs())):
        patch.setattr(cls, "_witnesses",
                      lambda self, *args, f=cls._witnesses, held=held:
                      products.append(held(self)) or f(self, *args))
    return products


def count_eigensolves(patch):
    """Like count_calls, for eigvals_mod_zero both where the Perron pass
    calls it, for |DG| (spectral._perron_roots), and where
    ElasticityMatrix.spectrum calls it, for DG, and for _support_eigvals
    where _SupportDG.spectrum calls it, for DG on its support: each call
    appends (M,), or (values,) for the last, to the one returned list."""
    calls = []
    for name in ("scalefix.spectral", "scalefix.system"):
        module = importlib.import_module(name)
        patch.setattr(module, "eigvals_mod_zero",
                      lambda M, f=module.eigvals_mod_zero:
                      calls.append((M,)) or f(M))
    system = importlib.import_module("scalefix.system")
    patch.setattr(system, "_support_eigvals",
                  lambda n, rows, cols, values, dense,
                  f=system._support_eigvals:
                  calls.append((values,)) or f(n, rows, cols, values, dense))
    return calls


def with_rank_one_first(E, u):
    """Samples (E0, E) at one state, E0 = D v 1'/(1'v) D: E0 u = u and
    its spectrum is {1, 0, ...}, so sample 0 reads unique and the verdict
    on E alone decides the answer."""
    n = len(u)
    v = np.abs(u)
    E0 = np.outer(np.sign(u), np.sign(u)) * np.outer(v, np.ones(n)) / v.sum()
    sys = custom(tuple(f"x{j}" for j in range(n)), lambda x: x)
    x = sys.state(np.ones(n))
    return sys, [x, x], [ElasticityMatrix(E0, x, "analytic"),
                         ElasticityMatrix(E, x, "analytic")]


@settings(max_examples=80, deadline=None)
@given(signed_perron_matrices(diagonal=st.booleans()))
def test_derived_uniqueness_matches_dense_eigvals(case):
    # sample 0's spectrum is the only eigensolve.  With a self-loop the
    # answer at sample 1 is derived, and matches the dense rule; without
    # one |E| may be imprimitive, nothing settles sample 1, and the fact
    # is not computed
    E, u, M = case
    sys, samples, elas = with_rank_one_first(E, u)
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigensolves(m)
        sp = check_spectral(sys, u, samples, elas)
    assert len(calls) == 1 and calls[0][0] is elas[0].entries
    if np.diag(M).max() > 0.0:
        assert sp.unique_modulus_one is True
        assert dense_unique_modulus_one(E)
    else:
        assert sp.unique_modulus_one is None


def test_derivation_refused_for_a_flipped_sign_or_radius_off_one():
    M = np.array([[0.5, 0.3, 0.0], [0.0, 0.2, 0.6], [0.4, 0.0, 0.1]])
    v = np.array([1.0, 2.0, 0.5])
    M = (v / (M @ v))[:, None] * M
    d = np.array([1.0, -1.0, 1.0])
    E = d[:, None] * M * d[None, :]
    flipped = E.copy()
    flipped[0, 1] = -flipped[0, 1]
    u = d * v
    # |c E| |u| = c |u|: the bracket closes around c, and 1 is no
    # eigenvalue at all.  Sample 0 says unique, so where the derivation
    # is refused at sample 1 the fact is not computed; sample 0's
    # spectrum stays the only one
    for F, unique in ((E, True), (flipped, None), (1.5 * E, None),
                      (0.5 * E, None)):
        sys, samples, elas = with_rank_one_first(F, u)
        with pytest.MonkeyPatch.context() as m:
            calls = count_eigensolves(m)
            sp = check_spectral(sys, u, samples, elas)
        assert len(calls) == 1
        assert (sp.similarity_residual > 0.0) == (F is flipped)
        assert sp.unique_modulus_one is unique
    assert dense_unique_modulus_one(E)


# signed zeros, tiny and moderate entries and ones up to 1e40, small
# enough that |DG| |u| and the powers of DG in eigvals_mod_zero stay
# finite, so no overflow warning is raised
finite_entries = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-1e-9, 1e-9),
    st.floats(-1e3, 1e3), st.floats(-1e40, 1e40))


@st.composite
def dg_samples_and_zero_free_u(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(arrays(float, (n, n), elements=finite_entries),
                            min_size=1, max_size=3))
    signs = np.where(draw(arrays(bool, n)), 1.0, -1.0)
    u = signs * draw(arrays(float, n, elements=st.floats(1e-6, 1e6)))
    return entries, u


def spectral_at_one_state(u, entries):
    n = len(entries[0])
    sys = custom(tuple(f"x{j}" for j in range(n)), lambda x: x)
    x = sys.state(np.ones(n))
    return check_spectral(sys, u, [x] * len(entries),
                          [ElasticityMatrix(E, x, "analytic")
                           for E in entries])


def dense_radius(E):
    return float(np.max(np.abs(np.linalg.eigvals(np.abs(E)))))


def mpmath_radius(E, digits=60):
    """The spectral radius of |E| from a 60-digit eigensolve, the judge
    where the dense one errs: near a defective eigenvalue eigvals is off
    by up to about sqrt(eps) relative."""
    with mpmath.workdps(digits):
        eigs = mpmath.eig(mpmath.matrix(np.abs(E).tolist()),
                          left=False, right=False)
        return float(max(abs(v) for v in eigs))


B45 = 2.0 ** 45 - 1


@settings(max_examples=150, deadline=None)
@given(dg_samples_and_zero_free_u())
def test_signature_residual_equals_the_dense_flip_reference(case):
    entries, u = case
    flip = np.outer(np.sign(u), np.sign(u))
    reference = max(float(np.max(np.abs(flip * E - np.abs(E))))
                    for E in entries)
    assert spectral_at_one_state(u, entries).similarity_residual == reference


def old_block_rule(M, u, tol):
    """The entries of M against the block rule of sign(u) beyond tol, by
    a mask of the blocks: the reference that D DG D < -tol must match."""
    same = np.equal.outer(u > 0, u > 0)
    return (same & (M < -tol)) | (~same & (M > tol))


@st.composite
def both_dg_formats(draw):
    """A dense DG with signed zeros and maybe a zero row, a DG held as
    nonzero values on a random declared support, both with entries at
    +-TOL_SIGN, a zero-free u, a positive x and a tol."""
    at_tol = st.sampled_from([TOL_SIGN, -TOL_SIGN])
    n = draw(st.integers(1, 6))
    E = draw(arrays(float, (n, n), elements=st.one_of(finite_entries, at_tol)))
    if draw(st.booleans()):
        E[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))
    support = _pattern_support(n, draw(arrays(bool, (n, n))).astype(int))
    values = draw(arrays(float, len(support.flat), elements=st.one_of(
        at_tol, st.floats(-1e-9, 1e-9), st.floats(-1e40, 1e40)).filter(bool)))
    point = custom(tuple(f"x{j}" for j in range(n)), lambda x: x).state(
        np.ones(n))
    signs = np.where(draw(arrays(bool, n)), 1.0, -1.0)
    u = signs * draw(arrays(float, n, elements=st.floats(1e-6, 1e6)))
    x = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    return (ElasticityMatrix(E, point, "analytic"),
            _SupportDG(support, values, point), u, x,
            draw(st.sampled_from([0.0, TOL_SIGN])))


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def signed_zeros_against_u():
    """Both formats against u = (1, -1), whose blocks are {0} and {1}: a
    dense DG with -0.0 on a cross-block entry and on a diagonal one, and
    a DG on a support that breaks the block rule nowhere."""
    point = custom(("x0", "x1"), lambda x: x).state(np.ones(2))
    dense = np.array([[0.5, -0.0], [-1.0, -0.0]])
    support = _pattern_support(2, [[1, 0], [1, 1]])
    return (ElasticityMatrix(dense, point, "analytic"),
            _SupportDG(support, np.array([0.5, -1.0, 2.0]), point),
            np.array([1.0, -1.0]), np.ones(2), 0.0)


def subnormal_products():
    """A DG on a full 2x2 support whose entries are all the smallest
    subnormal, against x = (0.5, 1): each product of a row rounds to 0
    or to one subnormal ulp, so the two formats' sums may differ by one
    ulp while the relative bound on them underflows to 0."""
    point = custom(("x0", "x1"), lambda x: x).state(np.ones(2))
    tiny = np.full(4, 2.0 ** -1074)
    return (ElasticityMatrix(tiny.reshape(2, 2), point, "analytic"),
            _SupportDG(_pattern_support(2, np.ones((2, 2), int)), tiny,
                       point),
            np.ones(2), np.array([0.5, 1.0]), 0.0)


@settings(max_examples=200, deadline=None)
@given(both_dg_formats())
@example(case=signed_zeros_against_u())
@example(case=subnormal_products())
def test_both_dg_formats_agree_with_the_old_block_rule(case):
    dense, on_support, u, x, tol = case
    d = _signs(u)
    for E in (dense, on_support):
        M = E.entries
        flat, values = E._witnesses(d, tol)
        assert np.array_equal(flat, np.flatnonzero(old_block_rule(M, u, tol)))
        assert np.array_equal(bits(values), bits(np.take(M, flat)))
        # the one reduction certify takes of the block rule, against the
        # oracle max(0, -min(D DG D)): +0.0 when none breaks it, -0.0
        # entries included
        worst = _worst(E, d)
        want = float(np.max(np.abs(M[old_block_rule(M, u, 0.0)]),
                            initial=0.0))
        assert bits(worst) == bits(want)
        assert bits(worst) == bits(max(0.0, -float(np.min(
            d[:, None] * M * d, initial=0.0))))
    scattered = on_support.dense
    assert on_support._irreducible() == scattered._irreducible()
    assert on_support._self_loop() == scattered._self_loop()
    # reduceat on the support and BLAS on the dense DG sum in their own
    # orders: a few ulp of the sum of |terms| apart, and where that sum
    # is subnormal, a few subnormal ulps (2**-1074 each) apart
    n = len(x)
    bound = 4 * n * 2.0 ** -52 * (np.abs(scattered.entries) @ x) \
        + n * 2.0 ** -1074
    for absolute in (False, True):
        got = on_support._dot(x, absolute)
        want = scattered._dot(x, absolute)
        assert np.all(np.abs(got - want) <= bound)


@st.composite
def held_and_dense_dgs(draw):
    """(mats, u, x): 1 to 3 dense DGs of one size n from 1 to 9, with
    entries from finite_entries (+0.0 and -0.0 among them) and
    +-TOL_SIGN, each maybe with a row of +0.0 or -0.0 alone; a zero-free
    u, whose block rule they break where they will, and an x of either
    sign."""
    at_tol = st.sampled_from([TOL_SIGN, -TOL_SIGN])
    n, k = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    mats = []
    for _ in range(k):
        E = draw(arrays(float, (n, n),
                        elements=st.one_of(finite_entries, at_tol)))
        if draw(st.booleans()):
            E[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))
        mats.append(E)
    signs = np.where(draw(arrays(bool, n)), 1.0, -1.0)
    u = signs * draw(arrays(float, n, elements=st.floats(1e-6, 1e6)))
    x = draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    return mats, u, x


def spectrum_bits(E):
    """The bits of E.spectrum, real or complex, or the type of what
    computing it raised."""
    try:
        return E.spectrum.view(np.int64).tolist()
    except np.linalg.LinAlgError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(held_and_dense_dgs())
@example(case=([np.array([[0.5, -0.0], [-1.0, -0.0]]),
                np.array([[-0.0, 0.0], [TOL_SIGN, -TOL_SIGN]])],
               np.array([1.0, -1.0]), np.array([1.0, -2.0])))
def test_held_dg_answers_as_its_elasticity_matrix_bit_for_bit(case):
    # certify holds a dense sample as |DG| in a slice of one stack and
    # its packed sign bits (_HeldDG): every private operation certify
    # asks of a DG returns, at every slice, what the ElasticityMatrix of
    # that DG returns, bit for bit
    mats, u, x = case
    n = len(u)
    point = custom(tuple(f"x{j}" for j in range(n)), lambda y: y).state(
        np.ones(n))
    stack = np.array(mats)
    held = [_HeldDG(stack, i) for i in range(len(mats))]
    stack.setflags(write=False)
    d = _signs(u)
    for H, E in zip(held, mats):
        dense = ElasticityMatrix(E, point, "analytic")
        assert np.array_equal(bits(H._abs()), bits(np.abs(E)))
        assert np.array_equal(bits(H.entries), bits(dense.entries))
        assert not H.entries.flags.writeable
        for absolute in (False, True):
            assert np.array_equal(bits(H._dot(x, absolute)),
                                  bits(dense._dot(x, absolute)))
        for tol in (0.0, TOL_SIGN):
            (got, got_values), (want, want_values) = (
                H._witnesses(d, tol), dense._witnesses(d, tol))
            assert np.array_equal(got, want)
            assert np.array_equal(bits(got_values), bits(want_values))
        assert H._irreducible() == dense._irreducible()
        assert H._self_loop() == dense._self_loop()
        assert spectrum_bits(H) == spectrum_bits(dense)


@settings(max_examples=150, deadline=None)
@given(dg_samples_and_zero_free_u(), st.booleans())
# dense eigvals is 1e-6 and 2.6e-9 relative off on these two; the
# Collatz-Wielandt bracket closes on the exact radius
@example(case=([np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                          [1e-18, 0.0, 1.0]])], np.ones(3)), with_u=False)
@example(case=([np.array([[0.0, B45, B45, B45], [0.0, 0.0, B45, B45],
                          [0.0, B45, 0.0, B45], [1e-60, 0.5, 0.0, B45]])],
               np.ones(4)), with_u=False)
def test_radius_bracket_and_residual_match_dense_references(case, with_u):
    entries, u = case
    sp = spectral_at_one_state(u if with_u else None, entries)
    for E, rho in zip(entries, sp.rho):
        tol = 1e-9 * max(1.0, rho)
        assert (abs(rho - dense_radius(E)) <= tol
                or abs(rho - mpmath_radius(E)) <= tol)
    if sp.rho_bracket is not None:
        lower, upper = sp.rho_bracket
        assert all(lower <= rho <= upper for rho in sp.rho)
    if with_u:
        abs_u = np.abs(u)
        assert sp.eigvec_residual == max(
            float(np.max(np.abs(np.abs(E) @ abs_u - abs_u)))
            for E in entries)
    else:
        assert sp.eigvec_residual is None


def test_overflowed_matvec_is_no_closed_bracket():
    # |DG| 1 = [inf, 2]: an infinite upper bound must not pass for a
    # closed bracket, so rho comes from the spectrum
    E = np.array([[1e308, 1e308], [1.0, 1.0]])
    sp = spectral_at_one_state(None, [E])
    assert sp.rho == pytest.approx((1e308,), rel=1e-12)
    assert sp.rho_bracket is None


def near_defective(n, eps):
    """J_n + eps e_n e_1': the n x n Jordan block of eigenvalue 1 closed
    into a cycle by eps, so its Perron root is 1 + eps^(1/n)."""
    M = np.eye(n) + np.eye(n, k=1)
    M[-1, 0] = eps
    return M


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.floats(-24.0, -8.0))
def test_reported_rho_lies_in_its_proved_bracket(n, log_eps):
    # the bracket closes slowly near a defective eigenvalue, so
    # spectral_radius may stop with it open; the first matvec from all
    # ones has already proved [1 + eps, 2], and a proved bracket is kept
    eps = 10.0 ** log_eps
    sp = spectral_at_one_state(None, [near_defective(n, eps)])
    root = 1.0 + eps ** (1.0 / n)
    lower, upper = sp.rho_bracket
    assert lower <= sp.rho[0] <= upper
    assert lower <= root * (1.0 + 1e-15) and root * (1.0 - 1e-15) <= upper


@pytest.mark.parametrize("M", [
    [[1.0, 1.0], [1e-20, 1.0]],                             # 1 + 1e-10
    [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1e-21, 0.0, 1.0]],  # 1 + 1e-7
])
def test_near_defective_radius_stays_in_its_bracket(M):
    # spectral_radius runs out of solves on both; the dense radius of
    # the 3 x 3 is 1.0, below the proved lower bound, so it is clamped
    sp = spectral_at_one_state(None, [np.array(M)])
    lower, upper = sp.rho_bracket
    assert lower <= mpmath_radius(np.array(M)) <= upper
    assert lower <= sp.rho[0] <= upper


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_signature_is_none_when_u_has_a_zero_entry(zero):
    # D = diag(sign u) is singular: there is no similarity to test
    E = np.array([[0.5, -0.2, 0.1], [0.3, 0.4, -0.6], [-0.1, 0.2, 0.7]])
    u = np.array([1.0, zero, -2.0])
    sp = spectral_at_one_state(u, [E, -E])
    assert sp.similarity_residual is None
    assert sp.eigvec_residual == float(np.max(np.abs(np.abs(E) @ np.abs(u)
                                                     - np.abs(u))))
    assert sp.unique_modulus_one is not None


@pytest.mark.parametrize("build,params", [
    (build_one_sector, one_sector_params(J=4)),
    (build_multi_sector, multi_sector_params(J=3, S=2)),
])
def test_exact_certify_runs_no_svd_and_one_eigensolve(build, params,
                                                      monkeypatch):
    sys = build(params)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, sample_count=8, seed=0)
    assert rep.uniqueness_applicable and rep.attractivity_applicable
    assert rep.spectral.unique_modulus_one
    assert rep.scaling.details["matches_closed_form"]
    assert (len(svd), len(eigs)) == (0, 1)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_exact_certify_tests_the_block_rule_once_per_sample(k, monkeypatch):
    # the closed form's premise at sample 0, the declared pattern in
    # check_monotonicity, and at each sample the witnesses in
    # check_monotonicity and the signature in check_spectral, all on the
    # declared support's nnz entries: no n x n rule array.  The graph is
    # walked once, on the support's edges, which connectedness, sample
    # 0's premise and every sample's primitivity share: no walk per
    # sample, and no walk of an n x n adjacency
    sys = build_multi_sector(multi_sector_params(J=3, S=2))
    products = record_rule_tests(monkeypatch)
    walks = [count_calls(monkeypatch, importlib.import_module(module), name)
             for module, name in [("scalefix.certify", "_strongly_connected"),
                                  ("scalefix.system", "_strongly_connected"),
                                  ("scalefix.system",
                                   "_strongly_connected_edges")]]
    rep = certify(sys, sample_count=k, seed=0)
    support = sys._support
    assert rep.uniqueness_applicable and rep.spectral.unique_modulus_one
    assert len(products) == 2 * k + 2
    assert [len(calls) for calls in walks] == [0, 0, 1]
    assert all(M.shape == support.flat.shape for M in products)
    n, rows, cols = walks[2][0]
    assert n == sys.dimension and rows is support.rows and cols is support.cols


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("exact", [True, False])
def test_certify_validates_no_matrix_it_built(k, exact, monkeypatch):
    # an ElasticityMatrix is finite and square by construction, so |E|
    # is finite and nonnegative, and certify runs the unchecked kernels.
    # In exact mode every sample keeps its support values, sample 0's
    # spectrum is computed from them, so elasticity_at never runs, and
    # no n x n rule array is built.  In
    # sampled mode every sample is dense, and the block rule is tested on
    # n x n arrays: in check_monotonicity up to the failing sample, and
    # in check_spectral at each sample
    certify_module = importlib.import_module("scalefix.certify")
    sys = (build_multi_sector(multi_sector_params(J=3, S=2)) if exact
           else build_general(general_params()))
    n = sys.dimension
    checks = count_calls(monkeypatch,
                         importlib.import_module("scalefix.spectral"),
                         "_as_nonneg_square")
    products = record_rule_tests(monkeypatch)
    built = count_calls(monkeypatch, certify_module, "elasticity_at")
    rep = certify(sys, sample_count=k, seed=0 if exact else 5)
    assert rep.mode == ("exact" if exact else "sampled")
    assert rep.monotonicity.verdict == ("pass" if exact else "fail")
    dense = [M for M in products if M.shape == (n, n)]
    assert (len(checks), len(dense), len(built)) == (
        (0, 0, 0) if exact
        else (0, rep.monotonicity.details["sample_index"] + 1 + k, k))
    assert len(dense) == (0 if exact else len(products))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_sampled_certify_runs_no_svd_and_one_eigensolve(k, monkeypatch):
    # n = 10, where the Perron-start pass is a full Arnoldi reduction:
    # sample 0's DG gets the one dense spectrum, which the extraction's
    # pre-check shares, and the one Cholesky that proves the declared
    # scaling the only direction, so no SVD; the signature fails, so no
    # later sample is derived, and no pass runs over DG.  spectral_radius
    # gives rho(|DG|) with no eigensolve, from the Perron starts of one
    # pass over the k |DG|
    spectral_module = importlib.import_module("scalefix.spectral")
    sys = build_general(general_params())
    assert sys.dimension == spectral_module._krylov_steps(sys.dimension)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
    eigs = count_eigensolves(monkeypatch)
    arnoldi = count_calls(monkeypatch, spectral_module, "_arnoldi")
    starts = count_calls(monkeypatch, spectral_module, "_perron_starts")
    rep = certify(sys, sample_count=k, seed=5)
    assert rep.monotonicity.verdict == "fail"
    assert rep.spectral.similarity_residual > 0.0
    assert rep.spectral.unique_modulus_one is False
    assert rep.spectral.rho_bracket is not None
    elas = [elasticity_at(sys, x) for x in rep.samples]
    assert (len(svd), len(cholesky), len(eigs), len(arnoldi)) == (0, 1, 1, 1)
    assert np.array_equal(eigs[0][0], elas[0].entries)
    assert np.array_equal(rep.certificate.u,
                          sys.scaling / np.abs(sys.scaling).max())
    ((absolute, *_),) = starts
    assert arnoldi[0][0] is absolute
    assert len(absolute) == k and all(
        np.array_equal(A, np.abs(E.entries)) for A, E in zip(absolute, elas))
    for E, rho in zip(elas, rep.spectral.rho):
        want = dense_radius(E.entries)
        assert abs(rho - want) <= 1e-13 * want


@pytest.mark.parametrize("k", [1, 3, 8])
def test_extraction_then_spectral_share_the_first_spectrum(k, monkeypatch):
    # the public functions one after the other on one elasticity list:
    # sample 0's memoized spectrum serves both, and is the only spectrum
    # check_spectral reads, so sample 0's DG gets the only eigensolve
    sys = build_general(general_params())
    samples = sample_states(sys, k, seed=5)
    elas = [elasticity_at(sys, x) for x in samples]
    eigs = count_eigensolves(monkeypatch)
    cert = find_scaling_exponent(sys, samples, elas)
    sp = check_spectral(sys, cert.u, samples, elas)
    assert sp.similarity_residual > 0.0 and sp.rho_bracket is not None
    assert len(eigs) == 1 and eigs[0][0] is elas[0].entries
    assert not elas[0].spectrum.flags.writeable     # one array, shared


@pytest.mark.parametrize("k", [1, 3, 8])
def test_sampled_certify_above_the_krylov_size_runs_one_eigensolve(
        k, monkeypatch):
    # n = 105 > _krylov_steps(105): one lockstep Krylov pass over |DG|
    # gives every sample a Perron start whose bracket closes on its
    # first matvec, only sample 0's spectrum is computed, and one
    # Cholesky, not an SVD, proves the declared scaling
    spectral_module = importlib.import_module("scalefix.spectral")
    sys = build_general(general_params(J=15, S=3))
    assert sys.dimension > spectral_module._krylov_steps(sys.dimension)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
    solves = count_calls(monkeypatch, np.linalg, "solve")
    walks = count_calls(monkeypatch, spectral_module, "_strongly_connected")
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, sample_count=k, seed=5)
    assert rep.monotonicity.verdict == "fail"
    assert rep.spectral.similarity_residual > 0.0
    assert rep.spectral.unique_modulus_one is False
    # the Perron starts solve with the small Hessenberg matrices only:
    # no n x n shifted solve runs
    noda = [M for M, _ in solves if M.shape == (sys.dimension,) * 2]
    assert (len(svd), len(cholesky), len(eigs), len(noda), len(walks)) == (
        0, 1, 1, 0, 0)
    assert rep.spectral.rho_bracket is not None
    for x, rho in zip(rep.samples, rep.spectral.rho):
        want = dense_radius(elasticity_at(sys, x).entries)
        assert abs(rho - want) <= 1e-13 * want


@pytest.mark.parametrize("seed", range(3, 15))
def test_sampled_certify_takes_every_krylov_answer(seed, monkeypatch):
    # general 15 x 3 (n = 105): sample 0's spectrum says not unique.
    # Every fallback counted: the one dense eigensolve is sample 0's DG;
    # no later DG's spectrum and no |DG| radius is dense
    sys = build_general(general_params(J=15, S=3, seed=seed))
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, sample_count=8, seed=seed)
    assert rep.spectral.unique_modulus_one is False
    dense = [idx for (M,) in eigs for idx, x in enumerate(rep.samples)
             if np.array_equal(M, elasticity_at(sys, x).entries)]
    assert len(eigs) == 1 and dense == [0]


def test_sampled_certify_counts_every_perron_fallback(monkeypatch):
    # the models above, 96 roots of |DG| in all, each from the Perron
    # start of the 32-step pass over |DG| (_perron_starts).  Every
    # fallback counted: no start left its first bracket open, so that
    # _perron_root never went past its first matvec (3 did from the
    # Ritz vector of the eigenvalues-only finish), and none reached the
    # eigensolve of |DG|.  The ceiling, that earlier count, leaves room
    # for BLAS builds that differ in the last bit, where a start's
    # closing is marginal
    spectral_module = importlib.import_module("scalefix.spectral")
    results = []
    perron = spectral_module._perron_root
    monkeypatch.setattr(spectral_module, "_perron_root",
                        lambda *args: results.append(perron(*args))
                        or results[-1])
    eigs = count_calls(monkeypatch, spectral_module, "eigvals_mod_zero")
    for seed in range(3, 15):
        sys = build_general(general_params(J=15, S=3, seed=seed))
        rep = certify(sys, sample_count=8, seed=seed)
        assert rep.spectral.rho_bracket is not None
    past_first = sum(res.iterations > 1 for res in results)
    assert len(results) == 96
    assert past_first <= 3 and len(eigs) == 0



def test_perron_starts_leave_no_more_brackets_open_than_ritz_vectors(
        monkeypatch):
    # 8 samples of each of 32 general models from wide_general per size
    # (8 models at 30 x 5), every first bracket open.  Each root counts
    # when _perron_root went past its first matvec from the start of the
    # pass over |DG|.  The ceilings are the counts the Ritz vector of the
    # eigenvalues-only finish left (an Arnoldi pass from a fixed random
    # vector); the Perron starts left 2, 0, 1, 0, 0 and 0, each at a
    # |DG| whose Perron vector has entries near 1e-5 of its largest, so
    # that rounding in the matvec alone opens the bracket
    spectral_module = importlib.import_module("scalefix.spectral")
    results = []
    perron = spectral_module._perron_root
    monkeypatch.setattr(spectral_module, "_perron_root",
                        lambda *args: results.append(perron(*args))
                        or results[-1])
    eigs = count_calls(monkeypatch, spectral_module, "eigvals_mod_zero")
    ceilings = {(2, 2): 4, (4, 2): 8, (6, 2): 8, (8, 3): 7, (15, 3): 15,
                (30, 5): 0}
    for (J, S), ceiling in ceilings.items():
        results.clear()
        models = 8 if S == 5 else 32
        for seed in range(models):
            certify(wide_general(J, S, seed), sample_count=8, seed=seed)
        assert len(results) == 8 * models
        assert sum(res.iterations > 1 for res in results) <= ceiling
    assert eigs == []


def perron_starts_of(patch):
    """Spy on the Perron starts certify takes: each _perron_starts call
    appends the starts it returns to the returned list."""
    starts = []
    module = importlib.import_module("scalefix.spectral")
    patch.setattr(module, "_perron_starts",
                  lambda *args, f=module._perron_starts:
                  starts.append(f(*args)) or starts[-1])
    return starts


def test_an_overflowed_hessenberg_matrix_gets_the_first_start(monkeypatch):
    # entries near 1e200 overflow the Arnoldi norms: that matrix's H is
    # not finite, so its Perron start is NaN and its root comes from all
    # ones by _perron_root's later steps, while the other matrix of the
    # pass keeps its start.  Both roots are the dense radius
    rng = np.random.default_rng(5)
    A = rng.uniform(0.1, 1.0, (40, 40))
    starts = perron_starts_of(monkeypatch)
    sp = spectral_at_one_state(None, [A, 1e200 * A])
    (X,) = starts
    assert np.isfinite(X[0]).all() and np.isnan(X[1]).all()
    for E, rho in zip([A, 1e200 * A], sp.rho):
        want = dense_radius(E)
        assert abs(rho - want) <= 1e-13 * want
    assert sp.rho_bracket is not None


def test_a_singular_shifted_solve_gives_every_first_start(monkeypatch):
    # a zero |DG| breaks down at once: its H_m is 0, the shift is 0 and
    # the shifted solve is singular, which fails the stacked solve.  The
    # steps then run matrix by matrix, so only the zero matrix's start is
    # NaN and its root comes from all ones: it is reducible, its radius
    # 0 the dense eigensolve's, with no proved bracket.  A keeps its
    # start, whose bracket closes on the first matvec
    spectral_module = importlib.import_module("scalefix.spectral")
    rng = np.random.default_rng(6)
    A = rng.uniform(0.1, 1.0, (10, 10))
    starts = perron_starts_of(monkeypatch)
    roots = []
    perron = spectral_module._perron_root
    monkeypatch.setattr(spectral_module, "_perron_root",
                        lambda *args: roots.append(perron(*args))
                        or roots[-1])
    sp = spectral_at_one_state(None, [A, np.zeros((10, 10))])
    (X,) = starts
    assert np.isfinite(X[0]).all() and np.isnan(X[1]).all()
    want = dense_radius(A)
    assert abs(sp.rho[0] - want) <= 1e-13 * want and sp.rho[1] == 0.0
    (proved,) = roots       # the zero matrix's walk raised
    assert proved.iterations == 1 and proved.rho == sp.rho[0]
    assert proved.upper_bound - proved.lower_bound <= 1e-13 * proved.rho
    assert sp.rho_bracket is None

def test_the_perron_pass_of_a_sampled_certify_calls_no_eig(monkeypatch):
    # the one Krylov pass, over the |DG| of the open samples for the
    # Perron starts, takes the eigenvalues of the leading 16 x 16 block
    # of each H_m alone, once for the 8 of them: no eigenvector is
    # computed, and no pass runs over DG
    spectral_module = importlib.import_module("scalefix.spectral")
    eig = count_calls(monkeypatch, np.linalg, "eig")
    eigvals = count_calls(monkeypatch, np.linalg, "eigvals")
    arnoldi = count_calls(monkeypatch, spectral_module, "_arnoldi")
    starts = count_calls(monkeypatch, spectral_module, "_perron_starts")
    sys = build_general(general_params(J=15, S=3))
    certify(sys, sample_count=8, seed=5)
    assert [(len(mats), m) for mats, m, _ in starts] == [(8, 32)]
    assert [(len(mats), m) for mats, m, _ in arnoldi] == [(8, 32)]
    shapes = [np.shape(a) for (a,) in eigvals]
    assert [s for s in shapes if s[1:] == (16, 16)] == [(8, 16, 16)]
    assert [s for s in shapes if len(s) == 3] == [(8, 16, 16)]
    assert eig == []


def test_spectral_facts_without_hessenberg_eigenvalues_are_the_dense_rule(
        monkeypatch):
    # a LinAlgError from the eigensolve of the small Hessenberg matrices,
    # stacked and then matrix by matrix, leaves every Perron start NaN:
    # each falls back to |u|, and Noda's steps still prove each root.
    # Uniqueness and the gap are sample 0's dense rule, and no spectrum
    # beyond its memoized one is computed
    certify_module = importlib.import_module("scalefix.certify")
    sys = build_general(general_params(J=15, S=3))
    samples = sample_states(sys, 8, seed=5)
    elas = [elasticity_at(sys, x) for x in samples]
    cert = find_scaling_exponent(sys, samples, elas)
    unique, second = certify_module._peripheral(
        eigvals_mod_zero(elas[0].entries))
    eigvals = np.linalg.eigvals
    failed = []

    def dense_only(a):
        if np.ndim(a) == 3:
            failed.append(len(a))
            raise np.linalg.LinAlgError("Hessenberg eigensolve failed")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", dense_only)
    eigs = count_eigensolves(monkeypatch)
    sp = check_spectral(sys, cert.u, samples, elas)
    assert failed == [8] + [1] * 8 and len(eigs) == 0
    assert unique is False and sp.unique_modulus_one is False
    assert sp.spectral_gap == 1.0 - second
    assert sp.rho_bracket is not None
    for E, rho in zip(elas, sp.rho):
        want = dense_radius(E.entries)
        assert abs(rho - want) <= 1e-13 * want


def test_an_eigenvalue_near_one_with_no_singular_value_is_absent(
        monkeypatch):
    # sigma_min(I - DG) <= |1 - lambda| for every eigenvalue lambda, so
    # find_scaling_exponent's pre-check passing while its SVD finds no
    # singular value below TOL_EIGENVALUE takes rounding at that
    # boundary; a spectrum patched to hold 1 + TOL_EIGENVALUE / 2 pins
    # it on SQRT_SWAP, whose I - DG has singular values 1/2 and 3/2.
    # certify holds its samples' DGs as _HeldDG, so its spectrum is the
    # one patched
    monkeypatch.setattr(_HeldDG, "spectrum",
                        property(lambda E: np.array([1.0 + 0.5e-8, -0.5])))
    svd = count_calls(monkeypatch, np.linalg, "svd")
    rep = certify(SQRT_SWAP, sample_count=2, seed=3)
    assert len(svd) == 1
    assert rep.scaling.verdict == "absent" and rep.certificate is None
    # the dense reference: no singular value of I - DG below the window
    E = elasticity_at(SQRT_SWAP, rep.samples[0]).entries
    s = np.linalg.svd(np.eye(2) - E, compute_uv=False)
    assert s == pytest.approx([1.5, 0.5], rel=1e-8)
    assert "scaling.verdict: absent" in format_report(rep).splitlines()


def sizes_around_the_krylov_steps(draw, least):
    """n from least to 32, where _krylov_steps(n) = n, or from 40 to 56,
    where it is 32 < n."""
    return draw(st.one_of(st.integers(least, 32), st.integers(40, 56)))


def upper_triangular_with_one_first(rng, n):
    """Upper triangular T, T[0, 0] = 1, its other diagonal entries
    uniform on (-0.9, 0.9): 1 is its only eigenvalue on the unit
    circle."""
    T = np.triu(rng.standard_normal((n, n)) / np.sqrt(n), 1)
    T[np.diag_indices(n)] = rng.uniform(-0.9, 0.9, n)
    T[0, 0] = 1.0
    return T


def planted(rng, n, tops):
    """(mats, u): one n x n matrix S T S^-1 per entry of tops, all
    sharing the eigenpair (1, u), u = S e_0, T upper triangular with its
    other eigenvalues of modulus below 0.9 (so that 1 is the only one on
    the unit circle where top is None), except that top = (r, None) puts
    the eigenvalue r at T[1, 1] and top = (r, phi) a 2 x 2 rotation block
    by phi of modulus r in rows and columns 1..2."""
    S = np.eye(n) + rng.standard_normal((n, n)) / (4.0 * np.sqrt(n))
    mats = []
    for top in tops:
        T = upper_triangular_with_one_first(rng, n)
        if top is not None and top[1] is None:
            T[1, 1] = top[0]
        elif top is not None:
            r, phi = top
            T[1:3, 1:3] = r * np.array([[np.cos(phi), -np.sin(phi)],
                                        [np.sin(phi), np.cos(phi)]])
        mats.append(S @ T @ np.linalg.inv(S))
    return mats, S[:, 0]


@st.composite
def planted_lists(draw):
    """planted(rng, n, tops) for 2 to 4 matrices, n from 3 to 32, where
    _krylov_steps(n) = n, or from 40 to 56, where it is 32: 1 is the only
    eigenvalue on the unit circle at sample 0, and the later samples get
    a dominant eigenvalue of modulus 1.2 to 4, or a complex pair."""
    n, k = sizes_around_the_krylov_steps(draw, 3), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tops = []
    for idx in range(k):
        r = draw(st.floats(1.2, 4.0))
        if idx == 0:
            tops.append(None)
        elif draw(st.booleans()):
            tops.append((r * draw(st.sampled_from([1.0, -1.0])), None))
        else:
            tops.append((r, draw(st.floats(0.1, 3.0))))
    return planted(rng, n, tops)


def dense_gap(E):
    """1 - the largest modulus of E's eigenvalues away from 1, as
    numpy's dense spectrum gives them."""
    e = np.linalg.eigvals(E)
    return 1.0 - np.max(np.abs(e[np.abs(e - 1.0) > 1e-6]), initial=0.0)


def assert_sample_zeros_dense_rule(mats, u):
    # sample 0 reads unique, and the planted later samples break the
    # block rule of u, so nothing settles them: the fact is not
    # computed, and sample 0's spectrum, the only one, gives the gap
    n = len(u)
    sys = custom(tuple(f"x{j}" for j in range(n)), lambda x: x)
    x = sys.state(np.ones(n))
    elas = [ElasticityMatrix(E, x, "analytic") for E in mats]
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigensolves(m)
        sp = check_spectral(sys, u, [x] * len(mats), elas)
    gap = dense_gap(mats[0])
    assert dense_unique_modulus_one(mats[0])
    assert not all(map(dense_unique_modulus_one, mats[1:]))
    assert sp.similarity_residual > 0.0
    assert sp.unique_modulus_one is None
    assert abs(sp.spectral_gap - gap) <= 1e-12 * max(1.0, abs(gap))
    assert len(calls) == 1 and calls[0][0] is elas[0].entries
    for E, rho in zip(mats, sp.rho):
        want = dense_radius(E)
        assert abs(rho - want) <= 1e-12 * want


@settings(max_examples=25, deadline=None)
@given(planted_lists())
def test_planted_spectra_read_sample_zeros_dense_rule(case):
    assert_sample_zeros_dense_rule(*case)


def test_planted_spectra_near_the_slowest_modulus_read_the_dense_rule():
    # planted_lists with a dominant modulus of 1.2 to 1.25 at the later
    # samples, n = 40 to 56: the family where the Krylov pass over DG
    # that once answered them converged most slowly, and rejected most
    # of its Ritz values
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(40, 57)), int(rng.integers(2, 5))
        tops = [None] + [
            (r * rng.choice([1.0, -1.0]), None) if rng.random() < 0.5
            else (r, rng.uniform(0.1, 3.0))
            for r in rng.uniform(1.2, 1.25, k - 1)]
        assert_sample_zeros_dense_rule(*planted(rng, n, tops))


@st.composite
def irreducible_lists(draw):
    """1 to 4 nonnegative n x n matrices, n from 2 to 60: each holds a
    cycle through every coordinate with entries from 1 to 2, so it is
    irreducible with radius at least 1, and uniform entries elsewhere at
    a density from 0 (the cycle alone, imprimitive) to 1."""
    n, k = draw(st.integers(2, 60)), draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(k):
        A = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
        cycle = rng.permutation(n)
        A[cycle, np.roll(cycle, 1)] += rng.uniform(1.0, 2.0, n)
        mats.append(A)
    return mats


@st.composite
def perron_root_cases(draw):
    """(mats, start, planted, fallback, seed): nonnegative matrices from
    irreducible_lists or the absolute values of planted_lists, a positive
    start, the indices whose rows were scaled so that A start = start,
    and those of inserted matrices, all zero or with a zero last row,
    that no bracket proves; seed fills the rows of the latter."""
    mats = draw(st.one_of(irreducible_lists(), planted_lists().map(
        lambda case: [np.abs(M) for M in case[0]])))
    n = len(mats[0])
    start = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    planted = draw(st.sets(st.integers(0, len(mats) - 1)))
    for i in planted:
        mats[i] = (start / (mats[i] @ start))[:, None] * mats[i]
    seed = draw(st.integers(0, 2**32 - 1))
    fallback = []
    for all_zero in draw(st.lists(st.booleans(), max_size=2)):
        at = draw(st.integers(0, len(mats)))
        A = np.zeros((n, n))
        if not all_zero:
            A[:-1] = np.random.default_rng(seed).uniform(0.1, 1.0, (n - 1, n))
        mats.insert(at, A)
        planted = {i + (i >= at) for i in planted}
        fallback = [i + (i >= at) for i in fallback] + [at]
    return mats, start, planted, sorted(fallback), seed


@settings(max_examples=60, deadline=None)
@given(perron_root_cases())
def test_open_roots_prove_each_rho_from_the_shorter_start(case):
    # spectral._perron_roots from each sample's first product: a planted
    # |DG| start = start closes its first bracket, whose midpoint is
    # rho, and its |DG| is never asked for.  The open samples' |DG| are
    # asked for in order; the pass over them runs 3 sqrt(n) steps, fewer
    # than the acceptance pass, so its start may leave the first bracket
    # open, but Noda's steps close it, so each rho still lies in a
    # bracket proved by a matvec.  A zero or reducible |DG| gets the
    # largest modulus of its dense spectrum, with no bracket.  Handed
    # every |DG| as one read-only stack, as certify holds them, the pass
    # gives the same roots bit for bit
    spectral_module = importlib.import_module("scalefix.spectral")
    mats, start, planted, fallback, _ = case
    first = [A @ start for A in mats]
    asked = []
    roots = spectral_module._perron_roots(
        first, start, lambda i: asked.append(i) or mats[i], 1e-13)
    stack = np.array(mats)
    stack.setflags(write=False)
    assert spectral_module._perron_roots(first, start, stack, 1e-13) == roots
    closed = []
    for i, (w, (rho, bracket)) in enumerate(zip(first, roots, strict=True)):
        ratios = w / start
        lo, hi = ratios.min(), ratios.max()
        if 0.0 < lo and hi - lo <= 1e-13 * max(1.0, 0.5 * (lo + hi)):
            closed.append(i)
            assert (rho, bracket) == (0.5 * (lo + hi), (lo, hi))
    assert planted <= set(closed) and not set(fallback) & set(closed)
    assert asked == [i for i in range(len(mats)) if i not in closed]
    for i, (A, (rho, bracket)) in enumerate(zip(mats, roots)):
        if i in fallback:
            assert bracket is None
            assert rho == float(np.max(np.abs(eigvals_mod_zero(A))))
            continue
        assert bracket is not None and bracket[0] <= rho <= bracket[1]
        want = spectral_radius(A, tol=1e-13).rho
        assert abs(rho - want) <= 1e-13 * want


@st.composite
def clustered_lists(draw):
    """(mats, u, q): 2 to 4 matrices S T S^-1 as in planted_lists, with
    (1, u) planted at sample 0.  At the later samples T holds r P_q in
    rows and columns 1..q, P_q the q x q cyclic shift, so that r times
    the q-th roots of unity are eigenvalues, a tie of q dominant ones
    for r > 1; for r = 1 the tie holds 1 twice, and for r < 1 it lies
    below the eigenvalue 1."""
    n, k = sizes_around_the_krylov_steps(draw, 4), draw(st.integers(2, 4))
    q = draw(st.integers(2, n - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = np.eye(n) + rng.standard_normal((n, n)) / (4.0 * np.sqrt(n))
    mats = []
    for idx in range(k):
        T = upper_triangular_with_one_first(rng, n)
        if idx > 0:
            r = draw(st.one_of(st.just(1.0), st.floats(0.5, 4.0)))
            T[1:q + 1, 1:q + 1] = r * np.roll(np.eye(q), 1, axis=1)
        mats.append(S @ T @ np.linalg.inv(S))
    return mats, S[:, 0], q


@settings(max_examples=40, deadline=None)
@given(clustered_lists())
def test_clustered_ties_read_sample_zeros_dense_rule(case):
    # a tie of q roots at the later samples, up to n - 2 of them, once
    # sent those samples to their dense spectra.  Sample 0 reads unique
    # and the later samples break the block rule of u, so the fact is
    # not computed, and sample 0's spectrum, the only one, gives the gap
    mats, u, q = case
    n = len(u)
    sys = custom(tuple(f"x{j}" for j in range(n)), lambda x: x)
    x = sys.state(np.ones(n))
    elas = [ElasticityMatrix(E, x, "analytic") for E in mats]
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigensolves(m)
        sp = check_spectral(sys, u, [x] * len(mats), elas)
    gap = dense_gap(mats[0])
    assert dense_unique_modulus_one(mats[0])
    assert sp.similarity_residual > 0.0
    assert sp.unique_modulus_one is None
    assert abs(sp.spectral_gap - gap) <= 1e-12 * max(1.0, abs(gap))
    assert len(calls) == 1 and calls[0][0] is elas[0].entries


@st.composite
def signed_perron_lists(draw):
    """(mats, u): 1 to 4 matrices E = D c M D sharing u = D v, each M an
    irreducible nonnegative matrix with M v = v (a cycle through every
    coordinate and random entries), D a random signature and c 1, 0.5
    or 1.5.  Each M's diagonal is positive or all zero, and each E may
    have the sign of one cycle entry flipped."""
    n = draw(st.integers(2, 7))
    v = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    d = np.where(draw(arrays(bool, n)), 1.0, -1.0)
    eye = np.eye(n, dtype=bool)
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        weights = draw(arrays(float, (n, n), elements=st.floats(0.1, 2.0)))
        keep = draw(arrays(bool, (n, n)))
        keep = (keep | eye) if draw(st.booleans()) else (keep & ~eye)
        keep |= np.roll(eye, 1, axis=1)
        B = np.where(keep, weights, 0.0)
        c = draw(st.sampled_from([1.0, 1.0, 0.5, 1.5]))
        E = c * d[:, None] * (v / (B @ v))[:, None] * B * d[None, :]
        if draw(st.booleans()):
            j = draw(st.integers(0, n - 1))
            E[j, (j + 1) % n] = -E[j, (j + 1) % n]
        mats.append(E)
    return mats, d * v


def perron_settles(E, u):
    """The dense premises of check_spectral's derivation at a later
    sample: E obeys the block rule of sign(u), rho(|E|) is within 1e-6
    of 1, and |E| is irreducible with a nonzero diagonal."""
    n, d = len(u), np.sign(u)
    reach = np.linalg.matrix_power(np.eye(n) + (E != 0.0), n - 1)
    return bool(np.all(d[:, None] * E * d >= 0.0)
                and abs(dense_radius(E) - 1.0) <= 1e-6
                and np.diag(E).any() and np.all(reach > 0.0))


@settings(max_examples=100, deadline=None)
@given(st.one_of(signed_perron_lists(), planted_lists()))
def test_uniqueness_is_sample_zeros_dense_rule_unless_perron_settles(case):
    # unique_modulus_one is False exactly where sample 0's dense spectrum
    # says not unique; True only where the dense rule says unique at
    # every sample; None exactly where sample 0 says unique and some
    # later sample is not settled by Perron-Frobenius.  The gap is
    # sample 0's dense gap
    mats, u = case
    sp = spectral_at_one_state(u, mats)
    dense = [bool(dense_unique_modulus_one(E)) for E in mats]
    settled = all(perron_settles(E, u) for E in mats[1:])
    if sp.unique_modulus_one is True:
        assert all(dense)
    assert (sp.unique_modulus_one is False) == (not dense[0])
    assert (sp.unique_modulus_one is None) == (dense[0] and not settled)
    gap = dense_gap(mats[0])
    assert abs(sp.spectral_gap - gap) <= 1e-12 * max(1.0, abs(gap))


@pytest.mark.parametrize("bad", [[[0.0, 0.5], [0.5]], "oops"],
                         ids=["ragged", "string"])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("at", [0, 1])
def test_malformed_elasticity_is_an_error_verdict(bad, exact, at):
    # a provider output numpy cannot convert, at sample 0 or later (in
    # exact mode a later sample goes through the declared support)
    E = np.full((2, 2), 0.5)
    calls = []

    def provider(x):
        calls.append(x)
        return bad if len(calls) > at else E

    sys = PositiveSystem(
        labels=("a", "b"), evaluate_values=lambda x: np.exp(E @ np.log(x)),
        elasticity_values=provider,
        sign_pattern=np.ones((2, 2), dtype=int) if exact else None)
    rep = certify(sys, sample_count=3, seed=0)
    assert rep.mode == ("exact" if exact else "sampled")
    error = rep.scaling.details["error"]
    assert rep.scaling.verdict == "error" and rep.spectral is None
    assert error.startswith("DifferentiationError: analytic elasticity "
                            f"returned a {type(bad).__name__} ")
    assert rep.scaling.details["sample_index"] == at


def test_malformed_evaluation_is_an_error_verdict():
    sys = custom(("a", "b"), lambda x: [1.0, [2.0, 3.0]])
    rep = certify(sys, sample_count=2, seed=0)
    assert rep.scaling.verdict == "error" and rep.spectral is None
    assert rep.scaling.details["error"].startswith(
        "EvaluationError: evaluate returned a list ")


def loglinear_system(E):
    """F(x) = exp(E log x), whose elasticity matrix is E everywhere."""
    n = len(E)
    return PositiveSystem(labels=tuple(f"x{j}" for j in range(n)),
                          evaluate_values=lambda x: np.exp(E @ np.log(x)),
                          elasticity_values=lambda x: E)


def dominant_one(n):
    """Row-stochastic and positive, then one row's mass moved so that an
    entry turns negative: E 1 = 1, and 1 stays the dominant eigenvalue."""
    P = np.random.default_rng(1).uniform(0.5, 1.5, (n, n))
    E = P / P.sum(axis=1, keepdims=True)
    E[0, 2] += 2.0 * E[0, 1]
    E[0, 1] = -E[0, 1]
    return E


@pytest.mark.parametrize("E", [
    dominant_one(48),                                # dominant 1
    np.roll(np.eye(48), 1, axis=1),                  # 48 roots of unity
    1e200 * np.random.default_rng(2).standard_normal((48, 48)),
], ids=["dominant-one", "tied-top-modulus", "entries-1e200"])
@pytest.mark.parametrize("k", [2, 5])
def test_krylov_falls_back_to_the_dense_spectrum(E, k, monkeypatch):
    # the DGs that once sent a later sample from the Krylov pass over DG
    # to its dense spectrum: 1 dominant, a tie of 48 eigenvalues, and
    # entries that overflow the Arnoldi norms.  Now only sample 0's
    # spectrum is computed, no warning (an error here, as pyproject.toml
    # sets) or LinAlgError escapes, and the facts are its dense rule's,
    # with a later sample whose block rule breaks left not computed
    sys = loglinear_system(E)
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, sample_count=k, seed=0)
    assert rep.spectral is not None
    on_dg = [M for (M,) in eigs if np.array_equal(M, E)]
    assert len(on_dg) == 1
    if np.all(np.abs(E) < 1e3):
        assert len(eigs) == 1
        assert rep.scaling.verdict == "evidence-only"
        unique = bool(dense_unique_modulus_one(E))
        assert rep.spectral.unique_modulus_one is (
            None if unique and rep.spectral.similarity_residual > 0.0
            else unique)
        assert rep.spectral.spectral_gap == pytest.approx(dense_gap(E),
                                                          abs=1e-12)


def test_exact_check_spectral_calls_spectral_radius_once_per_sample(
        monkeypatch):
    # |DG| |u| = |u|, so each sample's bracket closes on spectral_radius's
    # first matvec, taken on the support: the one acceptance test runs
    # once per sample, and no further Perron step runs
    spectral_module = importlib.import_module("scalefix.spectral")
    sys = build_multi_sector(multi_sector_params(J=3, S=2))
    u = sys.scaling / np.abs(sys.scaling).max()
    samples = sample_states(sys, 6, seed=0)
    first = count_calls(monkeypatch, spectral_module, "_bracket")
    later = count_calls(monkeypatch, spectral_module, "_perron_root")
    sp = check_spectral(sys, u, samples)
    assert (len(first), len(later)) == (6, 0)
    lower, upper = sp.rho_bracket
    assert 1.0 - 1e-13 <= lower <= upper <= 1.0 + 1e-13


def perturbed(size):
    def scaling(u):
        noise = np.random.default_rng(5).standard_normal(u.size)
        return u * (1.0 + size * noise)
    return scaling


def flipped_wage_block(u):
    return np.concatenate([u[:-3], -u[-3:]])    # the J = 3 wages W


# a 1e-9 perturbation passes the scale law (residual near 2e-9) and only
# the DG u = u gate refuses it; it still matches the extracted direction
@pytest.mark.parametrize("wrong,matches", [
    (perturbed(1e-3), False), (perturbed(1e-9), True),
    (flipped_wage_block, False)])
def test_wrong_closed_form_gets_the_extraction_report(wrong, matches,
                                                      monkeypatch):
    certify_module = importlib.import_module("scalefix.certify")
    sys = build_multi_sector(multi_sector_params(J=3, S=2))
    sys = dataclasses.replace(sys, scaling=wrong(sys.scaling))
    svd = count_calls(monkeypatch, np.linalg, "svd")
    rep = certify(sys, sample_count=6, seed=2)
    assert len(svd) == 1
    monkeypatch.setattr(certify_module, "_closed_form_certificate",
                        lambda *args: None)
    ref = certify(sys, sample_count=6, seed=2)
    assert format_report(rep) == format_report(ref)
    assert np.array_equal(rep.certificate.u, ref.certificate.u)
    assert rep.uniqueness_applicable
    assert rep.scaling.details["matches_closed_form"] is matches


def test_general_model_with_a_wrong_scaling_entry_gets_the_svd_report(
        monkeypatch):
    # one entry of the declared u times 1.01: the residual test of the
    # premise refuses it before any Cholesky, and the SVD's direction
    # gives the report the extraction alone gives
    certify_module = importlib.import_module("scalefix.certify")
    sys = build_general(general_params())
    wrong = sys.scaling.copy()
    wrong[3] *= 1.01
    sys = dataclasses.replace(sys, scaling=wrong)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
    rep = certify(sys, sample_count=4, seed=5)
    assert (len(svd), len(cholesky)) == (1, 0)
    monkeypatch.setattr(certify_module, "_closed_form_certificate",
                        lambda *args: None)
    ref = certify(sys, sample_count=4, seed=5)
    assert format_report(rep) == format_report(ref)
    assert np.array_equal(rep.certificate.u, ref.certificate.u)
    assert rep.scaling.verdict == "evidence-only"
    assert rep.scaling.details["matches_closed_form"] is False


@pytest.mark.parametrize("declared", [False, True])
def test_sampled_custom_system_runs_the_svd_only_without_a_scaling(
        declared, monkeypatch):
    # E 1 = 1 with 1 the dominant eigenvalue and negative entries, no
    # sign pattern: without a declared scaling the extraction's one SVD
    # finds u; declared, one Cholesky proves it and the SVD never runs
    n = 12
    sys = loglinear_system(dominant_one(n))
    if declared:
        sys = dataclasses.replace(sys, scaling=np.ones(n))
    svd = count_calls(monkeypatch, np.linalg, "svd")
    cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
    rep = certify(sys, sample_count=3, seed=0)
    assert rep.mode == "sampled" and rep.scaling.verdict == "evidence-only"
    assert (len(svd), len(cholesky)) == ((0, 1) if declared else (1, 0))
    if declared:
        assert np.array_equal(rep.certificate.u, np.ones(n))
    assert np.allclose(rep.certificate.u, 1.0, rtol=0.0, atol=1e-12)


def numeric_wrapper(sys):
    """sys's F and declared scaling alone: no elasticity provider and no
    sign pattern, so central differences give each sampled DG."""
    return PositiveSystem(labels=sys.labels,
                          evaluate_values=sys.evaluate_values,
                          scaling=sys.scaling)


@pytest.mark.parametrize("build", [
    lambda: build_general(general_params(J=4, S=2)),
    lambda: build_general(general_params(J=8, S=3)),
    lambda: build_multi_sector(multi_sector_params(J=8, S=3)),
], ids=["general-4x2", "general-8x3", "multi-sector-8x3"])
def test_a_numeric_declared_scaling_stands_on_the_cholesky_premise(
        build, monkeypatch):
    # central differences put max |DG u - u| near 1e-9: above the
    # Perron-Frobenius gate, TOL_EIGENVALUE min|u_j| / sqrt(n), far
    # below TOL_RESIDUAL.  The Cholesky premise proved both of the
    # extraction's tests at sample 0, so no gate follows it: the
    # declared u's certificate stands with no SVD, and every verdict,
    # the partition and the exit code are the extraction's
    certify_module = importlib.import_module("scalefix.certify")
    sys = numeric_wrapper(build())
    svd = count_calls(monkeypatch, np.linalg, "svd")
    rep = certify(sys, sample_count=8, seed=0)
    assert rep.differentiation == "numeric-central-log" and svd == []
    u = rep.certificate.u
    assert np.array_equal(np.abs(u), np.abs(sys.scaling)
                          / np.abs(sys.scaling).max())
    assert (TOL_EIGENVALUE * np.abs(u).min() / np.sqrt(len(u))
            < rep.certificate.residual_fixed_eq <= TOL_RESIDUAL)
    monkeypatch.setattr(certify_module, "_closed_form_certificate",
                        lambda *args: None)
    ref = certify(sys, sample_count=8, seed=0)
    assert len(svd) == 1
    checks = ("connectedness", "self_interaction", "scaling", "monotonicity")
    assert ([getattr(rep, check).verdict for check in checks]
            == [getattr(ref, check).verdict for check in checks])
    assert rep.partition == ref.partition
    assert (rep.uniqueness_applicable, rep.attractivity_applicable) == (
        ref.uniqueness_applicable, ref.attractivity_applicable)
    assert exit_code_for_report(rep) == exit_code_for_report(ref)


@st.composite
def one_small_singular_value_cases(draw):
    """(A, v): A = U diag(s) V' with n from 2 to 60, random orthogonal U
    and V, sigma_n in [1e-18, 1e-7], sigma_{n-1} in [1e-10, 1e-3] and
    the rest in [1, 10], all log-uniform; v is V's last column.  The
    rest keep tr(A'A) at least n - 2, so that forming A'A rounds by more
    than (2 TOL_EIGENVALUE)^2, and a premise blind to that rounding
    accepts where the SVD counts two."""
    n = draw(st.integers(2, 60))
    least = 10.0 ** draw(st.floats(-18.0, -7.0))
    second = 10.0 ** draw(st.floats(-10.0, -3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    rest = np.sort(10.0 ** rng.uniform(0.0, 1.0, n - 2))[::-1]
    s = np.concatenate([rest, [second, least]])
    return (U * s) @ V.T, V[:, -1]


@settings(max_examples=300, deadline=None)
@given(one_small_singular_value_cases())
def test_one_small_singular_value_agrees_with_the_svd(case):
    # where the premise accepts, the extraction's SVD counts exactly one
    # singular value below TOL_EIGENVALUE, and its direction is v's
    A, v = case
    if _one_small_singular_value(A, v):
        _, s, Vh = np.linalg.svd(A)
        assert int(np.sum(s < TOL_EIGENVALUE)) == 1
        assert abs(Vh[-1] @ v) >= 1.0 - 1e-12


def test_closed_form_failing_the_scale_law_is_not_taken(monkeypatch):
    # the provider's DG u = u holds at u = (1, 1), the scale law does not
    sys = PositiveSystem(
        labels=("a", "b"),
        evaluate_values=lambda x: np.sqrt(x[0] * x[1]) * np.array(
            [1.0, 1.0 + x[0]]),
        elasticity_values=lambda x: np.full((2, 2), 0.5),
        sign_pattern=np.ones((2, 2), dtype=int), scaling=np.ones(2))
    svd = count_calls(monkeypatch, np.linalg, "svd")
    rep = certify(sys, sample_count=4, seed=0)
    assert len(svd) == 1
    assert rep.scaling.verdict == "fail"
    assert rep.certificate.residual_direct > 1e-6


def log_linear(E, pattern, scaling, support=False):
    """x -> exp(E log x), whose elasticity matrix is E everywhere, with
    E's values on the pattern as its support_values if support."""
    labels = tuple("abcdefgh"[:E.shape[0]])
    return PositiveSystem(
        labels=labels, evaluate_values=lambda x: np.exp(E @ np.log(x)),
        elasticity_values=lambda x: E, sign_pattern=pattern, scaling=scaling,
        support_values=(lambda x: E[pattern != 0]) if support else None)


# the all-ones pattern is a wrong declaration the block rule of u = 1
# accepts, so only the sampled DG shows the closed form's premise broken
@pytest.mark.parametrize("declared", ["signs", "all-ones"])
def test_closed_form_against_the_block_rule_is_not_taken(declared):
    # E = I + a b' with b'a = -1: E u = u on the plane b'u = 0, whose
    # u = (1, 1, 1) the block rule rejects (E has negative entries), so
    # the extraction must see the two-dimensional eigenspace
    a, b = np.array([0.5, 0.5, 1.0]), np.array([1.0, 1.0, -2.0])
    E = np.eye(3) + np.outer(a, b)
    pattern = (np.sign(E) if declared == "signs" else np.ones((3, 3))
               ).astype(int)
    rep = certify(log_linear(E, pattern, np.ones(3)), sample_count=4, seed=0)
    assert rep.connectedness.verdict == "pass"
    assert rep.scaling.verdict == "error"
    assert "dimension 2" in rep.scaling.details["error"]
    assert not rep.uniqueness_applicable


# DG = I: every direction solves DG u = u, so the extraction finds a
# two-dimensional eigenspace, and the closed form must not hide it, also
# when a wrong all-ones pattern declares the graph connected
@pytest.mark.parametrize("pattern,connected", [
    (np.eye(2, dtype=int), "fail"), (np.ones((2, 2), dtype=int), "pass")])
def test_closed_form_on_a_reducible_dg_is_not_taken(pattern, connected):
    rep = certify(log_linear(np.eye(2), pattern, np.ones(2)),
                  sample_count=4, seed=0)
    assert rep.connectedness.verdict == connected
    assert rep.scaling.verdict == "error"
    assert "dimension 2" in rep.scaling.details["error"]
    assert not rep.uniqueness_applicable


def test_closed_form_premise_is_read_at_sample_zero(monkeypatch):
    # E0 and E1 both fix u = (1, 1, -1), but only E0 obeys its block
    # rule: a pattern declared from E0, wrong at the later samples,
    # changes where u comes from, not a verdict, and the later samples
    # still show in the signature and fail monotonicity
    D = np.diag([1.0, 1.0, -1.0])
    E0 = D @ np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3],
                       [0.4, 0.4, 0.2]]) @ D
    E1 = D @ np.array([[0.7, 0.5, -0.2], [0.3, 0.3, 0.4],
                       [0.2, 0.3, 0.5]]) @ D
    first = []
    sys = PositiveSystem(
        labels=("a", "b", "c"),
        evaluate_values=lambda x: np.exp(E0 @ np.log(x)),
        elasticity_values=lambda x: (E0 if np.array_equal(x, first[0])
                                     else E1),
        sign_pattern=np.sign(E0).astype(int),
        scaling=np.array([2.0, 2.0, -2.0]))
    first.append(sample_states(sys, 4, seed=3)[0].values)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    rep = certify(sys, sample_count=4, seed=3)
    assert len(svd) == 0
    assert np.array_equal(rep.certificate.u, [1.0, 1.0, -1.0])
    assert rep.spectral.similarity_residual > 0.0
    monkeypatch.setattr(importlib.import_module("scalefix.certify"),
                        "_closed_form_certificate", lambda *args: None)
    ref = certify(sys, sample_count=4, seed=3)
    assert len(svd) == 1

    def verdicts(report):
        return {key: value
                for key, value in parse_report(format_report(report)).items()
                if key.endswith((".verdict", "_applicable",
                                 "unique_modulus_one"))}
    assert verdicts(rep) == verdicts(ref)
    # E1's entry against the block rule is a counterexample at sample 1
    assert rep.monotonicity.details == {
        "row": "a", "column": "c", "sample_index": 1, "value": 0.2}
    assert verdicts(rep)["uniqueness_applicable"] == "false"


# ------------------------------------ exact certify on the declared support


@st.composite
def declared_log_linear(draw):
    """(E, pattern, u, kind, (j, k)) for log_linear(E, pattern, u), E
    drawn as in signed_perron_matrices, so that E u = u, then changed at
    (j, k) by kind:
      exact    pattern = sign(E), nothing changed
      flipped  E[j, k] != 0 flipped against the block rule of u,
               pattern = sign(E) after the flip
      missed   E[j, k] set against the rule and larger than before,
               pattern = sign(E) before, so it misses that entry
      absent   E[j, k] = 0 while the pattern declares it"""
    E, u, _ = draw(signed_perron_matrices(diagonal=st.booleans()))
    n = len(u)
    kind = draw(st.sampled_from(["exact", "flipped", "missed", "absent"]))
    against = -np.sign(u)[:, None] * np.sign(u)[None, :]
    if kind in ("flipped", "absent"):
        nonzero = np.argwhere(E != 0.0)
        j, k = nonzero[draw(st.integers(0, len(nonzero) - 1))]
    else:
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    pattern = np.sign(E).astype(int)
    # +0.0 off the support, as in DG rebuilt from the support values:
    # eigvals may read the sign of a zero in its last bits
    E = E + 0.0
    if kind == "flipped":
        E[j, k] = -E[j, k]
        pattern[j, k] = -pattern[j, k]
    elif kind == "missed":
        E[j, k] = against[j, k] * (abs(E[j, k]) + draw(st.floats(0.01, 1.0)))
        pattern[j, k] = 0
    elif kind == "absent":
        E[j, k] = 0.0
    return E, pattern, u, kind, (j, k)


def dense_certify(sys, count, seed):
    """certify with every sample's DG an ElasticityMatrix, as for a
    system without support_values: the reference it must match."""
    return certify(dataclasses.replace(sys, support_values=None),
                   sample_count=count, seed=seed)


# only these sums change with the representation, by summation order
SUMMED_KEYS = ("spectral.rho.", "spectral.eigvec_residual",
               "scaling.residual_fixed_eq")


@settings(max_examples=120, deadline=None)
@given(declared_log_linear())
def test_exact_certify_on_the_support_matches_dense_references(case):
    # the missed kind declares a wrong pattern, so it gives no
    # support_values, and certify holds each sample's |DG| and sign bits
    # (_HeldDG); the absent kind's declared entry is 0, which sends each
    # sample to its dense ElasticityMatrix
    E, pattern, u, kind, (j, k) = case
    n = len(u)
    sys = log_linear(E, pattern, u, support=kind != "missed")
    rep, ref = certify(sys, 3, 0), dense_certify(sys, 3, 0)
    assert rep.mode == "exact"
    elas = importlib.import_module("scalefix.certify")._elasticities(
        sys, rep.samples)
    held = {"exact": _SupportDG, "flipped": _SupportDG,
            "absent": ElasticityMatrix, "missed": _HeldDG}[kind]
    assert all(type(D) is held for D in elas)
    got, want = (parse_report(format_report(r)) for r in (rep, ref))
    assert list(got) == list(want)
    assert ({key: v for key, v in got.items()
             if not key.startswith(SUMMED_KEYS)}
            == {key: v for key, v in want.items()
                if not key.startswith(SUMMED_KEYS)})
    assert (rep.certificate is None) == (ref.certificate is None)
    sp, eps = rep.spectral, np.finfo(float).eps
    for rho in sp.rho:          # E is DG at every sample
        tol = 1e-13 * max(1.0, rho)
        assert (abs(rho - dense_radius(E)) <= tol
                or abs(rho - mpmath_radius(E)) <= tol)
    if sp.rho_bracket is not None:
        lower, upper = sp.rho_bracket
        assert all(lower <= rho <= upper for rho in sp.rho)
    if rep.certificate is not None:
        c = rep.certificate.u
        assert np.array_equal(c, ref.certificate.u)
        w, ulps = np.abs(E) @ np.abs(c), 4 * n * eps
        assert abs(rep.certificate.residual_fixed_eq
                   - np.max(np.abs(E @ c - c))) <= ulps * np.max(w)
        assert abs(sp.eigvec_residual
                   - np.max(np.abs(w - np.abs(c)))) <= ulps * np.max(w)
        flip = np.outer(np.sign(c), np.sign(c))
        assert sp.similarity_residual == np.max(np.abs(flip * E - np.abs(E)))
    if kind == "missed":
        # the undeclared entry breaks the block rule of u and raises
        # rho(|E|) above 1, which the dense E shows
        sp = check_spectral(sys, u, sample_states(sys, 2, seed=0))
        assert sp.similarity_residual >= 2.0 * abs(E[j, k]) > 0.0
        assert min(sp.rho) > 1.0 + 1e-12


def test_support_test_sends_each_wrong_sample_to_its_dense_matrix():
    # sample 0 gets E's values on its pattern; at the later samples the
    # provider zeroes one (0.0 or -0.0), which sends that sample to the
    # dense ElasticityMatrix rebuilt from the values, bit for bit, or
    # gives a NaN or an inf, named as elasticity_at names it, or a value
    # too few
    E = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    samples = sample_states(custom(("a", "b", "c"), np.sqrt), 3, seed=0)
    certify_module = importlib.import_module("scalefix.certify")
    for at, value, dense in [(0, 0.5, False), (0, 0.0, True),
                             (3, -0.0, True),
                             (1, np.nan, "'a' with respect to 'b' is nan"),
                             (4, np.inf, "'c' with respect to 'a' is inf"),
                             (5, None, r"shape \(5,\), expected \(6,\)")]:
        provided = E[E != 0.0]
        if value is None:
            provided = provided[:at]
        else:
            provided[at] = value
        sys = PositiveSystem(
            labels=("a", "b", "c"),
            evaluate_values=lambda x: np.exp(E @ np.log(x)),
            sign_pattern=np.sign(E).astype(int), scaling=np.ones(3),
            support_values=lambda x, provided=provided: (
                E[E != 0.0] if np.array_equal(x, samples[0].values)
                else provided.copy()))
        if isinstance(dense, str):
            with pytest.raises(DifferentiationError, match=dense):
                certify_module._elasticities(sys, samples)
            continue
        elas = certify_module._elasticities(sys, samples)
        assert [isinstance(D, ElasticityMatrix) for D in elas] == [
            False, dense, dense]
        want = np.zeros((3, 3))
        want[E != 0.0] = provided
        for D in elas[1:]:
            assert np.array_equal(D.entries.view(np.int64),
                                  want.view(np.int64))


def wide_multi_sector(J, S, seed=0):
    """A multi-sector model from the acceptance family at any J, S."""
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.05, 1.2, (J, J, S))
    for s in range(S):
        np.fill_diagonal(tau[:, :, s], 1.0)
    alpha = rng.uniform(0.2, 1.0, (J, S))
    alpha /= alpha.sum(axis=1, keepdims=True)
    theta = rng.uniform(2.0, 8.0, S)
    return build_multi_sector(MultiSectorParams(
        A=rng.uniform(0.5, 2.0, (J, S)), tau=tau, alpha=alpha,
        L=rng.uniform(0.5, 2.0, J), theta=theta, sigma=1.0 + 0.4 * theta))


def test_exact_certify_holds_under_four_dense_matrices():
    # 8 samples at n = 330: the 8 samples' support values (an eighth of
    # n^2 each) and sample 0's spectrum's work, from those values, fit
    # at about 1.8 n^2 doubles (2.4 n^2 with sample 0's DG scattered for
    # it); keeping every dense DG, its copy, |DG| and masks per sample
    # peaked at 10.3 n^2
    sys = wide_multi_sector(30, 5)
    n = sys.dimension
    certify(sys, 8, 0)
    tracemalloc.start()
    try:
        rep = certify(sys, 8, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.uniqueness_applicable and rep.attractivity_applicable
    assert peak < 4 * n * n * 8


def test_warm_exact_certify_reads_each_sample_once_on_the_support(
        monkeypatch):
    # support_values runs once per sample and the dense provider never:
    # sample 0's spectrum is computed from its values
    sys = wide_multi_sector(5, 3)
    want = format_report(certify(sys, 8, 0))
    providers = types.SimpleNamespace(support=sys.support_values,
                                      dense=sys.elasticity_values)
    support = count_calls(monkeypatch, providers, "support")
    dense = count_calls(monkeypatch, providers, "dense")
    counted = dataclasses.replace(
        sys, support_values=lambda x: providers.support(x),
        elasticity_values=lambda x: providers.dense(x))
    rep = certify(counted, 8, 0)
    assert rep.uniqueness_applicable and rep.attractivity_applicable
    assert (len(support), len(dense)) == (8, 0)
    assert [x for (x,) in support] == [x.values for x in rep.samples]
    assert format_report(rep) == want


def test_the_declared_support_is_built_once_per_system_and_never_to_solve(
        monkeypatch):
    # solving and a counterfactual never read the support.  replace reads
    # sign_pattern, so it builds the model's support from its blocks and
    # the copy's from the pattern it is given; two certifies and an
    # elasticity_at scattering support values build nothing more
    system = importlib.import_module("scalefix.system")
    builds = count_calls(monkeypatch, system._Support, "__init__")
    params = multi_sector_params(J=3, S=2)
    sys = build_multi_sector(params)
    res = iterate(sys, sys.state(np.ones(sys.dimension)), u=sys.scaling)
    shock = counterfactual(params, [ShockStep("tau", (1, 2, 1), "*=", 1.5)])
    assert res.status == shock.shocked_solve.status == "converged"
    assert builds == []
    sys = dataclasses.replace(sys, elasticity_values=None)
    assert len(builds) == 2
    for seed in (0, 1):
        assert certify(sys, sample_count=3, seed=seed).uniqueness_applicable
    assert elasticity_at(sys, res.x_star).method == "analytic"
    assert len(builds) == 2


def test_exact_certify_never_lays_out_the_multi_sector_pattern(monkeypatch):
    # the support comes from the blocks by index arithmetic, so only the
    # dense provider lays out an array, a float one
    trade = importlib.import_module("scalefix.trade")
    calls = count_calls(monkeypatch, trade, "_multi_sector_layout")
    sys = build_multi_sector(multi_sector_params(J=3, S=2))
    for seed in (0, 1):
        assert certify(sys, sample_count=3, seed=seed).uniqueness_applicable
    assert calls == []
    elasticity_at(sys, sys.state(np.ones(sys.dimension)))
    assert [M.dtype.kind for M, *_ in calls] == ["f"]


def test_a_fresh_exact_certify_holds_no_n_by_n_pattern_or_adjacency(
        monkeypatch):
    # multi 30 x 5, built and certified under tracemalloc: the support
    # from the blocks (nnz = 0.13 n^2), the 8 samples' support values
    # and sample 0's spectrum's work peak at about 2.7 n^2 doubles, and
    # at 3.3 n^2 with sample 0's DG scattered for that spectrum.  The
    # n x n int layout, the pattern made from it, its checked copy and
    # the bool adjacency walked for connectedness took that to 4.3 n^2
    trade = importlib.import_module("scalefix.trade")
    calls = count_calls(monkeypatch, trade, "_multi_sector_layout")
    params = wide_multi_sector(30, 5).meta["params"]
    n = 330
    tracemalloc.start()
    try:
        sys = build_multi_sector(params)
        rep = certify(sys, 8, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.uniqueness_applicable and rep.attractivity_applicable
    # nor was the pattern read: the support holds no scatter of it
    assert calls == [] and "pattern" not in vars(sys._support)
    assert peak < 3.5 * n * n * 8


def test_a_certified_system_frees_its_support_without_the_cycle_collector():
    # a reference cycle through the support would hold its arrays, n x n
    # adjacency included, until the garbage collector next runs
    sys = build_multi_sector(multi_sector_params(J=3, S=2))
    assert certify(sys, sample_count=2, seed=0).uniqueness_applicable
    support = weakref.ref(sys._support)
    gc.disable()
    try:
        del sys
        assert support() is None
    finally:
        gc.enable()


def test_warm_exact_certify_at_n_1260_peaks_below_a_dense_build_per_sample():
    # multi 60 x 10: the 8 samples' support values (0.07 n^2 each) and
    # the support's own arrays peak at about 0.94 n^2 doubles, as sample
    # 0's spectrum is computed from its values with no n x n array.
    # Scattering sample 0's dense DG for that spectrum peaked at 1.8 n^2,
    # a copy of that array in the ElasticityMatrix at 2.41 n^2, and a
    # dense DG built per sample before its support test at 2.81 n^2
    sys = wide_multi_sector(60, 10)
    n = sys.dimension
    certify(sys, 8, 0)
    tracemalloc.start()
    try:
        rep = certify(sys, 8, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.uniqueness_applicable and rep.attractivity_applicable
    assert peak <= 1.0 * n * n * 8


@pytest.mark.parametrize("J,S", [(30, 5), (60, 10)])
def test_exact_multi_sector_certify_scatters_no_dense_matrix(J, S,
                                                            monkeypatch):
    # every dense fallback counted: sample 0's spectrum comes from its
    # support values (OMEGA and P peel, the 3J-wide companion is all the
    # eigensolver sees), and every other check reads the support, so no
    # sample's DG is ever scattered into an n x n array
    system = importlib.import_module("scalefix.system")
    sys = wide_multi_sector(J, S)
    scatters = count_calls(monkeypatch, system._Support, "scatter")
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, 8, 0)
    assert rep.uniqueness_applicable and rep.spectral.unique_modulus_one
    assert scatters == [] and len(eigs) == 1


def test_support_spectrum_is_the_dense_entry_bit_for_bit():
    # the support's spectrum and eigvals_mod_zero of the scattered DG run
    # one routine on the same nonzero entries in the same order
    sys = wide_multi_sector(8, 3)
    for x in sample_states(sys, 3, seed=2):
        dg = _support_dg(sys, x)
        got = dg.spectrum
        assert "dense" not in vars(dg) and not got.flags.writeable
        assert got.size == 3 * 8
        assert np.array_equal(got, eigvals_mod_zero(dg.entries))


def wide_general(J, S, seed=0):
    """A general model on wide_multi_sector's trade parameters."""
    p = wide_multi_sector(J, S, seed).meta["params"]
    rng = np.random.default_rng(seed + 1)
    labor = rng.uniform(0.5, 0.8, (J, S))
    io = rng.uniform(0.1, 1.0, (J, S, S))
    io *= ((1.0 - labor) / io.sum(axis=1))[:, None, :]
    return build_general(GeneralParams(
        A=p.A, tau=p.tau, alpha=p.alpha, L=p.L, theta=p.theta,
        sigma=p.sigma, gamma_labor=labor, gamma_io=io))


def test_the_perron_pass_reads_one_stack_of_the_open_abs_dg(monkeypatch):
    # general 15 x 3 (n = 105), where the block rule fails: every |DG|
    # bracket stays open, so the 8 |DG| go through the Perron-start
    # pass, at 32 steps, the one Krylov pass.  The pass gets the one
    # C-contiguous read-only (8, n, n) array in which the samples hold
    # their |DG|, slice i sample i's, with no copy, and _perron_root
    # reads its slices.  Beside it each sample holds only its sign bits,
    # packed, and its entries, a fresh copy on each read, are DG's bit
    # for bit, signed zeros included
    spectral_module = importlib.import_module("scalefix.spectral")
    certify_module = importlib.import_module("scalefix.certify")
    sys = wide_general(15, 3)
    n = sys.dimension
    starts = count_calls(monkeypatch, spectral_module, "_perron_starts")
    roots = count_calls(monkeypatch, spectral_module, "_perron_root")
    elas = []
    monkeypatch.setattr(certify_module, "_elasticities",
                        lambda *args, f=certify_module._elasticities:
                        elas.extend(f(*args)) or elas)
    rep = certify(sys, 8, 5)
    assert rep.monotonicity.verdict == "fail"
    ((absolute, m, _),) = starts
    assert m == 32 and absolute.shape == (8, n, n)
    assert absolute.base is None and absolute.flags.c_contiguous
    assert not absolute.flags.writeable
    assert len(roots) == 8 and all(
        A.base is absolute and np.shares_memory(A, absolute[i])
        for i, (A, _, _) in enumerate(roots))
    assert len(elas) == 8 and all(
        type(E) is _HeldDG and E.stack is absolute and E.index == i
        for i, E in enumerate(elas))
    for E in elas:
        # beside the bits, sample 0 holds its spectrum: n eigenvalues
        assert E.negative.dtype == np.uint8 and E.negative.size == -(
            -n * n // 8)
        assert all(a.size <= n for a in vars(E).values()
                   if isinstance(a, np.ndarray)
                   and a is not absolute and a is not E.negative)
    want = [elasticity_at(sys, x).entries for x in rep.samples]
    assert all(np.array_equal(A, np.abs(E)) for A, E in zip(absolute, want))
    for E, D in zip(elas, want):
        got = E.entries
        assert got.base is None and got is not E.entries
        assert np.array_equal(np.signbit(got), np.signbit(D))
        assert np.array_equal(got, D)


def test_part_of_a_held_list_gives_the_dense_list_spectral_facts(
        monkeypatch):
    # general 4 x 2 (n = 20), where every bracket stays open: the pass
    # reads the held stack itself only for the whole list in its order;
    # for a slice or a reordering it stacks their |DG| anew.  Each way
    # the facts are those of the ElasticityMatrix list, bit for bit
    certify_module = importlib.import_module("scalefix.certify")
    spectral_module = importlib.import_module("scalefix.spectral")
    sys = build_general(general_params(J=4, S=2))
    samples = sample_states(sys, 4, seed=5)
    held = certify_module._elasticities(sys, samples)
    dense = [elasticity_at(sys, x) for x in samples]
    starts = count_calls(monkeypatch, spectral_module, "_perron_starts")
    for order in ([0, 1, 2, 3], [1, 2], [3, 2, 1, 0]):
        got = check_spectral(sys, sys.scaling, [samples[i] for i in order],
                             [held[i] for i in order])
        assert (starts[-1][0] is held[0].stack) == (order == [0, 1, 2, 3])
        assert got == check_spectral(sys, sys.scaling,
                                     [samples[i] for i in order],
                                     [dense[i] for i in order])


def test_warm_sampled_certify_holds_abs_dg_once_and_no_float_dg():
    # general 30 x 5 (n = 330), 8 samples: the one stack of every
    # sample's |DG| (8 n^2 doubles), which the Perron pass reads, their
    # packed sign bits (n^2 / 8) and the transients of the Cholesky
    # premise peak at about 11.4 n^2 (9.9 MB).  Holding each sample's
    # DG beside a |DG| stack the Perron pass filled peaked at 18.6 n^2;
    # complex Ritz vectors as the Perron starts at 21.1 n^2, and a
    # stacked copy of the |DG| beside held ones at 25.7 n^2
    sys = wide_general(30, 5)
    n = sys.dimension
    certify(sys, 8, 5)
    tracemalloc.start()
    try:
        rep = certify(sys, 8, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.monotonicity.verdict == "fail"
    assert peak < 13.0 * n * n * 8



def test_spectrum_similarity_via_charpoly():
    sys = build_one_sector(one_sector_params(J=4, seed=9))
    for x in sample_states(sys, 5, seed=21):
        E = elasticity_at(sys, x).entries
        assert charpoly_gap(E, np.abs(E)) < 1e-10


# ------------------------------------------------- negative controls


def test_identity_fails_connectedness_and_scaling_is_ambiguous():
    with pytest.raises(AmbiguousScalingError):
        find_scaling_exponent(IDENTITY, sample_states(IDENTITY, 2, seed=0))
    rep = certify(IDENTITY, sample_count=4, seed=0)
    assert rep.mode == "sampled"
    assert rep.connectedness.verdict == "fail"
    assert rep.scaling.verdict == "error"
    assert rep.monotonicity.verdict == "skipped"
    assert not rep.uniqueness_applicable
    # no direction u, so no signature to test
    assert rep.spectral.similarity_residual is None
    # central differences put the two diagonal entries about 1e-10
    # apart, so the all-ones bracket stays open and rho is a dense radius
    assert rep.spectral.rho_bracket is None
    # the exact DG = I is reducible, yet its all-ones Collatz-Wielandt
    # bracket, valid for any nonnegative matrix, closes exactly at 1
    exact = spectral_at_one_state(None, [np.eye(2)])
    assert exact.rho_bracket == (1.0, 1.0)
    assert exact.rho == (1.0,)


def test_swap_fails_only_self_interaction():
    rep = certify(SWAP, sample_count=6, seed=1)
    assert rep.connectedness.verdict == "evidence-only"
    assert rep.self_interaction.verdict == "fail"
    assert rep.scaling.verdict == "evidence-only"
    assert rep.monotonicity.verdict == "evidence-only"
    assert rep.uniqueness_applicable
    assert not rep.attractivity_applicable


def test_swap_report_keeps_the_spectrum_that_explains_it():
    # no self-interaction, and the spectrum shows why: the eigenvalue -1
    # shares the unit circle with 1, so the gap is zero
    rep = certify(SWAP, sample_count=6, seed=1)
    assert rep.spectral.unique_modulus_one is False
    assert rep.spectral.similarity_residual == 0.0
    assert rep.spectral.spectral_gap == pytest.approx(0.0, abs=1e-9)
    kv = parse_report(format_report(rep))
    assert kv["spectral.unique_modulus_one"] == "false"
    assert {"spectral.similarity_residual", "spectral.gap"} <= kv.keys()


@pytest.mark.parametrize("J", [4, 6])
def test_a_severed_multi_sector_network_names_its_blocs_from_the_support(
        J, monkeypatch):
    # trade cut between the country pairs {1, 2}, {3, 4}, ...: the blocs
    # are the components of the support's edges, as they were of the
    # n x n adjacency, which no certify builds any more
    p = multi_sector_params(J=J, S=2, seed=2)
    pair = np.arange(J) // 2
    tau = np.where((pair[:, None] != pair[None, :])[:, :, None], np.inf,
                   p.tau)
    sys = build_multi_sector(dataclasses.replace(p, tau=tau))
    dense = count_calls(monkeypatch, importlib.import_module(
        "scalefix.certify"), "strongly_connected_components")
    rep = certify(sys, sample_count=3, seed=0)
    assert rep.connectedness.verdict == "fail" and dense == []
    want = [[sys.labels[j] for j in comp] for comp in
            strongly_connected_components(sys.sign_pattern != 0)]
    assert rep.connectedness.details["blocs"] == want
    assert parse_report(format_report(rep))["connectedness.blocs"] == \
        " | ".join(" ".join([f"{name}[{i}][{s}]" for name in ("OMEGA", "P")
                             for i in (c, c + 1) for s in (1, 2)]
                            + [f"W[{c}]", f"W[{c + 1}]"])
                   for c in range(1, J, 2))


def test_two_bloc_network_fails_connectedness():
    p = one_sector_params(J=4, seed=2)
    tau = p.tau.copy()
    tau[:2, 2:] = np.inf
    tau[2:, :2] = np.inf
    split = OneSectorParams(A=p.A, tau=tau, gamma=p.gamma, L=p.L,
                            theta=p.theta, sigma=p.sigma)
    assert not split.connected
    rep = certify(build_one_sector(split), sample_count=3, seed=0)
    assert rep.connectedness.verdict == "fail"
    blocs = [frozenset(b) for b in rep.connectedness.details["blocs"]]
    assert frozenset({"OMEGA[1]", "OMEGA[2]", "P[1]", "P[2]"}) in blocs
    assert frozenset({"OMEGA[3]", "OMEGA[4]", "P[3]", "P[4]"}) in blocs
    assert not rep.uniqueness_applicable


def cycle(n, step):
    """The n x n cycle j -> j + step (mod n), as an elasticity matrix."""
    return np.roll(np.eye(n), step, axis=1)


def connectedness_at(mats):
    """check_connectedness with mats as the samples' elasticities."""
    n = len(mats[0])
    sys = custom(tuple(f"x{j}" for j in range(n)), lambda x: x)
    x = sys.state(np.ones(n))
    return check_connectedness(
        sys, [x] * len(mats),
        [ElasticityMatrix(E, x, "analytic") for E in mats])


def test_connected_samples_without_a_connected_common_graph_pass(
        monkeypatch):
    # the cycle 0 -> 1 -> 2 -> 3 -> 0 and its reverse each connect all
    # four coordinates but share no edge above TOL_SIGN: the walk over
    # their common graph fails, and each sample's own walk then passes
    walks = count_calls(monkeypatch, importlib.import_module(
        "scalefix.certify"), "_strongly_connected")
    forward = cycle(4, 1) + 0.5 * TOL_SIGN * cycle(4, -1)
    res = connectedness_at([forward, cycle(4, -1)])
    assert res.verdict == "evidence-only" and len(walks) == 3


def test_a_later_split_sample_is_named_with_its_blocs():
    # samples 0, 1 and 3 are connected; sample 2 keeps only the 2-cycles
    # {x0, x1} and {x2, x3}, sample 4 only {x0, x3} and {x1, x2}: the
    # common graph splits, and the fail names the first split sample
    # and its blocs, as when every sample was walked alone
    full = np.ones((4, 4))
    pairs = np.kron(np.eye(2), np.ones((2, 2)))
    other = pairs[[0, 2, 3, 1]][:, [0, 2, 3, 1]]
    res = connectedness_at([full, cycle(4, 1), pairs, full, other])
    assert res.verdict == "fail"
    assert res.details == {
        "sample_index": 2, "blocs": [["x0", "x1"], ["x2", "x3"]],
        "reason": "influence graph splits into isolated blocs"}


def test_sampled_connectedness_walks_one_graph_for_all_samples(monkeypatch):
    # general 15 x 3: every sample's graph, and so their common graph,
    # is strongly connected; one walk decides it for all 8 samples
    walks = count_calls(monkeypatch, importlib.import_module(
        "scalefix.certify"), "_strongly_connected")
    rep = certify(build_general(general_params(J=15, S=3)), sample_count=8,
                  seed=5)
    assert rep.connectedness.verdict == "evidence-only"
    assert len(walks) == 1


def test_sqrt_swap_has_no_scaling_direction():
    rep = certify(SQRT_SWAP, sample_count=6, seed=3)
    assert rep.scaling.verdict == "absent"
    assert rep.certificate is None
    assert rep.monotonicity.verdict == "skipped"
    # contraction: radius 1/2, so not the radius-one borderline case
    assert not rep.scaling_free_radius_one
    assert not rep.uniqueness_applicable


def test_mixed_sign_row_fails_monotonicity():
    rep = certify(MIXED, sample_count=8, seed=0)
    assert rep.scaling.verdict == "evidence-only"
    assert np.allclose(rep.certificate.u, [1.0, 1.0], atol=1e-9)
    assert rep.monotonicity.verdict == "fail"
    d = rep.monotonicity.details
    assert (d["row"], d["column"]) == ("a", "a")
    # the wrong-signed self-elasticity breaks D DG D = |DG|
    assert rep.spectral.similarity_residual > 0.0

    # oracle: the offending self-elasticity flips sign where the two
    # coordinates cross, x1 = x2
    def self_elasticity(t):
        x = MIXED.state(np.array([t, 1.0]))
        return elasticity_at(MIXED, x).entries[0, 0]

    flip = bisect_sign_flip(self_elasticity, 0.5, 2.0)
    assert abs(flip - 1.0) < 1e-8


# E u = u for u = (1, 1, -1), and E[0, 2] = 0.1 > 0 lies across the
# blocks: a pattern that declares that entry 0 (so E leaves the support)
# or -1 (so E stays on it) obeys the block rule, E does not
@pytest.mark.parametrize("declared", [0, -1])
def test_exact_monotonicity_fails_on_a_sample_against_the_block_rule(
        declared):
    E = np.array([[0.6, 0.5, 0.1], [0.1, 0.6, -0.3], [-0.4, -0.4, 0.2]])
    u = np.array([1.0, 1.0, -1.0])
    pattern = np.sign(E).astype(int)
    pattern[0, 2] = declared
    rep = certify(log_linear(E, pattern, u), sample_count=8, seed=0)
    assert rep.mode == "exact" and rep.scaling.verdict == "pass"
    assert rep.monotonicity.verdict == "fail"
    assert rep.monotonicity.details == {
        "row": "a", "column": "c", "sample_index": 0, "value": 0.1}
    assert not rep.uniqueness_applicable
    assert exit_code_for_report(rep) == 3
    # the evidence the declaration hid: D E D != |E| and rho(|E|) > 1
    assert rep.spectral.similarity_residual == pytest.approx(0.2)
    assert min(rep.spectral.rho) > 1.05


def test_exact_monotonicity_fails_on_a_declared_sign_against_the_block_rule():
    # E = 1/2 everywhere obeys the block rule of u = (1, 1) and fixes it,
    # so scaling passes; the -1 declared at (a, b) lies within the block
    E = np.full((2, 2), 0.5)
    rep = certify(log_linear(E, np.array([[1, -1], [1, 1]]), np.ones(2)),
                  sample_count=4, seed=0)
    assert rep.mode == "exact" and rep.scaling.verdict == "pass"
    assert rep.monotonicity == CheckResult("fail", {
        "row": "a", "column": "b",
        "reason": "declared sign violates the block rule"})
    assert not rep.uniqueness_applicable
    assert exit_code_for_report(rep) == 3


def test_a_check_that_raises_reads_error_and_the_report_is_still_made(
        monkeypatch):
    def broken(*args):
        raise RuntimeError("broken check")

    sys = log_linear(np.array([[0.6, 0.4], [0.3, 0.7]]), np.ones((2, 2)),
                     np.ones(2))
    whole = certify(sys, sample_count=4, seed=0)
    monkeypatch.setattr(importlib.import_module("scalefix.certify"),
                        "check_self_interaction", broken)
    rep = certify(sys, sample_count=4, seed=0)
    assert rep.self_interaction == CheckResult(
        "error", {"error": "RuntimeError: broken check"})
    assert whole.self_interaction.verdict == "pass"
    # every other line of the report is as without the broken check
    keys = [parse_report(format_report(r)) for r in (rep, whole)]
    changed = {k for k in keys[0].keys() | keys[1].keys()
               if keys[0].get(k) != keys[1].get(k)}
    assert changed == {"self_interaction.verdict", "self_interaction.error",
                       "attractivity_applicable"}
    assert keys[0]["self_interaction.error"] == "RuntimeError: broken check"
    assert whole.attractivity_applicable and not rep.attractivity_applicable


def test_a_zero_entry_in_the_scaling_direction_is_a_monotonicity_error():
    # F = (a sqrt(b), sqrt(b)) fixes u = (1, 0), which central differences
    # recover with |u_b| near 1e-10: no block holds b
    sys = custom(("a", "b"),
                 lambda x: np.array([x[0] * x[1] ** 0.5, x[1] ** 0.5]))
    rep = certify(sys, sample_count=4, seed=0)
    assert rep.mode == "sampled" and rep.scaling.verdict == "evidence-only"
    assert rep.certificate.u[0] == 1.0
    assert 0.0 < abs(rep.certificate.u[1]) <= 1e-9
    assert rep.monotonicity == CheckResult("error", {
        "error": "scaling direction has a zero entry at 'b'; the block "
                 "partition is undefined there"})
    assert rep.partition is None
    assert rep.spectral is not None and not rep.uniqueness_applicable


def test_rotation_is_the_radius_one_borderline():
    rep = certify(ROTATION, sample_count=5, seed=6)
    assert rep.scaling.verdict == "absent"
    assert rep.self_interaction.verdict == "fail"
    assert rep.scaling_free_radius_one
    assert rep.spectral.max_rho_deviation <= 1e-9


def test_sqrt_swap_absent_reason_names_the_tolerance():
    rep = certify(SQRT_SWAP, sample_count=2, seed=3)
    assert rep.scaling.details["reason"] == (
        "I - DG lacks an eigenvalue or a singular value below 1e-08")


def test_non_normal_map_with_tiny_singular_value_has_no_direction():
    # x -> exp(E log x), E = I/2 + 2 * superdiagonal: every eigenvalue is
    # 1/2, yet ||(I - E)^-1|| >= 2 * 4**14 puts sigma_min(I - E) near 2e-9,
    # and the scale-law residuals of its singular vector are just as small
    n = 15
    E = 0.5 * np.eye(n) + 2.0 * np.eye(n, k=1)
    sys = custom(tuple(f"x{j}" for j in range(n)),
                 lambda x: np.exp(E @ np.log(x)))
    assert np.linalg.svd(np.eye(n) - E, compute_uv=False)[-1] < 1e-8
    rep = certify(sys, sample_count=2, seed=0)
    assert rep.scaling.verdict == "absent"
    assert rep.certificate is None
    assert rep.monotonicity.verdict == "skipped"


def test_non_normal_map_declaring_its_least_singular_vector_is_absent(
        monkeypatch):
    # the map above, with the least right singular vector of I - E, zero
    # free, declared as its scaling: ||(I - E) v|| is near 1.7e-9 and
    # sigma_{n-1} near 1.5, but every eigenvalue is 1/2, so the
    # extraction's pre-check refuses it before any Cholesky or SVD
    n = 15
    E = 0.5 * np.eye(n) + 2.0 * np.eye(n, k=1)
    v = np.linalg.svd(np.eye(n) - E)[2][-1]
    assert np.linalg.norm((np.eye(n) - E) @ v) < 0.5e-8
    sys = dataclasses.replace(loglinear_system(E), scaling=v)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
    rep = certify(sys, sample_count=2, seed=0)
    assert rep.scaling.verdict == "absent"
    assert rep.certificate is None
    assert (len(svd), len(cholesky)) == (0, 0)


def test_general_model_fails_monotonicity_honestly():
    rep = certify(build_general(general_params()), sample_count=4, seed=5)
    assert rep.mode == "sampled"
    assert rep.differentiation == "analytic"
    assert rep.connectedness.verdict == "evidence-only"
    assert rep.scaling.verdict == "evidence-only"
    assert rep.scaling.details["matches_closed_form"]
    # wage feedback through input costs is negative, a genuine
    # within-block violation, so the certifier must say so
    assert rep.monotonicity.verdict == "fail"
    assert not rep.uniqueness_applicable


def test_general_model_radius_comes_from_the_spectrum():
    # rho(|DG|) is far from 1 on the general model, so the one-matvec
    # bracket from |u| does not close; spectral_radius closes it, and
    # every rho is the dense radius
    sys = build_general(general_params())
    rep = certify(sys, sample_count=4, seed=5)
    lower, upper = rep.spectral.rho_bracket
    assert all(lower <= rho <= upper for rho in rep.spectral.rho)
    for x, rho in zip(rep.samples, rep.spectral.rho):
        want = dense_radius(elasticity_at(sys, x).entries)
        assert abs(rho - want) <= 1e-13 * want


def test_general_model_evaluates_only_for_the_scale_law():
    sys = build_general(general_params(J=3, S=2, seed=7))
    calls = []

    def counted(x):
        calls.append(1)
        return sys.evaluate_values(x)

    rep = certify(dataclasses.replace(sys, evaluate_values=counted),
                  sample_count=5, seed=2)
    assert rep.differentiation == "analytic"
    assert rep.scaling.verdict == "evidence-only"
    # F(x) and F(c^u x) for the three SCALE_TEST_FACTORS, per sample
    assert len(calls) == 4 * 5


def test_general_model_witness_is_the_analytic_entry():
    sys = build_general(general_params())
    rep = certify(sys, sample_count=4, seed=5)
    mono = rep.monotonicity.details
    E = sys.elasticity_values(rep.samples[mono["sample_index"]].values)
    j, k = sys.labels.index(mono["row"]), sys.labels.index(mono["column"])
    assert mono["value"] == E[j, k]


# ------------------------------------------------- direct op behavior


def test_minus_u_swaps_the_partition():
    sys = build_one_sector(one_sector_params())
    samples = sample_states(sys, 4, seed=8)
    u = certify(sys, sample_count=4, seed=8).certificate.u
    r1, p1 = check_monotonicity(sys, u, samples)
    r2, p2 = check_monotonicity(sys, -u, samples)
    assert r1.verdict == r2.verdict == "pass"
    assert p1.zeta_plus == p2.zeta_minus
    assert p1.zeta_minus == p2.zeta_plus


def test_zero_entry_direction_is_rejected():
    samples = sample_states(SWAP, 2, seed=0)
    with pytest.raises(ValueError, match="zero entry"):
        check_monotonicity(SWAP, np.array([1.0, 0.0]), samples)


def test_spectral_without_direction_still_reports_radius():
    samples = sample_states(SWAP, 3, seed=2)
    sp = check_spectral(SWAP, None, samples)
    assert sp.eigvec_residual is None
    assert sp.max_rho_deviation <= 1e-9


def test_report_key_vocabulary_multi_sector_exact():
    rep = certify(build_multi_sector(multi_sector_params()),
                  sample_count=6, seed=2)
    keys = [k for k in parse_report(format_report(rep))
            if not k.startswith("scaling.u.")]
    assert keys == [
        "mode", "system.kind", "system.dimension", "differentiation",
        "samples.count", "samples.seed",
        "connectedness.verdict", "self_interaction.verdict",
        "scaling.verdict", "scaling.matches_closed_form",
        "scaling.normalization", "scaling.residual_fixed_eq",
        "scaling.residual_direct",
        "monotonicity.verdict", "monotonicity.zeta_plus",
        "monotonicity.zeta_minus",
        "spectral.rho.max_deviation", "spectral.rho.samples",
        "spectral.rho.bracket", "spectral.eigvec_residual", "spectral.similarity_residual",
        "spectral.unique_modulus_one", "spectral.gap",
        "scaling_free_radius_one", "uniqueness_applicable",
        "attractivity_applicable",
    ]


# ------------------------------------------- reduced spectra in certify


def acceptance_multi_sector_systems():
    """The ten multi-sector instances of the acceptance pool, drawn after
    its twenty one-sector ones from the same generator."""
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(20):
        random_one_sector(rng)
    return [build_multi_sector(random_multi_sector(rng)) for _ in range(10)]


def test_reduced_spectrum_matches_dense_on_multi_sector(monkeypatch):
    # OMEGA rows read P and W, P rows read W: K = OMEGA + P, R = W, and the
    # eigensolve is 3J wide.  With S = 1 the W diagonal is exactly 0 as
    # well, nothing peels, and the dense eigensolve runs unchanged.
    one = build_multi_sector(multi_sector_params(J=3, S=1))
    for sys in acceptance_multi_sector_systems() + [one]:
        J = sys.meta["params"].J
        samples = sample_states(sys, 4, seed=0)
        elas = [elasticity_at(sys, x) for x in samples]
        for E in elas:
            eigs = eigvals_mod_zero(E.entries)
            assert eigs.size == (sys.dimension if sys is one else 3 * J)
            assert np.min(np.abs(eigs - 1.0)) <= 1e-12
        # one sample per call, so that each one is sample 0 and gets its
        # eigensolve rather than a derived uniqueness; the dense pass gets
        # a fresh matrix, whose spectrum is not yet memoized
        for x, E in zip(samples, elas):
            reduced = check_spectral(sys, sys.scaling, [x], [E])
            with monkeypatch.context() as m:
                for name in ("scalefix.spectral", "scalefix.system"):
                    m.setattr(importlib.import_module(name),
                              "eigvals_mod_zero", np.linalg.eigvals)
                dense = check_spectral(sys, sys.scaling, [x],
                                       [elasticity_at(sys, x)])
            assert reduced.unique_modulus_one == dense.unique_modulus_one
            assert abs(reduced.spectral_gap - dense.spectral_gap) <= 1e-12


# ------------------------------------------ evaluation failures in F


def nan_in_b_beyond(limit):
    """F(x) = (sqrt(x0 x1), sqrt(x0 x1)), except NaN in b once x0 > limit."""
    def F(x):
        y = np.sqrt(x[0] * x[1])
        return np.array([y, np.nan if x[0] > limit else y])

    return custom(("a", "b"), F)


def first_sample_beyond(rep, limit):
    return next(i for i, x in enumerate(rep.samples) if x["a"] > limit)


def test_evaluation_failure_at_a_sample_is_an_error_verdict():
    rep = certify(nan_in_b_beyond(5.0), sample_count=8, seed=0)
    bad = first_sample_beyond(rep, 5.0)
    for check in (rep.connectedness, rep.self_interaction, rep.scaling):
        assert check.verdict == "error"
        assert check.details["sample_index"] == bad
        assert check.details["error"] == (
            "EvaluationError: evaluate produced nan at coordinate 'b'")
    assert rep.monotonicity.verdict == "skipped"
    assert rep.certificate is None
    assert rep.spectral is None
    assert not rep.uniqueness_applicable
    kv = parse_report(format_report(rep))
    assert kv["scaling.sample_index"] == str(bad)
    assert not any(k.startswith("spectral.") for k in kv)


def test_scale_law_failure_is_an_error_verdict():
    # every sample has x0 <= e^3 < 25, so the elasticities exist, but
    # the scale law is tested at 10^u x, u = (1, 1)
    rep = certify(nan_in_b_beyond(25.0), sample_count=8, seed=0)
    assert rep.connectedness.verdict == "evidence-only"
    assert rep.scaling.verdict == "error"
    assert rep.scaling.details["sample_index"] == first_sample_beyond(rep, 2.5)
    assert "coordinate 'b'" in rep.scaling.details["error"]
    assert rep.monotonicity.verdict == "skipped"
    assert rep.spectral is not None


def test_non_finite_analytic_elasticity_is_an_error_verdict():
    def elasticity(x):
        E = np.full((2, 2), 0.5)
        if x[0] > 5.0:
            E[1, 0] = np.nan
        return E

    sys = PositiveSystem(
        labels=("a", "b"),
        evaluate_values=lambda x: np.full(2, np.sqrt(x[0] * x[1])),
        elasticity_values=elasticity,
        sign_pattern=np.ones((2, 2), dtype=int))
    rep = certify(sys, sample_count=8, seed=0)
    # the sign pattern still decides these two exactly
    assert rep.connectedness.verdict == "pass"
    assert rep.self_interaction.verdict == "pass"
    assert rep.scaling.verdict == "error"
    assert rep.scaling.details["sample_index"] == first_sample_beyond(rep, 5.0)
    assert rep.scaling.details["error"] == (
        "DifferentiationError: analytic elasticity of 'b' with respect "
        "to 'a' is nan")
    assert rep.spectral is None
    assert rep.differentiation == "analytic"


def test_overflowing_companion_still_gives_a_report():
    # eigvals_mod_zero's companion of this finite DG overflows; both the
    # scaling extraction and check_spectral must fall back to the dense
    # spectrum, +-1e200 and 0, rather than raise out of certify.  A
    # bracket, if spectral_radius closes one, must enclose the radii
    M = np.array([[1.0, 1e200, 1.0], [1e200, 0.0, 0.0], [1.0, 0.0, 0.0]])
    sys = PositiveSystem(labels=("a", "b", "c"),
                         evaluate_values=lambda x: x.copy(),
                         elasticity_values=lambda x: M)
    rep = certify(sys, sample_count=2, seed=0)
    assert rep.scaling.verdict == "absent"
    assert rep.spectral.rho == pytest.approx((1e200, 1e200), rel=1e-12)
    if rep.spectral.rho_bracket is not None:
        lower, upper = rep.spectral.rho_bracket
        assert all(lower <= rho <= upper for rho in rep.spectral.rho)


@pytest.mark.parametrize("pattern", [None, np.ones((2, 2), dtype=int)])
def test_wrong_shape_analytic_elasticity_is_an_error_verdict(pattern):
    sys = PositiveSystem(
        labels=("a", "b"),
        evaluate_values=lambda x: np.full(2, np.sqrt(x[0] * x[1])),
        elasticity_values=lambda x: np.full((3, 3), 0.5),
        sign_pattern=pattern)
    rep = certify(sys, sample_count=4, seed=0)
    checks = [rep.scaling]
    if pattern is None:      # sampled: every check reads the elasticities
        checks += [rep.connectedness, rep.self_interaction]
    else:                    # exact: the pattern decides these two
        assert rep.connectedness.verdict == "pass"
        assert rep.self_interaction.verdict == "pass"
    for check in checks:
        assert check.verdict == "error"
        assert check.details["sample_index"] == 0
        assert check.details["error"] == (
            "DifferentiationError: analytic elasticity has shape (3, 3), "
            "expected (2, 2)")
    assert rep.monotonicity.verdict == "skipped"
    assert rep.spectral is None


def raising_system(provider, error, exact, limit):
    """F = (sqrt(x0 x1), sqrt(x0 x1)), DG = 0.5 everywhere, where the
    `provider` callable raises `error` once x0 > limit; the analytic
    providers, elasticity_values and support_values, come only in exact
    mode."""
    fns = {"evaluate_values": lambda x: np.full(2, np.sqrt(x[0] * x[1]))}
    if exact:
        fns["elasticity_values"] = lambda x: np.full((2, 2), 0.5)
        if provider == "support_values":
            fns["support_values"] = lambda x: np.full(4, 0.5)
    fn = fns[provider]

    def raising(x):
        if x[0] > limit:
            raise error("raised by the caller's code")
        return fn(x)

    fns[provider] = raising
    return PositiveSystem(labels=("a", "b"),
                          sign_pattern=np.ones((2, 2), dtype=int)
                          if exact else None, **fns)


@pytest.mark.parametrize("provider,error,exact,limit,where", [
    ("evaluate_values", ZeroDivisionError, False, 0.0, "sample 0"),
    ("evaluate_values", ZeroDivisionError, False, 5.0, "later sample"),
    # every sample has x0 <= e^3 < 25: only 10^u x, u = (1, 1), raises
    ("evaluate_values", ZeroDivisionError, False, 25.0, "scale law"),
    # with analytic elasticities F runs only in the scale law
    ("evaluate_values", ZeroDivisionError, True, 0.0, "scale law"),
    ("elasticity_values", IndexError, True, 0.0, "sample 0"),
    ("elasticity_values", IndexError, True, 5.0, "later sample"),
    ("support_values", IndexError, True, 0.0, "sample 0"),
    ("support_values", IndexError, True, 5.0, "later sample"),
])
def test_a_raising_callable_is_an_error_verdict(provider, error, exact,
                                                limit, where):
    rep = certify(raising_system(provider, error, exact, limit),
                  sample_count=8, seed=0)
    bad = 0 if limit == 0.0 else first_sample_beyond(
        rep, 2.5 if where == "scale law" else limit)
    assert (bad > 0) == (limit > 0.0)
    checks = [rep.scaling]
    if not exact and where != "scale law":
        checks += [rep.connectedness, rep.self_interaction]
    for check in checks:
        assert check.verdict == "error"
        assert check.details == {
            "error": f"{error.__name__}: raised by the caller's code",
            "sample_index": bad}
    assert rep.monotonicity.verdict == "skipped"
    assert (rep.spectral is None) == (where != "scale law")
    assert parse_report(format_report(rep))["scaling.sample_index"] == str(bad)


@pytest.mark.parametrize("provider,exact", [
    ("evaluate_values", False), ("evaluate_values", True),
    ("support_values", True)])
def test_an_interrupt_in_a_callable_propagates(provider, exact):
    # only an Exception becomes a verdict
    sys = raising_system(provider, KeyboardInterrupt, exact, 0.0)
    with pytest.raises(KeyboardInterrupt):
        certify(sys, sample_count=2, seed=0)


def test_every_certify_name_the_tracer_wraps_is_callable():
    # the tracer skips a name it cannot find without an error, which
    # would show only as a traced layer's time falling to zero
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    certify_module = importlib.import_module("scalefix.certify")
    names = [attr for module, attr, *_ in runpy.run_path(str(path))["PATCHES"]
             if module == "scalefix.certify"]
    assert names
    assert [name for name in names
            if not callable(getattr(certify_module, name, None))] == []
