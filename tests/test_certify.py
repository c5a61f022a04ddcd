"""Certifier checks: built-in models must pass everything in exact mode,
and each hand-built counterexample must trip exactly the check it was
designed to violate."""

import dataclasses
import importlib
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_acceptance import MASTER_SEED, random_multi_sector, random_one_sector

from scalefix.certify import (
    AmbiguousScalingError,
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
from scalefix.spectral import eigvals_mod_zero
from scalefix.system import (
    DifferentiationError,
    ElasticityMatrix,
    PositiveSystem,
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


def count_eigensolves(patch):
    """Like count_calls, for eigvals_mod_zero both where certify calls it,
    for |DG|, and where ElasticityMatrix.spectrum calls it, for DG: each
    call appends (M,) to the one returned list."""
    calls = []
    for name in ("scalefix.certify", "scalefix.system"):
        module = importlib.import_module(name)
        patch.setattr(module, "eigvals_mod_zero",
                      lambda M, f=module.eigvals_mod_zero:
                      calls.append((M,)) or f(M))
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
    E, u, M = case
    sys, samples, elas = with_rank_one_first(E, u)
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigensolves(m)
        ritz = count_calls(m, importlib.import_module("scalefix.certify"),
                           "_dominant_ritz")
        sp = check_spectral(sys, u, samples, elas)
    assert sp.unique_modulus_one == dense_unique_modulus_one(E)
    if np.diag(M).max() > 0.0:
        # derived at sample 1: sample 0's spectrum is the only one
        assert (len(calls), len(ritz)) == (1, 0)
    else:
        # no self-loop, so |E| may be imprimitive: E goes through the
        # Krylov pass, and gets its spectrum only where theta is near 1
        assert len(ritz) == 1 and ritz[0][0][0] is elas[1].entries
        assert len(calls) <= 2
        assert all(args[0] is elas[1].entries for args in calls[1:])


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
    # eigenvalue at all.  Where the derivation is refused, the Krylov
    # pass finds F's dominant eigenvalue away from 1, so sample 0's
    # spectrum stays the only one
    for F, unique in ((E, True), (flipped, None), (1.5 * E, False),
                      (0.5 * E, False)):
        sys, samples, elas = with_rank_one_first(F, u)
        with pytest.MonkeyPatch.context() as m:
            calls = count_eigensolves(m)
            sp = check_spectral(sys, u, samples, elas)
        assert len(calls) == 1
        assert (sp.similarity_residual > 0.0) == (F is flipped)
        assert sp.unique_modulus_one == dense_unique_modulus_one(F)
        assert unique is None or sp.unique_modulus_one == unique


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
    # check_monotonicity, and the signature in check_spectral at each
    # sample, all on the declared support's nnz entries: no n x n block
    # mask.  The graph is walked once, on the declared pattern, which
    # connectedness, sample 0's premise and every sample's primitivity
    # share: no walk per sample, and that one by the system's support
    certify_module = importlib.import_module("scalefix.certify")
    sys = build_multi_sector(multi_sector_params(J=3, S=2))
    nnz = np.count_nonzero(sys.sign_pattern)
    violations = count_calls(monkeypatch, certify_module, "_violations")
    masks = count_calls(monkeypatch, certify_module, "_same_block")
    walks = [count_calls(monkeypatch, importlib.import_module(module),
                         "_strongly_connected")
             for module in ("scalefix.certify", "scalefix.system")]
    rep = certify(sys, sample_count=k, seed=0)
    assert rep.uniqueness_applicable and rep.spectral.unique_modulus_one
    assert (len(violations), len(masks)) == (k + 2, 0)
    assert [len(calls) for calls in walks] == [0, 1]
    assert all(M.shape == (nnz,) for (M, _) in violations)
    assert walks[1][0][0].dtype == bool


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("exact", [True, False])
def test_certify_validates_no_matrix_it_built(k, exact, monkeypatch):
    # an ElasticityMatrix is finite and square by construction, so |E|
    # is finite and nonnegative, and certify runs the unchecked kernels.
    # In exact mode every sample keeps its support values, sample 0's
    # dense DG (its spectrum needs it) is rebuilt from them, so
    # elasticity_at never runs, and no n x n block mask is built.  In
    # sampled mode every sample is dense, and check_monotonicity and
    # check_spectral each build the mask of sign(u) once
    certify_module = importlib.import_module("scalefix.certify")
    sys = (build_multi_sector(multi_sector_params(J=3, S=2)) if exact
           else build_general(general_params()))
    checks = count_calls(monkeypatch,
                         importlib.import_module("scalefix.spectral"),
                         "_as_nonneg_square")
    masks = count_calls(monkeypatch, certify_module, "_same_block")
    built = count_calls(monkeypatch, certify_module, "elasticity_at")
    rep = certify(sys, sample_count=k, seed=0 if exact else 5)
    assert rep.mode == ("exact" if exact else "sampled")
    assert rep.monotonicity.verdict == ("pass" if exact else "fail")
    assert (len(checks), len(masks), len(built)) == (
        (0, 0, 0) if exact else (0, 2, k))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_sampled_certify_runs_one_svd_and_k_eigensolves(k, monkeypatch):
    # n = 10, where the Krylov pass is a full Arnoldi reduction: the
    # signature fails, so every DG gets one eigensolve, sample 0's dense
    # (its spectrum, which the extraction's pre-check shares) and those
    # of samples 1..k-1 in one lockstep Krylov pass over their DG, whose
    # dominant eigenvalue lies away from 1; spectral_radius gives
    # rho(|DG|) with no eigensolve
    certify_module = importlib.import_module("scalefix.certify")
    spectral_module = importlib.import_module("scalefix.spectral")
    sys = build_general(general_params())
    assert sys.dimension == spectral_module._krylov_steps(sys.dimension)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    eigs = count_eigensolves(monkeypatch)
    ritz = count_calls(monkeypatch, certify_module, "_dominant_ritz")
    rep = certify(sys, sample_count=k, seed=5)
    assert rep.monotonicity.verdict == "fail"
    assert rep.spectral.similarity_residual > 0.0
    assert rep.spectral.unique_modulus_one is False
    assert rep.spectral.rho_bracket is not None
    elas = [elasticity_at(sys, x) for x in rep.samples]
    on_dg = [mats for (mats,) in ritz
             if any(np.array_equal(M, E.entries) for M, E in
                    zip(mats, elas[1:]))]
    assert (len(svd), len(eigs), sum(map(len, on_dg))) == (1, 1, k - 1)
    assert np.array_equal(eigs[0][0], elas[0].entries)
    for E, rho in zip(elas, rep.spectral.rho):
        want = dense_radius(E.entries)
        assert abs(rho - want) <= 1e-13 * want


@pytest.mark.parametrize("k", [1, 3, 8])
def test_extraction_then_spectral_share_the_first_spectrum(k, monkeypatch):
    # the public functions one after the other on one elasticity list:
    # sample 0's memoized spectrum serves both, and the Krylov pass over
    # DG at samples 1..k-1 answers the rest, so sample 0's DG gets the
    # only eigensolve
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
    # first matvec, and one over DG at samples 1..k-1 finds a dominant
    # eigenvalue away from 1, so only sample 0's spectrum is dense
    spectral_module = importlib.import_module("scalefix.spectral")
    sys = build_general(general_params(J=15, S=3))
    assert sys.dimension > spectral_module._krylov_steps(sys.dimension)
    svd = count_calls(monkeypatch, np.linalg, "svd")
    solves = count_calls(monkeypatch, np.linalg, "solve")
    walks = count_calls(monkeypatch, spectral_module, "_strongly_connected")
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, sample_count=k, seed=5)
    assert rep.monotonicity.verdict == "fail"
    assert rep.spectral.similarity_residual > 0.0
    assert rep.spectral.unique_modulus_one is False
    # the Krylov acceptance solves with the small Hessenberg matrices
    # only: no n x n shifted solve runs
    noda = [M for M, _ in solves if M.shape == (sys.dimension,) * 2]
    assert (len(svd), len(eigs), len(noda), len(walks)) == (1, 1, 0, 0)
    assert rep.spectral.rho_bracket is not None
    for x, rho in zip(rep.samples, rep.spectral.rho):
        want = dense_radius(elasticity_at(sys, x).entries)
        assert abs(rho - want) <= 1e-13 * want


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_sampled_certify_takes_every_krylov_answer(seed, monkeypatch):
    # general 15 x 3 (n = 105): after _krylov_steps(105) = 41 steps the
    # dominant Ritz values' residuals are 1e-20 to 1e-46 relative, so the
    # error bound accepts each one at samples 1..7 and only sample 0's
    # spectrum is dense
    sys = build_general(general_params(J=15, S=3, seed=seed))
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, sample_count=8, seed=seed)
    assert rep.spectral.unique_modulus_one is False
    assert len(eigs) == 1


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


def assert_krylov_agrees_with_the_dense_rule(mats, u):
    n = len(u)
    sys = custom(tuple(f"x{j}" for j in range(n)), lambda x: x)
    x = sys.state(np.ones(n))
    elas = [ElasticityMatrix(E, x, "analytic") for E in mats]
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigensolves(m)
        sp = check_spectral(sys, u, [x] * len(mats), elas)
    dense = [np.linalg.eigvals(E) for E in mats]
    seconds = [np.max(np.abs(e[np.abs(e - 1.0) > 1e-6]), initial=0.0)
               for e in dense]
    gap = min(1.0 - second for second in seconds)
    # sample 0 reads unique, so a wrong answer at a later one shows
    assert dense_unique_modulus_one(mats[0])
    assert sp.unique_modulus_one is False
    assert abs(sp.spectral_gap - gap) <= 1e-12 * abs(gap)
    assert len(calls) <= len(mats)
    for E, rho in zip(mats, sp.rho):
        want = dense_radius(E)
        assert abs(rho - want) <= 1e-12 * want


@settings(max_examples=25, deadline=None)
@given(planted_lists())
def test_krylov_spectra_agree_with_the_dense_rule(case):
    assert_krylov_agrees_with_the_dense_rule(*case)


def test_krylov_spectra_agree_near_the_slowest_planted_modulus():
    # planted_lists where its Krylov answers are least accurate: a
    # dominant modulus of 1.2 to 1.25 converges slowly, n = 40 to 56
    # takes 32 < n steps and the gap 1 - |theta| is smallest.  Accepting
    # theta on a residual of at most 1e-12 |theta| let 17 of seeds 0 to
    # 1999 miss the gap by more than 1e-12 |gap|, seeds 35 and 343 here
    # among them; an error bound of 1e-13 |theta| keeps every accepted
    # theta within it, as |gap| >= |theta| / 6
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(40, 57)), int(rng.integers(2, 5))
        tops = [None] + [
            (r * rng.choice([1.0, -1.0]), None) if rng.random() < 0.5
            else (r, rng.uniform(0.1, 3.0))
            for r in rng.uniform(1.2, 1.25, k - 1)]
        assert_krylov_agrees_with_the_dense_rule(*planted(rng, n, tops))


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
def test_krylov_spectra_of_clustered_ties_agree_with_the_dense_rule(case):
    # a tie of more than _krylov_steps(n) = 32 roots cannot converge in
    # the Krylov pass, so every later sample falls back to its spectrum
    mats, u, q = case
    n = len(u)
    sys = custom(tuple(f"x{j}" for j in range(n)), lambda x: x)
    x = sys.state(np.ones(n))
    elas = [ElasticityMatrix(E, x, "analytic") for E in mats]
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigensolves(m)
        sp = check_spectral(sys, u, [x] * len(mats), elas)
    certify_module = importlib.import_module("scalefix.certify")
    facts = [certify_module._peripheral(np.linalg.eigvals(E)) for E in mats]
    gap = min(1.0 - second for _, second in facts)
    assert sp.unique_modulus_one == all(ok for ok, _ in facts)
    assert abs(sp.spectral_gap - gap) <= 1e-12 * max(1.0, abs(gap))
    if q > 32:
        assert len(calls) == len(mats)


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
    # the Krylov pass over DG at samples 1..k-1 finds 1 dominant, does
    # not converge on a tie of 48 eigenvalues, and overflows its norms:
    # each of those samples reads its dense spectrum, and no warning
    # (an error here, as pyproject.toml sets) or LinAlgError escapes
    sys = loglinear_system(E)
    eigs = count_eigensolves(monkeypatch)
    rep = certify(sys, sample_count=k, seed=0)
    assert rep.spectral is not None
    assert len(eigs) >= k
    if np.all(np.abs(E) < 1e3):
        assert len(eigs) == k
        assert rep.scaling.verdict == "evidence-only"
        dense = np.linalg.eigvals(E)
        assert rep.spectral.unique_modulus_one == dense_unique_modulus_one(E)
        second = np.max(np.abs(dense[np.abs(dense - 1.0) > 1e-6]))
        assert rep.spectral.spectral_gap == pytest.approx(1.0 - second,
                                                          abs=1e-12)


def test_exact_check_spectral_calls_spectral_radius_once_per_sample(
        monkeypatch):
    # |DG| |u| = |u|, so each sample's bracket closes on spectral_radius's
    # first matvec, taken on the support: no further Perron step runs
    certify_module = importlib.import_module("scalefix.certify")
    sys = build_multi_sector(multi_sector_params(J=3, S=2))
    u = sys.scaling / np.abs(sys.scaling).max()
    samples = sample_states(sys, 6, seed=0)
    first = count_calls(monkeypatch, certify_module, "_first_bracket")
    later = count_calls(monkeypatch, certify_module, "_perron_root")
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
    # support_values and stays dense
    E, pattern, u, kind, (j, k) = case
    n = len(u)
    sys = log_linear(E, pattern, u, support=kind != "missed")
    rep, ref = certify(sys, 3, 0), dense_certify(sys, 3, 0)
    assert rep.mode == "exact"
    elas = importlib.import_module("scalefix.certify")._elasticities(
        sys, rep.samples)
    assert (kind in ("exact", "flipped")) == all(
        not isinstance(D, ElasticityMatrix) for D in elas)
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
    # 8 samples at n = 330: sample 0's dense DG, its spectrum's work and
    # the 8 samples' support values (an eighth of n^2 each) fit, at about
    # 2.4 n^2 doubles; keeping every dense DG, its copy, |DG| and masks
    # per sample peaked at 10.3 n^2
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
    # sample 0's dense DG, for its spectrum, is rebuilt from its values
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
    # solving and a counterfactual never read the support; two certifies
    # and an elasticity_at scattering support values share one build
    builds = count_calls(monkeypatch, importlib.import_module(
        "scalefix.system"), "_Support")
    params = multi_sector_params(J=3, S=2)
    sys = build_multi_sector(params)
    res = iterate(sys, sys.state(np.ones(sys.dimension)), u=sys.scaling)
    shock = counterfactual(params, [ShockStep("tau", (1, 2, 1), "*=", 1.5)])
    assert res.status == shock.shocked_solve.status == "converged"
    assert builds == []
    sys = dataclasses.replace(sys, elasticity_values=None)
    for seed in (0, 1):
        assert certify(sys, sample_count=3, seed=seed).uniqueness_applicable
    assert elasticity_at(sys, res.x_star).method == "analytic"
    assert len(builds) == 1


def test_warm_exact_certify_at_n_1260_peaks_below_a_dense_build_per_sample():
    # multi 60 x 10: sample 0's dense DG, scattered into the one array
    # its ElasticityMatrix holds, and the 8 samples' support values
    # (0.07 n^2 each) peak at about 1.8 n^2 doubles; a copy of that array
    # in the ElasticityMatrix peaked at 2.41 n^2, and a dense DG built
    # per sample before its support test at 2.81 n^2
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
    assert peak <= 2.2 * n * n * 8


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
                for name in ("scalefix.certify", "scalefix.system"):
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
