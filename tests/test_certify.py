"""Certifier checks: built-in models must pass everything in exact mode,
and each hand-built counterexample must trip exactly the check it was
designed to violate."""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_acceptance import MASTER_SEED, random_multi_sector, random_one_sector

from scalefix.certify import (
    AmbiguousScalingError,
    certify,
    check_monotonicity,
    check_spectral,
    find_scaling_exponent,
    sample_states,
)
from scalefix.modelio import format_report, parse_report
from scalefix.spectral import eigvals_mod_zero
from scalefix.system import ElasticityMatrix, PositiveSystem, elasticity_at
from scalefix.trade import (
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    ShockStep,
    apply_shock,
    build_general,
    build_multi_sector,
    build_one_sector,
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
        theta=np.array([3.5, 5.0])[:S],
        sigma=np.array([2.0, 2.8])[:S],
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
        calls = count_calls(m, importlib.import_module("scalefix.certify"),
                            "eigvals_mod_zero")
        sp = check_spectral(sys, u, samples, elas)
    assert sp.unique_modulus_one == dense_unique_modulus_one(E)
    if np.diag(M).max() > 0.0:
        assert len(calls) == 1        # derived at sample 1
    else:
        # no self-loop, so |E| may be imprimitive: E gets its spectrum
        assert any(args[0] is elas[1].entries for args in calls)


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
    # eigenvalue at all
    for F, solves, unique in ((E, 1, True), (flipped, 2, None),
                              (1.5 * E, 2, False), (0.5 * E, 2, False)):
        sys, samples, elas = with_rank_one_first(F, u)
        with pytest.MonkeyPatch.context() as m:
            calls = count_calls(
                m, importlib.import_module("scalefix.certify"),
                "eigvals_mod_zero")
            sp = check_spectral(sys, u, samples, elas)
        assert len(calls) == solves
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
def test_radius_bracket_and_residual_match_dense_references(case, with_u):
    entries, u = case
    sp = spectral_at_one_state(u if with_u else None, entries)
    for E, rho in zip(entries, sp.rho):
        assert abs(rho - dense_radius(E)) <= 1e-9 * max(1.0, rho)
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
    with pytest.warns(RuntimeWarning, match="overflow"):
        sp = spectral_at_one_state(None, [E])
    assert sp.rho == pytest.approx((1e308,), rel=1e-12)
    assert sp.rho_bracket is None


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
    eigs = count_calls(monkeypatch, importlib.import_module("scalefix.certify"),
                       "eigvals_mod_zero")
    rep = certify(sys, sample_count=8, seed=0)
    assert rep.uniqueness_applicable and rep.attractivity_applicable
    assert rep.spectral.unique_modulus_one
    assert rep.scaling.details["matches_closed_form"]
    assert (len(svd), len(eigs)) == (0, 1)


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
    (flipped_wage_block, False),
    # matches_closed_form's cosine is 0/0 here, hence False
    pytest.param(np.zeros_like, False, marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in divide"))])
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


def log_linear(E, pattern, scaling):
    """x -> exp(E log x), whose elasticity matrix is E everywhere."""
    labels = tuple("abcdefgh"[:E.shape[0]])
    return PositiveSystem(
        labels=labels, evaluate_values=lambda x: np.exp(E @ np.log(x)),
        elasticity_values=lambda x: E, sign_pattern=pattern, scaling=scaling)


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
    # bracket from |u| does not close and every rho is a dense radius
    sys = build_general(general_params())
    rep = certify(sys, sample_count=4, seed=5)
    assert rep.spectral.rho_bracket is None
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
    certify_module = importlib.import_module("scalefix.certify")
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
        # eigensolve rather than a derived uniqueness
        for x, E in zip(samples, elas):
            reduced = check_spectral(sys, sys.scaling, [x], [E])
            with monkeypatch.context() as m:
                m.setattr(certify_module, "eigvals_mod_zero",
                          np.linalg.eigvals)
                dense = check_spectral(sys, sys.scaling, [x], [E])
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
    # spectrum, +-1e200 and 0, rather than raise out of certify
    M = np.array([[1.0, 1e200, 1.0], [1e200, 0.0, 0.0], [1.0, 0.0, 0.0]])
    sys = PositiveSystem(labels=("a", "b", "c"),
                         evaluate_values=lambda x: x.copy(),
                         elasticity_values=lambda x: M)
    rep = certify(sys, sample_count=2, seed=0)
    assert rep.scaling.verdict == "absent"
    assert rep.spectral.rho_bracket is None
    assert rep.spectral.rho == pytest.approx((1e200, 1e200), rel=1e-12)


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
