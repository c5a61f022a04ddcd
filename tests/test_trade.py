"""Trade model builders, outcome recovery and counterfactuals.

Oracles: mpmath's gamma function, scalar bisection on the symmetric
two-country reduction, closed-form autarky algebra, and cross-solves
between models that must coincide on overlapping parameter sets.
"""

import importlib
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scalefix.solve import NumeraireRule, SolveOptions, iterate
from scalefix.spectral import strongly_connected_components
from scalefix.system import elasticity_at
from scalefix.trade import (
    CounterfactualResult,
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    ParameterError,
    ShockStep,
    StaleStateError,
    apply_shock,
    build_general,
    build_multi_sector,
    build_one_sector,
    build_system,
    counterfactual,
    gamma_constant,
    recover_outcomes,
)

mp.mp.dps = 30


def mp_kappa(theta, sigma):
    arg = (mp.mpf(theta) + 1 - mp.mpf(sigma)) / mp.mpf(theta)
    return float(mp.gamma(arg) ** (-mp.mpf(theta) / (1 - mp.mpf(sigma))))


def one_sector(J=3, seed=0, gamma=None, theta=4.0, sigma=2.0, tau_scale=1.5):
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.1, tau_scale, size=(J, J))
    np.fill_diagonal(tau, 1.0)
    return OneSectorParams(
        A=rng.uniform(0.5, 2.0, size=J),
        tau=tau,
        gamma=np.full(J, gamma) if gamma is not None
        else rng.uniform(0.2, 0.9, size=J),
        L=rng.uniform(0.5, 2.0, size=J),
        theta=theta,
        sigma=sigma,
    )


def multi_sector(J=2, S=2, seed=1):
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.1, 1.0, size=(J, J, S))
    for s in range(S):
        np.fill_diagonal(tau[:, :, s], 1.0)
    alpha = rng.uniform(0.2, 1.0, size=(J, S))
    alpha /= alpha.sum(axis=1, keepdims=True)
    theta = rng.uniform(2.0, 6.0, size=S)
    return MultiSectorParams(
        A=rng.uniform(0.5, 2.0, size=(J, S)),
        tau=tau,
        alpha=alpha,
        L=rng.uniform(0.5, 2.0, size=J),
        theta=theta,
        sigma=1.0 + 0.5 * theta,
    )


# ------------------------------------------------------- gamma constant


def test_gamma_constant_frozen_values():
    # Gamma(3/4)^4 and an uneven pair, both frozen from a 30-digit run
    assert gamma_constant(4.0, 2.0) == pytest.approx(
        2.2549409936695867445, rel=1e-12)
    assert gamma_constant(6.53, 3.8) == pytest.approx(
        2.8173311105570029579, rel=1e-12)


def test_gamma_constant_matches_mpmath_grid():
    for theta in (2.0, 3.3, 5.0, 8.0):
        for sigma in (1.2, 2.0, theta * 0.9 + 1.0):
            assert gamma_constant(theta, sigma) == pytest.approx(
                mp_kappa(theta, sigma), rel=1e-12)


def test_gamma_function_accuracy_on_unit_interval():
    # gamma arguments (theta + 1 - sigma) / theta across (0, 1); the
    # exponent theta / (sigma - 1) stays at most 50
    theta = 4.0
    for arg in np.linspace(0.02, 0.98, 50):
        sigma = theta + 1.0 - float(arg) * theta
        assert gamma_constant(theta, sigma) == pytest.approx(
            mp_kappa(theta, sigma), rel=1e-12)


def test_gamma_constant_near_sigma_one():
    # the sigma -> 1 limit is exp(Euler's constant), about 1.781, because
    # the base tends to 1 exactly as fast as the exponent blows up; the
    # blow-up also amplifies float rounding, so tolerances widen as sigma
    # approaches 1 (a double holds the base to 1e-16, times exponent 4e12)
    e_gamma = float(mp.exp(mp.euler))
    assert gamma_constant(4.0, 1.0 + 1e-6) == pytest.approx(
        mp_kappa(4.0, 1.0 + 1e-6), rel=1e-8)
    assert gamma_constant(4.0, 1.0 + 1e-9) == pytest.approx(e_gamma, rel=1e-5)
    assert gamma_constant(4.0, 1.0 + 1e-12) == pytest.approx(e_gamma, rel=1e-2)


def test_gamma_constant_rejects_bad_elasticities():
    with pytest.raises(ParameterError, match="sigma"):
        gamma_constant(4.0, 0.9)
    with pytest.raises(ParameterError, match="theta.*exceed.*sigma"):
        gamma_constant(2.0, 3.5)
    try:
        gamma_constant(2.0, 3.5)
    except ParameterError as exc:
        assert exc.field == "theta"
    for theta, sigma, field in [(np.nan, 2.0, "theta"), (np.inf, 2.0, "theta"),
                                (-np.inf, 2.0, "theta"), (4.0, np.nan, "sigma"),
                                (4.0, np.inf, "sigma")]:
        with pytest.raises(ParameterError) as exc:
            gamma_constant(theta, sigma)
        assert exc.value.field == field


# ----------------------------------------------------- parameter checks


def test_one_sector_validation():
    ok = one_sector()
    assert ok.connected
    with pytest.raises(ParameterError, match="A"):
        OneSectorParams(A=[-1.0], tau=[[1.0]], gamma=[0.5], L=[1.0],
                        theta=4.0, sigma=2.0)
    with pytest.raises(ParameterError, match=">= 1"):
        OneSectorParams(A=[1.0, 1.0], tau=[[1.0, 0.5], [1.2, 1.0]],
                        gamma=[0.5, 0.5], L=[1.0, 1.0], theta=4.0, sigma=2.0)
    with pytest.raises(ParameterError, match="diagonal"):
        OneSectorParams(A=[1.0, 1.0], tau=[[np.inf, 1.2], [1.2, 1.0]],
                        gamma=[0.5, 0.5], L=[1.0, 1.0], theta=4.0, sigma=2.0)
    with pytest.raises(ParameterError, match="gamma"):
        OneSectorParams(A=[1.0], tau=[[1.0]], gamma=[1.5], L=[1.0],
                        theta=4.0, sigma=2.0)


def test_two_bloc_network_is_flagged_not_fatal():
    tau = np.full((4, 4), np.inf)
    tau[:2, :2] = 1.5
    tau[2:, 2:] = 1.5
    np.fill_diagonal(tau, 1.0)
    p = OneSectorParams(A=np.ones(4), tau=tau, gamma=np.full(4, 0.5),
                        L=np.ones(4), theta=4.0, sigma=2.0)
    assert not p.connected
    assert p.blocs == ((0, 1), (2, 3))


# a value outside each field's range; +inf is legal off tau's diagonal
OUT_OF_RANGE = {"A": 0.0, "tau": 0.5, "gamma": 1.5, "L": -1.0, "alpha": -0.5,
                "theta": 0.0, "sigma": 0.5, "gamma_labor": 1.5,
                "gamma_io": -0.5}


@settings(max_examples=200, deadline=None)
@given(make=st.sampled_from(["one_sector", "multi_sector", "general"]),
       data=st.data())
def test_bad_entry_is_blamed_on_its_field(make, data):
    base = globals()[make]()
    kwargs = {f.name: getattr(base, f.name) for f in fields(base) if f.init}
    name = data.draw(st.sampled_from(sorted(kwargs)), label="field")
    value = np.array(kwargs[name], dtype=float)
    bad = data.draw(st.sampled_from(
        [np.nan, np.inf, -np.inf, OUT_OF_RANGE[name]]), label="value")
    idx = data.draw(st.tuples(*(st.integers(0, n - 1) for n in value.shape)),
                    label="index")
    if name == "tau" and bad == np.inf:
        idx = (idx[1],) + idx[1:]      # on the diagonal
    value[idx] = bad
    kwargs[name] = value
    with pytest.raises(ParameterError) as exc:
        type(base)(**kwargs)
    assert exc.value.field == name


@pytest.mark.parametrize("make", ["one_sector", "multi_sector", "general"])
def test_every_array_field_is_a_read_only_copy(make):
    base = globals()[make]()
    passed = {f.name: np.array(getattr(base, f.name))
              for f in fields(base) if f.init}
    p = type(base)(**passed)
    for name, arr in passed.items():
        if arr.ndim:
            stored = getattr(p, name)
            assert arr.flags.writeable and not stored.flags.writeable, name
            assert not np.shares_memory(arr, stored), name
            assert np.array_equal(arr, stored), name


def test_caller_arrays_stay_writable_and_detached():
    A = np.ones(3)
    backing = np.ones(6)
    p = OneSectorParams(A=A, tau=np.ones((3, 3)), gamma=np.full(3, 0.5),
                        L=backing[::2], theta=4.0, sigma=2.0)
    assert A.flags.writeable
    backing[0] = 100.0
    assert p.L.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        p.A[0] = 2.0


@pytest.mark.parametrize("J,seed", [(1, 0), (2, 1), (6, 2), (12, 3)])
def test_connectivity_blocs_match_components(J, seed):
    # a random finite-cost graph (split or not), and the complete one
    rng = np.random.default_rng(seed)
    sparse = rng.uniform(size=(J, J)) < 0.25
    np.fill_diagonal(sparse, True)
    for finite in (sparse, np.ones((J, J), dtype=bool)):
        comps = strongly_connected_components(finite.astype(float))
        p = OneSectorParams(A=np.ones(J), tau=np.where(finite, 1.5, np.inf),
                            gamma=np.full(J, 0.5), L=np.ones(J),
                            theta=4.0, sigma=2.0)
        assert (p.connected, p.blocs) == (
            len(comps) == 1, tuple(tuple(c) for c in comps))


def test_multi_sector_alpha_rows_must_sum_to_one():
    with pytest.raises(ParameterError, match="alpha"):
        MultiSectorParams(
            A=np.ones((2, 2)),
            tau=np.ones((2, 2, 2)),
            alpha=np.full((2, 2), 0.4),
            L=np.ones(2),
            theta=[4.0, 4.0],
            sigma=[2.0, 2.0],
        )


def test_general_share_adding_up_enforced():
    with pytest.raises(ParameterError, match="sum to 1"):
        GeneralParams(
            A=np.ones((1, 1)), tau=np.ones((1, 1, 1)),
            alpha=np.ones((1, 1)), L=np.ones(1),
            theta=[4.0], sigma=[2.0],
            gamma_labor=np.array([[0.6]]),
            gamma_io=np.array([[[0.3]]]),
        )


# ------------------------------------------------------------ one sector


def test_one_sector_single_country_hand_evaluation():
    p = OneSectorParams(A=[1.0], tau=[[1.0]], gamma=[1.0], L=[1.0],
                        theta=4.0, sigma=2.0)
    sys = build_one_sector(p)
    kappa = gamma_constant(4.0, 2.0)
    out = sys._eval_checked(np.array([1.0, 1.0]))
    assert out == pytest.approx([kappa, kappa], rel=1e-14)


def test_one_sector_symmetry_preserved():
    p = OneSectorParams(
        A=[1.3, 1.3], tau=[[1.0, 1.7], [1.7, 1.0]], gamma=[0.6, 0.6],
        L=[0.9, 0.9], theta=5.0, sigma=2.5)
    sys = build_one_sector(p)
    x = np.array([2.0, 3.0, 0.5, 0.8])
    swap = np.array([1, 0, 3, 2])
    assert sys._eval_checked(x[swap]) == pytest.approx(
        sys._eval_checked(x)[swap], rel=1e-14)


def test_one_sector_scaling_law():
    p = one_sector(J=4, seed=3)
    sys = build_one_sector(p)
    u = sys.scaling
    rng = np.random.default_rng(5)
    for c in (2.0, 0.25):
        x = np.exp(rng.uniform(-1, 1, size=sys.dimension))
        lhs = sys._eval_checked(c ** u * x)
        rhs = c ** u * sys._eval_checked(x)
        assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-12


def test_one_sector_analytic_elasticity_matches_numeric():
    p = one_sector(J=3, seed=7)
    ana = build_one_sector(p)
    num = PositiveSystemNoAnalytic(ana)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = ana.state(np.exp(rng.uniform(-1.5, 1.5, size=ana.dimension)))
        Ea = elasticity_at(ana, x)
        En = elasticity_at(num, x)
        assert Ea.method == "analytic"
        assert np.max(np.abs(Ea.entries - En.entries)) <= 1e-6


def PositiveSystemNoAnalytic(sys):
    from scalefix.system import PositiveSystem
    return PositiveSystem(labels=sys.labels,
                          evaluate_values=sys.evaluate_values)


def test_one_sector_sign_pattern_agrees_with_numbers():
    p = one_sector(J=3, seed=13)
    sys = build_one_sector(p)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = sys.state(np.exp(rng.uniform(-2, 2, size=sys.dimension)))
        E = elasticity_at(sys, x).entries
        want = sys.sign_pattern
        assert np.all(E[want == 1] > 0)
        assert np.all(E[want == -1] < 0)
        zeros = E[want == 0]
        assert zeros.size == 0 or np.max(np.abs(zeros)) <= 1e-12


def test_one_sector_elasticity_rows_are_share_weighted():
    # each row block sums to a convex combination of the term exponents
    p = one_sector(J=4, seed=19)
    sys = build_one_sector(p)
    J = p.J
    a = 1.0 / (1.0 + p.theta * p.gamma)
    x = sys.state(np.exp(np.linspace(-1, 1, sys.dimension)))
    E = elasticity_at(sys, x).entries
    om_block = E[:J, :J].sum(axis=1)
    assert np.all(om_block >= a.min() - 1e-12)
    assert np.all(om_block <= a.max() + 1e-12)


def bisection_symmetric_price(A, L, gamma, theta, sigma, tau):
    # with OMEGA normalized to 1 the symmetric equilibrium price solves
    # D * p^b = 1 for D = kappa A prefac (1 + tau^-theta)
    kappa = mp_kappa(theta, sigma)
    prefac = (gamma / L) ** (-theta * gamma / (1.0 + theta * gamma))
    D = kappa * A * prefac * (1.0 + tau ** -theta)
    b = (1.0 - gamma) / (1.0 + theta * gamma) - 1.0

    def g(lnp):
        return D * np.exp(b * lnp) - 1.0

    lo, hi = -40.0, 40.0
    assert g(lo) > 0 > g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float(np.exp(0.5 * (lo + hi)))


def test_one_sector_symmetric_two_countries_match_bisection():
    A, L, gamma, theta, sigma, tau = 1.4, 0.8, 0.55, 4.5, 2.2, 1.9
    p = OneSectorParams(
        A=[A, A], tau=[[1.0, tau], [tau, 1.0]], gamma=[gamma, gamma],
        L=[L, L], theta=theta, sigma=sigma)
    sys = build_one_sector(p)
    res = iterate(sys, sys.state(np.array([0.7, 2.0, 3.0, 0.1])),
                  u=sys.scaling, opts=SolveOptions(tol=1e-12))
    assert res.status == "converged"
    vals = res.x_star.values
    assert vals[0] == pytest.approx(1.0, rel=1e-12)   # numeraire
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)
    assert vals[2] == pytest.approx(vals[3], rel=1e-9)
    want = bisection_symmetric_price(A, L, gamma, theta, sigma, tau)
    assert vals[2] == pytest.approx(want, rel=1e-9)


def test_one_sector_single_country_closed_form():
    # gamma = 1: normalized equilibrium is (1, kappa A L^(theta/(1+theta)))
    p = OneSectorParams(A=[1.7], tau=[[1.0]], gamma=[1.0], L=[0.6],
                        theta=4.0, sigma=2.0)
    sys = build_one_sector(p)
    res = iterate(sys, sys.state([5.0, 0.2]), u=sys.scaling)
    assert res.status == "converged"
    assert res.x_star.values[0] == pytest.approx(1.0, rel=1e-12)
    assert res.x_star.values[1] == pytest.approx(
        2.5474466856112753345, rel=1e-10)


def test_one_sector_zero_labor_share_country_accepted():
    # gamma = 0 makes country 1's own terms linear, so a fixed point only
    # exists when its own-coefficient kappa*A_1 stays below 1
    p = OneSectorParams(
        A=[0.2, 1.2], tau=[[1.0, 1.4], [1.4, 1.0]], gamma=[0.0, 0.7],
        L=[1.0, 1.0], theta=3.0, sigma=2.0)
    sys = build_one_sector(p)
    res = iterate(sys, sys.state(np.ones(4)), u=sys.scaling)
    assert res.status == "converged"
    out = recover_outcomes("one-sector", res.x_star, p)
    assert out.w[0] == 0.0
    assert out.w[1] > 0.0


# ----------------------------------------------------------- multi sector


def test_multi_sector_autarky_closed_form():
    theta = np.array([3.0, 5.0])
    sigma = np.array([2.0, 2.5])
    A = np.array([[1.4, 0.7]])
    alpha = np.array([[0.3, 0.7]])
    L = np.array([1.9])
    p = MultiSectorParams(A=A, tau=np.ones((1, 1, 2)), alpha=alpha, L=L,
                          theta=theta, sigma=sigma)
    sys = build_multi_sector(p)
    res = iterate(
        sys, sys.state(np.ones(5)), u=sys.scaling,
        opts=SolveOptions(numeraire_rule=NumeraireRule.named("W[1]")))
    assert res.status == "converged"
    kappas = np.array([mp_kappa(t, s) for t, s in zip(theta, sigma)])
    want_om = alpha[0] * L[0]
    want_pp = kappas * A[0]
    got = res.x_star
    assert got["W[1]"] == pytest.approx(1.0, rel=1e-12)
    for s in range(2):
        assert got[f"OMEGA[1][{s + 1}]"] == pytest.approx(
            want_om[s], rel=1e-9)
        assert got[f"P[1][{s + 1}]"] == pytest.approx(want_pp[s], rel=1e-9)
    out = recover_outcomes("multi-sector", got, p)
    assert out.w[0] == pytest.approx(1.0, rel=1e-9)
    assert out.pi[0, 0, :] == pytest.approx([1.0, 1.0])
    want_U = L[0] * np.prod((kappas * A[0]) ** (alpha[0] / theta))
    assert out.U[0] == pytest.approx(want_U, rel=1e-9)


def test_multi_sector_scaling_law_and_signs():
    p = multi_sector(J=3, S=2, seed=23)
    sys = build_multi_sector(p)
    u = sys.scaling
    rng = np.random.default_rng(29)
    x = np.exp(rng.uniform(-1, 1, size=sys.dimension))
    lhs = sys._eval_checked(2.0 ** u * x)
    rhs = 2.0 ** u * sys._eval_checked(x)
    assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-12

    woff = 2 * p.J * p.S
    for _ in range(20):
        xs = sys.state(np.exp(rng.uniform(-2, 2, size=sys.dimension)))
        E = elasticity_at(sys, xs).entries
        # price rows respond non-positively to the wage block
        assert np.all(E[p.J * p.S:woff, woff:] <= 0)
        want = sys.sign_pattern
        assert np.all(E[want == 1] > 0)
        assert np.all(E[want == -1] < 0)
        assert np.max(np.abs(E[want == 0])) <= 1e-12  # structural zeros exist


def test_multi_sector_analytic_elasticity_matches_numeric():
    rng = np.random.default_rng(37)
    gaps = [ShockStep("tau", (1, 3, 2), "=", np.inf),
            ShockStep("alpha", (2, 1), "=", 0.0),
            ShockStep("alpha", (2, 2), "=", 0.0),
            ShockStep("alpha", (2, 3), "=", 1.0)]
    for p in (multi_sector(J=2, S=3, seed=31),
              apply_shock(multi_sector(J=3, S=3, seed=41), gaps)):
        ana = build_multi_sector(p)
        num = PositiveSystemNoAnalytic(ana)
        for _ in range(5):
            x = ana.state(np.exp(rng.uniform(-1.5, 1.5, size=ana.dimension)))
            Ea = elasticity_at(ana, x)
            En = elasticity_at(num, x)
            assert np.max(np.abs(Ea.entries - En.entries)) <= 1e-6


@st.composite
def gapped_multi_sector(draw):
    """(params, x): multi_sector(J, S) with infinite tau entries off the
    diagonal and zero alpha entries drawn, and a state x.  Sector s keeps
    a country c whose alpha_cs > 0 and every tau into c finite, so that
    every OMEGA row has a live term; every alpha row keeps a positive
    entry."""
    J, S = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    p = multi_sector(J=J, S=S, seed=draw(st.integers(0, 2**16)))
    keep = [draw(st.integers(0, J - 1)) for _ in range(S)]
    tau = np.where(draw(arrays(bool, (J, J, S))), np.inf, p.tau)
    zero = draw(arrays(bool, (J, S)))
    for s, c in enumerate(keep):
        tau[:, c, s] = p.tau[:, c, s]
        zero[c, s] = False
    for s in range(S):
        np.fill_diagonal(tau[:, :, s], 1.0)
    zero[zero.all(axis=1), 0] = False
    alpha = np.where(zero, 0.0, p.alpha)
    p = MultiSectorParams(A=p.A, tau=tau, alpha=alpha / alpha.sum(axis=1)[:, None],
                          L=p.L, theta=p.theta, sigma=p.sigma)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return p, np.exp(rng.uniform(-3.0, 3.0, (2 * S + 1) * J))


@settings(max_examples=80, deadline=None)
@given(gapped_multi_sector())
def test_multi_sector_support_values_are_the_dense_values_on_the_support(
        case):
    # the block-to-support order against the dense layout, bit for bit,
    # and DG +0.0 off the support, where dead terms give no -0.0; the
    # values scattered by elasticity_at, without the dense provider, are
    # that dense matrix
    p, x = case
    sys = build_multi_sector(p)
    on = sys.sign_pattern != 0
    E, v = sys.elasticity_values(x), sys.support_values(x)
    assert np.array_equal(v.view(np.int64), E[on].view(np.int64))
    assert not E[~on].view(np.int64).any()
    scattered = elasticity_at(replace(sys, elasticity_values=None),
                              sys.state(x))
    assert np.array_equal(scattered.entries.view(np.int64),
                          E.view(np.int64))


def general(J=3, S=3, seed=0):
    p = multi_sector(J=J, S=S, seed=seed)
    rng = np.random.default_rng(seed + 1)
    gl = rng.uniform(0.3, 0.9, size=(J, S))
    gio = rng.uniform(0.1, 1.0, size=(J, S, S))
    gio *= ((1.0 - gl) / gio.sum(axis=1))[:, None, :]
    return GeneralParams(A=p.A, tau=p.tau, alpha=p.alpha, L=p.L,
                         theta=p.theta, sigma=p.sigma,
                         gamma_labor=gl, gamma_io=gio)


def general_with_gaps():
    # an infinite off-diagonal tau, zero alpha entries, a labor-only
    # country 1, and sector 1 of country 2 with neither final nor input
    # demand, so its expenditure E is exactly 0
    g = general(J=3, S=3, seed=83)
    tau, alpha = np.array(g.tau), np.array(g.alpha)
    gl, gio = np.array(g.gamma_labor), np.array(g.gamma_io)
    tau[0, 2, 1] = np.inf
    alpha[1] = [0.0, 0.0, 1.0]
    gl[0], gio[0] = 1.0, 0.0
    gio[1, 0, :] = 0.0
    gio[1] *= ((1.0 - gl[1]) / gio[1].sum(axis=0))[None, :]
    return GeneralParams(A=g.A, tau=tau, alpha=alpha, L=g.L, theta=g.theta,
                         sigma=g.sigma, gamma_labor=gl, gamma_io=gio)


def test_general_analytic_elasticity_matches_numeric():
    rng = np.random.default_rng(89)
    gaps = general_with_gaps()
    labor_only = general_from_multi(multi_sector(J=3, S=2, seed=97))
    single = general(J=3, S=1, seed=101)
    for p in (general(J=2, S=3, seed=79), gaps, labor_only, single):
        ana = build_general(p)
        num = PositiveSystemNoAnalytic(ana)
        for _ in range(5):
            x = ana.state(np.exp(rng.uniform(-1.5, 1.5, size=ana.dimension)))
            Ea = elasticity_at(ana, x)
            En = elasticity_at(num, x)
            assert Ea.method == "analytic"
            assert np.max(np.abs(Ea.entries - En.entries)) <= 1e-6
    # the zero-expenditure cell really is in the gapped model
    assert gaps.alpha[1, 0] == 0.0 and not gaps.gamma_io[1, 0].any()


def relative_profile(out):
    # numeraire-free comparison vector: shares, welfare, relative wages
    return np.concatenate([
        out.pi.ravel(),
        out.U,
        out.w / out.w[0],
        (out.P / out.P[0, :]).ravel(),
    ])


def test_multi_sector_single_sector_reduces_to_one_sector():
    J = 3
    rng = np.random.default_rng(41)
    tau2 = 1.0 + rng.uniform(0.1, 1.0, size=(J, J))
    np.fill_diagonal(tau2, 1.0)
    A = rng.uniform(0.5, 2.0, size=J)
    L = rng.uniform(0.5, 2.0, size=J)
    theta, sigma = 4.2, 2.1

    one = OneSectorParams(A=A, tau=tau2, gamma=np.ones(J), L=L,
                          theta=theta, sigma=sigma)
    multi = MultiSectorParams(
        A=A[:, None], tau=tau2[:, :, None], alpha=np.ones((J, 1)), L=L,
        theta=[theta], sigma=[sigma])

    s1 = build_one_sector(one)
    r1 = iterate(s1, s1.state(np.ones(s1.dimension)), u=s1.scaling)
    assert r1.status == "converged"
    o1 = recover_outcomes("one-sector", r1.x_star, one)

    s2 = build_multi_sector(multi)
    r2 = iterate(s2, s2.state(np.ones(s2.dimension)), u=s2.scaling)
    assert r2.status == "converged"
    o2 = recover_outcomes("multi-sector", r2.x_star, multi)

    assert relative_profile(o2) == pytest.approx(relative_profile(o1),
                                                 rel=1e-8, abs=1e-10)


# -------------------------------------------------------------- general


def general_from_multi(p: MultiSectorParams) -> GeneralParams:
    J, S = p.J, p.S
    return GeneralParams(
        A=p.A, tau=p.tau, alpha=p.alpha, L=p.L, theta=p.theta,
        sigma=p.sigma, gamma_labor=np.ones((J, S)),
        gamma_io=np.zeros((J, S, S)))


def test_general_labor_only_matches_multi_sector():
    p = multi_sector(J=2, S=2, seed=43)
    g = general_from_multi(p)
    sm = build_multi_sector(p)
    rm = iterate(sm, sm.state(np.ones(sm.dimension)), u=sm.scaling)
    assert rm.status == "converged"
    om = recover_outcomes("multi-sector", rm.x_star, p)

    sg = build_general(g)
    rg = iterate(sg, sg.state(np.ones(sg.dimension)), u=sg.scaling,
                 opts=SolveOptions(damping=0.2, max_iter=60_000))
    assert rg.status == "converged"
    og = recover_outcomes("general", rg.x_star, g)

    assert relative_profile(og) == pytest.approx(relative_profile(om),
                                                 rel=1e-8, abs=1e-10)


def test_general_single_sector_matches_one_sector():
    J = 2
    rng = np.random.default_rng(47)
    tau2 = 1.0 + rng.uniform(0.2, 0.8, size=(J, J))
    np.fill_diagonal(tau2, 1.0)
    A = rng.uniform(0.8, 1.5, size=J)
    L = rng.uniform(0.5, 2.0, size=J)
    gamma = np.array([0.4, 0.75])
    theta, sigma = 3.6, 2.0

    one = OneSectorParams(A=A, tau=tau2, gamma=gamma, L=L,
                          theta=theta, sigma=sigma)
    gen = GeneralParams(
        A=A[:, None], tau=tau2[:, :, None], alpha=np.ones((J, 1)), L=L,
        theta=[theta], sigma=[sigma],
        gamma_labor=gamma[:, None],
        gamma_io=(1.0 - gamma)[:, None, None])

    s1 = build_one_sector(one)
    r1 = iterate(s1, s1.state(np.ones(s1.dimension)), u=s1.scaling)
    o1 = recover_outcomes("one-sector", r1.x_star, one)

    s2 = build_general(gen)
    r2 = iterate(s2, s2.state(np.ones(s2.dimension)), u=s2.scaling,
                 opts=SolveOptions(damping=0.2, max_iter=60_000))
    assert r2.status == "converged"
    o2 = recover_outcomes("general", r2.x_star, gen)

    assert relative_profile(o2) == pytest.approx(relative_profile(o1),
                                                 rel=1e-8, abs=1e-10)


def test_general_scaling_law():
    p = multi_sector(J=2, S=2, seed=53)
    rng = np.random.default_rng(59)
    gl = rng.uniform(0.3, 0.9, size=(2, 2))
    gio = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    gio *= ((1.0 - gl) / gio.sum(axis=1))[:, None, :]
    g = GeneralParams(A=p.A, tau=p.tau, alpha=p.alpha, L=p.L,
                      theta=p.theta, sigma=p.sigma,
                      gamma_labor=gl, gamma_io=gio)
    sys = build_general(g)
    x = np.exp(rng.uniform(-1, 1, size=sys.dimension))
    u = sys.scaling
    lhs = sys._eval_checked(2.0 ** u * x)
    rhs = 2.0 ** u * sys._eval_checked(x)
    assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-12


def test_general_expenditure_adding_up():
    p = multi_sector(J=2, S=2, seed=61)
    rng = np.random.default_rng(67)
    gl = rng.uniform(0.3, 0.9, size=(2, 2))
    gio = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    gio *= ((1.0 - gl) / gio.sum(axis=1))[:, None, :]
    g = GeneralParams(A=p.A, tau=p.tau, alpha=p.alpha, L=p.L,
                      theta=p.theta, sigma=p.sigma,
                      gamma_labor=gl, gamma_io=gio)
    sys = build_general(g)
    res = iterate(sys, sys.state(np.ones(sys.dimension)), u=sys.scaling,
                  opts=SolveOptions(damping=0.15, max_iter=80_000))
    assert res.status == "converged"
    out = recover_outcomes("general", res.x_star, g)
    lhs = out.E.sum(axis=1)
    rhs = out.w * g.L + np.einsum("isr,ir->i", g.gamma_io, out.R)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ----------------------------------------------- outcomes and identities


@pytest.fixture(scope="module")
def solved_one_sector():
    p = one_sector(J=3, seed=71)
    sys = build_one_sector(p)
    res = iterate(sys, sys.state(np.ones(sys.dimension)), u=sys.scaling)
    assert res.status == "converged"
    return p, res.x_star, recover_outcomes("one-sector", res.x_star, p)


@pytest.fixture(scope="module")
def solved_multi_sector():
    p = multi_sector(J=3, S=2, seed=73)
    sys = build_multi_sector(p)
    res = iterate(sys, sys.state(np.ones(sys.dimension)), u=sys.scaling)
    assert res.status == "converged"
    return p, res.x_star, recover_outcomes("multi-sector", res.x_star, p)


def test_import_shares_sum_to_one(solved_one_sector, solved_multi_sector):
    for _, _, out in (solved_one_sector, solved_multi_sector):
        sums = out.pi.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_labor_market_identity(solved_one_sector, solved_multi_sector):
    p, _, out = solved_one_sector
    assert out.w * p.L == pytest.approx(p.gamma * out.R[:, 0], rel=1e-8)
    mpx, _, mout = solved_multi_sector
    assert mout.w * mpx.L == pytest.approx(mout.R.sum(axis=1), rel=1e-8)


def test_balanced_trade_and_world_totals(solved_one_sector,
                                         solved_multi_sector):
    _, _, out = solved_one_sector
    assert out.E == pytest.approx(out.R, rel=1e-8)
    for _, _, o in (solved_one_sector, solved_multi_sector):
        assert o.R.sum() == pytest.approx(o.E.sum(), rel=1e-8)


def test_goods_market_clearing(solved_one_sector, solved_multi_sector):
    for _, _, out in (solved_one_sector, solved_multi_sector):
        implied = np.einsum("ijs,js->is", out.pi, out.E)
        assert implied == pytest.approx(out.R, rel=1e-8)


def test_multilateral_resistance_consistency(solved_one_sector,
                                             solved_multi_sector):
    p, x, out = solved_one_sector
    om = out.R[:, 0] * out.c[:, 0] ** p.theta
    pp = out.P[:, 0] ** (-p.theta)
    assert om == pytest.approx(x.values[:p.J], rel=1e-8)
    assert pp == pytest.approx(x.values[p.J:], rel=1e-8)
    mpx, mx, mout = solved_multi_sector
    J, S = mpx.J, mpx.S
    om2 = mout.R * mout.c ** mpx.theta[None, :]
    pp2 = mout.P ** (-mpx.theta[None, :])
    assert om2.ravel() == pytest.approx(mx.values[:J * S], rel=1e-8)
    assert pp2.ravel() == pytest.approx(mx.values[J * S:2 * J * S], rel=1e-8)


def test_stale_state_rejected(solved_one_sector):
    p, _, _ = solved_one_sector
    sys = build_one_sector(p)
    with pytest.raises(StaleStateError, match="residual"):
        recover_outcomes("one-sector", sys.state(np.ones(sys.dimension)), p)


@pytest.mark.parametrize("kind,params", [
    ("one-sector", multi_sector(J=2, S=2, seed=1)),
    ("general", multi_sector(J=2, S=2, seed=1)),
    ("multi-sector", general(J=2, S=2, seed=3)),
    ("multi-sector", one_sector(J=3, seed=0)),
    ("two-sector", one_sector(J=3, seed=0)),
])
def test_kind_other_than_the_bundles_is_refused(kind, params):
    sys = build_system(params)
    x = sys.state(np.ones(sys.dimension))
    with pytest.raises(ValueError) as exc:
        recover_outcomes(kind, x, params)
    assert repr(kind) in str(exc.value)
    assert repr(sys.kind) in str(exc.value)


def test_recovery_builds_the_system_once(monkeypatch, solved_multi_sector):
    p, x, out = solved_multi_sector
    module = importlib.import_module("scalefix.trade")
    builds = []

    def counted(params):
        builds.append(params)
        return build_system(params)

    monkeypatch.setattr(module, "build_system", counted)
    again = recover_outcomes("multi-sector", x, p)
    assert builds == [p]
    assert np.array_equal(again.U, out.U)


def test_symmetric_shares(solved_one_sector):
    A, L, gamma, theta, sigma, tau = 1.0, 1.0, 0.5, 4.0, 2.0, 1.6
    p = OneSectorParams(A=[A, A], tau=[[1.0, tau], [tau, 1.0]],
                        gamma=[gamma, gamma], L=[L, L],
                        theta=theta, sigma=sigma)
    sys = build_one_sector(p)
    res = iterate(sys, sys.state(np.ones(4)), u=sys.scaling)
    out = recover_outcomes("one-sector", res.x_star, p)
    assert out.pi[0, 0, 0] == pytest.approx(out.pi[1, 1, 0], rel=1e-9)
    assert out.pi[0, 1, 0] == pytest.approx(out.pi[1, 0, 0], rel=1e-9)


def test_autarky_shares_are_identity():
    p = OneSectorParams(
        A=[1.0, 2.0], tau=[[1.0, np.inf], [np.inf, 1.0]],
        gamma=[0.5, 0.5], L=[1.0, 1.5], theta=4.0, sigma=2.0)
    assert not p.connected
    sys = build_one_sector(p)
    res = iterate(sys, sys.state(np.ones(4)), u=sys.scaling)
    assert res.status == "converged"
    out = recover_outcomes("one-sector", res.x_star, p)
    assert out.pi[:, :, 0] == pytest.approx(np.eye(2), abs=1e-15)


def test_infinite_tau_is_continuous_limit():
    def solve_with(t12):
        tau = np.array([[1.0, t12, 1.3],
                        [1.4, 1.0, 1.2],
                        [1.3, 1.25, 1.0]])
        p = OneSectorParams(A=[1.0, 1.1, 0.9], tau=tau,
                            gamma=[0.5, 0.6, 0.4], L=[1.0, 0.8, 1.2],
                            theta=4.0, sigma=2.0)
        sys = build_one_sector(p)
        res = iterate(sys, sys.state(np.ones(6)), u=sys.scaling)
        assert res.status == "converged"
        return recover_outcomes("one-sector", res.x_star, p)

    big = solve_with(1e8)
    inf = solve_with(np.inf)
    assert big.pi[0, 1, 0] < 1e-12
    assert inf.pi[0, 1, 0] == 0.0
    for name in ("w", "R", "P", "U"):
        assert getattr(big, name) == pytest.approx(
            getattr(inf, name), rel=1e-6)


# --------------------------------------------------------- counterfactual


def test_null_shock_changes_nothing():
    p = one_sector(J=3, seed=79)
    r = counterfactual(p, [])
    assert isinstance(r, CounterfactualResult)
    for name, ch in r.changes.items():
        assert np.max(np.abs(ch)) <= 1e-8, name


def test_uniform_productivity_doubling():
    theta, gamma = 4.0, 0.5
    p = one_sector(J=3, seed=83, gamma=gamma, theta=theta)
    steps = [ShockStep("A", (i,), "*=", 2.0) for i in (1, 2, 3)]
    r = counterfactual(p, steps)
    # shares are invariant to a uniform productivity rescale
    assert np.max(np.abs(r.changes["pi"])) <= 1e-8
    # welfare rises by 2^(1/(theta*gamma)) in every country
    want = 2.0 ** (1.0 / (theta * gamma)) - 1.0
    assert r.changes["U"] == pytest.approx(np.full(3, want), rel=1e-8)


def test_symmetric_tau_shock_matches_bisection():
    A, L, gamma, theta, sigma = 1.2, 1.0, 0.5, 4.0, 2.0
    p = OneSectorParams(A=[A, A], tau=[[1.0, 1.5], [1.5, 1.0]],
                        gamma=[gamma, gamma], L=[L, L],
                        theta=theta, sigma=sigma)
    r = counterfactual(p, [ShockStep("tau", (1, 2), "*=", 2.0),
                           ShockStep("tau", (2, 1), "*=", 2.0)])
    want = bisection_symmetric_price(A, L, gamma, theta, sigma, 3.0)
    sp = r.shocked.P[:, 0] ** -theta
    assert sp == pytest.approx([want, want], rel=1e-8)


def test_one_way_tau_increase_lowers_that_share():
    p = OneSectorParams(
        A=[1.0, 1.0], tau=[[1.0, 1.5], [1.5, 1.0]], gamma=[0.5, 0.5],
        L=[1.0, 1.0], theta=4.0, sigma=2.0)
    r = counterfactual(p, [ShockStep("tau", (1, 2), "*=", 1.5)])
    assert r.shocked.pi[0, 1, 0] < r.base.pi[0, 1, 0]
    assert r.shocked.pi[1, 1, 0] > r.base.pi[1, 1, 0]


def test_disconnecting_shock_rejected_before_solving():
    p = one_sector(J=3, seed=89)
    steps = [ShockStep("tau", (i, j), "=", np.inf)
             for i in (1, 2, 3) for j in (1, 2, 3) if {i, j} == {1, 2}
             or (i != j and 3 in (i, j))]
    # cut country 3 off entirely and sever 1<->2? keep 1<->2 alive instead
    steps = [ShockStep("tau", (1, 3), "=", np.inf),
             ShockStep("tau", (3, 1), "=", np.inf),
             ShockStep("tau", (2, 3), "=", np.inf),
             ShockStep("tau", (3, 2), "=", np.inf)]
    with pytest.raises(ParameterError, match="disconnects"):
        counterfactual(p, steps)


def test_apply_shock_validation():
    p = one_sector(J=2, seed=97)
    with pytest.raises(ParameterError, match="no parameter field"):
        apply_shock(p, [ShockStep("Z", (1,), "=", 1.0)])
    with pytest.raises(ParameterError, match="indices"):
        apply_shock(p, [ShockStep("tau", (1,), "=", 2.0)])
    for idx in ((9,), (0,)):    # index 0 must not wrap to the last entry
        with pytest.raises(ParameterError, match="out of range"):
            apply_shock(p, [ShockStep("A", idx, "=", 1.0)])
    with pytest.raises(ParameterError, match="scalar"):
        apply_shock(p, [ShockStep("theta", (1,), "=", 5.0)])
    q = apply_shock(p, [ShockStep("theta", (), "*=", 1.1)])
    assert q.theta == pytest.approx(p.theta * 1.1)
    with pytest.raises(ParameterError):
        ShockStep("A", (1,), "+=", 1.0)
    with pytest.raises(TypeError, match="unknown parameter bundle"):
        apply_shock(object(), [])

    m = multi_sector(J=2, S=2, seed=101)
    for base, step in ((m, ShockStep("A", (1, 2), "*=", 2.0)),
                       (general_from_multi(m),
                        ShockStep("tau", (1, 2, 1), "*=", 1.5))):
        q = apply_shock(base, [step])
        assert type(q) is type(base)
        for f in fields(base):
            if f.init and f.name != step.field:
                assert np.array_equal(getattr(q, f.name), getattr(base, f.name))
        idx = tuple(k - 1 for k in step.indices)
        assert getattr(q, step.field)[idx] == \
            getattr(base, step.field)[idx] * step.value
    m3 = multi_sector(J=3, S=2, seed=103)
    for step in (ShockStep("tau", (0, 2, 1), "*=", 2.0),
                 ShockStep("A", (0, 0), "=", 5.0)):
        with pytest.raises(ParameterError, match="out of range"):
            apply_shock(m3, [step])
