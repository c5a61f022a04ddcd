"""Solver behavior on hand-built systems with known answers.

Oracles: linear fixed-point algebra for log-linear maps, golden-section
search over the scale factor for the up-to-scale distance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalefix.solve import (
    MAX_REJECTIONS,
    NormalizationError,
    NumeraireRule,
    SolveOptions,
    iterate,
    normalize,
    trace_to_csv,
    up_to_scale_distance,
)
from scalefix.spectral import gauge_norm, quotient_norm
from scalefix.system import EvaluationError, PositiveSystem, log_transform
from scalefix.trade import (
    MultiSectorParams,
    OneSectorParams,
    _matvec,
    _sector_kernels,
    _unpack,
    build_multi_sector,
    build_one_sector,
)


def loglinear(A, b, labels=None):
    # F with G(z) = A z + b: contraction iff spectral radius of A < 1
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    labels = labels or tuple(f"x{j}" for j in range(A.shape[0]))
    return PositiveSystem(
        labels=labels,
        evaluate_values=lambda x: np.exp(A @ np.log(x) + b),
    )


def golden_scale_distance(x, y, u, v):
    # scan ln c, then golden-section refine the gauge distance
    target = np.log(y) - np.log(x)

    def f(lnc):
        return np.max(np.abs(target - lnc * u) / v)

    grid = np.linspace(-40.0, 40.0, 8001)
    lnc0 = grid[np.argmin([f(t) for t in grid])]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lnc0 - 0.01, lnc0 + 0.01
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-13:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


# ------------------------------------------------------------------ iterate


def test_contraction_reaches_linear_algebra_solution():
    A = np.array([[0.0, 0.5], [0.4, 0.0]])
    b = np.array([np.log(2.0), np.log(3.0)])
    sys = loglinear(A, b)
    z_star = np.linalg.solve(np.eye(2) - A, b)
    res = iterate(sys, sys.state([1.0, 1.0]))
    assert res.status == "converged"
    assert np.log(res.x_star.values) == pytest.approx(z_star, abs=1e-9)
    # raw residual holds in original coordinates
    F = sys._eval_checked(res.x_star.values)
    rel = np.max(np.abs(F - res.x_star.values) / res.x_star.values)
    assert rel <= 1e-10


def test_scaling_family_solved_and_normalized():
    # F(x) = (2 sqrt(x1 x2), sqrt(x1 x2) / 2) scales along u = (1, 1);
    # fixed family x = m * (2, 1/2), so first-coordinate-one gives (1, 1/4)
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    b = np.array([np.log(2.0), -np.log(2.0)])
    sys = loglinear(A, b)
    u = np.ones(2)
    res = iterate(sys, sys.state([5.0, 0.3]), u=u)
    assert res.status == "converged"
    assert res.x_star.values == pytest.approx([1.0, 0.25], rel=1e-9)


def test_start_on_orbit_has_zero_quotient_steps():
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    b = np.array([np.log(2.0), -np.log(2.0)])
    sys = loglinear(A, b)
    u = np.ones(2)
    # x0 = c^u x* for c = 3 sits on the fixed family already
    x0 = sys.state(3.0 * np.array([2.0, 0.5]))
    res = iterate(sys, x0, u=u)
    assert res.status == "converged"
    assert np.all(res.step_quotient <= 1e-12)


def test_multi_start_up_to_scale_agreement():
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    b = np.array([np.log(2.0), -np.log(2.0)])
    sys = loglinear(A, b)
    u = np.ones(2)
    rng = np.random.default_rng(0)
    sols = []
    for _ in range(6):
        x0 = sys.state(np.exp(rng.uniform(-3, 3, size=2)))
        res = iterate(sys, x0, u=u)
        assert res.status == "converged"
        sols.append(res.x_star)
    for s in sols[1:]:
        assert up_to_scale_distance(sols[0], s, u) <= 1e-8
        # normalized coordinates agree outright
        assert s.values == pytest.approx(sols[0].values, rel=1e-7)


def test_monotone_step_decay():
    A = np.array([[0.0, 0.7], [0.6, 0.0]])
    sys = loglinear(A, [0.1, -0.2])
    res = iterate(sys, sys.state([9.0, 0.02]), opts=SolveOptions(anderson=0))
    assert res.status == "converged"
    diffs = np.diff(res.step_gauge)
    assert np.all(diffs <= 1e-12)


def test_decay_rate_matches_contraction_modulus():
    A = np.array([[0.0, 0.5], [0.4, 0.0]])
    sys = loglinear(A, [0.3, 0.4])
    res = iterate(sys, sys.state([1.0, 1.0]),
                  opts=SolveOptions(tol=1e-12, anderson=0))
    want = np.sqrt(0.2)  # dominant eigenvalue modulus of A
    assert res.decay_rate == pytest.approx(want, rel=0.05)


def test_budget_exhausted_carries_diagnostics():
    # G rotates by 90 degrees in log space: period-4 orbit, never settles
    sys = PositiveSystem(
        labels=("a", "b"),
        evaluate_values=lambda x: np.array([x[1], 1.0 / x[0]]),
    )
    res = iterate(sys, sys.state([2.0, 1.0]),
                  opts=SolveOptions(max_iter=50, anderson=0))
    assert res.status == "budget-exhausted"
    assert res.iterations == 50
    assert "50" in res.message
    assert res.step_gauge.shape == (50,)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, "overflow",
                                 "shape"])
def test_evaluation_failure_keeps_last_iterate(bad):
    # G(z) = (z_a + 1, 0) from z = 0, so iteration 3 evaluates F at
    # z_a = 3, where F goes wrong; the result keeps iterate 2.  An
    # overflow inside F warns nowhere: iterate's errstate covers F
    def F(x):
        if x[0] < np.exp(2.5):
            return np.array([np.e * x[0], 1.0])
        if bad == "overflow":
            return np.array([x[0] ** 400, 1.0])
        return np.ones(3) if bad == "shape" else np.array([bad, 1.0])

    sys = PositiveSystem(labels=("a", "b"), evaluate_values=F)
    res = iterate(sys, sys.state([1.0, 1.0]),
                  opts=SolveOptions(max_iter=100))
    assert res.status == "evaluation-failed"
    assert res.iterations == 3
    assert res.x_star.values == pytest.approx([np.exp(2.0), 1.0])
    with pytest.raises(EvaluationError) as err:
        sys.evaluate(sys.state(np.exp(log_transform(
            np.log(res.x_star.values), sys))))
    assert res.message == str(err.value)


def test_malformed_evaluation_is_an_evaluation_failure():
    # a ragged list from F is no array: iterate reports it, not numpy
    sys = PositiveSystem(labels=("a", "b"),
                         evaluate_values=lambda x: [x[0], [1.0, 2.0]])
    res = iterate(sys, sys.state([1.0, 1.0]))
    assert res.status == "evaluation-failed"
    assert res.message.startswith("evaluate returned a list that is not "
                                  "a numeric array")


def test_damping_still_converges():
    A = np.array([[0.0, 0.5], [0.4, 0.0]])
    b = np.array([1.0, -1.0])
    sys = loglinear(A, b)
    z_star = np.linalg.solve(np.eye(2) - A, b)
    res = iterate(sys, sys.state([1.0, 1.0]),
                  opts=SolveOptions(damping=0.5))
    assert res.status == "converged"
    assert np.log(res.x_star.values) == pytest.approx(z_star, abs=1e-9)


def replayed_steps(sys, x0, opts, count):
    """z_{n+1} - z_n of the damped iteration, recomputed here."""
    z = np.log(x0.values)
    steps = []
    for _ in range(count):
        z_next = (1.0 - opts.damping) * z + opts.damping * log_transform(z, sys)
        steps.append(z_next - z)
        z = z_next
    return steps


@pytest.mark.parametrize("with_u", [True, False])
def test_step_traces_are_the_public_norms_bit_for_bit(with_u):
    # u = sys.scaling has entries of both signs, so |u| is no all-ones gauge
    p = OneSectorParams(A=[1.0, 1.1, 0.9],
                        tau=[[1.0, 1.5, 1.3], [1.4, 1.0, 1.2],
                             [1.3, 1.25, 1.0]],
                        gamma=[0.5, 0.6, 0.4], L=[1.0, 0.8, 1.2],
                        theta=4.0, sigma=2.0)
    sys = build_one_sector(p)
    u = sys.scaling if with_u else None
    opts = SolveOptions(damping=0.7, max_iter=60, anderson=0)
    x0 = sys.state(np.exp(np.linspace(-1.0, 1.5, sys.dimension)))
    res = iterate(sys, x0, u=u, opts=opts)
    assert res.status == "converged" and res.iterations > 10
    steps = replayed_steps(sys, x0, opts, res.iterations)
    v = np.ones(sys.dimension) if u is None else np.abs(u)
    gauge = [gauge_norm(step, v) for step in steps]
    assert res.step_gauge.tolist() == gauge
    assert res.step_quotient.tolist() == (
        gauge if u is None else [quotient_norm(step, u, v) for step in steps])


def random_multi(J, S, seed, theta, sigma):
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.05, 1.2, (J, J, S))
    for s in range(S):
        np.fill_diagonal(tau[:, :, s], 1.0)
    alpha = rng.uniform(0.2, 1.0, (J, S))
    alpha /= alpha.sum(axis=1, keepdims=True)
    return MultiSectorParams(A=rng.uniform(0.5, 2.0, (J, S)), tau=tau,
                             alpha=alpha, L=rng.uniform(0.5, 2.0, J),
                             theta=np.asarray(theta, dtype=float),
                             sigma=np.asarray(sigma, dtype=float))


def multi_4x2():
    return random_multi(4, 2, 8, [3.0, 6.5], [2.2, 3.6])


def recording(sys):
    """sys with every input and output of F recorded, in call order."""
    calls = []

    def evaluate(x):
        y = sys.evaluate_values(x)
        calls.append((np.array(x), np.array(y)))
        return y

    return PositiveSystem(labels=sys.labels, evaluate_values=evaluate,
                          scaling=sys.scaling), calls


@pytest.mark.parametrize("model", ["multi-sector", "loglinear"])
@pytest.mark.parametrize("gauge, damping", [
    ("u", 1.0), (None, 1.0), ("u", 0.5), (None, 0.5)])
def test_solve_loop_is_the_damped_formula_bit_for_bit(model, gauge,
                                                       damping):
    # the iterates, replayed from F's recorded outputs with the general
    # damped update, and the two step norms, in their textbook forms
    if model == "multi-sector":
        base = build_multi_sector(multi_4x2())
        u = base.scaling
    else:
        base = loglinear([[0.2, 0.5, 0.1], [0.3, 0.1, 0.4],
                          [0.25, 0.25, 0.2]], [0.3, -0.2, 0.1])
        u = np.array([1.5, -0.75, 2.0])
    sys, calls = recording(base)
    u = u if gauge == "u" else None
    opts = SolveOptions(damping=damping, max_iter=40, anderson=0)
    x0 = sys.state(np.exp(np.linspace(-1.5, 2.0, sys.dimension)))
    res = iterate(sys, x0, u=u, opts=opts)
    assert res.iterations > 10 and len(calls) == res.iterations + 1
    z = np.log(x0.values)
    gauge_ref, quot_ref = [], []
    for n, (x, y) in enumerate(calls[:res.iterations]):
        assert np.array_equal(x, np.exp(z)), n
        z_next = (1.0 - damping) * z + damping * np.log(y)
        step = z_next - z
        if u is None:
            gauge_ref.append(float(np.max(np.abs(step))))
            quot_ref.append(gauge_ref[-1])
        else:
            gauge_ref.append(float(np.max(np.abs(step) / np.abs(u))))
            quot_ref.append(float(0.5 * np.ptp(step / u)))
        z = z_next
    assert res.step_gauge.tolist() == gauge_ref
    assert res.step_quotient.tolist() == quot_ref


def random_one_sector(J, seed):
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.05, 1.2, (J, J))
    np.fill_diagonal(tau, 1.0)
    return OneSectorParams(A=rng.uniform(0.5, 2.0, J), tau=tau,
                           gamma=rng.uniform(0.3, 0.9, J),
                           L=rng.uniform(0.5, 2.0, J), theta=4.0, sigma=2.6)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["one-sector", "multi-sector"]),
       J=st.integers(2, 8), S=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 3.0),
       depth=st.integers(1, 8))
@example(kind="multi-sector", J=8, S=4, seed=0, spread=3.0, depth=5)
def test_mixed_and_plain_solves_agree(kind, J, S, seed, spread, depth):
    # certified models: the mixed loop, at any depth, the default 5
    # among them, reaches the plain loop's normalized point from any
    # start.  The plain loop stops within about tol / (1 - rate) of the
    # fixed point, and its rate reaches 0.99 here, so both run at tol
    # 1e-12
    if kind == "one-sector":
        sys = build_one_sector(random_one_sector(J, seed))
    else:
        theta = np.random.default_rng(seed).uniform(2.0, 8.0, S)
        sys = build_multi_sector(random_multi(J, S, seed, theta,
                                              1.0 + 0.4 * theta))
    x0 = sys.state(np.exp(np.random.default_rng(seed + 1).uniform(
        -spread, spread, sys.dimension)))
    plain = iterate(sys, x0, u=sys.scaling,
                    opts=SolveOptions(tol=1e-12, anderson=0))
    mixed = iterate(sys, x0, u=sys.scaling,
                    opts=SolveOptions(tol=1e-12, anderson=depth))
    assert plain.status == mixed.status == "converged"
    assert mixed.x_star.values == pytest.approx(plain.x_star.values,
                                                rel=1e-8)


@pytest.mark.parametrize("off_path", ["nan", "negative", "worse"])
def test_mixing_falls_back_to_the_plain_loop(off_path):
    # F agrees with the model on the plain loop's own points only: off
    # them it reports a point outside its domain by a value that is not
    # positive and finite, or gives a residual larger than any on the
    # path.
    # Every mixed step is then rejected, each at the cost of one F; after
    # MAX_REJECTIONS of them the iterates and traces are the plain loop's
    base = build_multi_sector(multi_4x2())
    x0 = base.state(np.exp(np.linspace(-1.5, 2.0, base.dimension)))
    plain_sys, plain_calls = recording(base)
    plain = iterate(plain_sys, x0, u=base.scaling,
                    opts=SolveOptions(anderson=0))
    assert plain.status == "converged"
    on_path = {x.tobytes() for x, _ in plain_calls}
    calls = []

    def F(x):
        calls.append(x)
        if x.tobytes() in on_path:
            return base.evaluate_values(x)
        return {"nan": np.full_like(x, np.nan), "negative": -x,
                "worse": 1e30 * x}[off_path]

    planted = PositiveSystem(labels=base.labels, evaluate_values=F,
                             scaling=base.scaling)
    res = iterate(planted, x0, u=base.scaling)
    assert res.status == "converged"
    assert res.iterations == plain.iterations > MAX_REJECTIONS + 1
    assert len(calls) == len(plain_calls) + MAX_REJECTIONS
    assert sum(x.tobytes() not in on_path for x in calls) == MAX_REJECTIONS
    assert res.step_gauge.tolist() == plain.step_gauge.tolist()
    assert res.step_quotient.tolist() == plain.step_quotient.tolist()
    assert res.x_star.values.tobytes() == plain.x_star.values.tobytes()
    assert res.decay_rate == plain.decay_rate is not None


def test_mixing_takes_fewer_steps_with_the_same_stopping_test():
    base = build_multi_sector(multi_4x2())
    sys, calls = recording(base)
    x0 = sys.state(np.exp(np.linspace(-1.5, 2.0, sys.dimension)))
    opts = SolveOptions()
    plain = iterate(sys, x0, u=base.scaling, opts=SolveOptions(anderson=0))
    del calls[:]
    res = iterate(sys, x0, u=base.scaling, opts=opts)
    assert res.status == "converged"
    assert 2 * res.iterations <= plain.iterations
    # one trace row per step taken; F runs once per step and once more
    # per rejected mixed step, here none
    assert res.step_gauge.shape == res.step_quotient.shape == \
        (res.iterations,)
    assert len(calls) == res.iterations + 1
    assert res.step_quotient[-1] <= opts.tol
    assert res.decay_rate is None      # mixed steps estimate no rate
    x = res.x_star.values
    assert np.max(np.abs(sys._eval_checked(x) - x) / x) <= 2 * opts.tol


def test_multi_sector_evaluate_is_the_concatenated_blocks_bit_for_bit():
    # F, which takes its wage powers in one call and both sector blocks
    # in one stacked matmul, against the blocks taken one at a time
    base = multi_4x2()
    fields = {k: getattr(base, k)
              for k in ("A", "tau", "alpha", "L", "theta", "sigma")}
    tau = base.tau.copy()
    tau[0, 1, 1] = np.inf
    alpha = base.alpha.copy()
    alpha[2] = [0.0, 1.0]
    cases = [
        (base, 4.0),
        (base, 30.0),                   # states far beyond e^+-4
        (MultiSectorParams(**{**fields, "tau": tau}), 4.0),
        (MultiSectorParams(**{**fields, "alpha": alpha}), 4.0),
        # S = 1 and J = 2, at Theta = 1, where numpy takes W ** 0.5 as sqrt
        (random_multi(2, 1, 3, [1.0], [1.5]), 4.0),
        # nine terms per wage row, past the block of numpy's pairwise sum
        (random_multi(3, 9, 4, np.linspace(2.0, 6.0, 9),
                      np.full(9, 1.5)), 4.0),
    ]
    rng = np.random.default_rng(21)
    for p, spread in cases:
        J, S = p.J, p.S
        K, KP = _sector_kernels(p)
        KOm = K * (p.alpha * p.L[:, None]).T[:, None, :]
        e_w = 1.0 / (1.0 + p.Theta)
        e_self = (p.Theta - p.theta) * e_w
        evaluate = build_multi_sector(p).evaluate_values
        for _ in range(20):
            x = np.exp(rng.uniform(-spread, spread, 2 * J * S + J))
            om, pp, W = _unpack(x, J, S)
            t_om = W ** e_w / pp.T
            t_pp = W ** (-p.theta * e_w)[:, None]
            t_W = (om / p.L[:, None]) * W[:, None] ** e_self[None, :]
            expected = np.concatenate([_matvec(KOm, t_om).T.ravel(),
                                       _matvec(KP, t_pp).T.ravel(),
                                       t_W.sum(axis=1)])
            assert evaluate(x).tobytes() == expected.tobytes(), (J, S)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_gauge_direction_must_be_finite_and_nonzero(bad):
    sys = loglinear(np.full((2, 2), 0.5), np.zeros(2))
    with pytest.raises(ValueError, match="finite and nonzero"):
        iterate(sys, sys.state([1.0, 2.0]), u=[1.0, bad])


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=-1.0)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolveOptions(tol=tol)
    with pytest.raises(ValueError):
        SolveOptions(damping=0.0)
    with pytest.raises(ValueError):
        SolveOptions(damping=1.5)
    # range() would raise a bare TypeError on 2.5, and True ran one
    # iteration and reported iterations == True
    for max_iter in (2.5, True, False, 10.0):
        with pytest.raises(ValueError, match="max_iter must be an integer of at"):
            SolveOptions(max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
        SolveOptions(max_iter=0)
    assert SolveOptions(max_iter=np.int64(3)).max_iter == 3
    for anderson in (-1, 2.5, True, False, 5.0, "5", None):
        with pytest.raises(ValueError,
                           match="anderson must be an integer of at least 0"):
            SolveOptions(anderson=anderson)
    assert SolveOptions().anderson == 5
    assert SolveOptions(anderson=np.int64(0)).anderson == 0


# ------------------------------------------------- up-to-scale distance


def test_distance_zero_on_orbit():
    sys = loglinear(np.zeros((3, 3)), np.zeros(3))
    u = np.array([1.0, -0.5, 2.0])
    x = sys.state([1.0, 2.0, 3.0])
    y = sys.state(7.0 ** u * x.values)
    assert up_to_scale_distance(x, y, u) <= 1e-12
    assert up_to_scale_distance(x, x, u) == 0.0


def test_distance_matches_golden_oracle():
    rng = np.random.default_rng(42)
    labels = tuple(f"c{j}" for j in range(6))
    for _ in range(25):
        xv = np.exp(rng.uniform(-2, 2, size=6))
        yv = np.exp(rng.uniform(-2, 2, size=6))
        u = rng.choice([-1.0, 1.0], size=6) * rng.uniform(0.3, 2.0, size=6)
        from scalefix.system import StateVector
        x = StateVector(xv, labels)
        y = StateVector(yv, labels)
        got = up_to_scale_distance(x, y, u)
        want = golden_scale_distance(xv, yv, u, np.abs(u))
        assert got == pytest.approx(want, abs=1e-8)


# ------------------------------------------------------------- normalize


def test_normalize_first_coordinate():
    sys = loglinear(np.zeros((2, 2)), np.zeros(2))
    x = sys.state([np.e, 4.0])
    u = np.array([1.0, 1.0])
    xn, c = normalize(x, u, NumeraireRule.first())
    assert c == pytest.approx(np.exp(-1.0))
    assert xn.values[0] == pytest.approx(1.0, rel=1e-14)


def test_normalize_idempotent():
    sys = loglinear(np.zeros((3, 3)), np.zeros(3))
    x = sys.state([2.0, 3.0, 4.0])
    u = np.array([1.0, -0.8, 0.5])
    for rule in (NumeraireRule.first(),
                 NumeraireRule.geometric_mean(),
                 NumeraireRule.named("x2")):
        x1, _ = normalize(x, u, rule)
        x2, c2 = normalize(x1, u, rule)
        assert c2 == pytest.approx(1.0, abs=1e-12)
        assert x2.values == pytest.approx(x1.values, rel=1e-12)


def test_normalize_geometric_mean_block():
    from scalefix.system import StateVector
    labels = ("omega[1]", "omega[2]", "wage[1]", "wage[2]")
    x = StateVector(np.array([2.0, 3.0, 5.0, 7.0]), labels)
    u = np.array([1.0, 1.0, 2.0, 2.0])
    xn, _ = normalize(x, u, NumeraireRule.geometric_mean(block="wage"))
    gm = np.sqrt(xn["wage[1]"] * xn["wage[2]"])
    assert gm == pytest.approx(1.0, abs=1e-12)
    # untouched directions moved consistently with c^u
    ratio = xn.values / x.values
    assert np.log(ratio) == pytest.approx(np.log(ratio[0]) / u[0] * u, abs=1e-12)


def test_normalize_zero_exponent_rejected():
    from scalefix.system import StateVector
    x = StateVector(np.array([2.0, 3.0]), ("a", "b"))
    with pytest.raises(NormalizationError):
        normalize(x, np.array([0.0, 1.0]), NumeraireRule.first())
    with pytest.raises(NormalizationError):
        normalize(x, np.array([1.0, -1.0]), NumeraireRule.geometric_mean())


@pytest.mark.parametrize("rule", [
    NumeraireRule.named("nope"), NumeraireRule.geometric_mean(block="q"),
    NumeraireRule.geometric_mean()])
def test_iterate_refuses_a_bad_rule_before_evaluating_f(rule):
    # F(x) = 1 / (x_b, x_a) scales along u = (1, -1), whose exponents
    # sum to 0 over the whole block.  A budget of one iteration would
    # run out first if the rule were read late
    evaluations = []
    sys = PositiveSystem(labels=("a", "b"),
                         evaluate_values=lambda x: evaluations.append(x)
                         or 1.0 / x[::-1])
    with pytest.raises(NormalizationError):
        iterate(sys, sys.state([2.0, 3.0]), u=np.array([1.0, -1.0]),
                opts=SolveOptions(max_iter=1, numeraire_rule=rule))
    assert evaluations == []


def test_trace_csv_round_trip():
    A = np.array([[0.0, 0.5], [0.4, 0.0]])
    sys = loglinear(A, [0.3, 0.4])
    res = iterate(sys, sys.state([1.0, 1.0]))
    text = trace_to_csv(res)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,step_gauge,step_quotient"
    assert len(lines) == res.iterations + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(res.step_gauge[0])
