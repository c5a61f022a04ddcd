"""Log-coordinate machinery on hand-built systems."""

import dataclasses

import numpy as np
import pytest

from scalefix.certify import ScalingCertificate, certify
from scalefix.solve import iterate
from scalefix.system import (
    DifferentiationError,
    ElasticityMatrix,
    EvaluationError,
    PositiveSystem,
    StateVector,
    _Support,
    elasticity_at,
    log_transform,
)


def swap_system():
    return PositiveSystem(
        labels=("a", "b"),
        evaluate_values=lambda x: x[::-1].copy(),
    )


def loglinear_system(a, b, c):
    # F(x) = (x1^a x2^b, x2^c): constant elasticity rows
    return PositiveSystem(
        labels=("x1", "x2"),
        evaluate_values=lambda x: np.array([x[0] ** a * x[1] ** b, x[1] ** c]),
    )


def test_state_vector_checks():
    with pytest.raises(EvaluationError, match="'b'"):
        StateVector(np.array([1.0, -2.0]), ("a", "b"))
    with pytest.raises(EvaluationError) as exc:
        StateVector(np.array([np.inf, 2.0]), ("a", "b"))
    assert exc.value.coordinate == "a"
    s = StateVector(np.array([3.0, 4.0]), ("a", "b"))
    assert s["b"] == 4.0
    assert len(s) == 2


def test_log_transform_swap():
    got = log_transform(np.array([0.0, 1.0]), swap_system())
    assert got == pytest.approx([1.0, 0.0])


def test_log_transform_scalar_doubling():
    sys = PositiveSystem(labels=("x",), evaluate_values=lambda x: 2.0 * x)
    assert log_transform(np.array([0.0]), sys) == pytest.approx([np.log(2.0)])


def test_log_transform_matches_direct_evaluation():
    rng = np.random.default_rng(3)
    sys = loglinear_system(0.3, -0.2, 1.1)
    for _ in range(10):
        z = rng.normal(size=2)
        direct = np.log(sys._eval_checked(np.exp(z)))
        assert log_transform(z, sys) == pytest.approx(direct, abs=1e-14)


def test_fixed_point_correspondence():
    sys = loglinear_system(0.5, 0.0, 0.5)

    # x = (1, 1) is a fixed point of F, so z = 0 is fixed for G
    z = np.zeros(2)
    assert log_transform(z, sys) == pytest.approx(z, abs=1e-12)
    x = np.exp(z)
    assert sys._eval_checked(x) == pytest.approx(x, rel=1e-12)

    z2 = np.array([0.4, -0.3])
    moved = np.max(np.abs(log_transform(z2, sys) - z2)) > 1e-3
    assert moved


def test_evaluation_error_names_coordinate():
    sys = PositiveSystem(
        labels=("p", "q"),
        evaluate_values=lambda x: np.array([x[0], x[1] - 2.0]),
    )
    with pytest.raises(EvaluationError) as exc:
        log_transform(np.array([0.0, 0.0]), sys)
    assert exc.value.coordinate == "q"


@pytest.mark.parametrize("error, other", [
    (EvaluationError, DifferentiationError),
    (DifferentiationError, EvaluationError)])
def test_the_coordinate_errors_share_their_fields_but_not_a_type(error,
                                                                 other):
    # an except clause that names one of them catches only that one
    assert issubclass(error, RuntimeError) and not issubclass(error, other)
    plain, named = error("message"), error("message", "b")
    assert (str(plain), plain.coordinate, plain.sample_index) == \
        ("message", None, None)
    assert (named.coordinate, named.sample_index) == ("b", None)


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("last", [3.0, np.nan])
@pytest.mark.parametrize("bad, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (0.0, "0.0"),
    (-0.0, "-0.0"), (-2.5, "-2.5")])
def test_output_guard_names_the_first_bad_coordinate(bad, shown, last, at):
    # good values before the bad one; the last value good or bad too
    labels = tuple(f"x{j}" for j in range(6))

    def evaluate(x):
        y = np.linspace(0.5, 3.0, 6)
        y[at] = bad
        y[5] = last
        return y

    sys = PositiveSystem(labels=labels, evaluate_values=evaluate)
    message = f"evaluate produced {shown} at coordinate 'x{at}'"
    with pytest.raises(EvaluationError) as exc:
        sys.evaluate(sys.state(np.ones(6)))
    assert str(exc.value) == message and exc.value.coordinate == f"x{at}"
    res = iterate(sys, sys.state(np.ones(6)))
    assert res.status == "evaluation-failed" and res.message == message


def test_loglinear_elasticity_is_constant_exponents():
    a, b, c = 0.7, -1.3, 0.4
    sys = loglinear_system(a, b, c)
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = sys.state(np.exp(rng.normal(size=2)))
        E = elasticity_at(sys, x)
        assert isinstance(E, ElasticityMatrix)
        assert E.method == "numeric-central-log"
        assert E.entries == pytest.approx(
            np.array([[a, b], [0.0, c]]), abs=1e-8)


def test_analytic_provider_wins():
    marker = np.array([[0.25, 0.0], [0.0, 0.75]])
    sys = PositiveSystem(
        labels=("a", "b"),
        evaluate_values=lambda x: x.copy(),
        elasticity_values=lambda x: marker,
    )
    E = elasticity_at(sys, sys.state([1.0, 2.0]))
    assert E.method == "analytic"
    assert E.entries == pytest.approx(marker)
    with pytest.raises(ValueError):
        E.entries[0, 0] = 9.0  # frozen


def test_numeric_matches_analytic_on_nonlinear_map():
    # F1 = x1 + x2, F2 = x1 * x2^2: elasticities depend on the point
    def F(x):
        return np.array([x[0] + x[1], x[0] * x[1] ** 2])

    def DG(x):
        s = x[0] + x[1]
        return np.array([[x[0] / s, x[1] / s], [1.0, 2.0]])

    numeric = PositiveSystem(labels=("a", "b"), evaluate_values=F)
    analytic = PositiveSystem(labels=("a", "b"), evaluate_values=F,
                              elasticity_values=DG)
    rng = np.random.default_rng(77)
    for _ in range(8):
        x = numeric.state(np.exp(rng.normal(size=2)))
        En = elasticity_at(numeric, x)
        Ea = elasticity_at(analytic, x)
        assert En.entries == pytest.approx(Ea.entries, abs=1e-8)


def test_scaling_direction_is_elasticity_eigenvector():
    # F(x) = (x2, x1) scales along u = (1, 1)
    sys = swap_system()
    u = np.ones(2)
    x = sys.state([2.0, 5.0])
    E = elasticity_at(sys, x)
    assert E.entries @ u == pytest.approx(u, abs=1e-8)


def test_differentiation_failure_detected():
    def F(x):
        # positive but blows up so fast the difference overflows
        with np.errstate(over="ignore"):
            return np.array([np.exp(np.exp(np.exp(x[0])))])

    sys = PositiveSystem(labels=("x",), evaluate_values=F)
    with pytest.raises((DifferentiationError, EvaluationError)):
        elasticity_at(sys, sys.state([np.log(7.0)]))


def test_non_finite_analytic_elasticity_rejected():
    sys = PositiveSystem(
        labels=("a", "b"), evaluate_values=lambda x: x[::-1].copy(),
        elasticity_values=lambda x: np.array([[0.0, 1.0], [np.inf, 0.0]]))
    with pytest.raises(DifferentiationError, match="'b' with respect to 'a'"
                       ) as info:
        elasticity_at(sys, sys.state([1.0, 2.0]))
    assert info.value.coordinate == "b"
    assert info.value.sample_index is None


def test_wrong_shape_analytic_elasticity_rejected():
    sys = PositiveSystem(
        labels=("a", "b"), evaluate_values=lambda x: x[::-1].copy(),
        elasticity_values=lambda x: np.zeros(2))
    with pytest.raises(DifferentiationError,
                       match=r"shape \(2,\), expected \(2, 2\)"):
        elasticity_at(sys, sys.state([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_elasticity_matrix_rejects_non_finite_entries(bad):
    # the same error, whoever builds the matrix
    E = np.zeros((3, 3))
    E[2, 1] = bad
    sys = PositiveSystem(labels=("a", "b", "c"), evaluate_values=np.sqrt,
                         elasticity_values=lambda x: E)
    x = sys.state([1.0, 2.0, 3.0])
    with pytest.raises(DifferentiationError) as direct:
        ElasticityMatrix(E, x, "analytic")
    with pytest.raises(DifferentiationError) as built:
        elasticity_at(sys, x)
    assert str(direct.value) == str(built.value) == (
        f"analytic elasticity of 'c' with respect to 'b' is {bad}")
    assert direct.value.coordinate == built.value.coordinate == "c"


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2), (3, 3, 1), ()])
def test_elasticity_matrix_rejects_a_shape_other_than_n_by_n(shape):
    x = StateVector(np.ones(3), ("a", "b", "c"))
    with pytest.raises(DifferentiationError) as info:
        ElasticityMatrix(np.zeros(shape), x, "numeric-central-log")
    assert str(info.value) == (f"numeric-central-log elasticity has shape "
                               f"{shape}, expected (3, 3)")
    assert info.value.coordinate is None


def test_elasticity_from_support_values_alone_is_their_scatter():
    # analytic, from no evaluation of F: the values, -0.0 among them, on
    # the pattern's support in row-major order, +0.0 everywhere else
    pattern = np.array([[0, 1, 0], [-1, 1, 1], [1, 0, 0]])
    values = np.array([0.25, -0.0, 0.5, 0.75, 1.5])
    evals = []
    sys = PositiveSystem(labels=("a", "b", "c"),
                         evaluate_values=lambda x: evals.append(x) or x,
                         sign_pattern=pattern,
                         support_values=lambda x: values)
    E = elasticity_at(sys, sys.state([1.0, 2.0, 3.0]))
    want = np.zeros((3, 3))
    want[pattern != 0] = values
    assert E.method == "analytic" and evals == []
    assert np.array_equal(E.entries.view(np.int64), want.view(np.int64))
    assert not E.entries.flags.writeable


@pytest.mark.parametrize("values,message", [
    (np.ones(3), r"support_values has shape \(3,\), expected \(2,\)"),
    (np.array([1.0, np.nan]), "analytic elasticity of 'b' with respect to "
                              "'a' is nan"),
])
def test_wrong_support_values_rejected(values, message):
    sys = PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                         sign_pattern=[[0, 1], [1, 0]],
                         support_values=lambda x: values)
    with pytest.raises(DifferentiationError, match=message):
        elasticity_at(sys, sys.state([1.0, 2.0]))


def test_label_validation():
    with pytest.raises(ValueError, match="unique"):
        PositiveSystem(labels=("a", "a"), evaluate_values=lambda x: x)
    sys = swap_system()
    other = PositiveSystem(labels=("c", "d"), evaluate_values=lambda x: x)
    with pytest.raises(ValueError, match="different system"):
        sys.evaluate(other.state([1.0, 1.0]))


def test_sign_pattern_validation():
    for bad in (2, -2, 0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="-1, 0 or \\+1"):
            PositiveSystem(
                labels=("a", "b"),
                evaluate_values=lambda x: x,
                sign_pattern=np.array([[bad, 0], [0, 1]]),
            )
    for good in (np.array([[1.0, -1.0], [0.0, 1.0]]),
                 np.array([[True, False], [False, True]])):
        sys = PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                             sign_pattern=good)
        assert np.array_equal(sys.sign_pattern, good)
        assert not sys.sign_pattern.flags.writeable
        assert good.flags.writeable


def test_a_callable_sign_pattern_is_checked_on_first_read_as_an_array():
    # the same ValueError, from the first read (certify's included)
    # rather than the constructor, and nothing held after it
    cases = [(np.array([[2, 0], [0, 1]]), "-1, 0 or \\+1"),
             (np.array([[0.5, 0], [0, 1]]), "-1, 0 or \\+1"),
             (np.ones((2, 3), dtype=int), "must be N x N"),
             (np.ones(2, dtype=int), "must be N x N")]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                           sign_pattern=bad)
        calls = []
        sys = PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                             sign_pattern=lambda b=bad: calls.append(1) or b,
                             scaling=[1.0, 1.0])
        for read in (lambda: sys.sign_pattern, lambda: certify(sys, 2)):
            with pytest.raises(ValueError, match=message):
                read()
        assert len(calls) == 2



def test_a_declared_support_is_checked_in_o_nnz_with_the_pattern_errors():
    # (flat, signs) as a callable returning a _Support declares them: the
    # support reads them as they are, a read of sign_pattern scatters
    # them, and a bad declaration raises a wrong pattern's ValueError
    # from both
    def system(flat, signs):
        return PositiveSystem(
            labels=("a", "b"), evaluate_values=lambda x: np.sqrt(x * x[::-1]),
            sign_pattern=lambda: _Support(2, np.array(flat), np.array(signs)),
            scaling=[1.0, 1.0])

    sys = system([1, 2], [1, -1])
    assert sys._support.rows.tolist() == [0, 1]
    assert sys._support.cols.tolist() == [1, 0]
    assert sys._support.signs.tolist() == [1.0, -1.0]
    assert "pattern" not in vars(sys._support)      # the pattern not read
    assert sys.sign_pattern.tolist() == [[0, 1], [-1, 0]]
    assert sys.sign_pattern.dtype == np.int64
    for flat, signs, message in [
            ([2, 1], [1, 1], "must be N x N"),          # not increasing
            ([1, 1], [1, 1], "must be N x N"),          # repeated
            ([-1, 1], [1, 1], "must be N x N"),         # below 0
            ([1, 4], [1, 1], "must be N x N"),          # n^2 and above
            ([0.0, 1.0], [1, 1], "must be N x N"),      # not indices
            ([[1, 2]], [[1, 1]], "must be N x N"),
            ([1, 2], [1], "must be N x N"),
            ([1, 2], [1, 0], "-1, 0 or \\+1"),
            ([1, 2], [1, 2], "-1, 0 or \\+1"),
            ([1, 2], [1.0, np.nan], "-1, 0 or \\+1")]:
        for read in (lambda s: s.sign_pattern, lambda s: s._support,
                     lambda s: certify(s, 2)):
            with pytest.raises(ValueError, match=message):
                read(system(flat, signs))


@pytest.mark.parametrize("pattern,flat,signs,message", [
    ([[0, 1], [-1, 1]], [1, 2, 3], [1, -1, 1], None),
    ([[1.0, -1.0], [0.0, 0.0]], [0, 1], [1.0, -1.0], None),
    ([[True, False], [False, True]], [0, 3], [True, True], None),
    (np.zeros((2, 2)), [], [], None),
    ([[2, 0], [0, 1]], [0, 3], [2, 1], "-1, 0 or \\+1"),
    ([[np.nan, 0], [0, 1]], [0, 3], [np.nan, 1], "-1, 0 or \\+1"),
    (np.ones((2, 3)), range(6), np.ones(6), "must be N x N"),
])
def test_every_declaration_form_holds_one_support(pattern, flat, signs,
                                                  message):
    # an N x N array, a plain callable returning it and a callable
    # returning its _Support hold equal supports and read as equal
    # read-only int64 patterns; a wrong array raises at construction, a
    # wrong callable at the first read, with the same ValueError
    def system(declared):
        return PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                              sign_pattern=declared)

    callables = [lambda: pattern,
                 lambda: _Support(2, np.array(flat, dtype=int), signs)]
    if message is not None:
        with pytest.raises(ValueError, match=message):
            system(pattern)
        for declared in callables:
            sys = system(declared)
            for read in (lambda: sys.sign_pattern, lambda: sys._support):
                with pytest.raises(ValueError, match=message):
                    read()
        return
    systems = [system(pattern)] + [system(f) for f in callables]
    want = np.asarray(pattern).astype(np.int64)
    for sys in systems:
        support = sys._support
        for name in ("flat", "rows", "cols", "signs", "starts", "heads"):
            assert np.array_equal(getattr(support, name),
                                  getattr(systems[0]._support, name))
        assert support.signs.dtype == float
        held = sys.sign_pattern
        assert sys.sign_pattern is held and held.dtype == np.int64
        assert not held.flags.writeable and np.array_equal(held, want)


def test_a_callable_sign_pattern_is_called_at_most_once():
    # built on the first read, then held as a read-only int copy that a
    # later edit of the callable's array does not reach
    pattern = np.array([[1.0, 1.0], [1.0, 1.0]])
    calls = []
    sys = PositiveSystem(labels=("a", "b"),
                         evaluate_values=lambda x: np.sqrt(x * x[::-1]),
                         sign_pattern=lambda: calls.append(1) or pattern,
                         scaling=[1.0, 1.0])
    assert calls == []
    held = sys.sign_pattern
    assert sys.sign_pattern is held and held.dtype.kind == "i"
    assert not held.flags.writeable and pattern.flags.writeable
    pattern[0, 1] = 0.0
    rep = certify(sys, sample_count=3)
    assert rep.mode == "exact" and rep.monotonicity.verdict == "pass"
    assert held.tolist() == [[1, 1], [1, 1]] and calls == [1]


def test_sign_pattern_stays_a_dataclass_field():
    # replace carries the pattern over, and its default is still None
    calls = []
    sys = PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                         sign_pattern=lambda: calls.append(1) or np.eye(2),
                         elasticity_values=lambda x: np.eye(2))
    field = {f.name: f for f in dataclasses.fields(sys)}["sign_pattern"]
    assert field.default is None
    assert swap_system().sign_pattern is None
    copy = dataclasses.replace(sys, elasticity_values=None)
    assert copy.elasticity_values is None and calls == [1]
    assert copy.sign_pattern.tolist() == sys.sign_pattern.tolist() \
        == [[1, 0], [0, 1]]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys.sign_pattern = None


def test_support_values_need_a_sign_pattern():
    # the values are read in the order of the pattern's support, so a
    # system without one cannot give them
    with pytest.raises(ValueError, match="support_values needs a sign_pattern"):
        PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                       support_values=lambda x: np.ones(2))
    sys = PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                         sign_pattern=np.eye(2, dtype=int),
                         support_values=lambda x: np.ones(2))
    assert sys.support_values is not None


def test_scaling_must_be_finite_and_not_all_zero():
    # certify divides by max |scaling|, so an all-zero one was 0/0
    for bad in (np.zeros(2), [0.0, -0.0], [np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="finite and not all zero"):
            PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                           scaling=bad)
    sys = PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                         scaling=[0.0, 1.0])
    assert sys.scaling.tolist() == [0.0, 1.0]


def test_scaling_length_validation():
    for bad in (np.ones(3), np.ones(1), np.ones((2, 1)), 1.0):
        with pytest.raises(ValueError, match="scaling must have length N"):
            PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                           scaling=bad)
    sys = PositiveSystem(labels=("a", "b"), evaluate_values=lambda x: x,
                         scaling=[1, -1])
    assert sys.scaling.dtype == float
    assert sys.scaling.tolist() == [1.0, -1.0]


def test_value_types_keep_read_only_copies():
    pattern = np.array([[0, 1], [1, 0]])
    scaling = np.array([1.0, 1.0])
    E = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys = PositiveSystem(labels=("a", "b"),
                         evaluate_values=lambda x: x[::-1].copy(),
                         elasticity_values=lambda x: E,
                         sign_pattern=pattern, scaling=scaling)
    x = np.array([1.0, 2.0])
    state = sys.state(x)
    elas = elasticity_at(sys, state)
    pattern[0, 1] = 7
    scaling[0] = np.nan
    x[0] = -5.0
    E[0, 0] = 3.0       # the provider's array stays the caller's
    u = np.array([1.0, 1.0])
    cert = ScalingCertificate(u=u, residual_fixed_eq=0.0, residual_direct=0.0)
    u[0] = 2.0
    assert cert.u.tolist() == [1.0, 1.0]
    assert sys.sign_pattern.tolist() == [[0, 1], [1, 0]]
    assert sys.sign_pattern.dtype.kind == "i"
    assert sys.scaling.tolist() == [1.0, 1.0]
    assert state.values.tolist() == [1.0, 2.0]
    assert elas.entries[0, 0] == 0.0
    for held in (sys.sign_pattern, sys.scaling, state.values, elas.entries,
                 cert.u):
        assert not held.flags.writeable


def test_list_sign_pattern_still_certifies():
    sys = PositiveSystem(labels=("a", "b"),
                         evaluate_values=lambda x: np.sqrt(x * x[::-1]),
                         sign_pattern=[[1, 1], [1, 1]], scaling=[1.0, 1.0])
    rep = certify(sys, sample_count=2)
    assert rep.mode == "exact"
    assert rep.monotonicity.verdict == "pass"
