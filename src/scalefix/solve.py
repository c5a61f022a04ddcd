"""Fixed-point iteration in log coordinates with up-to-scale stopping.

The plain iteration is z_{n+1} = (1-d) z_n + d G(z_n) with
G = log o F o exp; by default safeguarded Anderson mixing over the last
few steps accelerates it, falling back to the plain step when a mixed
step does not reduce the residual.
Convergence is judged on the quotient of log space by the scaling
direction u (plain gauge norm when no u is known), then re-verified as a
relative residual on F itself before a run is reported converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from scalefix.spectral import quotient_norm
from scalefix.system import EvaluationError, PositiveSystem, StateVector, _quiet_fp

__all__ = [
    "NumeraireRule",
    "SolveOptions",
    "SolveResult",
    "NormalizationError",
    "iterate",
    "up_to_scale_distance",
    "normalize",
    "trace_to_csv",
]

Status = Literal["converged", "budget-exhausted", "evaluation-failed"]


class NormalizationError(ValueError):
    """The numeraire rule names no coordinate or has a zero exponent there."""


@dataclass(frozen=True)
class NumeraireRule:
    """How to pin the free scale after convergence.

    kind is one of "first-coordinate-one", "geometric-mean-one",
    "named-coordinate".  label names the target coordinate for
    named-coordinate; block restricts geometric-mean-one to coordinates
    whose label starts with the given prefix (all coordinates if None).
    """

    kind: str = "first-coordinate-one"
    label: str | None = None
    block: str | None = None

    _KINDS = ("first-coordinate-one", "geometric-mean-one", "named-coordinate")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown numeraire rule {self.kind!r}")
        if self.kind == "named-coordinate" and not self.label:
            raise ValueError("named-coordinate rule needs a label")

    @classmethod
    def first(cls) -> "NumeraireRule":
        return cls("first-coordinate-one")

    @classmethod
    def geometric_mean(cls, block: str | None = None) -> "NumeraireRule":
        return cls("geometric-mean-one", block=block)

    @classmethod
    def named(cls, label: str) -> "NumeraireRule":
        return cls("named-coordinate", label=label)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 10_000
    numeraire_rule: NumeraireRule = field(default_factory=NumeraireRule)
    damping: float = 1.0
    anderson: int = 5

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:     # NaN fails too
            raise ValueError("tol must be positive and finite")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not _integer_at_least(self.max_iter, 1):
            raise ValueError("max_iter must be an integer of at least 1")
        if not _integer_at_least(self.anderson, 0):
            raise ValueError("anderson must be an integer of at least 0")


def _integer_at_least(value, low: int) -> bool:
    # bool is an int subclass; range() and array shapes take no float
    return (not isinstance(value, bool)
            and isinstance(value, (int, np.integer)) and value >= low)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    step_gauge[n] and step_quotient[n] are the gauge and quotient norms
    of z_{n+1} - z_n; decay_rate is the empirical geometric rate fitted
    to the tail of step_gauge, offered as a diagnostic only since the
    theory promises no rate.  It is None when the trace is too short, and
    when any step taken was mixed, since mixed steps estimate no rate.
    """

    x_star: StateVector
    status: Status
    iterations: int
    step_gauge: NDArray[np.float64]
    step_quotient: NDArray[np.float64]
    normalization_scalar: float
    decay_rate: float | None
    message: str = ""

    @property
    def residual_trace(self) -> list[tuple[float, float]]:
        return list(zip(self.step_gauge.tolist(), self.step_quotient.tolist()))


def _decay_rate(steps: NDArray[np.float64]) -> float | None:
    n = steps.shape[0]
    if n < 6:
        return None
    m = n // 2
    a, b = float(steps[m]), float(steps[-1])
    if a <= 0.0 or b <= 0.0:
        return None
    return float((b / a) ** (1.0 / (n - 1 - m)))


# after this many rejected mixed steps a solve runs plain to the end, so
# the plain iteration's convergence covers every certified model
MAX_REJECTIONS = 8


class _Mixing:
    """Anderson's history of the last m differences of the residual f and
    of the damped map g, in a preallocated ring, with the Gram matrix of
    the f differences updated one row per step."""

    __slots__ = ("dF", "dG", "gram", "k", "slot", "rejections")

    def __init__(self, m: int, n: int):
        self.dF, self.dG = np.empty((m, n)), np.empty((m, n))
        self.gram = np.empty((m, m))
        self.k = self.slot = self.rejections = 0

    def record(self, f_new, f, g_new, g) -> None:
        p, k = self.slot, min(self.k + 1, self.gram.shape[0])
        dF = self.dF[:k]
        np.subtract(f_new, f, out=self.dF[p])
        np.subtract(g_new, g, out=self.dG[p])
        row = dF @ dF[p]
        self.gram[p, :k] = row
        self.gram[:k, p] = row
        self.k, self.slot = k, (p + 1) % self.gram.shape[0]

    def proposal(self, f, g):
        """g - dG^T gamma with gamma minimising |f - dF^T gamma|, from the
        Gram system; None when that system is singular or its solution
        not finite."""
        k = self.k
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], self.dF[:k] @ f)
        except np.linalg.LinAlgError:
            return None
        if not math.isfinite(gamma.dot(gamma)):
            return None
        return g - gamma @ self.dG[:k]

    def reject(self) -> bool:
        """Clear the history; False once the solve must run plain."""
        self.k = self.slot = 0
        self.rejections += 1
        return self.rejections < MAX_REJECTIONS


def iterate(sys: PositiveSystem, x0: StateVector, u=None,
            opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Run the damped fixed-point iteration from x0, with safeguarded
    Anderson mixing of depth opts.anderson (0: the plain iteration).

    When u is given it must be finite and nonzero in every coordinate;
    |u| is the gauge, steps are measured modulo span(u), and a numeraire
    rule naming no coordinate raises NormalizationError before F runs.
    A run only reports converged once the quotient step is below tol AND
    the relative residual max_j |F(x)_j - x_j| / x_j is below tol.  So
    tol bounds the last step and the residual, not the distance to the
    fixed point x*: near a contraction rate of 1 that distance is about
    tol / (1 - rate), 2.1e-8 relative at tol 1e-10 for a plain run whose
    steps decayed by 0.9907 each.

    The plain step is z -> g(z) = (1-d) z + d G(z).  Mixing (Walker & Ni,
    Type II) proposes g(z) - dG^T gamma, where gamma fits the residual
    f = g(z) - z by the last m differences dF of f, and keeps it only
    when max|f| falls there.  A proposal that is not kept, whose
    least-squares system is singular, or where F fails, clears the
    history and the plain step is taken; after MAX_REJECTIONS such
    rejections the run is plain to the end.  Only a failure of F at a
    plain step ends the run as evaluation-failed, on the last iterate.
    The step traces record the steps taken.

    Mixing evaluates F at points off the plain iteration's path.  F must
    report a point outside its domain by returning a value that is not
    positive and finite, which makes that point a rejection; any
    exception other than EvaluationError that F raises ends the solve.

    Each evaluation of F takes the log of its output, checked by one
    test that a sum over its entries is finite.  The loop runs inside
    one errstate, entered once per solve, under which F's overflow and
    invalid values become an evaluation failure.
    """
    if x0.labels != sys.labels:
        raise ValueError("x0 belongs to a different system")
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.shape != (sys.dimension,):
            raise ValueError("u has wrong dimension")
        if np.any(u == 0.0) or not np.all(np.isfinite(u)):
            raise ValueError("gauge from u needs every u_j finite and nonzero")
        _pinned(x0.labels, u, opts.numeraire_rule)

    F, d, z = sys.evaluate_values, opts.damping, np.log(x0.values)
    mix = _Mixing(opts.anderson, z.size) if opts.anderson else None
    gauge_steps: list[float] = []
    quot_steps: list[float] = []
    status, it, msg, mixed = "evaluation-failed", 0, "", False

    def at(v, residual: bool):
        """G(v), g(v), and with residual f(v) and max|f(v)|; raises
        EvaluationError where F fails at v."""
        Gv = sys._checked(F(np.exp(v)))[1]
        # d == 1 is exact: 0*v + 1*Gv is Gv for finite v
        gv = Gv if d == 1.0 else (1.0 - d) * v + d * Gv
        if not residual:
            return Gv, gv, None, None
        fv = gv - v
        return Gv, gv, fv, np.abs(fv).max()

    with _quiet_fp():
        try:
            _, g, f, fmax = at(z, mix is not None)
            for it in range(1, opts.max_iter + 1):
                z_next = None
                if mix is not None and mix.k:
                    z_next = mix.proposal(f, g)
                    if z_next is not None:
                        try:
                            Gz_next, g_next, f_next, fmax_next = at(z_next,
                                                                    True)
                        except EvaluationError:
                            fmax_next = math.nan
                    if z_next is None or not fmax_next < fmax:  # NaN fails
                        z_next = None
                        if not mix.reject():
                            mix = None
                plain = z_next is None
                if plain:
                    z_next = g
                else:
                    mixed = True
                step = z_next - z
                if u is None:
                    sg = sq = float(np.abs(step).max())
                else:
                    # |step|/|u| is |step/u| bit for bit, so one quotient
                    # gives the gauge norm and half the spread
                    q = step / u
                    hi, lo = q.max(), q.min()
                    sg, sq = float(max(hi, -lo)), float(0.5 * (hi - lo))
                gauge_steps.append(sg)
                quot_steps.append(sq)
                if plain:
                    # an EvaluationError here ends the run on iterate z
                    Gz_next, g_next, f_next, fmax_next = at(z_next,
                                                            mix is not None)
                if sq <= opts.tol and float(np.max(np.abs(np.expm1(
                        Gz_next - z_next)))) <= opts.tol:
                    status, z = "converged", z_next
                    break
                if mix is not None:
                    mix.record(f_next, f, g_next, g)
                    f, fmax = f_next, fmax_next
                z, g = z_next, g_next
            else:
                status = "budget-exhausted"
                msg = (f"no convergence in {opts.max_iter} iterations; "
                       f"last steps gauge={gauge_steps[-1]:.3e} "
                       f"quotient={quot_steps[-1]:.3e}")
        except EvaluationError as exc:
            msg = str(exc)
    c = 1.0
    if status == "converged" and u is not None:
        x_norm, c = normalize(sys.state(np.exp(z)), u, opts.numeraire_rule)
        z = np.log(x_norm.values)
    sg = np.asarray(gauge_steps)
    return SolveResult(
        x_star=sys.state(np.exp(z)),
        status=status,
        iterations=it,
        step_gauge=sg,
        step_quotient=np.asarray(quot_steps),
        normalization_scalar=c,
        decay_rate=None if mixed else _decay_rate(sg),
        message=msg,
    )


def up_to_scale_distance(x: StateVector, y: StateVector, u) -> float:
    """Distance between x and y modulo the scaling family c^u.

    Zero exactly when y = c^u x for some c > 0.
    """
    u = np.asarray(u, dtype=float)
    if x.values.shape != y.values.shape or u.shape != x.values.shape:
        raise ValueError("dimension mismatch")
    return quotient_norm(np.log(x.values) - np.log(y.values), u, np.abs(u))


def _pinned(labels: tuple[str, ...], u: NDArray,
            rule: NumeraireRule) -> NDArray[np.int64]:
    """The coordinates whose log-sum the rule sets to 0.  Raises
    NormalizationError when the rule names none or their scaling
    exponents sum to 0."""
    if rule.kind == "geometric-mean-one":
        block = rule.block or ""
        idx = np.flatnonzero([name.startswith(block) for name in labels])
        if idx.size == 0:
            raise NormalizationError(
                f"no coordinate label starts with {block!r}")
        zero = "cannot normalize: block scaling exponents sum to 0"
    else:
        label = (labels[0] if rule.kind == "first-coordinate-one"
                 else rule.label)
        if label not in labels:
            raise NormalizationError(f"no coordinate label is {label!r}")
        idx = np.array([labels.index(label)])
        zero = f"cannot normalize at {label!r}: scaling exponent is 0"
    if float(u[idx].sum()) == 0.0:
        raise NormalizationError(zero)
    return idx


def normalize(x: StateVector, u, rule: NumeraireRule) -> tuple[StateVector, float]:
    """Rescale x along the scaling family so the numeraire rule holds.

    Returns (c^u * x, c); ln c is the solution of one linear equation.
    Applying the same rule twice gives c = 1 the second time.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != x.values.shape:
        raise ValueError("dimension mismatch")
    idx = _pinned(x.labels, u, rule)
    lx = np.log(x.values)
    lnc = -float(lx[idx].sum()) / float(u[idx].sum())
    scaled = StateVector(np.exp(lx + lnc * u), x.labels)
    return scaled, float(np.exp(lnc))


def trace_to_csv(res: SolveResult) -> str:
    """Residual traces as comma-separated text: iteration, step_gauge, step_quotient."""
    n = len(res.step_gauge)
    cells = chain.from_iterable(zip(range(1, n + 1), res.step_gauge.tolist(),
                                    res.step_quotient.tolist()))
    return ("iteration,step_gauge,step_quotient\n"
            + "%d,%.17g,%.17g\n" * n % tuple(cells))
