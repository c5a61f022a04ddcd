"""Fixed-point iteration in log coordinates with up-to-scale stopping.

The iteration is z_{n+1} = (1-d) z_n + d G(z_n) with G = log o F o exp.
Convergence is judged on the quotient of log space by the scaling
direction u (plain gauge norm when no u is known), then re-verified as a
relative residual on F itself before a run is reported converged.
"""

from __future__ import annotations

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

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:     # NaN fails too
            raise ValueError("tol must be positive and finite")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        m = self.max_iter     # bool is an int subclass; range() takes no float
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    step_gauge[n] and step_quotient[n] are the gauge and quotient norms
    of z_{n+1} - z_n; decay_rate is the empirical geometric rate fitted
    to the tail of step_gauge (None when the trace is too short), offered
    as a diagnostic only since the theory promises no rate.
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


def iterate(sys: PositiveSystem, x0: StateVector, u=None,
            opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Run the damped fixed-point iteration from x0.

    When u is given it must be finite and nonzero in every coordinate;
    |u| is the gauge, steps are measured modulo span(u), and a numeraire
    rule naming no coordinate raises NormalizationError before F runs.
    A run only reports converged once the quotient step is below tol AND
    the relative residual max_j |F(x)_j - x_j| / x_j is below tol.

    One iteration evaluates F once, at exp z, takes the log of its
    output, checked by one test that a sum over its entries is finite,
    and forms the damped update and the two step norms.  The loop runs
    inside one errstate, entered once per solve, under which F's
    overflow and invalid values become an evaluation-failed result.
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
    gauge_steps: list[float] = []
    quot_steps: list[float] = []
    status, it, msg = "evaluation-failed", 0, ""
    with _quiet_fp():
        try:
            Gz = sys._checked(F(np.exp(z)))[1]
            for it in range(1, opts.max_iter + 1):
                # d == 1 is exact: 0*z + 1*Gz is Gz for finite z
                z_next = Gz if d == 1.0 else (1.0 - d) * z + d * Gz
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
                # an EvaluationError here ends the run on iterate z
                Gz_next = sys._checked(F(np.exp(z_next)))[1]
                if sq <= opts.tol and float(np.max(np.abs(np.expm1(
                        Gz_next - z_next)))) <= opts.tol:
                    status, z = "converged", z_next
                    break
                z, Gz = z_next, Gz_next
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
        decay_rate=_decay_rate(sg),
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
