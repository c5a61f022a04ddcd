"""Abstract positive fixed-point systems and their log-coordinate view.

A system is a map F taking strictly positive vectors to strictly positive
vectors.  All of the theory used by the certifier lives in log
coordinates: with G = log o F o exp, fixed points of F correspond one to
one with fixed points of G, and the Jacobian of G at z = log x is the
matrix of elasticities

    DG(z)[j, k] = (x_k / F_j(x)) * dF_j/dx_k,

which is what the sign and spectral checks consume.  Systems may ship an
analytic elasticity provider; otherwise central finite differences in log
space are used (stepping in log coordinates gives relative steps for
free).

Coordinates are addressed by label everywhere.  For the built-in trade
models the stacking order is: all market-access coordinates
(country-major, sector-minor), then all price-index coordinates, then any
wage coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from scalefix.spectral import _strongly_connected, eigvals_mod_zero

__all__ = [
    "StateVector",
    "PositiveSystem",
    "ElasticityMatrix",
    "EvaluationError",
    "DifferentiationError",
    "log_transform",
    "elasticity_at",
]

NUMERIC_STEP = 1e-6


def _numeric(value, error: type[Exception], what: str) -> NDArray:
    """value as a float array, or `error` naming what returned it: a
    ragged list or a string fails numpy's conversion."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} returned a {type(value).__name__} that is "
                    f"not a numeric array ({exc})") from None


def _frozen(value, dtype=float) -> NDArray:
    """A read-only copy of value: the holder owns its data, so later edits
    to the caller's array do not reach it, and no reader can edit it."""
    a = np.array(value, dtype=dtype)
    a.setflags(write=False)
    return a


class EvaluationError(RuntimeError):
    """The system produced a non-positive or non-finite value.

    `coordinate` holds the label of the first offending entry;
    `sample_index` is set by callers that evaluate at numbered samples.
    """

    def __init__(self, message: str, coordinate: str | None = None):
        super().__init__(message)
        self.coordinate = coordinate
        self.sample_index: int | None = None


class DifferentiationError(RuntimeError):
    """An elasticity matrix, analytic or numeric, has a non-finite entry.

    `coordinate` holds the label of the row of the first such entry;
    `sample_index` is set by callers that evaluate at numbered samples.
    """

    def __init__(self, message: str, coordinate: str | None = None):
        super().__init__(message)
        self.coordinate = coordinate
        self.sample_index: int | None = None


@dataclass(frozen=True)
class StateVector:
    """Strictly positive point in the system's domain; values is a
    read-only copy."""

    values: NDArray[np.float64]
    labels: tuple[str, ...]

    def __post_init__(self):
        vals = _frozen(self.values)
        object.__setattr__(self, "values", vals)
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if vals.ndim != 1 or len(labels) != vals.shape[0]:
            raise ValueError("values and labels must have matching length")
        bad = ~(np.isfinite(vals) & (vals > 0.0))
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise EvaluationError(
                f"coordinate {labels[j]!r} is {float(vals[j])}; "
                "state entries must be positive and finite",
                coordinate=labels[j],
            )

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, label: str) -> float:
        return float(self.values[self.labels.index(label)])


@dataclass(frozen=True)
class ElasticityMatrix:
    """Log-Jacobian of the system at a point.

    entries[j, k] is the elasticity of F_j with respect to coordinate k
    at `point`: a finite read-only float copy, N x N for N coordinates
    (else DifferentiationError, also for a value numpy cannot convert,
    such as a ragged list).  `method` is "analytic" or
    "numeric-central-log".
    Immutable, so `spectrum` is computed at most once, however many read it.
    """

    entries: NDArray[np.float64]
    point: StateVector
    method: str

    def __post_init__(self):
        E = _frozen(_numeric(self.entries, DifferentiationError,
                             f"{self.method} elasticity"))
        n, labels = len(self.point), self.point.labels
        if E.shape != (n, n):
            raise DifferentiationError(f"{self.method} elasticity has shape "
                                       f"{E.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(E)):
            j, k = map(int, np.argwhere(~np.isfinite(E))[0])
            raise DifferentiationError(
                f"{self.method} elasticity of {labels[j]!r} with respect "
                f"to {labels[k]!r} is {float(E[j, k])}", coordinate=labels[j])
        object.__setattr__(self, "entries", E)

    @cached_property
    def spectrum(self) -> NDArray:
        """eigvals_mod_zero(entries); read-only, as all readers share it."""
        eigs = eigvals_mod_zero(self.entries)
        eigs.setflags(write=False)
        return eigs


class _Support:
    """Where a declared sign pattern lets DG be nonzero: `adjacency`, and its
    entries (rows, cols), at `flat` in the raveled matrix, in row-major
    order, with float `signs`.  Row heads[i]'s entries start at starts[i]."""

    def __init__(self, pattern: NDArray):
        self.adjacency = pattern != 0
        self.flat = np.flatnonzero(self.adjacency)
        self.signs = np.take(pattern, self.flat).astype(float)
        self.rows, self.cols = np.divmod(self.flat, len(pattern))
        self.starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        self.heads = self.rows[self.starts]
        self.self_loop = bool(np.any(self.rows == self.cols))

    @cached_property
    def connected(self) -> bool:
        # a DG nonzero on every support entry and zero off them has the
        # pattern's graph, so |DG| is irreducible exactly when this holds
        return _strongly_connected(self.adjacency)

    def scatter(self, values: NDArray, point: StateVector) -> ElasticityMatrix:
        """The analytic ElasticityMatrix at point with `values` on the
        support, 0 elsewhere: it holds this array, frozen, not a copy."""
        E = np.zeros(self.adjacency.shape)
        E.ravel()[self.flat] = values
        if not np.isfinite(values).all():   # the constructor names the entry
            return ElasticityMatrix(E, point, "analytic")
        E.setflags(write=False)
        held = ElasticityMatrix.__new__(ElasticityMatrix)
        held.__dict__.update(entries=E, point=point, method="analytic")
        return held


@dataclass(frozen=True)
class PositiveSystem:
    """A map F on the strictly positive orthant, addressed by labels.

    evaluate_values is the raw callable on value arrays; it must be
    deterministic, side-effect-free and reentrant.  elasticity_values,
    when given, returns the analytic elasticity matrix at a value array.
    sign_pattern, when given, fixes the sign of every elasticity entry
    across the whole domain (-1, 0, +1), which certification uses for
    exact sign verdicts.  support_values, only with a sign_pattern (else
    ValueError), returns DG's analytic values on the pattern's nonzero
    entries, in row-major order, and so declares DG 0 off the pattern;
    certify reads only those, and elasticity_at scatters them where
    elasticity_values is None, both on the support the system builds on
    first read, which solving never does.  scaling, when given, is a
    closed-form scaling direction u with F(c^u x) = c^u F(x): finite and
    not all zero (else ValueError), though single entries may be 0.  Both
    arrays are stored as read-only copies, sign_pattern as int.
    """

    labels: tuple[str, ...]
    evaluate_values: Callable[[NDArray[np.float64]], NDArray[np.float64]]
    elasticity_values: Callable[[NDArray[np.float64]], NDArray[np.float64]] | None = None
    sign_pattern: NDArray[np.int64] | None = None
    scaling: NDArray[np.float64] | None = None
    kind: str = "custom"
    meta: Mapping[str, Any] = field(default_factory=dict)
    support_values: Callable[[NDArray[np.float64]], NDArray[np.float64]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("a system needs at least one coordinate")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("coordinate labels must be unique")
        if self.sign_pattern is not None:
            p = np.asarray(self.sign_pattern)
            if p.shape != (self.dimension, self.dimension):
                raise ValueError("sign_pattern must be N x N")
            if not ((p == 0) | (np.abs(p) == 1)).all():
                raise ValueError("sign_pattern entries must be -1, 0 or +1")
            object.__setattr__(self, "sign_pattern", _frozen(p, int))
        elif self.support_values is not None:
            raise ValueError("support_values needs a sign_pattern")
        if self.scaling is not None:
            u = _frozen(self.scaling)
            if u.shape != (self.dimension,):
                raise ValueError("scaling must have length N")
            if not (np.all(np.isfinite(u)) and np.any(u != 0.0)):
                raise ValueError("scaling must be finite and not all zero")
            object.__setattr__(self, "scaling", u)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def state(self, values) -> StateVector:
        return StateVector(values, self.labels)

    @cached_property
    def _support(self) -> _Support:
        return _Support(self.sign_pattern)

    def _support_checked(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """support_values(x) as a read-only float copy, one value per
        support entry (else DifferentiationError)."""
        v = _frozen(_numeric(self.support_values(x), DifferentiationError,
                             "support_values"))
        if v.shape != self._support.flat.shape:
            raise DifferentiationError(f"support_values has shape {v.shape}, "
                                       f"expected {self._support.flat.shape}")
        return v

    def _eval_checked(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        # overflow/invalid deliberately silenced: the finiteness check
        # below turns them into coordinate-named errors
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            y = _numeric(self.evaluate_values(x), EvaluationError, "evaluate")
        if y.shape != (self.dimension,):
            raise EvaluationError(
                f"evaluate returned shape {y.shape}, expected ({self.dimension},)")
        if not (0.0 < y.min() and y.max() < np.inf):    # NaN fails both
            j = int(np.flatnonzero(~(np.isfinite(y) & (y > 0.0)))[0])
            raise EvaluationError(
                f"evaluate produced {float(y[j])} at coordinate "
                f"{self.labels[j]!r}",
                coordinate=self.labels[j],
            )
        return y

    def evaluate(self, x: StateVector) -> StateVector:
        if x.labels != self.labels:
            raise ValueError("state belongs to a different system")
        return StateVector(self._eval_checked(x.values), self.labels)


def log_transform(z, sys: PositiveSystem) -> NDArray[np.float64]:
    """G(z) = log F(exp z); fixed points of G are fixed points of F."""
    z = np.asarray(z, dtype=float)
    return np.log(sys._eval_checked(np.exp(z)))


def elasticity_at(sys: PositiveSystem, x: StateVector) -> ElasticityMatrix:
    """Elasticity matrix of the system at x.

    Uses the analytic provider when the system has one, elasticity_values
    or else support_values scattered onto the pattern; otherwise central
    differences in log coordinates with step 1e-6.  DifferentiationError
    if a provider's output is not a numeric N x N array (or one value per
    support entry), or if any method gives a non-finite entry.
    """
    if x.labels != sys.labels:
        raise ValueError("state belongs to a different system")
    if sys.elasticity_values is not None:
        return ElasticityMatrix(sys.elasticity_values(x.values), x, "analytic")
    if sys.support_values is not None:
        return sys._support.scatter(sys._support_checked(x.values), x)
    n = sys.dimension
    z = np.log(x.values)
    h = NUMERIC_STEP
    E = np.empty((n, n))
    for k in range(n):
        zp = z.copy()
        zp[k] += h
        zm = z.copy()
        zm[k] -= h
        gp = log_transform(zp, sys)
        gm = log_transform(zm, sys)
        E[:, k] = (gp - gm) / (2.0 * h)
    return ElasticityMatrix(E, x, "numeric-central-log")
