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
free).  This module owns both ways a DG is held, a dense ElasticityMatrix
and a _SupportDG of values on a declared support, and gives both the
private operations certification asks for.

Coordinates are addressed by label everywhere.  For the built-in trade
models the stacking order is: all market-access coordinates
(country-major, sector-minor), then all price-index coordinates, then any
wage coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from scalefix.spectral import (
    _components,
    _strongly_connected,
    _strongly_connected_edges,
    eigvals_mod_zero,
)

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


class _CoordinateError(RuntimeError):
    """The shape both errors below share: `coordinate` names a label, and
    `sample_index` is set by callers that evaluate at numbered samples.
    Neither error subclasses the other, so each except catches one."""

    def __init__(self, message: str, coordinate: str | None = None):
        super().__init__(message)
        self.coordinate = coordinate
        self.sample_index: int | None = None


class EvaluationError(_CoordinateError):
    """The system produced a non-positive or non-finite value.

    `coordinate` holds the label of the first offending entry.
    """


class DifferentiationError(_CoordinateError):
    """An elasticity matrix, analytic or numeric, has a non-finite entry.

    `coordinate` holds the label of the row of the first such entry.
    """


def _positive(v: NDArray, labels, message: str) -> None:
    """EvaluationError at the first v_j that is not positive and finite,
    if any, with message.format(its label, v_j)."""
    bad = ~(np.isfinite(v) & (v > 0.0))
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise EvaluationError(message.format(labels[j], float(v[j])),
                              coordinate=labels[j])


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
        _positive(vals, labels, "coordinate {0!r} is {1}; state entries "
                  "must be positive and finite")

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

    # What certify asks of a DG, which _SupportDG answers on its support.
    # d is sign(u) as +-1 and D = diag(d): DG obeys the block rule of u,
    # >= 0 within a block of sign(u) and <= 0 across, where D DG D >= 0

    def _dot(self, x: NDArray, absolute: bool = False) -> NDArray:
        """DG x, or |DG| x; overflow gives inf, not a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.abs(self.entries) if absolute else self.entries) @ x

    def _ddgd(self, d: NDArray) -> NDArray:
        """D DG D: each entry times +-1, so |DG| bit for bit where >= 0."""
        return d[:, None] * self.entries * d

    def _witnesses(self, d: NDArray, tol: float = 0.0,
                   ) -> tuple[NDArray, NDArray]:
        """The entries where D DG D < -tol, in row-major order: their
        indices in the raveled DG, and their values."""
        flat = np.flatnonzero(self._ddgd(d) < -tol)
        return flat, np.take(self.entries, flat)

    def _irreducible(self) -> bool:
        return _strongly_connected(self.entries != 0)

    def _self_loop(self) -> bool:
        return bool(np.diag(self.entries).any())


class _Support:
    """Where a declared sign pattern lets an n x n DG be nonzero, held in
    O(nnz): its entries at `flat` in the raveled matrix, at (rows, cols),
    with float `signs` +-1.  Made from (flat, signs) as a declaration
    gives them, checked in O(nnz) with the ValueErrors of a wrong N x N
    pattern: flat indexes the raveled N x N matrix, strictly increasing,
    so in row-major order, and below n^2, with one sign +-1 at each.  Row
    heads[i]'s entries start at starts[i].  Its graph's connectedness and
    components are read off (rows, cols), and `pattern` scatters the
    N x N sign pattern only when read."""

    def __init__(self, n: int, flat, signs):
        flat, signs = np.asarray(flat), np.asarray(signs)
        if not (flat.ndim == 1 and flat.dtype.kind in "iu"
                and signs.shape == flat.shape
                and (flat.size == 0 or 0 <= flat[0] and flat[-1] < n * n)
                and np.all(flat[1:] > flat[:-1])):
            raise ValueError("sign_pattern must be N x N")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("sign_pattern entries must be -1, 0 or +1")
        self.n = n
        self.flat = flat.astype(np.intp, copy=False)
        self.signs = np.asarray(signs, dtype=float)
        self.rows = self.flat // n
        self.cols = self.flat - self.rows * n
        self.starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        self.heads = self.rows[self.starts]
        self.self_loop = bool(np.any(self.rows == self.cols))
        self._flips = (None, None)

    @cached_property
    def pattern(self) -> NDArray[np.int64]:
        """The N x N sign pattern, scattered on first read and held,
        read-only."""
        pattern = np.zeros((self.n, self.n), dtype=np.int64)
        pattern.ravel()[self.flat] = self.signs
        pattern.setflags(write=False)
        return pattern

    @property
    def declared(self) -> _SupportDG:
        # made on each read: held here, it would make a reference cycle
        # that keeps the support alive until the garbage collector runs
        return _SupportDG(self, self.signs, None)

    @cached_property
    def connected(self) -> bool:
        # a DG nonzero on every support entry and zero off them has the
        # pattern's graph, so |DG| is irreducible exactly when this holds
        return _strongly_connected_edges(self.n, self.rows, self.cols)

    def components(self) -> list[list[int]]:
        """The strongly connected components of the pattern's graph."""
        return _components(self.n, self.rows, self.cols)

    def flips(self, d: NDArray) -> NDArray:
        """d[rows] * d[cols], the sign D DG D gives each entry, for the
        last d asked; each factor is +-1, so products with it are exact."""
        key = d.tobytes()
        held, flips = self._flips
        if held != key:
            flips = d[self.rows] * d[self.cols]
            self._flips = (key, flips)
        return flips

    def scatter(self, values: NDArray, point: StateVector) -> ElasticityMatrix:
        """The analytic ElasticityMatrix at point with `values` on the
        support, 0 elsewhere: it holds this array, frozen, not a copy."""
        E = np.zeros((self.n, self.n))
        E.ravel()[self.flat] = values
        if not np.isfinite(values).all():   # the constructor names the entry
            return ElasticityMatrix(E, point, "analytic")
        E.setflags(write=False)
        held = ElasticityMatrix.__new__(ElasticityMatrix)
        held.__dict__.update(entries=E, point=point, method="analytic")
        return held


def _pattern_support(n: int, pattern) -> _Support:
    """The _Support of an N x N sign pattern, checked (else ValueError)."""
    p = np.asarray(pattern)
    if p.shape != (n, n):
        raise ValueError("sign_pattern must be N x N")
    if not ((p == 0) | (np.abs(p) == 1)).all():
        raise ValueError("sign_pattern entries must be -1, 0 or +1")
    flat = np.flatnonzero(p)
    return _Support(n, flat, np.take(p, flat))


class _SupportDG:
    """DG at one sample as `values` = DG[rows, cols] on a _Support: finite,
    none of them 0, and DG 0 elsewhere by the declaration.  Stands in for
    an ElasticityMatrix: `entries` and `spectrum` read `dense`, DG
    scattered from `values`, built only where a sample needs it, and
    ElasticityMatrix's private operations cost O(nnz) here."""

    def __init__(self, support: _Support, values: NDArray,
                 point: StateVector | None):
        self.support, self.values, self.point = support, values, point

    @cached_property
    def dense(self) -> ElasticityMatrix:
        return self.support.scatter(self.values, self.point)

    @property
    def entries(self) -> NDArray:
        return self.dense.entries

    @property
    def spectrum(self) -> NDArray:
        return self.dense.spectrum

    def _dot(self, x: NDArray, absolute: bool = False) -> NDArray:
        s = self.support
        with np.errstate(over="ignore", invalid="ignore"):
            p = self.values * x[s.cols]
            out = np.zeros(len(x))
            out[s.heads] = np.add.reduceat(np.abs(p) if absolute else p,
                                           s.starts)
        return out

    def _ddgd(self, d: NDArray) -> NDArray:
        return self.support.flips(d) * self.values

    def _witnesses(self, d: NDArray, tol: float = 0.0,
                   ) -> tuple[NDArray, NDArray]:
        bad = np.flatnonzero(self._ddgd(d) < -tol)
        return self.support.flat[bad], self.values[bad]

    def _irreducible(self) -> bool:
        return self.support.connected

    def _self_loop(self) -> bool:
        return self.support.self_loop


_DG = ElasticityMatrix | _SupportDG


def _worst(E: _DG, d: NDArray) -> float:
    """max |DG| over the entries of E against the block rule of d, +0.0
    if none: the most negative entry of D DG D, negated."""
    return max(0.0, -float(np.min(E._ddgd(d), initial=0.0)))


class _LazyPattern:
    """PositiveSystem.sign_pattern, a field whose default is this
    descriptor.  It keeps what the constructor was given in the
    instance's __dict__, where the system's _support replaces it by the
    checked _Support, and reads as that support's pattern."""

    HELD = "_sign_pattern"

    def __get__(self, sys, owner=None):
        if sys is None:
            return None     # the field's default
        support = sys._support
        return None if support is None else support.pattern

    def __set__(self, sys, value):
        # only __init__ gets here: the frozen class's __setattr__ raises
        sys.__dict__[self.HELD] = value


@dataclass(frozen=True)
class PositiveSystem:
    """A map F on the strictly positive orthant, addressed by labels.

    evaluate_values is the raw callable on value arrays; it must be
    deterministic, side-effect-free and reentrant.  elasticity_values,
    when given, returns the analytic elasticity matrix at a value array.
    sign_pattern, when given, fixes the sign of every elasticity entry
    across the whole domain (-1, 0, +1), which certification uses for
    exact sign verdicts.  It is an N x N array, or a zero-argument
    callable returning one: an array is checked here, a callable only
    on the first read of sign_pattern or of the system's support, which
    calls it once, so a system that is only solved never calls it.  A
    wrong one raises the same ValueError either way.  Once checked, the
    system holds the pattern's support, its nonzero entries, in O(nnz),
    and sign_pattern reads as the read-only int64 pattern scattered from
    it on first read.  The multi-sector model's callable returns that
    support itself, made from its blocks, so certify, which reads the
    support alone, never lays out the N x N pattern.
    support_values, only with a sign_pattern (else ValueError), returns
    DG's analytic values on the pattern's nonzero entries, in row-major
    order, and so declares DG 0 off the pattern; certify reads only
    those, and elasticity_at scatters them where elasticity_values is
    None, both on the system's support, which solving never reads.
    scaling, when given, is a closed-form scaling direction u with
    F(c^u x) = c^u F(x): finite and not all zero (else ValueError),
    though single entries may be 0; it is stored as a read-only copy.
    """

    labels: tuple[str, ...]
    evaluate_values: Callable[[NDArray[np.float64]], NDArray[np.float64]]
    elasticity_values: Callable[[NDArray[np.float64]], NDArray[np.float64]] | None = None
    sign_pattern: NDArray[np.int64] | None = _LazyPattern()
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
        given = self.__dict__[_LazyPattern.HELD]
        if given is None:
            if self.support_values is not None:
                raise ValueError("support_values needs a sign_pattern")
        elif not callable(given):
            self.__dict__[_LazyPattern.HELD] = _pattern_support(
                self.dimension, given)
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

    @property
    def _support(self) -> _Support | None:
        """The declared support, or None where no sign pattern is
        declared.  A callable is called on the first read, and what it
        returns, a _Support of this size or else an N x N pattern, is
        checked and held in its place; a wrong one raises the ValueError
        of sign_pattern, and the callable stays held."""
        held = self.__dict__[_LazyPattern.HELD]
        if callable(held):
            held = held()
            if not isinstance(held, _Support):
                held = _pattern_support(self.dimension, held)
            self.__dict__[_LazyPattern.HELD] = held
        return held

    def _support_checked(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """support_values(x) as a read-only float copy, one value per
        support entry (else DifferentiationError)."""
        v = _frozen(_numeric(self.support_values(x), DifferentiationError,
                             "support_values"))
        if v.shape != self._support.flat.shape:
            raise DifferentiationError(f"support_values has shape {v.shape}, "
                                       f"expected {self._support.flat.shape}")
        return v

    def _checked(self, y) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """y, an output of evaluate_values, as a float array with one
        positive finite value per coordinate, and log y; else
        EvaluationError.  One test: the sum of (log y_j)^2, each at most
        745^2, is finite exactly when every y_j is positive and finite.
        Run under _quiet_fp(): a cast may overflow, and the log of a 0
        or negative y_j warns."""
        y = _numeric(y, EvaluationError, "evaluate")
        if y.shape != (len(self.labels),):
            raise EvaluationError(
                f"evaluate returned shape {y.shape}, expected ({self.dimension},)")
        g = np.log(y)
        if not math.isfinite(g.dot(g)):     # BLAS: faster than g.sum()
            _positive(y, self.labels, "evaluate produced {1} at coordinate {0!r}")
        return y, g

    def _eval_checked(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        # overflow/invalid deliberately silenced: the finiteness check
        # turns them into coordinate-named errors
        with _quiet_fp():
            return self._checked(self.evaluate_values(x))[0]

    def evaluate(self, x: StateVector) -> StateVector:
        if x.labels != self.labels:
            raise ValueError("state belongs to a different system")
        return StateVector(self._eval_checked(x.values), self.labels)


def _support_dg(sys: PositiveSystem, x: StateVector) -> _DG:
    """DG at x from sys.support_values, checked in O(nnz): a 0 or a
    non-finite value gives the dense DG, as elasticity_at scatters it,
    which then raises its DifferentiationError for the latter."""
    v = sys._support_checked(x.values)
    dg = _SupportDG(sys._support, v, x)
    return dg if np.isfinite(v).all() and v.all() else dg.dense


def _quiet_fp():
    """The errstate under which F runs and its output is checked: F's
    overflow, invalid and divide results become EvaluationErrors."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def log_transform(z, sys: PositiveSystem) -> NDArray[np.float64]:
    """G(z) = log F(exp z); fixed points of G are fixed points of F.

    One call evaluates F once, at exp z, and takes the log of its
    output, checked by one test that a sum over its entries is finite:
    EvaluationError if any F_j is not positive and finite, or if F's
    output is not one number per coordinate.
    """
    x = np.exp(np.asarray(z, dtype=float))
    with _quiet_fp():
        return sys._checked(sys.evaluate_values(x))[1]


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
