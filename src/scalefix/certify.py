"""Certification of the four structural properties behind up-to-scale
uniqueness, plus the spectral evidence that backs them.

The four properties, checked at sampled states (or symbolically for the
built-in models, whose elasticity signs are parameter-determined):

  connectedness      every coordinate influences every other, possibly
                     indirectly: |DG(z)| is irreducible
  self-interaction   some coordinate feeds back on itself: a nonzero
                     diagonal elasticity entry
  scaling            a direction u with F(c^u x) = c^u F(x), equivalently
                     DG(z) u = u everywhere
  monotonicity       after splitting coordinates by the sign of u,
                     within-block elasticities are >= 0 and cross-block
                     ones <= 0

A "pass" verdict is only issued in exact mode, where the sign structure
is known symbolically.  Sample-based runs can at best report
"evidence-only"; a single numeric counterexample still yields a hard
"fail" since the properties are universally quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from scalefix.spectral import (
    PowerIterationError,
    ReducibleMatrixError,
    _check_gauge,
    _dominant_ritz,
    _perron_root,
    _strongly_connected,
    eigvals_mod_zero,
    strongly_connected_components,
)
from scalefix.system import (
    ElasticityMatrix,
    PositiveSystem,
    StateVector,
    _frozen,
    _Support,
    elasticity_at,
)

__all__ = [
    "CheckResult",
    "SignPartition",
    "ScalingCertificate",
    "SpectralEvidence",
    "CertificationReport",
    "AmbiguousScalingError",
    "sample_states",
    "check_connectedness",
    "check_self_interaction",
    "find_scaling_exponent",
    "check_monotonicity",
    "check_spectral",
    "certify",
]

TOL_SIGN = 1e-10          # numeric zero for sign classification
TOL_DIAG = 1e-10          # diagonal threshold, relative to its row max
TOL_EIGENVALUE = 1e-8     # window around 1 for the scaling eigenvalue
TOL_RESIDUAL = 1e-6       # scaling-law verification ceiling
NEAR_ONE = 1e-6           # eigenvalue window around 1 in check_spectral
SCALE_TEST_FACTORS = (0.5, 2.0, 10.0)


class AmbiguousScalingError(RuntimeError):
    """The eigenspace for eigenvalue 1 has dimension above one.

    The theory precludes this when the other conditions hold, so seeing
    it is itself diagnostic of a condition violation.
    """


@dataclass(frozen=True)
class CheckResult:
    verdict: str              # pass | fail | evidence-only | absent | skipped | error
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "evidence-only")


@dataclass(frozen=True)
class SignPartition:
    """Coordinate labels split by the sign of the scaling direction."""

    zeta_plus: tuple[str, ...]
    zeta_minus: tuple[str, ...]


@dataclass(frozen=True)
class ScalingCertificate:
    """A verified scaling direction, normalized to max |u_j| = 1."""

    u: NDArray[np.float64]
    residual_fixed_eq: float    # max over samples of inf-norm of DG u - u
    residual_direct: float      # max relative deviation of the scale law
    normalization: str = "max-abs-one"

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen(self.u))


@dataclass(frozen=True)
class SpectralEvidence:
    """Per-sample spectral facts about DG and its entrywise absolute value."""

    # spectral radius of |DG| per sample: the midpoint of a bracket
    # proved by a matvec, but for check_spectral's dense fallback
    rho: tuple[float, ...]
    max_rho_deviation: float          # max |rho - 1|
    eigvec_residual: float | None     # max inf-norm of |DG||u| - |u|
    # max |D DG D - |DG||, D = diag(sign u): 2 max |DG| over the entries
    # against the block rule; None without a zero-free u
    similarity_residual: float | None
    # 1 the only eigenvalue on the unit circle at every sample, and the
    # min of 1 - second modulus over the samples where that was not
    # derived, as check_spectral finds them: no verdict reads either
    unique_modulus_one: bool | None
    spectral_gap: float | None
    # (min lower, max upper) of the proved Collatz-Wielandt brackets, each
    # rho inside its own; None when some sample has none
    rho_bracket: tuple[float, float] | None = None


@dataclass(frozen=True)
class CertificationReport:
    connectedness: CheckResult
    self_interaction: CheckResult
    scaling: CheckResult
    monotonicity: CheckResult
    certificate: ScalingCertificate | None
    partition: SignPartition | None
    spectral: SpectralEvidence | None
    samples: tuple[StateVector, ...]
    sample_seed: int
    mode: str                         # exact | sampled
    uniqueness_applicable: bool
    attractivity_applicable: bool
    scaling_free_radius_one: bool     # rho(|DG|) = 1 yet no scaling direction
    system_kind: str
    labels: tuple[str, ...]
    differentiation: str              # analytic | numeric-central-log


def sample_states(sys: PositiveSystem, count: int, seed: int) -> list[StateVector]:
    """Deterministic log-uniform draws over [e^-3, e^3] per coordinate."""
    if count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    return [sys.state(np.exp(rng.uniform(-3.0, 3.0, size=sys.dimension)))
            for _ in range(count)]


def _at_sample(idx: int, fn, *args):
    """fn(*args), recording idx on any Exception: F is the caller's code."""
    try:
        return fn(*args)
    except Exception as exc:
        exc.sample_index = idx
        raise


def _error_verdict(exc: Exception) -> CheckResult:
    # our own errors' messages name the coordinate
    return CheckResult("error", {"error": f"{type(exc).__name__}: {exc}",
                                 "sample_index": getattr(exc, "sample_index",
                                                         None)})


def _need_samples(samples: Sequence[StateVector]) -> None:
    if not samples:
        raise ValueError("need at least one sample")


class _SupportDG:
    """DG at one sample as `values` = DG[rows, cols] from support_values:
    finite, none of them 0, and DG 0 elsewhere by the declaration.  Stands
    in for an ElasticityMatrix: `entries` and `spectrum` read `dense`, DG
    scattered from `values`, built only where a sample needs it."""

    def __init__(self, support: _Support, values: NDArray, point: StateVector):
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


_DG = ElasticityMatrix | _SupportDG


def _support_dg(sys: PositiveSystem, x: StateVector) -> _DG:
    """DG at x from sys.support_values, checked in O(nnz): a 0 or a
    non-finite value gives the dense DG, as elasticity_at scatters it,
    which then raises its DifferentiationError for the latter."""
    v = sys._support_checked(x.values)
    dg = _SupportDG(sys._support, v, x)
    return dg if np.isfinite(v).all() and v.all() else dg.dense


def _elasticities(sys: PositiveSystem,
                  samples: Sequence[StateVector]) -> list[_DG]:
    """Each sample's DG, built and checked in sample order, so an error
    names the first bad sample; a _SupportDG where sys gives its values."""
    build = elasticity_at if sys.support_values is None else _support_dg
    first = _at_sample(0, build, sys, samples[0])
    first.entries   # sample 0's spectrum needs it: least peak if built now
    return [first] + [_at_sample(idx, build, sys, x)
                      for idx, x in enumerate(samples) if idx > 0]


def _dot(E: _DG, x: NDArray, absolute: bool = False) -> NDArray:
    """DG x, or |DG| x for x >= 0 when absolute: O(nnz) on the support,
    a dense matvec otherwise.  Overflow gives inf, which the callers'
    tests refuse, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(E, _SupportDG):
            s = E.support
            p = E.values * x[s.cols]
            out = np.zeros(len(x))
            out[s.heads] = np.add.reduceat(np.abs(p) if absolute else p,
                                           s.starts)
            return out
        return (np.abs(E.entries) if absolute else E.entries) @ x


def _irreducible(E: _DG) -> bool:
    if isinstance(E, _SupportDG):
        return E.support.connected
    return _strongly_connected(E.entries != 0)


def _self_loop(E: _DG) -> bool:
    if isinstance(E, _SupportDG):
        return E.support.self_loop
    return bool(np.diag(E.entries).any())


def _bloc_labels(adj: NDArray, labels: tuple[str, ...]) -> list[list[str]]:
    comps = strongly_connected_components(adj)
    return [[labels[j] for j in comp] for comp in comps]


def check_connectedness(sys: PositiveSystem,
                        samples: Sequence[StateVector],
                        elasticities: Sequence[ElasticityMatrix] | None = None,
                        ) -> CheckResult:
    """Irreducibility of |DG|: symbolic for systems with a sign pattern,
    per-sample otherwise; a boolean adjacency needs no validation."""
    _need_samples(samples)
    if sys.sign_pattern is not None:
        if sys._support.connected:
            return CheckResult("pass")
        return CheckResult("fail", {
            "blocs": _bloc_labels(sys._support.adjacency, sys.labels),
            "reason": "influence graph splits into isolated blocs",
        })
    elasticities = elasticities or _elasticities(sys, samples)
    for idx, E in enumerate(elasticities):
        adj = np.abs(E.entries) > TOL_SIGN
        if not _strongly_connected(adj):
            return CheckResult("fail", {
                "sample_index": idx,
                "blocs": _bloc_labels(adj, sys.labels),
                "reason": "influence graph splits into isolated blocs",
            })
    return CheckResult("evidence-only")


def check_self_interaction(sys: PositiveSystem,
                           samples: Sequence[StateVector],
                           elasticities: Sequence[ElasticityMatrix] | None = None,
                           ) -> CheckResult:
    """Some diagonal elasticity entry must be nonzero (at every sample)."""
    _need_samples(samples)
    if sys.sign_pattern is not None:
        if sys._support.self_loop:
            return CheckResult("pass")
        return CheckResult("fail", {"reason": "all diagonal entries vanish"})
    elasticities = elasticities or _elasticities(sys, samples)
    for idx, E in enumerate(elasticities):
        A = np.abs(E.entries)
        rowmax = A.max(axis=1)
        live = np.diag(A) > TOL_DIAG * np.maximum(rowmax, 1e-300)
        if not live.any():
            return CheckResult("fail", {
                "sample_index": idx,
                "reason": "no coordinate feeds back on itself",
            })
    return CheckResult("evidence-only")


def _oriented(u: NDArray) -> NDArray:
    """u with its first clearly nonzero entry positive, scaled to
    max |u_j| = 1."""
    scale = np.abs(u).max()
    first = u[np.flatnonzero(np.abs(u) > 1e-12 * scale)[0]]
    return (-u if first < 0 else u) / scale


def _verified(sys: PositiveSystem, samples: Sequence[StateVector],
              elasticities: Sequence[_DG], u: NDArray) -> ScalingCertificate:
    """The certificate of u: the DG u = u residual at every sample and
    the scale law at SCALE_TEST_FACTORS."""
    res_eq = max(float(np.max(np.abs(_dot(E, u) - u)))
                 for E in elasticities)
    res_direct = 0.0
    for idx, x in enumerate(samples):
        fx = _at_sample(idx, sys._eval_checked, x.values)
        for c in SCALE_TEST_FACTORS:
            lhs = _at_sample(idx, sys._eval_checked, c ** u * x.values)
            rhs = c ** u * fx
            res_direct = max(res_direct,
                             float(np.max(np.abs(lhs / rhs - 1.0))))
    return ScalingCertificate(u=u, residual_fixed_eq=res_eq,
                              residual_direct=res_direct)


def _closed_form_certificate(sys: PositiveSystem,
                             samples: Sequence[StateVector],
                             elasticities: Sequence[_DG],
                             ) -> ScalingCertificate | None:
    """The system's closed-form scaling u, when Perron-Frobenius makes it
    the only direction the eigenspace extraction could find: the system
    declares a sign pattern, u has no zero entry, the first sample's DG
    obeys the block rule of sign(u) with |DG| irreducible, and at every
    sample the scale law holds within TOL_RESIDUAL and max |DG u - u| is
    at most TOL_EIGENVALUE * min|u_j| / sqrt(n); else None."""
    s, n = sys.scaling, sys.dimension
    # a declared scaling is finite and not all zero
    if (sys.sign_pattern is None or s is None
            or not np.all(np.abs(s) > 1e-9 * np.abs(s).max())):
        return None
    u = _oriented(s)
    # The extraction reads DG0, sample 0's DG, alone, so the premise is
    # proved there: DG0 obeys the block rule of sign(u), so |DG0| = D DG0 D
    # with D = diag(sign u), and |DG0| is irreducible, so its Perron root
    # is simple and DG0's eigenvalue-1 eigenspace is the line of u once
    # rho(|DG0|) = 1.  Both paths verify u at every sample in _verified
    E0 = elasticities[0]
    if _BlockRule(u).worst(E0) > 0.0 or not _irreducible(E0):
        return None
    cert = _verified(sys, samples, elasticities, u)
    # Collatz-Wielandt from |u| puts rho(|DG|) within res_eq / min|u| of
    # 1, and ||(I - DG) u||_2 <= sqrt(n) res_eq bounds the least singular
    # value: below this gate both of the extraction's tests pass
    if (cert.residual_fixed_eq
            <= TOL_EIGENVALUE * float(np.abs(u).min()) / np.sqrt(n)
            and cert.residual_direct <= TOL_RESIDUAL):
        return cert
    return None


def find_scaling_exponent(sys: PositiveSystem,
                          samples: Sequence[StateVector],
                          elasticities: Sequence[ElasticityMatrix] | None = None,
                          ) -> ScalingCertificate | None:
    """Extract and verify a scaling direction u from the eigenvalue-1
    eigenspace of the first sample's elasticity matrix, normalized to
    max |u_j| = 1 with its first clearly nonzero entry positive.

    Returns None unless I - DG has both an eigenvalue and a singular
    value below TOL_EIGENVALUE (a non-normal DG can have the second
    alone).  Raises AmbiguousScalingError when the eigenspace is
    multi-dimensional.

    certify first tries the system's closed-form `scaling`, with no
    eigensolve (_closed_form_certificate): by Perron-Frobenius its
    premises make the first sample's eigenspace the line of u, where both
    of this extraction's tests pass.  Otherwise certify calls this
    extraction, so a wrong closed form gets its verdict.  The pre-check
    reads the first matrix's memoized `spectrum`, which check_spectral
    reads again at no cost.
    """
    _need_samples(samples)
    elasticities = elasticities or _elasticities(sys, samples)
    E0 = elasticities[0].entries
    n = E0.shape[0]
    # a zero eigenvalue is never near 1
    if np.min(np.abs(elasticities[0].spectrum - 1.0)) > TOL_EIGENVALUE:
        return None
    _, s, Vh = np.linalg.svd(np.eye(n) - E0)
    dim = int(np.sum(s < TOL_EIGENVALUE))
    if dim == 0:
        return None
    if dim > 1:
        raise AmbiguousScalingError(
            f"eigenspace for eigenvalue 1 has dimension {dim}; "
            "a unique scaling direction requires dimension 1")
    return _verified(sys, samples, elasticities, _oriented(Vh[-1]))


def _same_block(u: NDArray) -> NDArray[np.bool_]:
    return np.equal.outer(u > 0, u > 0)   # True when j, k share a block


def _violations(M: NDArray, same: NDArray, tol: float = 0.0) -> NDArray:
    """Entries of M against the block rule, beyond tol: `same` marks the
    entries whose row and column share a block, elementwise with M."""
    return (same & (M < -tol)) | (~same & (M > tol))


class _BlockRule:
    """The block rule of sign(u): within a block >= 0, across <= 0."""

    def __init__(self, u: NDArray):
        self.u, self.positive = u, u > 0

    def same_at(self, rows: NDArray, cols: NDArray) -> NDArray[np.bool_]:
        return self.positive[rows] == self.positive[cols]

    @cached_property
    def same(self) -> NDArray[np.bool_]:
        return _same_block(self.u)        # n x n, built for a dense DG only

    def worst(self, E: _DG) -> float:
        """max |DG| over the entries against the rule, 0 when none is."""
        if isinstance(E, _SupportDG):
            s, v = E.support, E.values
            bad = _violations(v, self.same_at(s.rows, s.cols))
            return float(np.max(np.abs(v[bad]), initial=0.0))
        M = E.entries
        return float(np.max(np.abs(M[_violations(M, self.same)]),
                            initial=0.0))


def _split_by_sign(u: NDArray, labels: tuple[str, ...]) -> SignPartition:
    plus = tuple(labels[j] for j in range(len(labels)) if u[j] > 0)
    minus = tuple(labels[j] for j in range(len(labels)) if u[j] < 0)
    return SignPartition(zeta_plus=plus, zeta_minus=minus)


def check_monotonicity(sys: PositiveSystem, u,
                       samples: Sequence[StateVector],
                       elasticities: Sequence[ElasticityMatrix] | None = None,
                       ) -> tuple[CheckResult, SignPartition]:
    """Block sign rule induced by u: within a block >= 0, across <= 0.
    Checked on the declared sign pattern, if any, which alone can pass,
    and in both modes on each sample's DG beyond TOL_SIGN."""
    _need_samples(samples)
    u = np.asarray(u, dtype=float)
    tiny = np.abs(u) <= 1e-9 * np.abs(u).max()
    if tiny.any():
        j = int(np.flatnonzero(tiny)[0])
        raise ValueError(
            f"scaling direction has a zero entry at {sys.labels[j]!r}; "
            "the block partition is undefined there")
    partition, rule = _split_by_sign(u, sys.labels), _BlockRule(u)

    verdict = "evidence-only"
    if sys.sign_pattern is not None:
        # a 0 entry breaks no rule; the others come in row-major order
        s = sys._support
        bad = np.flatnonzero(_violations(s.signs,
                                         rule.same_at(s.rows, s.cols)))
        if bad.size:
            return CheckResult("fail", {
                "row": sys.labels[s.rows[bad[0]]],
                "column": sys.labels[s.cols[bad[0]]],
                "reason": "declared sign violates the block rule",
            }), partition
        verdict = "pass"

    elasticities = elasticities or _elasticities(sys, samples)
    for idx, E in enumerate(elasticities):
        if isinstance(E, _SupportDG):
            # the declared signs obey the rule, so an entry on the
            # support breaks it where it is against its declared sign
            bad = np.flatnonzero(s.signs * E.values < -TOL_SIGN)
            flat, values = E.support.flat[bad], E.values[bad]
        else:
            flat = np.flatnonzero(_violations(E.entries, rule.same, TOL_SIGN))
            values = np.take(E.entries, flat)
        if flat.size:
            j, k = divmod(int(flat[0]), len(u))
            return CheckResult("fail", {
                "row": sys.labels[j], "column": sys.labels[k],
                "sample_index": idx,
                "value": float(values[0]),
            }), partition
    return CheckResult(verdict), partition


def _first_bracket(w: NDArray, v: NDArray,
                   ) -> tuple[float, tuple[float, float]] | None:
    """(rho, bracket) from the Collatz-Wielandt bracket [min w/v, max w/v]
    of w = |DG| v, when _perron_root(|DG|, 1e-13, v) would return it
    after its first matvec; None when it stays open."""
    ratios = w / v
    lo, hi = float(ratios.min()), float(ratios.max())
    mid = 0.5 * (lo + hi)
    if 0.0 < lo <= hi < np.inf and hi - lo <= 1e-13 * max(1.0, mid):
        return mid, (lo, hi)
    return None


def _dense_root(A: NDArray, v: NDArray,
                ) -> tuple[float, tuple[float, float] | None]:
    """rho(A), A = |DG|, and its proved bracket: by _perron_root from v,
    or where that raises, the largest eigenvalue modulus of A clamped
    into the bracket proved so far, if any."""
    try:    # tol 1e-13 keeps rho within 1e-13 relative of the root
        res = _perron_root(A, 1e-13, v)
        return res.rho, (res.lower_bound, res.upper_bound)
    except (ReducibleMatrixError, PowerIterationError) as exc:
        rho, bracket = float(np.max(np.abs(eigvals_mod_zero(A)))), None
        if isinstance(exc, PowerIterationError) and exc.lower_bound > 0:
            bracket = (exc.lower_bound, exc.upper_bound)    # proved
            rho = min(max(rho, bracket[0]), bracket[1])
        return rho, bracket


def _open_roots(elasticities: Sequence[_DG], start: NDArray,
                ) -> list[tuple[float, tuple[float, float] | None]]:
    """rho(|DG|) and its proved bracket at samples whose first bracket
    from start stayed open: _dense_root from v = |x|, x the Ritz vector of
    one lockstep Krylov pass over their |DG|, or from start where v is
    not positive and finite."""
    mats = [np.abs(E.entries) for E in elasticities]  # E finite: A >= 0
    roots = []
    for A, v in zip(mats, np.abs(_dominant_ritz(mats, accept=False)[1])):
        if not np.all((v > 0.0) & (v < np.inf)):   # NaN fails too
            v = start
        roots.append(_dense_root(A, v))
    return roots


def _perron_derived(E: _DG, signature: float,
                    bracket: tuple[float, float] | None) -> bool:
    """1 is DG's only eigenvalue of modulus 1, by Perron-Frobenius: DG
    is similar to |DG|, whose bracket lies within NEAR_ONE of 1, and
    |DG| is primitive."""
    return (signature == 0.0 and bracket is not None
            and 1.0 - NEAR_ONE <= bracket[0] and bracket[1] <= 1.0 + NEAR_ONE
            and _self_loop(E) and _irreducible(E))


def _peripheral(eigs: NDArray) -> tuple[bool, float]:
    """(1 is the only eigenvalue on the unit circle, the largest modulus
    of the others) from a spectrum.  Eigenvalues away from 1 must sit
    strictly inside the unit circle; the multiplicity of 0, which
    eigvals_mod_zero may change, is never read."""
    near_one = np.abs(eigs - 1.0) <= NEAR_ONE
    second = float(np.max(np.abs(eigs[~near_one]), initial=0.0))
    return int(near_one.sum()) == 1 and second < 1.0 - NEAR_ONE, second


def _peripherals(elasticities: Sequence[_DG], spectra: list[int],
                 ) -> list[tuple[bool, float]]:
    """_peripheral at the samples `spectra`: (False, |theta|) where one
    lockstep Krylov pass over DG at the later ones converged to theta
    with |theta - 1| > NEAR_ONE, else from the sample's `spectrum`."""
    krylov = [idx for idx in spectra if idx > 0]
    known = {}
    if krylov:
        theta, _, converged = _dominant_ritz(
            [elasticities[idx].entries for idx in krylov])
        known = {idx: (False, float(abs(t)))
                 for idx, t, ok in zip(krylov, theta, converged)
                 if ok and abs(t - 1.0) > NEAR_ONE}
    return [known.get(idx) or _peripheral(elasticities[idx].spectrum)
            for idx in spectra]


def check_spectral(sys: PositiveSystem, u,
                   samples: Sequence[StateVector],
                   elasticities: Sequence[ElasticityMatrix] | None = None,
                   ) -> SpectralEvidence:
    """Spectral radius of |DG| with its Collatz-Wielandt bracket, the |u|
    eigenvector residual, the signature residual max |D DG D - |DG|| with
    D = diag(sign u), and the modulus-1 uniqueness check.  D DG D - |DG|
    is -2|DG| where DG breaks the block rule of sign(u) and 0 elsewhere,
    so the residual is exactly 0 when the rule holds (DG and |DG| then
    share a spectrum), and None when a zero entry of u makes D singular.
    Each sample takes one product w = |DG| v, v = |u| (all ones unless u
    is zero-free), for the bracket [min w/v, max w/v] and the eigenvector
    residual; rho is the bracket's midpoint when it is positive and
    within 1e-13 max(1, rho), as when |DG| |u| = |u|.  Where it stays
    open, one lockstep Krylov pass (_dominant_ritz) over the |DG| of all
    such samples gives the Perron start v = |x|, x the Ritz vector of
    largest modulus, whose bracket by one matvec closes as a rule; else
    spectral_radius's later steps run on the dense |DG| from v (or from
    the first start, where |x| is not positive), and where they raise,
    rho is the largest eigenvalue modulus of |DG|, clamped into the
    bracket proved so far, if any: the one rho not proved by a matvec.

    Uniqueness and the gap come from the spectrum of DG at sample 0.  At
    a later sample whose signature residual is exactly 0, bracket within
    NEAR_ONE of 1 and |DG| primitive, DG is similar to |DG|, whose Perron
    root is simple and the only eigenvalue of its modulus
    (Perron-Frobenius): no eigensolve runs there.  The other later
    samples go through one lockstep Krylov pass over their DG: a
    converged dominant Ritz value theta with |theta - 1| > NEAR_ONE gives
    unique False and second modulus |theta|, the dense rule's answer
    whenever the dominant eigenvalue lies away from 1.  Every other
    sample reads its `spectrum`, which find_scaling_exponent may already
    have computed for sample 0.  A non-normal DG has no cheap bound on
    its second modulus, so the gap and unique_modulus_one are
    informational: no verdict reads them.

    With elasticities None, each DG comes as in certify, from the
    system's support_values where it gives them.  Out-of-tolerance
    values are recorded, never raised.
    """
    _need_samples(samples)
    elasticities = elasticities or _elasticities(sys, samples)
    roots, signatures, start = [], [], np.ones(sys.dimension)
    eig_res = rule = None
    if u is not None:
        u = np.asarray(u, dtype=float)
        abs_u = np.abs(u)
        eig_res = 0.0
        if np.all(abs_u > 0.0):
            start, rule = _check_gauge(abs_u, "start vector"), _BlockRule(u)
    for E in elasticities:
        w = _dot(E, start, absolute=True)
        roots.append(_first_bracket(w, start))
        if u is not None:
            if rule is None:        # start is all ones, not |u|
                w = _dot(E, abs_u, absolute=True)
            eig_res = max(eig_res, float(np.max(np.abs(w - abs_u))))
        if rule is not None:
            signatures.append(2.0 * rule.worst(E))
    still_open = [idx for idx, root in enumerate(roots) if root is None]
    if still_open:
        found = _open_roots([elasticities[idx] for idx in still_open], start)
        for idx, root in zip(still_open, found):
            roots[idx] = root
    brackets = [bracket for _, bracket in roots]
    spectra = [idx for idx, E in enumerate(elasticities)
               if not (idx > 0 and rule is not None and _perron_derived(
                   E, signatures[idx], brackets[idx]))]
    facts = _peripherals(elasticities, spectra)     # sample 0 among them
    rhos = [rho for rho, _ in roots]
    return SpectralEvidence(
        rho=tuple(rhos),
        max_rho_deviation=float(np.max(np.abs(np.asarray(rhos) - 1.0))),
        eigvec_residual=eig_res,
        similarity_residual=max(signatures) if rule is not None else None,
        unique_modulus_one=all(ok for ok, _ in facts),
        spectral_gap=min(1.0 - second for _, second in facts),
        rho_bracket=((min(lo for lo, _ in brackets),
                      max(hi for _, hi in brackets))
                     if None not in brackets else None),
    )


def _check_scaling(sys: PositiveSystem, samples: Sequence[StateVector],
                   elas: Sequence[ElasticityMatrix], mode: str,
                   ) -> tuple[CheckResult, ScalingCertificate | None]:
    """The scaling verdict and the certificate it rests on."""
    try:
        certificate = (_closed_form_certificate(sys, samples, elas)
                       or find_scaling_exponent(sys, samples, elas))
    except AmbiguousScalingError as exc:
        return CheckResult("error", {"error": str(exc)}), None
    except Exception as exc:    # F failed at a sample, or the check did
        return _error_verdict(exc), None
    if certificate is None:
        return CheckResult("absent", {
            "reason": "I - DG lacks an eigenvalue or a singular value "
                      f"below {TOL_EIGENVALUE:g}"}), None
    if (certificate.residual_fixed_eq > TOL_RESIDUAL
            or certificate.residual_direct > TOL_RESIDUAL):
        return CheckResult("fail", {
            "residual_fixed_eq": certificate.residual_fixed_eq,
            "residual_direct": certificate.residual_direct,
            "reason": "candidate direction does not satisfy the "
                      "scale law at all samples",
        }), certificate
    details = {}
    if sys.scaling is not None:
        ref = sys.scaling / np.abs(sys.scaling).max()
        cosine = float(abs(certificate.u @ ref)
                       / (np.linalg.norm(certificate.u)
                          * np.linalg.norm(ref)))
        details["matches_closed_form"] = cosine >= 1.0 - 1e-10
    return CheckResult(
        "pass" if mode == "exact" else "evidence-only", details), certificate


def certify(sys: PositiveSystem, sample_count: int = 8,
            seed: int = 0) -> CertificationReport:
    """Run all four property checks plus the spectral evidence.

    Checker errors are recorded in the relevant verdict; a report is
    always produced.  When F or its elasticities fail at a sample (a bad
    value, or any Exception they raise), every check that needs them
    reads `error`, naming the exception type, any coordinate and the
    sample index, and `spectral` is None.  mode is "exact" only when the
    system declares a parameter-determined sign pattern.

    All samples' elasticities are gathered, in order, before any check
    runs.  Where the system gives support_values, each sample's DG is
    kept only as those nnz values (see _support_dg): DG u, |DG| |u|, the
    block rule, the diagonal and irreducibility (from the connected
    pattern) then cost O(nnz) per sample, and a dense DG is scattered
    from them only where a sample needs it (sample 0 for its spectrum, a
    later one for an open Perron bracket or a spectrum).  Any other
    system, the one-sector model included, gets a dense ElasticityMatrix
    per sample.
    """
    samples = sample_states(sys, sample_count, seed)
    mode = "exact" if sys.sign_pattern is not None else "sampled"
    failure = None
    try:
        elas = _elasticities(sys, samples)
    except Exception as exc:    # the caller's F or elasticities failed
        elas, failure = None, _error_verdict(exc)

    def guarded(check):
        if failure is not None and mode == "sampled":
            return failure      # sampled checks read the elasticities
        try:
            return check(sys, samples, elas)
        except Exception as exc:  # per-check errors must not kill the report
            return CheckResult("error", {"error": f"{type(exc).__name__}: {exc}"})

    conn = guarded(check_connectedness)
    self_int = guarded(check_self_interaction)

    scaling, certificate = ((failure, None) if failure is not None else
                            _check_scaling(sys, samples, elas, mode))

    partition = None
    if certificate is not None and scaling.ok:
        try:
            mono, partition = check_monotonicity(
                sys, certificate.u, samples, elas)
        except ValueError as exc:
            mono = CheckResult("error", {"error": str(exc)})
    else:
        mono = CheckResult("skipped", {
            "reason": "no verified scaling direction"})

    spectral = None if elas is None else check_spectral(
        sys, certificate.u if certificate is not None else None,
        samples, elas)

    # scaling reads "error", not "absent", whenever spectral is None
    footnote = (scaling.verdict == "absent"
                and spectral.max_rho_deviation <= 1e-6)
    uniq = conn.ok and scaling.ok and mono.ok
    attr = uniq and self_int.ok
    return CertificationReport(
        connectedness=conn,
        self_interaction=self_int,
        scaling=scaling,
        monotonicity=mono,
        certificate=certificate,
        partition=partition,
        spectral=spectral,
        samples=tuple(samples),
        sample_seed=seed,
        mode=mode,
        uniqueness_applicable=uniq,
        attractivity_applicable=attr,
        scaling_free_radius_one=footnote,
        system_kind=sys.kind,
        labels=sys.labels,
        differentiation=("numeric-central-log"
                         if sys.elasticity_values is None
                         and sys.support_values is None else "analytic"),
    )
