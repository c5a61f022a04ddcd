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
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from scalefix.spectral import (
    _check_gauge,
    _perron_roots,
    _strongly_connected,
    strongly_connected_components,
)
from scalefix.system import (
    _DG,
    ElasticityMatrix,
    PositiveSystem,
    StateVector,
    _frozen,
    _absolutes,
    _HeldDG,
    _support_dg,
    _worst,
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
    # max |D DG D - |DG||, D = diag(sign u): -2 min(D DG D), clamped to
    # +0.0 where DG obeys the block rule; None without a zero-free u
    similarity_residual: float | None
    # 1 the only eigenvalue of DG on the unit circle: False where sample
    # 0's spectrum says not, True where it says so and Perron-Frobenius
    # settles every later sample, else None, not computed; and 1 -
    # second modulus of sample 0's spectrum.  No verdict reads either
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


def _elasticities(sys: PositiveSystem,
                  samples: Sequence[StateVector]) -> list[_DG]:
    """Each sample's DG, built and checked in sample order, so an error
    names the first bad sample.  A _SupportDG where sys gives its values,
    whose spectrum, sample 0's included, needs no dense DG where its
    zero-diagonal coordinates peel (the multi-sector model's do).  Else
    elasticity_at builds and checks each DG, which is copied into slice
    i of one (k, n, n) stack, and once all are in, each sample becomes a
    _HeldDG: its sign bits are taken and its slice made |DG|, which the
    Perron pass reads with no copy.  No float DG is held, and no sign
    bits are while a sample's DG is built."""
    if sys.support_values is not None:
        return [_at_sample(idx, _support_dg, sys, x)
                for idx, x in enumerate(samples)]
    n = sys.dimension
    stack = np.empty((len(samples), n, n))
    for idx, x in enumerate(samples):
        stack[idx] = _at_sample(idx, elasticity_at, sys, x).entries
    held = [_HeldDG(stack, idx) for idx in range(len(samples))]
    stack.setflags(write=False)
    return held


def _split(comps: list[list[int]], labels: tuple[str, ...],
           **details) -> CheckResult:
    """The connectedness fail of a graph with these components, after
    details (a sampled fail's sample_index)."""
    return CheckResult("fail", {
        **details, "blocs": [[labels[j] for j in comp] for comp in comps],
        "reason": "influence graph splits into isolated blocs"})


def check_connectedness(sys: PositiveSystem,
                        samples: Sequence[StateVector],
                        elasticities: Sequence[ElasticityMatrix] | None = None,
                        ) -> CheckResult:
    """Irreducibility of |DG|: symbolic for systems with a sign pattern,
    on the edges of the declared support, per-sample otherwise, on the
    graph of |DG| > TOL_SIGN.  Either way one level-synchronous walk
    runs from node 0 along the edges and against them.  Sampled, it
    runs over the graph common to all samples, the AND of their
    adjacencies: each sample's graph contains it, so if it is strongly
    connected, so is every sample's.  Only otherwise is each sample's
    graph walked in turn, so a fail names the first split sample and its
    blocs.  A boolean adjacency needs no validation."""
    _need_samples(samples)
    support = sys._support
    if support is not None:
        if support.connected:
            return CheckResult("pass")
        return _split(support.components(), sys.labels)
    elasticities = elasticities or _elasticities(sys, samples)
    adjs = [E._abs() > TOL_SIGN for E in elasticities]
    if _strongly_connected(np.logical_and.reduce(adjs)):
        return CheckResult("evidence-only")
    for idx, adj in enumerate(adjs):
        if not _strongly_connected(adj):
            return _split(strongly_connected_components(adj), sys.labels,
                          sample_index=idx)
    return CheckResult("evidence-only")


def check_self_interaction(sys: PositiveSystem,
                           samples: Sequence[StateVector],
                           elasticities: Sequence[ElasticityMatrix] | None = None,
                           ) -> CheckResult:
    """Some diagonal elasticity entry must be nonzero (at every sample)."""
    _need_samples(samples)
    if sys._support is not None:
        if sys._support.self_loop:
            return CheckResult("pass")
        return CheckResult("fail", {"reason": "all diagonal entries vanish"})
    elasticities = elasticities or _elasticities(sys, samples)
    for idx, E in enumerate(elasticities):
        A = E._abs()
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
    res_eq = max(float(np.max(np.abs(E._dot(u) - u)))
                 for E in elasticities)
    res_direct = 0.0
    powers = [c ** u for c in SCALE_TEST_FACTORS]
    for idx, x in enumerate(samples):
        fx = _at_sample(idx, sys._eval_checked, x.values)
        for cu in powers:
            lhs = _at_sample(idx, sys._eval_checked, cu * x.values)
            rhs = cu * fx
            res_direct = max(res_direct,
                             float(np.max(np.abs(lhs / rhs - 1.0))))
    return ScalingCertificate(u=u, residual_fixed_eq=res_eq,
                              residual_direct=res_direct)


def _near_one(E: _DG) -> bool:
    """The extraction's pre-check, False only where every eigenvalue of
    E's memoized spectrum lies farther than TOL_EIGENVALUE from 1 (a
    zero eigenvalue is never near 1, so the zeros it may drop do not
    matter)."""
    return not np.min(np.abs(E.spectrum - 1.0)) > TOL_EIGENVALUE


def _one_small_singular_value(A: NDArray, v: NDArray) -> bool:
    """Whether A, n x n, has exactly one singular value below
    TOL_EIGENVALUE, proved with no SVD from the direction v of unit
    2-norm: sigma_n <= ||A v|| <= TOL_EIGENVALUE / 2, and one Cholesky
    of G + tr(G) v v' - tau I, G = A'A, proves x'Gx > (2 TOL_EIGENVALUE)^2
    for the unit vectors x orthogonal to v, where the rank-one term
    vanishes, so sigma_{n-1} > 2 TOL_EIGENVALUE by Cauchy interlacing
    (Courant-Fischer).  A's least right singular vector then makes an
    angle with v whose sine is at most ||A v|| / sigma_{n-1} < 1/4.  The
    margins of 2 around TOL_EIGENVALUE hold the SVD's count, computed to
    about eps ||A||_2, wherever that is far below TOL_EIGENVALUE / 2.
    Overflow refuses.  (Rump, "Verification of positive definiteness",
    BIT 46, 2006; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 3.5 and 10.1.)"""
    n = len(v)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.linalg.norm(A @ v) <= TOL_EIGENVALUE / 2:
            return False
        G = A.T @ A
        t = float(np.trace(G))
        # tau's second term, 8(n+2) eps 2t with eps = 2u the machine
        # epsilon and t = tr(G) = ||A||_F^2 >= ||G||_F, is at least eight
        # times the rounding of these three steps for n >= 2, to first
        # order in n eps (Higham, section 3.5 and Theorem 10.3):
        #   forming G, |fl(G) - G| <= gamma_n |A'||A|: 2-norm n eps t / 2;
        #   the update and the shift, each entry rounded at most four
        #   times: 2-norm 2 eps (2t + tau);
        #   factoring the M so formed, R'R = M + dM with |dM| <=
        #   gamma_{n+1} |R'||R| and || |R'||R| ||_2 <= ||R||_F^2 =
        #   tr(R'R) <= 2t: 2-norm (n + 1) eps t.
        # So R'R >= 0 gives, for unit x _|_ v, where v v' vanishes,
        # x'Gx >= tau - (1.5n + 5) eps t - 2 eps tau > (2 TOL_EIGENVALUE)^2
        tau = ((2.0 * TOL_EIGENVALUE) ** 2
               + 8.0 * (n + 2) * np.finfo(float).eps * 2.0 * t)
        G += t * np.outer(v, v)
        G.flat[::n + 1] -= tau
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _closed_form_certificate(sys: PositiveSystem,
                             samples: Sequence[StateVector],
                             elasticities: Sequence[_DG],
                             ) -> ScalingCertificate | None:
    """The system's closed-form scaling u, when a premise proved at the
    first sample makes it the only direction the eigenspace extraction
    could find, with no SVD: u has no zero entry, and either
    Perron-Frobenius applies (the system declares a sign pattern, the
    first sample's DG obeys the block rule of sign(u) and its |DG| is
    irreducible) or, where it does not, the first sample passes the
    extraction's pre-check and _one_small_singular_value holds for
    I - DG and u / ||u||_2.  Under Perron-Frobenius, at every sample
    the scale law must then hold within TOL_RESIDUAL and max |DG u - u|
    be at most TOL_EIGENVALUE * min|u_j| / sqrt(n); else None, and
    certify runs the extraction.  The second premise's certificate is
    returned as it is, for _check_scaling to judge."""
    s, n = sys.scaling, sys.dimension
    # a declared scaling is finite and not all zero
    if s is None or not np.all(np.abs(s) > 1e-9 * np.abs(s).max()):
        return None
    u = _oriented(s)
    # The extraction reads DG0, sample 0's DG, alone, so the premise is
    # proved there.  Perron-Frobenius: DG0 obeys the block rule of
    # sign(u), so |DG0| = D DG0 D with D = diag(sign u), and |DG0| is
    # irreducible, so its Perron root is simple and DG0's eigenvalue-1
    # eigenspace is the line of u once rho(|DG0|) = 1.  Else the SVD of
    # I - DG0 would count exactly one singular value below
    # TOL_EIGENVALUE, the one of u's direction.  Both paths verify u at
    # every sample in _verified
    E0 = elasticities[0]
    perron = (sys._support is not None and _worst(E0, _signs(u)) == 0.0
              and E0._irreducible())
    if not (perron or _near_one(E0) and _one_small_singular_value(
            np.eye(n) - E0.entries, u / np.linalg.norm(u))):
        return None
    cert = _verified(sys, samples, elasticities, u)
    # Under Perron-Frobenius, Collatz-Wielandt from |u| puts rho(|DG|)
    # within res_eq / min|u| of 1, and ||(I - DG) u||_2 <= sqrt(n) res_eq
    # bounds the least singular value: below this gate both of the
    # extraction's tests pass.  The second premise proved both at sample
    # 0 already, so its certificate goes to _check_scaling as it is, as
    # the extraction's would: central-difference residuals of about
    # 1e-9 pass TOL_RESIDUAL there, and are above this gate
    if not perron or (
            cert.residual_fixed_eq
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
    multi-dimensional.  The reverse case, an eigenvalue with no singular
    value, is rare: sigma_min(I - DG) <= |1 - lambda| for every
    eigenvalue lambda of DG, so an eigenvalue within TOL_EIGENVALUE of 1
    puts the least singular value within it too, and only the SVD's
    strict test or rounding at that boundary can still return None.

    certify first tries the system's closed-form `scaling`, with no SVD
    (_closed_form_certificate).  By Perron-Frobenius, with no eigensolve,
    or else by this pre-check, the residual of u and one Cholesky
    (_one_small_singular_value), its premises make the first sample's
    eigenspace the line of u, where both of this extraction's tests
    pass and the SVD would count one singular value.  Otherwise certify
    calls this extraction, so a wrong closed form gets its verdict.  The
    pre-check reads the first matrix's memoized `spectrum`, which
    check_spectral reads again at no cost.
    """
    _need_samples(samples)
    elasticities = elasticities or _elasticities(sys, samples)
    E0 = elasticities[0].entries
    n = E0.shape[0]
    if not _near_one(elasticities[0]):
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


def _signs(u: NDArray) -> NDArray:
    """d = sign(u) as +-1, for a zero-free u: DG obeys the block rule of
    u, >= 0 within a block of sign(u) and <= 0 across, where D DG D >= 0
    with D = diag(d), and there |DG| = D DG D."""
    return np.where(u > 0, 1.0, -1.0)


def _split_by_sign(u: NDArray, labels: tuple[str, ...]) -> SignPartition:
    plus = tuple(labels[j] for j in range(len(labels)) if u[j] > 0)
    minus = tuple(labels[j] for j in range(len(labels)) if u[j] < 0)
    return SignPartition(zeta_plus=plus, zeta_minus=minus)


def _fail_at(labels: tuple[str, ...], flat: int, **details) -> CheckResult:
    """A fail naming the row and column of DG's raveled entry `flat`."""
    j, k = divmod(int(flat), len(labels))
    return CheckResult("fail", {"row": labels[j], "column": labels[k],
                                **details})


def check_monotonicity(sys: PositiveSystem, u,
                       samples: Sequence[StateVector],
                       elasticities: Sequence[ElasticityMatrix] | None = None,
                       ) -> tuple[CheckResult, SignPartition]:
    """Block sign rule induced by u: within a block >= 0, across <= 0,
    that is D DG D >= 0 with D = diag(sign u).  Checked on the declared
    sign pattern, if any, which alone can pass, and in both modes on each
    sample's DG beyond TOL_SIGN; a fail names the first witness in
    row-major order."""
    _need_samples(samples)
    u = np.asarray(u, dtype=float)
    tiny = np.abs(u) <= 1e-9 * np.abs(u).max()
    if tiny.any():
        j = int(np.flatnonzero(tiny)[0])
        raise ValueError(
            f"scaling direction has a zero entry at {sys.labels[j]!r}; "
            "the block partition is undefined there")
    partition, d = _split_by_sign(u, sys.labels), _signs(u)

    verdict = "evidence-only"
    if sys._support is not None:
        flat, _ = sys._support.declared._witnesses(d)   # a 0 breaks no rule
        if flat.size:
            return _fail_at(sys.labels, flat[0], reason="declared sign "
                            "violates the block rule"), partition
        verdict = "pass"

    elasticities = elasticities or _elasticities(sys, samples)
    for idx, E in enumerate(elasticities):
        flat, values = E._witnesses(d, TOL_SIGN)
        if flat.size:
            return _fail_at(sys.labels, flat[0], sample_index=idx,
                            value=float(values[0])), partition
    return CheckResult(verdict), partition


def _perron_derived(E: _DG, signature: float,
                    bracket: tuple[float, float] | None) -> bool:
    """1 is DG's only eigenvalue of modulus 1, by Perron-Frobenius: DG
    is similar to |DG|, whose bracket lies within NEAR_ONE of 1, and
    |DG| is primitive."""
    return (signature == 0.0 and bracket is not None
            and 1.0 - NEAR_ONE <= bracket[0] and bracket[1] <= 1.0 + NEAR_ONE
            and E._self_loop() and E._irreducible())


def _peripheral(eigs: NDArray) -> tuple[bool, float]:
    """(1 is the only eigenvalue on the unit circle, the largest modulus
    of the others) from a spectrum.  Eigenvalues away from 1 must sit
    strictly inside the unit circle; the multiplicity of 0, which
    eigvals_mod_zero may change, is never read."""
    near_one = np.abs(eigs - 1.0) <= NEAR_ONE
    second = float(np.max(np.abs(eigs[~near_one]), initial=0.0))
    return int(near_one.sum()) == 1 and second < 1.0 - NEAR_ONE, second


def check_spectral(sys: PositiveSystem, u,
                   samples: Sequence[StateVector],
                   elasticities: Sequence[ElasticityMatrix] | None = None,
                   ) -> SpectralEvidence:
    """Spectral radius of |DG| with its Collatz-Wielandt bracket, the |u|
    eigenvector residual, the signature residual max |D DG D - |DG|| with
    D = diag(sign u), and the modulus-1 uniqueness check.  D DG D - |DG|
    is -2|DG| where DG breaks the block rule of sign(u), that is where
    D DG D < 0, and 0 elsewhere, so the residual is -2 min(D DG D),
    exactly +0.0 when the rule holds (DG and |DG| then share a
    spectrum), and None when a zero entry of u makes D singular.
    Each sample takes one product w = |DG| v, v = |u| (all ones unless u
    is zero-free), for the eigenvector residual and, passed on to the
    Perron pass (spectral._perron_roots) with the tolerance 1e-13, for
    the bracket [min w/v, max w/v]: rho is its midpoint when it is
    positive and within 1e-13 max(1, rho), as when |DG| |u| = |u|, and
    a support-held DG then needs no n x n array.  Where it stays open,
    the pass runs over one (k, n, n) array of |DG|: the stack in which
    certify's dense samples hold theirs (system._HeldDG), as it is where
    every sample is open, as on the general model, and otherwise a
    stack of the open samples' |DG| alone.  One lockstep Krylov pass of
    3 sqrt(n) steps over it, begun at v, gives each a Perron start
    (spectral._perron_starts) whose bracket by one matvec closes as a
    rule; else spectral_radius's later steps (Noda's) run on the dense
    |DG|, and where they raise, rho is the largest eigenvalue modulus of
    |DG|, clamped into the bracket proved so far, if any: the one rho
    not proved by a matvec.  _krylov_steps gives how often each of
    these ran on the general model.

    Sample 0's `spectrum` is the one eigensolve over DG, which
    find_scaling_exponent may already have computed: for a _SupportDG
    whose zero-diagonal coordinates peel, from its support values alone,
    with no dense DG (spectral._support_eigvals).  The gap is 1 - its
    second modulus, and unique_modulus_one is False where it has an
    eigenvalue other than 1 on or outside the unit circle, or 1 not
    simple.  Where it says unique, a later sample whose signature
    residual is exactly 0, bracket within NEAR_ONE of 1 and |DG|
    primitive agrees with no eigensolve: DG is similar to |DG|, whose
    Perron root is simple and the only eigenvalue of its modulus
    (Perron-Frobenius).  unique_modulus_one is True where every later
    sample is settled so, and None, not computed, otherwise.  A
    non-normal DG has no cheap bound on its second modulus, so the gap
    and unique_modulus_one are informational: no verdict reads them.

    With elasticities None, each DG comes as in certify, from the
    system's support_values where it gives them.  Out-of-tolerance
    values are recorded, never raised.
    """
    _need_samples(samples)
    elasticities = elasticities or _elasticities(sys, samples)
    first, signatures, start = [], [], np.ones(sys.dimension)
    eig_res = d = None
    if u is not None:
        u = np.asarray(u, dtype=float)
        abs_u = np.abs(u)
        eig_res = 0.0
        if np.all(abs_u > 0.0):
            start, d = _check_gauge(abs_u, "start vector"), _signs(u)
    for E in elasticities:
        w = E._dot(start, absolute=True)
        first.append(w)
        if u is not None:
            if d is None:        # start is all ones, not |u|
                w = E._dot(abs_u, absolute=True)
            eig_res = max(eig_res, float(np.max(np.abs(w - abs_u))))
        if d is not None:
            signatures.append(2.0 * _worst(E, d))
    # tol 1e-13 keeps each rho within 1e-13 relative of its root
    roots = _perron_roots(first, start, _absolutes(elasticities), 1e-13)
    brackets = [bracket for _, bracket in roots]
    unique, second = _peripheral(elasticities[0].spectrum)
    if unique and len(elasticities) > 1 and (d is None or not all(map(
            _perron_derived, elasticities[1:], signatures[1:], brackets[1:]))):
        unique = None   # a later sample's spectrum is not computed
    rhos = [rho for rho, _ in roots]
    return SpectralEvidence(
        rho=tuple(rhos),
        max_rho_deviation=float(np.max(np.abs(np.asarray(rhos) - 1.0))),
        eigvec_residual=eig_res,
        similarity_residual=max(signatures) if d is not None else None,
        unique_modulus_one=unique,
        spectral_gap=1.0 - second,
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
    kept only as those nnz values (system._SupportDG): DG u, |DG| |u|,
    the block rule, the diagonal and irreducibility (from the connected
    pattern) then cost O(nnz) per sample.  So does sample 0's spectrum
    where zero-diagonal coordinates peel, as in the multi-sector model,
    whose exact certify then makes no n x n array.  A dense DG is
    scattered from the values only where a sample needs it: an open
    Perron bracket, or sample 0's spectrum where nothing peels.  Any
    other system, the one-sector and general models included, gets each
    sample's DG from elasticity_at, checked as an ElasticityMatrix, and
    holds it as |DG| in one (k, n, n) stack plus its sign bits, with no
    float DG (system._HeldDG): connectedness, self-interaction, the
    block rule and |DG| |u| read the held |DG|, the Perron pass runs on
    the stack itself where every sample's bracket stays open, and DG u
    and sample 0's spectrum take a transient signed copy.  Sample 0's
    spectrum is the only eigensolve over DG (check_spectral).  A declared
    `scaling` is proved the only direction at sample 0 with no SVD:
    by Perron-Frobenius where the system declares a sign pattern that
    sample 0 obeys, else, as for the general model, by that spectrum
    and one Cholesky of an n x n Gram matrix; the SVD of I - DG runs
    only where neither proves it (_closed_form_certificate).
    """
    samples = sample_states(sys, sample_count, seed)
    mode = "exact" if sys._support is not None else "sampled"
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
