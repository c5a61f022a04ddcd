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
    eigvals_mod_zero,
    is_irreducible,
    is_primitive,
    strongly_connected_components,
)
from scalefix.system import (
    DifferentiationError,
    ElasticityMatrix,
    EvaluationError,
    PositiveSystem,
    StateVector,
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
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "u", u)
        u.setflags(write=False)


@dataclass(frozen=True)
class SpectralEvidence:
    """Per-sample spectral facts about DG and its entrywise absolute value."""

    rho: tuple[float, ...]            # spectral radius of |DG| per sample
    max_rho_deviation: float          # max |rho - 1|
    eigvec_residual: float | None     # max inf-norm of |DG||u| - |u|
    # max |D DG D - |DG||, D = diag(sign u): 2 max |DG| over the entries
    # against the block rule; None without a zero-free u or compare_spectra
    similarity_residual: float | None
    # 1 the only eigenvalue on the unit circle at every sample: from the
    # spectrum at sample 0, derived by Perron-Frobenius at the others
    # where check_spectral's premises hold, from the spectrum elsewhere
    unique_modulus_one: bool | None
    # min of 1 - second modulus over the samples whose spectrum was
    # computed: sample 0 plus any sample where uniqueness was not derived
    spectral_gap: float | None
    # (min lower, max upper) of the one-matvec Collatz-Wielandt brackets;
    # None when one did not close and its sample's rho came from eigenvalues
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
    """fn(*args), recording idx on an evaluation or differentiation error."""
    try:
        return fn(*args)
    except (EvaluationError, DifferentiationError) as exc:
        exc.sample_index = idx
        raise


def _error_verdict(exc: EvaluationError | DifferentiationError) -> CheckResult:
    # the message names the coordinate
    return CheckResult("error", {"error": f"{type(exc).__name__}: {exc}",
                                 "sample_index": exc.sample_index})


def _elasticities(sys: PositiveSystem,
                  samples: Sequence[StateVector]) -> list[ElasticityMatrix]:
    return [_at_sample(idx, elasticity_at, sys, x)
            for idx, x in enumerate(samples)]


def _bloc_labels(adj: NDArray, labels: tuple[str, ...]) -> list[list[str]]:
    comps = strongly_connected_components(adj.astype(float))
    return [[labels[j] for j in comp] for comp in comps]


def check_connectedness(sys: PositiveSystem,
                        samples: Sequence[StateVector],
                        elasticities: Sequence[ElasticityMatrix] | None = None,
                        ) -> CheckResult:
    """Irreducibility of |DG|: symbolic for systems with a sign pattern,
    per-sample otherwise."""
    if not samples:
        raise ValueError("need at least one sample")
    if sys.sign_pattern is not None:
        adj = np.abs(sys.sign_pattern).astype(float)
        if is_irreducible(adj):
            return CheckResult("pass")
        return CheckResult("fail", {
            "blocs": _bloc_labels(adj, sys.labels),
            "reason": "influence graph splits into isolated blocs",
        })
    elasticities = elasticities or _elasticities(sys, samples)
    for idx, E in enumerate(elasticities):
        adj = (np.abs(E.entries) > TOL_SIGN).astype(float)
        if not is_irreducible(adj):
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
    if sys.sign_pattern is not None:
        if np.any(np.diag(sys.sign_pattern) != 0):
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
              elasticities: Sequence[ElasticityMatrix],
              u: NDArray) -> ScalingCertificate:
    """The certificate of u: the DG u = u residual at every sample and
    the scale law at SCALE_TEST_FACTORS."""
    res_eq = max(float(np.max(np.abs(E.entries @ u - u)))
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
                             elasticities: Sequence[ElasticityMatrix],
                             ) -> ScalingCertificate | None:
    """The system's closed-form scaling, when Perron-Frobenius makes it
    the only direction the eigenspace extraction could find; else None."""
    P, s = sys.sign_pattern, sys.scaling
    n = sys.dimension
    if (P is None or s is None or not np.all(np.isfinite(s))
            or not np.all(np.abs(s) > 1e-9 * np.abs(s).max())):
        return None
    u = _oriented(s)
    # |DG| = D DG D with D = diag(sign u) is irreducible, so its Perron
    # root is simple, and the eigenvalue-1 eigenspace of DG is the line
    # of u once rho(|DG|) = 1.  A wrong pattern can hide a sampled DG that
    # breaks the block rule or is reducible, so each DG must obey the rule
    # and be nonzero wherever the irreducible pattern is
    if not is_irreducible(np.abs(P)) or _violations(P, u, 0.0).any():
        return None
    declared = P != 0
    for E in elasticities:
        if (_violations(E.entries, u, 0.0).any()
                or not (E.entries != 0.0)[declared].all()):
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

    certify first tries the system's closed-form `scaling` instead, with
    no eigensolve: it is taken when it has no zero entry, the declared
    pattern is irreducible, every sampled DG is nonzero wherever the
    pattern is, the pattern and every sampled DG obey the block rule of
    sign(u), the scale law holds within TOL_RESIDUAL and
    max |DG u - u| is at most TOL_EIGENVALUE * min|u_j| / sqrt(n) at
    every sample.  By Perron-Frobenius the eigenspace is then the line of
    u, and both of this extraction's tests would pass.  Otherwise certify
    calls this extraction, so a wrong closed form gets its verdict.
    """
    elasticities = elasticities or _elasticities(sys, samples)
    E0 = elasticities[0].entries
    n = E0.shape[0]
    eigs = eigvals_mod_zero(E0)      # a zero eigenvalue is never near 1
    if np.min(np.abs(eigs - 1.0)) > TOL_EIGENVALUE:
        return None
    sv = np.linalg.svd(np.eye(n) - E0, compute_uv=True)
    s, Vh = sv[1], sv[2]
    dim = int(np.sum(s < TOL_EIGENVALUE))
    if dim == 0:
        return None
    if dim > 1:
        raise AmbiguousScalingError(
            f"eigenspace for eigenvalue 1 has dimension {dim}; "
            "a unique scaling direction requires dimension 1")
    return _verified(sys, samples, elasticities, _oriented(Vh[-1]))


def _violations(M: NDArray, u: NDArray, tol: float) -> NDArray[np.bool_]:
    """Entries of M against the block rule of sign(u), beyond tol."""
    same = np.equal.outer(u > 0, u > 0)   # True when j, k share a block
    return (same & (M < -tol)) | (~same & (M > tol))


def _split_by_sign(u: NDArray, labels: tuple[str, ...]) -> SignPartition:
    plus = tuple(labels[j] for j in range(len(labels)) if u[j] > 0)
    minus = tuple(labels[j] for j in range(len(labels)) if u[j] < 0)
    return SignPartition(zeta_plus=plus, zeta_minus=minus)


def check_monotonicity(sys: PositiveSystem, u,
                       samples: Sequence[StateVector],
                       elasticities: Sequence[ElasticityMatrix] | None = None,
                       ) -> tuple[CheckResult, SignPartition]:
    """Block sign rule induced by u: within a block >= 0, across <= 0."""
    u = np.asarray(u, dtype=float)
    tiny = np.abs(u) <= 1e-9 * np.abs(u).max()
    if tiny.any():
        j = int(np.flatnonzero(tiny)[0])
        raise ValueError(
            f"scaling direction has a zero entry at {sys.labels[j]!r}; "
            "the block partition is undefined there")
    partition = _split_by_sign(u, sys.labels)

    if sys.sign_pattern is not None:
        bad = _violations(sys.sign_pattern, u, 0.0)
        if not bad.any():
            return CheckResult("pass"), partition
        j, k = map(int, np.argwhere(bad)[0])
        return CheckResult("fail", {
            "row": sys.labels[j], "column": sys.labels[k],
            "reason": "declared sign violates the block rule",
        }), partition

    elasticities = elasticities or _elasticities(sys, samples)
    for idx, E in enumerate(elasticities):
        M = E.entries
        bad = _violations(M, u, TOL_SIGN)
        if bad.any():
            j, k = map(int, np.argwhere(bad)[0])
            return CheckResult("fail", {
                "row": sys.labels[j], "column": sys.labels[k],
                "sample_index": idx,
                "value": float(M[j, k]),
            }), partition
    return CheckResult("evidence-only"), partition


def check_spectral(sys: PositiveSystem, u,
                   samples: Sequence[StateVector],
                   elasticities: Sequence[ElasticityMatrix] | None = None,
                   compare_spectra: bool = True) -> SpectralEvidence:
    """Spectral radius of |DG| with its Collatz-Wielandt bracket, the |u|
    eigenvector residual, the signature residual max |D DG D - |DG|| with
    D = diag(sign u), and the modulus-1 uniqueness check.  D DG D - |DG|
    is -2|DG| where DG breaks the block rule of sign(u) and 0 elsewhere,
    so the residual is exactly 0 when the rule holds (DG and |DG| then
    share a spectrum), and None when a zero entry of u makes D singular.
    One matvec w = |DG| v per sample, v = |u| (all ones unless u is
    zero-free), brackets rho in [min w/v, max w/v] for any nonnegative
    |DG|; rho is the midpoint if the bracket closes, else from eigvals.

    Uniqueness comes from the spectrum of DG at sample 0, which also
    gives the gap.  At any other sample where the signature residual is
    exactly 0, the bracket lies within NEAR_ONE of 1 and |DG| is
    primitive, DG is similar to |DG|, whose Perron root is simple and the
    only eigenvalue of its modulus (Perron-Frobenius), so no eigensolve
    runs there; every other sample gets its spectrum.

    Out-of-tolerance values are recorded, never raised.
    """
    elasticities = elasticities or _elasticities(sys, samples)
    rhos = []
    brackets = []
    eig_res = sim_res = unique = gap = None
    v = np.ones(elasticities[0].entries.shape[0])
    if u is not None:
        u = np.asarray(u, dtype=float)
        abs_u = np.abs(u)
        eig_res = 0.0
        v = abs_u if np.all(abs_u > 0.0) else v
        sim_res = 0.0 if compare_spectra and v is abs_u else None
    for idx, E in enumerate(elasticities):
        A = np.abs(E.entries)
        w = A @ v
        ratios = w / v
        lower, upper = float(ratios.min()), float(ratios.max())
        mid = 0.5 * (lower + upper)
        if np.isfinite(mid) and upper - lower <= 1e-12 * max(1.0, mid):
            rhos.append(mid)
            brackets.append((lower, upper))
        else:
            rhos.append(float(np.max(np.abs(eigvals_mod_zero(A)))))
        if u is not None:
            Au = w if v is abs_u else A @ abs_u
            eig_res = max(eig_res, float(np.max(np.abs(Au - abs_u))))
        perron = False
        if sim_res is not None:
            bad = _violations(E.entries, u, 0.0)
            signature = 2.0 * float(np.max(A[bad], initial=0.0))
            sim_res = max(sim_res, signature)
            perron = (signature == 0.0 and 1.0 - NEAR_ONE <= lower
                      and upper <= 1.0 + NEAR_ONE and is_primitive(A))
        if compare_spectra and (idx == 0 or not perron):
            # eigenvalues of DG away from 1 must sit strictly inside
            # the unit circle for 1 to be the unique peripheral one; the
            # multiplicity of 0, which eigvals_mod_zero may change, is
            # never read
            eigs = eigvals_mod_zero(E.entries)
            near_one = np.abs(eigs - 1.0) <= NEAR_ONE
            second = float(np.max(np.abs(eigs[~near_one]), initial=0.0))
            ok = int(near_one.sum()) == 1 and second < 1.0 - NEAR_ONE
            unique = ok if unique is None else (unique and ok)
            g = 1.0 - second
            gap = g if gap is None else min(gap, g)
    return SpectralEvidence(
        rho=tuple(rhos),
        max_rho_deviation=float(np.max(np.abs(np.asarray(rhos) - 1.0))),
        eigvec_residual=eig_res,
        similarity_residual=sim_res,
        unique_modulus_one=unique,
        spectral_gap=gap,
        rho_bracket=((min(lo for lo, _ in brackets),
                      max(hi for _, hi in brackets))
                     if len(brackets) == len(rhos) else None),
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
    except (EvaluationError, DifferentiationError) as exc:
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
    always produced.  When F or its elasticities fail at a sample, every
    check that needs the elasticities reads `error`, naming the
    coordinate and the sample index, and `spectral` is None.  mode is
    "exact" only when the system declares a parameter-determined sign
    pattern.
    """
    samples = sample_states(sys, sample_count, seed)
    mode = "exact" if sys.sign_pattern is not None else "sampled"
    failure = None
    try:
        elas = _elasticities(sys, samples)
    except (EvaluationError, DifferentiationError) as exc:
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

    if failure is not None:
        scaling, certificate = failure, None
    else:
        scaling, certificate = _check_scaling(sys, samples, elas, mode)

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
        samples, elas, compare_spectra=self_int.ok)

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
        differentiation=("analytic" if sys.elasticity_values is not None
                         else "numeric-central-log"),
    )
