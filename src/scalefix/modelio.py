"""File formats: run configuration, parameter tables, shock directives,
certification reports and solved equilibria.

Parameters live in an INI-style configuration ([model], [solve],
[certify], [output]) plus comma-separated tables with one header row.
Sector-indexed tables are one file per sector, the sector number
appended as ".s<k>".  Numbers are written with 17 significant digits so
a round trip reproduces every float bit for bit; infinity is the
literal token "inf".
"""

from __future__ import annotations

import configparser
import os
import re
from dataclasses import dataclass, field

import numpy as np

from scalefix.certify import CertificationReport
from scalefix.solve import NumeraireRule, SolveOptions, SolveResult
from scalefix.trade import (
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    Outcomes,
    ShockStep,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "load_parameters",
    "save_parameters",
    "parse_shock_file",
    "format_report",
    "parse_report",
    "format_equilibrium",
    "format_deltas",
]

FMT = "%.17g"


class ConfigError(ValueError):
    """A configuration or data file problem, located by file and line."""


def _fmt(v: float) -> str:
    return FMT % v


# ---------------------------------------------------------- CSV tables


def _read_rows(path: str) -> tuple[list[str], list[list[float]]]:
    """Header labels plus float rows; errors name file, row and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    header: list[str] | None = None
    rows: list[list[float]] = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in stripped.split(",")]
        if header is None:
            header = cells
            continue
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path}: row {lineno}, column {col}: "
                    f"cannot read {cell!r} as a number") from None
        if len(parsed) != len(header):
            raise ConfigError(
                f"{path}: row {lineno}: {len(parsed)} values under "
                f"{len(header)} header columns")
        rows.append(parsed)
    if header is None:
        raise ConfigError(f"{path}: file has no header row")
    return header, rows


def read_vector(path: str) -> np.ndarray:
    header, rows = _read_rows(path)
    if len(header) != 1:
        raise ConfigError(f"{path}: expected a single column, "
                          f"found {len(header)}")
    return np.array([r[0] for r in rows])


def read_matrix(path: str) -> np.ndarray:
    header, rows = _read_rows(path)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return np.array(rows)


def _write_table(path: str, header: list[str], body: np.ndarray) -> None:
    lines = [",".join(header)]
    for row in np.atleast_2d(body):
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------- configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model kind, data file paths, solve
    and certify options, output directory."""

    kind: str
    files: dict
    theta: object           # float, or tuple per sector
    sigma: object
    solve: SolveOptions
    samples: int = 8
    seed: int = 0
    out_dir: str = "."
    config_dir: str = field(default=".", repr=False)


_KINDS = ("one-sector", "multi-sector", "general")
_FILE_KEYS = {
    "one-sector": ("A", "tau", "gamma", "L"),
    "multi-sector": ("A", "tau", "alpha", "L"),
    "general": ("A", "tau", "alpha", "L", "gamma_labor", "gamma_io"),
}


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a number") \
            from None


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(section, key, tok)
                 for tok in raw.split(","))


def _parse_numeraire(raw: str) -> NumeraireRule:
    kind, _, arg = raw.partition(":")
    kind = kind.strip()
    arg = arg.strip() or None
    if kind == "first-coordinate-one":
        return NumeraireRule.first()
    if kind == "geometric-mean-one":
        return NumeraireRule.geometric_mean(block=arg)
    if kind == "named-coordinate":
        if arg is None:
            raise ConfigError("numeraire named-coordinate needs a label, "
                              "e.g. named-coordinate:W[1]")
        return NumeraireRule.named(arg)
    raise ConfigError(f"unknown numeraire rule {kind!r}")


def load_run_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except configparser.Error as exc:
        # configparser errors already carry source and line number
        raise ConfigError(str(exc)) from exc
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [DEFAULT]")

    # every read pops its key, so what is left at the end is unknown
    sections = {name: dict(parser[name]) for name in parser.sections()}
    model = sections.pop("model", None)
    if model is None:
        raise ConfigError(f"{path}: missing [model] section")
    kind = model.pop("kind", "").strip()
    if kind not in _KINDS:
        raise ConfigError(f"{path}: [model] kind must be one of "
                          f"{', '.join(_KINDS)}, got {kind!r}")

    base = os.path.dirname(os.path.abspath(path))
    files = {}
    for key in _FILE_KEYS[kind]:
        if key not in model:
            raise ConfigError(f"{path}: [model] is missing the {key} file")
        files[key] = os.path.join(base, model.pop(key).strip())

    if kind == "one-sector":
        for key in ("theta", "sigma"):
            if key not in model:
                raise ConfigError(f"{path}: [model] needs scalar {key}")
        theta = _parse_float("model", "theta", model.pop("theta"))
        sigma = _parse_float("model", "sigma", model.pop("sigma"))
    else:
        for key in ("theta.s", "sigma.s"):
            if key not in model:
                raise ConfigError(f"{path}: [model] needs the per-sector "
                                  f"list {key}")
        theta = _parse_float_list("model", "theta.s", model.pop("theta.s"))
        sigma = _parse_float_list("model", "sigma.s", model.pop("sigma.s"))
        if len(theta) != len(sigma):
            raise ConfigError(f"{path}: theta.s and sigma.s disagree on "
                              "the number of sectors")

    sv = sections.pop("solve", {})
    try:
        solve = SolveOptions(
            tol=_parse_float("solve", "tol", sv.pop("tol", "1e-10")),
            max_iter=int(sv.pop("max_iter", "10000")),
            damping=_parse_float("solve", "damping", sv.pop("damping", "1")),
            numeraire_rule=_parse_numeraire(
                sv.pop("numeraire", "first-coordinate-one")),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [solve] {exc}") from exc

    cf = sections.pop("certify", {})
    out = sections.pop("output", {})
    try:
        samples = int(cf.pop("samples", "8"))
        seed = int(cf.pop("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"{path}: [certify] {exc}") from exc
    if samples < 1:
        raise ConfigError(f"{path}: [certify] samples must be positive")
    cf.pop("threads", None)     # ignored; it once set a thread count
    out_dir = out.pop("directory", ".").strip()
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(base, out_dir)

    if sections:
        raise ConfigError(
            f"{path}: unknown section [{next(iter(sections))}]")
    for name, left in (("model", model), ("solve", sv), ("certify", cf),
                       ("output", out)):
        if left:
            raise ConfigError(
                f"{path}: unknown key {next(iter(left))!r} in [{name}]")
    return RunConfig(kind=kind, files=files, theta=theta, sigma=sigma,
                     solve=solve, samples=samples, seed=seed,
                     out_dir=out_dir, config_dir=base)


def _read_sectored(stem: str, count: int) -> np.ndarray:
    mats = [read_matrix(f"{stem}.s{k + 1}") for k in range(count)]
    shape = mats[0].shape
    for k, m in enumerate(mats[1:], start=2):
        if m.shape != shape:
            raise ConfigError(f"{stem}.s{k}: shape {m.shape} differs from "
                              f"{stem}.s1 {shape}")
    return np.stack(mats, axis=-1)


def load_parameters(cfg: RunConfig):
    """Read and validate the parameter bundle named by a RunConfig."""
    f = cfg.files
    if cfg.kind == "one-sector":
        return OneSectorParams(
            A=read_vector(f["A"]),
            tau=read_matrix(f["tau"]),
            gamma=read_vector(f["gamma"]),
            L=read_vector(f["L"]),
            theta=cfg.theta,
            sigma=cfg.sigma,
        )
    S = len(cfg.theta)
    common = dict(
        A=read_matrix(f["A"]),
        tau=_read_sectored(f["tau"], S),
        alpha=read_matrix(f["alpha"]),
        L=read_vector(f["L"]),
        theta=np.array(cfg.theta),
        sigma=np.array(cfg.sigma),
    )
    if cfg.kind == "multi-sector":
        return MultiSectorParams(**common)
    return GeneralParams(
        gamma_labor=read_matrix(f["gamma_labor"]),
        gamma_io=_read_sectored(f["gamma_io"], S),
        **common,
    )


def save_parameters(params, directory: str, stem: str = "params") -> str:
    """Write a bundle as config plus tables; returns the config path.

    Reading the result back yields a field-for-field identical bundle.
    """
    os.makedirs(directory, exist_ok=True)

    def pjoin(name):
        return os.path.join(directory, name)

    lines = ["[model]"]
    if isinstance(params, OneSectorParams):
        J = params.J
        cols = [str(j + 1) for j in range(J)]
        _write_table(pjoin("A.csv"), ["A"], params.A[:, None])
        _write_table(pjoin("tau.csv"), cols, params.tau)
        _write_table(pjoin("gamma.csv"), ["gamma"], params.gamma[:, None])
        _write_table(pjoin("L.csv"), ["L"], params.L[:, None])
        lines += ["kind = one-sector", "A = A.csv", "tau = tau.csv",
                  "gamma = gamma.csv", "L = L.csv",
                  f"theta = {_fmt(params.theta)}",
                  f"sigma = {_fmt(params.sigma)}"]
    else:
        J, S = params.J, params.S
        secs = [f"s{k + 1}" for k in range(S)]
        cols = [str(j + 1) for j in range(J)]
        _write_table(pjoin("A.csv"), secs, params.A)
        _write_table(pjoin("alpha.csv"), secs, params.alpha)
        _write_table(pjoin("L.csv"), ["L"], params.L[:, None])
        for k in range(S):
            _write_table(pjoin(f"tau.csv.s{k + 1}"), cols,
                         params.tau[:, :, k])
        kind = "general" if isinstance(params, GeneralParams) \
            else "multi-sector"
        lines += [f"kind = {kind}", "A = A.csv", "tau = tau.csv",
                  "alpha = alpha.csv", "L = L.csv"]
        if isinstance(params, GeneralParams):
            _write_table(pjoin("gamma_labor.csv"), secs, params.gamma_labor)
            for k in range(S):
                _write_table(pjoin(f"gamma_io.csv.s{k + 1}"), secs,
                             params.gamma_io[:, :, k])
            lines += ["gamma_labor = gamma_labor.csv",
                      "gamma_io = gamma_io.csv"]
        lines += ["theta.s = " + ", ".join(_fmt(t) for t in params.theta),
                  "sigma.s = " + ", ".join(_fmt(s) for s in params.sigma)]

    cfg_path = pjoin(f"{stem}.ini")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return cfg_path


# ------------------------------------------------------------- shocks


_SHOCK_RE = re.compile(
    r"^(?P<field>[A-Za-z_]+)\s*(?P<idx>(?:\[\d+\])*)\s*"
    r"(?P<op>\*?=)\s*(?P<value>\S+)$")


def parse_shock_line(line: str) -> ShockStep:
    m = _SHOCK_RE.match(line.strip())
    if m is None:
        raise ConfigError(
            f"cannot parse shock directive {line.strip()!r}; expected "
            "e.g. 'tau[1][2] *= 2.0' or 'theta = 5.0'")
    indices = tuple(int(t) for t in re.findall(r"\[(\d+)\]", m["idx"]))
    try:
        value = float(m["value"])
    except ValueError:
        raise ConfigError(f"shock value {m['value']!r} is not a number") \
            from None
    return ShockStep(field=m["field"], indices=indices,
                     op=m["op"], value=value)


def parse_shock_file(path: str) -> list[ShockStep]:
    """One directive per line; # comments and blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    steps = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            steps.append(parse_shock_line(stripped))
        except ConfigError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    return steps


# ------------------------------------------------------------- reports


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _check_lines(prefix: str, check) -> list[str]:
    lines = [f"{prefix}.verdict: {check.verdict}"]
    for key in sorted(check.details):
        val = check.details[key]
        if key == "blocs":
            val = " | ".join(" ".join(b) for b in val)
        lines.append(f"{prefix}.{key}: {_render(val)}")
    return lines


def format_report(rep: CertificationReport) -> str:
    """Flat `key: value` text with a fixed key vocabulary, one fact per
    line, so runs can be diffed."""
    lines = [
        f"mode: {rep.mode}",
        f"system.kind: {rep.system_kind}",
        f"system.dimension: {len(rep.labels)}",
        f"differentiation: {rep.differentiation}",
        f"samples.count: {len(rep.samples)}",
        f"samples.seed: {rep.sample_seed}",
    ]
    lines += _check_lines("connectedness", rep.connectedness)
    lines += _check_lines("self_interaction", rep.self_interaction)
    lines += _check_lines("scaling", rep.scaling)
    if rep.certificate is not None:
        cert = rep.certificate
        lines.append(f"scaling.normalization: {cert.normalization}")
        lines.append("scaling.residual_fixed_eq: "
                     f"{_fmt(cert.residual_fixed_eq)}")
        lines.append("scaling.residual_direct: "
                     f"{_fmt(cert.residual_direct)}")
        for label, uj in zip(rep.labels, cert.u):
            lines.append(f"scaling.u.{label}: {_fmt(uj)}")
    lines += _check_lines("monotonicity", rep.monotonicity)
    if rep.partition is not None:
        lines.append("monotonicity.zeta_plus: "
                     + " ".join(rep.partition.zeta_plus))
        lines.append("monotonicity.zeta_minus: "
                     + " ".join(rep.partition.zeta_minus))
    sp = rep.spectral
    if sp is not None:
        lines.append(f"spectral.rho.max_deviation: "
                     f"{_fmt(sp.max_rho_deviation)}")
        lines.append("spectral.rho.samples: "
                     + " ".join(_fmt(r) for r in sp.rho))
        if sp.rho_bracket is not None:
            lines.append("spectral.rho.bracket: "
                         + " ".join(_fmt(b) for b in sp.rho_bracket))
        if sp.eigvec_residual is not None:
            lines.append("spectral.eigvec_residual: "
                         f"{_fmt(sp.eigvec_residual)}")
        if sp.similarity_residual is not None:
            lines.append("spectral.similarity_residual: "
                         f"{_fmt(sp.similarity_residual)}")
        if sp.unique_modulus_one is not None:
            lines.append("spectral.unique_modulus_one: "
                         f"{_render(sp.unique_modulus_one)}")
        if sp.spectral_gap is not None:
            lines.append(f"spectral.gap: {_fmt(sp.spectral_gap)}")
    lines.append("scaling_free_radius_one: "
                 f"{_render(rep.scaling_free_radius_one)}")
    lines.append(f"uniqueness_applicable: {_render(rep.uniqueness_applicable)}")
    lines.append("attractivity_applicable: "
                 f"{_render(rep.attractivity_applicable)}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """The `key: value` lines back as an ordered dict of strings."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key: value', "
                              f"got {line!r}")
        out[key.strip()] = value.strip()
    return out


# --------------------------------------------- equilibria and deltas


def _sector_label(name: str, i: int, s: int) -> str:
    return f"{name}[{i + 1}][{s + 1}]"


def format_equilibrium(x_star, outcomes: Outcomes) -> str:
    """State block then outcomes block, `label: value` per line.

    Values carry eight fractional digits: runs from different starting
    points agree to far tighter than that once normalized, so the file
    is reproducible byte for byte.
    """
    lines = [f"{label}: {v:.8e}"
             for label, v in zip(x_star.labels, x_star.values)]
    lines.append("")
    J, S = outcomes.R.shape
    for i in range(J):
        lines.append(f"w[{i + 1}]: {outcomes.w[i]:.8e}")
    for name in ("R", "E", "P", "c"):
        arr = getattr(outcomes, name)
        for i in range(J):
            for s in range(S):
                lines.append(f"{_sector_label(name, i, s)}: "
                             f"{arr[i, s]:.8e}")
    for i in range(J):
        lines.append(f"U[{i + 1}]: {outcomes.U[i]:.8e}")
    return "\n".join(lines) + "\n"


def format_deltas(changes: dict, J: int, S: int) -> str:
    """Relative changes, one `delta.<name>: value` line per entry."""
    lines = []
    for i in range(J):
        lines.append(f"delta.w[{i + 1}]: {_fmt(changes['w'][i])}")
    for name in ("R", "E", "P", "c"):
        for i in range(J):
            for s in range(S):
                lines.append(f"delta.{_sector_label(name, i, s)}: "
                             f"{_fmt(changes[name][i, s])}")
    for i in range(J):
        for j in range(J):
            for s in range(S):
                lines.append(f"delta.pi[{i + 1}][{j + 1}][{s + 1}]: "
                             f"{_fmt(changes['pi'][i, j, s])}")
    for i in range(J):
        lines.append(f"delta.U[{i + 1}]: {_fmt(changes['U'][i])}")
    return "\n".join(lines) + "\n"


def summarize_solve(res: SolveResult) -> str:
    decay = "" if res.decay_rate is None \
        else f", step decay {res.decay_rate:.3g}"
    return (f"{res.status} after {res.iterations} iterations"
            f"{decay}, scale factor {res.normalization_scalar:.6g}")
