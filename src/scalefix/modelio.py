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
import functools
import os
import re
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from scalefix.certify import CertificationReport
from scalefix.solve import NumeraireRule, SolveOptions, SolveResult
from scalefix.trade import (
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    Outcomes,
    ShockStep,
    indexed_labels,
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


# ------------------------------------------------------ reading, writing


def _read_text(path: str) -> str:
    """The file as UTF-8 text, a leading byte-order mark dropped; a file
    that cannot be opened or decoded is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") \
            from None


def _write(path: str, text: str) -> None:
    # single write after all computation: no partial files
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _content_lines(text: str):
    """(line number, text) for each line that holds more than blanks and
    a comment; a # starts a comment anywhere on a line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.partition("#")[0].strip()
        if content:
            yield lineno, content


def _number(where: str, raw: str, kind=float):
    try:
        return kind(raw)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: {raw!r} is not {what}") from None


def _read_table(path: str, one_column: bool) -> np.ndarray:
    """The float rows under a CSV table's header row, at least one: a
    vector if the table must have one column, else a matrix.  Errors
    name the file, row and column."""
    text = _read_text(path)
    # with no # in the text, no line holds a comment to cut off
    lines = ([line for _, line in _content_lines(text)] if "#" in text
             else list(filter(None, map(str.strip, text.splitlines()))))
    if not lines:
        raise ConfigError(f"{path}: file has no header row")
    header, rows = lines[0], lines[1:]
    width = header.count(",") + 1
    if one_column and width != 1:
        raise ConfigError(f"{path}: expected a single column, found {width}")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    try:
        if set(map(str.count, rows, repeat(","))) != {width - 1}:
            raise ValueError("ragged rows")
        table = np.fromiter(map(float, ",".join(rows).split(",")), float)
    except ValueError:
        # read again one line at a time, so that the first fault in file
        # order is named: a cell that is not a number, then a wrong width
        table = []
        for lineno, line in islice(_content_lines(text), 1, None):
            cells = line.split(",")
            where = f"{path}: row {lineno}"
            table += [_number(f"{where}, column {col}", cell.strip())
                      for col, cell in enumerate(cells, start=1)]
            if len(cells) != width:
                raise ConfigError(f"{where}: {len(cells)} values under "
                                  f"{width} header columns")
        table = np.array(table)
    return table if one_column else table.reshape(len(rows), width)


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


# The on-disk layout of each kind: its bundle class; the suffix of the
# [model] keys theta and sigma, "" for scalars or ".s" for per-sector
# lists; and one table per array field, in [model] key order, as
# (field, column labels, one file per sector).  The column labels are
# the country numbers "{}", the sector names "s{}", or None for a single
# column headed by the field name.  A table is saved as "<field>.csv";
# a per-sector table splits its last axis over "<field>.csv.s1", ...
_MULTI_SECTOR = (("A", "s{}", False), ("tau", "{}", True),
                 ("alpha", "s{}", False), ("L", None, False))
_LAYOUTS = {
    "one-sector": (OneSectorParams, "", (
        ("A", None, False), ("tau", "{}", False), ("gamma", None, False),
        ("L", None, False))),
    "multi-sector": (MultiSectorParams, ".s", _MULTI_SECTOR),
    "general": (GeneralParams, ".s", _MULTI_SECTOR + (
        ("gamma_labor", "s{}", False), ("gamma_io", "s{}", True))),
}


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
        parser.read_string(_read_text(path), source=path)
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
    if kind not in _LAYOUTS:
        raise ConfigError(f"{path}: [model] kind must be one of "
                          f"{', '.join(_LAYOUTS)}, got {kind!r}")

    base = os.path.dirname(os.path.abspath(path))
    _, suffix, tables = _LAYOUTS[kind]
    files = {}
    for key, _, _ in tables:
        if key not in model:
            raise ConfigError(f"{path}: [model] is missing the {key} file")
        files[key] = os.path.join(base, model.pop(key).strip())

    keys = (f"theta{suffix}", f"sigma{suffix}")
    for key in keys:
        if key not in model:
            need = "the per-sector list" if suffix else "scalar"
            raise ConfigError(f"{path}: [model] needs {need} {key}")
    theta, sigma = (
        tuple(_number(f"{path}: [model] {key}", tok)
              for tok in model.pop(key).split(",")) if suffix
        else _number(f"{path}: [model] {key}", model.pop(key))
        for key in keys)
    if suffix and len(theta) != len(sigma):
        raise ConfigError(f"{path}: theta.s and sigma.s disagree on "
                          "the number of sectors")

    sv = sections.pop("solve", {})
    tol = _number(f"{path}: [solve] tol", sv.pop("tol", "1e-10"))
    damping = _number(f"{path}: [solve] damping", sv.pop("damping", "1"))
    max_iter = _number(f"{path}: [solve] max_iter",
                       sv.pop("max_iter", "10000"), int)
    anderson = _number(f"{path}: [solve] anderson",
                       sv.pop("anderson", "5"), int)
    try:
        solve = SolveOptions(
            tol=tol, max_iter=max_iter, damping=damping, anderson=anderson,
            numeraire_rule=_parse_numeraire(
                sv.pop("numeraire", "first-coordinate-one")),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [solve] {exc}") from exc

    cf = sections.pop("certify", {})
    out = sections.pop("output", {})
    samples = _number(f"{path}: [certify] samples", cf.pop("samples", "8"),
                      int)
    seed = _number(f"{path}: [certify] seed", cf.pop("seed", "0"), int)
    if samples < 1:
        raise ConfigError(f"{path}: [certify] samples must be positive")
    if seed < 0:
        raise ConfigError(f"{path}: [certify] seed must be non-negative")
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
                     out_dir=out_dir)


def _read_sectored(stem: str, count: int) -> np.ndarray:
    mats = [_read_table(f"{stem}.s{k + 1}", False) for k in range(count)]
    shape = mats[0].shape
    for k, m in enumerate(mats[1:], start=2):
        if m.shape != shape:
            raise ConfigError(f"{stem}.s{k}: shape {m.shape} differs from "
                              f"{stem}.s1 {shape}")
    return np.stack(mats, axis=-1)


def load_parameters(cfg: RunConfig):
    """Read and validate the parameter bundle named by a RunConfig."""
    cls, _, tables = _LAYOUTS[cfg.kind]
    arrays = {}
    for name, columns, sectored in tables:
        path = cfg.files[name]
        arrays[name] = (_read_sectored(path, len(cfg.theta)) if sectored
                        else _read_table(path, columns is None))
    return cls(**arrays, theta=cfg.theta, sigma=cfg.sigma)


def save_parameters(params, directory: str, stem: str = "params") -> str:
    """Write a bundle as `<stem>.ini` plus one CSV table per array field
    (per-sector fields one file per sector), in the layout that
    load_parameters reads; returns the config path.

    Reading the result back yields a field-for-field identical bundle.
    """
    for kind, (cls, suffix, tables) in _LAYOUTS.items():
        if isinstance(params, cls):
            break
    else:
        raise TypeError(f"unknown parameter bundle {type(params).__name__}")
    os.makedirs(directory, exist_ok=True)
    lines = ["[model]", f"kind = {kind}"]
    for name, columns, sectored in tables:
        path = os.path.join(directory, f"{name}.csv")
        arr = getattr(params, name)
        parts = ([(f"{path}.s{k + 1}", arr[..., k])
                  for k in range(arr.shape[-1])] if sectored
                 else [(path, arr)])
        for part_path, body in parts:
            body = body.reshape(len(body), -1)   # a vector is one column
            header = name if columns is None else ",".join(
                columns.format(c + 1) for c in range(body.shape[1]))
            _write(part_path, "\n".join([header] + [
                ",".join(map(_fmt, row)) for row in body.tolist()]) + "\n")
        lines.append(f"{name} = {name}.csv")
    for key in ("theta", "sigma"):
        lines.append(f"{key}{suffix} = " + ", ".join(
            _fmt(v) for v in np.atleast_1d(getattr(params, key)).tolist()))

    cfg_path = os.path.join(directory, f"{stem}.ini")
    _write(cfg_path, "\n".join(lines) + "\n")
    return cfg_path


# ------------------------------------------------------------- shocks


_SHOCK_RE = re.compile(
    r"^(?P<field>[A-Za-z_]+)\s*(?P<idx>(?:\[\d+\])*)\s*"
    r"(?P<op>\*?=)\s*(?P<value>\S+)$")


def parse_shock_file(path: str) -> list[ShockStep]:
    """One directive per line; # comments and blank lines ignored."""
    steps = []
    for lineno, line in _content_lines(_read_text(path)):
        where = f"{path}: line {lineno}"
        m = _SHOCK_RE.match(line)
        if m is None:
            raise ConfigError(
                f"{where}: cannot parse shock directive {line!r}; expected "
                "e.g. 'tau[1][2] *= 2.0' or 'theta = 5.0'")
        steps.append(ShockStep(
            field=m["field"],
            indices=tuple(int(t) for t in re.findall(r"\[(\d+)\]", m["idx"])),
            op=m["op"], value=_number(where, m["value"])))
    return steps


# ------------------------------------------------------------- reports


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
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
        # the join gives the block's last newline
        lines.append(_block(map("scaling.u.".__add__, rep.labels),
                            cert.u.tolist(), FMT)[:-1])
    lines += _check_lines("monotonicity", rep.monotonicity)
    if rep.partition is not None:
        lines.append("monotonicity.zeta_plus: "
                     + " ".join(rep.partition.zeta_plus))
        lines.append("monotonicity.zeta_minus: "
                     + " ".join(rep.partition.zeta_minus))
    sp = rep.spectral
    if sp is not None:
        # a fact that is None was not computed and gets no line
        for key, value in (
                ("rho.max_deviation", sp.max_rho_deviation),
                ("rho.samples", sp.rho), ("rho.bracket", sp.rho_bracket),
                ("eigvec_residual", sp.eigvec_residual),
                ("similarity_residual", sp.similarity_residual),
                ("unique_modulus_one", sp.unique_modulus_one),
                ("gap", sp.spectral_gap)):
            if value is not None:
                lines.append(f"spectral.{key}: {_render(value)}")
    for key in ("scaling_free_radius_one", "uniqueness_applicable",
                "attractivity_applicable"):
        lines.append(f"{key}: {_render(getattr(rep, key))}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """The `key: value` lines back as an ordered dict of strings.  A
    line without a colon, or a key given twice, is a ConfigError that
    names the line (and for a repeat, the line it repeats)."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key: value', "
                              f"got {line!r}")
        key = key.strip()
        if key in first:
            raise ConfigError(f"line {lineno}: key {key!r} repeats "
                              f"line {first[key]}")
        first[key] = lineno
        out[key] = value.strip()
    return out


# --------------------------------------------- equilibria and deltas


_OUTCOMES = ("w", "R", "E", "P", "c", "pi", "U")


@functools.lru_cache(maxsize=128)
def _template(labels: tuple[str, ...], fmt: str) -> str:
    """The `label: value` lines of a block, each ended by a newline, with
    the labels written in and any % in them escaped, so that one % formats
    only the values.  Built on first use, once per labels and format while
    they stay among the last 128 asked for."""
    return "".join(f"{label.replace('%', '%%')}: {fmt}\n" for label in labels)


def _block(labels, values, fmt: str) -> str:
    """One `label: value` line per pair, each ended by a newline."""
    return _template(tuple(labels), fmt) % tuple(values)


def _labelled_lines(named_arrays, fmt: str) -> str:
    """One `name[i]...: value` line per entry, each array in C order."""
    return "".join(_block(indexed_labels(name, *np.shape(arr)),
                          np.ravel(arr).tolist(), fmt)
                   for name, arr in named_arrays)


def format_equilibrium(x_star, outcomes: Outcomes) -> str:
    """State block then outcomes block (every outcome but pi),
    `label: value` per line.

    Values carry eight fractional digits.  Runs from different starting
    points agree to about 1e-8 relative once normalized, so their files
    can differ in the last printed digit: 12 starts on a 30x5
    multi-sector model gave 6 distinct files, at most 6.5e-9 relative
    apart.
    """
    return _block(x_star.labels, x_star.values.tolist(), "%.8e") + "\n" + \
        _labelled_lines(((name, getattr(outcomes, name))
                         for name in _OUTCOMES if name != "pi"), "%.8e")


def format_deltas(changes: dict) -> str:
    """Relative changes, one `delta.<name>[i]...: value` line per entry
    of changes["w"], "R", "E", "P", "c", "pi" and "U" in that order; the
    arrays' own shapes give the indices."""
    return _labelled_lines(
        ((f"delta.{name}", changes[name]) for name in _OUTCOMES), FMT)


def summarize_solve(res: SolveResult) -> str:
    decay = "" if res.decay_rate is None \
        else f", step decay {res.decay_rate:.3g}"
    return (f"{res.status} after {res.iterations} iterations"
            f"{decay}, scale factor {res.normalization_scalar:.6g}")
