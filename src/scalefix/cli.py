"""Command-line front end.

Commands: certify, solve, counterfactual, report.  Exit codes: 0 on
success, 2 for configuration / data / evaluation problems, 3 when
certification finds a failed condition or records an error verdict
(F failing at a sample included), 4 when the iteration budget runs
out.  stdout carries a one-line summary (suppressed by --quiet);
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from scalefix.certify import CertificationReport, certify
from scalefix.modelio import (
    ConfigError,
    format_deltas,
    format_equilibrium,
    format_report,
    load_parameters,
    load_run_config,
    parse_report,
    parse_shock_file,
    summarize_solve,
)
from scalefix.solve import NormalizationError, iterate, trace_to_csv
from scalefix.system import EvaluationError
from scalefix.trade import (
    ParameterError,
    StaleStateError,
    _dimension,
    _recover,
    build_system,
    counterfactual,
)

__all__ = ["main", "exit_code_for_report"]


def exit_code_for_report(rep: CertificationReport) -> int:
    ok = (rep.connectedness.ok and rep.self_interaction.ok
          and rep.scaling.ok and rep.monotonicity.ok)
    return 0 if ok else 3


def _write(path: str, text: str) -> None:
    # single write after all computation: no partial files
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _out_dir(args, cfg) -> str:
    d = args.out if args.out else cfg.out_dir
    os.makedirs(d, exist_ok=True)
    return d


def _seed(raw: str) -> int:
    if int(raw) < 0:
        raise argparse.ArgumentTypeError(f"{raw!r} is negative")
    return int(raw)


def _start(n: int, seed: int | None):
    if seed is None:
        return np.ones(n)
    return np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, n))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def run_certify(args) -> int:
    cfg = load_run_config(args.config)
    sys_ = build_system(load_parameters(cfg))
    seed = cfg.seed if args.seed is None else args.seed
    rep = certify(sys_, sample_count=cfg.samples, seed=seed)
    path = os.path.join(_out_dir(args, cfg), "report.txt")
    _write(path, format_report(rep))
    banner = "" if rep.mode == "exact" else " [sampled evidence]"
    _say(args, f"certify {rep.system_kind}: "
               f"connectedness={rep.connectedness.verdict} "
               f"self-interaction={rep.self_interaction.verdict} "
               f"scaling={rep.scaling.verdict} "
               f"monotonicity={rep.monotonicity.verdict}{banner} -> {path}")
    return exit_code_for_report(rep)


def run_solve(args) -> int:
    cfg = load_run_config(args.config)
    params = load_parameters(cfg)
    if not params.connected:
        # each bloc would settle on its own arbitrary scale, so one
        # normalized answer would be silently underdetermined
        raise ParameterError(
            "trade network is disconnected, splitting into blocs "
            f"{params.blocs}; refusing to solve", field="tau")
    sys_ = build_system(params)
    res = iterate(sys_, sys_.state(_start(sys_.dimension, args.seed)),
                  u=sys_.scaling, opts=cfg.solve)
    out = _out_dir(args, cfg)
    _write(os.path.join(out, "trace.csv"), trace_to_csv(res))
    if res.status == "converged":
        outcomes = _recover(sys_, res.x_star, params)
        path = os.path.join(out, "equilibrium.txt")
        _write(path, format_equilibrium(res.x_star, outcomes))
        _say(args, f"solve {sys_.kind}: {summarize_solve(res)} -> {path}")
        return 0
    print(f"scalefix: solve {res.status}: {res.message}", file=sys.stderr)
    return 4 if res.status == "budget-exhausted" else 2


def run_counterfactual(args) -> int:
    cfg = load_run_config(args.config)
    params = load_parameters(cfg)
    steps = parse_shock_file(args.shocks)
    result = counterfactual(params, steps, opts=cfg.solve,
                            x0_values=_start(_dimension(params), args.seed))
    path = os.path.join(_out_dir(args, cfg), "deltas.txt")
    _write(path, format_deltas(result.changes))
    worst = float(np.max(np.abs(result.changes["U"])))
    _say(args, f"counterfactual {cfg.kind}: {len(steps)} directive(s), "
               f"max |welfare change| = {worst:.6g} -> {path}")
    return 0


def run_report(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{args.file}: {exc.strerror or exc}") from exc
    kv = parse_report(text)
    group = None
    for key, value in kv.items():
        head, sep, rest = key.partition(".")
        if not sep:
            group = None
            print(f"{key}: {value}")
            continue
        if head != group:
            print(f"{head}:")
            group = head
        print(f"  {rest}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalefix",
        description="Solve and certify positive fixed-point systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="run configuration file")
    common.add_argument("--out", default=None,
                        help="output directory (default: from config)")
    common.add_argument("--seed", type=_seed, default=None,
                        help="certify: sampling seed; solve and "
                             "counterfactual: random starting point")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the stdout summary line")

    p = sub.add_parser("certify", parents=[common],
                       help="check the uniqueness and stability conditions")
    p.set_defaults(func=run_certify)

    p = sub.add_parser("solve", parents=[common],
                       help="iterate to the normalized equilibrium")
    p.set_defaults(func=run_solve)

    p = sub.add_parser("counterfactual", parents=[common],
                       help="re-solve under a parameter shock")
    p.add_argument("--shocks", required=True,
                   help="shock directive file, one edit per line")
    p.set_defaults(func=run_counterfactual)

    p = sub.add_parser("report", help="pretty-print a certification report")
    p.add_argument("file")
    p.set_defaults(func=run_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ConfigError, ParameterError, EvaluationError,
            NormalizationError, OSError) as exc:
        print(f"scalefix: error: {exc}", file=sys.stderr)
        return 2
    except StaleStateError as exc:
        print(f"scalefix: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
