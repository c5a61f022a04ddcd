"""In-memory spans recorded around calls into scalefix's modules.

The tracer wraps module attributes of the unmodified package (the names
through which `scalefix.cli.main` and its callees reach each layer) for
the length of one traced op, and puts the originals back afterwards, so
untraced ops run exactly the code a user runs.  F-evaluations are counted
through a wrapped `evaluate_values` callback on every system that
`build_system` returns, and charged to the innermost open span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("cli", "modelio", "trade", "system", "certify", "solve")


@dataclass
class Span:
    op: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    evals: int = 0          # F-evaluations made while this span was innermost
    eval_s: float = 0.0     # time inside those evaluations
    amount: int = 0         # iterations, bytes written or matrix bytes


def _iterations(args, result):
    return result.iterations


def _text_bytes(args, result):
    return len(args[1].encode("utf-8"))


def _matrix_bytes(args, result):
    return result.entries.nbytes


# (module, attribute, span name, amount); a missing module or attribute
# is skipped, which shows as lower trace.coverage rather than as a failed op
PATCHES = (
    ("scalefix.cli", "load_run_config", "modelio.load", None),
    ("scalefix.cli", "load_parameters", "modelio.load", None),
    ("scalefix.cli", "parse_shock_file", "modelio.load", None),
    ("scalefix.cli", "format_report", "modelio.write", None),
    ("scalefix.cli", "format_equilibrium", "modelio.write", None),
    ("scalefix.cli", "format_deltas", "modelio.write", None),
    ("scalefix.cli", "_write", "modelio.write", _text_bytes),
    ("scalefix.cli", "trace_to_csv", "solve.trace_to_csv", None),
    ("scalefix.cli", "build_system", "trade.build", None),
    ("scalefix.cli", "recover_outcomes", "trade.recover", None),
    ("scalefix.cli", "counterfactual", "trade.counterfactual", None),
    ("scalefix.cli", "iterate", "solve.iterate", _iterations),
    ("scalefix.cli", "certify", "certify.run", None),
    ("scalefix.trade", "apply_shock", "trade.apply_shock", None),
    ("scalefix.trade", "build_system", "trade.build", None),
    ("scalefix.trade", "iterate", "solve.iterate", _iterations),
    ("scalefix.trade", "recover_outcomes", "trade.recover", None),
    ("scalefix.certify", "sample_states", "certify.sample", None),
    ("scalefix.certify", "elasticity_at", "system.elasticity", _matrix_bytes),
    ("scalefix.certify", "check_connectedness", "certify.sign_checks", None),
    ("scalefix.certify", "check_self_interaction", "certify.sign_checks",
     None),
    ("scalefix.certify", "check_monotonicity", "certify.sign_checks", None),
    ("scalefix.certify", "find_scaling_exponent", "certify.scaling", None),
    ("scalefix.certify", "check_spectral", "certify.spectral", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, op: int, name: str, fn, *args, amount=None, **kwargs):
        """Run fn inside a span whose parent is the innermost open one."""
        idx = len(self.spans)
        span = Span(op, name, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if amount is not None:
            span.amount = amount(args, result)
        if name == "trade.build":   # count F on every system built
            self._count_evals(result)
        return result

    def _count_evals(self, system):
        evaluate = system.evaluate_values

        def counted(x):
            t0 = time.perf_counter()
            try:
                return evaluate(x)
            finally:
                if self._stack:
                    span = self.spans[self._stack[-1]]
                    span.evals += 1
                    span.eval_s += time.perf_counter() - t0

        # the system is frozen and fresh from build_system; replacing the
        # field in place avoids re-running its validation inside the span
        object.__setattr__(system, "evaluate_values", counted)

    def traced(self, op: int, fn, *args):
        """Run fn(*args) as the root span "cli.main" of op, with every
        layer in PATCHES wrapped."""
        saved = []
        try:
            for module_name, attr, name, amount in PATCHES:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(op, name, original,
                                                    amount))
            return self.call(op, "cli.main", fn, *args)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, op, name, fn, amount):
        def wrapper(*args, **kwargs):
            return self.call(op, name, fn, *args, amount=amount, **kwargs)
        return wrapper

    def op_summary(self, op: int) -> dict:
        """Per-op totals: duration and self time by span name, self time
        by layer, and the counters."""
        idx = [i for i, s in enumerate(self.spans) if s.op == op]
        child_s = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        dur = defaultdict(float)
        own = defaultdict(float)
        amount = defaultdict(int)
        self_s = dict.fromkeys(LAYERS, 0.0)
        evals, eval_s, wall = 0, 0.0, 0.0
        for i in idx:
            s = self.spans[i]
            d = s.end - s.start
            dur[s.name] += d
            amount[s.name] += s.amount
            evals += s.evals
            eval_s += s.eval_s
            mine = d - child_s[i] - s.eval_s
            own[s.name] += mine
            self_s[s.name.split(".")[0]] += mine
            if s.parent is None:
                wall += d
        # F itself belongs to the system layer, whoever called it
        self_s["system"] += eval_s
        return {"dur": dur, "own": own, "amount": amount, "self": self_s,
                "evals": evals, "eval_s": eval_s, "wall": wall}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
