"""Benchmark of the scalefix command line on seeded, generated models.

    python3 perfbench/run.py --workload certify-exact --seed 1 \
        --seconds 30 --trace 0

Runs the `scalefix` CLI in process (`scalefix.cli.main`) from the
checkout's `src/`, checks every output, and prints one JSON object as
the last line of stdout.  It exits 1 if any output failed its check.
`--trace 0` gives the end-to-end metrics; `--trace 1` alternates
untraced ops with traced ones (see tracer.py) and gives the per-layer
metrics.  perfbench/README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

# numpy and scalefix are imported inside functions: the BLAS thread count
# has to be in the environment before numpy first loads.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "work")
# BLAS threads of this process and of the set-up processes it starts.
# The command in BENCHMARK.json sets the same count in its environment.
BLAS_THREADS = 1

# model sizes: (kind, J, S).  Smoke sizes only check that the benchmark
# itself works and are never measured.
WORKLOADS = {
    "certify-exact": ("multi-sector", 30, 5),
    "certify-sampled": ("general", 15, 3),
    "sweep": ("multi-sector", 30, 5),
}
SMOKE_SIZE = (4, 2)
EXPECTED_VERDICTS = {
    "certify-exact": ({"connectedness": "pass", "self_interaction": "pass",
                       "scaling": "pass", "monotonicity": "pass"}, 0),
    "certify-sampled": ({"monotonicity": "fail"}, 3),
}
# A seed generates CASES models, each with its own sampling seed or
# start and shock file; steps rotate over them, so no one model's
# convergence rate sets a run's figures.
CASES = 16
SETUP_REPEATS = 21    # set-up processes timed for setup_s, spread over a run
# setup_s is given in seconds at the machine speed where a fresh process
# imports numpy in this time, its typical time on the machine of README.md
IMPORT_NOMINAL_S = 0.09
SOLVE_MATCH_RTOL = 1e-7
# equilibrium.txt prints 9 significant digits; with theta up to 8 the
# conditions then hold to about 1e-7
CONDITION_RTOL = 1e-6
OUTCOMES = ("w", "R", "E", "P", "c", "U")

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scalefix
from scalefix.modelio import load_parameters, load_run_config
from scalefix.trade import build_system
build_system(load_parameters(load_run_config(sys.argv[2])))
print(repr(time.perf_counter() - t0))
"""
IMPORT_CHILD = """
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny models; for the benchmark's own tests")
    ap.add_argument("--break-expectation", action="store_true",
                    help="expect the wrong certify verdict, so every op "
                         "fails its check; for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.break_expectation and args.workload not in EXPECTED_VERDICTS:
        ap.error("--break-expectation needs a certify workload")
    return args


# ------------------------------------------------------------ inputs


def make_params(kind, J, S, rng):
    """A bundle from the acceptance-test families; general models get
    labor shares U(0.5, 0.8) and row-normalised intermediate shares."""
    import numpy as np
    from scalefix import GeneralParams, MultiSectorParams
    tau = 1.0 + rng.uniform(0.05, 1.2, (J, J, S))
    for s in range(S):
        np.fill_diagonal(tau[:, :, s], 1.0)
    alpha = rng.uniform(0.2, 1.0, (J, S))
    alpha /= alpha.sum(axis=1, keepdims=True)
    theta = rng.uniform(2.0, 8.0, S)
    fields = dict(A=rng.uniform(0.5, 2.0, (J, S)), tau=tau, alpha=alpha,
                  L=rng.uniform(0.5, 2.0, J), theta=theta,
                  sigma=1.0 + 0.4 * theta)
    if kind == "multi-sector":
        return MultiSectorParams(**fields)
    labor = rng.uniform(0.5, 0.8, (J, S))
    io = rng.uniform(0.1, 1.0, (J, S, S))
    io *= ((1.0 - labor) / io.sum(axis=1))[:, None, :]
    return GeneralParams(gamma_labor=labor, gamma_io=io, **fields)


def make_shock(rng, J, S):
    """Two bilateral trade-cost hikes and one productivity change, as
    (field, 1-based indices, factor)."""
    steps = []
    for _ in range(2):
        i, j = (int(k) + 1 for k in rng.choice(J, size=2, replace=False))
        s = int(rng.integers(S)) + 1
        factor = float(f"{rng.uniform(1.1, 1.6):.6f}")
        steps.append(("tau", (i, j, s), factor))
    i, s = int(rng.integers(J)) + 1, int(rng.integers(S)) + 1
    steps.append(("A", (i, s), float(f"{rng.uniform(0.8, 1.25):.6f}")))
    return steps


def shock_text(steps):
    return "".join(f"{name}[{']['.join(map(str, idx))}] *= {factor!r}\n"
                   for name, idx, factor in steps)


def shocked_params(params, steps):
    """The bundle's arrays with the shock applied, made here rather than
    through the program's apply_shock."""
    import numpy as np
    arrays = {name: np.array(getattr(params, name))
              for name in ("A", "tau", "alpha", "L", "theta", "sigma")}
    for name, idx, factor in steps:
        arrays[name][tuple(k - 1 for k in idx)] *= factor
    return SimpleNamespace(**arrays)


# ------------------------------------------------------------ checks


def read_blocks(path):
    """`key: value` lines, one dict per block of lines between blank ones."""
    blocks = [{}]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(":")
            if sep:
                blocks[-1][key.strip()] = value.strip()
            elif not line.strip() and blocks[-1]:
                blocks.append({})
    return [b for b in blocks if b]


def read_key_values(path):
    return {k: v for block in read_blocks(path) for k, v in block.items()}


def check_certify(expected, rc, out):
    verdicts, code = expected
    if rc != code:
        return f"exit code {rc}, expected {code}"
    report = read_key_values(os.path.join(out, "report.txt"))
    for check, verdict in verdicts.items():
        got = report.get(f"{check}.verdict")
        if got != verdict:
            return f"{check} verdict {got}, expected {verdict}"
    return None


def violated(values, targets, what):
    from conditions import worst_violation
    name, err = worst_violation(values, targets)
    if err <= CONDITION_RTOL:
        return None
    return f"{what}: {name} is {err:.2e} off its equilibrium condition"


def check_solve(case, rc, out):
    """Values as the reference solve's, and the equilibrium conditions
    of conditions.py hold for them."""
    from conditions import outcome_targets, parse_levels, state_targets
    if rc != 0:
        return f"exit code {rc}, expected 0"
    blocks = read_blocks(os.path.join(out, "equilibrium.txt"))
    if len(blocks) != 2:
        return "equilibrium.txt is not a state block and an outcome block"
    # by value, not by bytes: starts that differ change the last
    # printed digit (see README)
    for block, reference in zip(blocks, case.reference):
        if set(block) != set(reference):
            return "equilibrium.txt labels differ from the reference solve"
        for key, ref in reference.items():
            v = float(block[key])
            if not abs(v - ref) <= SOLVE_MATCH_RTOL * abs(ref):
                return f"{key} = {v!r}, reference {ref!r}"
    J, S = case.params.A.shape
    levels = parse_levels(blocks[1], J, S, OUTCOMES)
    state = parse_levels(blocks[0], J, S, ("OMEGA", "P", "W"))
    return violated(levels, outcome_targets(case.params, levels),
                    "equilibrium.txt") or \
        violated(state, state_targets(case.params, levels),
                 "equilibrium.txt state")


def check_counterfactual(case, rc, out):
    """The shocked levels, the reference's times 1 + delta, meet the
    equilibrium conditions of the shocked model, and every shocked entry
    moved."""
    from conditions import outcome_targets, parse_levels
    if rc != 0:
        return f"exit code {rc}, expected 0"
    J, S = case.params.A.shape
    deltas = parse_levels(read_key_values(os.path.join(out, "deltas.txt")),
                          J, S, OUTCOMES + ("pi",), prefix="delta.")
    for name, idx, _ in case.shock:
        # a trade-cost hike shows in that flow's share, a productivity
        # change in that sector's revenue
        moved = ("pi" if name == "tau" else "R", tuple(k - 1 for k in idx))
        if deltas[moved[0]][moved[1]] == 0.0:
            return f"no change after the shock to {name}{list(idx)}"
    shocked = {name: case.base[name] * (1.0 + d)
               for name, d in deltas.items()}
    return violated(shocked, outcome_targets(case.shocked, shocked),
                    "deltas.txt")


OUTPUT_FILES = {"certify": ("report.txt",),
                "solve": ("trace.csv", "equilibrium.txt"),
                "counterfactual": ("deltas.txt",)}


def same_files(a, b, names):
    for name in names:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            return False
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


# ------------------------------------------------------------ set-up


class Calibration:
    """A fixed kernel that does not use scalefix: a dense eigenvalue
    problem, an interpreter loop and small array operations, the three
    kinds of work the ops do.  Timed between ops, it tracks how fast the
    machine runs at that moment; op times are reported in its units."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.matrix = rng.standard_normal((96, 96))
        self.vector = rng.standard_normal(400)

    def __call__(self):
        np, v = self.np, self.vector
        t0 = time.perf_counter()
        np.linalg.eigvals(self.matrix)
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        for _ in range(300):
            np.exp(np.log(np.abs(v) + 1.0)) @ v
        return time.perf_counter() - t0


class Bench:
    """Generated inputs for one workload and seed, and the ops on them."""

    def __init__(self, args, work):
        import numpy as np
        from scalefix.modelio import save_parameters

        self.workload = args.workload
        self.work = work
        kind, J, S = WORKLOADS[args.workload]
        if args.smoke:
            J, S = SMOKE_SIZE
        rng = np.random.default_rng(args.seed)
        models = [make_params(kind, J, S, rng) for _ in range(CASES)]
        seeds = rng.integers(0, 2**31, CASES)
        self.cases = [
            SimpleNamespace(
                params=params, seed=str(seeds[c]),
                config=save_parameters(params,
                                       os.path.join(work, f"model{c}")))
            for c, params in enumerate(models)]
        self.expected = EXPECTED_VERDICTS.get(args.workload)
        if args.break_expectation:
            verdicts, code = self.expected
            flip = {"pass": "fail", "fail": "pass"}
            self.expected = ({c: flip[v] for c, v in verdicts.items()},
                             3 - code)
        if args.workload == "sweep":
            for c, case in enumerate(self.cases):
                case.shock = make_shock(rng, J, S)
                case.shocked = shocked_params(case.params, case.shock)
                case.shock_file = os.path.join(work, f"shock{c}.txt")
                with open(case.shock_file, "w", encoding="utf-8") as fh:
                    fh.write(shock_text(case.shock))
                self._reference_solve(case)

    @staticmethod
    def _reference_solve(case):
        """The blocks equilibrium.txt should hold, from a library solve
        of the same config from the all-ones start, not from the CLI, and
        the outcome levels the counterfactual's deltas apply to."""
        import numpy as np
        from conditions import parse_levels, trade_shares
        from scalefix import build_system, iterate, recover_outcomes
        from scalefix.modelio import load_parameters, load_run_config
        cfg = load_run_config(case.config)
        params = load_parameters(cfg)
        system = build_system(params)
        res = iterate(system, system.state(np.ones(system.dimension)),
                      u=system.scaling, opts=cfg.solve)
        if res.status != "converged":
            raise RuntimeError(f"reference solve of {case.config}: "
                               f"{res.status}")
        out = recover_outcomes(system.kind, res.x_star, params)
        state = {k: float(v) for k, v in
                 zip(res.x_star.labels, res.x_star.values)}
        outcomes = {}
        J, S = out.R.shape
        for i in range(J):
            outcomes[f"w[{i + 1}]"] = float(out.w[i])
            outcomes[f"U[{i + 1}]"] = float(out.U[i])
            for name in ("R", "E", "P", "c"):
                for s in range(S):
                    outcomes[f"{name}[{i + 1}][{s + 1}]"] = \
                        float(getattr(out, name)[i, s])
        case.reference = (state, outcomes)
        case.base = parse_levels(outcomes, J, S, OUTCOMES)
        case.base["pi"] = trade_shares(case.params, case.base["w"])[1]

    def step(self, k):
        """The CLI invocations of step k: (command, argv, checker)."""
        case = self.cases[k % CASES]
        config = ["--config", case.config]
        if self.workload != "sweep":
            return [("certify", ["certify", "--seed", case.seed] + config,
                     lambda rc, out: check_certify(self.expected, rc, out))]
        return [
            ("solve", ["solve", "--seed", case.seed] + config,
             lambda rc, out: check_solve(case, rc, out)),
            ("counterfactual",
             ["counterfactual", "--shocks", case.shock_file] + config,
             lambda rc, out: check_counterfactual(case, rc, out)),
        ]

    def setup_ratio(self):
        """import + load + build once in a fresh process, over the time a
        fresh process takes to import numpy alone, timed right after."""
        return child_seconds(SETUP_CHILD, SRC, self.cases[0].config) / \
            child_seconds(IMPORT_CHILD)


def child_seconds(code, *args):
    done = subprocess.run([sys.executable, "-I", "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ runs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem, what):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {what}: {problem}", file=sys.stderr)


def invoke(argv, out, runner):
    """One CLI invocation into a clean out directory: (rc, seconds)."""
    from scalefix.cli import main
    command = argv[0]
    for name in OUTPUT_FILES[command]:
        path = os.path.join(out, name)
        if os.path.exists(path):
            os.remove(path)
    t0 = time.perf_counter()
    try:
        rc = runner(main, argv + ["--out", out, "--quiet"])
    except Exception:  # an op that crashes is a failed op, not a crash
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - t0


def plain(main, argv):
    return main(argv)


def run_step(bench, k, tally, runner=plain, suffix=""):
    """Run and check step k; returns {command: (seconds, out dir)}."""
    done = {}
    for command, argv, checker in bench.step(k):
        out = os.path.join(bench.work, command + suffix)
        rc, wall = invoke(argv, out, runner)
        try:
            problem = checker(rc, out)
        except (OSError, ValueError) as exc:
            problem = f"unreadable output: {exc}"
        tally.record(problem, f"step {k} {command}{suffix}")
        done[command] = (wall, out)
    return done


def step_seconds(done):
    return sum(wall for wall, _ in done.values())


def top_quantile(values, n):
    """The highest of the n-quantiles: p90 for n=10, p75 for n=4."""
    return statistics.quantiles(values, n=n)[-1] if len(values) > 1 \
        else values[0]


def measure_plain(bench, seconds, tally, setup_repeats):
    calibrate = Calibration()
    run_step(bench, 0, tally)   # warm-up, untimed
    ratios, setups = [], []
    t_start = time.perf_counter()
    before = calibrate()
    k = 1
    while not ratios or time.perf_counter() < t_start + seconds:
        wall = step_seconds(run_step(bench, k, tally))
        after = calibrate()
        ratios.append(wall / (0.5 * (before + after)))
        before = after
        k += 1
        # set-up samples are spread over the run, so that they see the
        # same mix of machine states as the ops
        due = (time.perf_counter() - t_start) / seconds * setup_repeats
        if len(setups) < min(due, setup_repeats):
            setups.append(bench.setup_ratio())
            before = calibrate()
    while len(setups) < setup_repeats:
        setups.append(bench.setup_ratio())
    return {
        "setup_s": (IMPORT_NOMINAL_S * statistics.median(setups), "s"),
        "op_cal": (statistics.median(ratios), "cal"),
        "op_cal.p75": (top_quantile(ratios, 4), "cal"),
        "ops_per_kcal": (1000.0 * len(ratios) / sum(ratios), "1/kcal"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def measure_traced(bench, seconds, tally, spans_path):
    from tracer import LAYERS, Tracer
    tracer = Tracer()
    calibrate = Calibration()
    run_step(bench, 0, tally)   # warm-up, untimed
    plain_walls = {"certify": [], "solve": [], "counterfactual": []}
    plain_steps, overheads, kernel, summaries = [], [], [], []
    t_end = time.perf_counter() + seconds
    k = 1
    while not summaries or time.perf_counter() < t_end:
        kernel.append(calibrate())
        done = run_step(bench, k, tally)
        for command, (wall, _) in done.items():
            plain_walls[command].append(wall)
        plain_steps.append(step_seconds(done))

        def runner(main, argv, op=k):
            return tracer.traced(op, main, argv)
        traced = run_step(bench, k, tally, runner, "-traced")
        overheads.append(step_seconds(traced) / plain_steps[-1] - 1.0)
        for command, (_, out) in done.items():
            tally.record(
                None if same_files(out, traced[command][1],
                                   OUTPUT_FILES[command])
                else "traced outputs differ from the untraced op",
                f"step {k} {command} trace check")
        summaries.append(tracer.op_summary(k))
        k += 1
    tracer.write(spans_path)

    def med(f, ops=summaries):
        return statistics.median(f(s) for s in ops)

    # counts are taken over one pass through the cases, so that a run of
    # a seed repeats them exactly however many ops fit in the window
    once = summaries[:CASES]

    def dur(name):
        return (med(lambda s: s["dur"][name]), "s")

    def per_kind(command, stat):
        values = plain_walls[command]
        return (stat(values) if values else 0.0, "s")

    def p90(values):
        return top_quantile(values, 10)

    def iterate_self_per_iter(s):
        # iterate has no traced children: its own time is its span time
        # minus the F-evaluations charged to it
        iters = s["amount"]["solve.iterate"]
        return s["own"]["solve.iterate"] / iters if iters else 0.0

    metrics = {
        "system.eval_count": (med(lambda s: s["evals"], once), "count"),
        "system.eval_s": (med(lambda s: s["eval_s"]), "s"),
        "system.elasticity_s": dur("system.elasticity"),
        "certify.scaling_s": dur("certify.scaling"),
        "certify.sign_checks_s": dur("certify.sign_checks"),
        "certify.spectral_s": dur("certify.spectral"),
        "certify.matrix_bytes": (med(
            lambda s: s["amount"]["system.elasticity"], once), "B"),
        "solve.iterate_s": dur("solve.iterate"),
        "solve.iterations": (med(
            lambda s: s["amount"]["solve.iterate"], once), "count"),
        "solve.self_s_per_iter": (med(iterate_self_per_iter), "s"),
        "trade.build_s": dur("trade.build"),
        "trade.apply_shock_s": dur("trade.apply_shock"),
        "trade.recover_s": dur("trade.recover"),
        "modelio.load_s": dur("modelio.load"),
        "modelio.write_s": dur("modelio.write"),
        "modelio.bytes_written": (med(
            lambda s: s["amount"]["modelio.write"], once), "B"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda s: s["self"][layer]), "s")
    metrics.update({
        "cli.step_s": (statistics.median(plain_steps), "s"),
        "cli.certify_s": per_kind("certify", statistics.median),
        "cli.solve_s": per_kind("solve", statistics.median),
        "cli.solve_s.p90": per_kind("solve", p90),
        "cli.counterfactual_s": per_kind("counterfactual",
                                         statistics.median),
        "cli.counterfactual_s.p90": per_kind("counterfactual", p90),
        "calib.kernel_s": (statistics.median(kernel), "s"),
        "trace.coverage": (med(
            lambda s: 1.0 - s["self"]["cli"] / s["wall"]), "fraction"),
        "trace.overhead": (statistics.median(overheads), "fraction"),
        "trace.ops": (len(summaries), "count"),
    })
    return metrics


def main(argv=None):
    args = parse_args(argv)
    # fixed before numpy loads: OpenBLAS reads these once, at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "scalefix", "__init__.py")):
        print(f"perfbench: no scalefix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(args, work)
        tally = Tally()
        if args.trace:
            spans = os.path.join(
                WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = measure_traced(bench, args.seconds, tally, spans)
        else:
            metrics = measure_plain(bench, args.seconds, tally,
                                    2 if args.smoke else SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
