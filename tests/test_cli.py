"""File formats and the command-line front end, exercised in process
through main(argv)."""

import os
import re

import numpy as np
import pytest

from scalefix import cli, trade
from scalefix.certify import certify
from scalefix.cli import main
from scalefix.modelio import (
    ConfigError,
    load_parameters,
    load_run_config,
    parse_shock_file,
    save_parameters,
)
from scalefix.solve import iterate
from scalefix.system import PositiveSystem
from scalefix.trade import (
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    ParameterError,
)


# ------------------------------------------------------------ fixtures


def write(path, text):
    path.write_text(text)
    return str(path)


def symmetric_one_sector(tmp_path, extra="", tau12="1.5", tau21="1.5"):
    write(tmp_path / "A.csv", "A\n1\n1\n")
    write(tmp_path / "tau.csv", f"1,2\n1,{tau12}\n{tau21},1\n")
    write(tmp_path / "gamma.csv", "gamma\n0.5\n0.5\n")
    write(tmp_path / "L.csv", "L\n1\n1\n")
    return write(tmp_path / "run.ini", (
        "# two symmetric countries\n"
        "[model]\n"
        "kind = one-sector\n"
        "A = A.csv\ntau = tau.csv\ngamma = gamma.csv\nL = L.csv\n"
        "theta = 4.0\nsigma = 2.0\n"
        "[certify]\nsamples = 6\nseed = 1\n" + extra))


def multi_params(J=2, S=2, seed=11):
    rng = np.random.default_rng(seed)
    tau = 1.0 + rng.uniform(0.1, 1.2, (J, J, S))
    for s in range(S):
        np.fill_diagonal(tau[:, :, s], 1.0)
    alpha = rng.uniform(0.2, 1.0, (J, S))
    alpha /= alpha.sum(axis=1, keepdims=True)
    return MultiSectorParams(
        A=rng.uniform(0.5, 2.0, (J, S)), tau=tau, alpha=alpha,
        L=rng.uniform(0.5, 2.0, J),
        theta=np.array([3.5, 5.0]), sigma=np.array([2.0, 2.8]))


def general_params(J=2, S=2, seed=3):
    rng = np.random.default_rng(seed)
    base = multi_params(J=J, S=S, seed=seed)
    gl = rng.uniform(0.5, 0.8, (J, S))
    gio = rng.uniform(0.1, 1.0, (J, S, S))
    gio *= ((1.0 - gl) / gio.sum(axis=1))[:, None, :]
    return GeneralParams(A=base.A, tau=base.tau, alpha=base.alpha,
                         L=base.L, theta=base.theta, sigma=base.sigma,
                         gamma_labor=gl, gamma_io=gio)


def kv_lines(path):
    out = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


# -------------------------------------------------------- file formats


def test_three_country_fixture_loads(tmp_path):
    write(tmp_path / "A.csv", "A\n1\n1.2\n0.8\n")
    write(tmp_path / "tau.csv",
          "1,2,3\n1,1.4,1.6\n1.4,1,1.3\n1.6,1.3,1\n")
    write(tmp_path / "gamma.csv", "gamma\n0.6\n0.6\n0.6\n")
    write(tmp_path / "L.csv", "L\n1\n2\n0.5\n")
    cfg_path = write(tmp_path / "run.ini",
                     "[model]\nkind = one-sector\nA = A.csv\n"
                     "tau = tau.csv\ngamma = gamma.csv\nL = L.csv\n"
                     "theta = 4\nsigma = 2\n")
    p = load_parameters(load_run_config(cfg_path))
    assert isinstance(p, OneSectorParams)
    assert p.J == 3
    assert p.tau[0, 2] == 1.6
    assert p.connected


def test_inf_token_reads_as_infinity(tmp_path):
    cfg = symmetric_one_sector(tmp_path, tau12="inf", tau21="inf")
    p = load_parameters(load_run_config(cfg))
    assert np.isinf(p.tau[0, 1]) and np.isinf(p.tau[1, 0])
    assert not p.connected


@pytest.mark.parametrize("params", [
    OneSectorParams(A=np.array([1.0, 2.0]),
                    tau=np.array([[1.0, np.inf], [np.inf, 1.0]]),
                    gamma=np.array([0.3, 0.8]), L=np.array([1.0, 0.5]),
                    theta=4.25, sigma=2.125),
    multi_params(),
    general_params(),
])
def test_save_load_round_trip(params, tmp_path):
    cfg_path = save_parameters(params, str(tmp_path / "saved"))
    again = load_parameters(load_run_config(cfg_path))
    assert type(again) is type(params)
    for name in ("A", "tau", "L", "theta", "sigma", "gamma",
                 "alpha", "gamma_labor", "gamma_io"):
        if hasattr(params, name):
            assert np.array_equal(np.asarray(getattr(params, name)),
                                  np.asarray(getattr(again, name))), name


def test_alpha_row_sum_rejected_naming_the_row(tmp_path):
    save_parameters(multi_params(), str(tmp_path))
    a = np.loadtxt(tmp_path / "alpha.csv", delimiter=",", skiprows=1)
    a[1] *= 0.9
    lines = ["s1,s2"] + [f"{r[0]:.17g},{r[1]:.17g}" for r in a]
    write(tmp_path / "alpha.csv", "\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="country 2"):
        load_parameters(load_run_config(str(tmp_path / "params.ini")))


def test_malformed_cell_names_row_and_column(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    write(tmp_path / "tau.csv", "1,2\n1,oops\n1.5,1\n")
    with pytest.raises(ConfigError, match=r"row 2, column 2"):
        load_parameters(load_run_config(cfg))


def test_missing_model_key_is_reported(tmp_path):
    path = write(tmp_path / "run.ini",
                 "[model]\nkind = one-sector\nA = A.csv\n")
    with pytest.raises(ConfigError, match="tau"):
        load_run_config(path)


@pytest.mark.parametrize("extra,named", [
    ("sampels = 3\n", "'sampels' in [certify]"),
    ("[solve]\ntolerance = 1e-8\n", "'tolerance' in [solve]"),
    ("[output]\ndir = out\n", "'dir' in [output]"),
    ("[ouptut]\ndirectory = out\n", "unknown section [ouptut]"),
    ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
])
def test_unknown_config_key_is_named(tmp_path, extra, named):
    cfg = symmetric_one_sector(tmp_path, extra=extra)
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_run_config(cfg)


def test_model_keys_follow_the_kind(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    text = (tmp_path / "run.ini").read_text()
    # alpha is a key of the sectored kinds only
    write(tmp_path / "run.ini",
          text.replace("[model]\n", "[model]\nalpha = alpha.csv\n"))
    with pytest.raises(ConfigError, match=re.escape("'alpha' in [model]")):
        load_run_config(cfg)


def test_certify_threads_key_is_accepted_and_ignored(tmp_path):
    cfg = symmetric_one_sector(tmp_path, extra="threads = 4\n")
    assert load_run_config(cfg).samples == 6


def test_shock_file_parsing(tmp_path):
    path = write(tmp_path / "shocks.txt",
                 "# doubling trade costs outbound from 1\n"
                 "tau[1][2] *= 2.0\n"
                 "\n"
                 "theta = 5.0   # and a level reset\n")
    steps = parse_shock_file(path)
    assert len(steps) == 2
    assert steps[0].field == "tau" and steps[0].indices == (1, 2)
    assert steps[0].op == "*=" and steps[0].value == 2.0
    assert steps[1].field == "theta" and steps[1].indices == ()

    bad = write(tmp_path / "bad.txt", "tau[1][2] *= 2.0\ntau[1,2] = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_shock_file(bad)


# ------------------------------------------------------------- certify


def test_certify_command_clean_run(tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path)
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    kv = kv_lines(out / "report.txt")
    assert kv["mode"] == "exact"
    assert kv["connectedness.verdict"] == "pass"
    assert kv["self_interaction.verdict"] == "pass"
    assert kv["scaling.verdict"] == "pass"
    assert kv["monotonicity.verdict"] == "pass"
    assert kv["uniqueness_applicable"] == "true"
    assert kv["attractivity_applicable"] == "true"
    assert abs(float(kv["scaling.u.OMEGA[1]"]) - 1.0) < 1e-9
    assert abs(float(kv["scaling.u.P[1]"]) + 0.8) < 1e-9  # theta/(1+theta)
    stdout = capsys.readouterr().out
    assert stdout.count("\n") == 1
    assert "certify one-sector" in stdout
    assert "[sampled evidence]" not in stdout


def test_certify_quiet_prints_nothing(tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path)
    assert main(["certify", "--config", cfg, "--out",
                 str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_certify_two_bloc_fails_with_exit_3(tmp_path):
    cfg = symmetric_one_sector(tmp_path, tau12="inf", tau21="inf")
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 3
    kv = kv_lines(out / "report.txt")
    assert kv["connectedness.verdict"] == "fail"
    assert "OMEGA[1]" in kv["connectedness.blocs"]
    assert "|" in kv["connectedness.blocs"]


def test_certify_evaluation_failure_exits_3(tmp_path, monkeypatch):
    def F(x):
        return np.full(2, np.nan if x[0] > 5.0 else np.sqrt(x[0] * x[1]))

    failing = PositiveSystem(labels=("a", "b"), evaluate_values=F)
    monkeypatch.setattr(cli, "build_system", lambda params: failing)
    cfg = symmetric_one_sector(tmp_path)
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 3
    kv = kv_lines(out / "report.txt")
    assert kv["scaling.verdict"] == "error"
    assert "coordinate 'a'" in kv["scaling.error"]
    assert int(kv["scaling.sample_index"]) >= 0
    assert "spectral.gap" not in kv


def test_certify_wrong_shape_elasticity_exits_3(tmp_path, monkeypatch):
    wrong = PositiveSystem(
        labels=("a", "b"),
        evaluate_values=lambda x: np.full(2, np.sqrt(x[0] * x[1])),
        elasticity_values=lambda x: np.full((3, 3), 0.5))
    monkeypatch.setattr(cli, "build_system", lambda params: wrong)
    cfg = symmetric_one_sector(tmp_path)
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 3
    kv = kv_lines(out / "report.txt")
    assert kv["scaling.verdict"] == "error"
    assert "shape (3, 3), expected (2, 2)" in kv["scaling.error"]
    assert kv["scaling.sample_index"] == "0"


def test_certify_general_is_sampled_and_fails_monotonicity(tmp_path, capsys):
    cfg_path = save_parameters(general_params(), str(tmp_path))
    with open(cfg_path, "a") as fh:
        fh.write("[certify]\nsamples = 4\nseed = 2\n")
    out = tmp_path / "run"
    code = main(["certify", "--config", cfg_path, "--out", str(out)])
    kv = kv_lines(out / "report.txt")
    assert kv["mode"] == "sampled"
    assert kv["differentiation"] == "analytic"
    assert kv["scaling.verdict"] == "evidence-only"
    # negative wage feedback through input costs: a real violation, so
    # the exit code reports failure rather than the hoped-for pass
    assert kv["monotonicity.verdict"] == "fail"
    assert code == 3
    assert "[sampled evidence]" in capsys.readouterr().out


def test_certify_reports_are_deterministic(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    main(["certify", "--config", cfg, "--out", str(tmp_path / "a"),
          "--quiet"])
    main(["certify", "--config", cfg, "--out", str(tmp_path / "b"),
          "--quiet"])
    ra = (tmp_path / "a" / "report.txt").read_bytes()
    rb = (tmp_path / "b" / "report.txt").read_bytes()
    assert ra == rb


# --------------------------------------------------------------- solve


def test_solve_symmetric_countries_match(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    kv = kv_lines(out / "equilibrium.txt")
    assert kv["OMEGA[1]"] == kv["OMEGA[2]"]
    assert kv["P[1]"] == kv["P[2]"]
    assert kv["w[1]"] == kv["w[2]"]
    assert kv["U[1]"] == kv["U[2]"]
    assert kv["OMEGA[1]"] == "1.00000000e+00"  # first-coordinate numeraire
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,step_gauge,step_quotient"
    assert len(trace) > 2


def test_solve_different_starts_same_file(tmp_path):
    # mixed (the default) and plain, from the all-ones start and five
    # seeded ones
    for anderson in ("", "[solve]\nanderson = 0\n"):
        cfg = symmetric_one_sector(tmp_path, extra=anderson)
        files = set()
        for seed in ([], ["--seed", "11"], ["--seed", "12"],
                     ["--seed", "13"], ["--seed", "14"], ["--seed", "15"]):
            assert main(["solve", "--config", cfg, "--out",
                         str(tmp_path / "a"), "--quiet", *seed]) == 0
            files.add((tmp_path / "a" / "equilibrium.txt").read_bytes())
        assert len(files) == 1, anderson


def test_solve_budget_of_one_exits_4(tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path, extra="[solve]\nmax_iter = 1\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 2  # header plus the single iteration
    assert not (out / "equilibrium.txt").exists()
    assert "budget" in capsys.readouterr().err


def test_solve_multi_sector_with_named_numeraire(tmp_path):
    cfg_path = save_parameters(multi_params(), str(tmp_path))
    with open(cfg_path, "a") as fh:
        fh.write("[solve]\nnumeraire = named-coordinate:W[1]\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg_path, "--out", str(out),
                 "--quiet"]) == 0
    kv = kv_lines(out / "equilibrium.txt")
    assert kv["W[1]"] == "1.00000000e+00"
    assert "R[2][2]" in kv and "U[2]" in kv


@pytest.mark.parametrize("rule,named", [
    ("named-coordinate:W[9]", "'W[9]'"), ("geometric-mean-one:Q", "'Q'")])
@pytest.mark.parametrize("command", ["solve", "counterfactual"])
def test_numeraire_naming_no_coordinate_exits_2(command, rule, named,
                                                 tmp_path, capsys,
                                                 monkeypatch):
    cfg_path = save_parameters(multi_params(J=3), str(tmp_path))
    with open(cfg_path, "a") as fh:
        fh.write(f"[solve]\nnumeraire = {rule}\n")
    extra = ([] if command == "solve" else
             ["--shocks", write(tmp_path / "null.txt", "")])
    out = tmp_path / "run"
    # the rule is refused before the first evaluation of F
    evaluations = []
    original = PositiveSystem._eval_checked
    monkeypatch.setattr(PositiveSystem, "_eval_checked",
                        lambda self, x: evaluations.append(x)
                        or original(self, x))
    assert main([command, "--config", cfg_path, "--out", str(out),
                 *extra]) == 2
    assert evaluations == []
    err = capsys.readouterr().err
    assert err.startswith("scalefix: error: ") and named in err
    assert not (out / "equilibrium.txt").exists()
    assert not (out / "deltas.txt").exists()


@pytest.mark.parametrize("command", ["solve", "counterfactual"])
def test_evaluation_failure_exits_2_and_an_exhausted_budget_4(command,
                                                              tmp_path,
                                                              capsys):
    # F overflows within these general models' first plain iterations,
    # and mixed too on the 3x2 one (mixed, the 2x2 one converges: see
    # test_mixing_solves_a_general_model_the_plain_loop_cannot); a
    # counterfactual names the solve that failed, and where F failed
    failing = save_parameters(general_params(), str(tmp_path / "general"))
    with open(failing, "a") as fh:
        fh.write("[solve]\nanderson = 0\n")
    mixed = save_parameters(general_params(J=3), str(tmp_path / "general3"))
    budget = symmetric_one_sector(tmp_path, extra="[solve]\nmax_iter = 1\n")
    out = tmp_path / "run"
    cases = [(cfg, "tau[1][2][1] *= 1.2\n", 2,
              "evaluate produced inf at coordinate 'OMEGA[1][1]'",
              r"base solve failed at iteration [1-9]\d*: evaluate")
             for cfg in (failing, mixed)]
    cases += [(budget, "A[1] *= 2\n", 4, "no convergence in 1 iterations",
               r"base solve did not converge \(budget-exhausted\): no ")]
    if command == "counterfactual":
        # unmixed, the base model converges within 40 iterations, the
        # shocked not
        (tmp_path / "slow").mkdir()
        slow = symmetric_one_sector(
            tmp_path / "slow", extra="[solve]\nmax_iter = 40\nanderson = 0\n")
        cases.append((slow, "A[1] *= 2\n", 4,
                      "no convergence in 40 iterations",
                      r"shocked solve did not converge \(budget-exhausted\)"))
    for cfg, shock, code, message, solve in cases:
        extra = ([] if command == "solve" else
                 ["--shocks", write(tmp_path / "shocks.txt", shock)])
        assert main([command, "--config", cfg, "--out", str(out),
                     *extra]) == code
        err = capsys.readouterr().err
        assert err.startswith("scalefix: ") and message in err
        assert bool(re.search(solve, err)) == (command == "counterfactual")
        assert not (out / "equilibrium.txt").exists()
        assert not (out / "deltas.txt").exists()


def test_mixing_solves_a_general_model_the_plain_loop_cannot(tmp_path,
                                                            capsys):
    # the plain loop overflows on this uncertified model (it fails
    # monotonicity in test_certify_general_is_sampled_and_fails_
    # monotonicity); mixing, the default, reaches a point whose relative
    # residual is within tol, and that point is what the file holds
    cfg = save_parameters(general_params(), str(tmp_path / "general"))
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    said = capsys.readouterr().out
    assert "solve general: converged after" in said
    assert "step decay" not in said     # mixed steps estimate no rate
    run = load_run_config(cfg)
    sys_ = trade.build_system(load_parameters(run))
    res = iterate(sys_, sys_.state(np.ones(sys_.dimension)),
                  u=sys_.scaling, opts=run.solve)
    assert res.status == "converged" and res.decay_rate is None
    x = res.x_star.values
    assert np.max(np.abs(sys_.evaluate_values(x) - x) / x) <= run.solve.tol
    state = (out / "equilibrium.txt").read_text().split("\n\n")[0]
    assert [line.partition(": ") for line in state.splitlines()] == \
        [(label, ": ", f"{v:.8e}") for label, v in zip(sys_.labels, x)]


def test_solve_and_counterfactual_build_each_system_once(tmp_path,
                                                         monkeypatch):
    builds = []
    for module in (cli, trade):
        original = module.build_system
        monkeypatch.setattr(module, "build_system",
                            lambda p, f=original: builds.append(p) or f(p))
    cfg = symmetric_one_sector(tmp_path)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--quiet"]) == 0
    assert len(builds) == 1
    shocks = write(tmp_path / "s.txt", "A[1] *= 2\n")
    assert main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(tmp_path / "c"), "--quiet"]) == 0
    assert len(builds) == 3     # the base and the shocked system
    # the seeded start is sized from the bundle, not from a third build
    assert main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(tmp_path / "c3"), "--seed", "3",
                 "--quiet"]) == 0
    assert len(builds) == 5
    base = load_parameters(load_run_config(cfg))
    trade.counterfactual(base, parse_shock_file(shocks))
    assert len(builds) == 7


@pytest.mark.parametrize("kind", ["one-sector", "multi-sector"])
def test_solve_and_counterfactual_never_build_the_sign_pattern(kind, tmp_path,
                                                               monkeypatch):
    # the builders pass the pattern as a callable, which only a read of
    # sign_pattern calls: certify does, once, and nothing on the way to
    # an equilibrium or a counterfactual
    calls = []
    original = trade.PositiveSystem

    def counted(**kwargs):
        pattern = kwargs["sign_pattern"]
        assert callable(pattern)
        return original(**{**kwargs, "sign_pattern":
                           lambda: calls.append(kind) or pattern()})

    monkeypatch.setattr(trade, "PositiveSystem", counted)
    cfg = (symmetric_one_sector(tmp_path) if kind == "one-sector" else
           save_parameters(multi_params(), str(tmp_path / "multi")))
    params = load_parameters(load_run_config(cfg))
    shocks = write(tmp_path / "s.txt", f"A{'[1]' * params.A.ndim} *= 1.3\n")
    sys = trade.build_system(params)
    res = iterate(sys, sys.state(np.ones(sys.dimension)), u=sys.scaling)
    trade._recover(sys, res.x_star, params)
    trade.counterfactual(params, parse_shock_file(shocks))
    for argv in (["solve"], ["counterfactual", "--shocks", shocks]):
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
    assert calls == []
    assert certify(sys, sample_count=2, seed=0).mode == "exact"
    assert calls == [kind]


def test_solve_disconnected_network_still_errors_cleanly(tmp_path, capsys):
    # solving a split network would silently pick per-bloc scales, so the
    # connectivity refusal arrives before any iteration, as exit 2
    cfg = symmetric_one_sector(tmp_path, tau12="inf", tau21="inf",
                               extra="")
    code = main(["certify", "--config", cfg, "--out",
                 str(tmp_path / "r"), "--quiet"])
    assert code == 3  # certify tolerates and reports instead
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "s")])
    assert code == 2
    assert "disconnected" in capsys.readouterr().err
    assert not (tmp_path / "s" / "equilibrium.txt").exists()
    shocks = write(tmp_path / "null.txt", "")
    code = main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(tmp_path / "c")])
    assert code == 2
    assert "connected" in capsys.readouterr().err


# ------------------------------------------------------ counterfactual


def test_counterfactual_null_shock_is_flat(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    shocks = write(tmp_path / "null.txt", "# nothing\n")
    out = tmp_path / "run"
    assert main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(out), "--quiet"]) == 0
    deltas = kv_lines(out / "deltas.txt")
    assert deltas, "delta table must not be empty"
    for value in deltas.values():
        assert abs(float(value)) <= 1e-8


def test_counterfactual_uniform_productivity_doubling(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    shocks = write(tmp_path / "s.txt", "A[1] *= 2\nA[2] *= 2\n")
    out = tmp_path / "run"
    assert main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(out), "--quiet"]) == 0
    d = kv_lines(out / "deltas.txt")
    for i in (1, 2):
        for j in (1, 2):
            assert abs(float(d[f"delta.pi[{i}][{j}][1]"])) <= 1e-8
    # welfare gain 2^(1/(theta*gamma)) - 1 with theta 4, gamma 0.5
    want = 2.0 ** 0.5 - 1.0
    assert abs(float(d["delta.U[1]"]) - want) < 1e-6
    assert abs(float(d["delta.U[2]"]) - want) < 1e-6


def test_counterfactual_higher_inbound_cost_cuts_the_share(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    shocks = write(tmp_path / "s.txt", "tau[1][2] *= 2\n")
    out = tmp_path / "run"
    assert main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(out), "--quiet"]) == 0
    d = kv_lines(out / "deltas.txt")
    assert float(d["delta.pi[1][2][1]"]) < 0
    assert float(d["delta.pi[2][2][1]"]) > 0


def test_counterfactual_disconnecting_shock_exits_2(tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path)
    shocks = write(tmp_path / "s.txt",
                   "tau[1][2] = inf\ntau[2][1] = inf\n")
    code = main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "disconnect" in capsys.readouterr().err
    assert not (tmp_path / "run" / "deltas.txt").exists()


def test_counterfactual_shock_index_zero_exits_2(tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path)
    shocks = write(tmp_path / "s.txt", "tau[0][2] *= 2\n")
    code = main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err
    assert not (tmp_path / "run" / "deltas.txt").exists()


# ------------------------------------------------------------ plumbing


def test_report_command_pretty_prints(tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path)
    out = tmp_path / "run"
    main(["certify", "--config", cfg, "--out", str(out), "--quiet"])
    assert main(["report", str(out / "report.txt")]) == 0
    text = capsys.readouterr().out
    assert "connectedness:" in text
    assert "  verdict: pass" in text
    assert "mode: exact" in text


@pytest.mark.parametrize("name,old,new", [
    ("gamma.csv", "gamma\n0.5\n", "gamma\nnan\n"),
    ("run.ini", "theta = 4.0", "theta = nan"),
])
def test_nan_parameter_exits_2_without_a_report(name, old, new, tmp_path,
                                                capsys):
    cfg = symmetric_one_sector(tmp_path)
    write(tmp_path / name, (tmp_path / name).read_text().replace(old, new))
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scalefix: error: ") and "nan" in err
    assert not (out / "report.txt").exists()


def test_anderson_depth_is_read_from_the_config(tmp_path):
    # every depth solves the symmetric fixture to the same file
    files = set()
    for value in (None, "0", "1", "8"):
        extra = "" if value is None else f"[solve]\nanderson = {value}\n"
        cfg = symmetric_one_sector(tmp_path, extra=extra)
        assert load_run_config(cfg).solve.anderson == int(value or 5)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--quiet"]) == 0
        files.add((tmp_path / "a" / "equilibrium.txt").read_bytes())
    assert len(files) == 1


@pytest.mark.parametrize("value, message", [
    ("-1", "[solve] anderson must be an integer of at least 0"),
    ("2.5", "[solve] anderson: '2.5' is not an integer"),
    ("true", "[solve] anderson: 'true' is not an integer"),
    ("", "[solve] anderson: '' is not an integer")])
def test_anderson_not_a_nonnegative_integer_exits_2(value, message,
                                                    tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path,
                               extra=f"[solve]\nanderson = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(cfg)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_tol_not_positive_and_finite_exits_2(tol, tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path, extra=f"[solve]\ntol = {tol}\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "[solve] tol must be positive and finite" in \
        capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["certify", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command,name", [
    ("certify", "A.csv"), ("certify", "run.ini"), ("solve", "A.csv"),
    ("solve", "run.ini"), ("counterfactual", "shocks.txt"),
    ("report", "report.txt"),
])
def test_non_utf8_file_exits_2_naming_it(command, name, tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path)
    shocks = write(tmp_path / "shocks.txt", "A[1] *= 2.0\n")
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    os.replace(out / "report.txt", tmp_path / "report.txt")
    (tmp_path / name).write_bytes(b"\xff")
    argv = {"certify": ["certify", "--config", cfg],
            "solve": ["solve", "--config", cfg],
            "counterfactual": ["counterfactual", "--config", cfg,
                               "--shocks", shocks],
            "report": ["report", str(tmp_path / "report.txt")]}[command]
    capsys.readouterr()
    assert main(argv + (["--out", str(out)] if command != "report"
                        else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("scalefix: error: ") and name in err
    assert "not UTF-8" in err and "Traceback" not in err
    assert os.listdir(out) == []


def test_config_with_byte_order_mark_loads(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    plain = load_run_config(cfg)
    text = (tmp_path / "run.ini").read_text()
    (tmp_path / "run.ini").write_text("\ufeff" + text, encoding="utf-8")
    assert load_run_config(cfg) == plain


def test_trailing_comment_in_a_table_is_ignored(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    write(tmp_path / "L.csv", "L  # workers\n1.0  # country 1\n1\n")
    assert load_parameters(load_run_config(cfg)).L.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("name,old,new,where,what", [
    ("tau.csv", "1,1.5\n", "1,oops\n", "tau.csv: row 2, column 2",
     "a number"),
    ("run.ini", "theta = 4.0", "theta = oops", "run.ini: [model] theta",
     "a number"),
    ("run.ini", "[certify]", "[solve]\ndamping = oops\n[certify]",
     "run.ini: [solve] damping", "a number"),
    ("run.ini", "[certify]", "[solve]\nmax_iter = oops\n[certify]",
     "run.ini: [solve] max_iter", "an integer"),
    ("run.ini", "samples = 6", "samples = oops", "run.ini: [certify] samples",
     "an integer"),
    ("run.ini", "seed = 1", "seed = oops", "run.ini: [certify] seed",
     "an integer"),
    ("shocks.txt", "2.0", "oops", "shocks.txt: line 2", "a number"),
])
def test_number_errors_name_where(name, old, new, where, what, tmp_path,
                                  capsys):
    cfg = symmetric_one_sector(tmp_path)
    shocks = write(tmp_path / "shocks.txt", "# one shock\nA[1] *= 2.0\n")
    write(tmp_path / name, (tmp_path / name).read_text().replace(old, new))
    assert main(["counterfactual", "--config", cfg, "--shocks", shocks,
                 "--out", str(tmp_path / "run")]) == 2
    assert f"{where}: 'oops' is not {what}" in capsys.readouterr().err


@pytest.mark.parametrize("table, fault", [
    # the first fault in file order wins: row 2 is short, row 3 bad
    ("1,2\n1\n1.5,oops\n", "row 2: 1 values under 2 header columns"),
    ("1,2\n1,1.5\n1.5,1,2\n", "row 3: 3 values under 2 header columns"),
    # within one row a bad cell is named before the wrong width
    ("1,2\n1,oops,3\n1.5,1\n", "row 2, column 2: 'oops' is not a number"),
    ("1,2\n1,1.5,\n1.5,1\n", "row 2, column 3: '' is not a number"),
    ("1,2\n,1.5\n1.5,1\n", "row 2, column 1: '' is not a number"),
    # rows are file lines: comments and blank lines count
    ("1,2\n# c\n\n1,1.5\n1.5, oops \n",
     "row 5, column 2: 'oops' is not a number"),
])
def test_table_faults_are_named_in_file_order(table, fault, tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    path = write(tmp_path / "tau.csv", table)
    with pytest.raises(ConfigError) as exc:
        load_parameters(load_run_config(cfg))
    assert str(exc.value) == f"{path}: {fault}"


def test_blank_padded_and_one_column_tables_parse(tmp_path):
    cfg = symmetric_one_sector(tmp_path)
    write(tmp_path / "tau.csv", " 1 , 2\n1 ,\t1.25\n  1.5,1 # row 3\n")
    write(tmp_path / "A.csv", "A\n 2.5 \n\n0.75\n")
    params = load_parameters(load_run_config(cfg))
    assert params.tau.tolist() == [[1.0, 1.25], [1.5, 1.0]]
    assert params.A.tolist() == [2.5, 0.75]


def test_report_parse_error_names_the_file(tmp_path, capsys):
    path = write(tmp_path / "A.csv", "A\n1.0\n")
    assert main(["report", path]) == 2
    assert f"{path}: line 1: expected 'key: value'" in \
        capsys.readouterr().err


def test_report_with_a_repeated_key_exits_2(tmp_path, capsys):
    # refused with both lines named, as load_run_config refuses a
    # repeated key, so that no line is dropped silently
    path = write(tmp_path / "report.txt", "a: 1\n\nb: 3\n a : 2\n")
    assert main(["report", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: line 4: key 'a' repeats line 1" in captured.err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["certify"]) == 2  # --config is required
    capsys.readouterr()


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; a call leaves nothing in it
    # that changes the next call's outputs or exit code
    cfg = symmetric_one_sector(tmp_path)
    assert cli.build_parser() is cli.build_parser()
    outputs = []
    for out in ("a", "b"):
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / out), "--seed", "3"]) == 0
        assert main(["bogus"]) == 2
        assert main(["certify", "--config", cfg, "--out",
                     str(tmp_path / out), "--quiet"]) == 0
        outputs.append((capsys.readouterr(),
                        *((tmp_path / out / name).read_bytes() for name in
                          ("trace.csv", "equilibrium.txt", "report.txt"))))
    first, second = outputs
    assert first[0].out.replace("/a/", "/b/") == second[0].out
    assert first[0].err == second[0].err and "invalid choice" in first[0].err
    assert first[1:] == second[1:]


@pytest.mark.parametrize("command, config_seed, cli_seed, named", [
    ("certify", None, "-1", "--seed"),
    ("solve", None, "-1", "--seed"),
    ("counterfactual", None, "-1", "--seed"),
    ("certify", "-2", None, "[certify] seed"),
])
def test_negative_seed_exits_2(command, config_seed, cli_seed, named,
                               tmp_path, capsys):
    cfg = symmetric_one_sector(tmp_path)
    if config_seed is not None:
        text = (tmp_path / "run.ini").read_text()
        write(tmp_path / "run.ini", text.replace("seed = 1",
                                                 f"seed = {config_seed}"))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "run")]
    if cli_seed is not None:
        argv += ["--seed", cli_seed]
    if command == "counterfactual":
        argv += ["--shocks", write(tmp_path / "s.txt", "A[1] *= 2\n")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
