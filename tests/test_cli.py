"""End-to-end command line checks via subprocess."""

import json
import os
import subprocess
import sys

import pytest

from cli_env import checkout_env


def run_cli(args, cwd, timeout=None):
    return subprocess.run([sys.executable, "-m", "freedyn.cli"] + list(args),
                          capture_output=True, text=True, cwd=cwd,
                          env=checkout_env(), timeout=timeout)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


SAMPLE_CFG = {
    "domain": {"mode": "fullspace", "window": [[0.0], [10.0]]},
    "start": {"kind": "poisson", "intensity": 1.0},
    "observables": [
        {"family": "box", "level": -0.5, "lo": [2.0], "hi": [6.0]}],
    "samples": 400,
    "rng": {"seed": 11},
    "output": {"prefix": "probe", "formats": ["json", "csv"]},
}

MARKOV_CFG = {
    "domain": {"mode": "fullspace", "window": [[-3.0], [3.0]]},
    "kernel": {"variant": "brownian"},
    "dynamics": {"times": [0.5], "mode": "conservative"},
    "start": {"kind": "fixed", "points": [[0.0]]},
    "observables": [
        {"family": "box", "level": -0.5, "lo": [-1.0], "hi": [1.0]}],
    "samples": 2000,
    "rng": {"seed": 3},
    "output": {"prefix": "probe", "formats": ["json", "csv"]},
}


def test_help_exits_zero(tmp_path):
    res = run_cli(["--help"], str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "sample-poisson" in res.stdout


def test_missing_config_file(tmp_path):
    res = run_cli(["laplace", "--config", "nope.json"], str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:")


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rng": {"seed": 1},}\n', encoding="utf-8")
    res = run_cli(["laplace", "--config", str(path)], str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "invalid JSON at line 1" in res.stderr


def test_unknown_key_is_named(tmp_path):
    cfg = dict(SAMPLE_CFG)
    cfg["startx"] = cfg["start"]
    path = write_config(tmp_path, "cfg.json", cfg)
    res = run_cli(["sample-poisson", "--config", path], str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "unknown key 'startx'" in res.stderr


_BAD_BOX = {"family": "box", "level": "low", "lo": [-1.0], "hi": [1.0]}


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["dynamics"].pop("times"), "missing key 'dynamics.times'"),
    (lambda c: c.update(kernel={"variant": "death", "rate": "fast"}),
     "'kernel.rate' must be a number"),
    (lambda c: c["dynamics"].update(speed=1.0),
     "unknown key 'dynamics.speed'"),
    (lambda c: c["observables"].append(_BAD_BOX),
     "'observables[1].level' must be a number"),
    (lambda c: c["domain"].update(window=[["a"], [3.0]]),
     "'domain.window[0]' must be a nonempty number list"),
    (lambda c: c.pop("samples"), "missing key 'samples'"),
    (lambda c: c.update(samples=2.5), "'samples' must be an integer"),
    (lambda c: c.update(rng={"seed": "x"}), "'rng.seed' must be an integer"),
    (lambda c: c["dynamics"].update(times=[0.5, 0.5]),
     "'dynamics.times': times must be strictly increasing and > 0"),
    (lambda c: c.update(output={"prefix": ["a"]}),
     "'output.prefix' must be a nonempty string"),
    (lambda c: c.update(output={"prefix": ""}),
     "'output.prefix' must be a nonempty string"),
    (lambda c: c.update(output={"prefix": "sub/x"}),
     "'output.prefix' must be a file name, not a path"),
    (lambda c: c.update(output={"prefix": "../x"}),
     "'output.prefix' must be a file name, not a path"),
    (lambda c: c.update(output={"prefix": ".."}),
     "'output.prefix' must be a file name, not a path"),
    # range errors of the library name the block they come from
    (lambda c: c["observables"][0].update(level=-1.5),
     "'observables[0]': level must lie in (-1, 0]"),
    (lambda c: c.update(domain={"mode": "torus", "dim": 1, "side": -2}),
     "'domain': torus mode needs side > 0"),
    (lambda c: c["start"].update(points=[[0.0, 1.0]]),
     "'start': points must be an (n, dim) array"),
])
def test_config_error_messages_name_the_path(tmp_path, capsys, edit,
                                             message):
    from freedyn import cli

    cfg = json.loads(json.dumps(MARKOV_CFG))
    edit(cfg)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert cli.main(["laplace", "--config", path, "--out",
                     str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


@pytest.mark.parametrize("prefix", ["sub/x", "../x", "."])
def test_prefix_with_a_path_is_refused_before_any_work(tmp_path, capsys,
                                                       prefix):
    # "sub/x" once ran the whole command and then died writing into a
    # missing directory; "../x" wrote outside --out
    from freedyn import cli

    cfg = dict(MARKOV_CFG, output={"prefix": prefix})
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    assert cli.main(["laplace", "--config", path, "--out", str(out)]) == 2
    assert "'output.prefix'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "cfg.json", "out", "sub"]


def test_sample_poisson_outputs(tmp_path):
    path = write_config(tmp_path, "cfg.json", SAMPLE_CFG)
    out = tmp_path / "out"
    res = run_cli(["sample-poisson", "--config", path, "--out", str(out)],
                  str(tmp_path))
    assert res.returncode == 0, res.stderr

    csv_text = (out / "probe_configuration.csv").read_text()
    head, rest = csv_text.split("\n", 2)[:2]
    assert head.startswith("# freedyn ")
    assert "sample-poisson seed=11" in head
    assert rest.startswith("# config: ")
    # intensity 1 on a length-10 window
    rows = [ln for ln in csv_text.splitlines()
            if ln and not ln.startswith(("#", "x0"))]
    assert 1 <= len(rows) <= 30

    report = json.loads((out / "probe_laplace.json").read_text())
    assert report["provenance"]["seed"] == 11
    checks = report["report"]["checks"]
    assert len(checks) == 1 and checks[0]["kind"] == "poisson-laplace"


def test_laplace_zero_observable_is_exactly_one(tmp_path):
    cfg = json.loads(json.dumps(MARKOV_CFG))
    cfg["observables"][0]["level"] = 0.0
    cfg["samples"] = 50
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli(["laplace", "--config", path, "--out", str(out)],
                  str(tmp_path))
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "probe_laplace.json").read_text())["report"]
    assert rep["estimate"] == 1.0
    assert rep["stderr"] == 0.0
    assert rep["analytic"] == 1.0


def test_laplace_csv_columns(tmp_path):
    path = write_config(tmp_path, "cfg.json", MARKOV_CFG)
    out = tmp_path / "out"
    res = run_cli(["laplace", "--config", path, "--out", str(out)],
                  str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = [ln for ln in (out / "probe_laplace.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == ("kind,estimate,stderr,analytic,abs_error,"
                        "sigma_distance,n_samples")
    fields = lines[1].split(",")
    assert fields[0] == "markov-laplace"
    assert int(fields[6]) == 2000


def test_glauber_laplace_neyman_scott_start_off_window(tmp_path):
    # the observable sits outside the window; the start has to be sampled
    # on its support box, as the oracle integrates over all space
    cfg = {
        "domain": {"mode": "fullspace", "window": [[-3.0], [3.0]]},
        "dynamics": {"times": [0.5], "mode": "glauber", "death_rate": 1.0,
                     "z": 1.0},
        "start": {"kind": "neyman-scott", "parent_intensity": 0.6,
                  "second_prob": 0.5, "cluster_std": 0.3},
        "observables": [
            {"family": "box", "level": -0.5, "lo": [4.0], "hi": [8.0]}],
        "samples": 20000,
        "rng": {"seed": 13},
        "output": {"prefix": "probe", "formats": ["json"]},
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli(["laplace", "--config", path, "--out", str(out)],
                  str(tmp_path))
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "probe_laplace.json").read_text())["report"]
    assert rep["sigma_distance"] <= 4.0, rep


def test_reruns_are_byte_identical(tmp_path):
    path = write_config(tmp_path, "cfg.json", SAMPLE_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = run_cli(["sample-poisson", "--config", path, "--out", str(out)],
                      str(tmp_path))
        assert res.returncode == 0, res.stderr
        outs.append(out)
    for fname in ("probe_configuration.csv", "probe_laplace.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    path = write_config(tmp_path, "cfg.json", MARKOV_CFG)
    payloads = []
    for name, threads in (("t1", "1"), ("t4", "4")):
        out = tmp_path / name
        res = run_cli(["laplace", "--config", path, "--threads", threads,
                       "--out", str(out)], str(tmp_path))
        assert res.returncode == 0, res.stderr
        payloads.append((out / "probe_laplace.json").read_bytes())
    assert payloads[0] == payloads[1]


def test_seed_flag_overrides_config_seed(tmp_path):
    base = json.loads(json.dumps(MARKOV_CFG))
    base["samples"] = 400
    path_a = write_config(tmp_path, "a.json", base)
    shifted = json.loads(json.dumps(base))
    shifted["rng"]["seed"] = 999
    path_b = write_config(tmp_path, "b.json", shifted)

    out_a = tmp_path / "oa"
    out_b = tmp_path / "ob"
    res_a = run_cli(["laplace", "--config", path_a, "--out", str(out_a)],
                    str(tmp_path))
    res_b = run_cli(["laplace", "--config", path_b, "--seed", "3",
                     "--out", str(out_b)], str(tmp_path))
    assert res_a.returncode == 0 and res_b.returncode == 0, (res_a.stderr,
                                                             res_b.stderr)
    rep_a = json.loads((out_a / "probe_laplace.json").read_text())["report"]
    rep_b = json.loads((out_b / "probe_laplace.json").read_text())["report"]
    assert rep_a == rep_b


def test_assert_flag_gates_exit_code(tmp_path):
    # no replica lands in a box of width 2e-9 on any stream: the estimate
    # is exactly 1 with standard error 0, against an analytic value below
    # 1, so the 3-sigma verdict fails whatever the seed draws
    cfg = json.loads(json.dumps(MARKOV_CFG))
    cfg["observables"][0] = {"family": "box", "level": -0.9,
                             "lo": [-1e-9], "hi": [1e-9]}
    cfg["samples"] = 50
    cfg["rng"]["seed"] = 49
    path = write_config(tmp_path, "cfg.json", cfg)

    soft = run_cli(["laplace", "--config", path,
                    "--out", str(tmp_path / "s")], str(tmp_path))
    assert soft.returncode == 0, soft.stderr
    hard = run_cli(["laplace", "--config", path, "--assert",
                    "--out", str(tmp_path / "h")], str(tmp_path))
    assert hard.returncode == 4, hard.stderr
    rep = json.loads((tmp_path / "h" / "probe_laplace.json").read_text())
    assert rep["report"]["within_3sigma"] is False


def test_bad_threads_value(tmp_path):
    path = write_config(tmp_path, "cfg.json", SAMPLE_CFG)
    res = run_cli(["sample-poisson", "--config", path, "--threads", "0"],
                  str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "--threads" in res.stderr


def test_scaling_on_full_space_is_a_config_error(tmp_path):
    cfg = {
        "domain": {"mode": "fullspace", "window": [[0.0], [10.0]]},
        "profile": {"kind": "gaussian", "mass": 1.0, "std": 1.0},
        "start": {"kind": "poisson", "intensity": 1.0},
        "dynamics": {"times": [0.5]},
        "observables": [
            {"family": "box", "level": -0.5, "lo": [4.0], "hi": [6.0]}],
        "scaling": {"eps": [1.0]},
        "samples": 200,
        "rng": {"seed": 3},
        "output": {"prefix": "probe"},
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli(["scaling", "--config", path, "--out", str(out)],
                  str(tmp_path))
    assert res.returncode == 2
    assert "scaling needs a torus domain" in res.stderr
    assert not list(out.iterdir())


def test_scaling_refuses_a_non_test_function_with_exit_2(tmp_path,
                                                         monkeypatch, capsys):
    # the config language builds only TestFunctions; wrap one in a
    # NumericFunction in-process to reach the refusal
    from freedyn import cli
    from freedyn.functions import NumericFunction

    build = cli.build_phis

    def numeric_phis(cfg, dim):
        return [NumericFunction(p, p.support_lo, p.support_hi, p.bound)
                for p in build(cfg, dim)]

    monkeypatch.setattr(cli, "build_phis", numeric_phis)
    cfg = {
        "domain": {"mode": "torus", "dim": 1, "side": 20.0},
        "profile": {"kind": "gaussian", "mass": 1.0, "std": 1.0},
        "start": {"kind": "poisson", "intensity": 1.0},
        "dynamics": {"times": [0.5]},
        "observables": [
            {"family": "box", "level": -0.5, "lo": [4.0], "hi": [6.0]}],
        "scaling": {"eps": [1.0]},
        "samples": 200,
        "rng": {"seed": 3},
        "output": {"prefix": "probe"},
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["scaling", "--config", path, "--out", str(out)]) == 2
    assert ("observable 0 is a NumericFunction, not a TestFunction"
            in capsys.readouterr().err)
    assert not list(out.iterdir())


def test_scaling_outputs_identical_across_reruns_and_threads(tmp_path):
    # two chunks, so threads really split the work
    cfg = {
        "domain": {"mode": "torus", "dim": 1, "side": 10.0},
        "profile": {"kind": "bump", "mass": 1.0, "radius": 1.5},
        "start": {"kind": "neyman-scott", "parent_intensity": 0.6,
                  "second_prob": 0.5, "cluster_std": 0.25},
        "dynamics": {"times": [0.5, 1.0]},
        "observables": [
            {"family": "box", "level": -0.5, "lo": [4.0], "hi": [6.0]},
            {"family": "box", "level": -0.6, "lo": [4.5], "hi": [7.0]}],
        "scaling": {"eps": [1.0, 0.5, 0.2]},
        "samples": 25000,
        "rng": {"seed": 5},
        "output": {"prefix": "probe", "formats": ["json", "csv"]},
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "4")):
        out = tmp_path / name
        res = run_cli(["scaling", "--config", path, "--threads", threads,
                       "--out", str(out)], str(tmp_path))
        assert res.returncode == 0, res.stderr
        outputs.append([(out / f).read_bytes()
                        for f in ("probe_scaling.json", "probe_scaling.csv")])
    assert all(o == outputs[0] for o in outputs[1:])


def test_polynomial_certificate_moment_and_exit_class(tmp_path):
    # a jump count far above 2000 gets its exact fourth moment; a count the
    # series cannot certify is a numerical failure (exit 3)
    def cfg(mass):
        return {
            "domain": {"mode": "fullspace", "window": [[0.0], [1.0]]},
            "kernel": {"variant": "kawasaki",
                       "profile": {"kind": "gaussian", "mass": mass,
                                   "std": 0.7}},
            "summability": {"alpha": 3.0, "m": 1,
                            "certificate": "polynomial"},
            "rng": {"seed": 1},
            "output": {"prefix": "probe"},
        }

    out = tmp_path / "out"
    res = run_cli(["check-summability", "--config",
                   write_config(tmp_path, "ok.json", cfg(2500.0)),
                   "--out", str(out)], str(tmp_path))
    assert res.returncode == 0, res.stderr
    payload = json.loads(
        (out / "probe_summability.json").read_text())["report"]
    mu = 2500.0
    exact = mu ** 4 + 6 * mu ** 3 + 7 * mu ** 2 + mu
    assert payload["parameters"]["count_moment"] == pytest.approx(exact,
                                                                  rel=1e-9)
    res = run_cli(["check-summability", "--config",
                   write_config(tmp_path, "big.json", cfg(1e6)),
                   "--out", str(tmp_path / "big")], str(tmp_path))
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("numerical nonconvergence:")


def test_direct_certificate_past_the_radius_cap_is_refused(tmp_path):
    # alpha 3 puts the direct remainder's first index at about 6.6e7: the
    # run is refused before it allocates one radius per term (exit 3), and
    # the message points at the polynomial route
    path = write_config(tmp_path, "wide.json", {
        "domain": {"mode": "fullspace", "window": [[0.0], [1.0]]},
        "kernel": {"variant": "kawasaki",
                   "profile": {"kind": "gaussian", "mass": 1.0, "std": 0.7}},
        "summability": {"alpha": 3.0, "m": 1},
        "rng": {"seed": 1},
        "output": {"prefix": "probe"},
    })
    res = run_cli(["check-summability", "--config", path, "--out",
                   str(tmp_path / "out")], str(tmp_path), timeout=30)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("numerical nonconvergence:")
    assert '"certificate": "polynomial"' in res.stderr


def test_single_replica_generator_check_is_a_config_error(tmp_path):
    # one replica has no standard error: refused instead of reporting 0
    box = {"family": "box", "level": -0.5, "lo": [-1.0], "hi": [1.0]}
    path = write_config(tmp_path, "gen.json", {
        "domain": {"mode": "fullspace", "window": [[-6.0], [6.0]]},
        "dynamics": {"mode": "glauber", "death_rate": 1.0, "z": 1.0},
        "start": {"kind": "fixed", "points": [[0.0]]},
        "cylinder": {"outer": "linear", "observables": [box]},
        "fd": {"h": [0.01], "replicas": 1},
        "rng": {"seed": 1},
        "output": {"prefix": "probe"},
    })
    res = run_cli(["generator-check", "--config", path, "--out",
                   str(tmp_path / "out")], str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert res.stderr == "config error: need at least 2 replicas\n"


# --- verdict fields and --assert exit codes, in process -------------------

def verdict_run(tmp_path, command, cfg, report_file):
    """cli.main without and with --assert on one config: the report both
    runs wrote (they must match byte for byte) and the two exit codes."""
    from freedyn import cli

    path = write_config(tmp_path, "%s.json" % command,
                        dict(cfg, output={"prefix": "v", "formats": ["json"]}))
    codes, bodies = [], []
    for name, flags in (("soft", []), ("hard", ["--assert"])):
        out = tmp_path / name
        codes.append(cli.main([command, "--config", path, "--out", str(out)]
                              + flags))
        bodies.append((out / ("v_" + report_file)).read_bytes())
    assert bodies[0] == bodies[1]
    return json.loads(bodies[0])["report"], codes


GEN_CFG = {
    "domain": {"mode": "fullspace", "window": [[-6.0], [6.0]]},
    "start": {"kind": "fixed", "points": [[0.0], [2.5]]},
    "dynamics": {"mode": "glauber", "death_rate": 1.0, "z": 1.0},
    "cylinder": {"outer": "exp_pairing", "observables": [
        {"family": "box", "level": -0.5, "lo": [-1.0], "hi": [1.0]}]},
    "fd": {"h": [0.01, 0.005], "replicas": 2500, "slope": 10.0},
    "rng": {"seed": 1},
}


def test_generator_check_verdict_passes(tmp_path):
    rep, codes = verdict_run(tmp_path, "generator-check", GEN_CFG,
                             "generator.json")
    assert [c["within_tolerance"] for c in rep["checks"]] == [True, True]
    assert rep["discrepancy_shrinks"] is True and rep["passed"] is True
    assert codes == [0, 0]


def test_generator_check_verdict_fails_tolerance_and_shrink(tmp_path):
    # no slope allowance: the O(h) bias is 0.3 standard errors at h = 0.02
    # and about 250 at h = 3, where it outgrows the h = 0.02 discrepancy by
    # more than both noises; the pattern holds at 99.5% of seeds
    cfg = dict(GEN_CFG, fd={"h": [0.02, 3.0], "replicas": 400_000,
                            "slope": 0.0})
    rep, codes = verdict_run(tmp_path, "generator-check", cfg,
                             "generator.json")
    assert [c["within_tolerance"] for c in rep["checks"]] == [True, False]
    assert rep["discrepancy_shrinks"] is False and rep["passed"] is False
    assert codes == [0, 4]


SCALING_CFG = {
    "domain": {"mode": "torus", "dim": 1, "side": 100.0},
    "profile": {"kind": "gaussian", "mass": 1.0, "std": 1.0},
    "start": {"kind": "poisson", "intensity": 1.0},
    "dynamics": {"times": [0.5, 1.0]},
    "observables": [
        {"family": "box", "level": -0.5, "lo": [48.0], "hi": [52.0]},
        {"family": "box", "level": -0.6, "lo": [49.0], "hi": [53.0]}],
    "scaling": {"eps": [1.0, 0.1]},
    "samples": 4000,
    "rng": {"seed": 1},
}

NEYMAN_SCOTT = {"kind": "neyman-scott", "parent_intensity": 2.0 / 3.0,
                "second_prob": 0.5, "cluster_std": 0.25}


def test_scaling_verdict_passes(tmp_path):
    rep, codes = verdict_run(tmp_path, "scaling", SCALING_CFG, "scaling.json")
    assert rep["monotone"] is True and rep["final_within_tolerance"] is True
    assert codes == [0, 0]


def test_scaling_reversed_schedule_fails_monotone(tmp_path):
    cfg = dict(SCALING_CFG, scaling={"eps": [0.1, 0.5]})
    rep, codes = verdict_run(tmp_path, "scaling", cfg, "scaling.json")
    # the final row (eps = 0.5, bias 0.0062 against the eps -> 0 limit)
    # sits under the 0.01 floor unless it draws 2.6 standard errors high
    assert rep["monotone"] is False and rep["final_within_tolerance"] is True
    assert codes == [0, 4]


def test_scaling_far_final_row_fails_tolerance(tmp_path):
    # at eps = 1 the Neyman-Scott estimate lies about 0.034 from the
    # eps -> 0 limit: past both 3 sigma and the 0.01 floor
    cfg = dict(SCALING_CFG, start=NEYMAN_SCOTT, scaling={"eps": [1.0]})
    rep, codes = verdict_run(tmp_path, "scaling", cfg, "scaling.json")
    assert rep["monotone"] is True and rep["final_within_tolerance"] is False
    assert codes == [0, 4]


def test_summability_verdict_passes_with_exit_probe(tmp_path):
    cfg = {
        "domain": {"mode": "fullspace", "window": [[-1.0], [1.0]]},
        "kernel": {"variant": "brownian"},
        "summability": {"alpha": 1.0, "m": 1},
        "exit": {"radius": 1.0, "epsilon": 0.5, "paths": 400},
        "rng": {"seed": 1},
    }
    rep, codes = verdict_run(tmp_path, "check-summability", cfg,
                             "summability.json")
    assert rep["converges"] is True
    probe = rep["exit_check"]
    assert probe["estimate"] > 0 and probe["within_bound"] is True
    assert codes == [0, 0]


@pytest.mark.parametrize("alpha, converges", [(3.0, True), (1.0, False),
                                              (0.5, False)])
def test_polynomial_certificate_verdict(tmp_path, alpha, converges):
    # the polynomial route certifies convergence exactly when alpha > m
    cfg = {
        "domain": {"mode": "fullspace", "window": [[0.0], [1.0]]},
        "kernel": {"variant": "kawasaki",
                   "profile": {"kind": "gaussian", "mass": 1.0, "std": 0.7}},
        "summability": {"alpha": alpha, "m": 1, "certificate": "polynomial"},
        "rng": {"seed": 1},
    }
    rep, codes = verdict_run(tmp_path, "check-summability", cfg,
                             "summability.json")
    assert rep["converges"] is converges
    assert codes == [0, 0 if converges else 4]


def test_correlation_verdict_passes(tmp_path):
    cfg = {
        "domain": {"mode": "fullspace", "window": [[0.0, 0.0], [3.0, 3.0]]},
        "start": {"kind": "poisson", "intensity": 1.0},
        "correlation": {"order": 2, "bins": 3},
        "samples": 20000,
        "rng": {"seed": 1},
    }
    rep, codes = verdict_run(tmp_path, "correlation", cfg,
                             "correlation.json")
    assert rep["max_sigma_distance"] <= 3.0 and rep["within_3sigma"] is True
    assert codes == [0, 0]


def test_correlation_verdict_fails_on_an_empty_cell(tmp_path):
    # two replicas at intensity 0.2 leave a bin empty in both: estimate 0
    # with stderr 0 against z = 0.2 is infinitely many sigma away
    cfg = {
        "domain": {"mode": "fullspace", "window": [[0.0], [3.0]]},
        "start": {"kind": "poisson", "intensity": 0.2},
        "correlation": {"order": 1, "bins": 6},
        "samples": 2,
        "rng": {"seed": 1},
    }
    rep, codes = verdict_run(tmp_path, "correlation", cfg,
                             "correlation.json")
    assert rep["max_sigma_distance"] == float("inf")
    assert rep["within_3sigma"] is False
    assert codes == [0, 4]


THETA_CFG = {
    "domain": {"mode": "fullspace", "window": [[-5.0], [5.0]]},
    "start": {"kind": "fixed",
              "points": [[0.5], [1.5], [-2.5], [4.0], [-1.0]]},
    "theta": {"alpha": 0.5, "r_max": 3},
    "rng": {"seed": 1},
}


def test_check_theta_reports_ball_counts_and_always_exits_zero(tmp_path):
    # distances 0.5, 1.0, 1.5, 2.5, 4.0 from the origin; the point at
    # exactly 1 counts in B(1).  vol(B(r)) = 2r, so count / (2r)**0.5 is
    # 1.41, 1.5 and 1.63 at r = 1, 2, 3, and the least integer K is 2;
    # verdict_run also checks that the two runs wrote the same bytes
    rep, codes = verdict_run(tmp_path, "check-theta", THETA_CFG, "theta.json")
    assert rep["radii"] == [1, 2, 3]
    assert rep["counts"] == [2, 3, 4]
    assert rep["kmin"] == 2
    assert rep["center"] == [0.0]
    assert codes == [0, 0]


@pytest.mark.parametrize("r_max", [2.9, 3.0])
def test_check_theta_refuses_a_non_integer_r_max(tmp_path, capsys, r_max):
    # a float radius used to be truncated: 2.9 probed radii 1 and 2, 3.0
    # radii 1 to 3, and both exited 0
    from freedyn import cli

    cfg = json.loads(json.dumps(THETA_CFG))
    cfg["theta"]["r_max"] = r_max
    path = write_config(tmp_path, "cfg.json", cfg)
    assert cli.main(["check-theta", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert "'theta.r_max' must be an integer" in capsys.readouterr().err


# --- start-up: one parser, light imports, quadrature failures -------------

def test_parser_is_built_once_and_calls_parse_independently(tmp_path,
                                                            capsys):
    # flags of one in-process call must not leak into the next
    from freedyn import cli

    parser = cli._PARSER
    cfg = json.loads(json.dumps(MARKOV_CFG))
    cfg["observables"][0] = {"family": "box", "level": -0.9,
                             "lo": [-1e-9], "hi": [1e-9]}
    cfg["samples"] = 50
    cfg["rng"]["seed"] = 49  # fails the 3-sigma verdict (see above)
    laplace = write_config(tmp_path, "laplace.json", cfg)
    sample = write_config(tmp_path, "sample.json", SAMPLE_CFG)

    def seed_of(out, name):
        return json.loads((out / name).read_text())["provenance"]["seed"]

    runs = [
        (["laplace", "--config", laplace, "--assert", "--threads", "2"],
         "h", 4),
        (["sample-poisson", "--config", sample, "--seed", "5"], "s5", 0),
        (["laplace", "--config", laplace], "soft", 0),
        (["sample-poisson", "--config", sample], "s", 0),
        (["laplace", "--config", laplace, "--assert"], "h2", 4),
    ]
    for argv, name, code in runs:
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == code
    assert cli._PARSER is parser
    assert seed_of(tmp_path / "s5", "probe_laplace.json") == 5
    assert seed_of(tmp_path / "s", "probe_laplace.json") == 11
    assert seed_of(tmp_path / "soft", "probe_laplace.json") == 49
    assert ((tmp_path / "soft" / "probe_laplace.json").read_bytes()
            == (tmp_path / "h" / "probe_laplace.json").read_bytes())
    assert capsys.readouterr().err == ""
    assert vars(parser.parse_args(["evolve", "--config", "c.json"])) == {
        "command": "evolve", "config": "c.json", "seed": None,
        "threads": 1, "do_assert": False, "out": "."}


def _imported(args, cwd):
    # the run of ``python -X importtime args`` and every module it imported
    res = subprocess.run([sys.executable, "-X", "importtime"] + args,
                         capture_output=True, text=True, cwd=cwd,
                         env=checkout_env())
    names = [line.rsplit("|", 1)[1].strip()
             for line in res.stderr.splitlines()
             if line.startswith("import time:")]
    return res, names


def test_start_up_loads_no_scipy(tmp_path):
    # scipy.special is imported where a jump series or a certificate needs
    # it, scipy.optimize where a tail constant does: importing freedyn,
    # --help and a config error load numpy alone
    runs = [(["-c", "import freedyn.cli"], 0),
            (["-m", "freedyn.cli", "--help"], 0),
            (["-m", "freedyn.cli", "laplace", "--config", "nope.json"], 2)]
    for args, code in runs:
        res, names = _imported(args, str(tmp_path))
        assert res.returncode == code, res.stderr
        assert "freedyn" in names and "numpy" in names
        assert [m for m in names
                if m == "scipy" or m.startswith("scipy.")] == []


def test_commands_import_nothing_past_the_cli(tmp_path):
    # one small run each of the benchmark's commands (Kawasaki jumps,
    # Neyman-Scott starts, torus smoothing, Glauber and Kawasaki generator
    # checks, correlations) loads no module that importing freedyn.cli did
    # not: no lazily loaded package moves into a command's first call
    box = {"family": "box", "level": -0.5, "lo": [-1.0], "hi": [1.0]}
    gen = dict(GEN_CFG, fd={"h": [0.01], "replicas": 200})
    cfgs = [
        ("scaling", dict(SCALING_CFG, start=NEYMAN_SCOTT, samples=200)),
        ("generator-check", gen),
        ("generator-check", {
            **{k: v for k, v in gen.items() if k != "dynamics"},
            "kernel": {"variant": "kawasaki", "profile": {
                "kind": "gaussian", "mass": 1.3, "std": 0.7}},
            "cylinder": {"outer": "linear", "observables": [box]}}),
        ("correlation", {
            "domain": {"mode": "fullspace",
                       "window": [[0.0, 0.0], [3.0, 3.0]]},
            "start": {"kind": "poisson", "intensity": 1.0},
            "correlation": {"order": 2, "bins": 3},
            "samples": 200, "rng": {"seed": 1}}),
    ]
    runs = []
    for i, (command, cfg) in enumerate(cfgs):
        path = write_config(tmp_path, "c%d.json" % i, cfg)
        runs.append([command, "--config", path, "--out",
                     str(tmp_path / ("out%d" % i))])
    code = ("import json, sys, freedyn.cli\n"
            "before = set(sys.modules)\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = freedyn.cli.main(argv)\n"
            "    print(json.dumps([code, sorted(set(sys.modules) - before)]))\n")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         capture_output=True, text=True, cwd=str(tmp_path),
                         env=checkout_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert [json.loads(line) for line in res.stdout.splitlines()] == \
        [[0, []]] * len(cfgs)


def test_quadrature_past_its_subdivision_cap_exits_3(tmp_path, monkeypatch,
                                                     capsys):
    # a bump observable's Brownian image is a box_quad integral
    from freedyn import cli, functions

    cfg = json.loads(json.dumps(MARKOV_CFG))
    cfg["observables"][0] = {"family": "bump", "level": -0.5,
                             "center": [0.0], "radius": 1.0}
    cfg["samples"] = 20
    path = write_config(tmp_path, "cfg.json", cfg)
    argv = ["laplace", "--config", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    monkeypatch.setattr(functions, "MAX_SUBDIVISIONS", 0)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical nonconvergence: quadrature over")
    assert "did not reach tolerance" in err


def test_sample_poisson_csv_is_an_evolve_start(tmp_path):
    # the configuration CSV carries provenance comments above its domain
    # header; docs/config.md names it as a valid start.csv
    from freedyn import cli
    from freedyn.pointproc import Configuration

    sample = write_config(tmp_path, "sample.json", SAMPLE_CFG)
    assert cli.main(["sample-poisson", "--config", sample,
                     "--out", str(tmp_path)]) == 0
    written = (tmp_path / "probe_configuration.csv").read_text()
    assert written.startswith("# freedyn ")
    cfg = {
        "domain": SAMPLE_CFG["domain"],
        "kernel": {"variant": "brownian"},
        "dynamics": {"times": [0.5], "mode": "conservative"},
        "start": {"kind": "fixed", "csv": "probe_configuration.csv"},
        "rng": {"seed": 1},
        "output": {"prefix": "ev", "formats": ["json"]},
    }
    evolve = write_config(tmp_path, "evolve.json", cfg)
    assert cli.main(["evolve", "--config", evolve,
                     "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "ev_evolve.json").read_text())["report"]
    start = Configuration.from_csv(written)
    assert rep["initial_points"] == len(start) > 0


def test_empty_full_space_start_with_immigration_evolves(tmp_path):
    # an empty start has density 0; the collar width still comes from the
    # kernel, so the immigrants rain on a finite box (it used to be
    # infinite, and evolve exited 2 with "lam value too large")
    cfg = {
        "domain": {"mode": "fullspace", "window": [[0.0], [5.0]]},
        "kernel": {"variant": "death", "rate": 1.0},
        "dynamics": {"times": [1.0], "mode": "submarkov_immigration",
                     "z": 2.0},
        "start": {"kind": "fixed", "points": []},
        "rng": {"seed": 1},
        "output": {"prefix": "ev", "formats": ["json"]},
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli(["evolve", "--config", path, "--out", str(out)],
                  str(tmp_path))
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "ev_evolve.json").read_text())["report"]
    assert rep["initial_points"] == 0
    assert len(rep["snapshot_points"]) == 1


def test_glauber_evolve_with_zero_intensity_is_pure_death(tmp_path):
    # z = 0 is Glauber dynamics without births: counts never rise and
    # every snapshot is a subset of the start
    start = [[0.5], [1.5], [2.5], [3.5], [4.5]]
    cfg = {
        "domain": {"mode": "fullspace", "window": [[0.0], [5.0]]},
        "dynamics": {"times": [0.2, 0.7, 2.0], "mode": "glauber",
                     "death_rate": 1.0, "z": 0.0},
        "start": {"kind": "fixed", "points": start},
        "rng": {"seed": 1},
        "output": {"prefix": "ev", "formats": ["json", "csv"]},
    }
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli(["evolve", "--config", path, "--out", str(out)],
                  str(tmp_path))
    assert res.returncode == 0, res.stderr
    counts = json.loads((out / "ev_evolve.json").read_text())[
        "report"]["snapshot_points"]
    assert counts == sorted(counts, reverse=True)
    rows = [line.split(",") for line in
            (out / "ev_snapshots.csv").read_text().splitlines()
            if line and not line.startswith(("#", "time"))]
    assert sum(counts) == len(rows)
    assert {float(x) for _, x in rows} <= {p[0] for p in start}


_FULL = {"mode": "fullspace", "window": [[0.0], [5.0]]}
_TORUS = {"mode": "torus", "dim": 1, "side": 5.0}
_POISSON = {"kind": "poisson", "intensity": 2.0}
_FIXED = {"kind": "fixed", "points": [[0.5], [1.5], [2.5], [3.5], [4.5]]}
_TIMES = [0.5, 1.5]

# config blocks, then the sha256 of <prefix>_snapshots.csv,
# <prefix>_evolve.json and <prefix>_events.jsonl (None: not written)
_EVOLVE_BYTES = {
    "conservative-brownian-fullspace": (
        {"domain": _FULL, "kernel": {"variant": "brownian"},
         "dynamics": {"times": _TIMES, "mode": "conservative"},
         "start": _FIXED},
        "ae84b390826fe963e7eb47d2a11ea7f614cbe89bfa3ac927decec76c6dc71fd0",
        "e1f116e3fd5ac87fe4fff44f60bf1b4a0749aba9d1a7e6ecb00d8b682c78fe64",
        None),
    "conservative-kawasaki-torus": (
        {"domain": _TORUS,
         "kernel": {"variant": "kawasaki", "profile": {
             "kind": "gaussian", "mass": 1.0, "std": 0.5}},
         "dynamics": {"times": _TIMES, "mode": "conservative"},
         "start": _POISSON},
        "b7c33d200cb80f77d0b38116903ad2e0e0ddbf78a93c3c4bf3562f7170d49e3e",
        "3df49cae488297c4f4a67fb5dc6c474f3ae12acc5592942111adbc596eb579fb",
        None),
    "submarkov-killed-brownian-fullspace": (
        {"domain": _FULL,
         "kernel": {"variant": "killed_brownian", "rate": 1.0},
         "dynamics": {"times": _TIMES, "mode": "submarkov_immigration",
                      "z": 2.0},
         "start": _POISSON},
        "d8055a411e42816b76e73b5f37ef611334b9f1bcbe589a0e546e643774e8e2d0",
        "48b82cb01dbed692990057a598c984a3cabf2c87513895441d92b028b1b418ac",
        None),
    "glauber-torus": (
        {"domain": _TORUS,
         "dynamics": {"times": _TIMES, "mode": "glauber",
                      "death_rate": 1.0, "z": 1.0},
         "start": _POISSON},
        "e30b7f5b4cac1fd9c604949a6315df083cb8d964904e1c3818b059c5cc4f80e5",
        "8dd3123f3c210aceefdc531876cb2dbc5a8a69425aaf607d1331b49ff8442c6b",
        None),
    "glauber-events-fullspace": (
        {"domain": _FULL,
         "dynamics": {"times": _TIMES, "mode": "glauber",
                      "death_rate": 1.0, "z": 1.0, "events": True},
         "start": _FIXED},
        "570d5689d28a444e341a4a5cb1eed0075c582bb15e5b4557bc41db1ece96fedf",
        "85ae496a68c030aecf953387c5e09429d4a2737fa82f3df7d949a64237a5f91c",
        "36e1c33e7c2385cd60d6b5a71194f8d76bb2b2d5acae206ab0c906d29e6c0441"),
}


@pytest.mark.parametrize("case", sorted(_EVOLVE_BYTES))
def test_evolve_outputs_keep_their_bytes(tmp_path, case):
    """Every evolve mode, on both domains, writes the same bytes at seed 1.

    The digests pin the stream layout: a refactor of the evolution code
    must leave them as they are.  A deliberate layout change re-records
    the digest it moves and states the change in CHANGES.md.
    """
    import hashlib

    from freedyn import cli

    blocks, *digests = _EVOLVE_BYTES[case]
    cfg = dict(blocks, rng={"seed": 1}, output={"prefix": "ev"})
    path = write_config(tmp_path, "cfg.json", cfg)
    assert cli.main(["evolve", "--config", path, "--out", str(tmp_path)]) == 0
    got = []
    for suffix in ("snapshots.csv", "evolve.json", "events.jsonl"):
        out = tmp_path / ("ev_" + suffix)
        got.append(hashlib.sha256(out.read_bytes()).hexdigest()
                   if out.exists() else None)
    assert got == digests


_CORR_1D = {"mode": "fullspace", "window": [[0.0], [5.0]]}
_CORR_2D = {"mode": "fullspace", "window": [[0.0, 0.0], [3.0, 3.0]]}

# config blocks, then the sha256 of <prefix>_correlation.csv and
# <prefix>_correlation.json
_CORRELATION_BYTES = {
    "order1-1d": (
        {"domain": _CORR_1D, "start": {"kind": "poisson", "intensity": 2.0},
         "correlation": {"order": 1, "bins": 4}},
        "b62629ec0b3e901daac1d588e32e157ba07718222e382c7a08252606784ee844",
        "b8443e073dc783204062ba5e9b61e348b68bea86c32deb01933e97d5966bf4f9"),
    # the shape of the correlation benchmark workload
    "order2-2d": (
        {"domain": _CORR_2D, "start": {"kind": "poisson", "intensity": 1.0},
         "correlation": {"order": 2, "bins": 3}},
        "ce6f71d435653f5083170601223674db1b2397003b9e3654defc94daf1fd8861",
        "ec6093c93b826848c024583793a8ae2ece0f6cc47b5690f34ffdc0aa7c47efb0"),
    "order3-1d": (
        {"domain": _CORR_1D, "start": {"kind": "poisson", "intensity": 2.0},
         "correlation": {"order": 3, "bins": 3}},
        "8ed77897e0d3f31e7780ef42d1387c27f49bcea4de45beb34d64bb92a7b2ad83",
        "848d583adc7680351696caf549748515de595d3d67953781c924a3d5be8f0ced"),
}


@pytest.mark.parametrize("case", sorted(_CORRELATION_BYTES))
def test_correlation_outputs_keep_their_bytes(tmp_path, case):
    """The correlation grid writes the same bytes at seed 1, on reruns and
    at 1, 2 and 4 threads (25 000 replicas: two chunks).

    A rewrite of the sampler, the binning or the reduce must leave the
    digests as they are.
    """
    import hashlib

    from freedyn import cli

    blocks, *digests = _CORRELATION_BYTES[case]
    cfg = dict(blocks, samples=25000, rng={"seed": 1},
               output={"prefix": "c"})
    path = write_config(tmp_path, "cfg.json", cfg)
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "4")):
        out = tmp_path / name
        assert cli.main(["correlation", "--config", path, "--threads",
                         threads, "--out", str(out)]) == 0
        got = [hashlib.sha256((out / ("c_" + suffix)).read_bytes()).hexdigest()
               for suffix in ("correlation.csv", "correlation.json")]
        assert got == digests, name


# --- one dynamics reader for evolve, laplace and generator-check ----------

_GEN_KAWASAKI = dict(
    {k: v for k, v in GEN_CFG.items() if k != "dynamics"},
    kernel={"variant": "kawasaki", "profile": {
        "kind": "gaussian", "mass": 1.3, "std": 0.7}},
    fd={"h": [0.01], "replicas": 200})
_EVENTS_DEATH = {
    "domain": _FULL, "kernel": {"variant": "death", "rate": 1.0},
    "dynamics": {"times": [1.0], "events": True}, "start": _FIXED,
    "rng": {"seed": 1}}
_EVENTS_NOTE = (" when 'dynamics.events' is set: of the modes with births, "
                "only glauber has an event stream")


@pytest.mark.parametrize("command, cfg, message", [
    ("generator-check", dict(GEN_CFG, dynamics={"mode": "bogus"}),
     "'dynamics.mode' must be one of conservative, glauber"),
    ("generator-check", dict(_GEN_KAWASAKI, dynamics={
        "mode": "submarkov_immigration", "z": 3.0}),
     "'dynamics.mode' must be one of conservative, glauber"),
    ("evolve", dict(_EVENTS_DEATH, dynamics={
        "times": [1.0], "events": True, "mode": "bogus"}),
     "'dynamics.mode' must be one of conservative, glauber" + _EVENTS_NOTE),
    # the death kernel has an event stream, but not of its immigrants
    ("evolve", dict(_EVENTS_DEATH, dynamics={
        "times": [1.0], "events": True, "mode": "submarkov_immigration",
        "z": 5.0}),
     "'dynamics.mode' must be one of conservative, glauber" + _EVENTS_NOTE),
    ("laplace", dict(MARKOV_CFG, start={"kind": "poisson", "intensity": 1.0},
                     dynamics={"times": [0.5], "mode": "bogus"}),
     "'dynamics.mode' must be one of conservative, submarkov_immigration, "
     "glauber"),
])
def test_a_mode_the_command_does_not_run_is_refused(tmp_path, capsys,
                                                    command, cfg, message):
    from freedyn import cli

    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not list(out.iterdir())


@pytest.mark.parametrize("edit, message", [
    # "no" is truthy and 0/1 compare equal to False/True: only a JSON bool
    (lambda c: c["dynamics"].update(events="no"),
     "'dynamics.events' must be true or false"),
    (lambda c: c["dynamics"].update(events=1),
     "'dynamics.events' must be true or false"),
])
def test_evolve_refuses_a_non_bool_events(tmp_path, capsys, edit, message):
    from freedyn import cli

    cfg = json.loads(json.dumps(_EVENTS_DEATH))
    edit(cfg)
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not list(out.iterdir())


def test_generator_check_reads_no_dynamics_block_as_conservative(tmp_path):
    reports = []
    for cfg in (_GEN_KAWASAKI,
                dict(_GEN_KAWASAKI, dynamics={"mode": "conservative"})):
        rep, codes = verdict_run(tmp_path, "generator-check", cfg,
                                 "generator.json")
        assert codes[0] == 0
        reports.append(rep)
    assert reports[0] == reports[1]
