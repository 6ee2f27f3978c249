"""End-to-end command line checks via subprocess."""

import json
import os
import subprocess
import sys

import pytest

from cli_env import checkout_env


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "freedyn.cli"] + list(args),
                          capture_output=True, text=True, cwd=cwd,
                          env=checkout_env())


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
    assert "unknown key 'config.startx'" in res.stderr


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
    # seed 49 at 50 samples misses this narrow box entirely, so the
    # estimate sits outside three standard errors of the analytic value
    cfg = json.loads(json.dumps(MARKOV_CFG))
    cfg["observables"][0] = {"family": "box", "level": -0.9,
                             "lo": [-0.05], "hi": [0.05]}
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
