import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import levybridge
from levybridge import checks, cli, core
from levybridge.checks import CheckResult
from levybridge.errors import NumericError


def binary_scenario(**blocks) -> dict:
    d = {
        "kernel": {"family": "brownian"},
        "horizon": 1.0,
        "terminal_law": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "seed": 3,
    }
    d.update(blocks)
    return d


def write(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# ---------------------------------------------------------------------------
# serialization helpers


def test_dumps17_special_floats_stay_loadable():
    text = cli.dumps17({"a": math.nan, "b": math.inf, "c": -math.inf})
    back = json.loads(text)
    assert back == {"a": "nan", "b": "inf", "c": "-inf"}


def test_dumps17_rejects_unknown_types():
    with pytest.raises(TypeError):
        cli.dumps17(object())


@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_dumps17_floats_round_trip_exactly(x):
    assert float(json.loads(cli.dumps17(x))) == x


def test_paths_to_csv_layout():
    text = cli.paths_to_csv([0.5, 1.0], [[1.0, 2.0], [3.0, 4.0]])
    lines = text.strip().split("\n")
    assert lines[0] == "path_id,time,value"
    assert lines[1] == "0,0.5,1"
    assert lines[4] == "1,1,4"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv(tmp_path):
    cfg = write(tmp_path, binary_scenario(simulate={"grid": [0.5, 1.0], "n_paths": 4}))
    out = tmp_path / "paths.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path_id,time,value"
    assert len(lines) == 1 + 4 * 2


def test_simulate_worker_count_invisible_in_output(tmp_path):
    cfg = write(tmp_path, binary_scenario(simulate={"grid": [0.5, 1.0], "n_paths": 6}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, binary_scenario(simulate={"grid": [0.5, 1.0], "n_paths": 3}))
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    cli.main(["simulate", "--config", cfg, "--out", str(a)])
    cli.main(["simulate", "--config", cfg, "--out", str(b), "--seed", "99"])
    cli.main(["simulate", "--config", cfg, "--out", str(c), "--seed", "99"])
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # it once escaped as a raw ValueError from numpy's SeedSequence
    block = {"simulate": {"grid": [0.5, 1.0], "n_paths": 3}}
    out = str(tmp_path / "x.csv")
    cfg = write(tmp_path, {**binary_scenario(**block), "seed": -5})
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 1
    assert "config error: scenario.seed:" in capsys.readouterr().err
    cfg = write(tmp_path, binary_scenario(**block))
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--seed", "-5"]) == 1
    assert "config error: --seed:" in capsys.readouterr().err


def test_cached_parser_behaves_like_a_fresh_one(tmp_path, capsys):
    # the parser is built once per process; no call may leak into the next
    assert cli._build_parser() is cli._build_parser()
    sim = {"grid": [0.5, 1.0], "n_paths": 3}
    cfg = write(tmp_path, binary_scenario(price={"points": [[0.5, 0.25]]}, simulate=sim))
    assert cli.main(["price", "--config"]) == 1
    assert cli.main(["price", "--config", cfg]) == 0
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["simulate", "--config", cfg, "--out", str(a), "--seed", "5"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    # the scenario seed of binary_scenario is 3
    assert cli.main(["simulate", "--config", cfg, "--out", str(c), "--seed", "3"]) == 0
    assert b.read_bytes() == c.read_bytes() != a.read_bytes()


def test_simulate_requires_its_block(tmp_path):
    cfg = write(tmp_path, binary_scenario())
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1


# ---------------------------------------------------------------------------
# price


def test_price_records(tmp_path, capsys):
    cfg = write(
        tmp_path,
        binary_scenario(price={"points": [[0.0, 0.0], [0.5, 0.25]]}),
    )
    assert cli.main(["price", "--config", cfg]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records[0]["psi"] == 1.0
    assert records[0]["posterior_mean"] == 0.5
    assert abs(records[1]["price"] - 0.5) < 1e-12
    # at the midpoint state both atom terms coincide: psi = sqrt(2) e^(-1/16)
    assert abs(records[1]["psi"] - math.sqrt(2.0) * math.exp(-1.0 / 16.0)) < 1e-14


def test_price_discounting_applied(tmp_path, capsys):
    cfg = write(
        tmp_path,
        binary_scenario(
            rate={"times": [0.0], "rates": [0.05]},
            price={"points": [[0.5, 0.25]]},
        ),
    )
    assert cli.main(["price", "--config", cfg]) == 0
    rec = json.loads(capsys.readouterr().out)[0]
    assert abs(rec["price"] - rec["posterior_mean"] * math.exp(-0.05 * 0.5)) < 1e-15


def test_price_unreachable_state_is_a_numeric_error(tmp_path):
    payload = {
        "kernel": {"family": "gamma", "m": 2.0},
        "horizon": 1.0,
        "terminal_law": {"atoms": [[1.0, 0.5], [2.5, 0.5]]},
        "price": {"points": [[0.5, 3.5]]},
    }
    cfg = write(tmp_path, payload)
    assert cli.main(["price", "--config", cfg]) == 2


def mixed_scenario(**blocks) -> dict:
    d = {
        "kernel": {"family": "brownian"},
        "horizon": 1.0,
        "terminal_law": {
            "atoms": [[-0.75, 0.3]],
            "density": {"family": "normal", "mu": 0.5, "sigma2": 0.64, "weight": 0.7},
        },
    }
    d.update(blocks)
    return d


def test_price_request_makes_one_engine_call(tmp_path, capsys, monkeypatch):
    # four points at distinct times and one at t = 0: one engine call with a
    # time per row, and the only tail scan is the prior's at t = 0
    calls, scans = [], []
    real_sums, real_scan = core._tilted_sums, core._certify_moment_tail
    monkeypatch.setattr(core, "_tilted_sums",
                        lambda spec, t, *a, **k: calls.append(t) or real_sums(spec, t, *a, **k))
    monkeypatch.setattr(core, "_certify_moment_tail", lambda *a: scans.append(a) or real_scan(*a))
    points = [[0.2, 0.3], [0.0, 0.0], [0.4, -0.5], [0.6, 1.0], [0.8, 0.1]]
    cfg = write(tmp_path, mixed_scenario(price={"points": points}))
    assert cli.main(["price", "--config", cfg]) == 0
    assert len(calls) == 1 and list(calls[0]) == [0.2, 0.4, 0.6, 0.8]
    assert len(scans) == 1
    # each record is the batch of one of the scalar API, bit for bit
    spec = cli._load_scenario(cfg, None).build_spec()
    for (t, xi), rec in zip(points, json.loads(capsys.readouterr().out)):
        assert [rec["t"], rec["xi"]] == [t, xi]
        assert rec["posterior_mean"] == core.conditional_moment(spec, t, xi, 1)
        assert rec["psi"] == core.psi_total(spec, t, xi)


def test_price_far_tail_state(tmp_path, capsys):
    # psi here is 4.7e-13; an absolute quadrature tolerance of 1e-10 once
    # lost it and the command exited with a "config error"
    cfg = write(tmp_path, mixed_scenario(price={"points": [[0.5, -10.0]]}))
    assert cli.main(["price", "--config", cfg]) == 0
    rec = json.loads(capsys.readouterr().out)[0]
    assert abs(rec["psi"] / 4.716923255240162e-13 - 1.0) < 1e-10


def test_numeric_error_reports_diagnostics(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise NumericError("x", window=(1, 2))

    monkeypatch.setattr(core, "_tilted_sums", failing)
    cfg = write(tmp_path, binary_scenario(price={"points": [[0.5, 0.25]]}))
    assert cli.main(["price", "--config", cfg]) == 2
    assert "window=" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# option


def test_option_record(tmp_path, capsys):
    cfg = write(
        tmp_path,
        binary_scenario(option={"strike": 0.5, "maturity": 0.5}),
    )
    assert cli.main(["option", "--config", cfg]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["method"] == "closed"
    assert rec["boundary"]["kind"] == "threshold"
    assert abs(rec["boundary"]["threshold"] - 0.25) < 1e-9
    assert abs(rec["price"] - 0.09573123063700656) < 1e-10
    # the engine calls of the boundary solve: the same count on every run
    counts = {rec["boundary"]["evaluations"]}
    for _ in range(2):
        assert cli.main(["option", "--config", cfg]) == 0
        counts.add(json.loads(capsys.readouterr().out)["boundary"]["evaluations"])
    assert len(counts) == 1 and counts.pop() >= 2


def test_option_quadrature_is_a_config_error(tmp_path, capsys):
    # the quadrature call price is a reference route in `checks`, not an option
    cfg = write(
        tmp_path,
        binary_scenario(option={"strike": 0.5, "maturity": 0.5, "method": "quadrature"}),
    )
    assert cli.main(["option", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "scenario.option.method" in err and "closed" in err


def test_option_writes_to_file(tmp_path):
    cfg = write(tmp_path, binary_scenario(option={"strike": 0.5, "maturity": 0.5}))
    out = tmp_path / "opt.json"
    assert cli.main(["option", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["strike"] == 0.5


# ---------------------------------------------------------------------------
# verify


def test_verify_subset_passes(tmp_path, capsys):
    cfg = write(tmp_path, binary_scenario(verify={"checks": ["normalization"]}))
    assert cli.main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["check"] == "normalization"
    assert report[0]["pass"] is True
    # the report carries the check's time, detail and per-part margins
    assert report[0]["elapsed_s"] > 0.0
    assert isinstance(report[0]["detail"], str)
    parts = report[0]["parts"]
    assert parts and max(parts.values()) == report[0]["statistic"]


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing(seed=None):
        return CheckResult(
            name="always_failing", statistic=1.0, threshold=0.5, passed=False,
            detail="too far", parts=(("a", 1.0), ("b", 0.25)),
        )

    monkeypatch.setitem(checks.CHECKS, "always_failing", failing)
    cfg = write(tmp_path, binary_scenario(verify={"checks": ["always_failing"]}))
    assert cli.main(["verify", "--config", cfg]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report[0]["pass"] is False
    assert report[0]["detail"] == "too far"
    assert report[0]["parts"] == {"a": 1.0, "b": 0.25}
    assert report[0]["elapsed_s"] >= 0.0


def test_verify_unknown_check_is_config_error(tmp_path):
    cfg = write(tmp_path, binary_scenario(verify={"checks": ["nope"]}))
    assert cli.main(["verify", "--config", cfg]) == 1


def test_verify_requires_its_block(tmp_path):
    cfg = write(tmp_path, binary_scenario())
    assert cli.main(["verify", "--config", cfg]) == 1


# ---------------------------------------------------------------------------
# failure modes and argument handling


def test_missing_config_file(tmp_path):
    assert cli.main(["price", "--config", str(tmp_path / "absent.json")]) == 1


def test_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["price", "--config", str(p)]) == 1


def test_unknown_scenario_key(tmp_path):
    cfg = write(tmp_path, binary_scenario(extra=1))
    assert cli.main(["price", "--config", cfg]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_no_arguments_exits_one(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_unknown_command_exits_one(capsys):
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# import cost


def gamma_scenario(**blocks) -> dict:
    d = {
        "kernel": {"family": "gamma", "m": 2.0},
        "horizon": 1.0,
        "terminal_law": {"density": {"family": "gamma", "shape": 2.0, "scale": 1.5}},
    }
    d.update(blocks)
    return d


def test_check_suite_loads_only_when_used(tmp_path):
    # the check suite brings in scipy.stats, and QUADPACK and brentq are
    # reference and fallback routes; the Gauss-Jacobi rules need no
    # scipy.linalg: neither the package import nor a price or option request
    # on the mixed and gamma laws may load them, while the check names stay
    # reachable
    heavy = ("levybridge.checks", "scipy.stats", "scipy.integrate", "scipy.optimize",
             "scipy.linalg")
    requests = [("price", write(tmp_path, binary_scenario(price={"points": [[0.5, 0.25]]}), "b.json"))]
    for name, scenario, strike in (("mixed", mixed_scenario, 0.3), ("gamma", gamma_scenario, 3.5)):
        blocks = {"price": {"points": [[0.0, 0.0], [0.5, 0.3]]},
                  "option": {"strike": strike, "maturity": 0.5}}
        cfg = write(tmp_path, scenario(**blocks), f"{name}.json")
        requests += [("price", cfg), ("option", cfg)]
    code = (
        "import sys, json, contextlib, io\n"
        f"heavy = {heavy!r}\n"
        "import levybridge\n"
        "from levybridge import cli\n"
        "loaded = [sorted(m for m in heavy if m in sys.modules)]\n"
        f"for command, cfg in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main([command, '--config', cfg]) == 0, (command, cfg)\n"
        "    loaded.append(sorted(m for m in heavy if m in sys.modules))\n"
        "names = {}\n"
        "exec('from levybridge import *', names)\n"
        "assert names['run_checks'] is levybridge.run_checks\n"
        "assert 'normalization' in levybridge.CHECKS and levybridge.CheckResult\n"
        "print(json.dumps(loaded))\n"
    )
    src = os.path.dirname(os.path.dirname(levybridge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[]] * (1 + len(requests))
