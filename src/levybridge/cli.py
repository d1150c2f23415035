"""Command line runner: simulate / price / option / verify over scenario files.

Exit codes: 0 success, 1 config error, 2 numeric failure, 3 property
(verification) failure. All numeric output is serialized at 17 significant
digits so reruns are diff-able.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import core as _core
from . import pricing as _pricing
from . import sampler as _sampler
from .config import ScenarioConfig, _expect_seed, parse_scenario
from .errors import (
    ConfigError,
    DomainError,
    InfiniteMomentError,
    InvalidPinError,
    KernelClassError,
    LevyBridgeError,
    NoRootError,
    NonMonotoneError,
    NumericError,
    UnreachableStateError,
    UnsupportedKernelError,
)

__all__ = ["main", "dumps17", "paths_to_csv"]

_CONFIG_ERRORS = (
    ConfigError,
    DomainError,
    InvalidPinError,
    KernelClassError,
    UnsupportedKernelError,
)
_NUMERIC_ERRORS = (
    NumericError,
    InfiniteMomentError,
    NoRootError,
    NonMonotoneError,
    UnreachableStateError,
)


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        # JSON has no literal for these; a quoted token keeps the file loadable
        return json.dumps(str(x))
    return format(float(x), ".17g")


def dumps17(obj, _level: int = 0) -> str:
    """JSON text with floats at 17 significant digits, 2-space indentation."""
    pad = "  " * _level
    inner = "  " * (_level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner + dumps17(v, _level + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps17(v, _level + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def paths_to_csv(times, values) -> str:
    """CSV text for simulated paths, rows sorted by (path_id, time)."""
    lines = ["path_id,time,value"]
    for i, row in enumerate(np.asarray(values)):
        for t, v in zip(times, row):
            lines.append(f"{i},{format(float(t), '.17g')},{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands


def _load_scenario(path: str, seed_override: int | None) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("scenario", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("scenario", f"invalid JSON in {path}: {exc}") from exc
    cfg = parse_scenario(raw)
    if seed_override is not None:
        cfg = replace(cfg, seed=_expect_seed(seed_override, "--seed"))
    return cfg


def _require(block, name: str):
    if block is None:
        raise ConfigError(f"scenario.{name}", "missing required key for this command")
    return block


def cmd_simulate(cfg: ScenarioConfig, out: str | None) -> int:
    sim = _require(cfg.simulate, "simulate")
    spec = cfg.build_spec()
    values = _sampler.simulate_paths(spec, sim.grid, sim.n_paths, cfg.seed, method=sim.method)
    _emit(paths_to_csv(sim.grid, values), out)
    return 0


def cmd_price(cfg: ScenarioConfig, out: str | None) -> int:
    block = _require(cfg.price, "price")
    spec = cfg.build_spec()
    curve = cfg.build_curve()
    # one engine call for every point of the request, a time per row
    ts, xis = zip(*block.points)
    psis, moments = _core._posterior_moments(spec, ts, xis, (1,))
    records = [
        {
            "t": t,
            "xi": xi,
            "price": curve.discount(t, spec.horizon) * float(mean),
            "posterior_mean": float(mean),
            "psi": float(psi),
        }
        for t, xi, psi, (mean,) in zip(ts, xis, psis, moments)
    ]
    _emit(dumps17(records) + "\n", out)
    return 0


def cmd_option(cfg: ScenarioConfig, out: str | None) -> int:
    block = _require(cfg.option, "option")
    spec = cfg.build_spec()
    curve = cfg.build_curve()
    call = _pricing.CallSpec(
        strike=block.strike,
        maturity=block.maturity,
        valuation_time=block.valuation_time,
        xi=block.xi,
    )
    boundary = _pricing.critical_information(spec, curve, call.maturity, call.strike)
    value = _pricing.call_price(spec, curve, call, boundary=boundary)
    record = {
        "strike": call.strike,
        "maturity": call.maturity,
        "valuation_time": call.valuation_time,
        "xi": call.xi,
        "method": block.method,
        "price": value,
        "boundary": {
            "kind": boundary.kind,
            "threshold": boundary.threshold,
            "evaluations": boundary.evaluations,
        },
    }
    _emit(dumps17(record) + "\n", out)
    return 0


def cmd_verify(cfg: ScenarioConfig, out: str | None) -> int:
    # the check suite pulls in scipy.stats and scipy.integrate: load it only here
    from . import checks as _checks

    block = _require(cfg.verify, "verify")
    # an empty list in the block selects the whole suite
    names = list(block.checks) or None
    try:
        results = _checks.run_checks(names)
    except KeyError as exc:
        raise ConfigError("scenario.verify.checks", str(exc)) from exc
    report = [
        {
            "check": r.name,
            "statistic": r.statistic,
            "threshold": r.threshold,
            "pass": r.passed,
            "elapsed_s": r.elapsed,
            "detail": r.detail,
            "parts": dict(r.parts),
        }
        for r in results
    ]
    _emit(dumps17(report) + "\n", out)
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="levybridge",
        description="Simulate and price terminal-conditioned information processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_sim = sub.add_parser("simulate", help="write simulated paths as CSV")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument(
        "--workers", type=int, default=1,
        help="accepted and ignored: all paths are drawn as one vectorised batch",
    )

    for name, helptext in (
        ("price", "evaluate the cash-flow price on (t, xi) points"),
        ("option", "price a European call on the cash-flow price"),
        ("verify", "run coherence checks and write a JSON report"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)
        p.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = _load_scenario(args.config, args.seed)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "price":
            return cmd_price(cfg, args.out)
        if args.command == "option":
            return cmd_option(cfg, args.out)
        return cmd_verify(cfg, args.out)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        detail = "".join(f" {k}={v}" for k, v in getattr(exc, "diagnostics", {}).items())
        print(f"numeric error: {exc}{detail}", file=sys.stderr)
        return 2
    except LevyBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
