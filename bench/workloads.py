"""The three workloads: their inputs, their rounds of public calls, their checks.

A workload is a fixed round of operations, each one public levybridge call.
The benchmark repeats whole rounds, so the share of failed operations is the
same in every run. Inputs are drawn from the workload seed by
`make_inputs`, which runs once per benchmark process and saves them, so that
the fresh interpreters timed for `setup_s` load the same inputs.

`make_ops` needs only numpy and levybridge. `make_inputs` and `make_checks`
need the references in `reference`, which import scipy submodules; they are
imported lazily so that the set-up probe does not pay for them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("surface", "quotes", "paths")

# the laws every workload shares; `reference` gets the same numbers
HORIZON = 1.0
RATE = 0.02
MIXED_ATOMS = ((-0.75, 0.3),)
MIXED_NORMAL = (0.7, 0.5, 0.64)  # weight, mean, variance of the density part
GAMMA_M, GAMMA_KAPPA = 2.0, 1.5  # terminal law Gamma(m T, kappa)
BINARY_ATOMS = ((0.0, 0.5), (1.0, 0.5))
POISSON_INTENSITY = 1.0
POISSON_ATOMS = ((0, 0.3), (2, 0.4), (5, 0.3))

# surface: states per call, times, and tail grids
SURFACE_TIMES = (0.1, 0.5, 0.9)
SURFACE_MIXED_N = 8192
SURFACE_GAMMA_N = 16384
SURFACE_GRID_N = 241
MIXED_TAIL = 12.0
# the gamma grid spans these marginal quantiles of xi_t
GAMMA_GRID_Q = (1e-12, 1.0 - 1e-6)

# quotes: the far-tail request kept as a failing operation
FAR_TAIL_POINT = (0.5, -10.0)
QUOTE_PRICES = 8
QUOTE_POINTS = 4  # points per price request, one in each stratum of t and of xi
# (law, strike, maturity) of the option requests, fixed so that every seed
# asks the same exercise-boundary solves: their cost depends threefold on
# the maturity (m (T - t) = 1 is a cheap special case for the gamma law)
OPTIONS = (("binary", 0.5, 0.5), ("mixed", 0.3, 0.5), ("gamma", 3.5, 0.75))

# paths
TF_GRID = tuple(float(x) for x in np.linspace(0.1, 1.0, 10))
# six binary calls of 1000 paths keep the median call inside one class
TF_CALLS = (("binary", 1000),) * 6 + (("mixed", 2000), ("gamma", 2000), ("poisson", 2000))
MARKOV_GRID = (0.25, 0.5, 0.75, 1.0)
MARKOV_PATHS = {"binary": 32, "poisson": 32, "mixed": 16}

TOL = 1e-8  # relative (floored at 1 for means and prices) for closed forms
KS_ALPHA = 1e-6  # significance of each statistical test of a path sample


@dataclass(frozen=True)
class Op:
    """One public call: ``run`` performs it, ``items`` is the work it does."""

    name: str
    items: int
    run: Callable[[], object]
    info: dict


# ---------------------------------------------------------------------------
# specs and scenario files


def scenario(law: str) -> dict:
    """Scenario-file model block of a named law (for the CLI)."""
    rate = {"times": [0.0], "rates": [RATE]}
    if law == "mixed":
        w, mu, s2 = MIXED_NORMAL
        terminal = {
            "atoms": [list(a) for a in MIXED_ATOMS],
            "density": {"family": "normal", "mu": mu, "sigma2": s2, "weight": w},
        }
        kernel = {"family": "brownian"}
    elif law == "gamma":
        terminal = {
            "density": {"family": "gamma", "shape": GAMMA_M * HORIZON, "scale": GAMMA_KAPPA}
        }
        kernel = {"family": "gamma", "m": GAMMA_M}
    elif law == "binary":
        terminal = {"atoms": [list(a) for a in BINARY_ATOMS]}
        kernel = {"family": "brownian"}
    else:
        raise ValueError(law)
    return {"kernel": kernel, "horizon": HORIZON, "terminal_law": terminal, "rate": rate}


def build_specs(lb) -> dict:
    w, mu, s2 = MIXED_NORMAL
    T = HORIZON
    return {
        "mixed": lb.LRBSpec(
            lb.BrownianKernel(), T, lb.TerminalLaw.normal(mu, s2, weight=w, atoms=MIXED_ATOMS)
        ),
        "gamma": lb.LRBSpec(
            lb.GammaKernel(GAMMA_M), T, lb.TerminalLaw.gamma(GAMMA_M * T, GAMMA_KAPPA)
        ),
        "binary": lb.LRBSpec(lb.BrownianKernel(), T, lb.TerminalLaw.from_atoms(BINARY_ATOMS)),
        "poisson": lb.LRBSpec(
            lb.PoissonKernel(POISSON_INTENSITY), T, lb.TerminalLaw.from_atoms(POISSON_ATOMS)
        ),
    }


def reference_laws() -> dict:
    import reference as ref

    return {
        "mixed": ref.BrownianLaw(HORIZON, MIXED_ATOMS, MIXED_NORMAL),
        "binary": ref.BrownianLaw(HORIZON, BINARY_ATOMS),
        "gamma": ref.GammaLaw(GAMMA_M, HORIZON, GAMMA_KAPPA),
        "poisson": ref.PoissonLaw(HORIZON, POISSON_ATOMS),
    }


# ---------------------------------------------------------------------------
# inputs (drawn from the seed once per benchmark process)


def make_inputs(workload: str, seed: int, outdir: Path) -> Path:
    """Draw the workload's inputs from ``seed`` and save them under ``outdir``."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {"workload": workload, "seed": seed}
    if workload == "surface":
        (z_atom, w_atom), = MIXED_ATOMS
        _, mu, s2 = MIXED_NORMAL
        for t in SURFACE_TIMES:
            r = t / HORIZON
            v = t * (1.0 - r)
            n = SURFACE_MIXED_N
            from_atom = rng.uniform(size=n) < w_atom
            draws = np.where(
                from_atom,
                rng.normal(r * z_atom, math.sqrt(v), n),
                rng.normal(r * mu, math.sqrt(r * r * s2 + v), n),
            )
            grid = np.linspace(-MIXED_TAIL, MIXED_TAIL, SURFACE_GRID_N)
            arrays[f"mixed_{t}"] = np.concatenate([draws, grid])
            gamma = reference_laws()["gamma"]
            lo, hi = (gamma.marginal_quantile(t, q) for q in GAMMA_GRID_Q)
            draws = rng.gamma(GAMMA_M * t, GAMMA_KAPPA, SURFACE_GAMMA_N)
            arrays[f"gamma_{t}"] = np.concatenate([draws, np.geomspace(lo, hi, SURFACE_GRID_N)])
    elif workload == "quotes":
        meta["requests"] = _quote_requests(rng, outdir)
    elif workload == "paths":
        seeds = np.random.SeedSequence(seed).generate_state(len(TF_CALLS) + len(MARKOV_PATHS))
        meta["seeds"] = [int(s) for s in seeds]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    np.savez(outdir / "inputs.npz", **arrays)
    path = outdir / "inputs.json"
    path.write_text(json.dumps(meta, indent=1))
    return path


def _quote_requests(rng, outdir: Path) -> list[dict]:
    """Write one scenario file per request and return the request list.

    Each price request is a Latin hypercube of QUOTE_POINTS points: one t in
    each stratum of [0.1, 0.9] and one xi in each stratum of the band of 2.5
    marginal standard deviations around the marginal mean of xi_t, where
    users of a price quote mostly are. Stratifying keeps the cost of a
    request nearly the same from seed to seed.
    """
    (z_atom, w_atom), = MIXED_ATOMS
    w_d, mu, s2 = MIXED_NORMAL
    k = QUOTE_POINTS
    prices = []
    for _ in range(QUOTE_PRICES):
        ts = 0.1 + 0.8 * (np.arange(k) + rng.uniform(size=k)) / k
        zs = -2.5 + 5.0 * (rng.permutation(k) + rng.uniform(size=k)) / k
        points = []
        for t, z in zip(ts, zs):
            r = t / HORIZON
            v = t * (1.0 - r)
            m1 = r * (w_atom * z_atom + w_d * mu)
            m2 = w_atom * ((r * z_atom) ** 2 + v) + w_d * ((r * mu) ** 2 + r * r * s2 + v)
            points.append([float(t), float(m1 + math.sqrt(m2 - m1 * m1) * z)])
        prices.append({"kind": "price", "law": "mixed", "points": points})
    options = [
        {"kind": "option", "law": law, "strike": strike, "maturity": maturity}
        for law, strike, maturity in OPTIONS
    ]
    far = {"kind": "price", "law": "mixed", "points": [list(FAR_TAIL_POINT)], "far_tail": True}
    p = prices
    order = [p[0], options[0], p[1], p[2], options[1], p[3], p[4], far, p[5], options[2], p[6], p[7]]
    for i, req in enumerate(order):
        body = scenario(req["law"])
        if req["kind"] == "price":
            body["price"] = {"points": req["points"]}
        else:
            body["option"] = {"strike": req["strike"], "maturity": req["maturity"], "method": "closed"}
        req["config"] = str(outdir / f"request{i:02d}.json")
        req["out"] = str(outdir / f"reply{i:02d}.json")
        Path(req["config"]).write_text(json.dumps(body, indent=1))
    return order


def load_inputs(path: Path) -> tuple[dict, dict]:
    meta = json.loads(Path(path).read_text())
    with np.load(Path(path).with_suffix(".npz")) as data:
        arrays = {k: data[k] for k in data.files}
    return meta, arrays


# ---------------------------------------------------------------------------
# rounds of operations


def make_ops(lb, meta: dict, arrays: dict) -> list[Op]:
    """The workload's round; the first op is the set-up probe's first request."""
    workload = meta["workload"]
    if workload == "quotes":
        return [_cli_op(req) for req in meta["requests"]]
    specs = build_specs(lb)
    ops: list[Op] = []
    if workload == "surface":
        curve = lb.RateCurve.flat(RATE)
        for t in SURFACE_TIMES:
            for law in ("mixed", "gamma"):
                spec, x = specs[law], arrays[f"{law}_{t}"]
                calls = {
                    "psi_total_many": lambda s=spec, t=t, x=x: lb.psi_total_many(s, t, x),
                    "posterior_mean_many": lambda s=spec, t=t, x=x: lb.posterior_mean_many(s, t, x),
                    "price_many": lambda s=spec, t=t, x=x: lb.price_many(s, curve, t, x),
                }
                ops += [
                    Op(f"{law}.{fn} t={t}", x.size, call, {"law": law, "fn": fn, "t": t})
                    for fn, call in calls.items()
                ]
        return ops
    seeds = iter(meta["seeds"])
    tf = [_paths_op(lb, specs, law, TF_GRID, n, next(seeds), "terminal_first")
          for law, n in TF_CALLS]
    markov = [_paths_op(lb, specs, law, MARKOV_GRID, n, next(seeds), "markov")
              for law, n in MARKOV_PATHS.items()]
    # spread the slow Markov calls through the round
    return tf[:3] + markov[:1] + tf[3:6] + markov[1:2] + tf[6:] + markov[2:]


def _paths_op(lb, specs, law, grid, n, seed, method) -> Op:
    spec, grid = specs[law], np.asarray(grid)
    info = {"law": law, "spec": spec, "grid": grid, "n": n, "seed": seed, "method": method}
    return Op(
        f"{law}.{method} seed={seed}", n,
        lambda: lb.simulate_paths(spec, grid, n, seed, method=method, workers=1), info,
    )


class RequestFailed(Exception):
    """A CLI request that exited with a non-zero code."""


def _cli_op(req: dict) -> Op:
    from levybridge import cli

    argv = [req["kind"], "--config", req["config"], "--out", req["out"]]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RequestFailed(f"exit {code}: {err.getvalue().strip()}")
        return req["out"]

    name = f"{req['law']}.{req['kind']}" + (" far-tail" if req.get("far_tail") else "")
    return Op(name, 1, run, req)


# ---------------------------------------------------------------------------
# output checks against the references


def make_checks(lb, meta: dict, arrays: dict, ops: list[Op]) -> list[Callable]:
    """One check per op: ``check(output)`` returns an error message or None."""
    laws = reference_laws()
    workload = meta["workload"]
    if workload == "surface":
        return [_surface_check(laws[op.info["law"]], op.info, arrays) for op in ops]
    if workload == "quotes":
        return [_quote_check(laws[op.info["law"]], op.info) for op in ops]
    return [_paths_check(lb, laws[op.info["law"]], op.info) for op in ops]


def _compare(got, want, floor: float, what: str) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    err = np.abs(got - want) / np.maximum(np.abs(want), floor)
    worst = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
    if not err.flat[worst] <= TOL:
        return (f"{what}: relative error {err.flat[worst]:.3g} at entry {worst} "
                f"(got {got.flat[worst]!r}, reference {want.flat[worst]!r})")
    return None


def _surface_check(law, info: dict, arrays: dict) -> Callable:
    t, fn = info["t"], info["fn"]
    x = arrays[f"{info['law']}_{t}"]
    if fn == "psi_total_many":
        want, floor = law.psi(t, x), 0.0
    else:
        want, floor = law.mean(t, x), 1.0
        if fn == "price_many":
            want = want * math.exp(-RATE * (HORIZON - t))
    return lambda out: _compare(out, want, floor, fn)


def _price_reference(law, t: float, xi: float) -> dict:
    mean = float(law.mean(t, xi))
    return {
        "psi": float(law.psi(t, xi)),
        "posterior_mean": mean,
        "price": math.exp(-RATE * (HORIZON - t)) * mean,
    }


def _option_reference(law, req: dict) -> dict:
    import reference as ref

    t, strike = req["maturity"], req["strike"]
    df_0t, df_tT = math.exp(-RATE * t), math.exp(-RATE * (HORIZON - t))
    bracket = (0.0, 100.0) if req["law"] == "gamma" else (-50.0, 50.0)
    xi_star = ref.threshold(law, t, strike, df_tT, bracket)
    value = ref.call_price(law, t, strike, df_0t, df_tT, xi_star, max(xi_star, 0.0) + 60.0)
    return {"threshold": xi_star, "price": value}


def _quote_check(law, req: dict) -> Callable:
    if req["kind"] == "price":
        wants = [_price_reference(law, t, xi) for t, xi in req["points"]]
        floors = {"psi": 0.0, "posterior_mean": 1.0, "price": 1.0}
    else:
        wants = [_option_reference(law, req)]
        floors = {"threshold": 1.0, "price": 1e-6}

    def check(out_path):
        reply = json.loads(Path(out_path).read_text())
        if req["kind"] == "price":
            if not (isinstance(reply, list) and len(reply) == len(wants)):
                return f"price reply has {len(reply)} records, expected {len(wants)}"
            gots = reply
        else:
            boundary = reply.get("boundary", {})
            if boundary.get("kind") != "threshold":
                return f"option boundary {boundary!r}, expected a threshold"
            gots = [{"threshold": boundary.get("threshold"), "price": reply.get("price")}]
        for got, want in zip(gots, wants):
            for key, value in want.items():
                if got.get(key) is None:
                    return f"{req['kind']} reply lacks {key!r}"
                msg = _compare(got[key], np.asarray(value), floors[key], key)
                if msg:
                    return msg
        return None

    return check


def _paths_check(lb, law, info: dict) -> Callable:
    """Statistical and structural checks on the first output, equality after.

    The first output must pass a one-sample KS test per grid column against
    the closed-form marginal (significance KS_ALPHA each), for the Brownian
    laws with 1000 paths or more also z-tests of the column's mean and
    variance (the KS test alone misses a 10% error in a bridge step's
    standard deviation at this sample size), the structural
    rules of its law, and the prefix rule simulate_paths(n)[:k] ==
    simulate_paths(k). Every later output of the same call must equal it.
    """
    import reference as ref

    first: list = []

    def check(out):
        out = np.asarray(out)
        if first:
            return None if np.array_equal(out, first[0]) else "output changed between rounds"
        first.append(out)
        grid, n = info["grid"], info["n"]
        if out.shape != (n, grid.size) or not np.all(np.isfinite(out)):
            return f"paths of shape {out.shape}, expected {(n, grid.size)} finite"
        name = info["law"]
        if name == "binary" and not np.all(np.isin(out[:, -1], [0.0, 1.0])):
            return "binary terminal values outside {0, 1}"
        if name in ("gamma", "poisson"):
            if np.any(out[:, 0] < 0) or np.any(np.diff(out, axis=1) < 0):
                return f"{name} paths decrease"
        if name == "poisson" and not np.all(out == np.round(out)):
            return "poisson paths leave the integers"
        crit = ref.ks_critical(n, KS_ALPHA)
        z_crit = ref.z_critical(KS_ALPHA)
        moments = n >= 1000 and hasattr(law, "marginal_moments")
        for j, t in enumerate(grid):
            cdf = lambda x, t=t: law.marginal_cdf(t, x)
            left = lambda x, t=t: law.marginal_cdf(t, x, left=True)
            d = ref.ks_statistic(out[:, j], cdf, left)
            if d > crit:
                return f"KS distance {d:.4f} at t={t:g} exceeds {crit:.4f} (alpha {KS_ALPHA})"
            if moments:
                z = ref.moment_z_scores(out[:, j], *law.marginal_moments(t))
                if max(abs(v) for v in z) > z_crit:
                    return (f"mean and variance z-scores {z[0]:.2f}, {z[1]:.2f} at t={t:g} "
                            f"exceed {z_crit:.2f} (alpha {KS_ALPHA})")
        k = max(1, n // 8)
        prefix = lb.simulate_paths(info["spec"], grid, k, info["seed"], method=info["method"])
        if not np.array_equal(prefix, out[:k]):
            return f"simulate_paths({k}) differs from the first {k} of simulate_paths({n})"
        return None

    return check
