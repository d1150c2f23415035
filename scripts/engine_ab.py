"""Interleaved in-process A/B of the surface, quotes or paths workload between two source trees.

    python3 scripts/engine_ab.py OLD_SRC NEW_SRC [--workload surface|quotes|paths]
        [--seed 201] [--rounds 6] [--rtol X]

OLD_SRC and NEW_SRC are `src` directories, each holding a `levybridge`
package. Each tree is imported under its own package name (`lb_old`,
`lb_new`), so both live in one interpreter and share its warm caches. The
round of `bench/workloads.py` (this checkout's) is built once per tree from
the same seeded inputs. Before any timing, every op of one round must agree
between the trees. A surface op agrees to 1e-12 relative; as in the
benchmark's own checks, the scale of a posterior mean or a price is floored
at 1, since a mean that crosses 0 keeps only absolute digits. A paths op
must return the same array bit for bit. A quotes op is one CLI request,
sent to each tree's own `cli.main` as the benchmark sends it (the
benchmark's own op imports `levybridge.cli` by name, so it cannot serve
two trees); each tree writes its replies in its own directory, and every
request must exit with the same code on both trees and leave reply files
that are byte-identical. With ``--rtol X``, a change that moves last digits
can be timed: quotes replies (parsed JSON, same structure and strings) and
paths arrays (same shape) then agree where every number is within X
relative, its scale floored at 1 as on surface, and the largest gap is
printed. A larger gap exits 1.
Whole rounds then alternate, old first on odd rounds and new first on even
ones, so that a machine whose speed drifts between runs charges both sides
alike. Printed: per op, the median milliseconds of each side and their ratio;
per round pair, the ratio of whole-round times; the median pair ratio
(old over new, above 1 means the new tree is faster); and each side's p50,
the median over every op call of every round, as the benchmark's
call_p50_ms.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12


def load_tree(src: Path, name: str):
    """Import ``src/levybridge`` as the package ``name``."""
    pkg = Path(src).resolve() / "levybridge"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def round_ops(lb, workload: str, seed: int, workdir: Path):
    """The round of ``workload`` in ``bench/workloads.py`` on the package ``lb``."""
    import workloads

    path = workloads.make_inputs(workload, seed, workdir)
    meta, arrays = workloads.load_inputs(path)
    if workload != "quotes":
        return workloads.make_ops(lb, meta, arrays)
    cli = importlib.import_module(f"{lb.__name__}.cli")
    ops = []
    for i, req in enumerate(meta["requests"]):
        name = f"{i:02d} {req['law']}.{req['kind']}" + (" far-tail" if req.get("far_tail") else "")
        ops.append(workloads.Op(name, 1, partial(run_request, cli, req), req))
    return ops


def run_request(cli, req: dict) -> int:
    """One quote request through ``cli.main``, stderr captured; returns the exit code."""
    argv = [req["kind"], "--config", req["config"], "--out", req["out"]]
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def reply(req: dict) -> bytes | None:
    """The bytes of a request's reply file; None where the request wrote none."""
    path = Path(req["out"])
    return path.read_bytes() if path.exists() else None


def json_gap(x, y) -> float:
    """Largest relative gap between the numbers of two parsed JSON values (scale floored at
    1); inf where their structure, keys or other values differ."""
    if isinstance(x, dict) and isinstance(y, dict):
        return max((json_gap(x[k], y[k]) for k in x), default=0.0) if x.keys() == y.keys() else math.inf
    if isinstance(x, list) and isinstance(y, list):
        return max(map(json_gap, x, y), default=0.0) if len(x) == len(y) else math.inf
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
    if numbers:
        return 0.0 if x == y else abs(x - y) / max(abs(x), 1.0)
    return 0.0 if x == y else math.inf


def timed_round(ops) -> list[float]:
    out = []
    for op in ops:
        t0 = time.perf_counter()
        op.run()
        out.append(time.perf_counter() - t0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--workload", choices=("surface", "quotes", "paths"), default="surface")
    ap.add_argument("--seed", type=int, default=201)
    ap.add_argument("--rounds", type=int, default=6, help="round pairs to time")
    ap.add_argument("--rtol", type=float, default=None,
                    help="compare quotes and paths numerically at this relative tolerance")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "bench"))

    trees = {"old": load_tree(args.old_src, "lb_old"), "new": load_tree(args.new_src, "lb_new")}
    with tempfile.TemporaryDirectory() as tmp:
        return compare(trees, args, Path(tmp))


def compare(trees, args, tmp: Path) -> int:
    """Check that the trees agree on one round, then time alternating rounds (quotes
    requests read their scenario files from ``tmp``)."""
    ops = {}
    for side, lb in trees.items():
        (tmp / side).mkdir()
        ops[side] = round_ops(lb, args.workload, args.seed, tmp / side)

    worst, tol = 0.0, TOL if args.workload == "surface" else args.rtol
    for a, b in zip(ops["old"], ops["new"]):
        x, y = np.asarray(a.run()), np.asarray(b.run())
        if args.workload == "quotes":
            rx, ry = reply(a.info), reply(b.info)
            if tol is not None and x == y and (rx is None) == (ry is None):
                gap = json_gap(json.loads(rx), json.loads(ry)) if rx is not None else 0.0
            elif x != y or rx != ry:
                print(f"{a.name}: trees differ (exit {x} against {y}, or the reply files)")
                return 1
            else:
                continue
        elif args.workload == "paths" and tol is None:
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                print(f"{a.name}: trees differ (paths must agree bit for bit)")
                return 1
            continue
        else:
            floor = 1e-300 if a.info.get("fn") == "psi_total_many" else 1.0
            gap = float(np.max(np.abs(x - y) / np.maximum(np.abs(x), floor))) if x.shape == y.shape else math.inf
        worst = max(worst, gap)
        if not gap <= tol:
            print(f"{a.name}: trees differ by {gap:.3e} relative (tolerance {tol:g})")
            return 1
    print(f"all {len(ops['old'])} {args.workload} ops agree; "
          + ("bit for bit" if tol is None else f"worst relative gap {worst:.3e}"))

    per_op = {side: [] for side in ops}
    pairs = []
    for i in range(args.rounds):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        whole = {}
        for side in order:
            times = timed_round(ops[side])
            per_op[side].append(times)
            whole[side] = sum(times)
        pairs.append(whole["old"] / whole["new"])
        print(f"pair {i + 1}: old {whole['old']:.3f} s, new {whole['new']:.3f} s, "
              f"ratio {pairs[-1]:.3f}")

    print(f"\n{'op':<40} {'old ms':>9} {'new ms':>9} {'ratio':>7}")
    for k, op in enumerate(ops["old"]):
        old = statistics.median(r[k] for r in per_op["old"])
        new = statistics.median(r[k] for r in per_op["new"])
        print(f"{op.name:<40} {old * 1e3:9.3f} {new * 1e3:9.3f} {old / new:7.3f}")
    print(f"\npair ratios: min {min(pairs):.3f}, median {statistics.median(pairs):.3f}, "
          f"max {max(pairs):.3f}")
    p50 = {side: statistics.median(t for r in per_op[side] for t in r) * 1e3 for side in per_op}
    print(f"p50 per op call: old {p50['old']:.3f} ms, new {p50['new']:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
