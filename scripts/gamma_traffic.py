"""Gamma terminal-first calls with and without reuse of their (m dt, m (T - t)) pairs.

    PYTHONPATH=src python3 scripts/gamma_traffic.py [--repeats 3]

The gamma bridge step reads its beta quantile off a table per pair
(`numerics._beta_inverse`), built on first use and cached, so its cost
depends on whether a call's pairs come back in the same process. Each case
runs in a new interpreter (the first call pays for every table it needs):
- fresh n: the first `simulate_paths(checks.gamma_scaled(), grid, n, seed)`
  on the paths bench's 10-point grid, then the median of 15 more calls;
- long grid: a 200-point grid at 300 paths, first call and the median of 5
  more (every step is a new pair);
- new grid: the median call at 100 paths when every call has a new random
  10-point grid (no reuse at all);
- one path: `bridge.sample_path` on a gamma bridge and a 9-point grid, one
  path per call, first call and the median of 200 more.
It prints milliseconds per case as medians over ``--repeats`` interpreters.
Run it on two commits to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

CASES = (("fresh", 1), ("fresh", 2000), ("long grid", 300), ("new grid", 100), ("one path", 1))


def ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - start)


def run_case(case: str, n: int) -> dict:
    import numpy as np

    from levybridge import bridge, checks, sampler

    spec = checks.gamma_scaled()
    if case == "fresh":
        grid = np.linspace(0.1, 1.0, 10)
        first = ms(lambda: sampler.simulate_paths(spec, grid, n, 5))
        later = [ms(lambda: sampler.simulate_paths(spec, grid, n, 6)) for _ in range(15)]
    elif case == "long grid":
        grid = np.linspace(0.005, 1.0, 200)
        first = ms(lambda: sampler.simulate_paths(spec, grid, n, 5))
        later = [ms(lambda: sampler.simulate_paths(spec, grid, n, 6)) for _ in range(5)]
    elif case == "new grid":
        rng = np.random.default_rng(1)
        grids = [np.append(np.sort(rng.uniform(0.01, 0.99, 9)), 1.0) for _ in range(21)]
        first = ms(lambda: sampler.simulate_paths(spec, grids[0], n, 5))
        later = [ms(lambda g=g: sampler.simulate_paths(spec, g, n, 6)) for g in grids[1:]]
    else:
        pin = bridge.BridgeSpec(kernel=spec.kernel, end_time=1.0, end_value=3.0)
        grid, rng = np.linspace(0.1, 0.9, 9), np.random.default_rng(2)
        first = ms(lambda: bridge.sample_path(pin, grid, rng))
        later = [ms(lambda: bridge.sample_path(pin, grid, rng)) for _ in range(200)]
    return {"first_ms": first, "later_ms": statistics.median(later)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--case", nargs=2, help=argparse.SUPPRESS)  # one case, in this process
    args = ap.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args.case[0], int(args.case[1]))))
        return 0
    print(f"{'case':>10} {'n':>5} {'first ms':>9} {'later ms':>9}")
    for case, n in CASES:
        runs = [json.loads(subprocess.run(
            [sys.executable, __file__, "--case", case, str(n)],
            check=True, capture_output=True, text=True).stdout) for _ in range(args.repeats)]
        first, later = (statistics.median(r[k] for r in runs) for k in ("first_ms", "later_ms"))
        print(f"{case:>10} {n:5d} {first:9.2f} {later:9.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
