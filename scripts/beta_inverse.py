"""The inverse-beta table of the gamma bridge step against mpmath and scipy.

    PYTHONPATH=src python3 scripts/beta_inverse.py [--uniforms 200] [--repeats 20]

`numerics._beta_inverse(a, b, u)` reads x = I_{a,b}^{-1}(u) off a table per
(a, b), built from forward `betainc` calls and certified when it is built.
For (a, b) in {1e-3, 0.05, 0.2, 1, 2, 50}^2 and the nine pairs of the
terminal-first bench's gamma steps (a = 0.2, b = 2 (1 - t), t = 0.1 .. 0.9)
this prints:
- the table's size (breakpoints over both halves) and the seconds to build it;
- the largest relative error in min(x, 1 - x) against a 40-digit root
  (`quad_reference.beta_inverse_mp`) over u in {2^-53, 1 - 2^-53, I(1/2) and
  its neighbours, Philox uniforms}, less half an ulp of 1 past x = 1/2, and
  that error over its condition-number floor kappa * eps, where kappa is
  |d log min(x, 1 - x) / d log u| (of 1 - u past 1/2);
- the largest relative difference in min(x, 1 - x) from scipy's betaincinv
  on 2000 uniforms, less half an ulp of 1 past 1/2.
Then, for the nine bench pairs at 2000 draws each: milliseconds per round
of all nine with warm tables, with cold ones (the cache cleared first, so
the builds count) and with betaincinv, as medians of ``--repeats`` rounds.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
from scipy import special

from levybridge import numerics

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import quad_reference  # noqa: E402

GRID = (1e-3, 0.05, 0.2, 1.0, 2.0, 50.0)
BENCH = [(0.2, 2.0 * (1.0 - t)) for t in np.linspace(0.1, 0.9, 9)]
EPS = np.finfo(float).eps


def min_side_error(a, b, u, x) -> tuple[float, float]:
    """Largest relative error in min(x, 1 - x) against 40 digits, and over kappa eps."""
    with mpmath.workdps(40):
        split = mpmath.betainc(a, b, 0, 0.5, regularized=True)
        underflow = mpmath.betainc(a, b, 0, mpmath.mpf("2.3e-308"), regularized=True)
    worst = ratio = 0.0
    for ui, xi in zip(u, x):
        upper = mpmath.mpf(ui) > split
        if ui == 1.0 or (not upper and underflow >= ui):
            continue
        root = quad_reference.beta_inverse_mp(a, b, ui, xi, upper)
        with mpmath.workdps(40):
            x_root = 1 - root if upper else root
            dens = x_root ** (a - 1) * (1 - x_root) ** (b - 1) / mpmath.beta(a, b)
            kappa = float((1 - mpmath.mpf(ui) if upper else mpmath.mpf(ui)) / (root * dens))
            got = 1 - mpmath.mpf(xi) if upper else mpmath.mpf(xi)
            rel = float(max(abs(got - root) - (mpmath.mpf(2) ** -53 if upper else 0), 0) / root)
        worst, ratio = max(worst, rel), max(ratio, rel / (kappa * EPS) if kappa > 0 else 0.0)
    return worst, ratio


def scipy_difference(a, b, u) -> float:
    x, y = numerics._beta_inverse(a, b, u), special.betaincinv(a, b, u)
    side = np.minimum(y, 1.0 - y)
    diff = np.abs(x - y) - np.where(y > 0.5, 2.0**-53, 0.0)
    ok = side > 0.0
    return float(np.max(np.maximum(diff[ok], 0.0) / side[ok]))


def round_ms(fn, repeats: int, before=None) -> float:
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        for a, b in BENCH:
            fn(a, b)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--uniforms", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args(argv)
    bits = np.random.Philox(key=20261019).random_raw(args.uniforms)
    philox = ((bits >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
    draws = np.random.default_rng(20261019).uniform(size=2000)
    print(f"{'a':>6} {'b':>6} {'nodes':>6} {'build ms':>8} {'mpmath':>9} "
          f"{'/kappa eps':>10} {'betaincinv':>10}")
    for a, b in list(itertools.product(GRID, GRID)) + BENCH:
        numerics._beta_table.cache_clear()
        start = time.perf_counter()
        breaks, _ = numerics._beta_table(a, b)
        build = time.perf_counter() - start
        split = float(special.betainc(a, b, 0.5))
        u = np.concatenate([[2.0**-53, 1.0 - 2.0**-53, np.nextafter(split, 0.0), split,
                             np.nextafter(split, 2.0)], philox])
        u = np.sort(u[u <= 1.0])
        worst, ratio = min_side_error(a, b, u, numerics._beta_inverse(a, b, u))
        print(f"{a:6.3g} {b:6.3g} {breaks.size:6d} {1e3 * build:8.2f} {worst:9.2e} "
              f"{ratio:10.2f} {scipy_difference(a, b, draws):10.2e}", flush=True)
    numerics._beta_table.cache_clear()
    for a, b in BENCH:
        numerics._beta_inverse(a, b, draws)
    warm = round_ms(lambda a, b: numerics._beta_inverse(a, b, draws), args.repeats)
    cold = round_ms(lambda a, b: numerics._beta_inverse(a, b, draws), args.repeats,
                    numerics._beta_table.cache_clear)
    scipy_ms = round_ms(lambda a, b: special.betaincinv(a, b, draws), args.repeats)
    print(f"nine bench pairs x 2000 draws: table warm {warm:.2f} ms, cold {cold:.2f} ms, "
          f"betaincinv {scipy_ms:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
