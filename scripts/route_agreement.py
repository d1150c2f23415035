"""Compare the two path samplers on shared marginal grids, with their wall times.

The terminal-first route draws the endpoint and fills the interior with
bridge increments. The markov route steps forward: each step draws the
endpoint given the current state from the engine's posterior (psi, its atom
terms and windows) and takes the same exact bridge step toward it. Both
routes end in `bridge._inverse_step`, whose exact-CDF tests live in
tests/test_bridge.py, so a two-sample KS test at each grid time checks the
engine's posterior against the prior plus the bridge.

The scenarios include steps that a quantile grid in the forward kernel's
coordinate could not resolve: a gamma-kernel atom term with a pole once
m (T - t) < 1, an atom term 1e-3 wide next to the horizon, and gamma steps
close to the horizon whose bridge step toward an atom rounds onto it. Two Brownian scenarios
draw their posterior rows on each of `numerics.tabulated_quantiles`' maps: a uniform prior's
(linear panels) and a Gamma(2.5) prior's (tanh-sinh, for its edge). Each route's
wall time is printed beside its p-values, so large Markov calls can be
timed without the benchmark, e.g. `--paths 2000`.

    PYTHONPATH=src python scripts/route_agreement.py [--paths N] [--seed S]
"""

import argparse
import time

from scipy import stats

from levybridge import (
    BrownianKernel,
    GammaKernel,
    LRBSpec,
    LevyBridgeError,
    TerminalLaw,
    checks,
    simulate_paths,
)


def scenarios():
    grid = [0.25, 0.5, 0.75]
    mixture = TerminalLaw.normal(0.5, 0.4, weight=0.7, atoms=((-0.5, 0.3),))
    yield "brownian, normal+atom terminal", LRBSpec(BrownianKernel(), 1.0, mixture), grid
    gamma_law = TerminalLaw.gamma(3.0, 0.5)
    yield "gamma(m=2), gamma terminal", LRBSpec(GammaKernel(2.0), 1.0, gamma_law), grid
    yield "gamma(m=2), two atoms, m (T - t) = 0.5", checks.gamma_atomic(), [0.5, 0.75]
    yield "gamma(m=2), two atoms, steps that round onto them", checks.gamma_atomic(), [0.5, 0.99, 1.0]
    yield "brownian_mixed, a step to 1 - 1e-6", checks.brownian_mixed(), [0.5, 1.0 - 1e-6]
    gamma_edge = TerminalLaw.gamma(0.7, 1.0)
    yield "gamma(m=2), Gamma(0.7) terminal", LRBSpec(GammaKernel(2.0), 1.0, gamma_edge), grid
    # Brownian posterior rows on both quantile maps: linear panels cut at a uniform prior's
    # support, tanh-sinh beside a Gamma(2.5) prior's z^1.5 edge
    uniform = TerminalLaw.uniform(-1.0, 2.0)
    yield "brownian, uniform(-1, 2) terminal", LRBSpec(BrownianKernel(), 1.0, uniform), grid
    gamma_prior = TerminalLaw.gamma(2.5, 1.0)
    yield "brownian, Gamma(2.5) terminal", LRBSpec(BrownianKernel(), 1.0, gamma_prior), grid


def timed(spec, times, n, seed, method):
    start = time.perf_counter()
    out = simulate_paths(spec, times, n, seed, method=method)
    return out, time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=400, help="paths per route")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--alpha", type=float, default=0.01, help="flag level for KS p-values")
    args = ap.parse_args()

    worst, raised = 1.0, 0
    for label, spec, times in scenarios():
        print(f"\n{label}  ({args.paths} paths per route)")
        try:
            a, wall_a = timed(spec, times, args.paths, args.seed, "terminal_first")
            b, wall_b = timed(spec, times, args.paths, args.seed + 1, "markov")
        except LevyBridgeError as exc:
            print(f"  raises {type(exc).__name__}: {exc}")
            raised += 1
            continue
        print(f"  wall time: terminal-first {wall_a * 1e3:.1f} ms, markov {wall_b * 1e3:.1f} ms")
        print(f"  {'time':>9}  {'ks stat':>8}  {'p-value':>8}  {'mean tf':>9}  {'mean mk':>9}")
        for j, t in enumerate(times):
            ks = stats.ks_2samp(a[:, j], b[:, j], method="asymp")
            flag = "  <-- differs" if ks.pvalue < args.alpha else ""
            print(
                f"  {t:9.6g}  {ks.statistic:8.4f}  {ks.pvalue:8.4f}"
                f"  {a[:, j].mean():9.4f}  {b[:, j].mean():9.4f}{flag}"
            )
            worst = min(worst, float(ks.pvalue))

    print(f"\nsmallest p-value: {worst:.4f} (flag level {args.alpha}); scenarios that raise: {raised}")
    return 0 if worst >= args.alpha and not raised else 1


if __name__ == "__main__":
    raise SystemExit(main())
