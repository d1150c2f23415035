"""Compare the two path samplers on a shared marginal grid.

The terminal-first route draws the endpoint and fills the interior with
bridge increments; the markov route never sees the endpoint and steps
through the one-step transition law. Both target the same marginals, so
a two-sample KS test at each grid time is a cheap end-to-end consistency
check that exercises the bridge laws and the posterior machinery at once.
"""

import argparse

import numpy as np
from scipy import stats

from levybridge import (
    BrownianKernel,
    GammaKernel,
    LRBSpec,
    TerminalLaw,
    simulate_paths,
)


def scenarios():
    mixture = TerminalLaw.normal(0.5, 0.4, weight=0.7, atoms=((-0.5, 0.3),))
    yield "brownian, normal+atom terminal", LRBSpec(BrownianKernel(), 1.0, mixture)
    gamma_law = TerminalLaw.gamma(3.0, 0.5)
    yield "gamma(m=2), gamma terminal", LRBSpec(GammaKernel(2.0), 1.0, gamma_law)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=400, help="paths per route")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--alpha", type=float, default=0.01, help="flag level for KS p-values")
    args = ap.parse_args()

    times = [0.25, 0.5, 0.75]
    worst = 1.0
    for label, spec in scenarios():
        a = simulate_paths(spec, times, args.paths, args.seed)
        b = simulate_paths(spec, times, args.paths, args.seed + 1, method="markov")
        print(f"\n{label}  ({args.paths} paths per route)")
        print(f"  {'time':>5}  {'ks stat':>8}  {'p-value':>8}  {'mean tf':>9}  {'mean mk':>9}")
        for j, t in enumerate(times):
            ks = stats.ks_2samp(a[:, j], b[:, j], method="asymp")
            flag = "  <-- differs" if ks.pvalue < args.alpha else ""
            print(
                f"  {t:5.2f}  {ks.statistic:8.4f}  {ks.pvalue:8.4f}"
                f"  {a[:, j].mean():9.4f}  {b[:, j].mean():9.4f}{flag}"
            )
            worst = min(worst, float(ks.pvalue))

    print(f"\nsmallest p-value: {worst:.4f} (flag level {args.alpha})")
    return 0 if worst >= args.alpha else 1


if __name__ == "__main__":
    raise SystemExit(main())
