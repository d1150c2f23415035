# Call prices on a binary bond across strikes: root-based closed form,
# the checks' quadrature reference, and a Monte Carlo estimate with its
# standard error.
# Degenerate strikes at both ends show the "all" and "empty" exercise
# regions next to the interior "monotone" ones.

import numpy as np

from levybridge import (
    BrownianKernel,
    CallSpec,
    LRBSpec,
    RateCurve,
    TerminalLaw,
    call_price,
    checks,
    critical_information,
    price_many,
    simulate_paths,
)

HORIZON = 1.0
MATURITY = 0.5
RATE = 0.02
LOW, HIGH, LOW_PROB = 0.0, 1.0, 0.5
STRIKES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
N_MC = 200_000
SEED = 314159


def main():
    spec = LRBSpec(BrownianKernel(), HORIZON, TerminalLaw.binary(LOW, HIGH, LOW_PROB))
    curve = RateCurve.flat(RATE)

    xi = simulate_paths(spec, [MATURITY], N_MC, SEED)[:, 0]
    bond = price_many(spec, curve, MATURITY, xi)
    df0 = curve.discount(0.0, MATURITY)

    print(
        f"binary bond call: horizon {HORIZON}, maturity {MATURITY}, "
        f"flat rate {RATE}, terminal {{{LOW}: {LOW_PROB}, {HIGH}: {1 - LOW_PROB}}}"
    )
    print(f"Monte Carlo leg: {N_MC} paths, seed {SEED}\n")
    head = f"{'strike':>6}  {'region':>8}  {'threshold':>10}  {'closed':>12}  {'quadrature':>12}  {'mc':>12}  {'3*se':>9}  {'z':>6}"
    print(head)
    print("-" * len(head))

    for k in STRIKES:
        call = CallSpec(strike=k, maturity=MATURITY)
        boundary = critical_information(spec, curve, MATURITY, k)
        closed = call_price(spec, curve, call, boundary=boundary)
        quad = checks._quadrature_call_price(spec, curve, call, boundary)

        payoff = df0 * np.maximum(bond - k, 0.0)
        mc = float(payoff.mean())
        se = float(payoff.std(ddof=1)) / np.sqrt(N_MC)
        z = (mc - closed) / se if se > 0 else 0.0

        thr = f"{boundary.threshold:10.6f}" if boundary.threshold is not None else f"{'-':>10}"
        print(
            f"{k:6.2f}  {boundary.kind:>8}  {thr}  {closed:12.8f}  {quad:12.8f}"
            f"  {mc:12.8f}  {3 * se:9.6f}  {z:6.2f}"
        )

    print("\nz is the Monte Carlo deviation from the closed form in standard errors.")


if __name__ == "__main__":
    main()
