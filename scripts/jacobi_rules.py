"""Gauss-Jacobi rules against a 40-digit reference.

    PYTHONPATH=src python3 scripts/jacobi_rules.py [--orders 32,48]

For each order n and exponent beta in {-0.99, -0.8, 0, 0.8} of the weight
(1 + x)^beta on [-1, 1], two double rules are compared with a 40-digit one:
- `numerics._jacobi_rule`: eigvalsh nodes, three Newton steps and
  Christoffel weights, in numpy's long double;
- Golub-Welsch by `numpy.linalg.eigh`: nodes are the eigenvalues, weights
  the squared first components of the eigenvectors.
The reference, `jacobi_rule_mp` of tests/quad_reference.py, takes each
library node to 40 digits by Newton's method on the orthonormal recurrence
and its weight as 1 / sum_{k<n} p_k(x)^2 there.
Printed per (n, beta): the largest relative error of each rule's nodes and
weights, and the seconds the reference took. The default orders, 32 and
48, are the only ones the engine builds; the reference takes 0.1-0.4 s per
(n, beta) on 2 vCPUs. Higher orders can be given (n = 512 takes about 20 s
per beta).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

from levybridge import numerics

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import quad_reference  # noqa: E402

BETAS = (-0.99, -0.8, 0.0, 0.8)


def golub_welsch(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta**2 / (s * (s + 2.0))))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2


def worst(got, want) -> float:
    with mpmath.workdps(40):
        return max(float(abs((mpmath.mpf(float(g)) - w) / w)) for g, w in zip(got, want))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--orders", default="32,48")
    args = ap.parse_args(argv)
    print(f"{'n':>4} {'beta':>6} {'nodes lib':>10} {'nodes eigh':>10} "
          f"{'wts lib':>10} {'wts eigh':>10} {'ref s':>6}")
    for n in (int(v) for v in args.orders.split(",")):
        for beta in BETAS:
            x, w = numerics._jacobi_rule(n, beta)
            xg, wg = golub_welsch(n, beta)
            start = time.perf_counter()
            xm, wm, _ = quad_reference.jacobi_rule_mp(n, beta, x)
            print(f"{n:4d} {beta:6.2f} {worst(x, xm):10.2e} {worst(xg, xm):10.2e} "
                  f"{worst(w, wm):10.2e} {worst(wg, wm):10.2e} {time.perf_counter() - start:6.1f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
