"""QUADPACK references: the tilted sums behind psi and posterior moments,
and a bridge path drawn by numeric inversion of its transition CDF.

The library evaluates every posterior functional with one batched engine,
`core._tilted_sums`. This module computes the same sums,

    sum/integral of z^q f(T-t, z - xi) / f(T, z) nu(dz),

one state at a time with scipy's adaptive quadrature. It shares no code with
the engine: no node sharing, no localisation probe, no Gauss-Jacobi rule.
The tolerance is relative only, so far-tail values keep their digits.

`sample_path_inverse_cdf` is the generic counterpart of the kernels' exact
bridge steps (`bridge.sample_step`): each draw inverts the integral of the
bridge transition density, or the cumulative lattice masses.

`jacobi_rule_mp` is a 40-digit Gauss-Jacobi rule for checking the engine's
double rules (`numerics._jacobi_rule`).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

from levybridge import bridge, checks, numerics
from levybridge.kernels import GammaKernel
from levybridge.paths import SamplePath


def tilted_sum(spec, t: float, xi: float, q: int = 0, rel_tol: float = 1e-12) -> float:
    """The order-q tilted sum at state xi at time t (0 < t < horizon)."""
    k, T = spec.kernel, spec.horizon
    total = 0.0
    for z, w in spec.terminal.atoms:
        if k.discrete:
            step = k.log_mass(T - t, int(z - xi)) - k.log_mass(T, int(z))
        else:
            step = k.log_density(T - t, z - xi) - k.log_density(T, z)
        total += w * z**q * math.exp(step)
    d = spec.terminal.density
    if d is None:
        return total

    def f(z, singular=0.0):
        """z^q f(T-t, z - xi) / f(T, z) p(z), divided by (z - xi)^singular."""
        p = float(d.pdf(z))
        base = k.log_density(T, z)
        if p <= 0.0 or not math.isfinite(base):
            return 0.0
        w = max(z - xi, 1e-300) if singular else z - xi
        lw = k.log_density(T - t, w) - base + math.log(p)
        return z**q * math.exp(lw - singular * math.log(w) if singular else lw)

    lo = d.lower
    if isinstance(k, GammaKernel) and xi > lo:
        # the weight carries (z - xi)^(a - 1) at z = xi: integrate it exactly
        # (QUADPACK's algebraic-weight rule) on a first unit segment
        lo = min(xi + 1.0, d.upper)
        a = k.m * (T - t)
        total += integrate.quad(
            f, xi, lo, args=(a - 1.0,), weight="alg", wvar=(a - 1.0, 0.0),
            epsabs=0.0, epsrel=rel_tol, limit=400,
        )[0]
    split = []
    if not k.nondecreasing:
        # the Brownian weight is a normal in z centred at xi T / t; the
        # integrand lives between there and the priors of the tests (near
        # 0), so a grid of finite pieces keeps QUADPACK from stepping over it
        centre, sd = xi * T / t, math.sqrt(T * (T - t) / t)
        split = np.linspace(min(0.0, centre) - 10 * sd, max(0.0, centre) + 10 * sd, 61)
    inner = sorted(p for p in (*d.breakpoints, *split) if lo < p < d.upper)
    edges = [lo, *inner, d.upper]
    pieces = list(zip(edges[:-1], edges[1:]))
    # pieces far from the mass would chase their own relative error into
    # roundoff; a rough first pass sets them an absolute share of rel_tol
    rough = sum(integrate.quad(f, a, b, epsabs=1e-300, epsrel=1e-6)[0] for a, b in pieces)
    floor = 1e-3 * rel_tol * abs(rough) / len(pieces)
    for a, b in pieces:
        total += integrate.quad(f, a, b, epsabs=floor, epsrel=rel_tol, limit=400)[0]
    return total


def psi(spec, t: float, xi: float) -> float:
    return tilted_sum(spec, t, xi, 0)


def posterior_mean(spec, t: float, xi: float) -> float:
    return tilted_sum(spec, t, xi, 1) / tilted_sum(spec, t, xi, 0)


def _bridge_step_inverse_cdf(pin, t: float, rng) -> float:
    """One draw of the bridge state at t by numeric inversion of its CDF."""
    u = float(rng.uniform())
    if pin.kernel.discrete:
        pts = np.arange(int(pin.end_value - pin.start_value) + 1) + int(pin.start_value)
        cum = np.cumsum(np.asarray(bridge.transition_mass(pin, t, pts), dtype=float))
        cum /= cum[-1]
        return float(pts[int(np.searchsorted(cum, u, side="left"))])
    lo, hi = checks._bridge_interval(pin, t)
    pdf = lambda y: float(bridge.transition_density(pin, t, y))
    return numerics.inverse_cdf(pdf, lo, hi, u, tol=1e-10)


def sample_path_inverse_cdf(pin, times, rng) -> SamplePath:
    """`bridge.sample_path` with every step drawn by `_bridge_step_inverse_cdf`."""
    times = np.asarray(times, dtype=float)
    values = np.empty_like(times)
    cur_t, cur_x = pin.start_time, pin.start_value
    for k, t in enumerate(times):
        if t == pin.end_time:
            values[k] = pin.end_value
        else:
            step = bridge.BridgeSpec(pin.kernel, pin.end_time, pin.end_value, cur_t, cur_x)
            values[k] = _bridge_step_inverse_cdf(step, t, rng)
        cur_t, cur_x = t, values[k]
    return SamplePath(times=times, values=values)


def jacobi_rule_mp(n: int, beta: float, start) -> tuple[list, list, mpmath.mpf]:
    """The n-point Gauss rule for (1 + x)^beta on [-1, 1] in 40 digits.

    Each node is the root of the degree-n orthonormal Jacobi polynomial that
    two Newton steps reach from its ``start`` value; each weight is the
    Christoffel number 1 / sum_{k<n} p_k(x)^2 there. Returns the nodes, the
    weights and the weight's mass 2^(beta+1) / (beta+1), which the weights
    of n distinct roots sum to.
    """
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        diag = [b / (b + 2)] + [b**2 / ((2 * k + b) * (2 * k + b + 2)) for k in range(1, n)]
        off = [0] + [2 * k * (k + b) / ((2 * k + b) * mpmath.sqrt((2 * k + b + 1) * (2 * k + b - 1)))
                     for k in range(1, n)] + [1]
        nodes, weights = [], []
        for x in map(mpmath.mpf, start):
            for step in range(3):
                p0, p1, d0, d1, total = 0, mpmath.sqrt((b + 1) / 2 ** (b + 1)), 0, 0, 0
                for j in range(n):
                    total += p1 * p1
                    u = x - diag[j]
                    p0, p1, d0, d1 = (p1, (u * p1 - off[j] * p0) / off[j + 1],
                                      d1, (p1 + u * d1 - off[j] * d0) / off[j + 1])
                if step < 2:
                    x -= p1 / d1
            nodes.append(x)
            weights.append(1 / total)
        return nodes, weights, 2 ** (b + 1) / (b + 1)
