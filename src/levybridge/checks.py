"""Coherence checks pairing closed forms against independent numeric routes.

Each check returns a CheckResult whose statistic is a normalized margin:
every sub-assertion contributes (observed error) / (its tolerance), the
statistic is the worst of these, and the check passes when it is <= 1.
Monte Carlo checks use fixed substream seeds so the suite is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _sci_integrate
from scipy import special as _sp
from scipy import stats as _sci_stats

from . import bridge as _bridge
from . import core as _core
from . import numerics
from . import pricing as _pricing
from . import sampler as _sampler
from .kernels import BrownianKernel, GammaKernel, PoissonKernel
from .laws import TerminalLaw

__all__ = ["CheckResult", "CHECKS", "run_checks", "ks_critical_value"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""
    elapsed: float = 0.0
    parts: tuple[tuple[str, float], ...] = field(default=(), repr=False)


def _verdict(name: str, margins: dict[str, float], detail: str = "") -> CheckResult:
    worst = max(margins.values())
    return CheckResult(
        name=name,
        statistic=worst,
        threshold=1.0,
        passed=bool(worst <= 1.0),
        detail=detail,
        parts=tuple(sorted(margins.items(), key=lambda kv: -kv[1])),
    )


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# shared scenarios


def brownian_binary() -> _core.LRBSpec:
    return _core.LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.binary(0.0, 1.0, 0.5)
    )


def brownian_drift(theta: float = 0.5) -> _core.LRBSpec:
    return _core.LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.normal(theta, 1.0)
    )


def brownian_mixed() -> _core.LRBSpec:
    law = TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),))
    return _core.LRBSpec(kernel=BrownianKernel(), horizon=1.0, terminal=law)


def gamma_scaled(m: float = 2.0, kappa: float = 1.5) -> _core.LRBSpec:
    return _core.LRBSpec(
        kernel=GammaKernel(m), horizon=1.0, terminal=TerminalLaw.gamma(m, kappa)
    )


def gamma_atomic() -> _core.LRBSpec:
    return _core.LRBSpec(
        kernel=GammaKernel(2.0),
        horizon=1.0,
        terminal=TerminalLaw.from_atoms(((1.0, 0.5), (2.5, 0.5))),
    )


GAMMA_PRICING_M, GAMMA_PRICING_KAPPA = 3.0, 1.3


def gamma_pricing() -> _core.LRBSpec:
    m, kappa = GAMMA_PRICING_M, GAMMA_PRICING_KAPPA
    return _core.LRBSpec(kernel=GammaKernel(m), horizon=1.0, terminal=TerminalLaw.gamma(m, kappa))


def poisson_atomic() -> _core.LRBSpec:
    return _core.LRBSpec(
        kernel=PoissonKernel(1.0),
        horizon=1.0,
        terminal=TerminalLaw.from_atoms(((0.0, 0.3), (2.0, 0.4), (5.0, 0.3))),
    )


def _rng(seed: int, sub: int) -> np.random.Generator:
    return _sampler.RandomStream(seed, sub).generator()


def _seed(seed: int, sub: int) -> int:
    """The `simulate_paths` seed of substream ``sub``: one draw from its Generator."""
    return int(_rng(seed, sub).integers(2**64, dtype=np.uint64))


# ---------------------------------------------------------------------------
# reference routes: the bridge CDF and the call price by quadrature of the
# bridge density, independent of the kernels' exact CDFs


def _bridge_interval(pin: _bridge.BridgeSpec, t: float) -> tuple[float, float]:
    """Interval carrying (essentially) all bridge mass at time t (Brownian or subordinator)."""
    dt, rem = t - pin.start_time, pin.end_time - t
    x, z = pin.start_value, pin.end_value
    if isinstance(pin.kernel, BrownianKernel):
        mean = x + dt / (dt + rem) * (z - x)
        sd = math.sqrt(dt * rem / (dt + rem))
        return mean - 13.5 * sd, mean + 13.5 * sd
    return min(x, z), max(x, z)


def _quadrature_bridge_cdf(pin: _bridge.BridgeSpec, t: float, y: float) -> float:
    """P[bridge state at t <= y]: the bridge masses summed, or its density integrated.

    Continuous bridges take y = -inf or +inf.
    """
    x, z = pin.start_value, pin.end_value
    if pin.kernel.discrete:
        j = int(math.floor(float(y) - x))
        if j < 0:
            return 0.0
        pts = np.arange(0, min(j, int(z - x)) + 1) + int(x)
        return float(np.sum(_bridge.transition_mass(pin, t, pts)))
    lo, hi = _bridge_interval(pin, t)
    y = float(y)
    if y <= lo:
        return 0.0
    if y >= hi:
        return 1.0
    val, _ = numerics._quad_segment(
        lambda v: float(_bridge.transition_density(pin, t, v)), lo, y, 1e-12, 1e-11
    )
    return min(max(val, 0.0), 1.0)


def _quadrature_call_price(spec, curve, call, boundary) -> float:
    """`pricing.call_price` with every exceedance weight from `_quadrature_bridge_cdf`."""
    if boundary.kind == "empty":
        return 0.0
    s, t = call.valuation_time, call.maturity
    df_t = curve.discount(t, spec.horizon)
    if boundary.kind == "all":
        pieces = ((-math.inf, math.inf),)
    elif boundary.kind == "threshold":
        pieces = ((boundary.threshold, math.inf),)
    else:
        pieces = boundary.intervals

    def discounted_exercise_payoff(z: float) -> float:
        pin = _bridge.BridgeSpec(spec.kernel, spec.horizon, float(z), s, call.xi)
        weight = sum(
            _quadrature_bridge_cdf(pin, t, b) - _quadrature_bridge_cdf(pin, t, a) for a, b in pieces
        )
        return (df_t * z - call.strike) * weight

    post = _core.terminal_posterior(spec, s, call.xi)
    return curve.discount(s, t) * numerics.integrate(post, discounted_exercise_payoff)


# ---------------------------------------------------------------------------
# 1. bridge density normalization


def check_normalization(seed: int = 0) -> CheckResult:
    margins = {}
    cases = [
        (BrownianKernel(), (-1.0, -0.5, 0.0, 0.5, 1.0)),
        (GammaKernel(2.0), (0.5, 1.0, 2.0, 3.0, 5.0)),
    ]
    for kernel, pins in cases:
        for t in (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6):
            for z in pins:
                pin = _bridge.BridgeSpec(kernel=kernel, end_time=1.0, end_value=z)
                lo, hi = _bridge_interval(pin, t)
                mass, _ = _sci_integrate.quad(
                    lambda y: float(_bridge.transition_density(pin, t, y)),
                    lo,
                    hi,
                    limit=400,
                )
                key = f"{type(kernel).__name__} t={t:.3f} z={z}"
                margins[key] = abs(mass - 1.0) / 1e-8
    return _verdict("normalization", margins, "quadrature mass of bridge densities vs 1")


# ---------------------------------------------------------------------------
# 2. Chapman-Kolmogorov convolution identities


def check_chapman_kolmogorov(seed: int = 0) -> CheckResult:
    margins = {}
    bk = BrownianKernel()
    a, b = 0.4, 0.6
    for y in np.linspace(-3.0, 3.0, 13):
        conv, _ = _sci_integrate.quad(
            lambda x: float(bk.density(a, x)) * float(bk.density(b, y - x)),
            y / 2 - 12.0,
            y / 2 + 12.0,
            limit=400,
        )
        margins[f"brownian y={y:.2f}"] = abs(conv - float(bk.density(a + b, y))) / 1e-6
    gk = GammaKernel(2.0)
    for y in np.linspace(0.2, 4.0, 13):
        conv, _ = _sci_integrate.quad(
            lambda x: float(gk.density(a, x)) * float(gk.density(b, y - x)),
            0.0,
            float(y),
            limit=400,
        )
        margins[f"gamma y={y:.2f}"] = abs(conv - float(gk.density(a + b, y))) / 1e-6
    pk = PoissonKernel(1.0)
    i = np.arange(0, 40)
    qa = np.asarray(pk.mass(a, i))
    qb = np.asarray(pk.mass(b, i))
    conv_all = np.convolve(qa, qb)
    for j in range(13):
        margins[f"poisson j={j}"] = abs(conv_all[j] - float(pk.mass(a + b, j))) / 1e-12
    return _verdict(
        "chapman_kolmogorov", margins, "kernel convolution vs the longer-step kernel"
    )


# ---------------------------------------------------------------------------
# 3. the aggregate weight is a unit-mean martingale under the plain law


def check_psi_martingale(seed: int = 101) -> CheckResult:
    margins = {}
    n = 100_000
    t = 0.5
    for tag, spec, sub in (
        ("brownian mixed", brownian_mixed(), 0),
        ("gamma scaled", gamma_scaled(), 1),
    ):
        rng = _rng(seed, sub)
        xi = np.asarray(spec.kernel.sample(rng, t, size=n), dtype=float)
        psi = _core.psi_total_many(spec, t, xi)
        se = float(np.std(psi, ddof=1)) / math.sqrt(n)
        margins[tag] = abs(float(np.mean(psi)) - 1.0) / (3.0 * se)
    return _verdict(
        "psi_martingale", margins, "plain-law MC mean of the aggregate weight vs 1"
    )


# ---------------------------------------------------------------------------
# 4. conditioning a kernel on its own time-T law returns the plain process


def check_levy_recovery(seed: int = 202) -> CheckResult:
    margins = {}
    n = 10_000
    theta = 0.5

    spec_b = brownian_drift(theta)
    vals = _sampler.simulate_paths(spec_b, [0.5], n, _seed(seed, 0))[:, 0]
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    margins["brownian mean@0.5"] = abs(float(np.mean(vals)) - theta * 0.5) / (3.0 * se)
    margins["brownian var@0.5"] = abs(float(np.var(vals, ddof=1)) - 0.5) / (0.05 * 0.5)

    m, kappa = 2.0, 1.5
    spec_g = gamma_scaled(m, kappa)
    vals = _sampler.simulate_paths(spec_g, [0.5], n, _seed(seed, 1))[:, 0]
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    margins["gamma mean@0.5"] = abs(float(np.mean(vals)) - kappa * m * 0.5) / (3.0 * se)

    for t in np.linspace(0.05, 0.95, 10):
        for y in np.linspace(-2.0, 2.0, 10):
            closed = math.exp(theta * y - 0.5 * theta * theta * t)
            got = _core.psi_total(spec_b, float(t), float(y))
            margins[f"brownian psi t={t:.2f} y={y:.2f}"] = abs(got / closed - 1.0) / 1e-9
        for y in np.linspace(0.1, 3.0, 10):
            closed = kappa ** (-m * t) * math.exp((1.0 - 1.0 / kappa) * y)
            got = _core.psi_total(spec_g, float(t), float(y))
            margins[f"gamma psi t={t:.2f} y={y:.2f}"] = abs(got / closed - 1.0) / 1e-9
    return _verdict(
        "levy_recovery",
        margins,
        "self-conjugate terminal laws reproduce the plain process and closed-form weights",
    )


# ---------------------------------------------------------------------------
# 5. increments over equal windows share one law


def check_stationary_increments(seed: int = 303) -> CheckResult:
    margins = {}
    n = 10_000
    crit = ks_critical_value(n, n)
    for tag, make, sub in (("brownian binary", brownian_binary, 0), ("gamma atoms", gamma_atomic, 2)):
        spec = make()
        early = _sampler.simulate_paths(spec, [0.1, 0.3], n, _seed(seed, sub))
        late = _sampler.simulate_paths(spec, [0.4, 0.6], n, _seed(seed, sub + 1))
        d_early = early[:, 1] - early[:, 0]
        d_late = late[:, 1] - late[:, 0]
        stat = float(_sci_stats.ks_2samp(d_early, d_late, method="asymp").statistic)
        margins[tag] = stat / crit
    return _verdict(
        "stationary_increments",
        margins,
        f"two-sample KS vs the 1% critical value {crit:.5f}",
    )


# ---------------------------------------------------------------------------
# 6. unconditional means interpolate linearly to the terminal mean


def check_expectation_interpolation(seed: int = 404) -> CheckResult:
    margins = {}
    n = 20_000
    spec = brownian_binary()
    times = (0.25, 0.5, 0.75)
    vals = _sampler.simulate_paths(spec, times, n, _seed(seed, 0))
    for j, t in enumerate(times):
        se = float(np.std(vals[:, j], ddof=1)) / math.sqrt(n)
        margins[f"t={t}"] = abs(float(np.mean(vals[:, j])) - t * 0.5) / (3.0 * se)
    return _verdict(
        "expectation_interpolation", margins, "MC mean vs (t/T) * terminal mean"
    )


# ---------------------------------------------------------------------------
# 7. increment reordering against a brute-force Bayes quotient


def check_liouville_reordering(seed: int = 505) -> CheckResult:
    spec = _core.LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.normal(0.5, 0.8)
    )
    alphas = (0.3, 0.45, 0.25)
    rng = _rng(seed, 0)
    margins = {}
    for i in range(10):
        y1 = float(rng.normal(0.15, math.sqrt(0.3)))
        marginal, _ = _sci_integrate.quad(
            lambda w: _core.increment_joint_density(spec, (0.3, 0.7), (y1, w)),
            y1 - 20.0,
            y1 + 20.0,
            limit=400,
        )
        for j in range(10):
            y2 = float(rng.normal(0.225, math.sqrt(0.45)))
            y3 = float(rng.normal(0.125, math.sqrt(0.25)))
            joint = _core.increment_joint_density(spec, alphas, (y1, y2, y3))
            direct = _core.reordered_increment_conditional(
                spec, observed=((0.3, y1),), query=((0.45, y2), (0.25, y3))
            )
            margins[f"point {i}.{j}"] = abs(direct - joint / marginal) / 1e-10
    return _verdict(
        "liouville_reordering",
        margins,
        "conditional increment density vs joint/marginal quotient",
    )


# ---------------------------------------------------------------------------
# 8. with zero rates the price process has constant expectation


def check_pricing_martingale(seed: int = 606) -> CheckResult:
    margins = {}
    n = 100_000
    times = (0.25, 0.5, 0.75)
    for tag, make, sub in (("binary", brownian_binary, 0), ("mixed", brownian_mixed, 1)):
        spec = make()
        x0 = spec.terminal.mean()
        vals = _sampler.simulate_paths(spec, times, n, _seed(seed, sub))
        for j, t in enumerate(times):
            x_t = _core.posterior_mean_many(spec, t, vals[:, j])
            se = float(np.std(x_t, ddof=1)) / math.sqrt(n)
            margins[f"{tag} t={t}"] = abs(float(np.mean(x_t)) - x0) / (3.0 * se)
    return _verdict(
        "pricing_martingale", margins, "MC mean of the time-t price vs the time-0 price"
    )


# ---------------------------------------------------------------------------
# 9. binary-bond call: closed form vs quadrature vs Monte Carlo

BINARY_CALL_CLOSED = 0.09573123063700656
BINARY_CALL_THRESHOLD = 0.25


def check_binary_option(seed: int = 707) -> CheckResult:
    margins = {}
    spec = brownian_binary()
    curve = _pricing.RateCurve.flat(0.0)
    call = _pricing.CallSpec(strike=0.5, maturity=0.5)
    boundary = _pricing.critical_information(spec, curve, call.maturity, call.strike)
    margins["threshold"] = abs(boundary.threshold - BINARY_CALL_THRESHOLD) / 1e-9
    closed = _pricing.call_price(spec, curve, call, boundary=boundary)
    margins["closed vs pinned"] = abs(closed - BINARY_CALL_CLOSED) / 1e-12
    quad = _quadrature_call_price(spec, curve, call, boundary)
    margins["quadrature vs closed"] = abs(quad - closed) / 1e-7

    n = 1_000_000
    xi = _sampler.simulate_paths(spec, [call.maturity], n, _seed(seed, 0))[:, 0]
    _, rho1 = _pricing.binary_bond_posterior(spec, call.maturity, xi)
    payoff = np.maximum(rho1 - call.strike, 0.0)
    se = float(np.std(payoff, ddof=1)) / math.sqrt(n)
    margins["mc vs closed"] = abs(float(np.mean(payoff)) - closed) / (3.0 * se)
    return _verdict(
        "binary_option",
        margins,
        f"closed {closed:.12g}, quadrature {quad:.12g}, mc mean {float(np.mean(payoff)):.12g}",
    )


# ---------------------------------------------------------------------------
# 10. gamma-kernel call: regularized-beta form vs the marginal closed form,
# quadrature and Monte Carlo


def check_gamma_option(seed: int = 808) -> CheckResult:
    margins = {}
    spec = gamma_pricing()
    curve = _pricing.RateCurve.flat(0.0)
    call = _pricing.CallSpec(strike=3.9, maturity=0.5)
    boundary = _pricing.critical_information(spec, curve, call.maturity, call.strike)
    closed = _pricing.call_price(spec, curve, call, boundary=boundary)
    quad = _quadrature_call_price(spec, curve, call, boundary)
    margins["quadrature vs closed"] = abs(quad - closed) / 1e-6
    # the terminal law is the kernel's own at the horizon, so xi_t is
    # Gamma(m t, kappa), the price is xi + m (T - t) kappa and the call is
    # a kappa Q(a + 1, x0 / kappa) - x0 Q(a, x0 / kappa), a = m t,
    # x0 = K - m (T - t) kappa
    m, kappa = GAMMA_PRICING_M, GAMMA_PRICING_KAPPA
    a, x0 = m * call.maturity, call.strike - m * (spec.horizon - call.maturity) * kappa
    marginal = float(a * kappa * _sp.gammaincc(a + 1.0, x0 / kappa) - x0 * _sp.gammaincc(a, x0 / kappa))
    margins["marginal closed form vs closed"] = abs(marginal - closed) / 1e-10

    n = 100_000
    xi = _sampler.simulate_paths(spec, [call.maturity], n, _seed(seed, 0))[:, 0]
    x_t = _core.posterior_mean_many(spec, call.maturity, xi)
    payoff = np.maximum(x_t - call.strike, 0.0)
    se = float(np.std(payoff, ddof=1)) / math.sqrt(n)
    margins["mc vs closed"] = abs(float(np.mean(payoff)) - closed) / (3.0 * se)
    return _verdict(
        "gamma_option",
        margins,
        f"closed {closed:.12g}, marginal closed form {marginal:.12g}, quadrature {quad:.12g}, "
        f"mc mean {float(np.mean(payoff)):.12g}",
    )


# ---------------------------------------------------------------------------
# 11. realized quadratic variation of the binary bond price vs SDE diffusion


def check_sde_quadratic_variation(seed: int = 909) -> CheckResult:
    spec = brownian_binary()
    n_paths, n_steps = 1000, 500
    dt = 1.0 / n_steps
    times = np.arange(1, n_steps) * dt
    vals = _sampler.simulate_paths(spec, times, n_paths, _seed(seed, 0))
    states = np.hstack([np.zeros((n_paths, 1)), vals])
    grid = np.concatenate([[0.0], times])
    prices = np.empty_like(states)
    diffusion = np.empty_like(states)
    for j, t in enumerate(grid):
        rho0, rho1 = _pricing.binary_bond_posterior(spec, float(t), states[:, j])
        prices[:, j] = rho1
        diffusion[:, j] = rho0 * rho1 / (1.0 - float(t))
    realized = float(np.sum(np.diff(prices, axis=1) ** 2))
    predicted = float(np.sum(diffusion[:, :-1] ** 2) * dt)
    slope = realized / predicted
    margins = {"slope": abs(slope - 1.0) / 0.05}
    return _verdict(
        "sde_quadratic_variation",
        margins,
        f"regression-through-origin slope {slope:.5f} on {n_paths} paths, dt={dt}",
    )


# ---------------------------------------------------------------------------
# 12. neither the worker count nor the batch changes simulated output


def check_determinism(seed: int = 1234) -> CheckResult:
    from . import cli as _cli

    spec = brownian_binary()
    times = np.linspace(0.1, 1.0, 10)
    one = _sampler.simulate_paths(spec, times, 64, seed, workers=1)
    many = _sampler.simulate_paths(spec, times, 64, seed, workers=4)
    same_vals = bool(np.array_equal(one, many))
    same_bytes = _cli.paths_to_csv(times, one) == _cli.paths_to_csv(times, many)
    margins = {"values": 0.0 if same_vals else 2.0, "csv bytes": 0.0 if same_bytes else 2.0}
    for method in ("terminal_first", "markov"):
        big = _sampler.simulate_paths(spec, times, 64, seed, method=method)
        small = _sampler.simulate_paths(spec, times, 16, seed, method=method)
        margins[f"first 16 of 64, {method}"] = 0.0 if np.array_equal(big[:16], small) else 2.0
    return _verdict(
        "determinism",
        margins,
        "1 worker vs 4 workers, and the first 16 of 64 paths vs 16 paths on both methods, "
        "fixed seed, 64 paths x 10 times",
    )


CHECKS = {
    "normalization": check_normalization,
    "chapman_kolmogorov": check_chapman_kolmogorov,
    "psi_martingale": check_psi_martingale,
    "levy_recovery": check_levy_recovery,
    "stationary_increments": check_stationary_increments,
    "expectation_interpolation": check_expectation_interpolation,
    "liouville_reordering": check_liouville_reordering,
    "pricing_martingale": check_pricing_martingale,
    "binary_option": check_binary_option,
    "gamma_option": check_gamma_option,
    "sde_quadratic_variation": check_sde_quadratic_variation,
    "determinism": check_determinism,
}


def run_checks(names=None, *, seed: int | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and time each one."""
    if names is None:
        names = list(CHECKS)
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        fn = CHECKS[name]
        start = time.perf_counter()
        res = fn() if seed is None else fn(seed)
        results.append(
            CheckResult(
                name=res.name,
                statistic=res.statistic,
                threshold=res.threshold,
                passed=res.passed,
                detail=res.detail,
                elapsed=time.perf_counter() - start,
                parts=res.parts,
            )
        )
    return results
