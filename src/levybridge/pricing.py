"""Pricing of cash flows driven by a terminal-conditioned information process.

The price of a claim paying the terminal value X at the horizon is the
discounted conditional mean given the current information state. A European
call on that price reduces to an integral of bridge exceedance weights
against the current posterior of X, with the exercise region delimited by a
critical information level whenever the price is monotone in the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special as _sp

from . import core as _core
from . import numerics
from .errors import DomainError, NumericError, UnsupportedKernelError
from .kernels import BrownianKernel, GammaKernel
from .laws import TerminalLaw

__all__ = [
    "RateCurve",
    "CallSpec",
    "BinaryBondSpec",
    "ExerciseBoundary",
    "price",
    "price_many",
    "critical_information",
    "call_price",
    "binary_bond_posterior",
    "sde_coefficients",
]


@dataclass(frozen=True)
class RateCurve:
    """Deterministic piecewise-constant short rate.

    ``times`` are segment start points beginning at 0; ``rates[i]`` applies
    on [times[i], times[i+1]).
    """

    times: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        rates = tuple(float(r) for r in self.rates)
        if not all(map(math.isfinite, times)):
            raise DomainError(f"segment times must be finite, got {times}")
        if not times or times[0] != 0.0:
            raise DomainError("rate segments must start at time 0")
        if any(b <= a for a, b in zip(times[:-1], times[1:])):
            raise DomainError("segment times must be strictly increasing")
        if len(times) != len(rates):
            raise DomainError("times and rates must have equal length")
        if any(not math.isfinite(r) for r in rates):
            raise DomainError("rates must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rates", rates)

    @classmethod
    def flat(cls, r: float) -> "RateCurve":
        return cls(times=(0.0,), rates=(float(r),))

    def short_rate(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"time {t} is negative")
        idx = 0
        for i, start in enumerate(self.times):
            if start <= t:
                idx = i
        return self.rates[idx]

    def integral(self, s: float, t: float) -> float:
        """Integral of the short rate over [s, t]."""
        if not 0.0 <= s <= t:
            raise DomainError(f"need 0 <= s <= t, got [{s}, {t}]")
        edges = [*self.times, math.inf]
        total = 0.0
        for i, r in enumerate(self.rates):
            a, b = max(edges[i], s), min(edges[i + 1], t)
            if b > a:
                total += r * (b - a)
        return total

    def discount(self, s: float, t: float) -> float:
        """Discount factor from t back to s."""
        return math.exp(-self.integral(s, t))


@dataclass(frozen=True)
class CallSpec:
    """European call terms on the horizon cash flow's price process.

    ``xi`` is the information state observed at the valuation time.
    """

    strike: float
    maturity: float
    valuation_time: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not (self.strike >= 0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be finite and >= 0, got {self.strike}")
        if not 0.0 <= self.valuation_time < self.maturity:
            raise DomainError("need 0 <= valuation_time < maturity")
        if not math.isfinite(self.xi):
            raise DomainError("information state must be finite")


@dataclass(frozen=True)
class BinaryBondSpec:
    """Two-point cash flow: pays high or low at the horizon."""

    low: float
    high: float
    low_prob: float

    def __post_init__(self):
        if not self.low < self.high:
            raise DomainError("need low < high")
        if not 0.0 < self.low_prob < 1.0:
            raise DomainError("low_prob must be in (0, 1)")

    def terminal_law(self) -> TerminalLaw:
        return TerminalLaw.binary(self.low, self.high, self.low_prob)


@dataclass(frozen=True)
class ExerciseBoundary:
    """Exercise region of a call in information-state space.

    kind ``threshold`` means the region is (threshold, +inf); ``all`` and
    ``empty`` are the degenerate regions; ``intervals`` carries an explicit
    union of open intervals (endpoints may be infinite), produced when the
    price map is not monotone and set mode was requested. ``evaluations``
    counts the engine calls (`core.posterior_mean_many`) the solve made.
    """

    kind: str
    threshold: float | None = None
    intervals: tuple[tuple[float, float], ...] = ()
    evaluations: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# the price of the terminal cash flow


def price(spec: _core.LRBSpec, curve: RateCurve, t: float, xi: float) -> float:
    """Discounted conditional mean of the terminal cash flow at state (t, xi)."""
    t = spec._check_time(t)
    df = curve.discount(t, spec.horizon)
    return df * _core.conditional_moment(spec, t, xi, 1)


def price_many(spec: _core.LRBSpec, curve: RateCurve, t: float, xis) -> np.ndarray:
    """Vectorized `price` over an array of states."""
    t = spec._check_time(t)
    df = curve.discount(t, spec.horizon)
    return df * _core.posterior_mean_many(spec, t, xis)


# ---------------------------------------------------------------------------
# exercise boundary


def _reachable_interval(spec: _core.LRBSpec) -> tuple[float, float]:
    if isinstance(spec.kernel, BrownianKernel):
        return (-math.inf, math.inf)
    if spec.kernel.nondecreasing:
        _, hi = spec.terminal.support()
        return (0.0, hi)
    raise UnsupportedKernelError(
        f"no reachable-state rule for {type(spec.kernel).__name__}"
    )


def _toward(bound: float, x: float, up: bool) -> float:
    """Step x outward toward an open or infinite bound."""
    if math.isinf(bound):
        return 2.0 * x + 1.0 if up else 2.0 * x - 1.0
    return bound - 0.25 * (bound - x)


_WIDEN_STEPS = 120  # steps of `_toward` before a bracket end stays unsettled
_WIDEN_BATCH = 16  # most steps per engine call


def _widen(g_many, bound: float, x: float, gx: float, up: bool) -> tuple[float, float]:
    """Step a bracket end toward ``bound`` until g there is >= 0 (up) or <= 0 (down).

    The steps are those of `_toward`, one after another, at most
    _WIDEN_STEPS of them. Toward a finite bound each step closes a quarter
    of the gap, so the steps reach ``g_many`` in batches of 1, 2, 4, ... up
    to _WIDEN_BATCH points: a far end costs a dozen engine calls, not one
    per step, while an end settled by its first step costs one. Toward an
    infinite bound each step doubles x, and a batch would send the engine
    states far past the settled one, where its integrand can underflow, so
    those steps go one per call. Returns the first settled point and g
    there, or the last point tried.
    """
    sign = 1.0 if up else -1.0
    steps, batch = 0, 1
    widest = _WIDEN_BATCH if math.isfinite(bound) else 1
    while steps < _WIDEN_STEPS and not sign * gx >= 0.0:
        xs = []
        for _ in range(min(batch, _WIDEN_STEPS - steps)):
            xs.append(_toward(bound, xs[-1] if xs else x, up))
        vals = g_many(xs)
        hit = np.flatnonzero(sign * vals >= 0.0)
        k = int(hit[0]) if hit.size else len(xs) - 1
        x, gx = xs[k], float(vals[k])
        steps += len(xs)
        batch = min(2 * batch, widest)
    return x, gx


def _scan_range(spec: _core.LRBSpec, t: float, strike: float, df: float) -> tuple[float, float]:
    """Finite state interval outside which the price sign cannot change.

    Subordinator states fill (0, sup support); since the terminal value is
    at least the state there, the price is at least df * xi and the scan
    stops at 2 * strike / df. For the Brownian kernel the bounds scale the
    support's ends by t/T plus a bridge deviation allowance: past them the
    posterior is pinned to an edge of the terminal support, unless that
    side is unbounded, where the caller widens the range.
    """
    if spec.kernel.nondecreasing:
        b_lo, b_hi = _reachable_interval(spec)
        b_hi = min(b_hi, 2.0 * strike / df)
        inset = 1e-9 * (b_hi - b_lo)
        return b_lo + inset, b_hi - inset
    ends = [z for z, _ in spec.terminal.atoms]
    if spec.terminal.density is not None:
        ends += numerics.mass_interval(spec.terminal.density, 1e-16)
    frac = t / spec.horizon
    sd = math.sqrt(t * (spec.horizon - t) / spec.horizon)
    return frac * min(ends) - 14.0 * sd, frac * max(ends) + 14.0 * sd


_SAMPLES = 33  # monotonicity samples across the bracket of a threshold
_SCAN = 257  # sign samples across the scan range of set mode


def critical_information(
    spec: _core.LRBSpec,
    curve: RateCurve,
    t: float,
    strike: float,
    *,
    mode: str = "monotone",
) -> ExerciseBoundary:
    """Boundary of {xi : price(t, xi) > strike} in the information state.

    Every price evaluation is a batched `core.posterior_mean_many` call. In
    ``monotone`` mode one call takes the bracket ends and 33 samples between
    them, which must be nondecreasing (NonMonotoneError otherwise); an end
    whose sign is not yet settled is widened first, by `_widen`. The region
    is then a single threshold, polished by `numerics.solve_brackets` inside
    the straddling sample pair and checked by its residual. ``set`` mode drops
    the assumption: it scans the range in which the sign can change with
    257 samples in one call, polishes every crossing in one solver run and
    returns the union of intervals on which the price exceeds the strike.
    """
    if spec.kernel.discrete:
        raise UnsupportedKernelError("exercise boundaries need a continuous kernel")
    t = float(t)
    if not 0.0 < t < spec.horizon:
        raise DomainError(f"option maturity {t} must lie inside (0, {spec.horizon})")
    if mode not in ("monotone", "set"):
        raise DomainError(f"unknown mode {mode!r}")
    if not math.isfinite(strike):
        raise DomainError(f"strike must be finite, got {strike}")
    df = curve.discount(t, spec.horizon)
    z_lo, z_hi = spec.terminal.support()
    if strike <= df * z_lo:
        return ExerciseBoundary(kind="all")
    if strike >= df * z_hi:
        return ExerciseBoundary(kind="empty")
    calls = 0

    def g_many(xis) -> np.ndarray:
        nonlocal calls
        calls += 1
        return df * _core.posterior_mean_many(spec, t, np.asarray(xis, dtype=float)) - strike

    b_lo, b_hi = _reachable_interval(spec)
    if mode == "monotone":
        # interior starting bracket around the interpolated centre of the
        # terminal support, which always lies strictly inside the reachable
        # interval (a subordinator's terminal support starts at z_lo >= 0)
        if math.isfinite(z_hi):
            centre = 0.5 * (z_lo + z_hi) if math.isfinite(z_lo) else z_hi
        else:
            centre = z_lo + 1.0 if math.isfinite(z_lo) else 0.0
        mid = (t / spec.horizon) * centre
        lo = b_lo + 0.5 * (mid - b_lo) if math.isfinite(b_lo) else mid - max(1.0, abs(mid))
        hi = b_hi - 0.5 * (b_hi - mid) if math.isfinite(b_hi) else mid + max(1.0, abs(mid))
        xs = np.linspace(lo, hi, _SAMPLES)
        vals = g_many(xs)
        lo, g_lo = _widen(g_many, b_lo, lo, vals[0], up=False)
        hi, g_hi = _widen(g_many, b_hi, hi, vals[-1], up=True)
        if g_lo > 0.0:
            # under monotonicity a positive sign at the far low edge settles it
            return ExerciseBoundary(kind="all", evaluations=calls)
        if g_hi < 0.0:
            return ExerciseBoundary(kind="empty", evaluations=calls)
        if (lo, hi) != (xs[0], xs[-1]):
            xs = np.linspace(lo, hi, _SAMPLES)
            vals = g_many(xs)
        root, resid = numerics.sampled_root(g_many, xs, vals, tol=1e-13)
        if abs(resid) > 1e-10 * max(1.0, strike):
            raise NumericError(
                "critical information root residual too large",
                residual=abs(resid),
                threshold=root,
            )
        return ExerciseBoundary(kind="threshold", threshold=root, evaluations=calls)

    # set mode has no monotonicity to lean on: the price can exceed the
    # strike at both edges yet dip below in between, so the whole range in
    # which the sign is not yet settled is scanned, and edge pieces extend
    # to the reachable bounds. Toward an unbounded side of the terminal law the
    # price tends to +-inf: that end is widened to its limiting sign first
    lo, hi = _scan_range(spec, t, strike, df)
    xs = np.linspace(lo, hi, _SCAN)
    vals = g_many(xs)
    lo = _widen(g_many, b_lo, lo, vals[0], up=False)[0] if math.isinf(z_lo) else lo
    hi = _widen(g_many, b_hi, hi, vals[-1], up=True)[0] if math.isinf(z_hi) else hi
    if (lo, hi) != (xs[0], xs[-1]):
        xs = np.linspace(lo, hi, _SCAN)
        vals = g_many(xs)
    a, b, fa, fb = xs[:-1], xs[1:], vals[:-1], vals[1:]
    cross = (fa != 0.0) & ((fa < 0.0) != (fb < 0.0))
    roots = np.empty(0)
    if np.any(cross):
        roots, _ = numerics.solve_brackets(
            g_many, a[cross], b[cross], fa[cross], fb[cross], tol=1e-13
        )
    edges = np.concatenate([[lo], np.sort(np.concatenate([a[fa == 0.0], roots])), [hi]])
    left, right = edges[:-1], edges[1:]
    wide = right > left
    left, right = left[wide], right[wide]
    above = g_many(0.5 * (left + right)) > 0.0
    pieces = [(float(u), float(v)) for u, v in zip(left[above], right[above])]
    if not pieces:
        return ExerciseBoundary(kind="empty", evaluations=calls)
    if pieces[0][0] == edges[0] and vals[0] > 0:
        pieces[0] = (b_lo, pieces[0][1])
    if pieces[-1][1] == edges[-1] and vals[-1] > 0:
        pieces[-1] = (pieces[-1][0], b_hi)
    return ExerciseBoundary(kind="intervals", intervals=tuple(pieces), evaluations=calls)


# ---------------------------------------------------------------------------
# European call on the cash-flow price


def _exceedance_ends(boundary: ExerciseBoundary) -> tuple[tuple[float, float], ...]:
    """(c, sign) pairs with 1[xi in region] = sum of sign * 1[xi > c] (c = -inf: 1)."""
    if boundary.kind == "all":
        return ((-math.inf, 1.0),)
    if boundary.kind == "threshold":
        return ((boundary.threshold, 1.0),)
    ends = []
    for a, b in boundary.intervals:
        ends.append((a, 1.0))
        if math.isfinite(b):
            ends.append((b, -1.0))
    return tuple(ends)


def _exceedance(kernel, T, s, x, t, c, z) -> np.ndarray:
    """P[xi_t > c | xi_s = x, X_T = z] from the pinned bridge's exact law, vectorised over z.

    Given the pin the state is normal (Brownian) or x + (z - x) B with
    B ~ Beta(m (t - s), m (T - t)) (gamma), as in `bridge.transition_cdf`.
    """
    if c == -math.inf:
        return np.ones(z.shape)
    if isinstance(kernel, BrownianKernel):
        mean = x + (t - s) / (T - s) * (z - x)
        return _sp.ndtr((mean - c) / math.sqrt((t - s) * (T - t) / (T - s)))
    if isinstance(kernel, GammaKernel):
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.clip((z - c) / (z - x), 0.0, 1.0)
        return _sp.betainc(kernel.m * (T - t), kernel.m * (t - s), y)
    raise UnsupportedKernelError(f"no exact bridge law for {type(kernel).__name__}")


def _exercise_payoff(kernel, T, s, x, t, df_t, strike, ends, z) -> np.ndarray:
    """(df_t z - strike) P[xi_t in the exercise region | xi_s = x, X_T = z], elementwise."""
    z = np.asarray(z, dtype=float)
    weight = sum(sign * _exceedance(kernel, T, s, x, t, c, z) for c, sign in ends)
    return (df_t * z - strike) * weight


def call_price(
    spec: _core.LRBSpec,
    curve: RateCurve,
    call: CallSpec,
    *,
    boundary: ExerciseBoundary | None = None,
) -> float:
    """Price at (call.valuation_time, call.xi) of a call on the cash-flow price.

    The discounted payoff times the bridge exceedance weight, which the
    kernel's exact bridge law (normal / regularized incomplete beta) gives
    in closed form, is one node function g(z), summed against the posterior
    of the terminal value by `TerminalLaw.expect` on arrays: atoms exactly,
    the density split where the weight of each exercise-region end c steps,
    at the z that pins the bridge's state at the maturity to c. That is
    z = c for a gamma bridge, whose weight starts there as
    (z - c)^(m (T - t)), and a normal step of width
    sqrt((T - t)(T - s) / (t - s)) for a Brownian one. A precomputed
    ``boundary`` skips the critical-information solve.
    """
    if spec.kernel.discrete:
        raise UnsupportedKernelError("call pricing needs a continuous kernel")
    s, t, xi_s = call.valuation_time, call.maturity, call.xi
    if not t < spec.horizon:
        raise DomainError(f"option maturity {t} must precede the horizon {spec.horizon}")
    if boundary is None:
        boundary = critical_information(spec, curve, t, call.strike)
    if boundary.kind == "empty":
        return 0.0
    df_st = curve.discount(s, t)
    df_t = curve.discount(t, spec.horizon)
    ends = _exceedance_ends(boundary)
    T = spec.horizon
    payoff = partial(_exercise_payoff, spec.kernel, T, s, xi_s, t, df_t, call.strike, ends)
    # the weight of an end c steps where the bridge's state at t is pinned to c
    if spec.kernel.nondecreasing:
        splits = [c for c, _ in ends if math.isfinite(c)]
    else:
        splits = [xi_s + (c - xi_s) * (T - s) / (t - s) for c, _ in ends if math.isfinite(c)]
    prior = spec.terminal.density
    bulk = numerics.bulk_interval(prior) if prior is not None else (0.0, 0.0)
    origin = 0.0
    if s == 0.0:
        post = spec.terminal
    elif spec.kernel.nondecreasing:
        # the density is singular at z = xi_s like (z - xi_s)^(m (T - s) - 1):
        # it is summed in the increment z - xi_s, whose nodes can crowd into 0
        origin = xi_s
        post = _core._posterior(spec, s, xi_s, _core.psi_total(spec, s, xi_s), origin)
    else:
        # the Brownian weight is a normal factor in z, centred at xi_s T / s,
        # which can be far narrower than the prior
        post = _core.terminal_posterior(spec, s, xi_s)
        centre, sd = xi_s * T / s, math.sqrt(T * (T - s) / s)
        splits += [centre - sd, centre + sd]
    fn = partial(_shifted, payoff, origin)
    splits = [c - origin for c in splits]
    bulk = (bulk[0] - origin, bulk[1] - origin)
    return df_st * float(post.expect((fn,), splits=splits, bulk=bulk)[0])


def _shifted(fn, dx, w):
    return fn(w + dx)


# ---------------------------------------------------------------------------
# two-point cash flows


def binary_bond_posterior(spec: _core.LRBSpec, t: float, xi):
    """Posterior weights (rho_low, rho_high) of a two-atom terminal law.

    Vectorized over the information state xi; computed from kernel
    log-weights, so it holds for every kernel family.
    """
    atoms = spec.terminal.atoms
    if spec.terminal.density is not None or len(atoms) != 2:
        raise DomainError("binary bond posterior needs exactly two atoms and no density")
    t = spec._check_time(t)
    xi_arr = np.atleast_1d(_core._finite_states(xi))
    if t == 0.0:
        rho1 = np.full_like(xi_arr, atoms[1][1])
    else:
        logs = _core._atom_log_terms(spec, t, xi_arr)
        with np.errstate(over="ignore"):
            rho1 = 1.0 / (1.0 + np.exp(logs[0] - logs[1]))
        rho1 = np.where(np.isneginf(logs[0]) & np.isneginf(logs[1]), np.nan, rho1)
        if np.any(np.isnan(rho1)):
            raise NumericError("binary posterior undefined: both atoms have zero weight")
    rho0 = 1.0 - rho1
    if np.ndim(xi) == 0:
        return float(rho0[0]), float(rho1[0])
    return rho0, rho1


# ---------------------------------------------------------------------------
# price dynamics


def sde_coefficients(spec: _core.LRBSpec, curve: RateCurve, t: float, xi: float):
    """(drift, diffusion) of the price process at state (t, xi).

    Valid for the Brownian-kernel construction: drift is rate times price,
    diffusion is the discounted conditional variance of the terminal value
    scaled by the remaining time.
    """
    if not isinstance(spec.kernel, BrownianKernel):
        raise UnsupportedKernelError("price SDE coefficients need the Brownian kernel")
    t = spec._check_time(t)
    m1, m2 = (float(m) for m in _core._posterior_moments(spec, t, xi, (1, 2))[1][0])
    var = max(m2 - m1 * m1, 0.0)
    df = curve.discount(t, spec.horizon)
    return curve.short_rate(t) * df * m1, df * var / (spec.horizon - t)
