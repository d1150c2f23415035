"""Quadrature over mixed measures and monotone root finding.

Everything downstream (conditional laws, pricing, samplers) funnels its
numerical work through this module so that tolerances live in one place.
Measures are represented as an atom list plus an optional absolutely
continuous component; there is deliberately no way to express a singular
continuous part.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import integrate as _sci_integrate
from scipy import optimize as _sci_optimize

from .errors import DomainError, NoRootError, NonMonotoneError, NumericError

__all__ = [
    "DensityComponent",
    "MixedMeasure",
    "integrate",
    "find_root_monotone",
    "inverse_cdf",
    "composite_quad_batch",
]

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# mixed measures


@dataclass(frozen=True)
class DensityComponent:
    """Absolutely continuous component of a measure.

    Parameters
    ----------
    pdf:
        Density with respect to Lebesgue measure. Must accept floats and
        numpy arrays, and is allowed to integrate to any finite positive
        mass (a component of weight w carries a pdf integrating to w).
    lower, upper:
        Support interval; either end may be infinite. The pdf must vanish
        outside.
    breakpoints:
        Interior points where the pdf is non-smooth; quadrature splits there.
    quantile:
        Optional inverse of the normalized CDF, ``quantile(u) -> ndarray``
        for u in (0, 1); samplers turn uniforms into exact draws with it.
    cdf:
        Optional normalized CDF of the component (values in [0, 1]); used for
        tail localisation.
    logpdf:
        Log of ``pdf`` (-inf where it vanishes), which the tilted-sum engine
        reads so that far tails do not underflow. Left out, it is log(pdf).

    `mass_interval` keeps the intervals it finds for a component, by eps.
    """

    pdf: Callable
    lower: float
    upper: float
    breakpoints: tuple[float, ...] = ()
    quantile: Callable | None = None
    cdf: Callable | None = None
    logpdf: Callable | None = field(default=None, compare=False)
    _intervals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"density support [{self.lower}, {self.upper}] is empty")
        pts = tuple(sorted(p for p in self.breakpoints if self.lower < p < self.upper))
        object.__setattr__(self, "breakpoints", pts)
        if self.logpdf is None:
            object.__setattr__(self, "logpdf", partial(_log_of, self.pdf))

    def effective_interval(self, eps: float = 1e-16) -> tuple[float, float]:
        """Finite interval carrying all but ~eps of the component's mass.

        Finite supports are returned as-is. Infinite tails are cut at the
        ``quantile`` of eps and 1 - eps; without one, quantiles of the `cdf`
        are bracketed by doubling and bisection.
        """
        lo, hi = self.lower, self.upper
        find = self._cdf_quantile if self.quantile is None else self.quantile
        if math.isinf(lo):
            lo = float(find(eps))
        if math.isinf(hi):
            hi = float(find(1.0 - eps))
        return lo, hi

    def _cdf_quantile(self, q: float) -> float:
        if self.cdf is None:
            raise NumericError(
                "density component has an infinite tail and no cdf; "
                "cannot localise its mass"
            )
        anchor = 0.0
        if not math.isinf(self.lower):
            anchor = self.lower
        elif not math.isinf(self.upper):
            anchor = self.upper
        step = 1.0
        lo, hi = anchor - step, anchor + step
        for _ in range(200):
            if float(self.cdf(lo)) <= q:
                break
            lo -= step
            step *= 2.0
        step = 1.0
        for _ in range(200):
            if float(self.cdf(hi)) >= q:
                break
            hi += step
            step *= 2.0
        f = lambda x: float(self.cdf(x)) - q
        if f(lo) > 0 or f(hi) < 0:
            raise NumericError("cdf quantile bracketing failed", q=q, lo=lo, hi=hi)
        return float(_sci_optimize.brentq(f, lo, hi, xtol=1e-9, rtol=1e-12))


def mass_interval(component: DensityComponent, eps: float = 1e-14) -> tuple[float, float]:
    """Finite interval carrying all but ~eps of the component's mass.

    With a quantile or a cdf this is `effective_interval`. Without either,
    infinite tails are cut by integrating the pdf outward and doubling the
    cut point until the remaining tail mass drops below eps of the total.
    Each component computes its interval once per eps.
    """
    cache = component._intervals
    if eps not in cache:
        cache[eps] = _mass_interval(component, eps)
    return cache[eps]


def _mass_interval(d: DensityComponent, eps: float) -> tuple[float, float]:
    bounded = math.isfinite(d.lower) and math.isfinite(d.upper)
    if bounded or d.quantile is not None or d.cdf is not None:
        return d.effective_interval(eps)
    total, _ = _quad_segment(lambda z: float(d.pdf(z)), d.lower, d.upper, 1e-12, 1e-10)
    lo, hi = d.lower, d.upper
    anchor = 0.0
    for b in (d.lower, d.upper, *d.breakpoints):
        if math.isfinite(b):
            anchor = b
            break
    if math.isinf(hi):
        r = abs(anchor) + 1.0
        for _ in range(200):
            rem, _ = _quad_segment(lambda z: float(d.pdf(z)), r, math.inf, 1e-14, 1e-10)
            if rem <= eps * total:
                break
            r *= 2.0
        hi = r
    if math.isinf(lo):
        r = -abs(anchor) - 1.0
        for _ in range(200):
            rem, _ = _quad_segment(lambda z: float(d.pdf(z)), -math.inf, r, 1e-14, 1e-10)
            if rem <= eps * total:
                break
            r *= 2.0
        lo = r
    return lo, hi


def _log_of(pdf, z):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(pdf(z), dtype=float))


def _exp_of(logpdf, z):
    """The pdf of a component given by its log-density."""
    out = np.exp(logpdf(z))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MixedMeasure:
    """Finite measure made of point masses plus a density component."""

    atoms: tuple[tuple[float, float], ...] = ()
    density: DensityComponent | None = None

    def __post_init__(self):
        cleaned = []
        for loc, w in self.atoms:
            loc, w = float(loc), float(w)
            if not math.isfinite(loc):
                raise DomainError(f"atom location {loc} is not finite")
            if w < 0 or not math.isfinite(w):
                raise DomainError(f"atom weight {w} must be finite and >= 0")
            cleaned.append((loc, w))
        cleaned.sort(key=lambda p: p[0])
        locs = [p[0] for p in cleaned]
        if len(set(locs)) != len(locs):
            raise DomainError("duplicate atom locations")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def atom_mass(self) -> float:
        return sum(w for _, w in self.atoms)


def integrate(measure: MixedMeasure, fn: Callable) -> float:
    """Integrate ``fn`` against a mixed measure.

    Atom contributions are summed exactly; the density part goes through
    adaptive quadrature split at declared breakpoints. Raises NumericError
    (with solver diagnostics attached) instead of returning nan.
    """
    total = 0.0
    for loc, w in measure.atoms:
        if w == 0.0:
            continue
        v = float(fn(loc))
        if not math.isfinite(v):
            raise NumericError(f"integrand not finite at atom {loc}", value=v)
        total += w * v
    d = measure.density
    if d is not None:
        edges = [d.lower, *d.breakpoints, d.upper]
        g = lambda z: float(fn(z)) * float(d.pdf(z))
        for a, b in zip(edges[:-1], edges[1:]):
            total += _quad_segment(g, a, b, DEFAULT_ABS_TOL, DEFAULT_REL_TOL)[0]
    return total


def _quad_segment(g, a, b, abs_tol, rel_tol):
    out = _sci_integrate.quad(
        g, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=400, full_output=1
    )
    val, abserr = out[0], out[1]
    if not math.isfinite(val):
        raise NumericError(
            f"quadrature over [{a}, {b}] returned {val}", segment=(a, b)
        )
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if the error estimate still
        # meets the requested budget with some slack.
        if abserr > 50 * max(abs_tol, rel_tol * abs(val)):
            raise NumericError(
                f"quadrature over [{a}, {b}] failed: {out[3]}",
                segment=(a, b),
                estimate=val,
                abserr=abserr,
            )
    return val, abserr


# ---------------------------------------------------------------------------
# root finding


def find_root_monotone(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
    samples: int = 17,
) -> float:
    """Root of a monotone function on a bracketing interval.

    The bracket must straddle a sign change (NoRootError otherwise), and a
    sampled scan must not reveal a reversal of direction (NonMonotoneError).
    The scan is a guard against misuse, not a proof of monotonicity.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    f_lo, f_hi = float(fn(lo)), float(fn(hi))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoRootError(f"no sign change on bracket: f({lo})={f_lo}, f({hi})={f_hi}")
    xs = np.linspace(lo, hi, samples)
    vals = np.array([float(fn(x)) for x in xs])
    direction = 1.0 if f_hi > f_lo else -1.0
    slack = 1e-12 * float(np.max(np.abs(vals)))
    if np.any(direction * np.diff(vals) < -slack):
        raise NonMonotoneError(
            f"sampled values on [{lo}, {hi}] are not monotone; "
            "refusing to treat the root as unique"
        )
    return float(_sci_optimize.brentq(fn, lo, hi, xtol=tol, rtol=8.9e-16))


def inverse_cdf(
    pdf: Callable[[float], float],
    lo: float,
    hi: float,
    u: float,
    *,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> float:
    """u-quantile of an unnormalized density on a finite interval.

    Root-finds on the cumulative integral; the kernel-agnostic (and slow)
    correctness baseline for samplers.
    """
    if not (0.0 < u < 1.0):
        raise DomainError(f"u={u} must lie in (0, 1)")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid support [{lo}, {hi}]")
    pts = sorted({float(p) for p in breakpoints if lo < p < hi})
    edges = [lo, *pts, hi]
    cum = [0.0]
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = _quad_segment(pdf, a, b, tol * 1e-2, 1e-12)
        cum.append(cum[-1] + val)
    total = cum[-1]
    if not total > 0:
        raise NumericError("density integrates to zero on the support")
    target = u * total

    def cumulative(y: float) -> float:
        j = 0
        for k in range(len(edges) - 1):
            if edges[k + 1] < y:
                j = k + 1
            else:
                break
        val, _ = _quad_segment(pdf, edges[j], y, tol * 1e-2, 1e-12)
        return cum[j] + val - target

    return float(_sci_optimize.brentq(cumulative, lo, hi, xtol=tol, rtol=8.9e-16))


# ---------------------------------------------------------------------------
# per-row composite quadrature (for MC-scale batch evaluation)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_TILE = 1 << 14  # (row, node) entries per tile: the fused passes stay in cache


def _tiled(fn, n_rows: int, n_cols: int) -> np.ndarray:
    """fn(rows) over slices of about _TILE / n_cols rows, stacked along axis 0."""
    step = max(1, _TILE // n_cols)
    return np.concatenate([fn(slice(i, i + step)) for i in range(0, n_rows, step)])


def composite_quad_batch(
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    init_panels: int = 8,
    max_doublings: int = 8,
) -> np.ndarray:
    """Integrate a batch of smooth integrands, row i over [a[i], b[i]].

    Each row's nodes are one reference composite Gauss-Legendre rule on
    [0, 1] mapped onto its interval. ``fn(nodes, weights, rows)`` takes the
    nodes of the rows in the index array ``rows``, shape (len(rows), k),
    and the reference weights, shape (k,), and returns those rows' weighted
    sums, shape (len(rows), p); they are scaled by the interval lengths
    here. Panels double until a row's sums agree with the previous level's
    to max(abs_tol, rel_tol * its largest |sum|); the row keeps that finer
    level and leaves the batch. Rows reach ``fn`` in tiles of about _TILE
    (row, node) entries. A row's result therefore depends on its own
    integrand alone, bit for bit, as long as ``fn`` treats rows apart.
    Returns shape (len(a), p).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ok = a.ndim == 1 and a.size > 0 and a.shape == b.shape
    if not (ok and np.all(np.isfinite(a) & np.isfinite(b) & (a < b))):
        raise DomainError("need finite intervals a[i] < b[i], given as non-empty 1-d arrays")
    width = b - a
    out, prev, todo = None, None, np.arange(a.size)
    panels = init_panels
    for _ in range(max_doublings + 1):
        edges = np.linspace(0.0, 1.0, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _GL_NODES).ravel()
        wts = (half[:, None] * _GL_WEIGHTS).ravel()

        def tile(sl):
            r = todo[sl]
            return fn(a[r, None] + width[r, None] * nodes, wts, r) * width[r, None]

        cur = _tiled(tile, todo.size, nodes.size)
        if prev is None:
            out = np.empty((a.size, cur.shape[1]))
        else:
            diff = np.max(np.abs(cur - prev), axis=1)
            done = diff <= np.maximum(abs_tol, rel_tol * np.max(np.abs(cur), axis=1))
            out[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
            if todo.size == 0:
                return out
        prev = cur
        panels *= 2
    raise NumericError(
        "composite quadrature did not stabilize",
        rows=int(todo.size),
        interval=(float(a[todo[0]]), float(b[todo[0]])),
        panels=panels // 2,
    )
