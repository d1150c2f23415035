"""Increment-law families used to build bridges.

A kernel is the time-indexed family of increment distributions of a process
with stationary independent increments: a density ``f_t`` for the continuous
families, a lattice mass function ``Q_t`` on the nonnegative integers for the
counting family. Each kernel also exposes its exact CDF, quantile function,
and an increment sampler, which is what the bridge and path-sampling layers
build on.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import special as _sp

from .errors import DomainError, KernelClassError

__all__ = ["Kernel", "BrownianKernel", "GammaKernel", "PoissonKernel"]


def _check_time(t: float) -> float:
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"elapsed time must be positive and finite, got {t}")
    return t


def _check_times(t):
    """`_check_time` for one time, or for each entry of an array of times."""
    if isinstance(t, np.ndarray) and t.ndim:
        _per_time(_check_time, t)
        return t
    return _check_time(t)


def _per_time(f, t):
    """f(t) for one time; for an array, f(u) once per distinct time u, spread back, so an
    entry at an array time keeps the bits of that time passed as a float."""
    if not isinstance(t, np.ndarray):
        return f(t)
    memo = {}
    out = [memo[u] if u in memo else memo.setdefault(u, f(u)) for u in t.ravel().tolist()]
    return np.array(out).reshape(t.shape)


def _lattice_inverse(cdf, q, hi) -> np.ndarray:
    """Smallest integer k in [0, hi] with cdf(k) >= q, elementwise (cdf(hi) >= q).

    Bisection on brackets (lo, hi] with cdf(lo) < q from lo = -1; ``cdf(k, i)`` maps an int64
    array to cumulative masses at the flat indices i of ``q``'s entries whose bracket is open.
    """
    q = np.asarray(q, dtype=float)
    lo, hi = np.full(q.size, -1), np.broadcast_to(hi, q.shape).astype(np.int64).ravel()
    while (i := np.flatnonzero(hi - lo > 1)).size:
        mid = (lo[i] + hi[i]) // 2
        below = cdf(mid, i) < q.flat[i]  # mid >= 0 on an open bracket
        lo[i[below]], hi[i[~below]] = mid[below], mid[~below]
    return hi.reshape(q.shape)


class Kernel(abc.ABC):
    """Common surface of the increment-law families.

    ``discrete`` kernels live on the integer lattice and implement
    ``log_mass``; continuous kernels implement ``log_density``. ``mass`` and
    ``density`` are their exponentials. Asking the wrong one raises
    KernelClassError so class mixups fail loudly rather than silently
    returning zeros. ``log_density``
    and ``log_mass`` take ``t`` as one time or as an array of times
    broadcast against ``x``.
    """

    discrete: ClassVar[bool]
    nondecreasing: ClassVar[bool]

    def density(self, t, x):
        with np.errstate(over="ignore"):
            return np.exp(self.log_density(t, x))

    def log_density(self, t, x):
        raise KernelClassError(f"{type(self).__name__} has no density; use mass()")

    def mass(self, t, i):
        return np.exp(self.log_mass(t, i))

    def log_mass(self, t, i):
        raise KernelClassError(f"{type(self).__name__} has no lattice mass; use density()")

    @abc.abstractmethod
    def cdf(self, t, x):
        """P[increment over elapsed time t <= x]."""

    @abc.abstractmethod
    def quantile(self, t, q):
        """Inverse of `cdf` in x (generalized inverse for lattice kernels)."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, t, size=None):
        """Draw increments over elapsed time t."""

    @abc.abstractmethod
    def mean(self, t) -> float: ...

    @abc.abstractmethod
    def variance(self, t) -> float: ...

    @abc.abstractmethod
    def increment_support(self, t) -> tuple[float, float]:
        """Open support of the increment law (lattice hull for discrete)."""


@dataclass(frozen=True)
class BrownianKernel(Kernel):
    """Standard Brownian increment family: N(0, t)."""

    discrete: ClassVar[bool] = False
    nondecreasing: ClassVar[bool] = False

    def log_density(self, t, x):
        t = _check_times(t)
        x = np.asarray(x, dtype=float)
        out = -0.5 * x * x / t - _per_time(lambda u: 0.5 * math.log(2.0 * math.pi * u), t)
        return out if out.ndim else float(out)

    def cdf(self, t, x):
        t = _check_time(t)
        x = np.asarray(x, dtype=float)
        out = _sp.ndtr(x / math.sqrt(t))
        return out if out.ndim else float(out)

    def quantile(self, t, q):
        t = _check_time(t)
        q = np.asarray(q, dtype=float)
        out = math.sqrt(t) * _sp.ndtri(q)
        return out if out.ndim else float(out)

    def sample(self, rng, t, size=None):
        t = _check_time(t)
        return rng.normal(0.0, math.sqrt(t), size=size)

    def mean(self, t):
        _check_time(t)
        return 0.0

    def variance(self, t):
        return _check_time(t)

    def increment_support(self, t):
        _check_time(t)
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class GammaKernel(Kernel):
    """Gamma subordinator increments at unit rate: Gamma(shape m*t, scale 1).

    ``m`` is the mean increment per unit time. The density vanishes for
    x <= 0 (the zero endpoint included, even where the mt < 1 pole would
    diverge; the pole is integrable and quadrature splits there).
    """

    m: float

    discrete: ClassVar[bool] = False
    nondecreasing: ClassVar[bool] = True

    def __post_init__(self):
        if not (self.m > 0 and math.isfinite(self.m)):
            raise DomainError(f"gamma kernel rate m must be positive, got {self.m}")

    def log_density(self, t, x):
        a = self.m * _check_times(t)
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                x > 0.0,
                (a - 1.0) * np.log(np.where(x > 0.0, x, 1.0)) - x - _per_time(_sp.gammaln, a),
                -np.inf,
            )
        return out if out.ndim else float(out)

    def cdf(self, t, x):
        t = _check_time(t)
        a = self.m * t
        x = np.asarray(x, dtype=float)
        out = _sp.gammainc(a, np.maximum(x, 0.0))
        return out if out.ndim else float(out)

    def quantile(self, t, q):
        t = _check_time(t)
        a = self.m * t
        q = np.asarray(q, dtype=float)
        out = _sp.gammaincinv(a, q)
        return out if out.ndim else float(out)

    def sample(self, rng, t, size=None):
        t = _check_time(t)
        return rng.gamma(self.m * t, 1.0, size=size)

    def mean(self, t):
        return self.m * _check_time(t)

    def variance(self, t):
        return self.m * _check_time(t)

    def increment_support(self, t):
        _check_time(t)
        return (0.0, math.inf)


@dataclass(frozen=True)
class PoissonKernel(Kernel):
    """Poisson counting increments on the unit lattice, rate ``intensity``."""

    intensity: float

    discrete: ClassVar[bool] = True
    nondecreasing: ClassVar[bool] = True

    def __post_init__(self):
        if not (self.intensity > 0 and math.isfinite(self.intensity)):
            raise DomainError(f"poisson intensity must be positive, got {self.intensity}")

    @staticmethod
    def _lattice(i):
        i = np.asarray(i)
        if not np.all(np.equal(np.mod(i, 1), 0)):
            raise DomainError("lattice points must be integers")
        return i.astype(np.int64)

    def log_mass(self, t, i):
        lam = self.intensity * _check_times(t)
        i = self._lattice(i)
        with np.errstate(divide="ignore"):
            out = np.where(
                i >= 0,
                i * _per_time(math.log, lam) - lam - _sp.gammaln(np.maximum(i, 0) + 1.0),
                -np.inf,
            )
        return out if out.ndim else float(out)

    def cdf(self, t, x):
        t = _check_time(t)
        x = np.floor(np.asarray(x, dtype=float))
        out = np.where(x < 0, 0.0, _sp.pdtr(np.maximum(x, 0), self.intensity * t))
        return out if out.ndim else float(out)

    def quantile(self, t, q):
        # a pdtr search; -1 at q <= 0 and inf at q >= 1, as scipy's poisson.ppf
        mu = self.intensity * _check_time(t)
        q = np.asarray(q, dtype=float)
        inside = (q > 0.0) & (q < 1.0)
        qi = np.where(inside, q, 0.5)
        hi = np.full(q.shape, math.ceil(mu) + 1)
        while np.any(short := _sp.pdtr(hi, mu) < qi):
            hi = np.where(short, 2 * hi, hi)
        k = _lattice_inverse(lambda k, i: _sp.pdtr(k, mu), qi, hi)
        out = np.select([inside, q <= 0.0, q >= 1.0], [k, -1.0, np.inf], np.nan)
        return out if out.ndim else float(out)

    def sample(self, rng, t, size=None):
        t = _check_time(t)
        return rng.poisson(self.intensity * t, size=size)

    def mean(self, t):
        return self.intensity * _check_time(t)

    def variance(self, t):
        return self.intensity * _check_time(t)

    def increment_support(self, t):
        _check_time(t)
        return (0.0, math.inf)
