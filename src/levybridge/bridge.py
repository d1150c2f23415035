"""Bridges of the kernel families: laws pinned to hit a value at a horizon.

The pinned transition law from state (s, x) to the horizon (T, z), observed
at an intermediate time t, has density (mass, on the lattice)

    f(t - s, y - x) * f(T - t, z - y) / f(T - s, z - x)

with f the kernel's increment density. Everything here is conditional-law
machinery for a single pinned endpoint; randomized endpoints live one layer
up, in `core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, InvalidPinError, KernelClassError
from .kernels import BrownianKernel, GammaKernel, Kernel, PoissonKernel, _lattice_inverse
from .numerics import _beta_inverse
from .paths import SamplePath

__all__ = ["BridgeSpec", "transition_density", "transition_mass", "transition_cdf",
           "sample_step", "sample_path"]


@dataclass(frozen=True)
class BridgeSpec:
    """A kernel bridge from (start_time, start_value) to (end_time, end_value).

    The pin must be attainable: the kernel's increment weight over the full
    span has to be positive and finite, otherwise the conditional law does
    not exist and construction raises InvalidPinError. Lattice kernels
    require integer start and end values.
    """

    kernel: Kernel
    end_time: float
    end_value: float
    start_time: float = 0.0
    start_value: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.start_time < self.end_time) or not math.isfinite(self.end_time):
            raise DomainError(
                f"need 0 <= start_time < end_time, got [{self.start_time}, {self.end_time}]"
            )
        span = self.end_time - self.start_time
        jump = self.end_value - self.start_value
        if self.kernel.discrete:
            if jump != int(jump) or self.start_value != int(self.start_value):
                raise DomainError("lattice bridge endpoints must be integers")
            lw = float(self.kernel.log_mass(span, int(jump)))
        else:
            lw = float(self.kernel.log_density(span, jump))
        # judged in log space: a far pin whose density underflows the float
        # range is still attainable, only a true zero (or blowup) is not
        if not math.isfinite(lw):
            raise InvalidPinError(
                f"pin {self.end_value} at horizon {self.end_time} has log "
                f"increment weight {lw}; the bridge law does not exist"
            )

    def _check_interior(self, t: float) -> float:
        t = float(t)
        if not (self.start_time < t < self.end_time):
            raise DomainError(
                f"intermediate time {t} must lie strictly inside "
                f"({self.start_time}, {self.end_time})"
            )
        return t


def transition_density(spec: BridgeSpec, t: float, y) -> np.ndarray | float:
    """Density of the bridge state at time t, vectorized over y."""
    if spec.kernel.discrete:
        raise KernelClassError("lattice bridge has mass, not density; use transition_mass")
    t = spec._check_interior(t)
    y = np.asarray(y, dtype=float)
    log_num = spec.kernel.log_density(t - spec.start_time, y - spec.start_value)
    log_num = log_num + spec.kernel.log_density(spec.end_time - t, spec.end_value - y)
    log_den = spec.kernel.log_density(
        spec.end_time - spec.start_time, spec.end_value - spec.start_value
    )
    with np.errstate(over="ignore"):
        out = np.exp(log_num - log_den)
    return out if np.ndim(out) else float(out)


def transition_mass(spec: BridgeSpec, t: float, j) -> np.ndarray | float:
    """Mass of the lattice bridge at time t on lattice points j."""
    if not spec.kernel.discrete:
        raise KernelClassError("continuous bridge has density, not mass; use transition_density")
    t = spec._check_interior(t)
    j = np.asarray(j)
    log_num = spec.kernel.log_mass(t - spec.start_time, j - int(spec.start_value))
    log_num = log_num + spec.kernel.log_mass(spec.end_time - t, int(spec.end_value) - j)
    log_den = spec.kernel.log_mass(
        spec.end_time - spec.start_time, int(spec.end_value - spec.start_value)
    )
    out = np.exp(log_num - log_den)
    return out if np.ndim(out) else float(out)


def transition_cdf(spec: BridgeSpec, t: float, y):
    """P[bridge state at t <= y], from the kernel family's exact law.

    The pinned state is normal (Brownian), a scaled beta (gamma) or
    binomial (Poisson); the checks compare this with an integral of
    `transition_density`.
    """
    t = spec._check_interior(t)
    dt, rem = t - spec.start_time, spec.end_time - t
    x, z = spec.start_value, spec.end_value
    k = spec.kernel
    y = np.asarray(y, dtype=float)
    if isinstance(k, BrownianKernel):
        mean = x + dt / (dt + rem) * (z - x)
        out = _sp.ndtr((y - mean) / math.sqrt(dt * rem / (dt + rem)))
    elif isinstance(k, GammaKernel):
        out = _sp.betainc(k.m * dt, k.m * rem, np.clip((y - x) / (z - x), 0.0, 1.0))
    elif isinstance(k, PoissonKernel):
        n = int(z - x)
        kk = np.floor(y - x)
        out = np.where(kk < 0, 0.0, _sp.bdtr(np.clip(kk, 0, n), n, dt / (dt + rem)))
    else:
        raise KernelClassError(f"no exact bridge CDF for {type(k).__name__}")
    return out if np.ndim(out) else float(out)


def _inverse_step(kernel: Kernel, dt: float, remaining: float, x, z, u):
    """u-quantile of the pinned step at elapsed dt, pin remaining away.

    Vectorized over (x, z, u) with u in (0, 1): this inverts the exact law
    that `transition_cdf` evaluates (normal, scaled beta or binomial), and
    both bridge paths and the terminal-first process sampler are built on it.
    The gamma step reads its beta quantile off `numerics._beta_inverse`'s
    certified table (1e-13 relative where well conditioned), not betaincinv.
    """
    frac = dt / (dt + remaining)
    x = np.asarray(x, dtype=float)
    if isinstance(kernel, BrownianKernel):
        sd = math.sqrt(dt * remaining / (dt + remaining))
        return x + frac * (np.asarray(z, dtype=float) - x) + sd * _sp.ndtri(u)
    if isinstance(kernel, GammaKernel):
        z = np.asarray(z, dtype=float)  # beta = 1 must not step past the pin by a rounding
        return np.minimum(x + _beta_inverse(kernel.m * dt, kernel.m * remaining, u) * (z - x), z)
    if isinstance(kernel, PoissonKernel):
        u, n = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(np.asarray(z) - x, dtype=np.int64))
        return x + _lattice_inverse(lambda k: _sp.bdtr(k, n, frac), u, n)
    raise KernelClassError(f"no exact bridge sampler for {type(kernel).__name__}")


def sample_step(kernel: Kernel, dt: float, remaining: float, x, z, rng, size=None):
    """Exact one-step draw of a pinned kernel: `_inverse_step` fed rng.uniform."""
    if dt <= 0 or remaining <= 0:
        raise DomainError("step and remaining times must be positive")
    if size is None:
        size = np.broadcast(np.asarray(x), np.asarray(z)).shape or None
    return _inverse_step(kernel, dt, remaining, x, z, rng.uniform(size=size))


def sample_path(spec: BridgeSpec, times, rng) -> SamplePath:
    """Sample the bridge on a strictly increasing grid inside (start, end].

    Every step is an exact `sample_step` draw, and the walk re-pins after
    it, so draws at successive grid points have the correct joint law. A
    grid point equal to the horizon is set to the pinned value exactly.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("need a non-empty 1-d grid")
    if np.any(np.diff(times) <= 0):
        raise DomainError("grid must be strictly increasing")
    if times[0] <= spec.start_time or times[-1] > spec.end_time:
        raise DomainError(
            f"grid must lie inside ({spec.start_time}, {spec.end_time}]"
        )
    values = np.empty_like(times)
    cur_t, cur_x = spec.start_time, spec.start_value
    for k, t in enumerate(times):
        if t == spec.end_time:
            values[k] = spec.end_value
        else:
            values[k] = sample_step(
                spec.kernel, t - cur_t, spec.end_time - t, cur_x, spec.end_value, rng
            )
        cur_t, cur_x = t, values[k]
    return SamplePath(times=times, values=values)
