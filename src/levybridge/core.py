"""Conditional laws of processes pinned to a randomized terminal value.

The central object is the aggregate

    psi_t(xi) = sum_i w_i f(T-t, z_i - xi) / f(T, z_i)
              + integral  f(T-t, z - xi) / f(T, z) p(z) dz

over the terminal law nu = sum w_i delta_{z_i} + p(z) dz. It normalizes the
posterior of the terminal value given the state xi at time t, drives the
Markov transition density, and its reciprocal is the density of the plain
increment law with respect to the conditioned one. For 0 < t < horizon
every posterior functional comes from one engine, `_tilted_sums`, which
evaluates the z^q-weighted aggregate state by state: each state's window,
nodes and stopping rule depend on that state alone, so its values do not
change with the batch it comes in (a scalar call is a batch of one); prior
moments at t = 0 use the double-exponential rule of `numerics.density_sums`.
Sampling lives in `sampler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special as _sp

from . import numerics
from .errors import (
    DomainError,
    InfiniteMomentError,
    InvalidPinError,
    NumericError,
    UnreachableStateError,
    UnsupportedKernelError,
)
from .kernels import BrownianKernel, GammaKernel, Kernel
from .laws import TerminalLaw
from .numerics import DensityComponent

__all__ = [
    "LRBSpec",
    "psi_total",
    "psi_total_many",
    "rn_derivative",
    "transition_density",
    "transition_mass",
    "terminal_posterior",
    "posterior_mean_many",
    "conditional_moment",
    "restart",
    "increment_joint_density",
    "reordered_increment_conditional",
]


@dataclass(frozen=True)
class LRBSpec:
    """A process pinned at ``horizon`` to a terminal value drawn from ``terminal``.

    Validation enforces absolute continuity of the terminal law with respect
    to the kernel's increment law at the horizon: every atom needs a positive
    finite kernel weight there, a density component must live inside the
    kernel's support, and lattice kernels take purely atomic integer laws.
    """

    kernel: Kernel
    horizon: float
    terminal: TerminalLaw

    def __post_init__(self):
        T = self.horizon
        if not (T > 0 and math.isfinite(T)):
            raise DomainError(f"horizon must be positive and finite, got {T}")
        if self.kernel.discrete:
            if self.terminal.density is not None:
                raise DomainError("lattice kernels take purely atomic terminal laws")
            for z, _ in self.terminal.atoms:
                if z != int(z):
                    raise DomainError(f"terminal atom {z} is not a lattice point")
                if not float(self.kernel.mass(T, int(z))) > 0.0:
                    raise InvalidPinError(
                        f"terminal atom {z} has zero lattice mass at the horizon"
                    )
            return
        for z, _ in self.terminal.atoms:
            w = float(self.kernel.density(T, z))
            if not (w > 0.0 and math.isfinite(w)):
                raise InvalidPinError(
                    f"terminal atom {z} has kernel weight {w} at the horizon"
                )
        if self.terminal.density is not None:
            lo, hi = self.kernel.increment_support(T)
            d = self.terminal.density
            if d.lower < lo or d.upper > hi:
                raise InvalidPinError(
                    f"terminal density support [{d.lower}, {d.upper}] leaves the "
                    f"kernel support ({lo}, {hi})"
                )

    def _check_time(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t < self.horizon:
            raise DomainError(f"time {t} outside [0, {self.horizon})")
        return t


# ---------------------------------------------------------------------------
# the psi aggregate


def _atom_log_terms(spec: LRBSpec, t: float, xi) -> np.ndarray:
    """log of w_i * f(T-t, z_i - xi) / f(T, z_i), shape (n_xi, n_atoms)."""
    locs = np.array([z for z, _ in spec.terminal.atoms])
    logw = np.log([w for _, w in spec.terminal.atoms])
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if spec.kernel.discrete:
        base = spec.kernel.log_mass(spec.horizon, locs.astype(int))
        steps = spec.kernel.log_mass(
            spec.horizon - t, (locs[None, :] - xi[:, None]).astype(int)
        )
    else:
        base = spec.kernel.log_density(spec.horizon, locs)
        steps = spec.kernel.log_density(spec.horizon - t, locs[None, :] - xi[:, None])
    return steps + (logw - base)[None, :]


def psi_total(spec: LRBSpec, t: float, xi: float) -> float:
    """Total mass of the unnormalized conditional terminal measure at (t, xi).

    Equals 1 at t = 0 identically. This is the Radon-Nikodym density of the
    conditioned path law with respect to the plain one on information up to
    t, and therefore a martingale of the state; tests lean on that. It is
    `psi_total_many` on a batch of one state.
    """
    return float(psi_total_many(spec, t, np.array([float(xi)]))[0])


def rn_derivative(spec: LRBSpec, t: float, xi: float) -> float:
    """Density of the plain increment law w.r.t. the conditioned one at (t, xi)."""
    psi = psi_total(spec, t, xi)
    if psi <= 0.0:
        raise UnreachableStateError(f"state xi={xi} at t={t} has zero mass")
    return 1.0 / psi


# ---------------------------------------------------------------------------
# the tilted-sum engine: every posterior functional is evaluated here, state
# by state (a scalar call is a batch of one). Each row has its own time,
# window, nodes and stopping level; each quadrature level forms one log
# integrand per (state, node) from the prior's logpdf, exponentiates it once
# and sums it against the node weights times z^q, tile by tile of states.
# A time ``t`` is one float for every state or an array of one per state;
# the helpers below tell them apart by isinstance, which costs far less than
# np.ndim on a float in a loop over tiles.

_PROBE = np.linspace(0.0, 1.0, 65)
_CHUNK = 4096  # states per branch call: bounds the per-state arrays of a call


def _by_time(t):
    """(time, rows) for each distinct time of ``t``; a scalar time has rows slice(None)."""
    if not isinstance(t, np.ndarray):
        return [(t, slice(None))]
    times, which = np.unique(t, return_inverse=True)
    return [(float(u), np.flatnonzero(which == i)) for i, u in enumerate(times)]


def _rows(t, r):
    """The times of rows ``r``."""
    return t[r] if isinstance(t, np.ndarray) else t


def _per_row(v):
    """A per-state value as a column against the nodes; a scalar stays a scalar."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _t_diag(t):
    """The time of a diagnostic: the time, or the (min, max) range of per-state times."""
    lo, hi = float(np.min(t)), float(np.max(t))
    return lo if lo == hi else (lo, hi)


def _half_log_ratio(T, t):
    """log(T / (T-t)) / 2 by math.log once per distinct time.

    np.log can differ from math.log by an ulp; one function for both keeps a
    row at a per-state time bit-identical to the same row at a scalar time.
    """
    if not isinstance(t, np.ndarray):
        return 0.5 * math.log(T / (T - t))
    times, which = np.unique(t, return_inverse=True)
    return np.array([0.5 * math.log(T / (T - u)) for u in times.tolist()])[which]


def _brownian_log_weight(T, t, xis, z, extra=0.0):
    """log f(T-t, z - xi) - log f(T, z) + extra, Brownian kernel, shape (n_xi, n_z).

    The closed form -(z - xi)^2 / (2 (T-t)) + z^2 / (2 T) + log(T / (T-t)) / 2,
    built in place on one array. ``t`` is one time or one per state; ``z``
    holds nodes shared by every state, shape (n_z,), or one row of nodes per
    state; ``extra`` is a per-node term.
    """
    e = np.subtract(z, xis[:, None])
    np.square(e, out=e)
    e *= _per_row(-0.5 / (T - t))
    zz = np.square(z)
    zz *= 0.5 / T
    e += zz
    e += extra
    e += _per_row(_half_log_ratio(T, t))
    return e


def _log_integrand_probe(T, t, xis, plo, phi, d):
    """Locate where each state's weight-times-density integrand actually lives.

    The weight can amplify the density's far tail (its log is convex minus
    the pinning term), so the density's own effective interval is not a safe
    window. A coarse log-space scan of each row's window [plo, phi] keeps
    the probe points within e^-60 of that row's peak. Returns per row the
    window around them, the number kept and the peak log integrand.
    """
    span = phi - plo

    def tile(r):
        z = plo[r, None] + span[r, None] * _PROBE
        total = _brownian_log_weight(T, _rows(t, r), xis[r], z, d.logpdf(z))
        peak = np.max(total, axis=1)
        keep = total >= peak[:, None] - 60.0
        first, last = np.argmax(keep, axis=1), _PROBE.size - 1 - np.argmax(keep[:, ::-1], axis=1)
        return np.column_stack([peak, first, last, np.sum(keep, axis=1)])

    peak, first, last, kept = numerics._tiled(tile, xis.size, _PROBE.size).T
    if not np.all(np.isfinite(peak)):
        bad = xis[~np.isfinite(peak)]
        raise NumericError(
            "tilted integrand underflows on the whole probe window",
            t=_t_diag(t), states=(bad.min(), bad.max()),
        )
    step = span / (_PROBE.size - 1)
    lo = np.maximum(plo, plo + (first - 1.0) * step)
    hi = np.minimum(phi, plo + (last + 1.0) * step)
    return lo, hi, kept, peak


def _brownian_density_sums(spec, t, xis, powers):
    d = spec.terminal.density
    T = spec.horizon
    # posterior components built by terminal_posterior carry no cdf, so the
    # localisation must work from the pdf alone
    lo_p, hi_p = numerics.mass_interval(d, 1e-16)
    sd = np.sqrt(T * (T - t) / t)
    centers = xis * (T / t)
    lo = np.maximum(d.lower, np.minimum(lo_p, centers - 12.0 * sd))
    hi = np.minimum(d.upper, np.maximum(hi_p, centers + 12.0 * sd))
    row_max = np.empty_like(xis)
    todo = np.arange(xis.size)
    while todo.size:
        # a row whose integrand spans fewer than 8 probe points (a wide prior
        # window around a sharp weight) is probed again inside the window it
        # was found in, for as long as that window keeps shrinking
        plo, phi = lo[todo], hi[todo]
        lo[todo], hi[todo], kept, row_max[todo] = _log_integrand_probe(
            T, _rows(t, todo), xis[todo], plo, phi, d
        )
        todo = todo[(kept < 8) & (hi[todo] - lo[todo] < 0.5 * (phi - plo))]

    def sums(z, wts, r):
        # one exponent per (state, node), shifted by the row's probe peak so
        # that far states keep their digits
        lp = d.logpdf(z)
        lp -= row_max[r, None]
        e = _brownian_log_weight(T, _rows(t, r), xis[r], z, lp)
        np.exp(e, out=e)
        e *= wts
        return _power_sums(e, z, powers)

    res = numerics.composite_quad_batch(
        sums, lo, hi, abs_tol=0.0, rel_tol=1e-11, init_panels=4, max_doublings=8
    )
    res *= np.exp(row_max)[:, None]
    # a Brownian psi is never 0: a zero row means the sums underflowed
    if 0 in powers and not np.all(res[:, powers.index(0)] > 0.0):
        raise NumericError("tilted integrand underflows", t=_t_diag(t), states=(xis.min(), xis.max()))
    return res


def _log_weight(kernel, T, t, z, step):
    """log of f(T-t, step)/f(T, z) elementwise, step = z - xi; -inf off the kernel support."""
    ld_base = kernel.log_density(T, z)
    ok = np.isfinite(ld_base)
    return np.where(ok, kernel.log_density(T - t, step) - np.where(ok, ld_base, 0.0), -np.inf)


_JACOBI_CACHE: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}


def _jacobi_rule(n: int, beta: float):
    """n-point Gauss rule for the weight (1 + x)^beta on [-1, 1], by Golub-Welsch.

    (scipy's roots_jacobi loses about 1e-10 relative at beta near -1, n >= 128.)
    The tridiagonal Jacobi matrix is small (n <= 512) and its rule is cached,
    so a dense numpy eigensolver serves and scipy.linalg is never loaded.
    """
    key = (n, beta)
    if key not in _JACOBI_CACHE:
        k = np.arange(1.0, n)
        s = 2.0 * k + beta
        diag = np.concatenate(([beta / (beta + 2.0)], beta**2 / (s * (s + 2.0))))
        off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
        x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        _JACOBI_CACHE[key] = (x, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2)
    return _JACOBI_CACHE[key]


def _gamma_density_sums(spec, t, xis, powers):
    """Tilted integrals for the gamma kernel.

    Written as e^xi * C * integral_0^W w^(a-1) g(xi + w) (xi + w)^q dw with
    g(z) = z^(1-mT) p(z) smooth; the w^(a-1) endpoint factor is absorbed by a
    Gauss-Jacobi rule whose order each state raises until it converges.
    """
    d = spec.terminal.density
    k: GammaKernel = spec.kernel
    T = spec.horizon
    a = k.m * (T - t)
    mT = k.m * T
    lo_p, hi_p = numerics.mass_interval(d, 1e-16)
    log_c = _sp.gammaln(mT) - _sp.gammaln(a)

    def log_g(z):
        # log of z^(1-mT) p(z), with the kernel-support guard
        z = np.maximum(z, 1e-300)
        return (1.0 - mT) * np.log(z) + d.logpdf(z)

    out = np.zeros((xis.size, len(powers)))
    inside = xis >= lo_p
    # states at or past the top of the support carry no density mass
    below = xis < d.upper
    for group, from_zero in ((np.nonzero(inside & below)[0], True), (np.nonzero(~inside)[0], False)):
        if group.size == 0:
            continue
        xg = xis[group]
        if from_zero and math.isfinite(d.upper):
            res = _jacobi_tilted(log_g, xg, d.upper - xg, a, powers)
        elif from_zero:
            span = _gamma_spans(log_g, xg, a, max(powers), hi_p - lo_p)
            res = _jacobi_tilted(log_g, xg, np.maximum(hi_p - xg, span), a, powers)
        else:
            res = _plain_tilted(log_g, xg, lo_p - xg, hi_p - xg, a, powers)
        out[group] = res * np.exp(xg + log_c)[:, None]
    return out


def _power_sums(g, z, powers) -> np.ndarray:
    """Columns q of sum over the last axis of g * z^q, one product per power.

    Plain sums rather than matrix products: numpy sums each row on its own,
    so a row's value does not depend on how many rows share the array.
    """
    return np.stack([np.sum(g if q == 0 else g * z**q, axis=-1) for q in powers], axis=-1)


def _gamma_spans(log_g, xg, a, q, width):
    """Per-state span W past which w^(a-1) g(xi + w) (xi + w)^q is below e^-60 of its peak.

    For priors unbounded above; spans double from 1/16 to 4096 prior widths
    (the caller never cuts below hi_p - xi). A decaying w^(a-1) is left out.
    """
    w = width * 2.0 ** np.arange(-4.0, 13.0)
    z = xg[:, None] + w[None, :]
    with np.errstate(divide="ignore"):
        lg = log_g(z) + q * np.log(np.maximum(z, 1e-300)) + max(a - 1.0, 0.0) * np.log(w)[None, :]
    peak = np.max(lg, axis=1)
    last = w.size - 1 - np.argmax((lg >= peak[:, None] - 60.0)[:, ::-1], axis=1)
    if not np.all(np.isfinite(peak)) or np.any(last == w.size - 1):
        raise NumericError(
            "tilted integrand underflows or does not decay on the probed spans",
            states=(xg.min(), xg.max()), window=(w[0], w[-1]),
        )
    return w[last + 1]


def _jacobi_tilted(log_g, xg, W, a, powers):
    """Gauss-Jacobi sums of orders 32, 64, ...; each row keeps the first order
    that agrees with the previous one to 1e-11 relative."""
    out, prev, todo = np.empty((xg.size, len(powers))), None, np.arange(xg.size)
    for n in (32, 64, 128, 256, 512):
        x, wts = _jacobi_rule(n, a - 1.0)

        def tile(sl):
            r = todo[sl]
            z = xg[r, None] + W[r, None] * (1.0 + x) / 2.0
            return _power_sums(np.exp(log_g(z)) * wts, z, powers)

        cur = (W[todo] / 2.0)[:, None] ** a * numerics._tiled(tile, todo.size, n)
        if prev is not None:
            done = np.all(np.abs(cur - prev) <= 1e-11 * np.abs(cur), axis=1)
            out[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
            if todo.size == 0:
                return out
        prev = cur
    raise NumericError(
        "Gauss-Jacobi tilted sums did not converge",
        order=n, states=(xg[todo].min(), xg[todo].max()),
    )


def _plain_tilted(log_g, xg, w0, W, a, powers):
    def sums(w, wts, r):
        z = xg[r, None] + w
        return _power_sums(w ** (a - 1.0) * np.exp(log_g(z)) * wts, z, powers)

    return numerics.composite_quad_batch(sums, w0, W, init_panels=32, max_doublings=6)


def _tilted_sums(spec: LRBSpec, t, xis: np.ndarray, powers=(0,)) -> dict[int, np.ndarray]:
    """sum/integral of z^q f(T-t, z-xi)/f(T, z) nu(dz) for each q, batched over (t, xi).

    ``t`` is one time for every state or an array broadcastable to ``xis``,
    a time per state; every t must lie in (0, horizon). Every state is
    answered on its own: its own probe window and stopping level (Brownian)
    or Jacobi order (gamma), and sums taken row by row, so a state's values
    depend on its own (t, xi) alone, not on the other states of the call,
    bit for bit. The Brownian density branch takes the time per row; atom
    terms and the gamma branch, whose Jacobi rule depends on m (T-t), run
    once per distinct time. Densities are integrated by the Brownian or the
    gamma branch; no other continuous kernel has a rule.
    """
    xis = np.asarray(xis, dtype=float)
    flat = xis.ravel()
    t = np.broadcast_to(np.asarray(t, dtype=float), xis.shape).ravel() if np.ndim(t) else float(t)
    if np.ndim(t) and t.size and np.all(t == t[0]):
        t = float(t[0])  # one shared time takes the scalar route, which gives the same bits
    out = np.zeros((flat.size, len(powers)))
    if spec.terminal.atoms:
        locs = np.array([z for z, _ in spec.terminal.atoms])
        for u, rows in _by_time(t):
            with np.errstate(over="ignore"):
                out[rows] += _power_sums(np.exp(_atom_log_terms(spec, u, flat[rows])), locs, powers)
    if spec.terminal.density is not None:
        out += _density_sums(spec, t, flat, powers)
    _check_finite(out, t, flat)
    return {q: out[:, i].reshape(xis.shape) for i, q in enumerate(powers)}


def _density_sums(spec: LRBSpec, t, flat: np.ndarray, powers) -> np.ndarray:
    """The density part of `_tilted_sums` on a flat array of states, shape (n, len(powers))."""
    if isinstance(spec.kernel, BrownianKernel):
        branch, groups = _brownian_density_sums, [(t, slice(None))]
    elif isinstance(spec.kernel, GammaKernel):
        branch, groups = _gamma_density_sums, _by_time(t)
    else:
        raise UnsupportedKernelError(
            f"no tilted-sum rule for a density under {type(spec.kernel).__name__}"
        )
    out = np.empty((flat.size, len(powers)))
    for u, rows in groups:
        xs = flat[rows]
        part = np.empty((xs.size, len(powers)))
        for start in range(0, xs.size, _CHUNK):
            sl = slice(start, start + _CHUNK)
            part[sl] = branch(spec, _rows(u, sl), xs[sl], powers)
        out[rows] = part
    return out


def _check_finite(sums: np.ndarray, t, flat: np.ndarray) -> None:
    if not np.all(np.isfinite(sums)):
        raise NumericError(
            "tilted sums are not finite", t=_t_diag(t), states=(flat.min(), flat.max())
        )


def _density_psi_many(spec: LRBSpec, t: float, xis: np.ndarray) -> np.ndarray:
    """The density part of psi_t (0 < t < horizon) on a flat array of states.

    The density branch of `_tilted_sums` on its own, with the same per-state
    rule; `psi_total_many` adds the atom terms of `_atom_log_terms` to it.
    """
    out = _density_sums(spec, t, xis, (0,))
    _check_finite(out, t, xis)
    return out[:, 0]


def psi_total_many(spec: LRBSpec, t: float, xis) -> np.ndarray:
    """Vectorized `psi_total` on an array of states (t = 0 gives all ones)."""
    xis = np.asarray(xis, dtype=float)
    t = spec._check_time(t)
    if t == 0.0:
        return np.ones_like(xis)
    return _tilted_sums(spec, t, xis, powers=(0,))[0]


def posterior_mean_many(spec: LRBSpec, t: float, xis) -> np.ndarray:
    """Vectorized conditional mean of the terminal value given the state."""
    xis = np.asarray(xis, dtype=float)
    t = spec._check_time(t)
    if t == 0.0:
        return np.full_like(xis, spec.terminal.mean())
    sums = _tilted_sums(spec, t, xis, powers=(0, 1))
    bad = sums[0] <= 0.0
    if np.any(bad):
        raise UnreachableStateError(
            f"{int(np.count_nonzero(bad))} states carry zero posterior mass"
        )
    return sums[1] / sums[0]


# ---------------------------------------------------------------------------
# transition law and terminal posterior


def transition_density(spec: LRBSpec, s: float, x: float, t: float, y):
    """Markov transition density from state x at s to y at t (s < t < horizon).

    At t = horizon the law has atoms; that direction is served by
    `terminal_posterior`, and asking for it here raises DomainError.
    """
    if spec.kernel.discrete:
        raise DomainError("lattice spec: use transition_mass")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    out = _psi_ratio(spec, s, x, t, y_arr) * spec.kernel.density(t - s, y_arr - x)
    return out if np.ndim(y) else float(out[0])


def transition_mass(spec: LRBSpec, s: float, x: int, t: float, j):
    """Lattice analogue of `transition_density` on lattice points j."""
    if not spec.kernel.discrete:
        raise DomainError("continuous spec: use transition_density")
    j_arr = np.atleast_1d(np.asarray(j))
    out = _psi_ratio(spec, s, x, t, j_arr) * spec.kernel.mass(t - s, j_arr - int(x))
    return out if np.ndim(j) else float(out[0])


def _psi_ratio(spec: LRBSpec, s: float, x: float, t: float, ys: np.ndarray) -> np.ndarray:
    """psi_t(ys) / psi_s(x), the tilt of the plain transition from (s, x) to t."""
    s, t = float(s), float(t)
    if t >= spec.horizon:
        raise DomainError("t at or beyond the horizon: use terminal_posterior")
    if not 0.0 <= s < t:
        raise DomainError(f"need 0 <= s < t, got s={s}, t={t}")
    psi_s = psi_total(spec, s, float(x))
    if psi_s <= 0.0:
        raise UnreachableStateError(f"state x={x} at s={s} has zero mass")
    return psi_total_many(spec, t, ys.astype(float)) / psi_s


def terminal_posterior(spec: LRBSpec, s: float, xi: float) -> TerminalLaw:
    """Conditional law of the terminal value given state xi at time s.

    s = 0 returns the prior unchanged. Later laws take their atom weights and
    density mass from the tilted sums that give psi, without quadrature.
    """
    s = spec._check_time(s)
    if s == 0.0:
        return spec.terminal
    xi = float(xi)
    return _posterior(spec, s, xi, psi_total(spec, s, xi))


def _posterior(spec: LRBSpec, s: float, xi: float, psi: float, origin: float = 0.0) -> TerminalLaw:
    """The law of X_T - origin given state xi at s > 0, where psi = psi_total(spec, s, xi)."""
    if psi <= 0.0:
        raise UnreachableStateError(f"state xi={xi} at s={s} has zero mass")
    atoms, atom_sum = [], 0.0
    if spec.terminal.atoms:
        with np.errstate(over="ignore"):
            terms = np.exp(_atom_log_terms(spec, s, xi)[0])
        atom_sum = float(np.sum(terms))
        atoms = [(z - origin, float(w)) for (z, _), w in zip(spec.terminal.atoms, terms / psi) if w > 0.0]
    comp, d = None, spec.terminal.density
    if d is not None:
        lo = max(d.lower, xi) if spec.kernel.nondecreasing else d.lower
        if lo < d.upper:
            logpdf = partial(
                _posterior_logpdf, spec.kernel, spec.horizon, s, xi, d.logpdf, math.log(psi), origin
            )
            comp = DensityComponent(
                pdf=partial(numerics._exp_of, logpdf),
                lower=lo - origin,
                upper=d.upper - origin,
                breakpoints=tuple(p - origin for p in d.breakpoints),
                logpdf=logpdf,
            )
    density_mass = (psi - atom_sum) / psi if comp is not None else 0.0
    return TerminalLaw._from_sums(tuple(atoms), comp, density_mass)


def _posterior_logpdf(kernel, T, s, xi, base_logpdf, log_norm, origin, w):
    """log base + log weight - log psi at z = origin + w: the density of X_T - origin.

    The kernel's step density takes w + (origin - xi), which with origin = xi
    is the increment w itself, accurate however close to 0 it comes; z - xi
    would round to 0 next to z = xi, where a gamma step density is singular.
    """
    w = np.asarray(w, dtype=float)
    z = w + origin
    out = base_logpdf(z) + _log_weight(kernel, T, s, z, w + (origin - xi)) - log_norm
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# conditional moments


def conditional_moment(spec: LRBSpec, s: float, xi: float, q: int) -> float:
    """q-th conditional moment of the terminal value given state xi at s.

    A batch of one of `_posterior_moments`. Where a tail can be heavy (the
    prior at s = 0, a gamma-kernel posterior) a geometric tail scan of z^q
    against the density must certify integrability first; tails that decay
    too slowly to certify raise InfiniteMomentError rather than returning a
    quadrature artefact. A Brownian-kernel posterior past s = 0 has every
    moment finite and is not scanned.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise DomainError(f"moment order must be an integer >= 1, got {q}")
    return float(_posterior_moments(spec, s, xi, (q,))[1][0, 0])


def _posterior_moments(spec: LRBSpec, s, xi, orders) -> tuple[np.ndarray, np.ndarray]:
    """psi and the conditional moments of the given orders at the states (s, xi).

    ``s`` and ``xi`` are broadcast against each other and flattened; returns
    psi, shape (n,), and the moments, shape (n, len(orders)). Points at
    s = 0 take the prior's moments, from `TerminalLaw.expect`, computed once;
    all later points come from one engine call with a time per row. The
    highest order's tail is certified where it can diverge: on the prior
    density at s = 0, and on each posterior density under the gamma kernel,
    whose tails go like p(z) z^(q - m s). Under the Brownian kernel past
    s = 0 the posterior is the prior times exp(-s z^2 / (2 T (T - s)) +
    linear), so every moment is finite and no scan runs.
    """
    s, xi = (a.ravel() for a in np.broadcast_arrays(np.asarray(s, float), np.asarray(xi, float)))
    bad = ~((s >= 0.0) & (s < spec.horizon))
    if np.any(bad):
        raise DomainError(f"time {s[bad][0]} outside [0, {spec.horizon})")
    q = max(orders)
    psi, moments = np.ones(s.size), np.empty((s.size, len(orders)))
    at_zero = s == 0.0
    if np.any(at_zero):
        if spec.terminal.density is not None:
            _certify_moment_tail(spec.terminal.density, q)
        moments[at_zero] = spec.terminal.expect([lambda z, k=k: z**k for k in orders])
    later = np.flatnonzero(~at_zero)
    if later.size == 0:
        return psi, moments
    sums = _tilted_sums(spec, s[later], xi[later], powers=(0, *orders))
    psi[later] = sums[0]
    zero = later[sums[0] <= 0.0]
    if zero.size:
        raise UnreachableStateError(f"state xi={xi[zero[0]]} at s={s[zero[0]]} has zero mass")
    for j, k in enumerate(orders):
        moments[later, j] = sums[k] / sums[0]
    if spec.terminal.density is not None and not isinstance(spec.kernel, BrownianKernel):
        for i in later:
            post = _posterior(spec, float(s[i]), float(xi[i]), float(psi[i]))
            if post.density is not None:
                _certify_moment_tail(post.density, q)
    return psi, moments


def _certify_moment_tail(d: DensityComponent, q: int) -> None:
    for sign, edge in ((1.0, d.upper), (-1.0, d.lower)):
        if math.isfinite(edge):
            continue
        ref = [abs(b) for b in (d.lower, d.upper, *d.breakpoints) if math.isfinite(b)]
        z = max(1.0, *(ref or [1.0])) * 2.0
        scale = 0.0
        ok = False
        for _ in range(50):
            v = abs(z) ** (q + 1) * float(d.pdf(sign * z))
            scale = max(scale, v)
            if v <= 1e-13 * max(1.0, scale):
                ok = True
                break
            z *= 2.0
        if not ok:
            raise InfiniteMomentError(
                f"cannot certify the order-{q} tail at {sign * math.inf}; "
                f"last scan value {v} at |z|={z}"
            )


# ---------------------------------------------------------------------------
# dynamic consistency


def restart(spec: LRBSpec, s: float, xi: float) -> LRBSpec:
    """Spec of the re-based process eta_u = L_(s+u) - xi given state xi at s.

    The result lives on its own clock: horizon (T - s), terminal law equal to
    the posterior translated by -xi. restart(spec, 0, 0) is spec itself.
    """
    s = spec._check_time(s)
    post = terminal_posterior(spec, s, xi)
    return LRBSpec(
        kernel=spec.kernel,
        horizon=spec.horizon - s,
        terminal=post.translate(-float(xi)),
    )


# ---------------------------------------------------------------------------
# increment (partition) laws


def _check_partition(spec: LRBSpec, alphas) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise DomainError("partition must be a non-empty 1-d sequence")
    if np.any(alphas <= 0):
        raise DomainError("partition durations must be positive")
    if abs(float(np.sum(alphas)) - spec.horizon) > 1e-12 * max(1.0, spec.horizon):
        raise DomainError(
            f"partition sums to {float(np.sum(alphas))}, horizon is {spec.horizon}"
        )
    return alphas


def _ftilde(spec: LRBSpec, total: float) -> float:
    """(p(z) + atom hits) / f(T, z) at z = total; atom hits enter additively."""
    T = spec.horizon
    if spec.kernel.discrete:
        if total != int(total):
            return 0.0
        base = float(spec.kernel.mass(T, int(total)))
        for z, w in spec.terminal.atoms:
            if int(z) == int(total):
                return w / base
        return 0.0
    base = float(spec.kernel.density(T, total))
    val = 0.0
    if spec.terminal.density is not None:
        val += float(spec.terminal.density.pdf(total))
    for z, w in spec.terminal.atoms:
        if math.isclose(z, total, rel_tol=1e-12, abs_tol=1e-12):
            val += w
    if val == 0.0:
        return 0.0
    if not (base > 0.0 and math.isfinite(base)):
        raise UnreachableStateError(
            f"terminal value {total} carries mass but kernel weight {base}"
        )
    return val / base


def increment_joint_density(spec: LRBSpec, alphas, increments) -> float:
    """Joint density of the path increments over a partition of the horizon.

    Evaluated at (y_1, ..., y_n) for durations (a_1, ..., a_n) summing to the
    horizon. When the increment total lands exactly on a terminal atom the
    returned value is the joint density of the first n-1 increments jointly
    with that terminal event (the atom weight enters in place of a density
    value). Lattice kernels use masses throughout. The value is symmetric
    under simultaneous permutation of durations and increments.
    """
    alphas = _check_partition(spec, alphas)
    ys = np.asarray(increments, dtype=float)
    if ys.shape != alphas.shape:
        raise DomainError("increments and partition must have equal length")
    return _kernel_joint(spec, float(np.sum(ys)), zip(alphas, ys))


def _kernel_joint(spec: LRBSpec, total: float, pairs) -> float:
    """_ftilde at the increment total times the kernel factors of (duration, increment) pairs."""
    mix = _ftilde(spec, total)
    if mix == 0.0:
        return 0.0
    if spec.kernel.discrete:
        logs = sum(float(spec.kernel.log_mass(a, int(y))) for a, y in pairs)
    else:
        logs = sum(float(spec.kernel.log_density(a, y)) for a, y in pairs)
    return 0.0 if logs == -math.inf else mix * math.exp(logs)


def reordered_increment_conditional(spec: LRBSpec, observed, query) -> float:
    """Conditional joint density of further increments given observed ones.

    ``observed`` and ``query`` are sequences of (duration, increment) pairs;
    together the durations must partition the horizon. The value depends on
    the observed set only through its total duration and total increment,
    which is the exchangeability property tests exercise. With no observed
    pairs this reduces to `increment_joint_density` of the query.
    """
    observed = [(float(a), float(y)) for a, y in observed]
    query = [(float(a), float(y)) for a, y in query]
    if not query:
        raise DomainError("query must contain at least one increment")
    _check_partition(spec, [a for a, _ in (*observed, *query)])
    t_obs = sum(a for a, _ in observed)
    s_obs = sum(y for _, y in observed)
    psi = psi_total(spec, t_obs, s_obs)
    if psi <= 0.0:
        raise UnreachableStateError(f"observed state ({t_obs}, {s_obs}) has zero mass")
    return _kernel_joint(spec, s_obs + sum(y for _, y in query), query) / psi
