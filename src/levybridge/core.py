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
from functools import partial, reduce

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
from .kernels import BrownianKernel, GammaKernel, Kernel, _per_time
from .laws import TerminalLaw
from .numerics import DensityComponent, TabulatedQuantile

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


def _atom_log_terms(spec: LRBSpec, t, xi) -> np.ndarray:
    """log of w_i * f(T-t, z_i - xi) / f(T, z_i), shape (n_atoms, n_xi): one row per atom.

    ``t`` is one time or an array of one per state, shaped like ``xi``.
    Callers sum over the atoms row after row, ``reduce(np.add, terms)``:
    ``np.sum(axis=0)`` would add a single state's terms pairwise from 8
    atoms on, so a value would depend on the batch.
    """
    locs = np.array([z for z, _ in spec.terminal.atoms])
    logw = np.log([w for _, w in spec.terminal.atoms])
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if spec.kernel.discrete:
        base = spec.kernel.log_mass(spec.horizon, locs.astype(int))
        steps = spec.kernel.log_mass(
            spec.horizon - t, (locs[:, None] - xi[None, :]).astype(int)
        )
    else:
        base = spec.kernel.log_density(spec.horizon, locs)
        steps = spec.kernel.log_density(spec.horizon - t, locs[:, None] - xi[None, :])
    return steps + (logw - base)[:, None]


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
# integrand per (state, node), exponentiates it once and sums it against the
# node weights times powers of the rule's coordinate x, which recombine into
# the sums of z^q, tile by tile of states. A time ``t`` is one float or an
# array of one per state, told apart by isinstance (far cheaper than np.ndim
# on a float in a loop over tiles).

_PROBE = np.linspace(0.0, 1.0, 33)
_CHUNK = 4096  # states per branch call: bounds the per-state arrays of a call


def _by_time(t):
    """(time, rows) for each distinct time of ``t``; a scalar time has rows slice(None)."""
    if not isinstance(t, np.ndarray):
        return [(t, slice(None))]
    times, which = np.unique(t, return_inverse=True)
    return [(float(u), np.flatnonzero(which == i)) for i, u in enumerate(times)]


def _rows(t, r):
    """The times of rows ``r``, or the values of rows ``r`` of each per-row value in a tuple."""
    if isinstance(t, tuple):
        return tuple(_rows(c, r) for c in t)
    return t[r] if isinstance(t, np.ndarray) else t


def _t_diag(t):
    """The time of a diagnostic: the time, or the (min, max) range of per-state times."""
    lo, hi = float(np.min(t)), float(np.max(t))
    return lo if lo == hi else (lo, hi)


def _brownian_rows(T, t):
    """-1 / (2 (T-t)) and log(T / (T-t)) / 2 for `_brownian_log_weight`, one value or one per
    state. The log is math.log once per distinct time: np.log can differ from it by an ulp."""
    return -0.5 / (T - t), _per_time(lambda u: 0.5 * math.log(T / (T - u)), t)


def _brownian_log_weight(T, rows, xis, z):
    """log f(T-t, z - xi) - log f(T, z), Brownian kernel, shaped like ``z``: the closed form
    -(z - xi)^2 / (2 (T-t)) + z^2 / (2 T) + log(T / (T-t)) / 2. ``xis`` and ``rows`` (their
    times' `_brownian_rows`) come shaped for ``z``."""
    scale, shift = rows
    return scale * (z - xis) ** 2 + np.square(z) * (0.5 / T) + shift


def _expansion(T, t, rows, xis, d, base, step):
    """A Brownian row's exponent E in its rule's node coordinate x, z = base + step x: the log weight
    (``rows`` its `_brownian_rows`) plus a declared `log_quadratic`, with peak x* and z^2 coefficient
    a2 = -t / (2 T (T-t)) + c2 < 0. Returns per row the `_exponent` terms (x_p = x* clipped to
    [0, 1], b1 = 2 b2 (x_p - x*), b2 = a2 step^2, the log weight at z_p in direct form) and z_p =
    base + step x_p, held inside the support, past whose upper end it can round at x_p = 1."""
    c2, c1 = d.log_quadratic or (0.0, 0.0)
    a2 = rows[0] * (t / T) + c2
    x = (xis * (rows[0] / a2) - 0.5 * c1 / a2 - base) / step
    b2 = a2 * step * step
    xp = np.minimum(np.maximum(x, 0.0), 1.0)
    zp = np.minimum(base + step * xp, d.upper)
    return (xp, 2.0 * b2 * (xp - x), b2, _brownian_log_weight(T, rows, xis, zp)), zp


def _exponent(x, terms, d, base, step):
    """A row's exponent at its nodes x less E(z_p): (x - x_p) (b1 + b2 (x - x_p)) by Horner, from
    the ``terms`` (x_p, b1, b2, k) of `_expansion` shaped for ``x``, plus, for a prior that declares
    no `log_quadratic`, its logpdf at z = base + step x and k (the log weight at z_p less a shift)."""
    xp, b1, b2, k = terms
    v = np.subtract(x, xp)
    e = np.multiply(v, b2)
    e += b1
    e *= v
    if d.log_quadratic is None:
        e += d.logpdf(base + step * x)
        e += k
    return e


def _log_integrand_probe(T, t, rows, xis, plo, phi, d):
    """Locate where each state's weight-times-density integrand actually lives.

    The weight can amplify the density's far tail (its log is convex minus
    the pinning term), so the density's own effective interval is not a safe
    window. A coarse log-space scan of each row's window [plo, phi] keeps
    the probe points within e^-60 of that row's peak. Returns per row the
    window around them, the number kept and the peak log integrand, which is
    `_exponent` of the window's `_expansion` (less E(z_p) on a declared
    prior). ``rows`` holds the `_brownian_rows` of the times ``t``. Tiles are
    laid out (points, states): the reductions run along the long state axis."""
    span = phi - plo
    terms, _ = _expansion(T, t, rows, xis, d, plo, span)

    def tile(r):
        total = _exponent(_PROBE[:, None], tuple(v[r] for v in terms), d, plo[r], span[r])
        peak = np.max(total, axis=0)
        keep = total >= peak - 60.0
        first, last = np.argmax(keep, axis=0), _PROBE.size - 1 - np.argmax(keep[::-1], axis=0)
        return np.column_stack([peak, first, last, np.sum(keep, axis=0)])

    peak, first, last, kept = numerics._tiled(tile, xis.size, _PROBE.size).T
    if not np.all(np.isfinite(peak)):
        bad = xis[~np.isfinite(peak)]
        raise NumericError("tilted integrand underflows on the whole probe window",
                           t=_t_diag(t), states=(bad.min(), bad.max()))
    step = span / (_PROBE.size - 1)
    lo = np.maximum(plo, plo + (first - 1.0) * step)
    hi = np.minimum(phi, plo + (last + 1.0) * step)
    return lo, hi, kept, peak


def _windows(spec, t, xis, q=0, rows=None):
    """Where the engine integrates the density part of each state's sums, for z^q. Brownian
    kernel: [lo, hi] in z, the prior's 1e-16 mass interval and 12 bridge widths about the state's
    centre narrowed by the probe, and each row's probe peak (less E(z_p) where the prior declares
    `log_quadratic`); ``rows``, the `_brownian_rows` of ``t``, are computed here when not given.
    Gamma kernel: [w0, w1] in z - xi and None; w0 = 0 from a state inside the prior's mass
    interval (to the support's top or past `_gamma_spans`), w0 > 0 below it, w1 <= 0 above the
    support."""
    d, T = spec.terminal.density, spec.horizon
    lo_p, hi_p = numerics.mass_interval(d, 1e-16)
    if not isinstance(spec.kernel, BrownianKernel):
        inside = xis >= lo_p
        w0 = np.where(inside, 0.0, lo_p - xis)
        w1 = np.where(inside, d.upper - xis, hi_p - xis)
        grow = np.flatnonzero(np.isinf(w1))  # from the state, on a prior unbounded above
        if grow.size:
            a, xg = spec.kernel.m * (T - t), xis[grow]
            span = _gamma_spans(partial(_gamma_log_g, spec), xg, a, q, hi_p - lo_p)
            w1[grow] = np.maximum(hi_p - xg, span)
        return w0, w1, None
    rows = _brownian_rows(T, t) if rows is None else rows
    sd = np.sqrt(T * (T - t) / t)
    centers = xis * (T / t)
    plo = np.maximum(d.lower, np.minimum(lo_p, centers - 12.0 * sd))
    phi = np.minimum(d.upper, np.maximum(hi_p, centers + 12.0 * sd))
    lo, hi, kept, row_max = _log_integrand_probe(T, t, rows, xis, plo, phi, d)
    # a row whose integrand spans fewer than 4 probe points, 1/8 of the window (a wide prior
    # window around a sharp weight), is probed again inside it while it shrinks
    todo = np.flatnonzero((kept < 4) & (hi - lo < 0.5 * (phi - plo)))
    while todo.size:
        plo, phi = lo[todo], hi[todo]
        lo[todo], hi[todo], kept, row_max[todo] = _log_integrand_probe(
            T, _rows(t, todo), _rows(rows, todo), xis[todo], plo, phi, d
        )
        todo = todo[(kept < 4) & (hi[todo] - lo[todo] < 0.5 * (phi - plo))]
    return lo, hi, row_max


def _brownian_density_sums(spec, t, xis, powers, windows=None):
    d, T = spec.terminal.density, spec.horizon
    rows = _brownian_rows(T, t)
    lo, hi, peak = _windows(spec, t, xis, rows=rows) if windows is None else windows
    width = hi - lo
    # each row is shifted by E(z_p), its peak, on a declared prior, else by its probe peak
    (xp, b1, b2, wp), zp = _expansion(T, t, rows, xis, d, lo, width)
    shift = peak if d.log_quadratic is None else wp + d.logpdf(zp)
    terms = xp, b1, b2, wp - shift

    def values(x, r):
        e = _exponent(x, tuple(v[r, None] for v in terms), d, lo[r, None], width[r, None])
        return np.exp(e, out=e)

    res = numerics.composite_quad_batch(values, lo, hi, powers)
    res *= np.exp(shift)[:, None]
    # a Brownian psi is never 0: a zero row means the sums underflowed
    if 0 in powers and not np.all(res[:, powers.index(0)] > 0.0):
        raise NumericError("tilted integrand underflows", t=_t_diag(t), states=(xis.min(), xis.max()))
    return res


def _log_weight(kernel, T, t, z, step):
    """log of f(T-t, step)/f(T, z) elementwise, step = z - xi; -inf off the kernel support."""
    ld_base = kernel.log_density(T, z)
    ok = np.isfinite(ld_base)
    return np.where(ok, kernel.log_density(T - t, step) - np.where(ok, ld_base, 0.0), -np.inf)


def _gamma_density_sums(spec, t, xis, powers, windows=None):
    """Tilted integrals for the gamma kernel at one time t, written as e^xi * C *
    integral_w0^W w^(a-1) g(xi + w) (xi + w)^q dw with g(z) = z^(1-mT) p(z), on the windows
    of `_windows`. A row from its state (w0 = 0) keeps its Gauss-Jacobi 48 sums, which absorb
    w^(a-1), where they agree with Gauss-Jacobi 32. The rows where they do not (g singular or
    flat next to the state) and the rows from above their state take `_edge_tilted`."""
    a = spec.kernel.m * (spec.horizon - t)
    log_c = _sp.gammaln(spec.kernel.m * spec.horizon) - _sp.gammaln(a)
    log_g = partial(_gamma_log_g, spec)
    w0, w1, _ = _windows(spec, t, xis, max(powers)) if windows is None else windows
    out = np.zeros((xis.size, len(powers)))
    live = np.flatnonzero(w1 > w0)  # w0 >= 0; above a bounded prior w1 <= 0
    jac, edge = live[w0[live] == 0.0], live[w0[live] > 0.0]
    res, agree = _jacobi_tilted(log_g, xis[jac], w1[jac], a, powers)
    edge = np.concatenate([jac[~agree], edge])
    # a far state overflows here; _check_finite reports it
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(xis + log_c)[:, None]
        out[jac] = res * scale[jac]  # rows that take the edge rule are written again
        if edge.size:
            out[edge] = _edge_tilted(log_g, xis[edge], w0[edge], w1[edge], a, powers, t) * scale[edge]
    return out


def _gamma_log_g(spec, z, q=0):
    """log of z^(1-mT+q) p(z), with the kernel-support guard: (1 - mT + k) log z + r(z) for a
    prior declaring logpdf = k log z + r(z) at 0 (one log per node, none where that power is 0,
    as at q = 0 on a Gamma(mT, scale) prior), else (1 - mT) log z + logpdf(z)."""
    d, mT = spec.terminal.density, spec.kernel.m * spec.horizon
    declared = d.edge_power is not None and d.lower == 0.0
    power, rest = (1.0 - mT + d.edge_power, d.edge_rest) if declared else (1.0 - mT, d.logpdf)
    z = np.maximum(z, 1e-300)
    r = rest(z)
    if power + q == 0:
        return r
    np.log(z, out=z)
    z *= power + q
    z += r
    return z


def _gamma_spans(log_g, xg, a, q, width):
    """Per-state span W past which w^(a-1) g(xi + w) (xi + w)^q is below e^-60 of its peak.

    For priors unbounded above; spans double from 1/16 to 4096 prior widths
    (the caller never cuts below hi_p - xi). A decaying w^(a-1) is left out.
    """
    w = width * 2.0 ** np.arange(-4.0, 13.0)
    lw = (max(a - 1.0, 0.0) * np.log(w))[:, None]

    def tile(sl):
        lg = log_g(np.add.outer(w, xg[sl]), q)  # (spans, states): reduced along the states
        lg += lw
        peak = np.max(lg, axis=0)
        return np.column_stack([peak, np.argmax((lg >= peak - 60.0)[::-1], axis=0)])

    with np.errstate(divide="ignore"):
        peak, from_top = numerics._tiled(tile, xg.size, w.size).T
    last = w.size - 1 - from_top.astype(int)
    if not np.all(np.isfinite(peak)) or np.any(last == w.size - 1):
        raise NumericError(
            "tilted integrand underflows or does not decay on the probed spans",
            states=(xg.min(), xg.max()), window=(w[0], w[-1]),
        )
    return w[last + 1]


def _jacobi_tilted(log_g, xg, W, a, powers):
    """Gauss-Jacobi sums of order 48 from each state over [0, W], and whether each row's
    order-32 sums agree with them to 1e-11 relative (48 is far enough above 32 to bound its error).
    g's moments in x = (1 + node) / 2 (`numerics._moment_rows`) recombine per power of z = xi + W x."""
    sums, degree = [], max(powers)
    for n in (32, 48):
        half = (1.0 + numerics._jacobi_rule(n, a - 1.0)[0]) / 2.0
        moments = numerics._moment_rows(n, degree, a - 1.0)

        def tile(r):
            z = W[r, None] * half
            z += xg[r, None]
            e = log_g(z)
            return np.einsum("rk,jk->rj", np.exp(e, out=e), moments)

        m = numerics._tiled(tile, xg.size, n)
        sums.append((W / 2.0)[:, None] ** a * (numerics._power_sums(m, xg, W, powers) if degree else m))
    return sums[1], np.all(np.abs(sums[1] - sums[0]) <= 1e-11 * np.abs(sums[1]), axis=1)


def _edge_tilted(log_g, xg, w0, W, a, powers, t):
    """Sums over [w0, W] by `numerics.composite_quad_batch` over s in [-6, 6], the tanh-sinh map
    of each row's window in u = w^c, c = min(a, 1), whose du takes in w^(a-1) when a < 1 (in w
    the cut at s = -6 would drop a mass near e^(-634 a)). u is the map's own distance from an
    end, and log g + (a/c - 1) log u + log du/ds - log c one exponent. A row whose integrand at
    s = +-6 is above 1e-15 of its sums does not decay (psi = inf at (t, 0) if k <= m t): raises."""
    c = min(a, 1.0)
    u0, U = w0**c, W**c

    def values(x, r):
        # every row's window maps onto the same nodes s, so the map takes one row of them
        s = -numerics._DE_RANGE + 2.0 * numerics._DE_RANGE * x[:1]
        dist, log_du = numerics._ts_map(u0[r, None], U[r, None], s)
        log_u = np.log(np.where(s < 0.0, u0[r, None] + dist, U[r, None] - dist))
        z = xg[r, None] + np.exp(log_u / c)
        e = log_g(z) + (a / c - 1.0) * log_u + (log_du - math.log(c))
        g = np.exp(e, out=e)
        return g[:, None, :] if powers == (0,) else np.stack([g * z**q if q else g for q in powers], 1)

    span = np.full(xg.size, numerics._DE_RANGE)
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent row fails below
        try:
            res = numerics.composite_quad_batch(values, -span, span)
        except NumericError as err:
            raise NumericError(f"edge rule: {err}", t=t, states=(xg.min(), xg.max()), a=a) from None
        ends = np.abs(values(np.array([[0.0, 1.0]]), np.arange(xg.size)))
    bad = ~np.all(ends <= 1e-15 * np.abs(res)[:, :, None], axis=(1, 2))
    if np.any(bad):
        raise NumericError("tilted integrand does not decay at the ends of the edge rule",
                           t=t, states=(xg[bad].min(), xg[bad].max()), a=a)
    return res


def _tilted_sums(spec: LRBSpec, t, xis: np.ndarray, powers=(0,)) -> dict[int, np.ndarray]:
    """sum/integral of z^q f(T-t, z-xi)/f(T, z) nu(dz) for each q, batched over (t, xi).

    ``t`` is one time for every state or an array broadcastable to ``xis``,
    a time per state, each in (0, horizon). A state's values depend on its
    own (t, xi) alone, bit for bit (see the engine notes above). The atom
    terms and the Brownian branch take the time per row; the gamma branch,
    whose Jacobi rule depends on m (T-t), runs once per distinct time. No
    other continuous kernel has a rule.
    """
    xis = np.asarray(xis, dtype=float)
    flat = xis.ravel()
    t = np.broadcast_to(np.asarray(t, dtype=float), xis.shape).ravel() if np.ndim(t) else float(t)
    if np.ndim(t) and t.size and np.all(t == t[0]):
        t = float(t[0])  # one shared time takes the scalar route, which gives the same bits
    out = np.zeros((flat.size, len(powers)))
    if spec.terminal.atoms:
        locs = np.array([z for z, _ in spec.terminal.atoms])[:, None]
        with np.errstate(over="ignore"):
            g = np.exp(_atom_log_terms(spec, t, flat))
        for i, q in enumerate(powers):
            out[:, i] += reduce(np.add, g if q == 0 else g * locs**q)
    if spec.terminal.density is not None:
        out += _density_sums(spec, t, flat, powers)
    _check_finite(out, t, flat)
    return {q: out[:, i].reshape(xis.shape) for i, q in enumerate(powers)}


def _density_sums(spec: LRBSpec, t, flat: np.ndarray, powers, windows=None) -> np.ndarray:
    """The density part of `_tilted_sums` on a flat array of states, shape (n, len(powers)).
    ``windows``, the states' `_windows` for max(powers), are computed per chunk when not given."""
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
            win = None if windows is None else _rows(_rows(windows, rows), sl)
            part[sl] = branch(spec, _rows(u, sl), xs[sl], powers, win)
        out[rows] = part
    return out


def _check_finite(sums: np.ndarray, t, flat: np.ndarray) -> None:
    if not np.all(np.isfinite(sums)):
        raise NumericError(
            "tilted sums are not finite", t=_t_diag(t), states=(flat.min(), flat.max())
        )


def _density_psi_many(spec: LRBSpec, t: float, xis: np.ndarray, windows=None) -> np.ndarray:
    """The density part of psi_t (0 < t < horizon) on a flat array of states.

    The density branch of `_tilted_sums` on its own, with the same per-state
    rule; `psi_total_many` adds the atom terms of `_atom_log_terms` to it.
    ``windows`` are the states' `_windows`, computed per chunk when not given.
    """
    out = _density_sums(spec, t, xis, (0,), windows)
    _check_finite(out, t, xis)
    return out[:, 0]


def _finite_states(xis, what: str = "states") -> np.ndarray:
    xis = np.asarray(xis, dtype=float)
    if not np.all(np.isfinite(xis)):
        raise DomainError(f"{what} must be finite, got {xis[~np.isfinite(xis)].flat[0]}")
    return xis


def psi_total_many(spec: LRBSpec, t: float, xis) -> np.ndarray:
    """Vectorized `psi_total` on an array of states (t = 0 gives all ones)."""
    xis = _finite_states(xis)
    t = spec._check_time(t)
    if t == 0.0:
        return np.ones_like(xis)
    return _tilted_sums(spec, t, xis, powers=(0,))[0]


def posterior_mean_many(spec: LRBSpec, t: float, xis) -> np.ndarray:
    """Vectorized conditional mean of the terminal value given the state."""
    xis = _finite_states(xis)
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
            terms = np.exp(_atom_log_terms(spec, s, xi)[:, 0])
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
                quantile=TabulatedQuantile(logpdf, partial(_posterior_edges, spec, s, xi, origin)),
                logpdf=logpdf,
            )
    density_mass = (psi - atom_sum) / psi if comp is not None else 0.0
    return TerminalLaw._from_sums(tuple(atoms), comp, density_mass)


def _posterior_edges(spec: LRBSpec, s: float, xi: float, origin: float) -> tuple[float, ...]:
    """The edges of `_increment_edges` at the state xi, in z - origin."""
    return tuple(_increment_edges(spec, s, np.array([xi]))[0] + (xi - origin))


def _increment_edges(spec: LRBSpec, s: float, xis: np.ndarray, windows=None) -> np.ndarray:
    """Per state, the engine's window of psi_s (`_windows`, computed here when not given) in the
    increment z - xi, cut at the prior's breakpoints clipped into it: shape (len(xis), breakpoints + 2)."""
    lo, hi, peak = _windows(spec, s, xis) if windows is None else windows
    if peak is not None:  # Brownian windows are in z, gamma windows in z - xi
        lo, hi = lo - xis, hi - xis
    cuts = np.array(spec.terminal.density.breakpoints)[None, :] - xis[:, None]
    return np.column_stack([lo, np.clip(cuts, lo[:, None], hi[:, None]), hi])


def _increment_quantiles(spec: LRBSpec, s: float, xis, log_mass, rows, u, windows):
    """Quantile u[i] of X_T - xi, xi = xis[rows[i]], under the density part of the law of X_T given
    the state xi at s > 0, whose mass in psi_s(xi) has log ``log_mass`` per state: one
    `numerics.tabulated_quantiles` over the rows of `_increment_edges` on the states' ``windows``."""
    d = spec.terminal.density

    def logpdf(w, r):
        x = xis[r]
        return _posterior_logpdf(spec.kernel, spec.horizon, s, x, d.logpdf, log_mass[r], x, w)

    return numerics.tabulated_quantiles(logpdf, _increment_edges(spec, s, xis, windows), rows, u)


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
    highest order's tail is certified where it can diverge: on the prior at
    s = 0, and under the gamma kernel, whose posteriors at s have tails
    p(z) z^(q - m s) up to a factor tending to 1, on the prior times z^(-m s)
    once per distinct s. A Brownian posterior past s = 0 is the prior times
    exp(-s z^2 / (2 T (T - s)) + linear): every moment is finite, no scan.
    """
    s, xi = (a.ravel() for a in np.broadcast_arrays(np.asarray(s, float), _finite_states(xi)))
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
        for u in np.unique(s[later]):
            _certify_moment_tail(spec.terminal.density, q - spec.kernel.m * u)
    return psi, moments


def _certify_moment_tail(d: DensityComponent, q: float) -> None:
    """Scan z^(q+1) pdf(z) out along each infinite tail of ``d`` until it is negligible."""
    ref = [abs(b) for b in (d.lower, d.upper, *d.breakpoints) if math.isfinite(b)]
    for sign, edge in ((1.0, d.upper), (-1.0, d.lower)):
        if math.isfinite(edge):
            continue
        z, scale = 2.0 * max([1.0, *ref]), 0.0
        for _ in range(50):
            v = abs(z) ** (q + 1) * float(d.pdf(sign * z))
            scale = max(scale, v)
            if v <= 1e-13 * max(1.0, scale):
                break
            z *= 2.0
        else:
            raise InfiniteMomentError(
                f"cannot certify the z^{q:g} moment tail at {sign * math.inf}; "
                f"last scan value {v} at |z|={z}"
            )


# ---------------------------------------------------------------------------
# dynamic consistency


def restart(spec: LRBSpec, s: float, xi: float) -> LRBSpec:
    """Spec of the re-based process eta_u = L_(s+u) - xi given state xi at s.

    The result lives on its own clock: horizon (T - s), terminal law equal to
    the posterior translated by -xi. restart(spec, 0, 0) is spec itself.
    """
    s, xi = spec._check_time(s), float(xi)
    # built in the increment z - xi, so that a gamma posterior keeps its digits next to 0
    law = _posterior(spec, s, xi, psi_total(spec, s, xi), xi) if s else spec.terminal.translate(-xi)
    return LRBSpec(kernel=spec.kernel, horizon=spec.horizon - s, terminal=law)


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
    ys = _finite_states(increments, "increments")
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
    _finite_states([y for _, y in (*observed, *query)], "increments")
    t_obs = sum(a for a, _ in observed)
    s_obs = sum(y for _, y in observed)
    psi = psi_total(spec, t_obs, s_obs)
    if psi <= 0.0:
        raise UnreachableStateError(f"observed state ({t_obs}, {s_obs}) has zero mass")
    return _kernel_joint(spec, s_obs + sum(y for _, y in query), query) / psi
