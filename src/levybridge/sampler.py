"""Path sampling for terminal-conditioned processes.

Two independent routes produce the same law:

* terminal-first (the default): draw the terminal value from its law, then
  walk the pinned bridge with the kernel's exact conditional steps;
* markov-chain: walk the unpinned state forward; every step, the horizon
  included, inverts the Markov transition law on one grid, batched over
  all paths (lattice kernels sum the transition masses).

The second route never touches the bridge conditionals or the terminal
posterior, which is what makes the cross-validation tests between the two
meaningful.

Reproducibility contract: path i of a bulk simulation is generated from the
substream (seed, i) regardless of worker count or batching, so equal seeds
give bit-identical path sets.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from . import bridge as _bridge
from . import core as _core
from . import numerics
from .errors import DomainError, NumericError
from .kernels import Kernel
from .numerics import DensityComponent
from .paths import SamplePath

__all__ = [
    "RandomStream",
    "SamplePath",
    "draw_terminal",
    "sample_levy_paths",
    "sample_lrb_terminal_first",
    "sample_lrb_markov",
    "sample_marginals",
    "simulate_paths",
]


@dataclass(frozen=True)
class RandomStream:
    """A named substream of a master seed.

    Substreams with distinct indices are statistically independent and do not
    depend on how many other substreams exist, which keeps parallel runs
    reproducible path by path.
    """

    seed: int
    substream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.substream,))
        return np.random.default_rng(ss)


def _check_grid(spec: _core.LRBSpec, times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("need a non-empty 1-d time grid")
    if np.any(np.diff(times) <= 0):
        raise DomainError("time grid must be strictly increasing")
    if times[0] <= 0.0 or times[-1] > spec.horizon:
        raise DomainError(f"grid must lie inside (0, {spec.horizon}]")
    return times


# ---------------------------------------------------------------------------
# terminal draws


def _density_draw(d: DensityComponent, rng, size: int) -> np.ndarray:
    if d.sampler is not None:
        return np.asarray(d.sampler(rng, size=size), dtype=float)
    lo, hi = numerics.mass_interval(d, 1e-14)
    us = rng.uniform(size=size)
    out = np.empty(size)
    pdf = lambda z: float(d.pdf(z))
    for i, u in enumerate(us):
        out[i] = numerics.inverse_cdf(pdf, lo, hi, float(u), breakpoints=d.breakpoints)
    return out


def draw_terminal(spec: _core.LRBSpec, rng, size=None):
    """Draw terminal values from the spec's terminal law."""
    law = spec.terminal
    scalar = size is None
    n = 1 if scalar else int(size)
    u = rng.uniform(size=n)
    out = np.empty(n)
    k = len(law.atoms)
    if k:
        locs = np.array([z for z, _ in law.atoms])
        cum = np.cumsum([w for _, w in law.atoms])
        idx = np.searchsorted(cum, u, side="right")
    else:
        idx = np.full(n, 0, dtype=int)
        locs = np.empty(0)
    from_density = idx >= k if k else np.ones(n, dtype=bool)
    if k:
        hit = ~from_density
        out[hit] = locs[idx[hit]]
    n_dens = int(np.count_nonzero(from_density))
    if n_dens:
        if law.density is None:
            # numerically u landed past the last cumulative atom weight
            out[from_density] = locs[-1]
        else:
            out[from_density] = _density_draw(law.density, rng, n_dens)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# plain (unconditioned) paths


def sample_levy_paths(kernel: Kernel, times, n_paths: int, rng) -> np.ndarray:
    """Plain stationary-independent-increment paths, shape (n_paths, len(times))."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0) or times[0] <= 0:
        raise DomainError("time grid must be strictly increasing and positive")
    out = np.empty((int(n_paths), times.size))
    prev_t = 0.0
    level = np.zeros(int(n_paths))
    for j, t in enumerate(times):
        level = level + kernel.sample(rng, t - prev_t, size=level.shape)
        out[:, j] = level
        prev_t = t
    return out


# ---------------------------------------------------------------------------
# terminal-first sampling


def sample_lrb_terminal_first(spec: _core.LRBSpec, times, rng) -> SamplePath:
    """One conditioned path: draw the terminal value, then bridge to it."""
    times = _check_grid(spec, times)
    values = _terminal_first_values(spec, times, rng, 1)[0]
    return SamplePath(times=times, values=values)


def _terminal_first_values(spec, times, rng, n_paths: int) -> np.ndarray:
    z = np.atleast_1d(draw_terminal(spec, rng, size=n_paths))
    values = np.empty((n_paths, times.size))
    cur_t = 0.0
    cur_x = np.zeros(n_paths)
    for j, t in enumerate(times):
        if t == spec.horizon:
            values[:, j] = z
        else:
            values[:, j] = _bridge.sample_step(
                spec.kernel, t - cur_t, spec.horizon - t, cur_x, z, rng
            )
        cur_t = t
        cur_x = values[:, j]
    return values


def sample_marginals(
    spec: _core.LRBSpec, times, n_paths: int, rng, *, method: str = "terminal_first"
) -> np.ndarray:
    """Vectorized bulk sampling; returns values of shape (n_paths, len(times)).

    Bulk draws share one generator, so they are reproducible for a fixed
    seed but are not the per-path substream protocol of `simulate_paths`.
    """
    times = _check_grid(spec, times)
    if int(n_paths) < 1:
        raise DomainError(f"n_paths must be at least 1, got {n_paths}")
    if method == "terminal_first":
        return _terminal_first_values(spec, times, rng, int(n_paths))
    if method == "markov":
        return _markov_values(spec, times, rng, int(n_paths))
    raise DomainError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# markov-chain sampling by grid inversion in the kernel's quantile coordinate

# probit-spaced cell edges: cells shrink toward both ends of (0, 1), where a
# tilt that grows with the state (psi_t ~ e^{c xi} on a gamma law) keeps mass
_U_GRID = _sp.ndtr(np.linspace(-7.0, 7.0, 1025))
_MASS_RTOL = 1e-3


def _markov_step_continuous(spec, s, t, x_arr, rng) -> np.ndarray:
    """Advance all paths from states x at time s to time t (t <= horizon).

    With w = F^-1_{t-s}(u), the next state x + w has density
    psi_t(x + w) / psi_s(x) in u before the horizon. At the horizon a path
    first picks an atom, with odds from the atom terms of psi_s, or the
    density part, whose density in u is p(x + w) / f(T, x + w) / psi_s(x).
    The density is taken constant on each cell at its midpoint; states where
    it can jump (atoms under a subordinator before the horizon, the
    density's finite edges at it) are extra cell edges. A row whose grid
    mass misses its share of psi_s by more than _MASS_RTOL of psi_s raises.
    """
    T, n, dt = spec.horizon, x_arr.size, t - s
    psi_s = _core.psi_total_many(spec, s, x_arr)
    out, target = np.full(n, np.nan), psi_s
    if t == T:
        pick = rng.uniform(size=n) * psi_s
        if spec.terminal.atoms:
            with np.errstate(over="ignore"):
                cum = np.cumsum(np.exp(_core._atom_log_terms(spec, s, x_arr)), axis=1)
            idx = (cum < pick[:, None]).sum(axis=1)
            if spec.terminal.density is None:
                # rounding can leave pick past the last atom term
                idx = np.minimum(idx, cum.shape[1] - 1)
            hit = idx < cum.shape[1]
            out[hit] = np.array([z for z, _ in spec.terminal.atoms])[idx[hit]]
            target = psi_s - cum[:, -1]
    rows = np.nonzero(np.isnan(out))[0]
    v = rng.uniform(size=n)[rows]
    if rows.size == 0:
        return out
    x, d = x_arr[rows], spec.terminal.density
    if t < T:
        jumps = [z for z, _ in spec.terminal.atoms] if spec.kernel.nondecreasing else []
    else:
        jumps = [b for b in (d.lower, *d.breakpoints, d.upper) if math.isfinite(b)]
    u_jump = spec.kernel.cdf(dt, np.asarray(jumps)[None, :] - x[:, None])
    edges = np.broadcast_to(_U_GRID, (x.size, _U_GRID.size))
    edges = np.sort(np.hstack([edges, np.clip(u_jump, _U_GRID[0], _U_GRID[-1])]), axis=1)
    width = np.diff(edges, axis=1)
    nodes = x[:, None] + spec.kernel.quantile(dt, 0.5 * (edges[:, 1:] + edges[:, :-1]))
    if t < T:
        h = _core.psi_total_many(spec, t, nodes.ravel()).reshape(nodes.shape)
    else:
        with np.errstate(divide="ignore", over="ignore"):
            lb = spec.kernel.log_density(T, nodes)
            lb_ok = np.isfinite(lb)
            h = np.where(lb_ok, np.exp(np.log(d.pdf(nodes)) - np.where(lb_ok, lb, 0.0)), 0.0)
    cdf = np.hstack([np.zeros((x.size, 1)), np.cumsum(h * width, axis=1)])
    miss = np.abs(cdf[:, -1] - target[rows]) / psi_s[rows]
    if not np.all(miss <= _MASS_RTOL):
        i = int(np.argmax(np.nan_to_num(miss, nan=np.inf)))
        raise NumericError(
            "markov step: grid mass misses psi", t=t, states=(x.min(), x.max()),
            miss=float(miss[i]), state=float(x[i]), psi=float(psi_s[rows][i]),
        )
    # invert the piecewise-linear cdf in the cell that holds v * mass
    c = v * cdf[:, -1]
    r = np.arange(x.size)
    idx = np.clip((cdf < c[:, None]).sum(axis=1), 1, width.shape[1])
    c_lo, c_hi = cdf[r, idx - 1], cdf[r, idx]
    frac = np.where(c_hi > c_lo, (c - c_lo) / (c_hi - c_lo), 0.5)
    out[rows] = x + spec.kernel.quantile(dt, edges[r, idx - 1] + frac * width[r, idx - 1])
    return out


def _markov_step_lattice(spec, s, t, x_arr, rng) -> np.ndarray:
    """Lattice analogue of `_markov_step_continuous`, summed exactly.

    At the horizon the tilt is w_i / Q_T(z_i) on the atoms z_i.
    """
    top = int(spec.terminal.atoms[-1][0])
    # the tilt on every lattice state any path can reach, in one batch
    base = int(np.min(x_arr))
    if t < spec.horizon:
        tilt = _core.psi_total_many(spec, t, np.arange(base, top + 1, dtype=float))
    else:
        tilt = np.zeros(top + 1 - base)
        for z, w in spec.terminal.atoms:
            if z >= base:
                tilt[int(z) - base] = w / float(spec.kernel.mass(spec.horizon, int(z)))
    out = np.empty_like(x_arr)
    for i, x in enumerate(x_arr):
        js = np.arange(0, top - int(x) + 1)
        probs = tilt[int(x) - base :] * np.asarray(spec.kernel.mass(t - s, js))
        total = probs.sum()
        if not total > 0:
            raise NumericError(f"markov lattice step from {x} has zero mass")
        cum = np.cumsum(probs) / total
        out[i] = x + js[int(np.searchsorted(cum, rng.uniform(), side="left"))]
    return out


def _markov_values(spec, times, rng, n_paths: int) -> np.ndarray:
    step = _markov_step_lattice if spec.kernel.discrete else _markov_step_continuous
    values = np.empty((n_paths, times.size))
    cur_t = 0.0
    cur_x = np.zeros(n_paths)
    for j, t in enumerate(times):
        cur_x = step(spec, cur_t, t, cur_x, rng)
        values[:, j] = cur_x
        cur_t = t
    return values


def sample_lrb_markov(spec: _core.LRBSpec, times, rng) -> SamplePath:
    """One conditioned path drawn by grid inversion of the Markov transition law."""
    times = _check_grid(spec, times)
    values = _markov_values(spec, times, rng, 1)[0]
    return SamplePath(times=times, values=values)


# ---------------------------------------------------------------------------
# bulk simulation with per-path substreams


def _simulate_chunk(spec, times, seed, method, indices) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    out = np.empty((len(indices), times.size))
    for row, i in enumerate(indices):
        rng = RandomStream(int(seed), int(i)).generator()
        if method == "terminal_first":
            out[row] = _terminal_first_values(spec, times, rng, 1)[0]
        else:
            out[row] = _markov_values(spec, times, rng, 1)[0]
    return out


def simulate_paths(
    spec: _core.LRBSpec,
    times,
    n_paths: int,
    seed: int,
    *,
    method: str = "terminal_first",
    workers: int = 1,
) -> np.ndarray:
    """Simulate n_paths on a common grid, one substream per path index.

    The result is a (n_paths, len(times)) array that depends only on
    (spec, times, seed, method); the worker count changes wall time, not
    values.
    """
    times = _check_grid(spec, times)
    if method not in ("terminal_first", "markov"):
        raise DomainError(f"unknown method {method!r}")
    n_paths = int(n_paths)
    if n_paths <= 0:
        raise DomainError("n_paths must be positive")
    workers = max(1, int(workers))
    indices = np.arange(n_paths)
    if workers == 1:
        return _simulate_chunk(spec, times, seed, method, indices)
    chunks = np.array_split(indices, workers * 4)
    chunks = [c for c in chunks if c.size]
    out = np.empty((n_paths, times.size))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_simulate_chunk, spec, times, seed, method, chunk)
            for chunk in chunks
        ]
        for chunk, fut in zip(chunks, futures):
            out[chunk] = fut.result()
    return out
