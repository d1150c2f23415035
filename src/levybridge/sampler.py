"""Path sampling for terminal-conditioned processes.

Two independent routes produce the same law:

* terminal-first (the default): draw the terminal value from its law, then
  walk the pinned bridge with the kernel's exact conditional steps;
* markov-chain: walk the unpinned state forward; every step, the horizon
  included, inverts the Markov transition law on a grid per path, with
  psi on the grids of all paths from one engine call (lattice kernels sum
  the transition masses).

The second route never touches the bridge conditionals or the terminal
posterior, which is what makes the cross-validation tests between the two
meaningful.

Both routes draw all paths of a call as one batch, turning counter-based
uniforms into draws with exact inverse-CDF transforms. Uniform number d of
path i is output i of numpy's Philox4x64-10 keyed by (seed, d), the
counter-based generator of Salmon et al., SC'11, "Parallel random numbers:
as easy as 1, 2, 3". Every path takes the same draw numbers whatever it
draws: 0 picks a terminal atom (at the horizon step of the Markov route),
1 draws from the terminal density, and 2 + j drives grid step j.

Reproducibility contract: path i of `simulate_paths` depends only on
(spec, times, seed, method, i). The batch it is drawn in does not change
it, so simulate_paths(n)[:k] equals simulate_paths(k) bit for bit. The
entry points that take a Generator draw one seed from it and run the same
route.
"""

from __future__ import annotations

import math
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
    """A named substream of a master seed, as a numpy Generator.

    Substreams with distinct indices are statistically independent and do not
    depend on how many other substreams exist. Callers that need independent
    Generators (checks, tests, scripts) take them from here; `simulate_paths`
    needs none.
    """

    seed: int
    substream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.substream,))
        return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# counter-based uniforms

_ATOM, _DENSITY, _STEP = 0, 1, 2  # draw numbers; grid step j uses _STEP + j


def _key(seed) -> int:
    """The validated seed, which keys every uniform of a call."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _uniforms(key: int, paths: np.ndarray, draw: int) -> np.ndarray:
    """Uniform number ``draw`` of each path index in ``paths``, inside (0, 1).

    Path i takes output i of numpy's Philox4x64-10 keyed by the 128-bit
    (seed, draw). The top 52 bits map to ((x >> 12) + 0.5) 2^-52, which is
    exact in double precision and never 0 or 1.
    """
    paths = np.asarray(paths, dtype=np.int64)
    if paths.size == 0:
        return np.empty(paths.shape)
    lo, hi = int(paths.min()), int(paths.max())
    bits = np.random.Philox(key=key | (int(draw) << 64))
    bits.advance(lo // 4)  # one counter step yields four outputs
    start = lo - lo % 4
    x = bits.random_raw(hi - start + 1)[paths - start]
    return ((x >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(2**64, dtype=np.uint64))


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


def _density_quantile(d: DensityComponent, u: np.ndarray) -> np.ndarray:
    if d.quantile is not None:
        return np.asarray(d.quantile(u), dtype=float)
    lo, hi = numerics.mass_interval(d, 1e-14)
    pdf = lambda z: float(d.pdf(z))
    return np.array(
        [numerics.inverse_cdf(pdf, lo, hi, float(v), breakpoints=d.breakpoints) for v in u]
    )


def _terminal_values(spec: _core.LRBSpec, key, paths: np.ndarray) -> np.ndarray:
    law = spec.terminal
    out = np.empty(paths.size)
    dens = np.ones(paths.size, dtype=bool)
    if law.atoms:
        locs = np.array([z for z, _ in law.atoms])
        cum = np.cumsum([w for _, w in law.atoms])
        idx = np.searchsorted(cum, _uniforms(key, paths, _ATOM), side="right")
        if law.density is None:
            # rounding can leave u past the last cumulative atom weight
            idx = np.minimum(idx, locs.size - 1)
        dens = idx == locs.size
        out[~dens] = locs[idx[~dens]]
    if np.any(dens):
        out[dens] = _density_quantile(law.density, _uniforms(key, paths[dens], _DENSITY))
    return out


def draw_terminal(spec: _core.LRBSpec, rng, size=None):
    """Draw terminal values from the spec's terminal law."""
    n = 1 if size is None else int(size)
    out = _terminal_values(spec, _key(_seed_from(rng)), np.arange(n))
    return float(out[0]) if size is None else out


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


def _terminal_first_values(spec, times, key, paths) -> np.ndarray:
    z = _terminal_values(spec, key, paths)
    values = np.empty((paths.size, times.size))
    cur_t, cur_x = 0.0, np.zeros(paths.size)
    for j, t in enumerate(times):
        if t == spec.horizon:
            values[:, j] = z
        else:
            u, rem = _uniforms(key, paths, _STEP + j), spec.horizon - t
            values[:, j] = _bridge._inverse_step(spec.kernel, t - cur_t, rem, cur_x, z, u)
        cur_t, cur_x = t, values[:, j]
    return values


def sample_lrb_terminal_first(spec: _core.LRBSpec, times, rng) -> SamplePath:
    """One conditioned path: draw the terminal value, then bridge to it."""
    values = _simulate(spec, times, 1, _seed_from(rng), "terminal_first")[0]
    return SamplePath(times=times, values=values)


# ---------------------------------------------------------------------------
# markov-chain sampling by grid inversion in the kernel's quantile coordinate

# probit-spaced cell edges: cells shrink toward both ends of (0, 1), where a
# tilt that grows with the state (psi_t ~ e^{c xi} on a gamma law) keeps mass
_U_GRID = _sp.ndtr(np.linspace(-7.0, 7.0, 1025))
_MASS_RTOL = 1e-3


def _markov_step_continuous(spec, s, t, x_arr, u, pick=None) -> np.ndarray:
    """Advance all paths from states x at time s to time t (t <= horizon).

    ``u`` holds one uniform per path, and so does ``pick``, which is read
    only at the horizon, and only on laws with atoms. With
    w = F^-1_{t-s}(u), the next state x + w has density psi_t(x + w) /
    psi_s(x) in u before the horizon. At the horizon a path first picks an
    atom, with odds from the atom terms of psi_s, or the density part, whose
    density in u is p(x + w) / f(T, x + w) / psi_s(x).
    The density is taken constant on each cell at its midpoint; states where
    it can jump (atoms under a subordinator before the horizon, the
    density's finite edges at it) are extra cell edges. A row whose grid
    mass misses its share of psi_s by more than _MASS_RTOL of psi_s raises.
    """
    T, n, dt = spec.horizon, x_arr.size, t - s
    psi_s = _core.psi_total_many(spec, s, x_arr)
    out, target = np.full(n, np.nan), psi_s
    if t == T and spec.terminal.atoms:
        with np.errstate(over="ignore"):
            cum = np.cumsum(np.exp(_core._atom_log_terms(spec, s, x_arr)), axis=1)
        idx = (cum < (pick * psi_s)[:, None]).sum(axis=1)
        if spec.terminal.density is None:
            # rounding can leave pick past the last atom term
            idx = np.minimum(idx, cum.shape[1] - 1)
        hit = idx < cum.shape[1]
        out[hit] = np.array([z for z, _ in spec.terminal.atoms])[idx[hit]]
        target = psi_s - cum[:, -1]
    rows = np.nonzero(np.isnan(out))[0]
    if rows.size == 0:
        return out
    v = u[rows]
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
        # one engine call for every path: each distinct state once, and the
        # engine answers each state on its own
        states, where = np.unique(nodes, return_inverse=True)
        h = _core.psi_total_many(spec, t, states)[where.reshape(nodes.shape)]
    else:
        with np.errstate(divide="ignore", over="ignore"):
            lb = spec.kernel.log_density(T, nodes)
            lb_ok = np.isfinite(lb)
            h = np.where(lb_ok, np.exp(d.logpdf(nodes) - np.where(lb_ok, lb, 0.0)), 0.0)
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


def _markov_step_lattice(spec, s, t, x_arr, u) -> np.ndarray:
    """Lattice analogue of `_markov_step_continuous`, summed exactly.

    The tilt lives on the fixed lattice 0..top (paths start at 0 and never
    decrease), so no path's draw depends on the others. At the horizon the
    tilt is w_i / Q_T(z_i) on the atoms z_i.
    """
    top = int(spec.terminal.atoms[-1][0])
    ys = np.arange(top + 1)
    if t < spec.horizon:
        tilt = _core.psi_total_many(spec, t, ys.astype(float))
    else:
        tilt = np.zeros(top + 1)
        for z, w in spec.terminal.atoms:
            tilt[int(z)] = w / float(spec.kernel.mass(spec.horizon, int(z)))
    out = np.empty_like(x_arr)
    rows = max(1, 2**20 // ys.size)  # bounds the (paths, lattice) block in memory
    for start in range(0, x_arr.size, rows):
        x = x_arr[start : start + rows]
        cum = np.cumsum(tilt * spec.kernel.mass(t - s, ys[None, :] - x[:, None]), axis=1)
        if not np.all(cum[:, -1] > 0):
            state = float(x[np.argmin(cum[:, -1])])
            raise NumericError("markov lattice step has zero mass", t=t, state=state)
        target = u[start : start + rows] * cum[:, -1]
        out[start : start + rows] = ys[(cum < target[:, None]).sum(axis=1)]
    return out


def _markov_values(spec, times, key, paths) -> np.ndarray:
    values = np.empty((paths.size, times.size))
    cur_t, cur_x = 0.0, np.zeros(paths.size)
    for j, t in enumerate(times):
        u = _uniforms(key, paths, _STEP + j)
        if spec.kernel.discrete:
            cur_x = _markov_step_lattice(spec, cur_t, t, cur_x, u)
        else:
            pick = _uniforms(key, paths, _ATOM) if t == spec.horizon else None
            cur_x = _markov_step_continuous(spec, cur_t, t, cur_x, u, pick)
        values[:, j], cur_t = cur_x, t
    return values


def sample_lrb_markov(spec: _core.LRBSpec, times, rng) -> SamplePath:
    """One conditioned path drawn by grid inversion of the Markov transition law."""
    values = _simulate(spec, times, 1, _seed_from(rng), "markov")[0]
    return SamplePath(times=times, values=values)


# ---------------------------------------------------------------------------
# bulk simulation

_ROUTES = {"terminal_first": _terminal_first_values, "markov": _markov_values}


def _simulate(spec, times, n_paths, seed, method) -> np.ndarray:
    times = _check_grid(spec, times)
    if method not in _ROUTES:
        raise DomainError(f"unknown method {method!r}")
    n_paths = int(n_paths)
    if n_paths <= 0:
        raise DomainError(f"n_paths must be positive, got {n_paths}")
    return _ROUTES[method](spec, times, _key(seed), np.arange(n_paths))


def simulate_paths(
    spec: _core.LRBSpec,
    times,
    n_paths: int,
    seed: int,
    *,
    method: str = "terminal_first",
    workers: int = 1,
) -> np.ndarray:
    """Simulate n_paths on a common grid from counter-based uniforms.

    The result is a (n_paths, len(times)) array whose row i depends only on
    (spec, times, seed, method, i); ``seed`` must be an integer in
    [0, 2**64). ``workers`` is accepted and ignored: the paths of a call are
    drawn as one vectorised batch.
    """
    return _simulate(spec, times, n_paths, seed, method)


def sample_marginals(
    spec: _core.LRBSpec, times, n_paths: int, rng, *, method: str = "terminal_first"
) -> np.ndarray:
    """`simulate_paths` on one seed drawn from ``rng``; shape (n_paths, len(times))."""
    return _simulate(spec, times, n_paths, _seed_from(rng), method)
