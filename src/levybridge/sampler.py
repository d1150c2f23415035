"""Path sampling for terminal-conditioned processes.

Two independent routes produce the same law:

* terminal-first (the default): draw the terminal value from its law, then
  walk the pinned bridge with the kernel's exact conditional steps;
* markov-chain: walk the unpinned state forward; every step, the horizon
  included, inverts the Markov transition law on a grid per path. Before
  the horizon, psi on the grids of all paths is the exact atom terms plus
  the density part interpolated in log from a lattice k h_t (lattice
  kernels sum the transition masses). The engine never gets more than
  three states per grid node. When h_t is comparable to the grid spacing
  (dt / (T - t) small) and the paths' grids overlap, as on the Brownian
  laws a few steps from the horizon, its states barely grow with the
  number of paths; elsewhere the lattice gains less or is not used.

The second route never touches the bridge conditionals or the terminal
posterior, which is what makes the cross-validation tests between the two
meaningful.

Both routes draw all paths of a call as one batch, turning counter-based
uniforms into draws with exact inverse-CDF transforms (the gamma bridge step
reads `numerics._beta_inverse`'s certified table, 1e-13 relative where well
conditioned). Uniform number d of path i is output i of numpy's Philox4x64-10
keyed by (seed, d), the counter-based generator of Salmon et al., SC'11,
"Parallel random numbers: as easy as 1, 2, 3". Every path takes the same
draw numbers whatever it draws: 0 picks a terminal atom (at the horizon step
of the Markov route), 1 draws from the terminal density, and 2 + j drives
grid step j.

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

# Before the horizon the density part of psi_t is read off the lattice k h_t,
# h_t = _LATTICE_STEP standard deviations of the kernel's increment over
# T - t: log psi_t is interpolated at a state y by the 6-point Lagrange
# stencil k0 - 2, ..., k0 + 3 around k0 = floor(y / h_t), whose barycentric
# weights 1 / prod_{m != j} (j - m) are _BARY.
_LATTICE_STEP = 0.02
_STENCIL = np.arange(-2, 4)
_BARY = np.array([-1.0 / 120, 1.0 / 24, -1.0 / 12, 1.0 / 12, -1.0 / 24, 1.0 / 120])
_NODE_TILE = 1 << 13  # nodes per tile of the per-node lattice work: its arrays stay in cache
_DENSE_SPAN = 8  # longest dense lattice index, in multiples of the number of nodes
_ROW_COST = 3  # most engine states per node of a row that reads the lattice


def _cells(kernel: Kernel, dt: float, x: np.ndarray, u_jump: np.ndarray):
    """Cell edges in u, shape (n, c + 1), and the states at the cell midpoints, shape (n, c).

    Every row shares the cells of _U_GRID, whose midpoints go through the
    kernel's quantile once. A row's jump edges (the columns of ``u_jump``)
    split cells, and only the split cells take quantiles of their own.
    """
    grid = _U_GRID
    mid = kernel.quantile(dt, 0.5 * (grid[1:] + grid[:-1]))
    edges = np.broadcast_to(grid, (x.size, grid.size))
    if u_jump.shape[1] == 0:
        return edges, x[:, None] + mid
    both = np.hstack([edges, np.clip(u_jump, grid[0], grid[-1])])
    order = np.argsort(both, axis=1, kind="stable")
    edges = np.take_along_axis(both, order, axis=1)
    jump = order >= grid.size
    # an unsplit cell c is shared cell c minus the jump edges left of it
    split = jump[:, :-1] | jump[:, 1:]
    shared = np.arange(split.shape[1]) - np.cumsum(jump, axis=1)[:, :-1]
    w = mid[np.clip(shared, 0, mid.size - 1)]
    r, c = np.nonzero(split)
    w[r, c] = kernel.quantile(dt, 0.5 * (edges[r, c + 1] + edges[r, c]))
    return edges, x[:, None] + w


def _kinks(spec) -> list[float]:
    """States where the density part of psi_t is not smooth.

    The kernel's support edge and, under a subordinator (psi_t integrates the
    prior over z >= xi), the prior's finite edges and breakpoints.
    """
    pts = list(spec.kernel.increment_support(spec.horizon))
    if spec.kernel.nondecreasing:
        d = spec.terminal.density
        pts += [d.lower, *d.breakpoints, d.upper]
    return [b for b in pts if math.isfinite(b)]


def _lattice_density_psi(spec, t: float, nodes: np.ndarray) -> np.ndarray:
    """The density part of psi_t (t < horizon) at the grid states ``nodes``, one row per path.

    One engine call answers the lattice points that the stencils touch and
    the nodes evaluated directly. Those are the nodes whose stencil reaches
    a kink (see `_kinks`), and every node of a row whose stencils would
    touch more than _ROW_COST lattice points per node, counting its nodes
    next to a kink. A row touches that many when h_t is small against the
    spacing of its grid, i.e. when dt / (T - t) is large (above about 19 on
    a Brownian kernel, where the row costs 0.68 sqrt(dt / (T - t)) points
    per node). So the engine never gets more than _ROW_COST states per node;
    it gets far fewer only where the rows of many paths overlap on the
    lattice. Past a subordinator's finite upper prior edge the density part
    is 0. The engine answers each state on its own, and a node's route,
    stencil and weights depend on its row alone, so every value is
    independent of the batch.

    The touched lattice points are marked in a dense array indexed by
    offset from their smallest k or, when that would be longer than
    _DENSE_SPAN times the number of nodes, listed in a sorted array. The
    per-node work runs in tiles of _NODE_TILE nodes.
    """
    h = _LATTICE_STEP * math.sqrt(spec.kernel.variance(spec.horizon - t))
    kinks = _kinks(spec)
    top = spec.terminal.density.upper if spec.kernel.nondecreasing else math.inf
    rows, cols = nodes.shape
    y = nodes.ravel()
    tiles = [slice(i, i + _NODE_TILE) for i in range(0, y.size, _NODE_TILE)]
    k0 = np.empty(y.size)  # floor(y / h): the stencil of a node is k0 - 2, ..., k0 + 3
    direct = np.zeros(y.size, dtype=bool)
    interp = np.zeros(y.size, dtype=bool)
    for sl in tiles:
        k = np.floor(y[sl] / h)
        lo, hi = (k - 2.0) * h, (k + 3.0) * h
        for b in kinks:
            direct[sl] |= (lo <= b) & (b <= hi)
        interp[sl] = ~direct[sl] & (lo <= top)
        k0[sl] = k
    # the lattice points a row's stencils touch (exact on a sorted row) and its direct nodes
    by_row = k0.reshape(rows, cols)
    cost = np.minimum(np.abs(np.diff(by_row, axis=1)), _STENCIL.size).sum(axis=1) + _STENCIL.size
    cost += direct.reshape(rows, cols).sum(axis=1)
    own = (cost > _ROW_COST * cols) | (np.abs(by_row).max(axis=1) > 2.0**62)  # k0 must fit int64
    direct.reshape(rows, cols)[own] = True
    interp.reshape(rows, cols)[own] = False

    ki = k0[interp].astype(np.int64)
    dense = ki.size > 0 and np.ptp(ki) + _STENCIL.size <= _DENSE_SPAN * y.size
    if dense:
        kmin = int(ki.min()) + int(_STENCIL[0])  # lattice point k sits at offset k - kmin
        starts = np.zeros(int(np.ptp(ki)) + _STENCIL.size, dtype=bool)
        starts[ki - ki.min()] = True  # first stencil points
        touched = starts.copy()
        for j in range(1, _STENCIL.size):
            touched[j:] |= starts[:-j]
        points = kmin + np.flatnonzero(touched)
    else:
        points = np.unique(np.add.outer(np.unique(ki), _STENCIL))
    states, inverse = np.unique(y[direct], return_inverse=True)
    query = np.concatenate([points * h, states])
    psi = _core._density_psi_many(spec, t, query) if query.size else query
    lattice = psi[: points.size]
    if not np.all(lattice > 0.0):
        i = int(np.argmin(lattice))
        raise NumericError(
            "markov step: psi underflows on the lattice", t=t, state=float(points[i] * h)
        )
    if dense:
        log_psi, at = np.zeros(touched.size), lambda k: k - kmin
        log_psi[points - kmin] = np.log(lattice)
    else:
        log_psi, at = np.log(lattice), lambda k: np.searchsorted(points, k)
    out = np.zeros(y.size)
    out[direct] = psi[points.size :][inverse]
    for sl in tiles:
        sel = interp[sl]
        k = k0[sl][sel].astype(np.int64)
        f = [log_psi[at(k + m)] for m in _STENCIL]
        out[sl][sel] = np.exp(_stencil_sum(y[sl][sel] / h - k, f))
    return out


def _stencil_sum(theta: np.ndarray, f: list[np.ndarray]) -> np.ndarray:
    """sum_j L_j(theta) f[j], with L_j the Lagrange basis of the stencil.

    L_j = _BARY[j] prod_{m != j} (theta - _STENCIL[m]): prefix products are
    kept, suffix products built on the way down. Each node's terms are
    summed in one fixed order, elementwise, so its value does not depend on
    the other nodes.
    """
    left = [1.0]
    for m in _STENCIL[:-1]:
        left.append(left[-1] * (theta - m))
    acc, right = 0.0, 1.0
    for j in range(_STENCIL.size - 1, -1, -1):
        acc = acc + (_BARY[j] * left[j] * right) * f[j]
        right = right * (theta - _STENCIL[j])
    return acc


def _psi_on_nodes(spec, t: float, nodes: np.ndarray) -> np.ndarray:
    """psi_t (t < horizon) at the grid states of all paths, one engine call.

    The density part comes from `_lattice_density_psi`; the atom terms are
    summed exactly at each node, so their kinks never enter a stencil.
    """
    flat = nodes.ravel()
    if spec.terminal.density is not None:
        out = _lattice_density_psi(spec, t, nodes)
    else:
        out = np.zeros(flat.size)
    if spec.terminal.atoms:
        with np.errstate(over="ignore"):
            for lo in range(0, flat.size, _NODE_TILE):
                sl = slice(lo, lo + _NODE_TILE)
                out[sl] += np.sum(np.exp(_core._atom_log_terms(spec, t, flat[sl])), axis=-1)
    _core._check_finite(out, t, flat)
    return out.reshape(nodes.shape)


def _markov_step_continuous(spec, s, t, x_arr, u, pick=None) -> np.ndarray:
    """Advance all paths from states x at time s to time t (t <= horizon).

    ``u`` holds one uniform per path, and so does ``pick``, which is read
    only at the horizon, and only on laws with atoms. With
    w = F^-1_{t-s}(u), the next state x + w has density psi_t(x + w) /
    psi_s(x) in u before the horizon. At the horizon a path first picks an
    atom, with odds from the atom terms of psi_s, or the density part, whose
    density in u is p(x + w) / f(T, x + w) / psi_s(x).
    The density is taken constant on each cell at its midpoint (see
    `_cells`); states where it can jump (atoms under a subordinator before
    the horizon, the density's finite edges at it) are extra cell edges.
    Before the horizon psi_t at the midpoints comes from `_psi_on_nodes`,
    whose engine cost stops growing with the number of paths only where
    their grids overlap on the lattice (see `_lattice_density_psi`). A row whose
    grid mass misses its share of a directly evaluated psi_s by more than
    _MASS_RTOL of psi_s raises.
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
    edges, nodes = _cells(spec.kernel, dt, x, u_jump)
    width = np.diff(edges, axis=1)
    if t < T:
        h = _psi_on_nodes(spec, t, nodes)
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
