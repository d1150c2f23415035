"""Path sampling for terminal-conditioned processes.

Two routes produce the same law, both built on the paper's defining property: given its terminal
value, an LRB is a Levy bridge.

* terminal-first (the default): draw the terminal value from its law, then walk the pinned bridge
  with the kernel's exact conditional steps (`bridge._inverse_step`);
* markov-chain: walk the unpinned state forward. Each step from (s, x) to t draws the terminal value
  z from its law given (s, x) and takes the same exact bridge step from x toward it; at the horizon
  the step is z itself. At s = 0 every path is at 0 and z is a prior draw. Later, psi_s, its atom
  terms and its density part are evaluated once per distinct state: a path picks an atom exactly,
  with odds from its atom terms, or the density part, whose increment z - x is drawn by
  `core._increment_quantiles`, one row of `numerics.tabulated_quantiles` per distinct state. Close
  to the horizon a gamma step toward an atom can round onto it; such a state keeps that atom.

The markov route never builds `core.terminal_posterior` or inverts numerically per state. Since both
routes end in `bridge._inverse_step`, comparing them checks the engine's posterior (psi, atom terms,
windows) against the prior plus the bridge; the exact-CDF tests of the bridge cover the step itself.

Both routes draw all paths of a call as one batch, turning counter-based uniforms into draws with
exact inverse-CDF transforms (the gamma bridge step reads `numerics._beta_inverse`'s certified
table, 1e-13 relative where well conditioned). Uniform number d of path i is output i of numpy's
Philox4x64-10 keyed by (seed, d), the counter-based generator of Salmon et al., SC'11, "Parallel
random numbers: as easy as 1, 2, 3". A call builds one Philox of its own and re-keys it for each
draw through its ``state`` setter, so calls on different threads share no generator state. Every
path takes the same draw numbers whatever it draws. Terminal-first takes 0 to pick a terminal atom,
1 to draw from the terminal density and 2 + j for grid step j. Markov step j takes its own block
2^32 (j + 1) + d of three: d = 0 picks an atom, 1 draws from the density part of the law of z given
the state, and 2 drives the bridge step. The terminal density is drawn by its
`DensityComponent.quantile` alone: a closed form for the built-in laws, else a
`numerics.TabulatedQuantile`.

Reproducibility contract: path i of `simulate_paths` depends only on (spec, times, seed, method,
i). The batch it is drawn in does not change it, so simulate_paths(n)[:k] equals
simulate_paths(k) bit for bit. `draw_terminal` takes a Generator, draws one seed from it and runs
the terminal draw of the same route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bridge as _bridge
from . import core as _core
from .errors import DomainError, NumericError
from .kernels import Kernel
from .paths import check_grid

__all__ = [
    "RandomStream",
    "draw_terminal",
    "sample_levy_paths",
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

_ATOM, _DENSITY, _STEP = 0, 1, 2  # draw numbers; terminal-first step j uses _STEP + j


def _key(seed) -> int:
    """The validated seed, which keys every uniform of a call."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _count(name: str, n, least: int = 1) -> int:
    """A validated path count: an integer (not a bool) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def _uniforms(bits: np.random.Philox, key: int, paths: np.ndarray, draw: int) -> np.ndarray:
    """Uniform number ``draw`` of each path index in ``paths``, inside (0, 1).

    Path i takes output i of numpy's Philox4x64-10 keyed by the 128-bit
    (seed, draw). ``bits`` is re-keyed through its ``state`` setter, its
    counter set to the block of the first path asked for, so one Philox
    serves every draw of a call. The top 52 bits map to
    ((x >> 12) + 0.5) 2^-52, which is exact in double precision and never
    0 or 1.
    """
    paths = np.asarray(paths, dtype=np.int64)
    if paths.size == 0:
        return np.empty(paths.shape)
    lo, hi = int(paths.min()), int(paths.max())
    bits.state = {  # one counter step yields four outputs; an empty buffer starts a new step
        "bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"counter": np.array([lo // 4, 0, 0, 0], np.uint64),
                  "key": np.array([key, draw], np.uint64)},
    }
    start = lo - lo % 4
    x = bits.random_raw(hi - start + 1)[paths - start]
    return ((x >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52


def _stream(seed):
    """``draws(paths, draw)``: the uniforms of one call, from a Philox of the call's own."""
    return partial(_uniforms, np.random.Philox(), _key(seed))


# ---------------------------------------------------------------------------
# terminal draws


def _terminal_values(spec: _core.LRBSpec, pick: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Terminal values, one per path: an atom picked by ``pick``, else the density's quantile at ``v``."""
    law = spec.terminal
    out = np.empty(pick.size)
    dens = np.ones(pick.size, dtype=bool)
    if law.atoms:
        locs = np.array([z for z, _ in law.atoms])
        cum = np.cumsum([w for _, w in law.atoms])
        idx = np.searchsorted(cum, pick, side="right")
        if law.density is None:
            # rounding can leave u past the last cumulative atom weight
            idx = np.minimum(idx, locs.size - 1)
        dens = idx == locs.size
        out[~dens] = locs[idx[~dens]]
    if np.any(dens):
        out[dens] = law.density.quantile(v[dens])
    return out


def draw_terminal(spec: _core.LRBSpec, rng, size=None):
    """Draw terminal values from the spec's terminal law; ``size`` is None or an integer >= 0."""
    n = 1 if size is None else _count("size", size, 0)
    draws, paths = _stream(int(rng.integers(2**64, dtype=np.uint64))), np.arange(n)
    out = _terminal_values(spec, draws(paths, _ATOM), draws(paths, _DENSITY))
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# plain (unconditioned) paths


def sample_levy_paths(kernel: Kernel, times, n_paths: int, rng) -> np.ndarray:
    """Plain stationary-independent-increment paths, shape (n_paths, len(times))."""
    times = check_grid(times, 0.0)
    n_paths = _count("n_paths", n_paths)
    out = np.empty((n_paths, times.size))
    prev_t = 0.0
    level = np.zeros(n_paths)
    for j, t in enumerate(times):
        level = level + kernel.sample(rng, t - prev_t, size=level.shape)
        out[:, j] = level
        prev_t = t
    return out


# ---------------------------------------------------------------------------
# terminal-first sampling


def _terminal_first_values(spec, times, draws, paths) -> np.ndarray:
    z = _terminal_values(spec, draws(paths, _ATOM), draws(paths, _DENSITY))
    values = np.empty((paths.size, times.size))
    cur_t, cur_x = 0.0, np.zeros(paths.size)
    for j, t in enumerate(times):
        if t == spec.horizon:
            values[:, j] = z
        else:
            u, rem = draws(paths, _STEP + j), spec.horizon - t
            values[:, j] = _bridge._inverse_step(spec.kernel, t - cur_t, rem, cur_x, z, u)
        cur_t, cur_x = t, values[:, j]
    return values


# ---------------------------------------------------------------------------
# markov-chain sampling: a draw of the terminal value given the state, then the bridge step


def _posterior_values(spec, s: float, x: np.ndarray, pick: np.ndarray, v: np.ndarray):
    """Each path's terminal value z given its state x at s > 0.

    psi_s, its atom terms and its density part are evaluated once per distinct state. A path picks
    atom i where ``pick`` psi_s falls in the i-th of the atom terms summed in atom order, else the
    density part, from which `core._increment_quantiles` draws w at ``v``, one row per distinct
    state that a path draws from. An atom's z is its location, exact; a density draw's is x + w.
    """
    states, which = np.unique(x, return_inverse=True)
    atoms, d = spec.terminal.atoms, spec.terminal.density
    locs = np.array([loc for loc, _ in atoms])
    # a gamma state on an atom reached it, its bridge step toward the atom rounding onto it; its
    # atom term, f(T - s, 0) = 0, would misread it, so it keeps that atom
    on = (states[:, None] == locs) & (spec.kernel.nondecreasing and not spec.kernel.discrete)
    with np.errstate(over="ignore"):
        cum = np.cumsum(np.exp(_core._atom_log_terms(spec, s, states)), axis=0) if atoms else None
    win = _core._windows(spec, s, states) if d is not None else None
    dens = _core._density_psi_many(spec, s, states, win) if d is not None else np.zeros(states.size)
    psi = dens if cum is None else cum[-1] + dens
    bad = np.flatnonzero(~(np.isfinite(psi) & (psi > 0.0) | on.any(axis=1)))
    if bad.size:
        raise NumericError("markov step: psi is not finite and positive", t=s,
                           state=float(states[bad[0]]), psi=float(psi[bad[0]]))
    z = np.empty(x.size)
    drawn = np.ones(x.size, dtype=bool)
    if atoms:
        idx = (cum[:, which] < pick * psi[which]).sum(axis=0)
        # rounding can leave pick past the last atom term of a state with no density part
        idx = np.where(dens[which] > 0.0, idx, np.minimum(idx, len(atoms) - 1))
        idx = np.where(on[which].any(axis=1), on[which].argmax(axis=1), idx)
        drawn = idx == len(atoms)
        z[~drawn] = locs[idx[~drawn]]
    if np.any(drawn):
        need, rows = np.unique(which[drawn], return_inverse=True)
        z[drawn] = x[drawn] + _core._increment_quantiles(spec, s, states[need], np.log(dens[need]),
                                                         rows, v[drawn], _core._rows(win, need))
    return z


def _markov_step(spec, s: float, t: float, x: np.ndarray, pick, v, u) -> np.ndarray:
    """Advance all paths from states x at time s to time t (t <= horizon).

    Given its terminal value z an LRB is a Levy bridge, so a step draws z from its law given (s, x)
    (the prior's, at s = 0, where every path is at 0; else `_posterior_values`) and takes the exact
    bridge step `bridge._inverse_step` from x toward z at ``u``, the step terminal-first takes. At
    the horizon the step is z itself. ``pick``, ``v`` and ``u`` hold one uniform per path each.
    """
    z = _terminal_values(spec, pick, v) if s == 0.0 else _posterior_values(spec, s, x, pick, v)
    if t == spec.horizon:
        return z
    return _bridge._inverse_step(spec.kernel, t - s, spec.horizon - t, x, z, u)


def _markov_values(spec, times, draws, paths) -> np.ndarray:
    values = np.empty((paths.size, times.size))
    cur_t, cur_x = 0.0, np.zeros(paths.size)
    for j, t in enumerate(times):
        block = (j + 1) << 32  # step j's own draw numbers
        pick, v, u = (draws(paths, block + d) for d in (_ATOM, _DENSITY, _STEP))
        cur_x = _markov_step(spec, cur_t, t, cur_x, pick, v, u)
        values[:, j], cur_t = cur_x, t
    return values


# ---------------------------------------------------------------------------
# bulk simulation

_ROUTES = {"terminal_first": _terminal_first_values, "markov": _markov_values}


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
    times = check_grid(times, 0.0, spec.horizon)
    if method not in _ROUTES:
        raise DomainError(f"unknown method {method!r}")
    n_paths = _count("n_paths", n_paths)
    return _ROUTES[method](spec, times, _stream(seed), np.arange(n_paths))
