import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import levybridge
from levybridge import bridge, checks, sampler
from levybridge.checks import ks_critical_value
from levybridge.core import LRBSpec
from levybridge.errors import DomainError, NumericError
from levybridge.kernels import BrownianKernel, GammaKernel, PoissonKernel
from levybridge.laws import TerminalLaw
from levybridge.numerics import DensityComponent
from levybridge.sampler import RandomStream


def drift_spec():
    return LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.normal(0.5, 1.0)
    )


def gamma_scaled_spec():
    return LRBSpec(
        kernel=GammaKernel(2.0), horizon=1.0, terminal=TerminalLaw.gamma(2.0, 1.5)
    )


def gamma_atom_spec():
    return LRBSpec(
        kernel=GammaKernel(2.0),
        horizon=1.0,
        terminal=TerminalLaw.from_atoms([(1.0, 0.5), (2.5, 0.5)]),
    )


def poisson_spec():
    return LRBSpec(
        kernel=PoissonKernel(1.0),
        horizon=1.0,
        terminal=TerminalLaw.from_atoms([(0.0, 0.3), (2.0, 0.4), (5.0, 0.3)]),
    )


def seed_of(seed, sub=0):
    """A `simulate_paths` seed drawn from a substream's Generator, as the checks draw theirs."""
    return int(RandomStream(seed, sub).generator().integers(2**64, dtype=np.uint64))


# ---------------------------------------------------------------------------
# streams


def test_stream_is_reproducible():
    a = RandomStream(123, 4).generator().normal(size=8)
    b = RandomStream(123, 4).generator().normal(size=8)
    assert np.array_equal(a, b)


def test_substreams_differ():
    a = RandomStream(123, 0).generator().normal(size=8)
    b = RandomStream(123, 1).generator().normal(size=8)
    assert not np.array_equal(a, b)


def test_substreams_do_not_depend_on_neighbors():
    # stream i is the same whether or not stream i+1 is ever created
    a = RandomStream(9, 2).generator().uniform(size=4)
    RandomStream(9, 3).generator().uniform(size=4)
    b = RandomStream(9, 2).generator().uniform(size=4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# terminal draws


def test_draw_terminal_atom_frequencies():
    spec = poisson_spec()
    rng = RandomStream(12, 0).generator()
    draws = sampler.draw_terminal(spec, rng, size=20000)
    for z, w in spec.terminal.atoms:
        freq = float(np.mean(draws == z))
        se = math.sqrt(w * (1 - w) / draws.size)
        assert abs(freq - w) < 4.0 * se


def test_draw_terminal_density_moments():
    spec = gamma_scaled_spec()
    rng = RandomStream(13, 0).generator()
    draws = sampler.draw_terminal(spec, rng, size=20000)
    se = math.sqrt(2.0 * 1.5**2 / draws.size)
    assert abs(draws.mean() - 3.0) < 4.0 * se


def test_density_without_quantile_is_inverted_numerically():
    # a finite density built without a quantile draws from a tabulated one
    tri = DensityComponent(pdf=lambda z: np.where((z >= 0) & (z <= 1), 2.0 * z, 0.0),
                           lower=0.0, upper=1.0)
    spec = LRBSpec(kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw(density=tri))
    draws = sampler.draw_terminal(spec, RandomStream(15, 0).generator(), size=400)
    assert np.all((draws > 0.0) & (draws < 1.0))
    assert abs(draws.mean() - 2.0 / 3.0) < 4.0 * math.sqrt(1.0 / 18.0 / draws.size)


def test_draw_terminal_scalar():
    spec = gamma_atom_spec()
    z = sampler.draw_terminal(spec, RandomStream(14, 0).generator())
    assert z in (1.0, 2.5)


# ---------------------------------------------------------------------------
# plain paths


def test_sample_levy_paths_shape_and_increments():
    rng = RandomStream(20, 0).generator()
    times = np.array([0.25, 0.5, 1.0])
    paths = sampler.sample_levy_paths(GammaKernel(2.0), times, 500, rng)
    assert paths.shape == (500, 3)
    assert np.all(np.diff(paths, axis=1) > 0)
    # increment over (0.5, 1.0] has mean m * dt = 1.0
    inc = paths[:, 2] - paths[:, 1]
    assert abs(inc.mean() - 1.0) < 4.0 * math.sqrt(1.0 / 500)


def test_sample_levy_paths_grid_validated():
    rng = RandomStream(20, 1).generator()
    with pytest.raises(DomainError):
        sampler.sample_levy_paths(BrownianKernel(), [0.0, 0.5], 10, rng)
    with pytest.raises(DomainError):
        sampler.sample_levy_paths(BrownianKernel(), [0.5, 0.5], 10, rng)


# ---------------------------------------------------------------------------
# conditioned paths


def test_terminal_first_path_ends_on_terminal_support():
    spec = gamma_atom_spec()
    values = sampler.simulate_paths(spec, [0.25, 0.5, 1.0], 1, seed_of(30))[0]
    assert values[-1] in (1.0, 2.5)
    assert np.all(np.diff(np.concatenate([[0.0], values])) >= 0)


def test_grid_validation():
    spec = drift_spec()
    for bad in ([], [0.0, 0.5], [0.5, 0.4], [0.5, 1.5]):
        with pytest.raises(DomainError):
            sampler.simulate_paths(spec, bad, 1, seed_of(31))
    with pytest.raises(DomainError):
        sampler.simulate_paths(spec, [0.5], 10, seed_of(31), method="nope")
    with pytest.raises(DomainError):
        sampler.simulate_paths(spec, [0.5], 0, seed_of(31))


@pytest.mark.parametrize("times", [[math.nan, 0.5, 1.0], [0.5, math.nan, 1.0], [0.5, 0.75, math.nan]],
                         ids=["first", "middle", "last"])
@pytest.mark.parametrize("route", ["terminal_first", "markov", "sample_path"])
def test_nan_times_are_refused(route, times):
    # a NaN compares false both ways, so it slipped past "diff <= 0" checks
    with pytest.raises(DomainError):
        if route == "sample_path":
            pin = bridge.BridgeSpec(BrownianKernel(), end_time=1.0, end_value=0.3)
            bridge.sample_path(pin, times, RandomStream(32, 0).generator())
        else:
            sampler.simulate_paths(checks.brownian_mixed(), times, 3, 1, method=route)


def test_marginal_means_track_conditioning():
    # the conditioned gamma process with a scaled terminal drifts away from
    # the plain m*t mean; 20000 paths pin the first two moments loosely
    spec = gamma_scaled_spec()
    vals = sampler.simulate_paths(spec, [0.5, 1.0], 20000, seed_of(7))
    want_mid = 1.5  # E[Z]/2 by the linear interpolation property of the mean
    se_mid = vals[:, 0].std() / math.sqrt(vals.shape[0])
    assert abs(vals[:, 0].mean() - want_mid) < 4.0 * se_mid
    se_end = vals[:, 1].std() / math.sqrt(vals.shape[0])
    assert abs(vals[:, 1].mean() - 3.0) < 4.0 * se_end


def test_markov_one_step_law():
    # one markov step of the drifted Brownian spec has the exact marginal
    # N(theta t^2 / T + 0, ...) -- for matching variance it is N(theta*t*t/T + 0.. )
    # easier: marginal of the conditioned process at t is N(theta t, t) here
    spec = drift_spec()
    vals = np.array(
        [
            sampler.simulate_paths(spec, [0.5], 1, seed_of(41, i), method="markov")[0, 0]
            for i in range(400)
        ]
    )
    d = stats.kstest(vals, lambda x: stats.norm.cdf(x, 0.25, math.sqrt(0.5)))
    assert d.pvalue > 0.01


def test_two_routes_agree_in_law():
    from levybridge.checks import ks_critical_value

    spec = gamma_atom_spec()
    t = [0.5]
    a = np.array(
        [
            sampler.simulate_paths(spec, t, 1, seed_of(42, i))[0, 0]
            for i in range(400)
        ]
    )
    b = np.array(
        [
            sampler.simulate_paths(spec, t, 1, seed_of(43, i), method="markov")[0, 0]
            for i in range(400)
        ]
    )
    stat = stats.ks_2samp(a, b, method="asymp").statistic
    assert stat < ks_critical_value(400, 400, 0.01)


def test_point_mass_terminal_is_a_pure_bridge():
    spec = LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.point(0.7)
    )
    vals = sampler.simulate_paths(spec, [0.5, 1.0], 64, seed_of(44))
    assert np.all(vals[:, 1] == 0.7)
    assert vals[:, 0].std() > 0.1


def test_markov_lattice_route():
    spec = poisson_spec()
    vals = np.array(
        [
            sampler.simulate_paths(spec, [0.4, 1.0], 1, seed_of(45, i), method="markov")[0]
            for i in range(200)
        ]
    )
    assert np.all(vals == np.round(vals))
    assert np.all(vals[:, 1] >= vals[:, 0])
    assert set(np.unique(vals[:, 1])) <= {0.0, 2.0, 5.0}


# ---------------------------------------------------------------------------
# markov route on laws whose horizon step has a density part


@pytest.fixture(scope="module")
def gamma_routes():
    """Markov and terminal-first samples at (0.5, horizon), 400 paths each."""
    spec = gamma_scaled_spec()
    return tuple(
        sampler.simulate_paths(spec, [0.5, 1.0], 400, seed_of(seed), method=m)
        for seed, m in ((61, "markov"), (62, "terminal_first"))
    )


def test_gamma_markov_mean(gamma_routes):
    # psi_t grows like e^(xi / 3) on this law; a grid uniform in u left that
    # growth to its top cell, and the mean at t = 0.5 came out near 6.45
    vals = gamma_routes[0][:, 0]
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.5) < 4.0 * se


def test_gamma_markov_agrees_with_terminal_first(gamma_routes):
    a, b = gamma_routes
    for j in range(2):
        stat = stats.ks_2samp(a[:, j], b[:, j], method="asymp").statistic
        assert stat < ks_critical_value(400, 400, 0.01)


def test_mixed_markov_horizon_picks_atoms_at_their_weight():
    # the horizon step alone, from terminal-first states at t = 0.5
    spec = checks.brownian_mixed()
    x = sampler.simulate_paths(spec, [0.5], 2000, seed_of(64))[:, 0]
    pick, u = RandomStream(65, 0).generator().uniform(size=(2, x.size))
    z = sampler._markov_step(spec, 0.5, 1.0, x, pick, u, None)  # no bridge step at the horizon
    hits = float(np.mean(z == -0.75))
    assert abs(hits - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / z.size)
    ref = sampler.draw_terminal(spec, RandomStream(66, 0).generator(), size=2000)
    stat = stats.ks_2samp(z, ref, method="asymp").statistic
    assert stat < ks_critical_value(2000, 2000, 0.01)


@pytest.mark.parametrize("shape", [0.7, 3.5])
def test_gamma_markov_next_to_a_singular_or_flat_prior_edge(shape):
    # Gamma(0.7) and Gamma(3.5) under GammaKernel(2): states next to 0 need
    # the engine's edge rule; the horizon column is drawn from the prior
    spec = LRBSpec(GammaKernel(2.0), 1.0, TerminalLaw.gamma(shape, 1.0))
    out = sampler.simulate_paths(spec, [0.25, 0.5, 0.75, 1.0], 200, 2101, method="markov")
    assert np.all(np.isfinite(out))
    assert np.all(np.diff(np.hstack([np.zeros((out.shape[0], 1)), out]), axis=1) >= 0.0)
    assert stats.kstest(out[:, -1], stats.gamma(shape).cdf).pvalue > 1e-6


def test_gamma_markov_paths_reach_the_horizon():
    # these seeds once failed in QUADPACK at the horizon draw
    spec = gamma_scaled_spec()
    times = [0.25, 0.5, 0.75, 1.0]
    runs = [
        sampler.simulate_paths(spec, times, 1, seed, method="markov")
        for seed in (1, 10, 14, 25, 37, 40, 56)
    ]
    runs.append(sampler.simulate_paths(spec, times, 8, 7, method="markov"))
    for out in runs:
        assert np.all(np.isfinite(out))
        assert np.all(np.diff(np.hstack([np.zeros((out.shape[0], 1)), out]), axis=1) >= 0.0)


def test_markov_step_shares_rows_between_equal_states():
    # paths that share a start state share its row, and each draws what it
    # draws stepped alone, bit for bit, before the horizon and at it
    spec, x = checks.brownian_mixed(), np.array([0.3, 0.3, -0.2, 0.3])
    u, pick, bridge_u = RandomStream(67, 0).generator().uniform(size=(3, x.size))
    pick[1] = 0.01  # one pick of the atom
    for s, t in ((0.25, 0.5), (0.5, 1.0)):
        batch = sampler._markov_step(spec, s, t, x, pick, u, bridge_u)
        alone = [sampler._markov_step(spec, s, t, x[i : i + 1], pick[i : i + 1], u[i : i + 1],
                                      bridge_u[i : i + 1]) for i in range(x.size)]
        assert np.array_equal(batch, np.concatenate(alone))


@pytest.mark.parametrize("make_spec,times,seeds", [
    (checks.gamma_atomic, [0.5, 0.75], (68, 69)),  # atom terms with a pole once m (T - t) < 1
    (checks.brownian_mixed, [0.5, 1 - 1e-6], (70, 71)),  # an atom term 1e-3 wide at the end
    (checks.gamma_atomic, [0.5, 0.99, 1.0], (72, 73)),  # steps that round onto an atom on ~half
], ids=["gamma_atomic", "brownian_mixed", "gamma_atomic_near_horizon"])
def test_markov_step_resolves_narrow_atom_terms(make_spec, times, seeds):
    # a step far longer than an atom term is wide, or one that rounds onto its
    # atom: each column agrees with terminal-first in law (400 paths each)
    spec = make_spec()
    a = sampler.simulate_paths(spec, times, 400, seed_of(seeds[0]), method="markov")
    b = sampler.simulate_paths(spec, times, 400, seed_of(seeds[1]))
    for j in range(len(times)):
        stat = stats.ks_2samp(a[:, j], b[:, j], method="asymp").statistic
        assert stat < ks_critical_value(400, 400, 0.01)


def test_gamma_markov_state_on_an_atom_keeps_it():
    # on both atoms of an atoms-only law, before the horizon and at it; a state above every atom
    # is unreachable, and its psi of 0 is reported
    spec, u, x = checks.gamma_atomic(), np.full(2, 0.5), np.array([1.0, 2.5])
    for t in (0.75, 1.0):
        assert np.array_equal(sampler._markov_step(spec, 0.5, t, x, u, u, u), x)
    with pytest.raises(NumericError, match="psi is not finite and positive"):
        sampler._markov_step(spec, 0.5, 0.75, np.array([3.0]), u[:1], u[:1], u[:1])


# ---------------------------------------------------------------------------
# bulk driver


def test_simulate_paths_deterministic_in_seed():
    spec = drift_spec()
    times = [0.25, 0.5, 0.75, 1.0]
    a = sampler.simulate_paths(spec, times, 6, seed=2025)
    b = sampler.simulate_paths(spec, times, 6, seed=2025)
    c = sampler.simulate_paths(spec, times, 6, seed=2026)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_paths_worker_count_is_invisible():
    spec = gamma_atom_spec()
    times = [0.5, 1.0]
    one = sampler.simulate_paths(spec, times, 8, seed=7, workers=1)
    two = sampler.simulate_paths(spec, times, 8, seed=7, workers=2)
    assert np.array_equal(one, two)


def test_simulate_paths_path_count_prefix_stable():
    # asking for more paths must not change the ones already drawn
    spec = drift_spec()
    times = [0.5, 1.0]
    small = sampler.simulate_paths(spec, times, 3, seed=11)
    big = sampler.simulate_paths(spec, times, 5, seed=11)
    assert np.array_equal(big[:3], small)


def test_simulate_paths_methods_and_validation():
    spec = drift_spec()
    with pytest.raises(DomainError):
        sampler.simulate_paths(spec, [0.5, 1.0], 4, seed=0, method="nope")
    with pytest.raises(DomainError):
        sampler.simulate_paths(spec, [0.5, 1.0], -1, seed=0)
    out = sampler.simulate_paths(spec, [0.5, 1.0], 4, seed=0, method="markov")
    assert out.shape == (4, 2)


@pytest.mark.parametrize("count", [2.7, 2.0, True, False, "3", None, 0, -1])
def test_path_counts_are_validated(count):
    # a path count is an integer >= 1: no float is truncated, no bool or
    # string converted
    spec, times = drift_spec(), [0.5, 1.0]
    with pytest.raises(DomainError, match="n_paths"):
        sampler.simulate_paths(spec, times, count, seed=0)
    with pytest.raises(DomainError, match="n_paths"):
        sampler.sample_levy_paths(BrownianKernel(), times, count, RandomStream(1).generator())


@pytest.mark.parametrize("size", [2.7, True, "3", -1])
def test_draw_terminal_size_is_validated(size):
    with pytest.raises(DomainError, match="size"):
        sampler.draw_terminal(drift_spec(), RandomStream(1).generator(), size=size)


def test_path_counts_take_numpy_integers_and_size_zero():
    spec, rng = drift_spec(), RandomStream(1).generator()
    assert sampler.simulate_paths(spec, [0.5, 1.0], np.int64(3), seed=0).shape == (3, 2)
    assert sampler.sample_levy_paths(BrownianKernel(), [0.5], np.uint8(2), rng).shape == (2, 1)
    assert sampler.draw_terminal(spec, rng, size=0).shape == (0,)
    assert sampler.draw_terminal(spec, rng, size=np.int32(2)).shape == (2,)


# ---------------------------------------------------------------------------
# counter-based uniforms and batch invariance


def test_counter_uniforms_are_open_repeatable_and_keyed():
    draws, paths = sampler._stream(2024), np.arange(100_000)
    u = draws(paths, 3)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(u, sampler._stream(2024)(paths, 3))
    along_draws = np.concatenate([draws(paths[:1], d) for d in paths])
    for v in (u, along_draws):
        assert stats.kstest(v, "uniform").pvalue > 1e-6
    neighbours = {
        "seed": sampler._stream(2025)(paths, 3),
        "path": draws(paths + 1, 3),
        "draw": draws(paths, 4),
    }
    for name, v in neighbours.items():
        assert not np.any(v == u), name
        assert abs(np.corrcoef(u, v)[0, 1]) < 0.02, name


def _philox_uniforms(seed, draw, n):
    """The first n uniforms of a fresh Philox keyed by (seed, draw)."""
    raw = np.random.Philox(key=seed | (draw << 64)).random_raw(n)
    return ((raw >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52


def test_counter_uniforms_are_philox_outputs_at_any_offset():
    # path i takes output i of the Philox stream keyed by (seed, draw),
    # whatever subset of paths a call asks for and whatever the one
    # re-keyed generator of the call drew before
    subsets = [np.arange(64), np.array([63, 9, 10, 2, 41])]
    subsets += [np.arange(lo, 64) for lo in (4, 5, 6, 7)]  # every start offset lo % 4
    subsets += [np.array([lo]) for lo in (40, 41, 42, 43)]
    for seed in (0, 2**63, 2**64 - 1):
        draws = sampler._stream(seed)
        for draw in (0, 1, 13):
            expected = _philox_uniforms(seed, draw, 64)
            for paths in subsets:
                assert np.array_equal(draws(paths, draw), expected[paths]), (seed, draw, paths)


def test_interleaved_calls_keep_their_own_streams():
    # two calls drawing in turn, and one generator re-keyed between two
    # keys, give each key its own Philox outputs
    a, b = sampler._stream(2**64 - 3), sampler._stream(5)
    bits = np.random.Philox()
    paths = np.arange(3, 40)
    for draw in (7, 0, 2):
        for seed, draws in ((2**64 - 3, a), (5, b)):
            want = _philox_uniforms(seed, draw, 40)[paths]
            assert np.array_equal(draws(paths, draw), want)
            assert np.array_equal(sampler._uniforms(bits, seed, paths, draw), want)
    # calls on three threads at once, switching often, draw what they draw alone
    spec, times, seeds = checks.brownian_binary(), np.linspace(0.1, 1.0, 10), (1, 2, 3)
    alone = {s: sampler.simulate_paths(spec, times, 50, s) for s in seeds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            runs = {s: pool.submit(lambda s=s: [sampler.simulate_paths(spec, times, 50, s)
                                                for _ in range(20)]) for s in seeds}
            for s, run in runs.items():
                assert all(np.array_equal(out, alone[s]) for out in run.result(timeout=120))
    finally:
        sys.setswitchinterval(interval)


def test_seed_range_is_validated():
    spec = drift_spec()
    for seed in (-5, -1, 2**64, 1.5, True):
        with pytest.raises(DomainError):
            sampler.simulate_paths(spec, [0.5, 1.0], 2, seed)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert sampler.simulate_paths(spec, [0.5, 1.0], 2, seed).shape == (2, 2)


BATCH_LAWS = {
    "mixed": checks.brownian_mixed,
    "gamma": checks.gamma_scaled,
    "binary": checks.brownian_binary,
    "poisson": checks.poisson_atomic,
}


@pytest.mark.parametrize("method,n", [("terminal_first", 64), ("markov", 16)])
@pytest.mark.parametrize("law", list(BATCH_LAWS))
def test_paths_do_not_depend_on_the_batch(law, method, n):
    # a path's values depend on (spec, times, seed, method, path index) only
    spec, times = BATCH_LAWS[law](), [0.25, 0.5, 0.75, 1.0]
    full = sampler.simulate_paths(spec, times, n, 31, method=method)
    for k in (1, n // 8, n - 1):
        assert np.array_equal(full[:k], sampler.simulate_paths(spec, times, k, 31, method=method))


@pytest.mark.parametrize("grid", [[1e-9, 1.0], [1e-6, 0.5, 1.0], [0.5, 1.0 - 1e-9]])
def test_gamma_paths_on_edge_grids(grid):
    # gamma steps with m dt or m (T - t) down to 2e-9: every path is finite,
    # nondecreasing, >= 0 and <= its terminal value; a grid that stops short
    # of the horizon gets its terminal values from the same call with the
    # horizon appended, whose shared columns must be the same draws
    spec = checks.gamma_scaled()
    paths = sampler.simulate_paths(spec, grid, 2000, 5)
    full = paths if grid[-1] == 1.0 else sampler.simulate_paths(spec, grid + [1.0], 2000, 5)
    assert np.array_equal(full[:, : len(grid)], paths)
    assert np.all(np.isfinite(full)) and np.all(full[:, 0] >= 0.0)
    assert np.all(np.diff(full, axis=1) >= 0.0)


def test_long_gamma_grid_reuses_its_tables():
    # a 200-point grid asks for 199 inverse-beta tables, one per step and in
    # the same order on every call: a second call must build none of them
    from levybridge import numerics

    spec, grid = checks.gamma_scaled(), np.linspace(0.005, 1.0, 200)
    sampler.simulate_paths(spec, grid, 4, 1)
    misses = numerics._beta_table.cache_info().misses
    sampler.simulate_paths(spec, grid, 4, 2)
    assert numerics._beta_table.cache_info().misses == misses


def test_draw_terminal_runs_the_seeded_route():
    spec, times = checks.brownian_mixed(), [0.5, 1.0]
    want = sampler.simulate_paths(spec, times, 8, seed_of(77))
    z = sampler.draw_terminal(spec, RandomStream(77, 0).generator(), size=8)
    assert np.array_equal(z, want[:, -1])


def test_simulate_paths_needs_no_process_pool():
    code = (
        "import sys, levybridge\n"
        "from levybridge import checks\n"
        "levybridge.simulate_paths(checks.brownian_binary(), [0.5, 1.0], 4, 1, workers=4)\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(levybridge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_library_calls_write_nothing_to_stdout():
    # a caller that reads its last stdout line as a result must get its own line
    code = (
        "import numpy as np, levybridge\n"
        "from levybridge import checks\n"
        "levybridge.psi_total_many(checks.brownian_mixed(), 0.5, np.linspace(-40.0, 40.0, 9))\n"
        "levybridge.simulate_paths(checks.brownian_mixed(), [0.5, 1.0], 4, 1, method='markov')\n"
    )
    src = os.path.dirname(os.path.dirname(levybridge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
