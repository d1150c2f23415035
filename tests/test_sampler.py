import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

import levybridge
from levybridge import checks, core, sampler
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
    # a density with no quantile falls back to one numerical inversion per draw
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
    rng = RandomStream(30, 0).generator()
    p = sampler.sample_lrb_terminal_first(spec, [0.25, 0.5, 1.0], rng)
    assert p.values[-1] in (1.0, 2.5)
    assert np.all(np.diff(np.concatenate([[0.0], p.values])) >= 0)


def test_grid_validation():
    spec = drift_spec()
    rng = RandomStream(31, 0).generator()
    for bad in ([], [0.0, 0.5], [0.5, 0.4], [0.5, 1.5]):
        with pytest.raises(DomainError):
            sampler.sample_lrb_terminal_first(spec, bad, rng)
    with pytest.raises(DomainError):
        sampler.sample_marginals(spec, [0.5], 10, rng, method="nope")
    with pytest.raises(DomainError):
        sampler.sample_marginals(spec, [0.5], 0, rng)


def test_marginal_means_track_conditioning():
    # the conditioned gamma process with a scaled terminal drifts away from
    # the plain m*t mean; 20000 paths pin the first two moments loosely
    spec = gamma_scaled_spec()
    rng = RandomStream(7, 0).generator()
    vals = sampler.sample_marginals(spec, [0.5, 1.0], 20000, rng)
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
            sampler.sample_lrb_markov(spec, [0.5], RandomStream(41, i).generator()).values[0]
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
            sampler.sample_lrb_terminal_first(spec, t, RandomStream(42, i).generator()).values[0]
            for i in range(400)
        ]
    )
    b = np.array(
        [
            sampler.sample_lrb_markov(spec, t, RandomStream(43, i).generator()).values[0]
            for i in range(400)
        ]
    )
    stat = stats.ks_2samp(a, b, method="asymp").statistic
    assert stat < ks_critical_value(400, 400, 0.01)


def test_point_mass_terminal_is_a_pure_bridge():
    spec = LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.point(0.7)
    )
    rng = RandomStream(44, 0).generator()
    vals = sampler.sample_marginals(spec, [0.5, 1.0], 64, rng)
    assert np.all(vals[:, 1] == 0.7)
    assert vals[:, 0].std() > 0.1


def test_markov_lattice_route():
    spec = poisson_spec()
    vals = np.array(
        [
            sampler.sample_lrb_markov(spec, [0.4, 1.0], RandomStream(45, i).generator()).values
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
        sampler.sample_marginals(spec, [0.5, 1.0], 400, RandomStream(seed, 0).generator(), method=m)
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
    x = sampler.sample_marginals(spec, [0.5], 2000, RandomStream(64, 0).generator())[:, 0]
    pick, u = RandomStream(65, 0).generator().uniform(size=(2, x.size))
    z = sampler._markov_step_continuous(spec, 0.5, 1.0, x, u, pick)
    hits = float(np.mean(z == -0.75))
    assert abs(hits - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / z.size)
    ref = sampler.draw_terminal(spec, RandomStream(66, 0).generator(), size=2000)
    stat = stats.ks_2samp(z, ref, method="asymp").statistic
    assert stat < ks_critical_value(2000, 2000, 0.01)


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


def test_markov_grid_miss_is_reported(monkeypatch):
    # a grid of 8 cells cannot carry psi_s to 1e-3
    monkeypatch.setattr(sampler, "_U_GRID", special.ndtr(np.linspace(-7.0, 7.0, 9)))
    u = RandomStream(63, 0).generator().uniform(size=1)
    with pytest.raises(NumericError) as err:
        sampler._markov_step_continuous(gamma_scaled_spec(), 0.25, 0.5, np.array([0.3]), u)
    diag = err.value.diagnostics
    assert diag["t"] == 0.5 and diag["states"] == (0.3, 0.3)
    assert diag["miss"] > 1e-3 and abs(diag["psi"] - 0.9023683) < 1e-6


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


# ---------------------------------------------------------------------------
# counter-based uniforms and batch invariance


def test_counter_uniforms_are_open_repeatable_and_keyed():
    key, paths = sampler._key(2024), np.arange(100_000)
    u = sampler._uniforms(key, paths, 3)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(u, sampler._uniforms(sampler._key(2024), paths, 3))
    along_draws = np.concatenate([sampler._uniforms(key, paths[:1], d) for d in paths])
    for v in (u, along_draws):
        assert stats.kstest(v, "uniform").pvalue > 1e-6
    neighbours = {
        "seed": sampler._uniforms(sampler._key(2025), paths, 3),
        "path": sampler._uniforms(key, paths + 1, 3),
        "draw": sampler._uniforms(key, paths, 4),
    }
    for name, v in neighbours.items():
        assert not np.any(v == u), name
        assert abs(np.corrcoef(u, v)[0, 1]) < 0.02, name


def test_counter_uniforms_are_philox_outputs_at_any_offset():
    # path i takes output i of the Philox stream keyed by (seed, draw),
    # whatever subset of paths a call asks for
    seed, draw = 2**64 - 3, 7
    raw = np.random.Philox(key=seed | (draw << 64)).random_raw(64)
    expected = ((raw >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
    key = sampler._key(seed)
    for paths in (np.arange(64), np.arange(5, 64), np.array([63, 9, 10, 2, 41])):
        assert np.array_equal(sampler._uniforms(key, paths, draw), expected[paths])


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


def test_markov_route_makes_one_engine_call_per_step(monkeypatch):
    # a step before the horizon makes one engine call for psi_s and one for
    # the density part of psi_t on the grids of all paths (its lattice), so
    # the states the engine receives barely grow with the path count; the
    # horizon step needs psi_s alone
    calls = []
    for name in ("psi_total_many", "_density_psi_many"):
        def counted(spec, t, xis, real=getattr(core, name), name=name):
            calls.append((name, float(t), np.size(xis)))
            return real(spec, t, xis)

        monkeypatch.setattr(core, name, counted)
    real_step = sampler._markov_step_continuous

    def step(*args, **kwargs):
        calls.append(None)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(sampler, "_markov_step_continuous", step)
    times = [0.25, 0.5, 0.75, 1.0]
    seen, states = [], []
    for n in (1, 5, 24, 240):
        calls.clear()
        sampler.simulate_paths(checks.brownian_mixed(), times, n, 9, method="markov")
        engine = [c for c in calls if c is not None]
        assert len(engine) <= (len(times) - 1) + len(times)
        seen.append([c[:2] for c in engine])
        per_step = np.cumsum([c is None for c in calls])
        states.append([sum(c[2] for c, k in zip(calls, per_step) if c is not None and k == j)
                       for j in range(1, len(times))])
    assert seen[0] == seen[1] == seen[2] == seen[3]
    assert all(big <= 2 * small for big, small in zip(states[3], states[2]))


def _record_psi_on_nodes(monkeypatch):
    """Every (spec, t, nodes, psi) the Markov steps read psi_t from."""
    real, seen = sampler._psi_on_nodes, []

    def recorded(spec, t, nodes):
        psi = real(spec, t, nodes)
        seen.append((spec, t, nodes.copy(), psi.copy()))
        return psi

    monkeypatch.setattr(sampler, "_psi_on_nodes", recorded)
    return seen


def _assert_lattice_matches_engine(seen, rtol=1e-9):
    assert seen
    for spec, t, nodes, psi in seen:
        direct = core.psi_total_many(spec, t, nodes)
        worst = float(np.max(np.abs(psi - direct) / direct))
        assert worst <= rtol, (t, worst)


def test_lattice_psi_matches_the_engine_on_the_bench_markov_calls(monkeypatch):
    # the mixed-law Markov call of the benchmark's paths workload (16 paths on
    # the grid 0.25, 0.5, 0.75, 1) at workload seeds 201-210: its seed is the
    # twelfth word of SeedSequence(workload seed)
    seen = _record_psi_on_nodes(monkeypatch)
    spec = checks.brownian_mixed()
    for bench_seed in range(201, 211):
        seed = int(np.random.SeedSequence(bench_seed).generate_state(12)[11])
        sampler.simulate_paths(spec, [0.25, 0.5, 0.75, 1.0], 16, seed, method="markov")
    assert len(seen) == 30
    _assert_lattice_matches_engine(seen)


@pytest.mark.parametrize("make_spec", [drift_spec, gamma_scaled_spec, checks.brownian_mixed])
def test_lattice_psi_matches_the_engine_on_the_markov_test_specs(monkeypatch, make_spec):
    seen = _record_psi_on_nodes(monkeypatch)
    for times, seed in (([0.25, 0.5, 0.75, 1.0], 61), ([0.5, 0.9, 0.99, 1.0], 62)):
        sampler.simulate_paths(make_spec(), times, 24, seed, method="markov")
    _assert_lattice_matches_engine(seen)


def test_lattice_psi_next_to_the_gamma_support_edge():
    # stencils that would cross 0 go to the engine directly; the nodes just
    # past them interpolate from lattice points above 0
    spec = gamma_scaled_spec()
    nodes = np.concatenate([np.geomspace(1e-24, 0.3, 400), np.linspace(0.0, 0.3, 301)])
    for t in (0.25, 0.5, 0.75, 0.95):
        psi = sampler._psi_on_nodes(spec, t, nodes[None, :])
        _assert_lattice_matches_engine([(spec, t, nodes, psi[0])])


@pytest.mark.parametrize("times", [[0.5, 1 - 1e-6, 1.0], [0.5, 1 - 2e-6, 1 - 1e-6, 1.0]])
def test_lattice_never_sends_the_engine_more_states_than_nodes(monkeypatch, times):
    # near the horizon h_t is far below the grid spacing of a long step, whose
    # stencils would not overlap: its rows go to the engine node by node; a
    # short step there reads the lattice, spread over many h_t
    seen, sizes, real = _record_psi_on_nodes(monkeypatch), [], core._density_psi_many

    def counted(spec, t, xis):
        sizes.append(np.size(xis))
        return real(spec, t, xis)

    monkeypatch.setattr(core, "_density_psi_many", counted)
    n = 16
    sampler.simulate_paths(drift_spec(), times, n, 9, method="markov")
    assert len(sizes) == len(times) - 1
    assert all(k <= n * 1025 for k in sizes), sizes
    _assert_lattice_matches_engine(seen)


def test_lattice_values_depend_on_the_row_alone(monkeypatch):
    # a row's psi is the same bit for bit alone and in a batch, and whether
    # the touched lattice points are indexed densely or by a sorted array
    real = sampler._psi_on_nodes
    seen = _record_psi_on_nodes(monkeypatch)
    for make_spec, times in (
        (checks.brownian_mixed, [0.25, 0.5, 0.75, 1.0]),
        (gamma_scaled_spec, [0.5, 0.9, 0.99, 1.0]),
        (drift_spec, [0.5, 1 - 2e-6, 1 - 1e-6, 1.0]),
    ):
        sampler.simulate_paths(make_spec(), times, 8, 5, method="markov")
    assert len(seen) == 9
    for spec, t, nodes, psi in seen:
        for i in range(nodes.shape[0]):
            assert np.array_equal(real(spec, t, nodes[i : i + 1]), psi[i : i + 1])
    monkeypatch.setattr(sampler, "_DENSE_SPAN", 0)
    for spec, t, nodes, psi in seen:
        assert np.array_equal(real(spec, t, nodes), psi)


@pytest.mark.parametrize("method", ["terminal_first", "markov"])
def test_generator_entry_points_run_the_seeded_route(method):
    spec, times = checks.brownian_mixed(), [0.5, 1.0]
    seed = int(RandomStream(77, 0).generator().integers(2**64, dtype=np.uint64))
    want = sampler.simulate_paths(spec, times, 8, seed, method=method)
    got = sampler.sample_marginals(spec, times, 8, RandomStream(77, 0).generator(), method=method)
    assert np.array_equal(got, want)
    one = {"terminal_first": sampler.sample_lrb_terminal_first, "markov": sampler.sample_lrb_markov}
    path = one[method](spec, times, RandomStream(77, 0).generator())
    assert np.array_equal(path.values, want[0])
    if method == "terminal_first":
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
