import dataclasses
import math
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sci_integrate
from scipy import special

import quad_reference
from levybridge import core, numerics, sampler
from levybridge.core import LRBSpec
from levybridge.errors import (
    DomainError,
    InfiniteMomentError,
    InvalidPinError,
    NumericError,
    UnreachableStateError,
)
from levybridge.kernels import BrownianKernel, GammaKernel, PoissonKernel
from levybridge.laws import TerminalLaw
from levybridge.numerics import DensityComponent


THETA = 0.5


def drift_spec():
    """Brownian with a matching-variance normal terminal: psi has a closed form."""
    return LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.normal(THETA, 1.0)
    )


def mixed_spec():
    return LRBSpec(
        kernel=BrownianKernel(),
        horizon=1.0,
        terminal=TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),)),
    )


def gamma_atom_spec():
    return LRBSpec(
        kernel=GammaKernel(2.0),
        horizon=1.0,
        terminal=TerminalLaw.from_atoms([(1.0, 0.5), (2.5, 0.5)]),
    )


def gamma_scaled_spec(kappa=1.5):
    return LRBSpec(
        kernel=GammaKernel(2.0), horizon=1.0, terminal=TerminalLaw.gamma(2.0, kappa)
    )


def cauchy_quantile(u):
    # tan(pi (u - 1/2)), written from the nearer end so that both tails keep their digits
    u = np.asarray(u, dtype=float)
    return np.where(u < 0.5, -1.0 / np.tan(math.pi * u), 1.0 / np.tan(math.pi * (1.0 - u)))


def cauchy_spec():
    heavy = DensityComponent(
        pdf=lambda z: 1.0 / (math.pi * (1.0 + np.asarray(z) ** 2)),
        lower=-math.inf,
        upper=math.inf,
        quantile=cauchy_quantile,
    )
    return LRBSpec(kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw(density=heavy))


def poisson_spec():
    return LRBSpec(
        kernel=PoissonKernel(1.0),
        horizon=1.0,
        terminal=TerminalLaw.from_atoms([(0.0, 0.3), (2.0, 0.4), (5.0, 0.3)]),
    )


# ---------------------------------------------------------------------------
# construction


def test_horizon_validated():
    with pytest.raises(DomainError):
        LRBSpec(kernel=BrownianKernel(), horizon=0.0, terminal=TerminalLaw.point(1.0))
    with pytest.raises(DomainError):
        LRBSpec(
            kernel=BrownianKernel(), horizon=math.inf, terminal=TerminalLaw.point(1.0)
        )


def test_terminal_must_be_reachable():
    # gamma paths cannot reach 0 or negative values at the horizon
    with pytest.raises(InvalidPinError):
        LRBSpec(kernel=GammaKernel(2.0), horizon=1.0, terminal=TerminalLaw.point(0.0))
    with pytest.raises(InvalidPinError):
        LRBSpec(kernel=GammaKernel(2.0), horizon=1.0, terminal=TerminalLaw.point(-1.0))
    # a density leaking outside the kernel support is rejected outright
    with pytest.raises(InvalidPinError):
        LRBSpec(
            kernel=GammaKernel(2.0), horizon=1.0, terminal=TerminalLaw.normal(0.5, 0.04)
        )


@pytest.mark.parametrize(
    "family,params",
    [
        ("normal", (0.5, math.inf)),
        ("normal", (math.nan, 1.0)),
        ("normal", (math.inf, 1.0)),
        ("normal", (0.5, math.nan)),
        ("gamma", (2.0, math.inf)),
        ("gamma", (math.inf, 1.0)),
        ("uniform", (0.0, math.inf)),
    ],
    ids=str,
)
def test_law_parameters_must_be_finite(family, params):
    with pytest.raises(DomainError):
        getattr(TerminalLaw, family)(*params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_states_are_domain_errors(bad):
    spec, xis = mixed_spec(), np.array([0.3, bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: core.psi_total_many(spec, 0.5, xis),
            lambda: core.psi_total_many(spec, 0.0, xis),
            lambda: core.posterior_mean_many(spec, 0.5, xis),
            lambda: core._posterior_moments(spec, (0.5, 0.2), xis, (1,)),
        ):
            with pytest.raises(DomainError):
                call()


def test_lattice_terminal_rules():
    with pytest.raises(DomainError):
        LRBSpec(
            kernel=PoissonKernel(1.0), horizon=1.0, terminal=TerminalLaw.uniform(0, 1)
        )
    with pytest.raises(DomainError):
        LRBSpec(
            kernel=PoissonKernel(1.0), horizon=1.0, terminal=TerminalLaw.point(1.5)
        )
    with pytest.raises(InvalidPinError):
        LRBSpec(
            kernel=PoissonKernel(1.0), horizon=1.0, terminal=TerminalLaw.point(-1.0)
        )


# ---------------------------------------------------------------------------
# psi


def test_psi_is_one_at_time_zero():
    for spec in (drift_spec(), mixed_spec(), gamma_atom_spec(), poisson_spec()):
        assert core.psi_total(spec, 0.0, 0.0) == 1.0
    assert np.all(core.psi_total_many(drift_spec(), 0.0, np.linspace(-2, 2, 5)) == 1.0)


def test_psi_brownian_drift_closed_form():
    # matching-variance normal terminal collapses psi to exp(theta y - theta^2 t / 2)
    spec = drift_spec()
    for t, y in ((0.5, 1.0), (0.25, -0.8), (0.9, 2.0)):
        want = math.exp(THETA * y - THETA**2 * t / 2.0)
        assert abs(core.psi_total(spec, t, y) - want) <= 1e-13 * want


def test_psi_brownian_drift_pin():
    got = core.psi_total(drift_spec(), 0.5, 1.0)
    assert abs(got - 1.5488302986341331) < 1e-13


def test_psi_gamma_scaled_closed_form():
    # gamma kernel with a scale-kappa gamma terminal of matching shape:
    # psi = kappa^(-m t) exp((1 - 1/kappa) y)
    kappa = 1.5
    spec = gamma_scaled_spec(kappa)
    for t, y in ((0.5, 1.0), (0.2, 0.3), (0.8, 4.0)):
        want = kappa ** (-2.0 * t) * math.exp((1.0 - 1.0 / kappa) * y)
        # the integral runs at the default quadrature budget (rel 1e-9)
        assert abs(core.psi_total(spec, t, y) - want) <= 1e-9 * want
    assert abs(core.psi_total(spec, 0.5, 1.0) - 0.9304082833907262) < 1e-12


def test_psi_time_domain():
    spec = drift_spec()
    with pytest.raises(DomainError):
        core.psi_total(spec, 1.0, 0.5)
    with pytest.raises(DomainError):
        core.psi_total(spec, -0.1, 0.5)


def test_psi_many_matches_scalar():
    # both engine entry points against the independent QUADPACK reference
    for spec, xis in (
        (mixed_spec(), np.linspace(-4.0, 4.0, 21)),
        (gamma_atom_spec(), np.linspace(0.05, 2.4, 21)),
        (gamma_scaled_spec(), np.linspace(0.05, 6.0, 21)),
    ):
        for t in (0.1, 0.5, 0.9):
            ref = np.array([quad_reference.psi(spec, t, x) for x in xis])
            many = core.psi_total_many(spec, t, xis)
            one = np.array([core.psi_total(spec, t, x) for x in xis])
            assert np.all(np.abs(many - ref) <= 1e-10 * ref)
            assert np.all(np.abs(one - ref) <= 1e-10 * ref)


@given(
    law=st.sampled_from(["mixed", "gamma"]),
    t=st.floats(0.05, 0.95),
    unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    pick=st.integers(0, 39),
)
def test_scalar_psi_is_a_batch_of_one(law, t, unit, pick):
    # a state's psi must not depend on which other states share its call
    spec, lo, hi = (mixed_spec(), -8.0, 8.0) if law == "mixed" else (gamma_scaled_spec(), 0.01, 30.0)
    xis = lo + (hi - lo) * np.array(unit)
    x = float(xis[pick % xis.size])
    one = core.psi_total(spec, t, x)
    many = core.psi_total_many(spec, t, xis)[pick % xis.size]
    assert abs(one - many) <= 1e-10 * one


def test_psi_gamma_far_states_match_closed_form():
    # the gamma branch once cut the prior at its 1 - 1e-16 quantile (61.7),
    # losing psi past about xi = 30 and failing outright near xi = 100
    kappa = 1.5
    spec = gamma_scaled_spec(kappa)
    xis = np.geomspace(0.1, 200.0, 25)
    for t in (0.1, 0.5, 0.9):
        psi = kappa ** (-2.0 * t) * np.exp((1.0 - 1.0 / kappa) * xis)
        mean = xis + 2.0 * (1.0 - t) * kappa
        for got, want in (
            (core.psi_total_many(spec, t, xis), psi),
            (np.array([core.psi_total(spec, t, x) for x in xis]), psi),
            (core.posterior_mean_many(spec, t, xis), mean),
            (np.array([core.conditional_moment(spec, t, x, 1) for x in xis]), mean),
        ):
            assert np.all(np.abs(got - want) <= 1e-10 * want)
    assert np.isfinite(core.psi_total(spec, 0.1, 100.0))


def _undeclared_gamma(shape, scale):
    """A Gamma(shape, scale) density built by hand, with no edge declaration."""
    def logpdf(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (shape - 1.0) * np.log(z) - z / scale - special.gammaln(shape) - shape * math.log(scale)
        return np.where(z > 0.0, out, -np.inf)

    return DensityComponent(
        pdf=lambda z: np.exp(logpdf(z)),
        lower=0.0,
        upper=math.inf,
        quantile=lambda u: scale * special.gammaincinv(shape, u),
        logpdf=logpdf,
    )


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_undeclared_gamma_prior_takes_the_same_values(t):
    # the route through logpdf gives what the declared k log z + r(z) gives
    declared = gamma_scaled_spec()
    plain = LRBSpec(GammaKernel(2.0), 1.0, TerminalLaw(density=_undeclared_gamma(2.0, 1.5)))
    assert plain.terminal.density.edge_power is None
    xis = np.concatenate([[0.0, 1e-12], np.geomspace(1e-3, 200.0, 15)])
    for fn in (core.psi_total_many, core.posterior_mean_many):
        want, got = fn(declared, t, xis), fn(plain, t, xis)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_declared_gamma_prior_is_read_without_its_logpdf():
    # one log per node: the gamma branch reads k and r(z), never logpdf
    base = gamma_scaled_spec().terminal.density
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return base.logpdf(z)

    d = dataclasses.replace(base, logpdf=counted)
    spec = LRBSpec(GammaKernel(2.0), 1.0, TerminalLaw._from_sums((), d, 1.0))
    xis = np.geomspace(1e-3, 50.0, 9)
    want = core.posterior_mean_many(gamma_scaled_spec(), 0.5, xis)
    assert np.array_equal(core.posterior_mean_many(spec, 0.5, xis), want)
    assert calls == []


def test_gamma_overflow_is_a_numeric_error_without_warnings():
    # e^xi overflows at xi = 1000; only the NumericError reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite"):
            core.psi_total_many(gamma_scaled_spec(), 0.5, [1000.0])


def test_gamma_engine_builds_its_rules_without_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    numerics._jacobi_rule.cache_clear()
    try:
        spec = gamma_scaled_spec()
        xis = np.geomspace(1e-3, 50.0, 9)
        psi = core.psi_total_many(spec, 0.3, xis)
        assert np.all(np.abs(psi - 1.5 ** (-0.6) * np.exp(xis / 3.0)) <= 1e-10 * psi)
        out = sampler.simulate_paths(spec, [0.25, 0.5, 0.75, 1.0], 8, 7, method="markov")
        assert np.all(np.isfinite(out))
    finally:
        numerics._jacobi_rule.cache_clear()


# Gamma(k, 1) priors under GammaKernel(2) whose g(z) = z^(1-mT) p(z) is
# singular (k = 0.7) or flat (k = 3.5) at z = 0, at states next to it
EDGE_STATES = [(k, t, xi) for k in (0.7, 3.5) for t in (0.25, 0.5) for xi in (0.0, 1e-6, 0.01)]


def edge_gamma_spec(shape):
    return LRBSpec(kernel=GammaKernel(2.0), horizon=1.0, terminal=TerminalLaw.gamma(shape, 1.0))


def _edge_gamma_reference(k, t, xi):
    """psi and the posterior mean at (t, xi) on `edge_gamma_spec(k)`. At xi = 0 the closed forms
    Gamma(mT) Gamma(k - mt) / (Gamma(m(T-t)) Gamma(k)) and k - mt; elsewhere mpmath at 30 digits
    in u = w^a (w = z - xi, a = m(T-t)), which takes the kernel's w^(a-1) into du / a."""
    mp.mp.dps = 30
    m, k, t, xi = mp.mpf(2), mp.mpf(k), mp.mpf(t), mp.mpf(xi)
    a = m * (1 - t)
    if xi == 0:
        return (float(mp.gamma(m) * mp.gamma(k - m * t) / (mp.gamma(a) * mp.gamma(k))),
                float(k - m * t))

    def sums(q):
        def f(u):
            z = xi + u ** (1 / a)
            return z ** (q + 1 - m + k - 1) * mp.exp(xi - z)
        cuts = [0, *(mp.mpf(10) ** j * xi**a for j in range(-4, 5)), 1, 10, 100, mp.inf]
        return mp.gamma(m) / (mp.gamma(a) * mp.gamma(k) * a) * mp.quad(f, sorted(set(cuts)))

    psi = sums(0)
    return float(psi), float(sums(1) / psi)


# next to the horizon, a = m (T - t) <= 0.02: in w, the rule's cut at s = -6
# would drop a mass near e^(-634 a), so it runs in u = w^a
NEAR_HORIZON = [(0.7, 0.99, 1.0), (3.5, 0.99, 0.1), (3.5, 0.999, 1e-6), (6.0, 0.999, 0.01)]


@pytest.mark.parametrize("k,t,xi", [s for s in EDGE_STATES if s != (0.7, 0.5, 0.0)] + NEAR_HORIZON)
def test_gamma_edge_states_match_references(k, t, xi):
    psi, mean = _edge_gamma_reference(k, t, xi)
    spec = edge_gamma_spec(k)
    got_psi = core.psi_total_many(spec, t, [xi])[0]
    got_mean = core.posterior_mean_many(spec, t, [xi])[0]
    assert abs(got_psi - psi) <= 1e-12 * psi
    assert abs(got_mean - mean) <= 1e-12 * mean


def test_gamma_edge_state_with_infinite_psi_raises():
    # at (t, xi) = (0.5, 0) on Gamma(0.7) the integrand goes as w^(0.7 - 1 - 1) = w^-1.3 at 0
    with pytest.raises(NumericError, match="does not decay") as err:
        core.psi_total_many(edge_gamma_spec(0.7), 0.5, [0.0])
    assert err.value.diagnostics == {"t": 0.5, "states": (0.0, 0.0), "a": 1.0}


def test_gamma_engine_builds_no_jacobi_rule_above_order_64(monkeypatch):
    orders, real = [], numerics._jacobi_rule
    monkeypatch.setattr(numerics, "_jacobi_rule", lambda n, beta: orders.append(n) or real(n, beta))
    for k in (0.7, 3.5):
        for t in (0.25, 0.5, 0.9):
            psi = core.psi_total_many(edge_gamma_spec(k), t, [1e-6, 0.01, 1.0, 30.0])
            assert np.all(np.isfinite(psi) & (psi > 0.0))
    assert set(orders) == {32, 48}


def test_gamma_edge_rule_serves_states_below_the_prior():
    # a prior on [1, inf): from a state below 1 the window starts above the
    # state, where w^(a-1) is smooth, and the row takes the edge rule
    base = TerminalLaw.gamma(2.0, 1.5)
    law = base.translate(1.0)
    spec = LRBSpec(kernel=GammaKernel(2.0), horizon=1.0, terminal=law)
    for t, xi in ((0.5, 0.3), (0.9, 0.99)):
        want = quad_reference.tilted_sum(spec, t, xi)
        assert abs(core.psi_total_many(spec, t, [xi])[0] - want) <= 1e-10 * want


def test_psi_cauchy_prior_matches_reference():
    # a prior window of +-3e15 once hid a unit-wide integrand from the probe
    spec = cauchy_spec()
    for t, xi in ((0.5, 0.3), (0.9, -5.0)):
        want = quad_reference.psi(spec, t, xi)
        assert abs(core.psi_total(spec, t, xi) - want) <= 1e-9 * want
        assert abs(core.psi_total_many(spec, t, np.array([xi, 0.0]))[0] - want) <= 1e-9 * want


ROW_LAWS = {
    # rows differ in probe windows; Cauchy rows re-probe and stop at 128 to
    # 1024 nodes; the sharp gamma prior stops rows at Jacobi orders 64 and
    # 128; gamma states below the prior's 1e-16 quantile take the composite
    # rule
    "mixed": (mixed_spec, np.linspace(-40.0, 40.0, 33)),
    "cauchy": (cauchy_spec, np.linspace(-6.0, 6.0, 13)),
    "uniform": (
        lambda: LRBSpec(BrownianKernel(), 1.0, TerminalLaw.uniform(-1.0, 2.0)),
        np.linspace(-3.0, 4.0, 15),
    ),
    "gamma": (gamma_scaled_spec, np.concatenate([[1e-12, 1e-10], np.geomspace(1e-3, 200.0, 20)])),
    "sharp_gamma": (
        lambda: LRBSpec(GammaKernel(2.0), 1.0, TerminalLaw.gamma(20.0, 0.1)),
        np.geomspace(1e-3, 6.0, 20),
    ),
}


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("law", list(ROW_LAWS))
def test_engine_rows_do_not_depend_on_the_batch(law, t):
    # each state's psi and posterior mean equal those of a batch of one, bit for bit
    make, xis = ROW_LAWS[law]
    spec = make()
    for fn in (core.psi_total_many, core.posterior_mean_many):
        many = fn(spec, t, xis)
        one = np.array([fn(spec, t, xis[i : i + 1])[0] for i in range(xis.size)])
        assert np.array_equal(many, one)
        assert np.array_equal(many[::-1], fn(spec, t, xis[::-1]))


TIME_LAWS = {
    # atom terms and Brownian rows take their time natively (the Cauchy rows
    # re-probe); the gamma branch runs once per distinct time
    "mixed": (mixed_spec, np.linspace(-6.0, 6.0, 9)),
    "cauchy": (cauchy_spec, np.linspace(-6.0, 6.0, 9)),
    "uniform": (ROW_LAWS["uniform"][0], np.linspace(-3.0, 4.0, 9)),
    "gamma": (gamma_scaled_spec, np.geomspace(1e-3, 20.0, 9)),
    "binary": (
        lambda: LRBSpec(BrownianKernel(), 1.0, TerminalLaw.from_atoms([(0.0, 0.5), (1.0, 0.5)])),
        np.linspace(-3.0, 4.0, 9),
    ),
}


@pytest.mark.parametrize("law", list(TIME_LAWS))
def test_engine_rows_take_their_own_time(law):
    # a batch with a time per state gives each state the sums of a batch of
    # one at that scalar time, bit for bit; some times repeat
    make, xis = TIME_LAWS[law]
    spec = make()
    ts = np.array([0.1, 0.9, 0.5, 0.1, 0.3, 0.9, 0.7, 0.5, 0.25])
    powers = (0, 1, 2)
    many = core._tilted_sums(spec, ts, xis, powers)
    for i in range(xis.size):
        one = core._tilted_sums(spec, float(ts[i]), xis[i : i + 1], powers)
        assert all(many[q][i] == one[q][0] for q in powers), (ts[i], xis[i])


def test_atom_terms_of_distinct_times_take_one_kernel_call(monkeypatch):
    # the atom rows of every state come from one step log-density call (and
    # one at the horizon), however many distinct times the states carry
    spec = LRBSpec(BrownianKernel(), 1.0, TerminalLaw.from_atoms([(0.0, 0.5), (1.0, 0.5)]))
    calls, real = [], BrownianKernel.log_density
    monkeypatch.setattr(BrownianKernel, "log_density",
                        lambda self, t, x: calls.append(t) or real(self, t, x))
    core._tilted_sums(spec, np.array([0.2, 0.4, 0.6, 0.8]), np.array([0.1, -0.3, 0.5, 0.9]))
    assert len(calls) == 2


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_mixed_surface_row_evaluates_33_plus_132_entries(t, monkeypatch):
    # each row's exponent is built once on its 33-point probe, laid out
    # (points, states), and once on its first quadrature level, 4 panels of
    # the 33-point Kronrod rule: there the 16-point Gauss sums agree with the
    # Kronrod sums. The declared normal prior reads its log-density once per
    # row (at its quadrature level's expansion point) and at no node; an
    # undeclared copy reads it at the 33 + 132 entries
    base = mixed_spec().terminal
    sizes, built, real = [], [], core._exponent

    def counted(z):
        sizes.append(np.shape(z))
        return base.density.logpdf(z)

    monkeypatch.setattr(core, "_exponent",
                        lambda x, terms, *a: built.append(np.shape(x - terms[0])) or real(x, terms, *a))
    for quad in (base.density.log_quadratic, None):
        density = dataclasses.replace(base.density, logpdf=counted, log_quadratic=quad)
        spec = LRBSpec(BrownianKernel(), 1.0, TerminalLaw(atoms=base.atoms, density=density))
        for xi in np.linspace(-3.0, 3.0, 7) * math.sqrt(t):
            sizes.clear(), built.clear()
            core.posterior_mean_many(spec, t, np.array([xi]))
            assert built == [(33, 1), (1, 132)], xi
            assert sizes == ([(1,)] if quad else [(33, 1), (1, 132)]), xi


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_gamma_surface_row_evaluates_17_plus_32_plus_48_entries(t, monkeypatch):
    # a gamma row from its state reads g once on its 17 spans (the prior is
    # unbounded above), laid out (spans, states), then on Gauss-Jacobi 32 and 48
    sizes, real = [], core._gamma_log_g
    monkeypatch.setattr(core, "_gamma_log_g",
                        lambda spec, z, q=0: sizes.append(np.shape(z)) or real(spec, z, q))
    for xi in (0.05, 1.0, 6.0):
        sizes.clear()
        core.posterior_mean_many(gamma_scaled_spec(), t, np.array([xi]))
        assert sizes == [(17, 1), (1, 32), (1, 48)], xi


def test_gamma_log_g_takes_no_log_where_the_power_is_zero(monkeypatch):
    # on a Gamma(mT, scale) prior z^(1-mT) p(z) has no power of z left at q = 0:
    # the sums take no log and equal the log-times-0 formula bit for bit
    z = np.concatenate([[0.0, 1e-320, 1e-300, 1e-10], np.geomspace(1e-3, 800.0, 200)])
    for m, T, scale in ((2.0, 1.0, 1.5), (1.5, 1.0, 0.7), (0.5, 4.0, 2.0), (3.0, 0.5, 0.2)):
        spec = LRBSpec(GammaKernel(m), T, TerminalLaw.gamma(m * T, scale))
        d = spec.terminal.density
        zz = np.maximum(z, 1e-300)
        want = np.log(zz) * (1.0 - m * T + d.edge_power) + d.edge_rest(zz)
        assert np.array_equal(core._gamma_log_g(spec, z.copy()), want)
    spec = gamma_scaled_spec()
    numerics._jacobi_rule(32, 0.0), numerics._jacobi_rule(48, 0.0)

    def refuse(*args, **kwargs):
        raise AssertionError("np.log called in a Jacobi tile")

    monkeypatch.setattr(np, "log", refuse)
    xg = np.geomspace(0.01, 20.0, 50)
    _, agree = core._jacobi_tilted(partial(core._gamma_log_g, spec), xg, xg + 40.0, 1.0, (0, 1))
    assert np.all(agree)


def test_span_and_probe_rows_do_not_depend_on_the_batch():
    # each state's span and probe result alone equals its row in a batch of
    # 5,000, which crosses several tiles
    rng = np.random.default_rng(23)
    n, pick = 5000, np.r_[0:5000:37, 4999]
    spec = gamma_scaled_spec()
    log_g = partial(core._gamma_log_g, spec)
    xg = rng.gamma(1.0, 1.5, n)
    for a, q in ((1.0, 1), (1.8, 0)):
        many = core._gamma_spans(log_g, xg, a, q, 55.0)
        one = [core._gamma_spans(log_g, xg[i : i + 1], a, q, 55.0)[0] for i in pick]
        assert np.array_equal(many[pick], one)
    spec, T = mixed_spec(), 1.0
    d = spec.terminal.density
    xis = rng.normal(0.0, 1.5, n)
    ts = rng.choice([0.1, 0.5, 0.9], n)
    rows = core._brownian_rows(T, ts)
    plo, phi = np.full(n, -12.0) + 0.5 * xis, np.full(n, 14.0) + xis
    many = np.stack(core._log_integrand_probe(T, ts, rows, xis, plo, phi, d))
    for i in pick:
        r = slice(i, i + 1)
        one = core._log_integrand_probe(T, ts[r], core._rows(rows, r), xis[r], plo[r], phi[r], d)
        assert np.array_equal(many[:, i], np.concatenate(one)), i


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_gamma_surface_grid_rows_certify_at_orders_32_and_48(t):
    # the 241 grid states of a surface time (the 1e-12 to 1 - 1e-6 quantiles of
    # xi_t ~ Gamma(m t, 1.5)): every row from its state certifies with order
    # 32 against 48, and its order-48 sums match order 64 to 1e-13
    spec, a = gamma_scaled_spec(), 2.0 * (1.0 - t)
    xis = np.geomspace(*(1.5 * special.gammaincinv(2.0 * t, q) for q in (1e-12, 1.0 - 1e-6)), 241)
    w0, w1, _ = core._windows(spec, t, xis, 1)
    jac = w0 == 0.0
    assert np.count_nonzero(jac) > 200
    xg, W = xis[jac], w1[jac]
    log_g = partial(core._gamma_log_g, spec)
    sums, agree = core._jacobi_tilted(log_g, xg, W, a, (0, 1))
    assert np.all(agree)
    x, wts = numerics._jacobi_rule(64, a - 1.0)
    z = xg[:, None] + W[:, None] * ((1.0 + x) / 2.0)
    g = np.exp(log_g(z))
    ref = (W / 2.0)[:, None] ** a * np.column_stack([g @ wts, (g * z) @ wts])
    assert np.all(np.abs(sums - ref) <= 1e-13 * np.abs(ref))


def test_mixed_time_engine_error_reports_the_time_range():
    # the state at 80 underflows; the diagnostics name the batch's times
    with pytest.raises(NumericError) as info:
        core._tilted_sums(mixed_spec(), np.array([0.1, 0.5, 0.9]), np.array([80.0, 0.0, 0.3]))
    assert info.value.diagnostics["t"] == (0.1, 0.9)


NINE_ATOMS = tuple((-2.0 + 0.5 * i, (i + 1) / 45.0) for i in range(9))


def nine_atom_spec():
    return LRBSpec(BrownianKernel(), 1.0, TerminalLaw.from_atoms(NINE_ATOMS))


def _nine_atom_closed_form(t, xi):
    """(psi, posterior mean) of nine_atom_spec in mpmath."""
    with mp.workdps(30):
        t, xi = mp.mpf(t), mp.mpf(xi)
        terms = [
            mp.mpf(w) * mp.exp(-((z - xi) ** 2) / (2 * (1 - t)) + z**2 / 2) / mp.sqrt(1 - t)
            for z, w in NINE_ATOMS
        ]
        psi = mp.fsum(terms)
        return float(psi), float(mp.fsum(z * v for (z, _), v in zip(NINE_ATOMS, terms)) / psi)


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_nine_atoms_match_mpmath_and_do_not_depend_on_the_batch(t):
    # past 8 terms numpy sums an axis pairwise, so a state alone and a
    # state in a batch would add its atom terms in different orders; the
    # atom-major sum adds them in atom order for both
    spec, xis = nine_atom_spec(), np.linspace(-3.0, 3.0, 13)
    psi, mean = np.array([_nine_atom_closed_form(t, x) for x in xis]).T
    got_psi, got_mean = core.psi_total_many(spec, t, xis), core.posterior_mean_many(spec, t, xis)
    assert np.all(np.abs(got_psi - psi) <= 1e-13 * psi)
    assert np.all(np.abs(got_mean - mean) <= 1e-13 * np.maximum(np.abs(mean), 1.0))
    for i in range(xis.size):
        one = xis[i : i + 1]
        assert core.psi_total_many(spec, t, one)[0] == got_psi[i]
        assert core.posterior_mean_many(spec, t, one)[0] == got_mean[i]
        assert core.psi_total(spec, t, xis[i]) == got_psi[i]


def _mixed_closed_form(t, xi):
    """(psi, posterior mean) of mixed_spec by Gaussian algebra in mpmath."""
    with mp.workdps(30):
        t, xi = mp.mpf(t), mp.mpf(xi)

        def npdf(x, m, v):
            return mp.exp(-((x - m) ** 2) / (2 * v)) / mp.sqrt(2 * mp.pi * v)

        v_atom = t * (1 - t)
        v_dens = v_atom + t**2 * mp.mpf("0.64")
        atom = mp.mpf("0.3") * npdf(xi, -mp.mpf("0.75") * t, v_atom)
        dens = mp.mpf("0.7") * npdf(xi, mp.mpf("0.5") * t, v_dens)
        dens_mean = mp.mpf("0.5") + mp.mpf("0.64") * t / v_dens * (xi - mp.mpf("0.5") * t)
        psi = (atom + dens) / npdf(xi, 0, t)
        mean = (-mp.mpf("0.75") * atom + dens_mean * dens) / (atom + dens)
        return float(psi), float(mean)


def test_mixed_law_matches_mpmath_closed_form():
    spec = mixed_spec()
    xis = np.linspace(-30.0, 30.0, 25)
    for t in (0.1, 0.5, 0.9):
        psi, mean = np.array([_mixed_closed_form(t, x) for x in xis]).T
        one = [(core.psi_total(spec, t, x), core.conditional_moment(spec, t, x, 1)) for x in xis]
        for got, want, floor in (
            (core.psi_total_many(spec, t, xis), psi, 0.0),
            (np.array([p for p, _ in one]), psi, 0.0),
            (core.posterior_mean_many(spec, t, xis), mean, 1.0),
            (np.array([m for _, m in one]), mean, 1.0),
        ):
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), floor))


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_mixed_law_far_states_match_mpmath(t):
    # past |xi| ~ 32 the normal prior's pdf underflows where the integrand
    # lives; the engine's log-domain exponent keeps those states
    spec = mixed_spec()
    xis = np.array([-40.0, -36.0, -32.0, 32.0, 36.0, 40.0])
    psi, mean = np.array([_mixed_closed_form(t, x) for x in xis]).T
    assert np.all(psi > 0.0)
    for got, want in (
        (core.psi_total_many(spec, t, xis), psi),
        (np.array([core.psi_total(spec, t, x) for x in xis]), psi),
        (core.posterior_mean_many(spec, t, xis), mean),
        (np.array([core.conditional_moment(spec, t, x, 1) for x in xis]), mean),
    ):
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


def _mixed_density_closed_form(t, xi):
    """psi, mean and second moment of the density part of mixed_spec alone, and the whole
    law's second moment, by Gaussian algebra in mpmath at 40 digits."""
    with mp.workdps(40):
        t, xi, mu, s2 = mp.mpf(t), mp.mpf(xi), mp.mpf("0.5"), mp.mpf("0.64")
        npdf = lambda x, m, v: mp.exp(-((x - m) ** 2) / (2 * v)) / mp.sqrt(2 * mp.pi * v)
        v_dens = t * (1 - t) + t**2 * s2
        base = npdf(xi, 0, t)
        dens = mp.mpf("0.7") * npdf(xi, mu * t, v_dens)
        atom = mp.mpf("0.3") * npdf(xi, -mp.mpf("0.75") * t, t * (1 - t))
        mean = mu + s2 * t / v_dens * (xi - mu * t)
        second = mean**2 + s2 * t * (1 - t) / v_dens
        whole = (mp.mpf("0.75") ** 2 * atom + second * dens) / (atom + dens)
        return float(dens / base), float(mean), float(second), float(whole)


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_mixed_density_part_matches_40_digit_closed_form(t):
    # the normal prior's declared quadratic joins the Brownian exponent; its
    # power sums come from node moments (q = 2 covers the binomial terms)
    spec = mixed_spec()
    xis = np.array([-40.0, -20.0, -3.0, 0.3, 5.0, 25.0, 40.0])
    psi, mean, second, whole = np.array([_mixed_density_closed_form(t, x) for x in xis]).T
    sums = core._density_sums(spec, t, xis, (0, 1, 2))
    close = lambda got, want: np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
    assert np.all(np.abs(sums[:, 0] - psi) <= 1e-12 * psi)
    assert close(sums[:, 1] / sums[:, 0], mean) and close(sums[:, 2] / sums[:, 0], second)
    assert close(np.array([core.conditional_moment(spec, t, x, 2) for x in xis]), whole)


def _undeclared(law):
    """The law with the same pdf, logpdf and quantile and no declaration."""
    d = law.density
    plain = DensityComponent(pdf=d.pdf, lower=d.lower, upper=d.upper, quantile=d.quantile,
                             logpdf=d.logpdf)
    return TerminalLaw._from_sums(law.atoms, plain, law.density_mass)


@pytest.mark.parametrize("law", [mixed_spec().terminal, TerminalLaw.uniform(-1.0, 2.0),
                                 TerminalLaw.uniform(-0.1, 0.2)])
def test_declared_and_undeclared_priors_agree(law):
    # a row's exponent with the prior's declared quadratic, or with its
    # logpdf read at every node, on the benchmark's surface grid and times;
    # on uniform(-0.1, 0.2), whose lower end plus width rounds past its upper
    # end, the grid has states whose peak lies below and above the support
    declared, plain = (LRBSpec(BrownianKernel(), 1.0, w) for w in (law, _undeclared(law)))
    assert declared.terminal.density.log_quadratic and not plain.terminal.density.log_quadratic
    xis = np.linspace(-12.0, 12.0, 241)
    for t in (0.1, 0.5, 0.9):
        for fn, floor in ((core.psi_total_many, 0.0), (core.posterior_mean_many, 1.0)):
            got, want = fn(declared, t, xis), fn(plain, t, xis)
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), floor)), (t, fn)


@pytest.mark.parametrize("powers", [(0,), (0, 1), (0, 2)])
def test_declared_rows_do_not_depend_on_the_batch(powers):
    # a row alone equals its row in a batch of 5,000 states (many tiles and
    # per-state times), bit for bit
    rng = np.random.default_rng(31)
    spec, n = mixed_spec(), 5000
    xis, ts = rng.normal(0.0, 3.0, n), rng.choice([0.1, 0.5, 0.9], n)
    many = core._density_sums(spec, ts, xis, powers)
    for i in np.r_[0:n:211, n - 1]:
        one = core._density_sums(spec, float(ts[i]), xis[i : i + 1], powers)
        assert np.array_equal(many[i], one[0]), i


@pytest.mark.parametrize("t", [1e-3, 0.5, 0.999])
def test_brownian_log_weight_closed_form(t):
    k, T = BrownianKernel(), 1.0
    z = np.linspace(-250.0, 250.0, 1001)
    xis = np.linspace(-200.0, 200.0, 161)
    got = core._brownian_log_weight(T, core._brownian_rows(T, t), xis[:, None], z)
    want = k.log_density(T - t, z[None, :] - xis[:, None]) - k.log_density(T, z)[None, :]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_psi_many_far_states():
    # far states are where naive windows lose the integrand entirely
    spec = drift_spec()
    t = 0.1
    xis = np.array([-12.0, -8.0, 8.0, 12.0])
    got = core.psi_total_many(spec, t, xis)
    want = np.exp(THETA * xis - THETA**2 * t / 2.0)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_rn_derivative_inverts_psi():
    spec = mixed_spec()
    psi = core.psi_total(spec, 0.6, 0.4)
    assert abs(core.rn_derivative(spec, 0.6, 0.4) * psi - 1.0) < 1e-14


def test_posterior_mean_many_matches_moment():
    spec = mixed_spec()
    xis = np.array([-1.0, 0.0, 0.5, 1.5])
    many = core.posterior_mean_many(spec, 0.5, xis)
    for x, m in zip(xis, many):
        want = quad_reference.posterior_mean(spec, 0.5, x)
        assert abs(m - want) < 1e-11
        assert abs(core.conditional_moment(spec, 0.5, x, 1) - want) < 1e-11


def test_unreachable_state_raises():
    spec = gamma_atom_spec()
    with pytest.raises(UnreachableStateError):
        core.posterior_mean_many(spec, 0.5, np.array([3.5]))
    with pytest.raises(UnreachableStateError):
        core.rn_derivative(spec, 0.5, 3.5)


# ---------------------------------------------------------------------------
# transitions


def test_transition_density_normalizes():
    for spec in (drift_spec(), mixed_spec()):
        s, x, t = 0.2, 0.1, 0.6
        total, _ = sci_integrate.quad(
            lambda y: core.transition_density(spec, s, x, t, y),
            -9.0,
            9.0,
            limit=300,
        )
        assert abs(total - 1.0) < 1e-8


def test_transition_mass_normalizes():
    spec = poisson_spec()
    probs = [core.transition_mass(spec, 0.2, 0, 0.6, j) for j in range(6)]
    assert abs(sum(probs) - 1.0) < 1e-10
    # states above every terminal atom are unreachable
    assert core.transition_mass(spec, 0.2, 0, 0.6, 6) == 0.0


def test_transition_guards():
    spec = drift_spec()
    with pytest.raises(DomainError):
        core.transition_density(spec, 0.2, 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        core.transition_density(spec, 0.6, 0.0, 0.2, 0.5)
    with pytest.raises(DomainError):
        core.transition_mass(spec, 0.2, 0, 0.6, 1)
    with pytest.raises(DomainError):
        core.transition_density(poisson_spec(), 0.2, 0, 0.6, 1.0)


def test_transition_density_vector_matches_scalar():
    spec = mixed_spec()
    ys = np.linspace(-1.5, 1.5, 9)
    vec = core.transition_density(spec, 0.2, 0.1, 0.6, ys)
    for y, v in zip(ys, vec):
        assert abs(v - core.transition_density(spec, 0.2, 0.1, 0.6, float(y))) < 1e-12


# ---------------------------------------------------------------------------
# terminal posterior


def test_posterior_at_zero_is_prior():
    spec = mixed_spec()
    assert core.terminal_posterior(spec, 0.0, 0.0) is spec.terminal


def test_posterior_is_normalized_law():
    # TerminalLaw re-validates total mass on construction, so building one is
    # itself the check; also pin the atom reweighting against psi directly
    spec = mixed_spec()
    post = core.terminal_posterior(spec, 0.5, 0.3)
    total_atom = sum(w for _, w in post.atoms)
    dens_mass = sci_integrate.quad(post.density.pdf, -6.0, 6.0, limit=200)[0]
    assert abs(total_atom + dens_mass - 1.0) < 1e-8


def test_posterior_mean_interpolates():
    spec = drift_spec()
    post = core.terminal_posterior(spec, 0.5, 1.0)
    # for this conjugate pair the posterior is N(y + theta(T-t), T-t)
    assert abs(post.mean() - (1.0 + THETA * 0.5)) < 1e-9


def test_posterior_support_clips_to_state_for_subordinators():
    spec = gamma_scaled_spec()
    post = core.terminal_posterior(spec, 0.4, 0.8)
    assert post.density.lower == 0.8


def test_posterior_atoms_sharpen_toward_truth():
    spec = gamma_atom_spec()
    post = core.terminal_posterior(spec, 0.5, 2.0)
    weights = dict(post.atoms)
    # state 2.0 at t=0.5 already rules out the 1.0 atom
    assert 1.0 not in weights
    assert abs(weights[2.5] - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# conditional moments


def test_conditional_moment_validates_order():
    spec = drift_spec()
    with pytest.raises(DomainError):
        core.conditional_moment(spec, 0.5, 0.0, 0)
    with pytest.raises(DomainError):
        core.conditional_moment(spec, 0.5, 0.0, 1.5)


def test_conditional_moment_second_moment():
    spec = drift_spec()
    m2 = core.conditional_moment(spec, 0.5, 1.0, 2)
    # posterior N(1.25, 0.5): second moment = var + mean^2
    assert abs(m2 - (0.5 + 1.25**2)) < 1e-8


@pytest.mark.parametrize("t", [0.1, 0.5])
def test_brownian_posterior_moments_on_a_heavy_prior(t, monkeypatch):
    # past t = 0 a Brownian posterior is the prior times a normal factor, so
    # even the Cauchy prior's posterior has every moment finite: no tail scan
    def no_scan(*args):
        raise AssertionError("tail scan ran")

    monkeypatch.setattr(core, "_certify_moment_tail", no_scan)
    spec = cauchy_spec()
    for xi in (-2.0, 0.3, 1.5):
        psi = quad_reference.psi(spec, t, xi)
        for q in (1, 2):
            want = quad_reference.tilted_sum(spec, t, xi, q) / psi
            got = core.conditional_moment(spec, t, xi, q)
            assert np.isfinite(got) and abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_gamma_moment_tail_is_scanned_on_the_prior_once_per_time(monkeypatch):
    # a gamma posterior's tail at s is p(z) z^(-m s) up to a factor tending
    # to 1, so the prior is scanned with exponent q - m s; no posterior is built
    def refuse(*args):
        raise AssertionError("_posterior called")

    scans, real = [], core._certify_moment_tail
    monkeypatch.setattr(core, "_posterior", refuse)
    monkeypatch.setattr(core, "_certify_moment_tail", lambda d, q: scans.append(q) or real(d, q))
    spec = gamma_scaled_spec()
    want = quad_reference.tilted_sum(spec, 0.5, 1.0, 2) / quad_reference.tilted_sum(spec, 0.5, 1.0)
    assert abs(core.conditional_moment(spec, 0.5, 1.0, 2) - want) <= 1e-10 * want
    assert scans == [1.0]
    scans.clear()
    core._posterior_moments(spec, [0.5, 0.25, 0.5], [1.0, 2.0, 3.0], (1,))
    assert scans == [0.5, 0.0]


def test_infinite_moment_is_reported():
    with pytest.raises(InfiniteMomentError):
        core.conditional_moment(cauchy_spec(), 0.0, 0.0, 1)


# ---------------------------------------------------------------------------
# dynamic consistency


def test_restart_identity_at_zero():
    spec = mixed_spec()
    again = core.restart(spec, 0.0, 0.0)
    assert again.horizon == spec.horizon
    assert again.terminal is spec.terminal


def test_restart_composes_transitions():
    spec = drift_spec()
    s, xi, t = 0.3, 0.2, 0.7
    sub = core.restart(spec, s, xi)
    assert sub.horizon == spec.horizon - s
    for y in (-0.5, 0.2, 0.9):
        direct = core.transition_density(spec, s, xi, t, y)
        rebased = core.transition_density(sub, 0.0, 0.0, t - s, y - xi)
        assert abs(direct - rebased) <= 1e-9 * max(direct, 1e-12)


def test_restart_gamma_posterior_translated():
    spec = gamma_scaled_spec()
    sub = core.restart(spec, 0.4, 0.8)
    assert sub.horizon == 0.6
    assert sub.terminal.density.lower == 0.0


QUANTILE_LEVELS = np.array([1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])


def test_posterior_quantile_brownian_matches_closed_form():
    # X_T - xi given xi at s is N(theta (T - s), T - s) on the drift law
    s, xi = 0.5, 0.3
    d = core.terminal_posterior(drift_spec(), s, xi).density
    want = xi + THETA * (1.0 - s) + math.sqrt(1.0 - s) * special.ndtri(QUANTILE_LEVELS)
    assert np.all(np.abs(d.quantile(QUANTILE_LEVELS) - want) <= 1e-10)


def test_posterior_quantile_gamma_matches_closed_form():
    # X_T - xi given xi at s is Gamma(m (T - s), kappa); the restart spec's
    # law is built in the increment, so small increments keep their digits
    s, xi, kappa = 0.5, 1.0, 1.5
    d = core.restart(gamma_scaled_spec(kappa), s, xi).terminal.density
    want = kappa * special.gammaincinv(2.0 * (1.0 - s), QUANTILE_LEVELS)
    assert np.all(np.abs(d.quantile(QUANTILE_LEVELS) / want - 1.0) <= 1e-10)


def test_posterior_quantile_mixed_matches_mpmath():
    # the density part of the mixed law's posterior at 30 digits: one Newton
    # step of its mpmath cdf from each quantile leaves an error of the order
    # of the square of the quantile's own, so it is the root to 1e-20
    s, xi = 0.5, 0.3
    d = core.terminal_posterior(mixed_spec(), s, xi).density
    got = d.quantile(QUANTILE_LEVELS)
    with mp.workdps(30):
        pdf = lambda z: (mp.npdf(z, mp.mpf("0.5"), mp.mpf("0.8"))
                         * mp.npdf(z, xi, mp.sqrt(1 - mp.mpf(s))) / mp.npdf(z, 0, 1))
        total = mp.quad(pdf, [-mp.inf, 0.5, mp.inf])
        for u, z in zip(QUANTILE_LEVELS, got):
            u, z_mp = mp.mpf(float(u)), mp.mpf(float(z))
            if u <= 0.5:
                miss = mp.quad(pdf, [-mp.inf, z_mp]) / total - u
            else:
                miss = (1 - u) - mp.quad(pdf, [z_mp, mp.inf]) / total
            want = z_mp - miss / (pdf(z_mp) / total)
            assert abs(float(want) - z) <= 1e-10


def test_restart_psi_matches_the_closed_forms_on_its_clock():
    # a restart of a self-conjugate law is the plain process again (check 4),
    # with psi_u(y) exp(theta y - theta^2 u / 2) (Brownian) and
    # kappa^(-m u) e^((1 - 1/kappa) y) (gamma) on the restart clock u
    brownian = core.restart(drift_spec(), 0.5, 0.3)
    gamma = core.restart(gamma_scaled_spec(1.5), 0.5, 1.0)
    for u in (0.05, 0.25, 0.45):
        for y in (-1.5, 0.0, 0.4, 1.5):
            want = math.exp(THETA * y - 0.5 * THETA**2 * u)
            assert abs(core.psi_total(brownian, u, y) / want - 1.0) <= 1e-9
        for y in (0.05, 0.5, 2.0):
            want = 1.5 ** (-2.0 * u) * math.exp((1.0 - 1.0 / 1.5) * y)
            assert abs(core.psi_total(gamma, u, y) / want - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# increment (partition) laws


def test_partition_validated():
    spec = drift_spec()
    with pytest.raises(DomainError):
        core.increment_joint_density(spec, [0.5, 0.4], [0.1, 0.1])
    with pytest.raises(DomainError):
        core.increment_joint_density(spec, [0.5, -0.5, 1.0], [0.1, 0.1, 0.1])
    with pytest.raises(DomainError):
        core.increment_joint_density(spec, [0.5, 0.5], [0.1])


def test_joint_density_manual_value():
    spec = gamma_atom_spec()
    # increments landing exactly on the 1.0 atom
    a = (0.25, 0.75)
    y = (0.4, 0.6)
    k = spec.kernel
    want = (
        0.5
        / k.density(1.0, 1.0)
        * k.density(0.25, 0.4)
        * k.density(0.75, 0.6)
    )
    got = core.increment_joint_density(spec, a, y)
    assert abs(got - want) <= 1e-12 * want
    # a total off every atom carries no density for an atomic terminal law
    assert core.increment_joint_density(spec, a, (0.4, 0.55)) == 0.0


@given(
    data=st.tuples(
        st.floats(0.05, 0.9),
        st.floats(-1.5, 1.5),
        st.floats(-1.5, 1.5),
        st.floats(-1.5, 1.5),
    )
)
def test_joint_density_is_exchangeable(data):
    frac, y1, y2, y3 = data
    a1 = frac * 0.5
    alphas = (a1, 0.5 - a1, 0.5)
    ys = (y1, y2, y3)
    spec = mixed_spec()
    base = core.increment_joint_density(spec, alphas, ys)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        other = core.increment_joint_density(
            spec, [alphas[i] for i in perm], [ys[i] for i in perm]
        )
        assert abs(other - base) <= 1e-10 * max(base, 1e-300)


def test_reordered_reduces_to_joint():
    spec = mixed_spec()
    query = [(0.4, 0.3), (0.6, -0.2)]
    a = core.reordered_increment_conditional(spec, [], query)
    b = core.increment_joint_density(spec, [0.4, 0.6], [0.3, -0.2])
    assert abs(a - b) <= 1e-13 * max(b, 1e-300)


def test_reordered_depends_only_on_observed_totals():
    spec = mixed_spec()
    query = [(0.5, 0.3)]
    splits = (
        [(0.2, 0.25), (0.3, -0.05)],
        [(0.3, -0.05), (0.2, 0.25)],
        [(0.5, 0.2)],
        [(0.1, 0.6), (0.4, -0.4)],
    )
    vals = [core.reordered_increment_conditional(spec, obs, query) for obs in splits]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-10 * max(vals[0], 1e-300)


def test_reordered_guards():
    spec = gamma_atom_spec()
    with pytest.raises(DomainError):
        core.reordered_increment_conditional(spec, [(0.5, 0.2)], [])
    with pytest.raises(UnreachableStateError):
        core.reordered_increment_conditional(spec, [(0.5, 3.5)], [(0.5, 0.1)])
