import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sci_integrate

import quad_reference
from levybridge import core
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


def cauchy_spec():
    heavy = DensityComponent(
        pdf=lambda z: 1.0 / (math.pi * (1.0 + np.asarray(z) ** 2)),
        lower=-math.inf,
        upper=math.inf,
        cdf=lambda z: 0.5 + math.atan(z) / math.pi,
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
    # Brownian rows take their time natively (the Cauchy rows re-probe);
    # the gamma branch and the atom terms run once per distinct time
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


def test_mixed_time_engine_error_reports_the_time_range():
    # the state at 80 underflows; the diagnostics name the batch's times
    with pytest.raises(NumericError) as info:
        core._tilted_sums(mixed_spec(), np.array([0.1, 0.5, 0.9]), np.array([80.0, 0.0, 0.3]))
    assert info.value.diagnostics["t"] == (0.1, 0.9)


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


@pytest.mark.parametrize("t", [1e-3, 0.5, 0.999])
def test_brownian_log_weight_closed_form(t):
    k, T = BrownianKernel(), 1.0
    z = np.linspace(-250.0, 250.0, 1001)
    xis = np.linspace(-200.0, 200.0, 161)
    got = core._brownian_log_weight(T, t, xis, z)
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
