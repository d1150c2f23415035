import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import quad_reference
from levybridge import checks, core, pricing
from levybridge.core import LRBSpec
from levybridge.errors import (
    DomainError,
    NonMonotoneError,
    UnsupportedKernelError,
)
from levybridge.kernels import BrownianKernel, GammaKernel, PoissonKernel
from levybridge.laws import TerminalLaw
from levybridge.pricing import (
    BinaryBondSpec,
    CallSpec,
    ExerciseBoundary,
    RateCurve,
    binary_bond_posterior,
    call_price,
    critical_information,
    price,
    price_many,
    sde_coefficients,
)


def binary_spec():
    return LRBSpec(
        kernel=BrownianKernel(), horizon=1.0, terminal=TerminalLaw.binary(0.0, 1.0, 0.5)
    )


def gamma_pricing_spec():
    return LRBSpec(
        kernel=GammaKernel(3.0), horizon=1.0, terminal=TerminalLaw.gamma(3.0, 1.3)
    )


def dip_spec():
    """Widely separated atoms under a slow gamma kernel.

    Near the horizon the posterior mean is not monotone in the state: rising
    toward the low atom, dipping, then jumping to the high atom's basin.
    """
    return LRBSpec(
        kernel=GammaKernel(1.2),
        horizon=1.0,
        terminal=TerminalLaw.from_atoms([(1.0, 0.5), (2.5, 0.5)]),
    )


# ---------------------------------------------------------------------------
# rate curves


def test_flat_curve_discount():
    c = RateCurve.flat(0.05)
    assert abs(c.discount(0.0, 1.0) - math.exp(-0.05)) < 1e-16
    assert c.short_rate(0.7) == 0.05


def test_piecewise_curve_integral():
    c = RateCurve(times=(0.0, 0.4), rates=(0.02, 0.05))
    assert abs(c.integral(0.0, 1.0) - (0.02 * 0.4 + 0.05 * 0.6)) < 1e-16
    assert c.short_rate(0.2) == 0.02
    assert c.short_rate(0.4) == 0.05
    # discounting composes multiplicatively across an intermediate date
    assert abs(c.discount(0.0, 1.0) - c.discount(0.0, 0.4) * c.discount(0.4, 1.0)) < 1e-15


def test_curve_validation():
    with pytest.raises(DomainError):
        RateCurve(times=(0.1,), rates=(0.05,))
    with pytest.raises(DomainError):
        RateCurve(times=(0.0, 0.0), rates=(0.01, 0.02))
    with pytest.raises(DomainError):
        RateCurve(times=(0.0, 0.5), rates=(0.01,))
    with pytest.raises(DomainError):
        RateCurve(times=(0.0,), rates=(math.inf,))
    with pytest.raises(DomainError):
        RateCurve.flat(0.05).integral(0.5, 0.2)


def test_contract_validation():
    with pytest.raises(DomainError):
        CallSpec(strike=-1.0, maturity=0.5)
    with pytest.raises(DomainError):
        CallSpec(strike=1.0, maturity=0.5, valuation_time=0.5)
    with pytest.raises(DomainError):
        CallSpec(strike=1.0, maturity=0.5, xi=math.nan)
    with pytest.raises(DomainError):
        BinaryBondSpec(low=1.0, high=1.0, low_prob=0.5)
    with pytest.raises(DomainError):
        BinaryBondSpec(low=0.0, high=1.0, low_prob=1.0)


# ---------------------------------------------------------------------------
# bond prices


def test_price_pin_binary_midpoint():
    spec = binary_spec()
    got = price(spec, RateCurve.flat(0.0), 0.5, 0.25)
    assert abs(got - 0.5) < 1e-12


def test_price_discounting():
    spec = binary_spec()
    r = 0.07
    a = price(spec, RateCurve.flat(0.0), 0.25, 0.1)
    b = price(spec, RateCurve.flat(r), 0.25, 0.1)
    assert abs(b - a * math.exp(-r * 0.75)) < 1e-12


def test_price_many_matches_scalar():
    spec = gamma_pricing_spec()
    curve = RateCurve.flat(0.03)
    xis = np.array([0.2, 0.9, 2.0])
    vec = price_many(spec, curve, 0.4, xis)
    df = curve.discount(0.4, 1.0)
    for x, v in zip(xis, vec):
        want = df * quad_reference.posterior_mean(spec, 0.4, float(x))
        assert abs(v - want) < 1e-10
        assert abs(price(spec, curve, 0.4, float(x)) - want) < 1e-10


# the benchmark's laws: a normal prior with an atom, two atoms, and
# Gamma(m T, 1.5) under a gamma kernel
ROUTE_LAWS = {
    "mixed": (
        LRBSpec(BrownianKernel(), 1.0, TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),))),
        [(0.1, -0.5), (0.5, 0.3), (0.9, 1.2)],
    ),
    "binary": (
        LRBSpec(BrownianKernel(), 1.0, TerminalLaw.from_atoms([(0.0, 0.5), (1.0, 0.5)])),
        [(0.2, 0.1), (0.5, 0.5), (0.8, 1.0)],
    ),
    "gamma": (
        LRBSpec(GammaKernel(2.0), 1.0, TerminalLaw.gamma(2.0, 1.5)),
        [(0.1, 0.05), (0.5, 1.0), (0.9, 3.0)],
    ),
}


@pytest.mark.parametrize("law", list(ROUTE_LAWS))
def test_price_and_price_many_agree_bit_for_bit(law):
    # price takes conditional_moment (with the gamma tail scan) and price_many
    # posterior_mean_many; both divide the same engine sums
    spec, points = ROUTE_LAWS[law]
    curve = RateCurve.flat(0.02)
    for t, xi in points:
        assert price(spec, curve, t, xi) == price_many(spec, curve, t, np.array([xi]))[0], (t, xi)


# ---------------------------------------------------------------------------
# exercise boundary


def test_threshold_pin_binary():
    spec = binary_spec()
    b = critical_information(spec, RateCurve.flat(0.0), 0.5, 0.5)
    assert b.kind == "threshold"
    assert abs(b.threshold - 0.25) < 1e-9


@pytest.mark.parametrize("strike", [0.999, 0.001])
def test_threshold_far_in_the_tail_widens_the_bracket(strike):
    # the starting bracket misses these roots: one end is widened by steps
    # toward its bound, then the 33 samples are taken again on the final bracket.
    # Closed form: rho1 = sigmoid(2 xi - 1/2) at t = 1/2
    b = critical_information(binary_spec(), RateCurve.flat(0.0), 0.5, strike)
    assert b.kind == "threshold"
    assert abs(b.threshold - (math.log(strike / (1.0 - strike)) + 0.5) / 2.0) < 1e-12
    assert b.evaluations > 6


def test_threshold_extremes():
    spec = binary_spec()
    curve = RateCurve.flat(0.0)
    assert critical_information(spec, curve, 0.5, -0.5).kind == "all"
    assert critical_information(spec, curve, 0.5, 1.5).kind == "empty"


def test_boundary_guards():
    curve = RateCurve.flat(0.0)
    with pytest.raises(UnsupportedKernelError):
        critical_information(
            LRBSpec(
                kernel=PoissonKernel(1.0),
                horizon=1.0,
                terminal=TerminalLaw.from_atoms([(0.0, 0.5), (2.0, 0.5)]),
            ),
            curve,
            0.5,
            1.0,
        )
    with pytest.raises(DomainError):
        critical_information(binary_spec(), curve, 1.0, 0.5)
    with pytest.raises(DomainError):
        critical_information(binary_spec(), curve, 0.5, 0.5, mode="fancy")


def test_non_monotone_price_map_is_detected():
    with pytest.raises(NonMonotoneError):
        critical_information(dip_spec(), RateCurve.flat(0.0), 0.6, 1.6)


def test_set_mode_finds_split_region():
    # strikes inside the dip produce two exercise pieces; the low piece
    # starts at the reachable edge because tiny states still sit above it
    b = critical_information(dip_spec(), RateCurve.flat(0.0), 0.6, 1.4, mode="set")
    assert b.kind == "intervals"
    assert len(b.intervals) == 2
    (a0, b0), (a1, b1) = b.intervals
    assert a0 == 0.0 and 0.55 < b0 < 0.68
    assert b1 == 2.5
    # b0 is a genuine strike crossing; a1 is the jump point where the low
    # atom stops being reachable and the price leaps to the high payout
    curve = RateCurve.flat(0.0)
    assert abs(price(dip_spec(), curve, 0.6, b0) - 1.4) < 1e-7
    assert abs(a1 - 1.0) < 1e-9


def test_set_mode_agrees_with_threshold_when_monotone():
    spec = binary_spec()
    curve = RateCurve.flat(0.0)
    mono = critical_information(spec, curve, 0.5, 0.5)
    loose = critical_information(spec, curve, 0.5, 0.5, mode="set")
    assert loose.kind == "intervals"
    assert len(loose.intervals) == 1
    a, b = loose.intervals[0]
    assert abs(a - mono.threshold) < 1e-7
    assert math.isinf(b)


def test_set_mode_on_mixed_law():
    # the scan's far states once lost psi to QUADPACK's absolute tolerance,
    # and the rebuilt posterior failed validation with a DomainError
    spec = checks.brownian_mixed()
    curve = RateCurve.flat(0.0)
    mono = critical_information(spec, curve, 0.5, 0.3)
    loose = critical_information(spec, curve, 0.5, 0.3, mode="set")
    assert loose.kind == "intervals"
    assert len(loose.intervals) == 1
    a, b = loose.intervals[0]
    assert abs(a - mono.threshold) < 1e-7
    assert math.isinf(b)


def test_set_mode_on_a_restart_spec():
    # a restart posterior carries neither quantile nor cdf; set mode once
    # asked it for effective_interval() and raised "no cdf"
    spec = core.restart(checks.brownian_mixed(), 0.5, 0.3)
    curve = RateCurve.flat(0.0)
    mono = critical_information(spec, curve, 0.2, 0.2)
    assert abs(mono.threshold - 0.15260563166880797) < 1e-12
    loose = critical_information(spec, curve, 0.2, 0.2, mode="set")
    assert loose.kind == "intervals"
    assert len(loose.intervals) == 1
    a, b = loose.intervals[0]
    assert abs(a - mono.threshold) < 1e-12
    assert math.isinf(b)


@pytest.mark.parametrize("mode", ["monotone", "set"])
def test_boundary_counts_its_engine_calls(mode):
    # one call for the samples (33 or 257), then one per solver step: the
    # count is a property of the inputs and repeats exactly
    spec = checks.brownian_mixed()
    curve = RateCurve.flat(0.02)
    counts = {critical_information(spec, curve, 0.5, 0.3, mode=mode).evaluations for _ in range(3)}
    assert len(counts) == 1
    assert 2 <= counts.pop() <= 30


@pytest.mark.parametrize("strike,kind", [(1.0, "all"), (12.0, "threshold")])
def test_bracket_widening_is_batched(strike, kind, monkeypatch):
    # at strike 1 every state's price exceeds the strike, so the low end
    # steps 120 times toward 0; batches of up to 16 steps per engine call
    # find the same boundary as one step per call
    spec, curve = checks.gamma_pricing(), RateCurve.flat(0.03)
    batched = critical_information(spec, curve, 0.5, strike)
    monkeypatch.setattr(pricing, "_WIDEN_BATCH", 1)
    single = critical_information(spec, curve, 0.5, strike)
    assert batched.kind == kind and batched == single
    assert batched.evaluations <= single.evaluations
    if kind == "all":
        assert (batched.evaluations, single.evaluations) == (12, 121)


@pytest.mark.parametrize("strike", [20.0, -20.0])
def test_widening_toward_an_infinite_bound_steps_one_state_per_call(strike, monkeypatch):
    # the roots lie near +-25; doubling steps settle at +-31, and a batch of
    # further doublings (63 ... 255) would reach states where the mixed
    # law's tilted integrand underflows, so these steps are never batched
    spec, curve = checks.brownian_mixed(), RateCurve.flat(0.0)
    batched = critical_information(spec, curve, 0.5, strike)
    monkeypatch.setattr(pricing, "_WIDEN_BATCH", 1)
    single = critical_information(spec, curve, 0.5, strike)
    assert batched.kind == "threshold" and batched == single
    assert 25.0 < abs(batched.threshold) < 26.5


@pytest.mark.parametrize("r,want", [(0.0, 1.05), (0.05, 1.12594536157330)])
def test_set_mode_on_a_subordinator_with_unbounded_terminal_law(r, want):
    # the scan once ran up to the infinite top of the terminal support and
    # produced nan states; X_T >= xi caps it at 2 * strike / df
    spec = checks.gamma_pricing()
    curve = RateCurve.flat(r)
    mono = critical_information(spec, curve, 0.5, 3.0)
    loose = critical_information(spec, curve, 0.5, 3.0, mode="set")
    assert loose.kind == "intervals"
    assert len(loose.intervals) == 1
    a, b = loose.intervals[0]
    assert abs(a - mono.threshold) < 1e-7
    assert abs(a - want) < 1e-7
    assert b == math.inf


# ---------------------------------------------------------------------------
# call prices


def test_call_price_pins():
    # both values frozen from an independent 1-d quadrature of the payoff
    # against the mixture-of-bridge-marginals density of the state
    spec = binary_spec()
    curve = RateCurve.flat(0.0)
    got = call_price(spec, curve, CallSpec(strike=0.3, maturity=0.5))
    assert abs(got - 0.22349781068818325) < 1e-10
    got = call_price(spec, curve, CallSpec(strike=0.5, maturity=0.5))
    assert abs(got - 0.09573123063700656) < 1e-10


def test_call_price_routes_agree():
    spec = binary_spec()
    call = CallSpec(strike=0.3, maturity=0.5)
    curve = RateCurve.flat(0.02)
    a = call_price(spec, curve, call)
    boundary = critical_information(spec, curve, call.maturity, call.strike)
    b = checks._quadrature_call_price(spec, curve, call, boundary)
    assert abs(a - b) < 1e-7


def test_call_price_accepts_precomputed_boundary():
    spec = binary_spec()
    curve = RateCurve.flat(0.0)
    call = CallSpec(strike=0.3, maturity=0.5)
    boundary = critical_information(spec, curve, 0.5, 0.3)
    assert call_price(spec, curve, call, boundary=boundary) == call_price(spec, curve, call)


def test_call_worthless_beyond_support():
    spec = binary_spec()
    call = CallSpec(strike=1.5, maturity=0.5)
    assert call_price(spec, RateCurve.flat(0.0), call) == 0.0


def test_call_maturity_and_kernel_guards():
    curve = RateCurve.flat(0.0)
    with pytest.raises(DomainError):
        call_price(binary_spec(), curve, CallSpec(strike=0.3, maturity=1.0))
    with pytest.raises(UnsupportedKernelError):
        call_price(
            LRBSpec(
                kernel=PoissonKernel(1.0),
                horizon=1.0,
                terminal=TerminalLaw.from_atoms([(0.0, 0.5), (2.0, 0.5)]),
            ),
            curve,
            CallSpec(strike=0.3, maturity=0.5),
        )


def test_call_price_set_boundary_routes_agree():
    # the non-monotone scenario priced through the interval-union boundary
    spec = dip_spec()
    curve = RateCurve.flat(0.0)
    boundary = critical_information(spec, curve, 0.6, 1.4, mode="set")
    call = CallSpec(strike=1.4, maturity=0.6)
    a = call_price(spec, curve, call, boundary=boundary)
    b = checks._quadrature_call_price(spec, curve, call, boundary)
    assert abs(a - b) < 1e-6
    assert a > 0.0


def test_gamma_call_matches_marginal_closed_form():
    # the self-conjugate gamma law has xi_t ~ Gamma(m t, kappa) and price
    # xi + m (T - t) kappa, so the call is a kappa Q(a + 1, x0 / kappa)
    # - x0 Q(a, x0 / kappa) with a = m t and x0 = K - m (T - t) kappa;
    # mpmath (dps 30) at the inputs of check 10
    spec = checks.gamma_pricing()
    got = call_price(spec, RateCurve.flat(0.0), CallSpec(strike=3.9, maturity=0.5))
    assert abs(got - 0.601303286234700) < 1e-10


def test_call_price_brownian_valuation_state_routes_agree():
    spec = checks.brownian_mixed()
    curve = RateCurve.flat(0.02)
    call = CallSpec(strike=0.3, maturity=0.6, valuation_time=0.25, xi=0.4)
    boundary = critical_information(spec, curve, call.maturity, call.strike)
    a = call_price(spec, curve, call, boundary=boundary)
    b = checks._quadrature_call_price(spec, curve, call, boundary)
    assert a > 0.0
    assert abs(a - b) < 1e-7


def test_call_price_nonzero_valuation_state():
    spec = gamma_pricing_spec()
    curve = RateCurve.flat(0.01)
    call = CallSpec(strike=2.0, maturity=0.7, valuation_time=0.3, xi=1.1)
    a = call_price(spec, curve, call)
    boundary = critical_information(spec, curve, call.maturity, call.strike)
    b = checks._quadrature_call_price(spec, curve, call, boundary)
    assert a > 0.0
    assert abs(a - b) < 1e-6


@pytest.mark.parametrize("s,xi", [(0.0, 0.0), (0.25, 0.1)])
def test_call_price_close_to_the_horizon(s, xi):
    # the exceedance weight steps over about 1e-3 in z, where the bridge's
    # state at the maturity is pinned to the threshold
    spec = checks.brownian_mixed()
    curve = RateCurve.flat(0.02)
    call = CallSpec(strike=0.2, maturity=1.0 - 1e-6, valuation_time=s, xi=xi)
    boundary = critical_information(spec, curve, call.maturity, call.strike)
    a = call_price(spec, curve, call, boundary=boundary)
    b = checks._quadrature_call_price(spec, curve, call, boundary)
    assert a > 0.0
    assert abs(a - b) < 1e-7


def test_call_price_on_a_narrow_brownian_posterior():
    # at s = 1 - 1e-6 the posterior has width about 1e-3 around xi T / s;
    # mpmath (dps 30) on the posterior of the atom and the normal, with the
    # threshold 0.19999993352500006 returned here
    spec = checks.brownian_mixed()
    curve = RateCurve.flat(0.02)
    call = CallSpec(strike=0.2, maturity=1.0 - 1e-7, valuation_time=1.0 - 1e-6, xi=0.3)
    boundary = critical_information(spec, curve, call.maturity, call.strike)
    assert abs(boundary.threshold - 0.19999993352500006) < 1e-12
    got = call_price(spec, curve, call, boundary=boundary)
    assert abs(got - 0.10000061009964324) < 1e-10


def test_call_price_on_a_singular_gamma_posterior():
    # m (T - s) = 0.3: the posterior density grows like (z - xi)^(-0.7) at z = xi
    spec = gamma_pricing_spec()
    curve = RateCurve.flat(0.01)
    call = CallSpec(strike=2.0, maturity=0.95, valuation_time=0.9, xi=2.0)
    boundary = critical_information(spec, curve, call.maturity, call.strike)
    a = call_price(spec, curve, call, boundary=boundary)
    b = checks._quadrature_call_price(spec, curve, call, boundary)
    assert a > 0.0
    assert abs(a - b) < 1e-6


# ---------------------------------------------------------------------------
# two-point cash flows


def test_binary_posterior_pins():
    # closed form for this spec: rho1 = sigmoid(2 xi - 1/2) at t = 1/2
    spec = binary_spec()
    rho0, rho1 = binary_bond_posterior(spec, 0.5, 0.5)
    assert abs(rho0 + rho1 - 1.0) < 1e-15
    assert abs(rho1 - 1.0 / (1.0 + math.exp(-0.5))) < 1e-13
    _, at_threshold = binary_bond_posterior(spec, 0.5, 0.25)
    assert abs(at_threshold - 0.5) < 1e-13
    # prior returned at t = 0
    assert binary_bond_posterior(spec, 0.0, 3.0) == (0.5, 0.5)


def test_binary_posterior_matches_terminal_posterior():
    spec = binary_spec()
    post = core.terminal_posterior(spec, 0.6, 0.3)
    w = dict(post.atoms)
    rho0, rho1 = binary_bond_posterior(spec, 0.6, 0.3)
    assert abs(rho0 - w[0.0]) < 1e-12
    assert abs(rho1 - w[1.0]) < 1e-12


def test_binary_posterior_vectorized():
    spec = binary_spec()
    xis = np.linspace(-2.0, 3.0, 9)
    rho0, rho1 = binary_bond_posterior(spec, 0.5, xis)
    assert rho0.shape == xis.shape
    assert np.all(np.abs(rho0 + rho1 - 1.0) < 1e-14)
    # more observed signal points more confidently at the high payout
    assert np.all(np.diff(rho1) > 0)


@pytest.mark.parametrize("make_spec", [checks.brownian_binary, checks.gamma_atomic])
def test_binary_posterior_is_the_two_atom_logistic_bit_for_bit(make_spec):
    # rho1 = 1 / (1 + e^(l0 - l1)) with l_i = log f(T-t, z_i - xi) + log w_i
    # - log f(T, z_i), each term formed as before the atom terms went
    # atom-major: the posterior is unchanged bit for bit
    spec = make_spec()
    (z0, w0), (z1, w1) = spec.terminal.atoms
    k, T, t = spec.kernel, spec.horizon, 0.6
    xis = np.geomspace(1e-3, 0.99 * z1, 41) if k.nondecreasing else np.linspace(-2.0, 3.0, 41)
    logs = k.log_density(T - t, np.array([z0, z1])[None, :] - xis[:, None])
    logs = logs + (np.log([w0, w1]) - k.log_density(T, np.array([z0, z1])))[None, :]
    with np.errstate(over="ignore"):
        rho1 = 1.0 / (1.0 + np.exp(logs[:, 0] - logs[:, 1]))
    got0, got1 = binary_bond_posterior(spec, t, xis)
    assert np.array_equal(got1, rho1) and np.array_equal(got0, 1.0 - rho1)


def test_binary_posterior_guards():
    with pytest.raises(DomainError):
        binary_bond_posterior(gamma_pricing_spec(), 0.5, 0.2)
    with pytest.raises(DomainError):
        binary_bond_posterior(
            LRBSpec(
                kernel=BrownianKernel(),
                horizon=1.0,
                terminal=TerminalLaw.from_atoms([(0.0, 0.3), (1.0, 0.3), (2.0, 0.4)]),
            ),
            0.5,
            0.2,
        )


@given(xi=st.floats(-30.0, 30.0), t=st.floats(0.05, 0.95))
def test_binary_posterior_is_a_probability(xi, t):
    spec = binary_spec()
    rho0, rho1 = binary_bond_posterior(spec, t, xi)
    assert 0.0 <= rho0 <= 1.0
    assert 0.0 <= rho1 <= 1.0
    assert abs(rho0 + rho1 - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# price dynamics


def test_sde_coefficients_binary_identity():
    spec = binary_spec()
    r = 0.04
    curve = RateCurve.flat(r)
    t, xi = 0.4, 0.2
    drift, diff = sde_coefficients(spec, curve, t, xi)
    assert abs(drift - r * price(spec, curve, t, xi)) < 1e-12
    rho0, rho1 = binary_bond_posterior(spec, t, xi)
    df = curve.discount(t, 1.0)
    want = df * (1.0 - 0.0) ** 2 * rho0 * rho1 / (1.0 - t)
    assert abs(diff - want) < 1e-9


def test_sde_needs_brownian_kernel():
    with pytest.raises(UnsupportedKernelError):
        sde_coefficients(gamma_pricing_spec(), RateCurve.flat(0.0), 0.4, 0.2)


@pytest.mark.parametrize("strike", [-20.0, -5.0, 5.0, 20.0])
def test_set_mode_widens_to_the_limiting_sign_of_an_unbounded_law(strike):
    # the mixed law is unbounded on both sides: the price tends to -inf below
    # and +inf above, and the crossings of strikes +-20 lie past the old range
    spec, curve = checks.brownian_mixed(), RateCurve.flat(0.0)
    mono = critical_information(spec, curve, 0.5, strike)
    found = critical_information(spec, curve, 0.5, strike, mode="set")
    assert mono.kind == "threshold" and found.kind == "intervals"
    ((lo, hi),) = found.intervals
    assert hi == math.inf
    assert abs(lo - mono.threshold) <= 1e-10 * max(1.0, abs(mono.threshold))


_NAN = math.nan
_FLAT = RateCurve.flat(0.0)
_joint = core.increment_joint_density


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: RateCurve(times=(0.0, _NAN), rates=(0.01, 0.01)), "segment times"),
        (lambda: _joint(checks.brownian_binary(), [0.5] * 2, [_NAN, 0.0]), "increments"),
        (lambda: _joint(checks.brownian_mixed(), [0.5] * 2, [_NAN, 0.0]), "increments"),
        (lambda: _joint(checks.poisson_atomic(), [0.5] * 2, [_NAN, 1.0]), "increments"),
        (
            lambda: core.reordered_increment_conditional(
                checks.brownian_binary(), [(0.5, 0.2)], [(0.5, _NAN)]
            ),
            "increments",
        ),
        (lambda: binary_bond_posterior(binary_spec(), 0.5, _NAN), "states"),
        (lambda: critical_information(checks.brownian_mixed(), _FLAT, 0.5, _NAN), "strike"),
        (lambda: critical_information(binary_spec(), _FLAT, 0.5, _NAN), "strike"),
    ],
)
def test_non_finite_inputs_are_domain_errors_naming_the_input(call, name):
    # each used to return a wrong number (1.0, 0.0) or raise another error
    with pytest.raises(DomainError, match=name):
        call()
