import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sci_integrate
from scipy import stats

import quad_reference
from levybridge import bridge
from levybridge.checks import _quadrature_bridge_cdf
from levybridge.bridge import BridgeSpec, sample_path, sample_step, transition_cdf
from levybridge.errors import DomainError, InvalidPinError, KernelClassError
from levybridge.kernels import BrownianKernel, GammaKernel, Kernel, PoissonKernel
from levybridge.sampler import RandomStream


def brownian_pin(z=1.0, T=1.0):
    return BridgeSpec(kernel=BrownianKernel(), end_time=T, end_value=z)


def gamma_pin(z=2.0, T=1.0, m=2.0):
    return BridgeSpec(kernel=GammaKernel(m), end_time=T, end_value=z)


# ---------------------------------------------------------------------------
# construction


def test_time_order_validated():
    with pytest.raises(DomainError):
        BridgeSpec(kernel=BrownianKernel(), end_time=1.0, end_value=0.0, start_time=1.0)
    with pytest.raises(DomainError):
        BridgeSpec(kernel=BrownianKernel(), end_time=0.5, end_value=0.0, start_time=0.7)
    with pytest.raises(DomainError):
        BridgeSpec(kernel=BrownianKernel(), end_time=math.inf, end_value=0.0)


def test_unattainable_pins_rejected():
    with pytest.raises(InvalidPinError):
        gamma_pin(z=0.0)  # gamma paths strictly increase
    with pytest.raises(InvalidPinError):
        BridgeSpec(kernel=GammaKernel(2.0), end_time=1.0, end_value=0.5, start_value=0.8)
    with pytest.raises(InvalidPinError):
        BridgeSpec(kernel=PoissonKernel(1.0), end_time=1.0, end_value=-2)


def test_lattice_pin_must_be_integer():
    with pytest.raises(DomainError):
        BridgeSpec(kernel=PoissonKernel(1.0), end_time=1.0, end_value=2.5)


def test_far_pin_is_still_a_valid_bridge():
    # the pin weight underflows float density yet the event has positive
    # probability, so construction must succeed and the law must behave
    spec = BridgeSpec(kernel=GammaKernel(2.0), end_time=1.0, end_value=900.0)
    assert spec.kernel.density(1.0, 900.0) == 0.0
    c = transition_cdf(spec, 0.5, 450.0)
    assert 0.0 <= c <= 1.0


# ---------------------------------------------------------------------------
# transition laws


def test_brownian_density_is_the_pinned_normal():
    spec = brownian_pin(z=1.0, T=2.0)
    t = 0.5
    mean = 1.0 * t / 2.0
    var = t * (2.0 - t) / 2.0
    for y in (-1.0, 0.0, 0.3, 2.0):
        want = math.exp(-0.5 * (y - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
        assert abs(bridge.transition_density(spec, t, y) - want) < 1e-13


def test_gamma_density_normalizes_and_has_beta_mean():
    spec = gamma_pin(z=2.0, T=1.0, m=2.0)
    t = 0.3
    total, _ = sci_integrate.quad(
        lambda y: bridge.transition_density(spec, t, y), 0.0, 2.0, limit=200
    )
    assert abs(total - 1.0) < 1e-9
    mean, _ = sci_integrate.quad(
        lambda y: y * bridge.transition_density(spec, t, y), 0.0, 2.0, limit=200
    )
    # fraction of the jump completed follows Beta(m t, m (T-t))
    assert abs(mean - 2.0 * (2.0 * t) / 2.0) < 1e-9


def test_poisson_bridge_is_binomial():
    spec = BridgeSpec(kernel=PoissonKernel(1.0), end_time=1.0, end_value=3)
    t = 0.4
    for j in range(4):
        want = stats.binom.pmf(j, 3, 0.4)
        assert abs(bridge.transition_mass(spec, t, j) - want) < 1e-14
    assert bridge.transition_mass(spec, t, 4) == 0.0


def test_density_and_mass_guard_kernel_class():
    with pytest.raises(KernelClassError):
        bridge.transition_mass(brownian_pin(), 0.5, 0)
    with pytest.raises(KernelClassError):
        bridge.transition_density(
            BridgeSpec(kernel=PoissonKernel(1.0), end_time=1.0, end_value=2), 0.5, 1.0
        )


def test_interior_time_required():
    spec = brownian_pin()
    for t in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            bridge.transition_density(spec, t, 0.0)


# ---------------------------------------------------------------------------
# cdf, exact against quadrature


@pytest.mark.parametrize(
    "spec,ys",
    [
        (brownian_pin(z=1.0), np.linspace(-2.0, 2.5, 7)),
        (gamma_pin(z=2.0, m=2.0), np.linspace(0.1, 1.9, 7)),
        (
            BridgeSpec(
                kernel=GammaKernel(0.8),
                end_time=1.5,
                end_value=1.7,
                start_time=0.2,
                start_value=0.3,
            ),
            np.linspace(0.4, 1.6, 7),
        ),
    ],
    ids=["brownian", "gamma", "gamma-offset"],
)
def test_cdf_exact_matches_quadrature(spec, ys):
    t = 0.5 * (spec.start_time + spec.end_time)
    for y in ys:
        a = transition_cdf(spec, t, y)
        b = _quadrature_bridge_cdf(spec, t, y)
        assert abs(a - b) < 1e-8


def test_cdf_poisson_sum_route():
    spec = BridgeSpec(kernel=PoissonKernel(2.0), end_time=1.0, end_value=5)
    got = _quadrature_bridge_cdf(spec, 0.3, 2)
    want = stats.binom.cdf(2, 5, 0.3)
    assert abs(got - want) < 1e-12
    assert abs(transition_cdf(spec, 0.3, 2) - want) < 1e-12


def test_gamma_exceedance_identity_pin():
    # exceedance computed two ways through the regularized incomplete beta;
    # value frozen from an independent betainc evaluation
    spec = BridgeSpec(
        kernel=GammaKernel(2.0),
        end_time=1.0,
        end_value=2.0,
        start_time=0.2,
        start_value=0.3,
    )
    t, y = 0.55, 1.1
    dt, rem = t - 0.2, 1.0 - t
    from scipy.special import betainc

    direct_exceed = betainc(2.0 * rem, 2.0 * dt, (2.0 - y) / (2.0 - 0.3))
    got = transition_cdf(spec, t, y)
    assert abs((1.0 - got) - direct_exceed) < 1e-13
    assert abs((1.0 - got) - 0.44426116910648084) < 1e-12


class _WideKernel(Kernel):
    """N(0, 2t) increments: a continuous kernel with no exact bridge CDF."""

    discrete = False
    nondecreasing = False
    _base = BrownianKernel()

    def log_density(self, t, x):
        return self._base.log_density(2.0 * t, x)

    def cdf(self, t, x):
        return self._base.cdf(2.0 * t, x)

    def quantile(self, t, q):
        return self._base.quantile(2.0 * t, q)

    def sample(self, rng, t, size=None):
        return self._base.sample(rng, 2.0 * t, size)

    def mean(self, t):
        return 0.0

    def variance(self, t):
        return 2.0 * t

    def increment_support(self, t):
        return self._base.increment_support(t)


def test_cdf_kernel_validated():
    spec = BridgeSpec(kernel=_WideKernel(), end_time=1.0, end_value=0.0)
    with pytest.raises(KernelClassError):
        transition_cdf(spec, 0.5, 0.0)


@given(
    y1=st.floats(-3.0, 4.0),
    y2=st.floats(-3.0, 4.0),
    t=st.floats(0.05, 0.95),
)
def test_cdf_bounded_and_monotone(y1, y2, t):
    spec = brownian_pin(z=1.0)
    lo, hi = sorted((y1, y2))
    a = transition_cdf(spec, t, lo)
    b = transition_cdf(spec, t, hi)
    assert 0.0 <= a <= b <= 1.0


# ---------------------------------------------------------------------------
# sampling


def test_sample_step_validates_times():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sample_step(BrownianKernel(), 0.0, 0.5, 0.0, 1.0, rng)
    with pytest.raises(DomainError):
        sample_step(BrownianKernel(), 0.5, -0.1, 0.0, 1.0, rng)


def test_sample_step_broadcasts():
    rng = np.random.default_rng(1)
    x = np.zeros(5)
    z = np.linspace(1.0, 2.0, 5)
    for kernel in (BrownianKernel(), GammaKernel(2.0)):
        out = sample_step(kernel, 0.3, 0.7, x, z, rng)
        assert out.shape == (5,)
    zp = np.arange(5)
    out = sample_step(PoissonKernel(1.0), 0.3, 0.7, np.zeros(5, dtype=int), zp, rng)
    assert out.shape == (5,)
    assert np.all((0 <= out) & (out <= zp))


def test_gamma_step_scalar_endpoints_still_random():
    # scalar x and z once collapsed the beta draw to a single number; the
    # fractions must stay random and beta distributed
    rng = RandomStream(505, 0).generator()
    draws = np.array([sample_step(GammaKernel(2.0), 0.25, 0.75, 0.0, 1.0, rng) for _ in range(1024)])
    assert draws.std() > 0.05
    d = stats.kstest(draws, stats.beta(0.5, 1.5).cdf)
    assert d.pvalue > 0.01


def test_gamma_step_vector_draws_match_beta_law():
    rng = RandomStream(506, 0).generator()
    n = 4096
    draws = sample_step(GammaKernel(2.0), 0.25, 0.75, np.zeros(n), np.ones(n), rng)
    d = stats.kstest(draws, stats.beta(0.5, 1.5).cdf)
    assert d.pvalue > 0.01


@pytest.mark.parametrize(
    "kernel,x,z",
    [(BrownianKernel(), -0.4, 1.3), (GammaKernel(2.0), 0.3, 2.1), (PoissonKernel(1.5), 1, 9)],
    ids=["brownian", "gamma", "poisson"],
)
def test_sample_step_matches_transition_cdf(kernel, x, z):
    # one pinned step from (0.2, x) to t = 0.55, pin (1, z): 20000 draws, KS
    # distance to the exact CDF (on the lattice for Poisson) at alpha 1e-6
    pin = BridgeSpec(kernel=kernel, end_time=1.0, end_value=z, start_time=0.2, start_value=x)
    n = 20000
    draws = np.sort(sample_step(kernel, 0.35, 0.45, x, z, RandomStream(507, 0).generator(), n))
    if kernel.discrete:
        ks = np.arange(x, z + 1)
        empirical = np.searchsorted(draws, ks, side="right") / n
        d = float(np.max(np.abs(empirical - transition_cdf(pin, 0.55, ks))))
        assert d < math.sqrt(-0.5 * math.log(1e-6 / 2.0) / n)
    else:
        assert stats.kstest(draws, lambda y: transition_cdf(pin, 0.55, y)).pvalue > 1e-6


def test_sample_path_grid_validation():
    spec = brownian_pin()
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sample_path(spec, [], rng)
    with pytest.raises(DomainError):
        sample_path(spec, [0.2, 0.2], rng)
    with pytest.raises(DomainError):
        sample_path(spec, [0.0, 0.5], rng)
    with pytest.raises(DomainError):
        sample_path(spec, [0.5, 1.2], rng)


def test_sample_path_hits_the_pin():
    spec = gamma_pin(z=2.0)
    rng = np.random.default_rng(3)
    p = sample_path(spec, [0.25, 0.5, 1.0], rng)
    assert p.values[-1] == 2.0
    assert np.all(np.diff(np.concatenate([[0.0], p.values])) >= 0)


def test_sample_path_inverse_cdf_agrees_with_exact():
    spec = brownian_pin(z=1.0)
    t = [0.5]
    exact = np.array(
        [sample_path(spec, t, RandomStream(600, i).generator()).values[0] for i in range(400)]
    )
    numeric = np.array(
        [
            quad_reference.sample_path_inverse_cdf(spec, t, RandomStream(601, i).generator()).values[0]
            for i in range(400)
        ]
    )
    d = stats.ks_2samp(exact, numeric, method="asymp")
    assert d.pvalue > 0.01


def test_sample_path_inverse_cdf_lattice():
    spec = BridgeSpec(kernel=PoissonKernel(1.0), end_time=1.0, end_value=4)
    rng = RandomStream(602, 0).generator()
    p = quad_reference.sample_path_inverse_cdf(spec, [0.3, 0.6, 1.0], rng)
    assert p.values[-1] == 4.0
    assert np.all(np.diff(np.concatenate([[0.0], p.values])) >= 0)
    assert np.all(p.values == np.round(p.values))
