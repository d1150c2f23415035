import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sci_integrate

from levybridge.errors import DomainError, KernelClassError
from levybridge.kernels import BrownianKernel, GammaKernel, PoissonKernel


ALL_CONTINUOUS = [BrownianKernel(), GammaKernel(2.0), GammaKernel(0.7)]


def test_constructor_validation():
    with pytest.raises(DomainError):
        GammaKernel(0.0)
    with pytest.raises(DomainError):
        GammaKernel(-1.0)
    with pytest.raises(DomainError):
        PoissonKernel(0.0)
    with pytest.raises(DomainError):
        PoissonKernel(math.nan)


def test_time_must_be_positive():
    for k in (BrownianKernel(), GammaKernel(1.0), PoissonKernel(1.0)):
        with pytest.raises(DomainError):
            k.mean(0.0)
        with pytest.raises(DomainError):
            k.mean(-1.0)


@pytest.mark.parametrize("kernel", [*ALL_CONTINUOUS, PoissonKernel(1.5)])
def test_log_density_takes_a_time_per_entry(kernel):
    # an entry at an array time has the bits of that time passed as a float;
    # times repeat, and broadcast against the points
    ts = np.array([0.3, 1.7, 0.3, 2.5, 1.7])
    xs = np.array([[0.0, 1.0, 2.0, 5.0, 3.0], [4.0, 2.0, 7.0, 1.0, 0.0]])
    log = kernel.log_mass if kernel.discrete else kernel.log_density
    got = log(ts, xs)
    for (i, j), v in np.ndenumerate(got):
        assert v == log(float(ts[j]), xs[i, j])
    for bad in ([0.5, 0.0], [0.5, -1.0], [0.5, math.nan], [math.inf, 0.5]):
        with pytest.raises(DomainError):
            log(np.array(bad), np.array([1.0, 2.0]))


def test_class_flags():
    assert not BrownianKernel().discrete
    assert not BrownianKernel().nondecreasing
    assert not GammaKernel(1.0).discrete
    assert GammaKernel(1.0).nondecreasing
    assert PoissonKernel(1.0).discrete
    assert PoissonKernel(1.0).nondecreasing


def test_wrong_class_access_raises():
    with pytest.raises(KernelClassError):
        PoissonKernel(1.0).density(1.0, 0.5)
    with pytest.raises(KernelClassError):
        PoissonKernel(1.0).log_density(1.0, 0.5)
    with pytest.raises(KernelClassError):
        BrownianKernel().mass(1.0, 1)
    with pytest.raises(KernelClassError):
        GammaKernel(1.0).log_mass(1.0, 1)


def test_density_pins():
    # unit-time values that collapse to e^{-1}
    assert abs(GammaKernel(2.0).density(1.0, 1.0) - math.exp(-1.0)) < 1e-15
    assert abs(PoissonKernel(1.0).mass(1.0, 0) - math.exp(-1.0)) < 1e-15
    assert abs(
        BrownianKernel().density(1.0, 0.0) - 1.0 / math.sqrt(2.0 * math.pi)
    ) < 1e-16


@pytest.mark.parametrize("kernel", ALL_CONTINUOUS, ids=lambda k: type(k).__name__ + "-" + str(getattr(k, "m", "")))
@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
def test_density_normalizes(kernel, t):
    lo, hi = kernel.increment_support(t)
    a = lo if math.isfinite(lo) else -math.inf
    b = hi if math.isfinite(hi) else math.inf
    total, err = sci_integrate.quad(lambda x: kernel.density(t, x), a, b, limit=200)
    assert abs(total - 1.0) < 1e-9


def test_poisson_mass_normalizes():
    k = PoissonKernel(1.5)
    total = sum(k.mass(2.0, i) for i in range(0, 60))
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("kernel", ALL_CONTINUOUS, ids=lambda k: type(k).__name__ + "-" + str(getattr(k, "m", "")))
def test_log_density_consistent(kernel):
    for t in (0.5, 2.0):
        for x in (-1.0, 0.3, 1.7, 5.0):
            d = kernel.density(t, x)
            ld = kernel.log_density(t, x)
            if d > 0:
                assert abs(ld - math.log(d)) < 1e-12
            else:
                assert ld == -math.inf


def test_log_density_far_tail_stays_finite():
    # the plain density underflows well before the log form loses meaning
    k = GammaKernel(2.0)
    assert k.density(1.0, 800.0) == 0.0
    assert math.isfinite(k.log_density(1.0, 800.0))
    assert k.log_density(1.0, -0.5) == -math.inf
    assert k.log_density(1.0, 0.0) == -math.inf
    assert PoissonKernel(1.0).log_mass(1.0, -1) == -math.inf


def test_lattice_rejects_non_integers():
    k = PoissonKernel(1.0)
    with pytest.raises(DomainError):
        k.mass(1.0, 0.5)
    with pytest.raises(DomainError):
        k.log_mass(1.0, 1.2)


@pytest.mark.parametrize(
    "kernel",
    [BrownianKernel(), GammaKernel(2.0), GammaKernel(0.5)],
    ids=["brownian", "gamma2", "gamma05"],
)
@given(t=st.floats(0.1, 4.0), u=st.floats(1e-6, 1.0 - 1e-6))
def test_cdf_quantile_roundtrip(kernel, t, u):
    x = kernel.quantile(t, u)
    assert abs(kernel.cdf(t, x) - u) < 1e-9


def test_poisson_cdf_matches_mass_sum():
    k = PoissonKernel(2.0)
    for n in (0, 1, 4):
        want = sum(k.mass(1.5, i) for i in range(n + 1))
        assert abs(k.cdf(1.5, n) - want) < 1e-12


def test_mean_variance_formulas():
    assert BrownianKernel().mean(2.5) == 0.0
    assert BrownianKernel().variance(2.5) == 2.5
    g = GammaKernel(3.0)
    assert abs(g.mean(2.0) - 6.0) < 1e-14
    assert abs(g.variance(2.0) - 6.0) < 1e-14
    p = PoissonKernel(0.5)
    assert abs(p.mean(4.0) - 2.0) < 1e-14
    assert abs(p.variance(4.0) - 2.0) < 1e-14


def test_increment_support():
    assert BrownianKernel().increment_support(1.0) == (-math.inf, math.inf)
    assert GammaKernel(1.0).increment_support(1.0) == (0.0, math.inf)
    lo, hi = PoissonKernel(1.0).increment_support(1.0)
    assert lo == 0.0 and hi == math.inf


def test_sample_moments_fixed_seed():
    rng = np.random.default_rng(2024)
    t = 1.5
    for kernel in (BrownianKernel(), GammaKernel(2.0), PoissonKernel(1.2)):
        draws = kernel.sample(rng, t, size=40000)
        se = math.sqrt(kernel.variance(t) / draws.size)
        assert abs(draws.mean() - kernel.mean(t)) < 4.0 * se


def test_sample_scalar_and_shape():
    rng = np.random.default_rng(7)
    x = BrownianKernel().sample(rng, 1.0)
    assert np.ndim(x) == 0
    arr = GammaKernel(1.0).sample(rng, 1.0, size=(3, 2))
    assert arr.shape == (3, 2)
    assert np.all(arr > 0)


def test_poisson_quantile_matches_scipy_ppf():
    # the pdtr search replaced scipy.stats.poisson.ppf; pin it on a grid
    from scipy import stats

    q = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(0.0, 1.0, 1001), [1.0 - 2.0**-53, 1.0]])
    for intensity, t in ((1.0, 1.0), (2.5, 0.3), (40.0, 2.0), (0.01, 0.5)):
        got = PoissonKernel(intensity).quantile(t, q)
        assert np.array_equal(got, stats.poisson.ppf(q, intensity * t))
    assert PoissonKernel(2.0).quantile(1.0, 0.5) == 2.0
