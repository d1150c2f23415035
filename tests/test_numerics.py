import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sci_integrate
from scipy import optimize as sci_optimize
from scipy import special

import quad_reference
from levybridge import numerics
from levybridge.bridge import BridgeSpec, transition_density
from levybridge.errors import DomainError, NoRootError, NonMonotoneError, NumericError
from levybridge.kernels import BrownianKernel, GammaKernel
from levybridge.core import LRBSpec, psi_total, terminal_posterior
from levybridge.laws import TerminalLaw
from levybridge.numerics import DensityComponent


# ---------------------------------------------------------------------------
# special functions, pinned where the library calls them


def test_norm_cdf_pins():
    k = BrownianKernel()
    assert k.cdf(1.0, 0.0) == 0.5
    # classic two-sided 5% quantile
    assert abs(k.cdf(1.0, 1.959963984540054) - 0.975) < 1e-15
    assert abs(k.quantile(1.0, 0.975) - 1.959963984540054) < 1e-12


def test_log_gamma_pin():
    # Gamma(1/2) = sqrt(pi)
    assert abs(special.gammaln(0.5) - 0.5 * math.log(math.pi)) < 1e-15


@given(
    a=st.floats(0.1, 20.0),
    b=st.floats(0.1, 20.0),
)
def test_beta_fn_matches_log_gamma_identity(a, b):
    # the gamma bridge from 0 to 1 over [0, 1] is Beta(a, b) at t = a / (a + b):
    # its density, built from kernel log-densities, carries the beta function
    pin = BridgeSpec(kernel=GammaKernel(a + b), end_time=1.0, end_value=1.0)
    t = a / (a + b)
    y = 0.5
    log_beta = special.gammaln(a) + special.gammaln(b) - special.gammaln(a + b)
    want = math.exp((a - 1.0) * math.log(y) + (b - 1.0) * math.log(1.0 - y) - log_beta)
    assert abs(transition_density(pin, t, y) - want) <= 1e-13 * want


@given(
    x=st.floats(0.0, 1.0),
    a=st.floats(0.2, 10.0),
    b=st.floats(0.2, 10.0),
)
def test_reg_inc_beta_symmetry(x, a, b):
    # the regularized incomplete beta behind the gamma bridge CDF; x is
    # rounded so that 1 - x is exact (below 1e-16 it would round to 1)
    x = 1.0 - (1.0 - x)
    lhs = special.betainc(a, b, x)
    rhs = 1.0 - special.betainc(b, a, 1.0 - x)
    assert abs(lhs - rhs) < 1e-13


@given(a=st.floats(0.3, 15.0), q=st.floats(1e-6, 1.0 - 1e-6))
def test_reg_lower_gamma_roundtrip(a, q):
    # GammaKernel(1) over time a is Gamma(a, 1): quantile, then cdf
    k = GammaKernel(1.0)
    x = k.quantile(a, q)
    assert abs(k.cdf(a, x) - q) < 1e-10


# ---------------------------------------------------------------------------
# mixed measures


def _unit_uniform():
    return DensityComponent(
        pdf=lambda z: np.where((np.asarray(z) >= 0) & (np.asarray(z) <= 1), 1.0, 0.0),
        lower=0.0,
        upper=1.0,
    )


def test_density_component_validation():
    with pytest.raises(DomainError):
        DensityComponent(pdf=lambda z: 1.0, lower=1.0, upper=0.0)


def test_density_component_edge_declaration_is_checked():
    rest = lambda z: np.zeros_like(z)
    for kwargs in ({"edge_power": 1.0}, {"edge_rest": rest}):
        with pytest.raises(DomainError):
            DensityComponent(pdf=lambda z: 1.0, lower=0.0, upper=1.0, **kwargs)
    with pytest.raises(DomainError):
        DensityComponent(pdf=lambda z: 1.0, lower=-math.inf, upper=1.0, edge_power=0.0, edge_rest=rest)


@pytest.mark.parametrize("law", [
    TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),)),
    TerminalLaw.normal(-30.0, 1e-4),
    TerminalLaw.uniform(-1.0, 2.0),
    TerminalLaw.uniform(5.0, 5.5, weight=0.25, atoms=((0.0, 0.75),)),
])
def test_declared_log_quadratic_is_the_logpdf(law):
    # logpdf - c2 z^2 - c1 z is one constant over the support, to the
    # rounding of its terms (a sharp far normal's terms are ~1e7)
    d = law.density
    lo, hi = numerics.mass_interval(d, 1e-16)
    z = np.linspace(lo, hi, 401)
    c2, c1 = d.log_quadratic
    want = d.logpdf(z)
    rest, terms = want - (c2 * z + c1) * z, np.abs(c2 * z * z) + np.abs(c1 * z) + np.abs(want)
    assert c2 <= 0.0 and np.all(np.isfinite(want))
    assert np.all(np.abs(rest - rest[200]) <= 2e-15 * np.maximum(1.0, terms + terms[200]))


@pytest.mark.parametrize("quad", [(1e-3, 0.0), (-1.0, math.nan), (-math.inf, 0.0), (-1.0, 0.0, 0.0)])
def test_density_component_log_quadratic_is_checked(quad):
    with pytest.raises(DomainError):
        DensityComponent(pdf=lambda z: 1.0, lower=0.0, upper=1.0, log_quadratic=quad)


def test_density_component_breakpoints_filtered_and_sorted():
    d = DensityComponent(
        pdf=lambda z: 1.0, lower=0.0, upper=1.0, breakpoints=(0.9, -3.0, 0.2, 2.0)
    )
    assert d.breakpoints == (0.2, 0.9)


def test_mass_interval_finite_support_passthrough():
    assert numerics.mass_interval(_unit_uniform()) == (0.0, 1.0)


def test_infinite_tail_without_quantile_raises_at_construction():
    with pytest.raises(DomainError):
        DensityComponent(pdf=lambda z: np.exp(-np.abs(z)) / 2.0, lower=-math.inf, upper=math.inf)
    with pytest.raises(DomainError):
        DensityComponent(pdf=lambda z: np.exp(-np.asarray(z)), lower=0.0, upper=math.inf)


def test_mass_interval_gaussian_tail():
    d = DensityComponent(
        pdf=lambda z: np.exp(-0.5 * np.asarray(z) ** 2) / math.sqrt(2 * math.pi),
        lower=-math.inf,
        upper=math.inf,
        quantile=special.ndtri,
    )
    lo, hi = numerics.mass_interval(d, 1e-16)
    # the 1e-16 normal quantile sits near 8.2 standard deviations
    assert 7.5 < hi < 9.5
    assert -9.5 < lo < -7.5


def _built_in_densities():
    mixed = TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),))
    gamma = TerminalLaw.gamma(2.0, 1.5)
    return {
        "normal": mixed.density,
        "gamma": gamma.density,
        "uniform": TerminalLaw.uniform(-1.0, 2.0, weight=0.4, atoms=((5.0, 0.6),)).density,
        "shifted_normal": mixed.translate(2.5).density,
        "shifted_gamma": gamma.translate(-1.0).density,
    }


_BUILT_IN_CDFS = {
    "normal": lambda z: special.ndtr((z - 0.5) / 0.8),
    "gamma": lambda z: special.gammainc(2.0, max(z, 0.0) / 1.5),
    "shifted_normal": lambda z: special.ndtr((z - 3.0) / 0.8),
    "shifted_gamma": lambda z: special.gammainc(2.0, max(z + 1.0, 0.0) / 1.5),
}


@pytest.mark.parametrize("name", ["normal", "gamma", "shifted_normal", "shifted_gamma"])
def test_effective_interval_quantile_matches_cdf_bracketing(name):
    # mass_interval cuts an infinite tail at the quantile; the reference is
    # the root of the closed-form cdf, bracketed by brentq. Near 1 a cdf
    # resolves only to an ulp, which moves the root by ulp / pdf; at these
    # levels that is far below the tolerance
    d, cdf = _built_in_densities()[name], _BUILT_IN_CDFS[name]
    for eps in (1e-3, 1e-6):
        got = numerics.mass_interval(d, eps)
        want = [end if math.isfinite(end) else sci_optimize.brentq(
            lambda z: cdf(z) - level, -50.0, 50.0, xtol=1e-13, rtol=1e-15)
            for end, level in ((d.lower, eps), (d.upper, 1.0 - eps))]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


@pytest.mark.parametrize("name", ["normal", "gamma", "uniform", "shifted_normal", "shifted_gamma"])
def test_built_in_logpdf_matches_log_pdf(name):
    d = _built_in_densities()[name]
    lo, hi = numerics.mass_interval(d, 1e-12)
    z = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 401), [lo - 1e4, hi + 1e4]])
    pdf, logpdf = np.asarray(d.pdf(z)), np.asarray(d.logpdf(z))
    pos = pdf > 0.0
    assert np.all(np.abs(logpdf[pos] - np.log(pdf[pos])) <= 1e-12 * np.maximum(1.0, np.abs(logpdf[pos])))
    assert np.all(logpdf[(z < d.lower) | (z > d.upper)] == -np.inf)
    inside = (z > d.lower) & (z < d.upper)
    # where the pdf underflows inside the support the log stays finite
    assert np.all(np.isfinite(logpdf[inside]))
    if name != "uniform":
        assert np.any(inside & ~pos)
    assert d.logpdf(float(z[200])) == pytest.approx(float(logpdf[200]), rel=1e-14)


@pytest.mark.parametrize("law", [
    TerminalLaw.gamma(2.0, 1.5),
    TerminalLaw.gamma(0.7, 1.0),
    TerminalLaw.gamma(1.0, 0.25, weight=0.6, atoms=((3.0, 0.4),)),
    TerminalLaw.gamma(20.0, 0.1),
    TerminalLaw.uniform(0.0, 3.0),
    TerminalLaw.uniform(-1.0, 2.0, weight=0.4, atoms=((5.0, 0.6),)),
], ids=["gamma", "gamma_0.7", "gamma_atom", "sharp_gamma", "uniform_0", "uniform"])
def test_declared_edge_form_is_the_logpdf(law):
    # k log(z - lower) + r(z) is the built-in logpdf on the support, from
    # 1e-300 past the edge (or the next double past a nonzero edge) to the
    # 1 - 1e-16 quantile
    d = law.density
    hi = numerics.mass_interval(d, 1e-16)[1] - d.lower
    z = np.unique(d.lower + np.geomspace(1e-300, hi, 400))
    z = z[z > d.lower]
    w = z - d.lower
    declared, logpdf = d.edge_power * np.log(z - d.lower) + d.edge_rest(z), d.logpdf(z)
    assert np.all(np.abs(declared - logpdf) <= 1e-15 * np.maximum(1.0, np.abs(logpdf)))
    if d.upper == math.inf:
        # and the constants are the gamma law's
        shape = d.edge_power + 1.0
        scale = float((d.quantile(0.5) - d.lower) / special.gammaincinv(shape, 0.5))
        wt = law.density_mass
        ref = ((shape - 1.0) * np.log(w) - w / scale - special.gammaln(shape)
               - shape * math.log(scale) + math.log(wt))
        assert np.all(np.abs(logpdf - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def _laplace_quantile(u):
    u = np.asarray(u, dtype=float)
    return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))


def test_logpdf_defaults_to_log_of_pdf():
    d = DensityComponent(pdf=lambda z: np.exp(-np.abs(z)) / 2.0, lower=-math.inf, upper=math.inf,
                         quantile=_laplace_quantile)
    z = np.array([-3.0, 0.0, 2.0])
    assert np.array_equal(d.logpdf(z), np.log(d.pdf(z)))
    assert _unit_uniform().logpdf(2.0) == -np.inf


def _mp_normal(mu, s2, w):
    pdf = lambda z: w * mpmath.npdf(z, mu, mpmath.sqrt(s2))
    return pdf, lambda z: z * pdf(z), [-mpmath.inf, mu, mpmath.inf]


def _mp_gamma(a, scale):
    # in u = z^a, where z^(a - 1) dz = du / a and the integrand is smooth at 0
    pdf = lambda u: mpmath.exp(-u ** (1 / a) / scale) / (a * mpmath.gamma(a) * scale**a)
    return pdf, lambda u: u ** (1 / a) * pdf(u), [0, 1, mpmath.inf]


def _mp_uniform(a, b, w):
    return lambda z: w / (b - a), lambda z: z * w / (b - a), [a, b]


@pytest.mark.parametrize("law,reference", [
    (TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),)), _mp_normal(0.5, 0.64, 0.7)),
    (TerminalLaw.uniform(-1.0, 2.0, weight=0.4, atoms=((5.0, 0.6),)),
     _mp_uniform(-1, 2, mpmath.mpf("0.4"))),
    (TerminalLaw.gamma(0.5, 1.0), _mp_gamma(mpmath.mpf("0.5"), 1)),
    (TerminalLaw.gamma(1.5, 1.0), _mp_gamma(mpmath.mpf("1.5"), 1)),
    (TerminalLaw.gamma(2.0, 1.5), _mp_gamma(2, mpmath.mpf("1.5"))),
    (TerminalLaw.gamma(0.1, 1.0), _mp_gamma(mpmath.mpf("0.1"), 1)),
], ids=["normal+atoms", "uniform+atom", "gamma(0.5,1)", "gamma(1.5,1)", "gamma(2,1.5)", "gamma(0.1,1)"])
def test_law_mass_and_mean_match_mpmath(law, reference):
    # the double-exponential rule against mpmath's own quadrature of the
    # closed-form density (30 digits), z^(a - 1) edges included (QUADPACK
    # put the mass of Gamma(0.1, 1) at 0.99999999986 and refused the law)
    pdf, first_moment, points = reference
    with mpmath.workdps(30):
        mass = mpmath.quad(pdf, points)
        first = mpmath.quad(first_moment, points)
    atom_mass = sum(w for _, w in law.atoms)
    atom_mean = sum(z * w for z, w in law.atoms)
    assert abs(law.density_mass - float(mass)) <= 1e-12
    assert abs(law.mean() - float(first + atom_mean)) <= 1e-12 * max(1.0, abs(float(first)))
    assert abs(atom_mass + law.density_mass - 1.0) <= 1e-12


@pytest.mark.parametrize("law", [
    TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),)),
    TerminalLaw.uniform(-1.0, 2.0, weight=0.4, atoms=((5.0, 0.6),)),
    TerminalLaw.gamma(0.5, 1.0),
    TerminalLaw.gamma(1.5, 1.0),
    TerminalLaw.gamma(2.0, 1.5),
    TerminalLaw.gamma(0.1, 1.0),
], ids=["normal+atoms", "uniform+atom", "gamma(0.5,1)", "gamma(1.5,1)", "gamma(2,1.5)", "gamma(0.1,1)"])
def test_built_in_masses_are_closed_forms_the_rule_agrees_with(law):
    # a built-in density's mass is the weight it was built with; the
    # double-exponential rule that sums a user's density finds the same
    assert abs(law.density_mass - (1.0 - sum(w for _, w in law.atoms))) <= 1e-15
    summed = numerics.density_sums(law.density, (np.ones_like,))[0]
    assert abs(summed - law.density_mass) <= 1e-12


def test_only_user_densities_are_summed_at_construction(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    real = numerics.density_sums
    monkeypatch.setattr(numerics, "density_sums", counted)
    TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),))
    TerminalLaw.gamma(2.0, 1.5)
    TerminalLaw.uniform(-1.0, 2.0)
    assert calls == []
    d = _unit_uniform()
    assert TerminalLaw(density=d).density_mass == pytest.approx(1.0, abs=1e-12)
    assert calls == [d]
    # the total-mass check still runs on every law
    with pytest.raises(DomainError):
        TerminalLaw.normal(0.5, 0.64, weight=0.5)
    with pytest.raises(DomainError):
        TerminalLaw.gamma(2.0, 1.5, weight=0.0, atoms=((1.0, 1.0),))


def test_density_sums_refuse_an_integrand_that_does_not_decay():
    # the Cauchy density integrates, z times it does not: the rule raises
    # rather than return its truncated sum
    d = DensityComponent(
        pdf=lambda z: 1.0 / (math.pi * (1.0 + np.asarray(z) ** 2)),
        lower=-math.inf, upper=math.inf, quantile=lambda u: np.tan(math.pi * (np.asarray(u) - 0.5)),
    )
    assert abs(numerics.density_sums(d, (np.ones_like,))[0] - 1.0) < 1e-12
    with pytest.raises(NumericError):
        numerics.density_sums(d, (lambda z: z,))


def test_posterior_logpdf_is_log_base_weight_over_psi():
    spec = LRBSpec(
        BrownianKernel(), 1.0, TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),))
    )
    t, xi = 0.5, 0.3
    d = terminal_posterior(spec, t, xi).density
    z = np.linspace(-6.0, 6.0, 121)
    prior = spec.terminal.density
    k = spec.kernel
    want = (
        prior.logpdf(z) + k.log_density(1.0 - t, z - xi) - k.log_density(1.0, z)
        - math.log(psi_total(spec, t, xi))
    )
    assert np.all(np.abs(d.logpdf(z) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert np.all(np.abs(d.pdf(z) - np.exp(want)) <= 1e-12 * np.exp(want))
    far = np.array([-60.0, 60.0])
    assert np.all(d.pdf(far) == 0.0) and np.all(np.isfinite(d.logpdf(far)))


def _tent_logpdf(z):
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(np.clip(np.minimum(z, 2.0 - z), 0.0, None))


@pytest.mark.parametrize("case", ["normal", "gamma_edge", "tent_kink"])
def test_tabulated_quantile_matches_closed_forms(case):
    u = np.array([1e-12, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6, 1.0 - 1e-12])
    if case == "normal":
        q = numerics.TabulatedQuantile(lambda z: -0.5 * np.asarray(z) ** 2, (-12.0, 12.0))
        assert np.all(np.abs(q(u) - special.ndtri(u)) <= 1e-12)
    elif case == "gamma_edge":
        # a z^(-0.7) edge at 0, absorbed by the tanh-sinh map; relative error
        q = numerics.TabulatedQuantile(lambda z: -0.7 * np.log(z) - z, (0.0, 80.0))
        want = special.gammaincinv(0.3, u[:-1])
        assert np.all(np.abs(q(u[:-1]) / want - 1.0) <= 1e-10)
    else:
        # a kink at 1 that the window's edges declare; an unnormalised density
        q = numerics.TabulatedQuantile(_tent_logpdf, lambda: (0.0, 1.0, 2.0))
        want = np.where(u <= 0.5, np.sqrt(2.0 * u), 2.0 - np.sqrt(2.0 * (1.0 - u)))
        assert np.all(np.abs(q(u) - want) <= 1e-12)
    assert q(0.5).shape == () and q(u.reshape(3, 3)).shape == (3, 3)


def test_tabulated_quantiles_row_by_row():
    # each draw of a many-row call equals the one-row call of its own row, bit for bit: normal rows
    # of several widths and a row with a z^(-0.7) edge, which certify at different levels
    sd = np.array([0.5, 1.0, 3.0, 1.0])

    def logpdf(z, r):
        return np.where(r == 3, -0.7 * np.log(np.abs(z) + (r != 3)) - z, -0.5 * (z / sd[r]) ** 2)

    edges = np.column_stack([-12.0 * sd, np.zeros(4), 12.0 * sd])
    edges[3] = (0.0, 40.0, 80.0)
    rng = np.random.default_rng(5)
    rows, u = rng.integers(0, 4, 300), rng.uniform(size=300)
    many = numerics.tabulated_quantiles(logpdf, edges, rows, u)
    for r in range(4):
        mine = rows == r
        one = numerics.tabulated_quantiles(lambda z, _, r=r: logpdf(z, r), edges[r : r + 1],
                                           np.zeros(mine.sum(), dtype=int), u[mine])
        assert np.array_equal(many[mine], one)
    assert np.all(np.abs(many[rows == 1] - special.ndtri(u[rows == 1])) <= 1e-12)


def test_tabulated_quantile_validates_levels():
    q = numerics.TabulatedQuantile(lambda z: np.zeros_like(z), (0.0, 1.0))
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            q(bad)
    # the ends of the window, up to the outermost point of the map
    assert 0.0 <= q(0.0) < 1e-15 and 1.0 - 1e-15 < q(1.0) <= 1.0


def test_terminal_law_atom_validation():
    for atoms in (((0.0, -0.5), (1.0, 1.5)), ((0.0, 0.5), (0.0, 0.5)), ((math.inf, 1.0),)):
        with pytest.raises(DomainError):
            TerminalLaw(atoms=atoms)


def test_terminal_law_sorts_atoms():
    law = TerminalLaw(atoms=((2.0, 0.25), (-1.0, 0.75)))
    assert law.atoms == ((-1.0, 0.75), (2.0, 0.25))


def test_integrate_atoms_plus_density():
    law = TerminalLaw.uniform(0.0, 1.0, weight=0.7, atoms=((2.0, 0.3),))
    # first moment: 0.3 * 2 + 0.7 * 0.5
    got = numerics.integrate(law, lambda z: z)
    assert abs(got - (0.6 + 0.35)) < 1e-12


def test_integrate_rejects_nonfinite_atom_values():
    with pytest.raises(NumericError):
        numerics.integrate(TerminalLaw.point(0.0), lambda z: math.inf)


def test_integrate_kink_with_breakpoint():
    d = DensityComponent(
        pdf=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        lower=0.0,
        upper=1.0,
        breakpoints=(0.3,),
    )
    got = numerics.integrate(TerminalLaw(density=d), lambda z: abs(z - 0.3))
    want = 0.5 * 0.3**2 + 0.5 * 0.7**2
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# root finding


def test_find_root_monotone_basic():
    root = numerics.find_root_monotone(lambda x: x**3 - 2.0, 0.0, 2.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-10


def test_find_root_monotone_decreasing():
    root = numerics.find_root_monotone(lambda x: 1.0 - x, -3.0, 5.0)
    assert abs(root - 1.0) < 1e-10


def test_find_root_monotone_endpoint_hit():
    assert numerics.find_root_monotone(lambda x: x, 0.0, 1.0) == 0.0


def test_find_root_monotone_no_sign_change():
    with pytest.raises(NoRootError):
        numerics.find_root_monotone(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_monotone_rejects_wiggles():
    with pytest.raises(NonMonotoneError):
        numerics.find_root_monotone(lambda x: math.sin(x), -1.0, 20.0)


def test_find_root_monotone_bad_bracket():
    with pytest.raises(DomainError):
        numerics.find_root_monotone(lambda x: x, 1.0, 0.0)


@given(
    a=st.floats(0.1, 5.0),
    b=st.floats(0.1, 5.0),
    c=st.floats(-10.0, 10.0),
)
def test_find_root_monotone_cubic_family(a, b, c):
    f = lambda x: a * x**3 + b * x - c
    root = numerics.find_root_monotone(f, -50.0, 50.0)
    assert abs(f(root)) < 1e-7 * max(1.0, abs(c))


@given(
    a=st.floats(0.1, 5.0),
    b=st.floats(0.1, 5.0),
    c=st.floats(-10.0, 10.0),
)
def test_solve_brackets_matches_brentq_on_cubic_family(a, b, c):
    # the root (|root| < 5) from three brackets in one batch: each agrees with
    # brentq and with a batch of one, and the value returned is f there
    f = lambda x: a * x**3 + b * x - c
    want = sci_optimize.brentq(f, -50.0, 50.0, xtol=1e-13, rtol=8.9e-16)
    lo, hi = np.array([-50.0, -5.0, -50.0]), np.array([50.0, 50.0, 5.0])
    x, fx = numerics.solve_brackets(f, lo, hi, f(lo), f(hi), tol=1e-13)
    assert np.all(np.abs(x - want) <= 2e-13 * max(1.0, abs(want)))
    assert np.array_equal(fx, f(x))
    alone, _ = numerics.solve_brackets(f, lo[:1], hi[:1], f(lo[:1]), f(hi[:1]), tol=1e-13)
    assert alone[0] == x[0]


def test_solve_brackets_contracts():
    f = lambda x: x - 0.5
    with pytest.raises(NoRootError):
        numerics.solve_brackets(f, [1.0], [2.0], [0.5], [1.5], tol=1e-12)
    # an end with value 0 is the root, and fn is not called for it
    x, fx = numerics.solve_brackets(None, [0.5, -1.0], [2.0, 0.0], [0.0, -1.0], [1.5, 0.0], tol=1e-12)
    assert list(x) == [0.5, 0.0] and list(fx) == [0.0, 0.0]
    with pytest.raises(NumericError):
        numerics.solve_brackets(lambda x: np.where(x > 0.3, np.nan, -1.0), [0.0], [1.0], [-1.0], [1.0],
                                tol=1e-12)


def test_inverse_cdf_uniform_quantiles():
    pdf = lambda z: 1.0
    for u in (0.1, 0.5, 0.9):
        got = numerics.inverse_cdf(pdf, 0.0, 1.0, u)
        assert abs(got - u) < 1e-9


def test_inverse_cdf_validates_u():
    with pytest.raises(DomainError):
        numerics.inverse_cdf(lambda z: 1.0, 0.0, 1.0, 1.5)


def test_inverse_cdf_unnormalized_density():
    # density 2z on [0, 1]: quantile is sqrt(u)
    got = numerics.inverse_cdf(lambda z: 2.0 * z, 0.0, 1.0, 0.25)
    assert abs(got - 0.5) < 1e-9


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules


@pytest.mark.parametrize("n", [32, 48, 64])
@pytest.mark.parametrize("beta", [-0.99, -0.8, 0.0, 0.8])
def test_jacobi_rule_matches_a_40_digit_rule(n, beta):
    # nodes from eigvalsh, then Newton and Christoffel weights; the rule the
    # eigenvectors of numpy.linalg.eigh gave was up to 2.6e-13 off here
    x, w = numerics._jacobi_rule(n, beta)
    xm, wm, mass = quad_reference.jacobi_rule_mp(n, beta, x)
    with mpmath.workdps(40):
        assert abs(mpmath.fsum(wm) - mass) < mpmath.mpf(10) ** -30 * mass
    assert np.all(np.diff(x) > 0.0)
    xm, wm = np.array([float(v) for v in xm]), np.array([float(v) for v in wm])
    assert np.all(np.abs(x - xm) <= 1e-13 * np.abs(xm))
    assert np.all(np.abs(w - wm) <= 1e-13 * wm)


# ---------------------------------------------------------------------------
# inverse of the regularised incomplete beta function

BETA_GRID = (1e-3, 0.05, 0.2, 1.0, 2.0, 50.0)
# the terminal-first bench's gamma steps: m dt = 0.2, m (T - t) = 2 (1 - t)
BETA_PAIRS = list(itertools.product(BETA_GRID, BETA_GRID)) + [
    (0.2, 2.0 * (1.0 - t)) for t in np.linspace(0.1, 0.9, 9)
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b", BETA_PAIRS)
def test_beta_inverse_matches_a_40_digit_root(a, b):
    # min(x, 1 - x) within 1e-13 relative of a 40-digit root, and past x = 1/2
    # within half an ulp of 1 more. A root's condition number kappa, the size
    # of d log min(x, 1 - x) / d log u (of 1 - u past 1/2), turns one rounding
    # of u, I or 1 - I into kappa ulps of the root: no double inverse is
    # exact where kappa is large (1000 at a = 1e-3, where scipy's betaincinv
    # is 2.6e-13 off), so there the bound is 4 kappa ulps
    with mpmath.workdps(40):
        split = mpmath.betainc(a, b, 0, 0.5, regularized=True)
        underflow = mpmath.betainc(a, b, 0, mpmath.mpf("2.3e-308"), regularized=True)
    bits = np.random.Philox(key=20261019).random_raw(200)
    us = float(split)
    u = np.concatenate([[2.0**-53, 1.0 - 2.0**-53, np.nextafter(us, 0.0), us, np.nextafter(us, 2.0)],
                        ((bits >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52])
    u = np.sort(u[u <= 1.0])
    x = numerics._beta_inverse(a, b, u)
    assert np.all((x >= 0.0) & (x <= 1.0)) and np.all(np.diff(x) >= 0.0)
    eps = np.finfo(float).eps
    for ui, xi in zip(u, x):
        if ui == 1.0:
            assert xi == 1.0
            continue
        upper = mpmath.mpf(ui) > split
        if not upper and underflow >= ui:
            assert 0.0 <= xi <= 2.3e-308
            continue
        root = quad_reference.beta_inverse_mp(a, b, ui, xi, upper)
        with mpmath.workdps(40):
            got = 1 - mpmath.mpf(xi) if upper else mpmath.mpf(xi)
            x_root = 1 - root if upper else root
            dens = x_root ** (a - 1) * (1 - x_root) ** (b - 1) / mpmath.beta(a, b)
            kappa = float((1 - mpmath.mpf(ui) if upper else mpmath.mpf(ui)) / (root * dens))
            err = float(abs(got - root)) - (2.0**-53 if upper else 0.0)
        assert err <= max(1e-13, 4.0 * kappa * eps) * float(root), (ui, xi, kappa)


def test_beta_inverse_rejects_shapes_it_cannot_certify():
    # a NaN shape would read both halves as out of reach, a table of zeros;
    # a shape of 1e-300 puts every root below the smallest normal double
    for a, b in ((math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(DomainError):
            numerics._beta_inverse(a, b, 0.5)
    assert np.all(numerics._beta_inverse(1e-300, 1.0, [0.1, 0.5, 0.9]) == 0.0)


# ---------------------------------------------------------------------------
# batch quadrature


def _kronrod_mp(n):
    """(2n+1)-point Gauss-Kronrod extension of n-point Gauss-Legendre, 40 digits.

    Laurie's algorithm (Math. Comp. 66 (1997) 1133) turns the Legendre
    recurrence coefficients (alpha = 0, beta_0 = 2, beta_k = k^2 / (4k^2 - 1))
    into the Jacobi-Kronrod matrix, whose eigenvalues are the nodes and whose
    eigenvectors' first components give the weights (Golub-Welsch). Returns
    nodes and weights in increasing node order, symmetrised.
    """
    with mpmath.workdps(40):
        zero = mpmath.mpf(0)
        a, b = [zero] * (2 * n + 1), [zero] * (2 * n + 1)
        b[0] = mpmath.mpf(2)
        for k in range(1, -(-3 * n // 2) + 1):
            b[k] = mpmath.mpf(k * k) / (4 * k * k - 1)
        s, t = [zero] * (n // 2 + 2), [zero] * (n // 2 + 2)
        t[1] = b[n + 1]
        for m in range(n - 1):
            ks = list(range((m + 1) // 2, -1, -1))
            terms = [(a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                     for k in ks]
            for k, v in zip(ks, itertools.accumulate(terms)):
                s[k + 1] = v
            s, t = t, s
        s[1 : n // 2 + 2] = s[: n // 2 + 1]
        for m in range(n - 1, 2 * n - 2):
            ks = list(range(m + 1 - n, (m - 1) // 2 + 1))
            js = [n - 1 - (m - k) for k in ks]
            terms = [-(a[k + n + 1] - a[m - k]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[m - k] * s[j + 2]
                     for k, j in zip(ks, js)]
            for j, v in zip(js, itertools.accumulate(terms)):
                s[j + 1] = v
            j, k = js[-1], (m + 1) // 2
            if m % 2 == 0:
                a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
            else:
                b[k + n + 1] = s[j + 1] / s[j + 2]
            s, t = t, s
        a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
        size = 2 * n + 1
        jac = mpmath.matrix(size, size)
        for i in range(size):
            jac[i, i] = a[i]
            if i:
                jac[i, i - 1] = jac[i - 1, i] = mpmath.sqrt(b[i])
        x, vecs = mpmath.eigsy(jac)
        order = sorted(range(size), key=lambda i: x[i])
        x = [x[i] for i in order]
        w = [b[0] * vecs[0, i] ** 2 for i in order]
        return ([(x[i] - x[size - 1 - i]) / 2 for i in range(size)],
                [(w[i] + w[size - 1 - i]) / 2 for i in range(size)])


def test_kronrod_tables_are_the_rounded_rule():
    # every table entry is the double nearest the 40-digit value; the G16
    # nodes sit at every other K33 node, and their G16 weights are
    # 2 (1 - x^2) / (16 P15(x))^2
    x, w = _kronrod_mp(16)
    with mpmath.workdps(40):
        gauss = [(float(x[i]), float(2 * (1 - x[i] ** 2) / (16 * mpmath.legendre(15, x[i])) ** 2),
                  float(w[i])) for i in range(17, 33, 2)]
    kronrod = [(float(x[i]), float(w[i])) for i in range(16, 33, 2)]
    assert gauss == list(numerics._K33_GAUSS)
    assert kronrod == list(numerics._K33_KRONROD)


def test_kronrod_rule_extends_gauss_legendre():
    # K33 keeps the 16 Gauss-Legendre nodes, has positive weights, and is
    # exact for x^p up to degree 3 * 16 + 1 = 49
    x, wk, wg = numerics._kronrod_rule()
    gx, gw = np.polynomial.legendre.leggauss(16)
    assert x.size == 33 and np.all(np.abs(x[:16] - gx) <= np.spacing(np.abs(gx)))
    assert np.max(np.abs(wg - gw) / gw) < 1e-14
    assert np.all(wk > 0.0) and np.all(np.abs(x) < 1.0)
    assert np.min(np.abs(x[16:, None] - gx)) > 1e-3
    for p in range(50):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(np.dot(wk, x**p) - exact) <= 1e-14, p


def test_kronrod_algorithm_reproduces_the_quadpack_15_point_table():
    # Laurie's algorithm at n = 7 against the nodes and weights of QUADPACK's
    # qk15 (the non-negative half; the rule is symmetric). They agree to
    # 1e-33, except the node 0.5860... of the published table, off by 7e-27
    xgk = ["0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
           "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
           "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
           "0.207784955007898467600689403773245", "0.0"]
    wgk = ["0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
           "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
           "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
           "0.204432940075298892414161999234649", "0.209482141084727828012999174891714"]
    x, w = _kronrod_mp(7)
    with mpmath.workdps(40):
        assert max(abs(x[14 - i] - mpmath.mpf(v)) for i, v in enumerate(xgk)) < 1e-25
        assert max(abs(w[14 - i] - mpmath.mpf(v)) for i, v in enumerate(wgk)) < 1e-25


def test_composite_rule_puts_gauss_nodes_first():
    nodes, wk, wg = numerics._composite_rule(4)
    x, _, gw = numerics._kronrod_rule()
    assert nodes.size == wk.size == 132 and wg.size == 64
    # the first 64 nodes and their Gauss weights are the composite G16 x 4 rule
    centres = (np.arange(4) + 0.5) / 4
    assert np.allclose(nodes[:64], (centres[:, None] + x[:16] / 8).ravel(), rtol=0, atol=1e-15)
    assert np.allclose(wg, np.tile(gw / 8, 4), rtol=0, atol=1e-16)
    assert abs(wk.sum() - 1.0) < 1e-15 and abs(wg.sum() - 1.0) < 1e-15


def test_composite_quad_batch_matches_quad():
    fns = [
        lambda x: np.exp(-0.5 * x**2),
        lambda x: np.cos(x) * np.exp(-np.abs(x) / 3.0),
    ]

    def rows(x, r):
        # the rule hands out its reference nodes in [0, 1]
        return np.stack([fns[i](-8.0 + 16.0 * z) for i, z in zip(r, x)])

    got = numerics.composite_quad_batch(
        lambda x, r: rows(x, r)[:, None, :],
        np.full(2, -8.0), np.full(2, 8.0),
    )[:, 0]
    for i, f in enumerate(fns):
        want, _ = sci_integrate.quad(f, -8.0, 8.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(got[i] - want) < 1e-10


def test_composite_quad_batch_row_grouping_consistency():
    """Batching rows together must not move any result beyond tolerance."""
    f = lambda x: np.exp(-(x**2))
    g = lambda x: 1.0 / (1.0 + x**2)
    tol = 1e-11  # the rule's relative stop
    z = lambda x: -6.0 + 12.0 * x  # the rule hands out its reference nodes in [0, 1]
    pick = lambda r, x: np.stack([(f, g)[i](z(v)) for i, v in zip(r, x)])
    both = numerics.composite_quad_batch(
        lambda x, r: pick(r, x)[:, None, :], np.full(2, -6.0), np.full(2, 6.0)
    )
    alone_f = numerics.composite_quad_batch(
        lambda x, r: f(z(x))[:, None, :], np.array([-6.0]), np.array([6.0])
    )
    alone_g = numerics.composite_quad_batch(
        lambda x, r: g(z(x))[:, None, :], np.array([-6.0]), np.array([6.0])
    )
    assert abs(both[0, 0] - alone_f[0, 0]) < 50 * tol
    assert abs(both[1, 0] - alone_g[0, 0]) < 50 * tol


def test_composite_quad_batch_powers_come_from_node_moments():
    # with powers, one integrand g per row and its z^q sums recombined from
    # its moments in the node coordinate match the per-power integrands
    a, b = np.array([-9.0, 0.5, 30.0]), np.array([-5.0, 4.0, 31.0])
    z = lambda x, r: a[r, None] + (b - a)[r, None] * x
    g = lambda x, r: np.exp(-0.5 * (z(x, r) - 0.5 * (a + b)[r, None]) ** 2) * (2.0 + np.cos(z(x, r)))
    powers = (0, 1, 3)
    got = numerics.composite_quad_batch(g, a, b, powers)
    want = numerics.composite_quad_batch(
        lambda x, r: np.stack([g(x, r) * z(x, r) ** q for q in powers], axis=1), a, b
    )
    assert got.shape == (3, 3)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_composite_quad_batch_interval_validation():
    fn = lambda x, r: x[:, None, :]
    with pytest.raises(DomainError):
        numerics.composite_quad_batch(fn, np.array([1.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        numerics.composite_quad_batch(fn, np.array([0.0]), np.array([math.inf]))


def test_composite_quad_batch_reports_non_convergence():
    # x^-1/2 on [0, 1]: even at 1,024 equal panels, the last level, the first
    # panel's 16-point Gauss and 33-point Kronrod sums differ by about 5e-4 of
    # the integral, far above the rule's 1e-11
    with pytest.raises(NumericError, match="did not stabilize") as err:
        numerics.composite_quad_batch(
            lambda x, r: (1.0 / np.sqrt(x))[:, None, :], np.array([0.0]), np.array([1.0])
        )
    assert err.value.diagnostics["panels"] == 1024
