"""Every functional runs on the array rules alone: no QUADPACK, no brentq.

`numerics.integrate`, `numerics._quad_segment` and `scipy.optimize.brentq`
are made to raise before anything is built. The built-in laws validate
their mass with `numerics.density_sums`, posterior functionals past t = 0
run on the tilted-sum engine, exercise boundaries on `numerics.solve_brackets`
and call prices on node sums: a second evaluation route would trip the
guards. A terminal density is drawn from, and has its infinite tails cut,
by its `quantile` alone: a closed form for the built-in laws and a
`numerics.TabulatedQuantile` for posterior laws (restart specs) and a user's
finite density, so `numerics.inverse_cdf` is forbidden too. The Markov
route draws the terminal value given each state from the engine's psi, atom
terms and windows through `numerics.tabulated_quantiles`, of which
`TabulatedQuantile` is the one-row case, and then takes the same exact
bridge step as terminal-first (`bridge._inverse_step`): the two routes
share that step, and their agreement checks the engine's posterior against
the prior plus the bridge. QUADPACK and brentq remain only for the
references in `checks` and the tests."""

import os
import subprocess
import sys
import json

import numpy as np
import pytest
import scipy.optimize

import levybridge
from levybridge import checks, cli, core, numerics, pricing, sampler
from levybridge.config import ScenarioConfig
from levybridge.errors import UnsupportedKernelError
from levybridge.kernels import BrownianKernel, Kernel
from levybridge.laws import TerminalLaw
from levybridge.pricing import CallSpec, RateCurve


def forbid_quadpack_and_brentq(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("QUADPACK or brentq called")

    for owner, name in ((numerics, "integrate"), (numerics, "_quad_segment"),
                        (scipy.optimize, "brentq")):
        monkeypatch.setattr(owner, name, forbidden)


# restart specs and a user's finite density, built without `checks` (which
# loads scipy.integrate); the fresh interpreter below runs the same source
QUANTILE_ROUTE_CALLS = """
import numpy as np
from levybridge import core, pricing, sampler
from levybridge.kernels import BrownianKernel, GammaKernel
from levybridge.laws import TerminalLaw
from levybridge.numerics import DensityComponent

mixed = core.LRBSpec(BrownianKernel(), 1.0,
                     TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),)))
gamma = core.LRBSpec(GammaKernel(2.0), 1.0, TerminalLaw.gamma(2.0, 1.5))
curve = pricing.RateCurve.flat(0.02)
for spec, xi, strike in ((mixed, 0.3, 0.3), (gamma, 1.0, 3.5)):
    sub = core.restart(spec, 0.5, xi)
    for method in ("terminal_first", "markov"):
        assert np.all(np.isfinite(sampler.simulate_paths(sub, [0.25, 0.5], 16, 3, method=method)))
    assert core.psi_total(sub, 0.25, 0.1) > 0.0
    assert np.all(np.isfinite(core.posterior_mean_many(sub, 0.25, np.array([0.1, 0.4]))))
    call = pricing.CallSpec(strike=strike, maturity=0.75, valuation_time=0.5, xi=xi)
    assert pricing.call_price(spec, curve, call) > 0.0
tri = DensityComponent(pdf=lambda z: np.where((z >= 0.0) & (z <= 1.0), 2.0 * z, 0.0),
                       lower=0.0, upper=1.0, breakpoints=(0.5,))
user = core.LRBSpec(BrownianKernel(), 1.0, TerminalLaw(density=tri))
draws = sampler.simulate_paths(user, [0.5, 1.0], 16, 4)[:, -1]
assert np.all((draws > 0.0) & (draws < 1.0))
"""


def test_quantile_route_needs_no_quadpack_brentq_or_inverse_cdf(monkeypatch):
    forbid_quadpack_and_brentq(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-draw numerical inversion called")

    monkeypatch.setattr(numerics, "inverse_cdf", forbidden)
    exec(QUANTILE_ROUTE_CALLS, {})


def test_quantile_route_loads_neither_scipy_integrate_nor_optimize():
    heavy = ("levybridge.checks", "scipy.integrate", "scipy.optimize")
    code = (
        "import sys\n"
        + QUANTILE_ROUTE_CALLS
        + f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(levybridge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scalar_functionals_use_only_the_engine(tmp_path, capsys, monkeypatch):
    forbid_quadpack_and_brentq(monkeypatch)
    mixed = checks.brownian_mixed()
    poisson = checks.poisson_atomic()
    curve = RateCurve.flat(0.02)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "kernel": {"family": "brownian"},
        "horizon": 1.0,
        "terminal_law": {"atoms": [[0.0, 1.0]]},
        "price": {"points": [[0.5, -10.0], [0.3, 0.2]]},
    }))

    # the CLI builds its spec from the file; hand it the prebuilt mixed law
    monkeypatch.setattr(ScenarioConfig, "build_spec", lambda self: mixed)

    assert core.psi_total(mixed, 0.5, 0.3) > 0.0
    assert core.rn_derivative(mixed, 0.5, 0.3) > 0.0
    assert np.isfinite(core.conditional_moment(mixed, 0.5, 0.3, 2))
    assert np.isfinite(pricing.price(mixed, curve, 0.5, 0.3))
    assert all(np.isfinite(pricing.sde_coefficients(mixed, curve, 0.5, 0.3)))
    assert core.transition_density(mixed, 0.2, 0.1, 0.6, 0.4) > 0.0
    assert core.transition_mass(poisson, 0.2, 0, 0.6, 2) > 0.0
    post = core.terminal_posterior(mixed, 0.5, -10.0)
    assert post.density is not None and len(post.atoms) == 1
    kinds = [
        pricing.critical_information(mixed, curve, 0.5, 0.3, mode=mode).kind
        for mode in ("monotone", "set")
    ]
    assert kinds == ["threshold", "intervals"]
    assert cli.main(["price", "--config", str(cfg)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["xi"] for r in records] == [-10.0, 0.2]


def test_laws_boundaries_and_call_prices_need_no_quadpack(monkeypatch):
    forbid_quadpack_and_brentq(monkeypatch)
    laws = [
        TerminalLaw.normal(0.5, 0.64, weight=0.7, atoms=((-0.75, 0.3),)),
        TerminalLaw.gamma(0.5, 1.0),
        TerminalLaw.uniform(-1.0, 2.0, weight=0.4, atoms=((5.0, 0.6),)),
        TerminalLaw.from_atoms([(0.0, 0.5), (1.0, 0.5)]),
    ]
    assert all(np.isfinite(law.mean()) for law in laws)
    curve = RateCurve.flat(0.02)
    for spec, strike in ((checks.brownian_mixed(), 0.3), (checks.gamma_pricing(), 3.5)):
        kinds = [
            pricing.critical_information(spec, curve, 0.5, strike, mode=mode).kind
            for mode in ("monotone", "set")
        ]
        assert kinds == ["threshold", "intervals"]
        assert core.conditional_moment(spec, 0.0, 0.0, 2) > 0.0
        for s, xi in ((0.0, 0.0), (0.25, 0.4)):
            call = CallSpec(strike=strike, maturity=0.5, valuation_time=s, xi=xi)
            assert pricing.call_price(spec, curve, call) > 0.0


class WideKernel(Kernel):
    """A continuous kernel, N(0, 2t), that the engine has no rule for."""

    discrete = False
    nondecreasing = False
    _base = BrownianKernel()

    def log_density(self, t, x):
        return self._base.log_density(2.0 * t, x)

    def density(self, t, x):
        return np.exp(self.log_density(t, x))

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


def test_other_continuous_kernels_are_refused():
    spec = core.LRBSpec(kernel=WideKernel(), horizon=1.0, terminal=TerminalLaw.normal(0.0, 1.0))
    with pytest.raises(UnsupportedKernelError):
        core.psi_total(spec, 0.5, 0.3)


def test_markov_route_needs_no_terminal_posterior(monkeypatch):
    # every Markov step draws from the engine's posterior on all distinct
    # states at once; a per-state posterior law or numerical inversion would
    # be a second route
    def forbidden(*args, **kwargs):
        raise AssertionError("second sampling route called")

    monkeypatch.setattr(core, "terminal_posterior", forbidden)
    monkeypatch.setattr(numerics, "inverse_cdf", forbidden)
    for spec in (checks.brownian_mixed(), checks.gamma_scaled()):
        out = sampler.simulate_paths(spec, [0.5, 1.0], 4, 5, method="markov")
        assert np.all(np.isfinite(out))
