import math

import pytest
from hypothesis import given, strategies as st

from levybridge import config
from levybridge.config import (
    DensityConfig,
    KernelConfig,
    OptionConfig,
    PriceConfig,
    RateConfig,
    ScenarioConfig,
    SimulateConfig,
    TerminalConfig,
    VerifyConfig,
    parse_scenario,
    scenario_to_dict,
)
from levybridge.errors import ConfigError
from levybridge.kernels import GammaKernel


def full_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        kernel=KernelConfig(family="gamma", m=2.0),
        horizon=1.0,
        terminal_law=TerminalConfig(
            atoms=((1.0, 0.25),),
            density=DensityConfig(
                family="gamma", params=(("shape", 2.0), ("scale", 1.5)), weight=0.75
            ),
        ),
        rate=RateConfig(times=(0.0, 0.4), rates=(0.02, 0.05)),
        seed=7,
        simulate=SimulateConfig(grid=(0.25, 0.5, 1.0), n_paths=16, method="markov"),
        price=PriceConfig(points=((0.5, 0.9), (0.75, 1.4))),
        option=OptionConfig(strike=1.2, maturity=0.5, valuation_time=0.1, xi=0.2),
        verify=VerifyConfig(checks=("normalization",)),
    )


def minimal_dict() -> dict:
    return {
        "kernel": {"family": "brownian"},
        "horizon": 1.0,
        "terminal_law": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
    }


# ---------------------------------------------------------------------------
# round trips


def test_full_round_trip():
    cfg = full_scenario()
    assert parse_scenario(scenario_to_dict(cfg)) == cfg


def test_minimal_round_trip():
    cfg = parse_scenario(minimal_dict())
    assert cfg.rate == RateConfig()
    assert cfg.seed == 0
    assert cfg.simulate is None and cfg.option is None
    assert parse_scenario(scenario_to_dict(cfg)) == cfg


def test_density_weight_left_implicit_survives_round_trip():
    d = minimal_dict()
    d["kernel"] = {"family": "gamma", "m": 2.0}
    d["terminal_law"] = {
        "atoms": [[1.0, 0.25]],
        "density": {"family": "gamma", "shape": 2.0, "scale": 1.5},
    }
    cfg = parse_scenario(d)
    assert cfg.terminal_law.density.weight is None
    again = scenario_to_dict(cfg)
    assert "weight" not in again["terminal_law"]["density"]
    assert parse_scenario(again) == cfg


def test_null_blocks_read_as_absent():
    d = minimal_dict()
    d["terminal_law"]["density"] = None
    d.update(rate=None, simulate=None, price=None, option=None, verify=None)
    assert parse_scenario(d) == parse_scenario(minimal_dict())


_floats = st.floats(allow_nan=False, allow_infinity=False)
_pairs = st.tuples(_floats, _floats)
_KERNEL_PARAMS = {"brownian": (), "gamma": ("m",), "poisson": ("intensity",)}


@st.composite
def _kernels(draw):
    family = draw(st.sampled_from(sorted(_KERNEL_PARAMS)))
    return KernelConfig(family, **{name: draw(_floats) for name in _KERNEL_PARAMS[family]})


@st.composite
def _densities(draw):
    family = draw(st.sampled_from(sorted(config._DENSITY_PARAMS)))
    params = tuple((name, draw(_floats)) for name in config._DENSITY_PARAMS[family])
    return DensityConfig(family, params, draw(st.none() | _floats))


_scenarios = st.builds(
    ScenarioConfig,
    kernel=_kernels(),
    horizon=_floats,
    terminal_law=st.builds(
        TerminalConfig, atoms=st.lists(_pairs).map(tuple), density=st.none() | _densities()
    ),
    rate=st.builds(
        RateConfig, times=st.lists(_floats).map(tuple), rates=st.lists(_floats).map(tuple)
    ),
    seed=st.integers(0, 2**64 - 1),
    simulate=st.none()
    | st.builds(
        SimulateConfig,
        grid=st.lists(_floats, min_size=1).map(tuple),
        n_paths=st.integers(),
        method=st.sampled_from(["terminal_first", "markov"]),
    ),
    price=st.none() | st.builds(PriceConfig, points=st.lists(_pairs, min_size=1).map(tuple)),
    option=st.none()
    | st.builds(
        OptionConfig, strike=_floats, maturity=_floats, valuation_time=_floats, xi=_floats
    ),
    verify=st.none() | st.builds(VerifyConfig, checks=st.lists(st.text()).map(tuple)),
)


@given(_scenarios)
def test_generated_scenarios_round_trip(cfg):
    assert parse_scenario(scenario_to_dict(cfg)) == cfg


# ---------------------------------------------------------------------------
# build


def test_build_spec_and_curve():
    cfg = full_scenario()
    spec = cfg.build_spec()
    assert isinstance(spec.kernel, GammaKernel)
    assert spec.terminal.atoms == ((1.0, 0.25),)
    curve = cfg.build_curve()
    assert curve.rates == (0.02, 0.05)


def test_build_implicit_density_weight():
    d = minimal_dict()
    d["terminal_law"] = {
        "atoms": [[0.0, 0.3]],
        "density": {"family": "normal", "mu": 0.5, "sigma2": 1.0},
    }
    spec = parse_scenario(d).build_spec()
    # the density absorbs the remaining probability mass
    assert abs(spec.terminal.density.pdf(0.5) * 0.0 + sum(w for _, w in spec.terminal.atoms) - 0.3) < 1e-15


def test_build_spec_reports_model_errors_as_config_errors():
    d = minimal_dict()
    d["kernel"] = {"family": "gamma", "m": 2.0}
    # a normal terminal leaks outside the gamma kernel's support
    d["terminal_law"] = {"density": {"family": "normal", "mu": 0.0, "sigma2": 1.0}}
    with pytest.raises(ConfigError) as err:
        parse_scenario(d).build_spec()
    assert err.value.field == "scenario"


def test_build_kernel_parameter_error_path():
    d = minimal_dict()
    d["kernel"] = {"family": "gamma", "m": -1.0}
    with pytest.raises(ConfigError) as err:
        parse_scenario(d).build_spec()
    assert err.value.field == "scenario.kernel.m"


# ---------------------------------------------------------------------------
# strict parsing


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.update(extra=1), "scenario.extra"),
        (lambda d: d.pop("kernel"), "scenario.kernel"),
        (lambda d: d.pop("horizon"), "scenario.horizon"),
        (lambda d: d.pop("terminal_law"), "scenario.terminal_law"),
        (lambda d: d.update(horizon="1"), "scenario.horizon"),
        (lambda d: d.update(horizon=True), "scenario.horizon"),
        (lambda d: d.update(seed=1.5), "scenario.seed"),
        (lambda d: d["kernel"].pop("family"), "scenario.kernel.family"),
        (lambda d: d["kernel"].update(family="cauchy"), "scenario.kernel.family"),
        (lambda d: d["kernel"].update(m=1.0), "scenario.kernel.m"),
        (lambda d: d.update(rate={"times": [0.0], "rates": [0.0], "x": 1}), "scenario.rate.x"),
        (lambda d: d.update(rate={"rates": ["low"]}), "scenario.rate.rates[0]"),
        (lambda d: d.update(rate={"times": 0.0}), "scenario.rate.times"),
        (
            lambda d: d.update(simulate={"grid": [0.5], "n_paths": 2.5}),
            "scenario.simulate.n_paths",
        ),
        (
            lambda d: d.update(simulate={"grid": [], "n_paths": 4}),
            "scenario.simulate.grid",
        ),
        (
            lambda d: d.update(simulate={"grid": [0.5], "n_paths": 4, "method": "exact"}),
            "scenario.simulate.method",
        ),
        (lambda d: d.update(price={"points": []}), "scenario.price.points"),
        (lambda d: d.update(price={"points": [[0.5]]}), "scenario.price.points[0]"),
        (lambda d: d.update(option={"strike": 1.0}), "scenario.option.maturity"),
        (
            lambda d: d.update(option={"strike": 1.0, "maturity": 0.5, "method": "mc"}),
            "scenario.option.method",
        ),
        (lambda d: d.update(verify={"checks": "normalization"}), "scenario.verify.checks"),
        (lambda d: d.update(verify={"checks": [3]}), "scenario.verify.checks[0]"),
        pytest.param(lambda d: d.update(terminal_law=None), "scenario.terminal_law", id="null-law"),
        pytest.param(lambda d: d.update(kernel=None), "scenario.kernel", id="null-kernel"),
        (lambda d: d.update(kernel={"family": "poisson"}), "scenario.kernel.intensity"),
        (
            lambda d: d["terminal_law"].update(
                density={"family": "normal", "mu": 0.0, "sigma2": 1.0, "weight": "x"}
            ),
            "scenario.terminal_law.density.weight",
        ),
        (lambda d: d.update(price={"points": [[0.5, math.nan]]}), "scenario.price.points[0][1]"),
        (
            lambda d: d.update(option={"strike": 1.0, "maturity": 0.5, "xi": "a"}),
            "scenario.option.xi",
        ),
        pytest.param(
            lambda d: d.update(verify={"checks": None}), "scenario.verify.checks", id="null-checks"
        ),
        (lambda d: d["terminal_law"].update(atoms=None), "scenario.terminal_law.atoms"),
        pytest.param(
            lambda d: d.update(extra=1, horizon="x"), "scenario.extra", id="unknown-key-first"
        ),
    ],
)
def test_bad_inputs_fail_at_the_offending_field(mutate, field):
    d = minimal_dict()
    mutate(d)
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert err.value.field == field


@pytest.mark.parametrize(
    "block,body,key",
    [
        ("simulate", {"n_paths": 4}, "grid"),
        ("simulate", {"grid": [0.5]}, "n_paths"),
        ("price", {}, "points"),
    ],
)
def test_missing_required_key_is_named(block, body, key):
    d = minimal_dict()
    d[block] = body
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert str(err.value) == f"scenario.{block}.{key}: missing required key"


def test_gamma_kernel_requires_m():
    d = minimal_dict()
    d["kernel"] = {"family": "gamma"}
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert err.value.field == "scenario.kernel.m"


def test_atoms_must_be_pairs():
    d = minimal_dict()
    d["terminal_law"] = {"atoms": [[0.0, 0.5, 0.3]]}
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert err.value.field == "scenario.terminal_law.atoms[0]"
    d["terminal_law"] = {"atoms": [[0.0, True]]}
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert err.value.field == "scenario.terminal_law.atoms[0][1]"


def test_density_family_is_validated():
    d = minimal_dict()
    d["terminal_law"] = {"density": {"family": "laplace", "mu": 0.0, "sigma2": 1.0}}
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert err.value.field == "scenario.terminal_law.density.family"
    d["terminal_law"] = {"density": {"family": "normal", "mu": 0.0}}
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert err.value.field == "scenario.terminal_law.density.sigma2"


def test_error_message_carries_the_field():
    with pytest.raises(ConfigError) as err:
        parse_scenario({"kernel": {"family": "brownian"}, "horizon": 1.0})
    assert str(err.value).startswith("scenario.terminal_law:")


@pytest.mark.parametrize("seed", [-5, -1, 2**64])
def test_seed_outside_the_counter_range_is_rejected(seed):
    d = minimal_dict()
    d["seed"] = seed
    with pytest.raises(ConfigError) as err:
        parse_scenario(d)
    assert err.value.field == "scenario.seed"
    d["seed"] = 2**64 - 1
    assert parse_scenario(d).seed == 2**64 - 1
