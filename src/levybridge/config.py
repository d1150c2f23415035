"""Scenario files: JSON in, validated dataclasses out, canonical JSON back.

A scenario bundles the model (kernel, horizon, terminal law, rate curve),
the seed, and per-command blocks. Parsing is strict: unknown keys and type
mismatches raise ConfigError with a dotted field path, so a bad file fails
loudly at the offending entry instead of downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import LRBSpec
from .errors import ConfigError
from .kernels import BrownianKernel, GammaKernel, Kernel, PoissonKernel
from .laws import TerminalLaw
from .pricing import RateCurve

__all__ = [
    "KernelConfig",
    "DensityConfig",
    "TerminalConfig",
    "RateConfig",
    "SimulateConfig",
    "PriceConfig",
    "OptionConfig",
    "VerifyConfig",
    "ScenarioConfig",
    "parse_scenario",
    "scenario_to_dict",
]

_DENSITY_PARAMS = {
    "normal": ("mu", "sigma2"),
    "gamma": ("shape", "scale"),
    "uniform": ("a", "b"),
}


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _expect_seed(value, path: str) -> int:
    """A path-simulation seed: an integer in [0, 2**64)."""
    seed = _expect_int(value, path)
    if not 0 <= seed < 2**64:
        raise ConfigError(path, f"expected an integer in [0, 2**64), got {seed}")
    return seed


def _expect_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _reject_unknown(data: dict, known, path: str) -> None:
    extra = set(data) - set(known)
    if extra:
        raise ConfigError(f"{path}.{sorted(extra)[0]}", "unknown key")


def _get_number(data: dict, key: str, path: str, default=None):
    if key not in data:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return _expect_number(data[key], f"{path}.{key}")


@dataclass(frozen=True)
class KernelConfig:
    family: str
    m: float | None = None
    intensity: float | None = None

    def build(self) -> Kernel:
        try:
            if self.family == "brownian":
                return BrownianKernel()
            if self.family == "gamma":
                return GammaKernel(self.m)
            return PoissonKernel(self.intensity)
        except ValueError as exc:
            param = "m" if self.family == "gamma" else "intensity"
            raise ConfigError(f"scenario.kernel.{param}", str(exc)) from exc


@dataclass(frozen=True)
class DensityConfig:
    family: str
    params: tuple[tuple[str, float], ...]
    weight: float | None = None


@dataclass(frozen=True)
class TerminalConfig:
    atoms: tuple[tuple[float, float], ...] = ()
    density: DensityConfig | None = None

    def build(self) -> TerminalLaw:
        if self.density is None:
            return TerminalLaw.from_atoms(self.atoms)
        d = dict(self.density.params)
        weight = self.density.weight
        if weight is None:
            weight = 1.0 - sum(w for _, w in self.atoms)
        maker = getattr(TerminalLaw, self.density.family)
        names = _DENSITY_PARAMS[self.density.family]
        return maker(d[names[0]], d[names[1]], weight=weight, atoms=self.atoms)


@dataclass(frozen=True)
class RateConfig:
    times: tuple[float, ...] = (0.0,)
    rates: tuple[float, ...] = (0.0,)

    def build(self) -> RateCurve:
        return RateCurve(times=self.times, rates=self.rates)


@dataclass(frozen=True)
class SimulateConfig:
    grid: tuple[float, ...]
    n_paths: int
    method: str = "terminal_first"


@dataclass(frozen=True)
class PriceConfig:
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class OptionConfig:
    strike: float
    maturity: float
    valuation_time: float = 0.0
    xi: float = 0.0
    method: str = "closed"


@dataclass(frozen=True)
class VerifyConfig:
    checks: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    kernel: KernelConfig
    horizon: float
    terminal_law: TerminalConfig
    rate: RateConfig = field(default_factory=RateConfig)
    seed: int = 0
    simulate: SimulateConfig | None = None
    price: PriceConfig | None = None
    option: OptionConfig | None = None
    verify: VerifyConfig | None = None

    def build_spec(self) -> LRBSpec:
        try:
            return LRBSpec(
                kernel=self.kernel.build(),
                horizon=self.horizon,
                terminal=self.terminal_law.build(),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("scenario", str(exc)) from exc

    def build_curve(self) -> RateCurve:
        return self.rate.build()


# ---------------------------------------------------------------------------
# parsing


def _parse_kernel(data, path: str) -> KernelConfig:
    data = dict(_expect_mapping(data, path))
    if "family" not in data:
        raise ConfigError(f"{path}.family", "missing required key")
    family = _expect_str(
        data.pop("family"), f"{path}.family", choices=("brownian", "gamma", "poisson")
    )
    if family == "gamma":
        cfg = KernelConfig(family=family, m=_get_number(data, "m", path))
        data.pop("m", None)
    elif family == "poisson":
        cfg = KernelConfig(family=family, intensity=_get_number(data, "intensity", path))
        data.pop("intensity", None)
    else:
        cfg = KernelConfig(family=family)
    _reject_unknown(data, (), path)
    return cfg


def _parse_atoms(data, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(data, list):
        raise ConfigError(path, f"expected a list of [value, weight] pairs, got {data!r}")
    atoms = []
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]", f"expected [value, weight], got {pair!r}")
        atoms.append(
            (
                _expect_number(pair[0], f"{path}[{i}][0]"),
                _expect_number(pair[1], f"{path}[{i}][1]"),
            )
        )
    return tuple(atoms)


def _parse_density(data, path: str) -> DensityConfig | None:
    if data is None:
        return None
    data = dict(_expect_mapping(data, path))
    if "family" not in data:
        raise ConfigError(f"{path}.family", "missing required key")
    family = _expect_str(data.pop("family"), f"{path}.family", choices=tuple(_DENSITY_PARAMS))
    names = _DENSITY_PARAMS[family]
    params = tuple((name, _get_number(data, name, path)) for name in names)
    for name in names:
        data.pop(name)
    weight = None
    if "weight" in data:
        weight = _expect_number(data.pop("weight"), f"{path}.weight")
    _reject_unknown(data, (), path)
    return DensityConfig(family=family, params=params, weight=weight)


def _parse_terminal(data, path: str) -> TerminalConfig:
    data = dict(_expect_mapping(data, path))
    atoms = _parse_atoms(data.pop("atoms", []), f"{path}.atoms")
    density = _parse_density(data.pop("density", None), f"{path}.density")
    _reject_unknown(data, (), path)
    return TerminalConfig(atoms=atoms, density=density)


def _parse_rate(data, path: str) -> RateConfig:
    if data is None:
        return RateConfig()
    data = dict(_expect_mapping(data, path))
    times = data.pop("times", [0.0])
    rates = data.pop("rates", [0.0])
    if not isinstance(times, list) or not isinstance(rates, list):
        raise ConfigError(path, "times and rates must be lists")
    cfg = RateConfig(
        times=tuple(_expect_number(v, f"{path}.times[{i}]") for i, v in enumerate(times)),
        rates=tuple(_expect_number(v, f"{path}.rates[{i}]") for i, v in enumerate(rates)),
    )
    _reject_unknown(data, (), path)
    return cfg


def _parse_simulate(data, path: str) -> SimulateConfig | None:
    if data is None:
        return None
    data = dict(_expect_mapping(data, path))
    grid = data.pop("grid", None)
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"{path}.grid", "expected a non-empty list of times")
    n_paths = _expect_int(data.pop("n_paths", None), f"{path}.n_paths")
    method = _expect_str(
        data.pop("method", "terminal_first"),
        f"{path}.method",
        choices=("terminal_first", "markov"),
    )
    _reject_unknown(data, (), path)
    return SimulateConfig(
        grid=tuple(_expect_number(v, f"{path}.grid[{i}]") for i, v in enumerate(grid)),
        n_paths=n_paths,
        method=method,
    )


def _parse_price(data, path: str) -> PriceConfig | None:
    if data is None:
        return None
    data = dict(_expect_mapping(data, path))
    points = data.pop("points", None)
    if not isinstance(points, list) or not points:
        raise ConfigError(f"{path}.points", "expected a non-empty list of [t, xi] pairs")
    parsed = []
    for i, pair in enumerate(points):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}.points[{i}]", f"expected [t, xi], got {pair!r}")
        for j, v in enumerate(pair):
            if not math.isfinite(_expect_number(v, f"{path}.points[{i}][{j}]")):
                raise ConfigError(f"{path}.points[{i}][{j}]", f"expected a finite number, got {v}")
        parsed.append((float(pair[0]), float(pair[1])))
    _reject_unknown(data, (), path)
    return PriceConfig(points=tuple(parsed))


def _parse_option(data, path: str) -> OptionConfig | None:
    if data is None:
        return None
    data = dict(_expect_mapping(data, path))
    cfg = OptionConfig(
        strike=_get_number(data, "strike", path),
        maturity=_get_number(data, "maturity", path),
        valuation_time=_get_number(data, "valuation_time", path, default=0.0),
        xi=_get_number(data, "xi", path, default=0.0),
        method=_expect_str(
            data.pop("method", "closed"), f"{path}.method", choices=("closed",)
        ),
    )
    for key in ("strike", "maturity", "valuation_time", "xi"):
        data.pop(key, None)
    _reject_unknown(data, (), path)
    return cfg


def _parse_verify(data, path: str) -> VerifyConfig | None:
    if data is None:
        return None
    data = dict(_expect_mapping(data, path))
    checks = data.pop("checks", [])
    if not isinstance(checks, list):
        raise ConfigError(f"{path}.checks", "expected a list of check names")
    cfg = VerifyConfig(
        checks=tuple(_expect_str(c, f"{path}.checks[{i}]") for i, c in enumerate(checks))
    )
    _reject_unknown(data, (), path)
    return cfg


_TOP_KEYS = (
    "kernel",
    "horizon",
    "terminal_law",
    "rate",
    "seed",
    "simulate",
    "price",
    "option",
    "verify",
)


def parse_scenario(data: dict) -> ScenarioConfig:
    """Validate a decoded JSON object into a ScenarioConfig."""
    data = dict(_expect_mapping(data, "scenario"))
    _reject_unknown(data, _TOP_KEYS, "scenario")
    for key in ("kernel", "horizon", "terminal_law"):
        if key not in data:
            raise ConfigError(f"scenario.{key}", "missing required key")
    seed = data.get("seed", 0)
    return ScenarioConfig(
        kernel=_parse_kernel(data["kernel"], "scenario.kernel"),
        horizon=_expect_number(data["horizon"], "scenario.horizon"),
        terminal_law=_parse_terminal(data["terminal_law"], "scenario.terminal_law"),
        rate=_parse_rate(data.get("rate"), "scenario.rate"),
        seed=_expect_seed(seed, "scenario.seed"),
        simulate=_parse_simulate(data.get("simulate"), "scenario.simulate"),
        price=_parse_price(data.get("price"), "scenario.price"),
        option=_parse_option(data.get("option"), "scenario.option"),
        verify=_parse_verify(data.get("verify"), "scenario.verify"),
    )


# ---------------------------------------------------------------------------
# serialization back to the canonical JSON shape


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical JSON-ready dict; parse_scenario(scenario_to_dict(c)) == c."""
    kernel: dict = {"family": cfg.kernel.family}
    if cfg.kernel.family == "gamma":
        kernel["m"] = cfg.kernel.m
    elif cfg.kernel.family == "poisson":
        kernel["intensity"] = cfg.kernel.intensity
    out: dict = {
        "kernel": kernel,
        "horizon": cfg.horizon,
        "terminal_law": {
            "atoms": [[z, w] for z, w in cfg.terminal_law.atoms],
            "density": None
            if cfg.terminal_law.density is None
            else {
                "family": cfg.terminal_law.density.family,
                **dict(cfg.terminal_law.density.params),
                **(
                    {}
                    if cfg.terminal_law.density.weight is None
                    else {"weight": cfg.terminal_law.density.weight}
                ),
            },
        },
        "rate": {"times": list(cfg.rate.times), "rates": list(cfg.rate.rates)},
        "seed": cfg.seed,
    }
    if cfg.simulate is not None:
        out["simulate"] = {
            "grid": list(cfg.simulate.grid),
            "n_paths": cfg.simulate.n_paths,
            "method": cfg.simulate.method,
        }
    if cfg.price is not None:
        out["price"] = {"points": [[t, xi] for t, xi in cfg.price.points]}
    if cfg.option is not None:
        out["option"] = {
            "strike": cfg.option.strike,
            "maturity": cfg.option.maturity,
            "valuation_time": cfg.option.valuation_time,
            "xi": cfg.option.xi,
            "method": cfg.option.method,
        }
    if cfg.verify is not None:
        out["verify"] = {"checks": list(cfg.verify.checks)}
    return out
