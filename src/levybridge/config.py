"""Scenario files: JSON in, validated dataclasses out, canonical JSON back.

A scenario bundles the model (kernel, horizon, terminal law, rate curve),
the seed, and per-command blocks. The format is written down once: `_BLOCKS`
maps each key of each block to its reader, and `_KERNEL_PARAMS` and
`_DENSITY_PARAMS` give each family's parameters, which are required. A key's
default, and whether it is required, are those of its dataclass field.
`parse_scenario` reads every block with the one reader `_block`, and
`scenario_to_dict` writes each dataclass back as an object of its fields.
Parsing is strict: unknown keys and type mismatches raise ConfigError with a
dotted field path, so a bad file fails loudly at the offending entry instead
of downstream. A null block reads as an absent one.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

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

_KERNEL_PARAMS = {"brownian": (), "gamma": ("m",), "poisson": ("intensity",)}
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


def _expect_finite(value, path: str) -> float:
    x = _expect_number(value, path)
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {x}")
    return x


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


def _choice(*choices):
    return lambda value, path: _expect_str(value, path, choices)


def _list(item, least: int = 0, most: float = math.inf):
    """Reader of a JSON list of ``least`` to ``most`` entries, as a tuple of its entries
    read by ``item``, each at its own path ``path[i]``."""
    want = "a list" if not least else f"a list of {'' if least == most else 'at least '}{least}"

    def read(value, path: str) -> tuple:
        if not (isinstance(value, list) and least <= len(value) <= most):
            raise ConfigError(path, f"expected {want}, got {value!r}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


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
        try:
            return self.rate.build()
        except ValueError as exc:
            raise ConfigError("scenario.rate", str(exc)) from exc


# ---------------------------------------------------------------------------
# the format: each block's keys and their readers; a dataclass reads as a block

_BLOCKS = {
    ScenarioConfig: {
        "kernel": KernelConfig,
        "horizon": _expect_number,
        "terminal_law": TerminalConfig,
        "rate": RateConfig,
        "seed": _expect_seed,
        "simulate": SimulateConfig,
        "price": PriceConfig,
        "option": OptionConfig,
        "verify": VerifyConfig,
    },
    KernelConfig: {"family": _choice(*_KERNEL_PARAMS)},
    TerminalConfig: {"atoms": _list(_list(_expect_number, 2, 2)), "density": DensityConfig},
    DensityConfig: {"family": _choice(*_DENSITY_PARAMS), "weight": _expect_number},
    RateConfig: {"times": _list(_expect_number), "rates": _list(_expect_number)},
    SimulateConfig: {
        "grid": _list(_expect_number, 1),
        "n_paths": _expect_int,
        "method": _choice("terminal_first", "markov"),
    },
    PriceConfig: {"points": _list(_list(_expect_finite, 2, 2), 1)},
    OptionConfig: {
        "strike": _expect_number,
        "maturity": _expect_number,
        "valuation_time": _expect_number,
        "xi": _expect_number,
        "method": _choice("closed"),
    },
    VerifyConfig: {"checks": _list(_expect_str)},
}
_FAMILIES = {KernelConfig: _KERNEL_PARAMS, DensityConfig: _DENSITY_PARAMS}
_REQUIRED = {
    cls: {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    for cls in _BLOCKS
}


def _entry(data: dict, path: str, key: str, read, required):
    """``data[key]`` read by ``read`` (a dataclass reads as a block), or None where the
    key is absent or holds a null block; an absent required key fails."""
    value, block = data.get(key), isinstance(read, type)
    if value is None and (block or key not in data):
        if key in required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return None
    return _block(value, f"{path}.{key}", read) if block else read(value, f"{path}.{key}")


def _block(value, path: str, cls):
    """The ``cls`` read from a JSON object through ``_BLOCKS[cls]``.

    A family block reads its family first, which adds that family's
    parameters as required numbers; then unknown keys fail, before any
    other key is read. A family's parameters fill fields of their own
    names, or the block's ``params``.
    """
    data = _expect_mapping(value, path)
    keys, required = _BLOCKS[cls], _REQUIRED[cls]
    if cls in _FAMILIES:
        params = _FAMILIES[cls][_entry(data, path, "family", keys["family"], required)]
        keys, required = {**keys, **dict.fromkeys(params, _expect_number)}, {*required, *params}
    if not data.keys() <= keys.keys():
        raise ConfigError(f"{path}.{min(data.keys() - keys.keys())}", "unknown key")
    out = {}
    for key, read in keys.items():
        if (v := _entry(data, path, key, read, required)) is not None:
            out[key] = v
    if "params" in required:
        out["params"] = tuple((name, out.pop(name)) for name in params)
    return cls(**out)


def parse_scenario(data: dict) -> ScenarioConfig:
    """Validate a decoded JSON object into a ScenarioConfig."""
    return _block(data, "scenario", ScenarioConfig)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical JSON-ready dict; parse_scenario(scenario_to_dict(c)) == c."""
    return _to_json(cfg)


def _to_json(value):
    """A dataclass as an object of its fields that are not None, with a density's
    ``params`` written beside its family; tuples as lists."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if not is_dataclass(value):
        return value
    out = {}
    for f in fields(value):
        v = getattr(value, f.name)
        if f.name == "params":
            out.update(v)
        elif v is not None:
            out[f.name] = _to_json(v)
    return out
