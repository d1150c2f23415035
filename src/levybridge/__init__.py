"""Terminal-conditioned Levy information processes.

Construct a process from an increment kernel (Brownian, gamma, Poisson), a
horizon, and a terminal law; then evaluate conditional laws, simulate paths,
and price cash flows whose value is revealed at the horizon. Each quantity
has one production route; the independent quadrature and Monte Carlo routes
that check the closed forms live in `checks` and the tests.
"""

from .bridge import BridgeSpec, sample_path, transition_cdf
from .config import ScenarioConfig, parse_scenario, scenario_to_dict
from .core import (
    LRBSpec,
    conditional_moment,
    increment_joint_density,
    posterior_mean_many,
    psi_total,
    psi_total_many,
    rn_derivative,
    reordered_increment_conditional,
    restart,
    terminal_posterior,
)
from .errors import (
    ConfigError,
    DomainError,
    InfiniteMomentError,
    InvalidPinError,
    KernelClassError,
    LevyBridgeError,
    NoRootError,
    NonMonotoneError,
    NumericError,
    UnreachableStateError,
    UnsupportedKernelError,
)
from .kernels import BrownianKernel, GammaKernel, Kernel, PoissonKernel
from .laws import TerminalLaw
from .numerics import DensityComponent, integrate
from .paths import SamplePath
from .pricing import (
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
from .sampler import (
    RandomStream,
    draw_terminal,
    sample_levy_paths,
    simulate_paths,
)

__version__ = "0.1.0"

# the check suite imports scipy.stats and scipy.integrate, so it loads on
# first use of one of its names rather than with the package
_CHECK_NAMES = ("CHECKS", "CheckResult", "run_checks")


def __getattr__(name):
    if name in _CHECK_NAMES:
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BridgeSpec",
    "sample_path",
    "transition_cdf",
    "CHECKS",
    "CheckResult",
    "run_checks",
    "ScenarioConfig",
    "parse_scenario",
    "scenario_to_dict",
    "LRBSpec",
    "conditional_moment",
    "increment_joint_density",
    "posterior_mean_many",
    "psi_total",
    "psi_total_many",
    "rn_derivative",
    "reordered_increment_conditional",
    "restart",
    "terminal_posterior",
    "LevyBridgeError",
    "ConfigError",
    "DomainError",
    "InfiniteMomentError",
    "InvalidPinError",
    "KernelClassError",
    "NoRootError",
    "NonMonotoneError",
    "NumericError",
    "UnreachableStateError",
    "UnsupportedKernelError",
    "Kernel",
    "BrownianKernel",
    "GammaKernel",
    "PoissonKernel",
    "TerminalLaw",
    "DensityComponent",
    "integrate",
    "SamplePath",
    "RateCurve",
    "CallSpec",
    "BinaryBondSpec",
    "ExerciseBoundary",
    "price",
    "price_many",
    "critical_information",
    "call_price",
    "binary_bond_posterior",
    "sde_coefficients",
    "RandomStream",
    "draw_terminal",
    "sample_levy_paths",
    "simulate_paths",
    "__version__",
]
