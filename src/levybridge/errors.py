"""Exception types shared across the package."""


class LevyBridgeError(Exception):
    """Base class for errors raised by this package."""


class DomainError(LevyBridgeError, ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class KernelClassError(LevyBridgeError, TypeError):
    """Density asked of a lattice kernel, or mass of a continuous one."""


class UnsupportedKernelError(LevyBridgeError, TypeError):
    """Operation is not defined for this kernel family."""


class InvalidPinError(LevyBridgeError, ValueError):
    """Bridge endpoint has zero or non-finite transition weight."""


class UnreachableStateError(LevyBridgeError, ValueError):
    """Conditioning state carries no probability mass."""


class InfiniteMomentError(LevyBridgeError, ArithmeticError):
    """Requested moment failed the tail integrability test."""


class NoRootError(LevyBridgeError, ValueError):
    """Bracket endpoints do not straddle a sign change."""


class NonMonotoneError(LevyBridgeError, RuntimeError):
    """Sampled values violate monotonicity the routine relies on."""


class NumericError(LevyBridgeError, RuntimeError):
    """A quadrature or iteration failed to meet its tolerance.

    The ``diagnostics`` attribute carries raw solver output for debugging;
    callers should not need to parse it.
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = {k: _plain(v) for k, v in diagnostics.items()}


def _plain(value):
    """A numpy scalar as the Python number it holds, also inside tuples; else ``value``."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value.item() if getattr(value, "shape", None) == () else value


class ConfigError(LevyBridgeError, ValueError):
    """A scenario file failed validation.

    ``field`` holds a dotted path into the offending entry, e.g.
    ``"terminal_law.density.sigma2"``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
