"""Terminal (horizon) laws: atoms plus an optional density component.

Construction validates the atoms (finite locations, each once, with finite
positive weights, sorted by location) and total mass 1, so every law handed
to the conditional-law machinery is an honest probability measure; the
QUADPACK reference `numerics.integrate` takes a law as its measure. A density
given by the user has its mass summed by the K33 panel rule of
`numerics.density_sums`; the built-in normal, gamma and uniform densities
carry their mass, the ``weight`` they were built with, in closed form, and
posterior laws built by `core` take their masses from the sums that define
them (`TerminalLaw._from_sums`). Each built-in density carries its
normalised quantile function, which the samplers feed uniforms to, and its
log-density in closed form, which the tilted-sum engine reads (gamma and uniform also
as a power at the lower edge plus a smooth rest, normal and uniform as a quadratic in z plus a
constant, `log_quadratic`, which Brownian rows read instead of it at their nodes). Density callables
are built from module-level functions via functools.partial, so laws pickle cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special as _sp

from . import numerics
from .errors import DomainError, NumericError
from .numerics import DensityComponent

__all__ = ["TerminalLaw"]

MASS_TOL = 1e-10


def _normal_logpdf(mu, sigma, weight, z):
    # in place on one temporary (a numpy scalar for a scalar z)
    out = np.asarray(z, dtype=float) - mu
    out *= out
    out *= -0.5 / (sigma * sigma)
    out += math.log(weight / (sigma * math.sqrt(2 * math.pi)))
    return out if np.ndim(out) else float(out)


def _normal_quantile(mu, sigma, u):
    return mu + sigma * _sp.ndtri(u)


def _gamma_rest(scale, c, z):
    out = np.multiply(z, -1.0 / scale)
    out -= c
    return out


def _gamma_logpdf(k, rest, z):
    """k log z + rest(z) for z > 0, else -inf; rest is `_gamma_rest`, -z / scale - c."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(z, out=np.empty(z.shape))
        out *= k
        out += rest(z)
    # one log for every point, then the points off the support (a nan stays nan)
    np.copyto(out, -np.inf, where=z <= 0.0)
    return out if out.ndim else float(out)


def _gamma_quantile(shape, scale, u):
    return scale * _sp.gammaincinv(shape, u)


def _uniform_logpdf(a, b, weight, z):
    z = np.asarray(z, dtype=float)
    out = np.where((z >= a) & (z <= b), math.log(weight / (b - a)), -np.inf)
    return out if out.ndim else float(out)


def _uniform_quantile(a, b, u):
    return a + (b - a) * np.asarray(u, dtype=float)


def _shifted(base, dx, z):
    """A pdf or log-pdf of Z + dx from that of Z."""
    return base(np.asarray(z, dtype=float) - dx)


def _shifted_quantile(base, dx, u):
    return np.asarray(base(u)) + dx


def _checked_atoms(atoms) -> tuple[tuple[float, float], ...]:
    """Atoms as floats sorted by location: finite locations, each once, and finite
    strictly positive weights."""
    atoms = sorted((float(z), float(w)) for z, w in atoms)
    for z, w in atoms:
        if not math.isfinite(z):
            raise DomainError(f"atom location {z} is not finite")
        if not (w > 0.0 and math.isfinite(w)):
            raise DomainError(f"atom weight {w} must be finite and strictly positive")
    if len({z for z, _ in atoms}) != len(atoms):
        raise DomainError("duplicate atom locations")
    return tuple(atoms)


def _check_total(atoms, density_mass: float) -> None:
    total = sum(w for _, w in atoms) + density_mass
    if abs(total - 1.0) > MASS_TOL:
        raise DomainError(f"total mass {total} differs from 1 beyond {MASS_TOL}")


@dataclass(frozen=True)
class TerminalLaw:
    """Probability law of the pinned terminal value.

    ``atoms`` are (location, weight) point masses; ``density`` carries the
    absolutely continuous rest. Weights plus density mass must total 1
    within 1e-10, checked at construction. The constructor sums the
    density's mass with `numerics.density_sums`; the built-in normal, gamma
    and uniform constructors know it in closed form (`_closed_form`).
    There is no way to represent a singular continuous part, on purpose.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density: DensityComponent | None = None
    density_mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = _checked_atoms(self.atoms)
        d_mass = 0.0
        if self.density is not None:
            d_mass = float(numerics.density_sums(self.density, (np.ones_like,))[0])
        _check_total(atoms, d_mass)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density_mass", d_mass)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _closed_form(cls, atoms, density, weight: float) -> "TerminalLaw":
        """A built-in law, whose density has mass ``weight`` (no quadrature)."""
        if not weight > 0.0:
            raise DomainError(f"density weight must be positive, got {weight}")
        atoms = _checked_atoms(atoms)
        _check_total(atoms, float(weight))
        return cls._from_sums(atoms, density, float(weight))

    @classmethod
    def _from_sums(cls, atoms, density, density_mass: float) -> "TerminalLaw":
        """A law from sorted atoms and a density mass computed with them (no quadrature)."""
        atom_mass = sum(w for _, w in atoms)
        if not abs(atom_mass + density_mass - 1.0) <= MASS_TOL:
            raise NumericError(
                "law masses do not total 1", atom_mass=atom_mass, density_mass=density_mass
            )
        law = object.__new__(cls)
        for name, value in (("atoms", atoms), ("density", density), ("density_mass", density_mass)):
            object.__setattr__(law, name, value)
        return law

    @classmethod
    def from_atoms(cls, pairs) -> "TerminalLaw":
        return cls(atoms=tuple((float(z), float(w)) for z, w in pairs))

    @classmethod
    def point(cls, z: float) -> "TerminalLaw":
        return cls.from_atoms([(z, 1.0)])

    @classmethod
    def binary(cls, low: float, high: float, low_prob: float) -> "TerminalLaw":
        if not 0.0 < low_prob < 1.0:
            raise DomainError(f"low_prob must be in (0, 1), got {low_prob}")
        if not low < high:
            raise DomainError("need low < high")
        return cls.from_atoms([(low, low_prob), (high, 1.0 - low_prob)])

    @classmethod
    def normal(cls, mu: float, sigma2: float, *, weight: float = 1.0, atoms=()) -> "TerminalLaw":
        if not (sigma2 > 0 and math.isfinite(mu + sigma2)):
            raise DomainError(f"need a finite mu and a positive finite sigma2, got {mu}, {sigma2}")
        sigma = math.sqrt(sigma2)
        logpdf = partial(_normal_logpdf, mu, sigma, weight)
        comp = DensityComponent(
            pdf=partial(numerics._exp_of, logpdf),
            lower=-math.inf,
            upper=math.inf,
            quantile=partial(_normal_quantile, mu, sigma),
            logpdf=logpdf,
            log_quadratic=(-0.5 / sigma2, mu / sigma2),
        )
        return cls._closed_form(atoms, comp, weight)

    @classmethod
    def gamma(cls, shape: float, scale: float, *, weight: float = 1.0, atoms=()) -> "TerminalLaw":
        if not (shape > 0 and scale > 0 and weight > 0 and math.isfinite(shape + scale)):
            raise DomainError("shape, scale and weight must be positive, shape and scale finite")
        c = _sp.gammaln(shape) + shape * math.log(scale) - math.log(weight)
        rest = partial(_gamma_rest, scale, c)
        logpdf = partial(_gamma_logpdf, shape - 1.0, rest)
        comp = DensityComponent(
            pdf=partial(numerics._exp_of, logpdf),
            lower=0.0,
            upper=math.inf,
            quantile=partial(_gamma_quantile, shape, scale),
            logpdf=logpdf,
            edge_power=shape - 1.0,
            edge_rest=rest,
        )
        return cls._closed_form(atoms, comp, weight)

    @classmethod
    def uniform(cls, a: float, b: float, *, weight: float = 1.0, atoms=()) -> "TerminalLaw":
        if not (a < b and math.isfinite(b - a)):
            raise DomainError(f"need finite a < b, got {a}, {b}")
        logpdf = partial(_uniform_logpdf, a, b, weight)
        comp = DensityComponent(
            pdf=partial(numerics._exp_of, logpdf),
            lower=float(a),
            upper=float(b),
            quantile=partial(_uniform_quantile, a, b),
            logpdf=logpdf,
            edge_power=0.0,
            edge_rest=logpdf,
            log_quadratic=(0.0, 0.0),
        )
        return cls._closed_form(atoms, comp, weight)

    # -- views ---------------------------------------------------------------

    def support(self) -> tuple[float, float]:
        los, his = [], []
        if self.atoms:
            los.append(self.atoms[0][0])
            his.append(self.atoms[-1][0])
        if self.density is not None:
            los.append(self.density.lower)
            his.append(self.density.upper)
        return min(los), max(his)

    def expect(self, fns, *, splits=(), bulk=None) -> np.ndarray:
        """Expectations of each fn in ``fns`` (array in, array out) under the law.

        Atoms are summed exactly and the density goes to
        `numerics.density_sums` with ``splits`` and ``bulk``.
        """
        locs = np.array([z for z, _ in self.atoms])
        weights = np.array([w for _, w in self.atoms])
        out = np.array([float(np.dot(weights, fn(locs))) if locs.size else 0.0 for fn in fns])
        if not np.all(np.isfinite(out)):
            raise NumericError("expectation not finite at the atoms", values=out)
        if self.density is not None:
            out += numerics.density_sums(self.density, fns, splits=splits, bulk=bulk)
        return out

    def mean(self) -> float:
        return float(self.expect((lambda z: z,))[0])

    def translate(self, dx: float) -> "TerminalLaw":
        """The law of Z + dx."""
        if dx == 0.0:
            return self
        atoms = tuple((z + dx, w) for z, w in self.atoms)
        comp = None
        if self.density is not None:
            d = self.density
            comp = DensityComponent(
                pdf=partial(_shifted, d.pdf, dx),
                lower=d.lower + dx,
                upper=d.upper + dx,
                breakpoints=tuple(p + dx for p in d.breakpoints),
                quantile=partial(_shifted_quantile, d.quantile, dx),
                logpdf=partial(_shifted, d.logpdf, dx),
                edge_power=d.edge_power,
                edge_rest=None if d.edge_rest is None else partial(_shifted, d.edge_rest, dx),
            )
        return TerminalLaw._from_sums(atoms, comp, self.density_mass)
