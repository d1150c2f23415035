"""Quadrature over density components and monotone root finding.

Everything downstream (conditional laws, pricing, samplers) funnels its
numerical work through this module so that tolerances live in one place.
A `DensityComponent` is the absolutely continuous part of a law; the atoms
and their checks live in `laws.TerminalLaw`, which `integrate` takes.

The runtime rules are array rules: `density_sums` (double-exponential
quadrature of a density component), `composite_quad_batch` (the engine's
per-row composite Gauss-Kronrod rule, with one fixed stop), `_jacobi_rule`
(Gauss-Jacobi; the engine builds orders 32 and 48), `_ts_map` (the tanh-sinh
map shared by `tabulated_quantiles`, the numerical quantiles of densities on
finite windows, row by row, and the engine's gamma edge rows), `_beta_inverse` (certified
inverse-beta tables) and `solve_brackets` (vectorised bracketing root
finder). A density component's `quantile` is the only way it is drawn from
or has its infinite tails cut. QUADPACK and brentq load only in `integrate`
and `inverse_cdf`, the references of the checks and tests.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce

import numpy as np
from .errors import DomainError, NoRootError, NonMonotoneError, NumericError

__all__ = [
    "DensityComponent",
    "TabulatedQuantile",
    "tabulated_quantiles",
    "integrate",
    "bulk_interval",
    "density_sums",
    "find_root_monotone",
    "sampled_root",
    "solve_brackets",
    "inverse_cdf",
    "composite_quad_batch",
]


# ---------------------------------------------------------------------------
# density components


@dataclass(frozen=True)
class DensityComponent:
    """Absolutely continuous component of a measure.

    Parameters
    ----------
    pdf:
        Density with respect to Lebesgue measure. Must accept floats and
        numpy arrays, and is allowed to integrate to any finite positive
        mass (a component of weight w carries a pdf integrating to w).
    lower, upper:
        Support interval; either end may be infinite. The pdf must vanish
        outside.
    breakpoints:
        Interior points where the pdf is non-smooth; quadrature splits there.
    quantile:
        Inverse of the normalized CDF, ``quantile(u) -> ndarray`` for u in [0, 1]: samplers
        draw with it and infinite tails are cut at it. An infinite end needs one (DomainError
        otherwise); on a finite support it defaults to a `TabulatedQuantile`.
    logpdf:
        Log of ``pdf`` (-inf where it vanishes), which the tilted-sum engine
        reads so that far tails do not underflow. Left out, it is log(pdf).
    edge_power, edge_rest:
        Optional, together: logpdf(z) = edge_power * log(z - lower) + edge_rest(z)
        on the support, edge_rest smooth; a gamma-kernel row then takes one log.
    log_quadratic:
        Optional (c2, c1), finite, c2 <= 0: logpdf(z) - c2 z^2 - c1 z is constant on the support;
        a Brownian-kernel row then reads no logpdf per node (`core._exponent`).
    """

    pdf: Callable
    lower: float
    upper: float
    breakpoints: tuple[float, ...] = ()
    quantile: Callable | None = None
    logpdf: Callable | None = field(default=None, compare=False)
    edge_power: float | None = field(default=None, compare=False)
    edge_rest: Callable | None = field(default=None, compare=False)
    log_quadratic: tuple[float, float] | None = field(default=None, compare=False)
    _intervals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"density support [{self.lower}, {self.upper}] is empty")
        pts = tuple(sorted(p for p in self.breakpoints if self.lower < p < self.upper))
        object.__setattr__(self, "breakpoints", pts)
        declared = self.edge_power is not None
        if declared != (self.edge_rest is not None) or declared and math.isinf(self.lower):
            raise DomainError("an edge declaration needs edge_power, edge_rest and a finite lower")
        c = self.log_quadratic
        if c is not None and not (len(c) == 2 and all(map(math.isfinite, c)) and c[0] <= 0.0):
            raise DomainError(f"log_quadratic needs finite (c2, c1) with c2 <= 0, got {c}")
        if self.logpdf is None:
            object.__setattr__(self, "logpdf", partial(_log_of, self.pdf))
        if self.quantile is None:
            if math.isinf(self.lower) or math.isinf(self.upper):
                raise DomainError("a density with an infinite tail needs a quantile")
            edges = (self.lower, *pts, self.upper)
            object.__setattr__(self, "quantile", TabulatedQuantile(self.logpdf, edges))


def mass_interval(d: DensityComponent, eps: float = 1e-14) -> tuple[float, float]:
    """Finite interval carrying all but ~eps of the component's mass: its finite ends, and its
    `quantile` of eps and 1 - eps at infinite ones, found once per component and eps."""
    if eps not in d._intervals:
        lo = d.lower if math.isfinite(d.lower) else float(d.quantile(eps))
        d._intervals[eps] = lo, d.upper if math.isfinite(d.upper) else float(d.quantile(1.0 - eps))
    return d._intervals[eps]


def _log_of(pdf, z):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(pdf(z), dtype=float))


def _exp_of(logpdf, z):
    """The pdf of a component given by its log-density."""
    out = np.exp(logpdf(z))
    return out if out.ndim else float(out)


def integrate(law, fn: Callable) -> float:
    """Integrate ``fn`` against a `laws.TerminalLaw`.

    Atom contributions are summed exactly; the density part goes through
    adaptive quadrature split at declared breakpoints. Raises NumericError
    (with solver diagnostics attached) instead of returning nan.
    """
    total = 0.0
    for loc, w in law.atoms:
        v = float(fn(loc))
        if not math.isfinite(v):
            raise NumericError(f"integrand not finite at atom {loc}", value=v)
        total += w * v
    d = law.density
    if d is not None:
        edges = [d.lower, *d.breakpoints, d.upper]
        g = lambda z: float(fn(z)) * float(d.pdf(z))
        for a, b in zip(edges[:-1], edges[1:]):
            total += _quad_segment(g, a, b, 1e-10, 1e-9)[0]
    return total


# ---------------------------------------------------------------------------
# double-exponential quadrature of a density component

_BULK_EPS = 0.25  # mass cut from each infinite tail to find a component's bulk
_DE_RANGE = 6.0  # |s| of the outermost node towards a finite end
_DE_TAIL = 4.0  # s of the outermost node towards an infinite end: z ~ 1e18 bulk widths
_DE_LEVELS = range(2, 9)  # node spacing 2^-k in s
_DE_REL_TOL = 1e-12  # error left, relative to the integral of |fn * pdf|


def bulk_interval(d: DensityComponent) -> tuple[float, float]:
    """`mass_interval` at eps 1/4: where `density_sums` cuts a component and
    what its half-lines scale with."""
    return mass_interval(d, _BULK_EPS)


@lru_cache(maxsize=None)
def _de_grid(finite: bool, level: int, odd_only: bool) -> tuple[np.ndarray, ...]:
    """Reference nodes of the double-exponential maps at s = j 2^-level.

    A finite piece [a, b] uses tanh-sinh: (s < 0, distance from the nearer
    end over b - a, dz/ds over b - a), so that nodes crowd into an end
    singularity without rounding onto it. A half-line [a, inf) uses exp-sinh,
    z = a + L r with r = e^(pi/2 sinh s): (r, dr/ds); (-inf, b] mirrors it.
    """
    h = 2.0**-level
    top = _DE_RANGE if finite else _DE_TAIL
    j = np.arange(-_DE_RANGE / h, top / h + 1.0)
    s = (j[j % 2 == 1] if odd_only else j) * h
    u, du = 0.5 * math.pi * np.sinh(s), 0.5 * math.pi * np.cosh(s)
    if finite:
        e = np.exp(-2.0 * np.abs(u))
        out = (s < 0.0, e / (1.0 + e), 2.0 * e / (1.0 + e) ** 2 * du)
    else:
        r = np.exp(u)
        out = (r, r * du)
    for v in out:
        v.setflags(write=False)
    return out


def _de_nodes(a: float, b: float, scale: float, level: int, odd_only: bool):
    """Nodes and weights dz/ds of the piece [a, b]; half-lines scale by ``scale``."""
    if math.isfinite(a) and math.isfinite(b):
        low, frac, wfrac = _de_grid(True, level, odd_only)
        dist = (b - a) * frac
        return np.where(low, a + dist, b - dist), (b - a) * wfrac
    r, wr = _de_grid(False, level, odd_only)
    return (a + scale * r if math.isfinite(a) else b - scale * r), scale * wr


def density_sums(
    d: DensityComponent,
    fns: Sequence[Callable],
    *,
    splits: Sequence[float] = (),
    bulk: tuple[float, float] | None = None,
) -> np.ndarray:
    """Integrals of fn(z) * pdf(z) over the component, one per fn in ``fns``.

    Each fn maps an array of points to an array of values. The support is cut
    at its breakpoints, at ``splits`` (points where an fn is not smooth) and
    at the ends of the bulk, `mass_interval` at eps 1/4 (or ``bulk``); every
    piece is integrated by the double-exponential rule of `_de_grid`, whose
    half-lines scale with the bulk's width. The rule needs no knowledge of an
    end singularity such as z^(a-1): its nodes approach the ends doubly
    exponentially. The spacing in s halves from 1/4 until the change from
    the last level, d_k, or the estimate d_k^2 / d_(k-1) of the error left,
    is within 1e-12 of the integral of |fn * pdf|. A term at the outermost
    node of a piece that is not negligible (an integrand that does not
    decay) raises NumericError rather than returning a truncated sum.
    """
    lo_b, hi_b = bulk_interval(d) if bulk is None else bulk
    cuts = sorted({float(p) for p in (lo_b, hi_b, *d.breakpoints, *splits) if d.lower < p < d.upper})
    edges = [d.lower, *cuts, d.upper]
    pieces = list(zip(edges[:-1], edges[1:]))

    def terms(level: int, odd_only: bool) -> np.ndarray:
        """fn * pdf * dz/ds at the level's nodes, pieces end to end: shape (len(fns), n)."""
        zs, ws, ins = [], [], []
        for a, b in pieces:
            z, w = _de_nodes(a, b, hi_b - lo_b, level, odd_only)
            zs.append(z)
            ws.append(w)
            ins.append((z > a) & (z < b))
        z, w, inside = np.concatenate(zs), np.concatenate(ws), np.concatenate(ins)
        wp = np.zeros(z.size)
        with np.errstate(over="ignore", under="ignore"):
            wp[inside] = w[inside] * np.exp(d.logpdf(z[inside]))
        live = wp > 0.0
        vals = np.zeros((len(fns), z.size))
        for row, fn in zip(vals, fns):
            row[live] = np.asarray(fn(z[live]), dtype=float) * wp[live]
        return vals

    first = terms(_DE_LEVELS[0], False)
    h = 2.0 ** -_DE_LEVELS[0]
    total, size = h * first.sum(axis=1), h * np.abs(first).sum(axis=1)
    sizes = [_de_grid(math.isfinite(a) and math.isfinite(b), _DE_LEVELS[0], False)[1].size
             for a, b in pieces]
    stops = np.cumsum(sizes)
    ends = np.abs(first[:, np.concatenate([stops - sizes, stops - 1])]).max(axis=1)
    change = None
    for level in _DE_LEVELS[1:]:
        new = terms(level, True)
        h = 2.0**-level
        prev_change, prev = change, total
        total = 0.5 * total + h * new.sum(axis=1)
        size = 0.5 * size + h * np.abs(new).sum(axis=1)
        if not np.all(np.isfinite(total)):
            raise NumericError("density sums are not finite", pieces=pieces)
        change = np.abs(total - prev)
        left = change if prev_change is None else np.minimum(
            change, change**2 / np.maximum(prev_change, 1e-300)
        )
        if np.all(left <= _DE_REL_TOL * size):
            if np.any(ends > 1e-15 * size):
                raise NumericError(
                    "integrand does not decay at the ends of the rule", pieces=pieces
                )
            return total
    raise NumericError("double-exponential sums did not converge", pieces=pieces)


# ---------------------------------------------------------------------------
# tabulated quantiles

_Q_PANELS = (64, 128, 256, 512)  # tanh-sinh panels per piece, doubled on uncertified rows
_Q_TOL = 1e-14  # |K33 - G16| of every panel, relative to the mass of its row


def tabulated_quantiles(logpdf: Callable, edges, rows, u) -> np.ndarray:
    """Normalised quantile u[i] of the density of row rows[i], each row's on a finite window.

    Row r of ``edges``, shape (n, pieces + 1) and nondecreasing, holds its window's ends and kinks;
    ``logpdf(z, r)`` is the log-density at z of rows r, an index array that broadcasts against z.
    `TabulatedQuantile` is the one-row case. Each piece is cut into panels of s in [-6, 6] under the
    tanh-sinh map of `density_sums`, which absorbs an end singularity such as (z - a)^(k - 1); a
    piece of zero width carries no mass. The rows of a level share its panels and the map's part in
    s, computed once, which each row scales. A row's level is the first of _Q_PANELS at which each
    of its K33 panel masses is within _Q_TOL of the row's mass of its G16 sum; only the rows not yet
    certified go on to the next. A level finds its panel in the masses summed from the row's nearer
    end, so both tails keep their digits, and bracketed Newton steps in s solve for it, a mass from
    the panel's end being one K33 sum. Rows are summed one by one, so a quantile depends on its row
    and level alone, bit for bit.
    """
    edges = np.asarray(edges, dtype=float)
    return _row_quantiles(logpdf, _row_tables(logpdf, edges), np.asarray(rows), np.asarray(u, float))


class TabulatedQuantile:
    """Normalised quantile of a density on a finite window, tabulated on first call: the one-row case
    of `tabulated_quantiles`. ``edges`` are the window's ends and kinks, or a function returning them."""

    def __init__(self, logpdf: Callable, edges):
        self._logpdf, self._edges = logpdf, edges

    def _row_logpdf(self, z, rows):
        return self._logpdf(z)

    @cached_property
    def _table(self) -> list:
        edges = np.asarray(self._edges() if callable(self._edges) else self._edges, dtype=float)
        return _row_tables(self._row_logpdf, edges[None, :])

    def __call__(self, u):
        shape, u = np.shape(u), np.ravel(np.asarray(u, dtype=float))
        rows = np.zeros(u.size, dtype=np.intp)
        return _row_quantiles(self._row_logpdf, self._table, rows, u).reshape(shape)


def _row_tables(logpdf, edges: np.ndarray) -> list:
    """Per level of _Q_PANELS that certifies rows: (rows, panels, their edges, K33 panel masses
    in piece order, the masses of the first i panels and of the last i)."""
    x, wk, wg = _kronrod_rule()
    tables, todo = [], np.arange(edges.shape[0])
    for panels in _Q_PANELS:
        grid = np.linspace(-_DE_RANGE, _DE_RANGE, panels + 1)
        half = 0.5 * (grid[1] - grid[0])
        s = (0.5 * (grid[1:] + grid[:-1])[:, None] + half * x).ravel()  # every piece's nodes
        part = _ts_part(s)

        def tile(sl):
            r = todo[sl]
            g = _ts_values(logpdf, r[:, None, None], edges[r, :-1, None], edges[r, 1:, None], s, part)[1]
            g = g.reshape(r.size, -1, x.size)  # (rows, pieces x panels, nodes)
            return half * np.stack([np.einsum("rpk,k->rp", g, wk),
                                    np.einsum("rpk,k->rp", g[..., : wg.size], wg)], axis=1)

        sums = _tiled(tile, todo.size, (edges.shape[1] - 1) * s.size)
        mass, gauss = sums[:, 0], sums[:, 1]
        left, right = (np.pad(np.cumsum(m, axis=1), ((0, 0), (1, 0))) for m in (mass, mass[:, ::-1]))
        total = left[:, -1]
        if not np.all(np.isfinite(total) & (total > 0.0)):
            i = todo[np.argmin(np.where(np.isfinite(total), total, -1.0))]
            raise NumericError("no finite positive mass on the window", edges=tuple(edges[i]))
        ok = np.all(np.abs(mass - gauss) <= _Q_TOL * total[:, None], axis=1)
        if np.any(ok):
            tables.append((todo[ok], panels, edges[todo[ok]], mass[ok], left[ok], right[ok]))
        todo = todo[~ok]
        if todo.size == 0:
            return tables
    raise NumericError("quantile table not certified", rows=int(todo.size),
                       edges=tuple(edges[todo[0]]), panels=panels)


def _row_quantiles(logpdf, tables: list, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Quantile u[i] of row rows[i] from the tables of `_row_tables`."""
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise DomainError("quantile levels must lie in [0, 1]")
    (x, wk, _), ulps, out = _kronrod_rule(), 4.0 * np.finfo(float).eps, np.empty(u.size)
    for level_rows, panels, edges, mass, left, right in tables:
        at = np.minimum(np.searchsorted(level_rows, rows), level_rows.size - 1)
        mine = np.flatnonzero(level_rows[at] == rows)
        k, v, n = at[mine], u[mine], mass.shape[1]
        up = v > 0.5
        target = np.where(up, (1.0 - v) * right[k, -1], v * left[k, -1])
        # each level's panel i, and the mass r it takes from the panel's left end (right end if up),
        # found by comparing each draw's row of c with its target, a tile of draws at a time
        j_lo, j_up = (_tiled(lambda sl: (c[k[sl]] <= target[sl, None]).sum(axis=1), k.size, n + 1)
                      .clip(1, n) - 1 for c in (left, right))
        i = np.where(up, n - 1 - j_up, j_lo)
        m = mass[k, i]
        r = np.minimum(target - np.where(up, right[k, j_up], left[k, j_lo]), m)
        piece, cell = np.divmod(i, panels)
        a, b, owner = edges[k, piece], edges[k, piece + 1], level_rows[k]
        grid = np.linspace(-_DE_RANGE, _DE_RANGE, panels + 1)
        s_lo, s_hi, sign = grid[cell], grid[cell + 1], np.where(up, -1.0, 1.0)
        end = np.where(up, s_hi, s_lo)
        # k(s) = (signed mass from end to s) - sign r rises from <= 0 at s_lo to >= 0 at s_hi
        s = end + sign * np.divide(r, m, out=np.zeros(v.size), where=m > 0.0) * (s_hi - s_lo)
        todo = np.flatnonzero(r > 0.0)
        for _ in range(60):
            if todo.size == 0:
                break
            t, e, lo_t, hi_t = s[todo], end[todo], s_lo[todo], s_hi[todo]
            half = 0.5 * (t - e)
            nodes = np.column_stack([e[:, None] + half[:, None] * (1.0 + x), t])
            g = _ts_values(logpdf, owner[todo, None], a[todo, None], b[todo, None], nodes)[1]
            f = half * np.einsum("ik,k->i", g[:, :-1], wk) - sign[todo] * r[todo]
            lo_t, hi_t = np.where(f < 0.0, t, lo_t), np.where(f > 0.0, t, hi_t)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = t - f / g[:, -1]
            s[todo] = new = np.where((new >= lo_t) & (new <= hi_t), new, 0.5 * (lo_t + hi_t))
            s_lo[todo], s_hi[todo] = lo_t, hi_t
            # settled: f is down to the rounding of r, or the step to that of s
            todo = todo[(np.abs(f) > ulps * r[todo]) & (np.abs(new - t) > 1e-14 + ulps * np.abs(t))]
        if todo.size:
            raise NumericError("tabulated quantile did not settle", levels=int(todo.size))
        out[mine] = _ts_values(logpdf, owner, a, b, s)[0]
    return out


def _ts_part(s):
    """The tanh-sinh map's part in s: the distance from the nearer end and log dz/ds, on [0, 1]."""
    u = math.pi * np.abs(np.sinh(s))
    e = np.exp(-u)
    return e / (1.0 + e), np.log(math.pi * np.cosh(s)) - u - 2.0 * np.log1p(e)


def _ts_map(a, b, s, part=None):
    """The tanh-sinh map of [a, b] at s: the distance of z from its nearer end (a where s < 0,
    b elsewhere) and log dz/ds, formed without exp, so that an integrand's log can take it before
    its one exp. Functions of s are taken at the shape of s, or given as its `_ts_part`: windows
    can share one row of s."""
    frac, log_ds = _ts_part(s) if part is None else part
    with np.errstate(divide="ignore"):  # a window of zero width has no point inside
        return (b - a) * frac, np.log(b - a) + log_ds


def _ts_values(logpdf, rows, a, b, s, part=None):
    """z and pdf(z) dz/ds of rows ``rows`` under the tanh-sinh map of [a, b] at s (`_ts_map`), all
    shaped to broadcast together, with ``logpdf(z, rows)``; a point on an end weighs 0."""
    dist, log_dz = _ts_map(a, b, s, part)
    z = np.where(s < 0.0, a + dist, b - dist)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        e = logpdf(z, rows) + log_dz
        g = np.exp(e, out=e)
    g[(z <= a) | (z >= b)] = 0.0
    return z, g


def _quad_segment(g, a, b, abs_tol, rel_tol):
    from scipy.integrate import quad

    out = quad(
        g, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=400, full_output=1
    )
    val, abserr = out[0], out[1]
    if not math.isfinite(val):
        raise NumericError(
            f"quadrature over [{a}, {b}] returned {val}", segment=(a, b)
        )
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if the error estimate still
        # meets the requested budget with some slack.
        if abserr > 50 * max(abs_tol, rel_tol * abs(val)):
            raise NumericError(
                f"quadrature over [{a}, {b}] failed: {out[3]}",
                segment=(a, b),
                estimate=val,
                abserr=abserr,
            )
    return val, abserr


# ---------------------------------------------------------------------------
# root finding


_SOLVER_STEPS = 100  # Chandrupatla steps before a bracket counts as unsettled


def find_root_monotone(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
    samples: int = 17,
) -> float:
    """Root of a monotone function on a bracketing interval.

    ``fn`` maps a point to a value. Its values at ``samples`` evenly spaced
    points from lo to hi go to `sampled_root`: the bracket must straddle a
    sign change (NoRootError otherwise), and the samples must not reveal a
    reversal of direction (NonMonotoneError). The scan is a guard against
    misuse, not a proof of monotonicity.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    fn_many = lambda points: np.array([float(fn(x)) for x in points])
    xs = np.linspace(lo, hi, samples)
    return sampled_root(fn_many, xs, fn_many(xs), tol=tol)[0]


def sampled_root(fn, xs: np.ndarray, vals: np.ndarray, *, tol: float) -> tuple[float, float]:
    """Root of a monotone ``fn`` and the value there, from its values on a grid.

    ``xs`` is increasing and spans the bracket; ``vals`` is fn(xs). An end
    with value 0 is the root. Otherwise the ends must differ in sign and the
    values must be monotone up to 1e-12 of their largest magnitude; the
    adjacent pair that straddles the sign change is polished by
    `solve_brackets`.
    """
    f_lo, f_hi = float(vals[0]), float(vals[-1])
    if f_lo == 0.0:
        return float(xs[0]), 0.0
    if f_hi == 0.0:
        return float(xs[-1]), 0.0
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoRootError(
            f"no sign change on bracket: f({xs[0]})={f_lo}, f({xs[-1]})={f_hi}"
        )
    direction = 1.0 if f_hi > f_lo else -1.0
    slack = 1e-12 * float(np.max(np.abs(vals)))
    if np.any(direction * np.diff(vals) < -slack):
        raise NonMonotoneError(
            f"sampled values on [{xs[0]}, {xs[-1]}] are not monotone; "
            "refusing to treat the root as unique"
        )
    k = int(np.argmax(direction * vals >= 0.0))
    x, fx = solve_brackets(fn, xs[k - 1 : k], xs[k : k + 1], vals[k - 1 : k], vals[k : k + 1], tol=tol)
    return float(x[0]), float(fx[0])


def solve_brackets(fn, a, b, fa, fb, *, tol: float):
    """Roots of ``fn`` in every bracket [a[i], b[i]] at once, by Chandrupatla's method.

    ``fn`` maps an array of points to their values; fa and fb, its values at
    the ends, must differ in sign or be 0. Each step evaluates fn once, at one
    point of every unsettled bracket: inverse quadratic interpolation where
    the last three points make it safe, bisection elsewhere, always at least
    half the tolerance inside the bracket (Chandrupatla, Adv. Eng. Softw. 28
    (1997) 145). A bracket settles when it is narrower than
    tol + 4 eps |x| or a value is 0. Returns the end with the smaller |f| of
    each bracket and fn there.
    """
    x1, x2 = np.array(a, dtype=float), np.array(b, dtype=float)
    f1, f2 = np.array(fa, dtype=float), np.array(fb, dtype=float)
    if np.any(np.sign(f1) * np.sign(f2) > 0.0):
        raise NoRootError("a bracket does not straddle a sign change")
    x3, f3 = x2.copy(), f2.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(f1 / (f1 - f2), 0.1, 0.9)  # a secant step, kept off the ends
    todo = np.nonzero((f1 != 0.0) & (f2 != 0.0))[0]
    for _ in range(_SOLVER_STEPS):
        if todo.size == 0:
            break
        i = todo
        a1, a2, g1, g2 = x1[i], x2[i], f1[i], f2[i]
        x = a1 + t[i] * (a2 - a1)
        f = np.asarray(fn(x), dtype=float)
        if not np.all(np.isfinite(f)):
            raise NumericError("root finder met a non-finite value", points=x[~np.isfinite(f)])
        # the new point replaces the end of its own sign; the end it replaces
        # (or, if that is the newest, the other end) becomes the third point
        same = np.sign(f) == np.sign(g1)
        a3, g3 = np.where(same, a1, a2), np.where(same, g1, g2)
        a2, g2 = np.where(same, a2, a1), np.where(same, g2, g1)
        a1, g1 = x, f
        x1[i], x2[i], x3[i], f1[i], f2[i], f3[i] = a1, a2, a3, g1, g2, g3
        width = np.abs(a2 - a1)
        xtol = tol + 4.0 * np.finfo(float).eps * np.abs(np.where(np.abs(g1) < np.abs(g2), a1, a2))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (a1 - a2) / (a3 - a2), (g1 - g2) / (g3 - g2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            step = (g1 / (g1 - g2) * g3 / (g3 - g2)
                    - (a3 - a1) / (a2 - a1) * g1 / (g3 - g1) * g2 / (g2 - g3))
            edge = 0.5 * xtol / width
        t[i] = np.clip(np.where(iqi, step, 0.5), edge, 1.0 - edge)
        todo = i[(f != 0.0) & (width >= xtol)]
    if todo.size:
        raise NumericError("root finder did not settle", brackets=int(todo.size), steps=_SOLVER_STEPS)
    pick = np.abs(f1) < np.abs(f2)
    return np.where(pick, x1, x2), np.where(pick, f1, f2)


def inverse_cdf(
    pdf: Callable[[float], float],
    lo: float,
    hi: float,
    u: float,
    *,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> float:
    """u-quantile of an unnormalized density on a finite interval.

    Root-finds on the cumulative integral; the kernel-agnostic (and slow)
    correctness baseline for samplers.
    """
    if not (0.0 < u < 1.0):
        raise DomainError(f"u={u} must lie in (0, 1)")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid support [{lo}, {hi}]")
    pts = sorted({float(p) for p in breakpoints if lo < p < hi})
    edges = [lo, *pts, hi]
    cum = [0.0]
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = _quad_segment(pdf, a, b, tol * 1e-2, 1e-12)
        cum.append(cum[-1] + val)
    total = cum[-1]
    if not total > 0:
        raise NumericError("density integrates to zero on the support")
    target = u * total

    def cumulative(y: float) -> float:
        j = max(int(np.searchsorted(edges, y)) - 1, 0)  # the piece that holds y
        val, _ = _quad_segment(pdf, edges[j], y, tol * 1e-2, 1e-12)
        return cum[j] + val - target

    from scipy.optimize import brentq

    return float(brentq(cumulative, lo, hi, xtol=tol, rtol=8.9e-16))


# ---------------------------------------------------------------------------
# Gauss rules


@lru_cache(maxsize=None)
def _jacobi_rule(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for (1 + x)^beta on [-1, 1]: `eigvalsh` nodes (no threaded
    eigh), three Newton steps on the orthonormal recurrence, weights 1 / sum_{k<n}
    p_k(x)^2, all in numpy's long double. With the x87 type that is within 4e-14 of
    a 40-digit rule at n <= 512 (scripts/jacobi_rules.py; eigh gave 1e-11). Cached.
    """
    k = np.arange(1, n, dtype=np.longdouble)
    s = 2.0 * k + beta
    diag = np.concatenate(([np.longdouble(beta) / (beta + 2.0)], beta**2 / (s * (s + 2.0))))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    jm = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jm.astype(float)).astype(np.longdouble)
    b = np.concatenate(([0.0], off, [1.0]))  # the last step leaves p_n unscaled
    for step in range(4):
        # p_0 .. p_n at x with the derivative of p_n, and sum_{k<n} p_k^2
        p0, d0, d1, total = (np.zeros_like(x) for _ in range(4))
        p1 = np.full_like(x, np.sqrt((beta + 1.0) / np.longdouble(2.0) ** (beta + 1.0)))
        for j in range(n):
            total += p1 * p1
            u = x - diag[j]
            p1, p0 = (u * p1 - b[j] * p0) / b[j + 1], p1
            d1, d0 = (p0 + u * d1 - b[j] * d0) / b[j + 1], d1
        if step < 3:
            x -= p1 / d1
    return x.astype(float), (1.0 / total).astype(float)


# The 33-point Gauss-Kronrod extension (K33) of the 16-point Gauss-Legendre
# rule (G16) on [-1, 1], from Laurie's algorithm (Math. Comp. 66 (1997) 1133)
# on the Legendre recurrence, each entry the double nearest its exact value.
# The rule is symmetric, so only the nodes >= 0 are listed. G16 nodes:
# (node, G16 weight, K33 weight); the other K33 nodes: (node, K33 weight).
# tests/test_numerics.py rebuilds both tables in 40-digit arithmetic.
_K33_GAUSS = (
    (0.09501250983763744, 0.1894506104550685, 0.09472840124723005),
    (0.2816035507792589, 0.18260341504492358, 0.09129203282819166),
    (0.45801677765722737, 0.16915651939500254, 0.08459580379259064),
    (0.6178762444026438, 0.14959598881657674, 0.07476982388559955),
    (0.755404408355003, 0.12462897125553388, 0.062358806011834855),
    (0.8656312023878318, 0.09515851168249279, 0.047506215976407015),
    (0.9445750230732326, 0.062253523938647894, 0.031260543647380526),
    (0.9894009349916499, 0.027152459411754096, 0.013257930688091158),
)
_K33_KRONROD = (
    (0.0, 0.0951542160804983),
    (0.18916857901808373, 0.09343867406092123),
    (0.37148378087841627, 0.08833750257911273),
    (0.5404076763521397, 0.08005394126371929),
    (0.6897411066817623, 0.06886299519153125),
    (0.8142402870624444, 0.055205633095422174),
    (0.9091576670123429, 0.039512951202421966),
    (0.9715059509693926, 0.022498859440049444),
    (0.9982392741454446, 0.004742777049247318),
)


@lru_cache(maxsize=None)
def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K33 on [-1, 1]: its nodes, its weights, and the G16 weights of the
    first 16 nodes. The 16 G16 nodes come first, in increasing order, then
    the 17 other nodes. The rule integrates polynomials of degree 49 exactly.
    """
    g, k = np.array(_K33_GAUSS), np.array(_K33_KRONROD)
    x = np.concatenate([-g[::-1, 0], g[:, 0], -k[:0:-1, 0], k[:, 0]])
    wk = np.concatenate([g[::-1, 2], g[:, 2], k[:0:-1, 1], k[:, 1]])
    return x, wk, np.concatenate([g[::-1, 1], g[:, 1]])


# ---------------------------------------------------------------------------
# inverse of the regularised incomplete beta function

_BETA_TOL, _BETA_NOISE = 2e-14, 2.0  # certified error in log x: TOL + NOISE ulps of I via ds/dv
_BETA_GRADE, _BETA_START, _BETA_MAX = 6.0, 256, 4096  # first nodes even in x^(1/6); per half
_BETA_FLOOR = 1e-100  # I and 1 - I at a half's ends, where betainc keeps its digits


def _beta_nodes(p: float, q: float, s: np.ndarray) -> np.ndarray:
    """Rows x = e^s, I_{p,q}(x), 1 - I, ds/dv, d2s/dv2 (v = logit I): with D = x I'(x), dv/ds =
    D / (I (1 - I)) and d log(dv/ds) / ds = p - (q - 1) x / (1 - x) - D / I + D / (1 - I)."""
    from scipy import special

    x = np.exp(s)
    lo = special.betainc(p, q, x)
    hi = 1.0 - lo
    hi[lo > 0.5] = special.betaincc(p, q, x[lo > 0.5])
    dens = np.exp(p * s + (q - 1.0) * np.log1p(-x) - special.betaln(p, q))
    d1 = lo * hi / dens
    d2 = (dens / lo - dens / hi - p + (q - 1.0) * x / (1.0 - x)) * d1 * d1
    return np.array([x, lo, hi, d1, d2])


def _beta_quintic(nodes: np.ndarray, j: np.ndarray):
    """Widths in v of the intervals j and the Hermite coefficients c1..c5 of log(x / x_j) in t."""
    x, lo, hi, d1, d2 = nodes
    w = np.log(lo[j + 1] / hi[j + 1] * (hi[j] / lo[j]))
    f, a0, a1 = np.log(x[j + 1] / x[j]), d1[j] * w, d1[j + 1] * w
    b0, b1 = d2[j] * w**2, d2[j + 1] * w**2
    return w, np.array([a0, b0 / 2, 10 * f - 6 * a0 - 4 * a1 - 1.5 * b0 + b1 / 2,
                        8 * a0 + 7 * a1 + 1.5 * b0 - b1 - 15 * f,
                        6 * f - 3 * (a0 + a1) - (b0 - b1) / 2])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _beta_half(p: float, q: float, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """Node values of u / (1 - u) and rows of `_beta_inverse` for the lower half of I_{p,q}: x
    from where I = _BETA_FLOOR (or the smallest normal double) to 1/2 (or where 1 - I =
    _BETA_FLOOR), graded toward 1/2. An interval whose midpoint s_m comes back off by more than
    _BETA_TOL plus the forward call's resolution gains s_m as a node, up to _BETA_MAX nodes."""
    from scipy import special

    def edge(inside, outside, row):  # bisect for where the row crosses _BETA_FLOOR
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            ok = _beta_nodes(p, q, np.array([mid]))[row, 0] >= _BETA_FLOOR
            inside, outside = (mid, outside) if ok else (inside, mid)
        return inside

    sign, s_hi = (-1.0 if upper else 1.0), math.log(0.5)
    half = _beta_nodes(p, q, np.array([s_hi]))[:, 0]
    if not half[1] >= _BETA_FLOOR:  # no nodes: u = 0 (any u < _BETA_FLOOR) gives 0, u = 1 gives 1
        return np.empty(0), np.array([[1.0, 1.0, 0, 0, 0, 0, 0, 0, upper, sign]]).T
    # the power law I ~ x^p / (p B) places the first node, unless a large q overshoots it
    s_lo = (math.log(_BETA_FLOOR) + math.log(p) + special.betaln(p, q)) / p
    s_lo = min(max(s_lo, math.log(np.finfo(float).tiny)), s_hi - 0.5)
    if not _beta_nodes(p, q, np.array([s_lo]))[1, 0] >= _BETA_FLOOR / 1024:
        s_lo = edge(s_hi, s_lo, 1)
    s_hi = edge(s_lo, s_hi, 2) if half[2] < _BETA_FLOOR else s_hi
    g = _BETA_GRADE
    s = g * np.log(np.linspace(math.exp(s_lo / g), math.exp(s_hi / g), _BETA_START + 1))
    s[0], s[-1] = s_lo, s_hi
    s = np.union1d(s, np.linspace(s_lo, s_hi, 33))  # the far tail, sparse in x^(1/6), too
    nodes, done = _beta_nodes(p, q, s), np.zeros(s.size, bool)  # done: its interval to the right
    while True:
        j = np.flatnonzero(~done[:-1])
        (w, c), mid = _beta_quintic(nodes, j), _beta_nodes(p, q, 0.5 * (s[j] + s[j + 1]))
        t = np.log(mid[1] / mid[2] * (nodes[2, j] / nodes[1, j])) / w
        err = np.abs(t * (c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * c[4]))))
                     - np.log(mid[0] / nodes[0, j]))
        tol = _BETA_TOL + _BETA_NOISE * np.finfo(float).eps * mid[3]
        fail = ~(err <= tol)
        done[j[~fail]] = True
        if not fail.any():
            break
        if s.size + np.sum(fail) > _BETA_MAX:
            i = np.nanargmax(np.where(fail, err / tol, 0.0))
            raise NumericError("inverse beta table not certified", a=p, b=q, nodes=s.size,
                               error=float(err[i]), tolerance=float(tol[i]), x=float(mid[0, i]))
        s = np.concatenate([s, 0.5 * (s[j[fail]] + s[j[fail] + 1])])  # failed midpoints join
        order = np.argsort(s)
        s, nodes = s[order], np.concatenate([nodes, mid[:, fail]], axis=1)[:, order]
        done = np.concatenate([done, np.zeros(np.sum(fail), bool)])[order]
    (x, lo, hi, d1, _), (w, c) = nodes, _beta_quintic(nodes, np.arange(s.size - 1))
    rho = lo / hi if upper else hi / lo
    tail = np.array([[rho[0], sign, d1[0], 0, 0, 0, 0, x[0], upper, sign]]).T  # power law past x[0]
    body = np.vstack([rho[:-1], sign / w, c, x[:-1], np.full((2, w.size), [[upper], [sign]])])
    return 1.0 / rho, np.hstack([tail, body])


@lru_cache(maxsize=1024)
def _beta_table(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints in u / (1 - u) and the rows of `_beta_inverse` for I_{a,b}. Cached: a grid
    asks for its pairs in the same order each call, so one with more steps than the cache holds
    rebuilds every table each call; 1024 tables of 50-100 KB stay near 100 MB."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"beta shapes must be positive and finite, got ({a}, {b})")
    (q_lo, lower), (q_up, upper) = _beta_half(a, b, False), _beta_half(b, a, True)
    q_up = q_up[::-1][1 if q_lo.size and q_up.size else 0:]  # both halves hold x = 1/2
    return np.concatenate([q_lo, q_up]), np.ascontiguousarray(np.hstack([lower, upper[:, ::-1]]))


def _beta_inverse(a: float, b: float, u):
    """x with I_{a,b}(x) = u, elementwise, from a table per (a, b).

    Split at x = 1/2, the lower half tabulates log x against logit I(x), the
    upper half is the lower half of I_{b,a} in log(1 - x). A draw is one
    searchsorted and one quintic Hermite evaluation in its offset from a
    node, log(u / (1 - u) * (1 - I) / I), which keeps its digits in both tails
    as the nodes keep I and 1 - I from their own forward calls. min(x, 1 - x)
    is within 1e-13 relative of the root where its condition number
    |d log x / d log u| is below 100, and within 4 ulps times that number
    beyond; roots below the smallest normal double come out in [0, 2.3e-308].
    That holds for u = 0, u = 1 and u with u and 1 - u at least _BETA_FLOOR;
    the samplers' uniforms are 0 or at least 2^-53. Below the floor nothing is
    certified: x follows the end node's power law, or is 0 where I(1/2) is
    itself below the floor and the lower half has no nodes.
    """
    breaks, rows = _beta_table(float(a), float(b))
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = u / (1.0 - u)
        rho, iw, c1, c2, c3, c4, c5, x0, off, sign = np.take(
            rows, np.searchsorted(breaks, q, side="right"), axis=1)
        t = np.clip(np.log(q * rho) * iw, -1e30, 1e30)  # u = 0 and u = 1 reach the tails finitely
        step = t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5))))
        return off + sign * np.minimum(x0 * np.exp(step), 0.5)


# ---------------------------------------------------------------------------
# per-row composite quadrature (for MC-scale batch evaluation)

_TILE = 1 << 14  # (row, node) entries per tile: the fused passes stay in cache
_QUAD_REL_TOL, _QUAD_PANELS = 1e-11, tuple(4 << k for k in range(9))  # composite_quad_batch


def _tiled(fn, n_rows: int, n_cols: int) -> np.ndarray:
    """fn(rows) over slices of about _TILE / n_cols rows, stacked along axis 0."""
    step = max(1, _TILE // n_cols)
    if n_rows <= step:
        return fn(slice(0, n_rows))
    return np.concatenate([fn(slice(i, i + step)) for i in range(0, n_rows, step)])


@lru_cache(maxsize=None)
def _composite_rule(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_kronrod_rule` on ``panels`` equal panels of [0, 1].

    Returns the nodes, the Kronrod weights and the Gauss weights of the first
    16 * panels nodes: every panel's Gauss nodes come first, in panel order,
    then every panel's Kronrod nodes.
    """
    x, wk, wg = _kronrod_rule()
    g = wg.size
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    centre = 0.5 * (edges[:-1] + edges[1:])[:, None]
    nodes = np.concatenate([(centre + half * x[:g]).ravel(), (centre + half * x[g:]).ravel()])
    wts = np.concatenate([(half * wk[:g]).ravel(), (half * wk[g:]).ravel()])
    return nodes, wts, (half * wg).ravel()


@lru_cache(maxsize=None)
def _moment_rows(n: int, degree: int, beta: float | None = None) -> np.ndarray:
    """Rows x^j w, j <= degree, of a cached rule in its coordinate x in [0, 1]: the composite rule on
    n panels (x^j w_K33, then x^j w_G16 padded with 0), or `_jacobi_rule(n, beta)`, x = (1 + node) / 2."""
    x, *w = _composite_rule(n) if beta is None else _jacobi_rule(n, beta)
    x = x if beta is None else (1.0 + x) / 2.0
    w = np.stack([np.pad(v, (0, x.size - v.size)) for v in w])
    return (w[:, None, :] * x ** np.arange(degree + 1.0)[:, None]).reshape(-1, x.size)


def _power_sums(m: np.ndarray, base, step, powers) -> np.ndarray:
    """Sums of g z^q w for each q in ``powers``, z = base + step x, from the moments m[..., j] =
    sum of g x^j w: the Horner sum in base of C(q, j) step^j m_j over j. ``base`` and ``step`` are
    shaped for m[..., 0]; each pass runs over every row."""
    out = np.empty(m.shape[:-1] + (len(powers),))
    for i, q in enumerate(powers):
        horner = lambda acc, j: acc * base + math.comb(q, j) * step**j * m[..., j]
        out[..., i] = reduce(horner, range(1, q + 1), m[..., 0])
    return out


def composite_quad_batch(fn: Callable, a, b, powers=None) -> np.ndarray:
    """Integrate a batch of smooth integrands, row i over [a[i], b[i]].

    Each level is one reference rule on [0, 1], mapped onto every row's
    interval: P equal panels, each with the 33-point Gauss-Kronrod extension
    (K33) of the 16-point Gauss-Legendre rule (G16), read from the tables
    of `_kronrod_rule`. ``fn(x, rows)`` takes the reference nodes x in [0, 1]
    of the rows in the index array ``rows``, one shared row broadcast to shape
    (len(rows), k); row i's points are z = a[i] + (b[i] - a[i]) x, and the
    rule applies the width. With ``powers`` None, fn returns p integrands,
    shape (len(rows), p, k), and the result is their integrals, shape
    (len(a), p). With ``powers``, fn returns one integrand g, shape
    (len(rows), k), and the result is the integrals of g z^q, shape (len(a),
    len(powers)): g alone at degree max(powers) = 0, else its moments from
    one einsum with the cached rows x^j w (`_moment_rows`), recombined by
    `_power_sums`. The first 16 P columns are the G16 nodes of every panel:
    a row is accepted once its G16 x P sums agree with its K33 x P sums to
    _QUAD_REL_TOL of its largest |K33 sum|, returns the K33 sums and leaves
    the batch; the others go on to the next of _QUAD_PANELS. Rows are summed
    one by one (einsum, never a BLAS product) and reach ``fn`` in tiles of
    about _TILE (row, node) entries, so a row's result depends on its own
    integrand alone, bit for bit, as long as ``fn`` treats rows apart.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ok = a.ndim == 1 and a.size > 0 and a.shape == b.shape
    if not (ok and np.all(np.isfinite(a) & np.isfinite(b) & (a < b))):
        raise DomainError("need finite intervals a[i] < b[i], given as non-empty 1-d arrays")
    width = b - a
    degree = 0 if powers is None else max(powers)
    out, todo = None, np.arange(a.size)
    for panels in _QUAD_PANELS:
        nodes, wk, wg = _composite_rule(panels)
        moments = _moment_rows(panels, degree) if degree else None

        def tile(sl):
            r = todo[sl]
            vals = fn(np.broadcast_to(nodes, (r.size, nodes.size)), r)
            if moments is not None:
                m = np.einsum("rk,jk->rj", vals, moments).reshape(r.size, 2, degree + 1)
                both = _power_sums(m, a[r, None], width[r, None], powers)
            else:
                vals = vals if powers is None else vals[:, None, :]
                # einsum contracts each row on its own, in a fixed order
                both = np.stack([np.einsum("rpk,k->rp", vals, wk),
                                 np.einsum("rpk,k->rp", vals[..., : wg.size], wg)], axis=1)
            both *= width[r, None, None]
            return both

        sums = _tiled(tile, todo.size, nodes.size)
        kron, gauss = sums[:, 0], sums[:, 1]
        if out is None:
            out = np.empty((a.size, kron.shape[1]))
        diff = np.max(np.abs(kron - gauss), axis=1)
        done = diff <= _QUAD_REL_TOL * np.max(np.abs(kron), axis=1)
        out[todo[done]] = kron[done]
        todo = todo[~done]
        if todo.size == 0:
            return out
    raise NumericError("composite quadrature did not stabilize", rows=int(todo.size),
                       interval=(float(a[todo[0]]), float(b[todo[0]])), panels=panels)
