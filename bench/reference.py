"""Reference values computed apart from levybridge.

Everything here uses numpy and scipy only. The closed forms are those of a
Levy random bridge whose terminal law is conjugate to its kernel:

* Brownian kernel, terminal law = atoms plus a normal density. Given X_T = z
  the state xi_t is N(t z / T, t (T - t) / T), so the marginal of xi_t is a
  normal mixture, psi is that mixture's density over the N(0, t) density,
  and the posterior of X_T is a mixture of the atoms and one normal
  (Gaussian algebra).
* Gamma kernel of rate m, terminal law Gamma(shape m T, scale kappa): the
  process is a gamma process of scale kappa, so xi_t ~ Gamma(m t, kappa),
  psi = kappa^(-m t) exp((1 - 1/kappa) xi) and E[X_T | xi] = xi + m (T - t) kappa.
* Poisson kernel, atomic terminal law: given X_T = z the state is
  Binomial(z, t / T), so xi_t is a binomial mixture.

Option thresholds are roots of these closed forms, and call prices are
quadratures of (P(t, xi) - K)^+ against the closed-form law of xi_t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate as _integrate
from scipy import optimize as _optimize
from scipy import special as _special

_LOG_2PI = math.log(2.0 * math.pi)


def _log_normal_pdf(x, mu, var):
    x = np.asarray(x, dtype=float)
    return -0.5 * (x - mu) ** 2 / var - 0.5 * (_LOG_2PI + math.log(var))


class BrownianLaw:
    """Brownian-kernel bridge with atoms plus at most one normal density.

    ``atoms`` are (z, w) pairs; ``normal`` is (weight, mu, sigma2) or None.
    """

    def __init__(self, horizon, atoms=(), normal=None):
        self.T = float(horizon)
        self.atoms = tuple((float(z), float(w)) for z, w in atoms)
        self.normal = normal

    def _components(self, t):
        """(log weight, mean, variance) of each normal component of xi_t."""
        T = self.T
        v = t * (T - t) / T
        comps = [(math.log(w), t * z / T, v) for z, w in self.atoms]
        if self.normal is not None:
            w, mu, s2 = self.normal
            comps.append((math.log(w), t * mu / T, t * t * s2 / (T * T) + v))
        return comps

    def _log_parts(self, t, xi):
        return np.stack([lw + _log_normal_pdf(xi, m, v) for lw, m, v in self._components(t)])

    def psi(self, t, xi):
        parts = self._log_parts(t, xi)
        return np.exp(np.logaddexp.reduce(parts, axis=0) - _log_normal_pdf(xi, 0.0, t))

    def mean(self, t, xi):
        """E[X_T | xi_t = xi]."""
        xi = np.asarray(xi, dtype=float)
        parts = self._log_parts(t, xi)
        post = np.exp(parts - np.logaddexp.reduce(parts, axis=0))
        means = [np.full(xi.shape, z) for z, _ in self.atoms]
        if self.normal is not None:
            _, mu, s2 = self.normal
            T = self.T
            prec = 1.0 / s2 + t / (T * (T - t))
            means.append((mu / s2 + xi / (T - t)) / prec)
        return np.sum(post * np.stack(means), axis=0)

    def marginal_moments(self, t):
        """Mean and variance of xi_t, horizon included."""
        if t >= self.T:
            comps = [(w, z, 0.0) for z, w in self.atoms]
            if self.normal is not None:
                comps.append(self.normal)
        else:
            comps = [(math.exp(lw), m, v) for lw, m, v in self._components(t)]
        mean = sum(w * m for w, m, _ in comps)
        return mean, sum(w * (v + m * m) for w, m, v in comps) - mean * mean

    def marginal_pdf(self, t, xi):
        if t >= self.T:
            raise ValueError("the law at the horizon has atoms; use marginal_cdf")
        return np.exp(np.logaddexp.reduce(self._log_parts(t, xi), axis=0))

    def marginal_cdf(self, t, x, left=False):
        """P[xi_t <= x] (P[xi_t < x] with ``left``), horizon included."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        if t >= self.T:
            for z, w in self.atoms:
                out += w * ((x > z) if left else (x >= z))
            if self.normal is not None:
                w, mu, s2 = self.normal
                out += w * _special.ndtr((x - mu) / math.sqrt(s2))
            return out
        for lw, m, v in self._components(t):
            out += math.exp(lw) * _special.ndtr((x - m) / math.sqrt(v))
        return out


class GammaLaw:
    """Gamma kernel of rate m with terminal law Gamma(m T, kappa)."""

    def __init__(self, m, horizon, kappa):
        self.m, self.T, self.kappa = float(m), float(horizon), float(kappa)

    def psi(self, t, xi):
        xi = np.asarray(xi, dtype=float)
        k = self.kappa
        return np.exp(-self.m * t * math.log(k) + (1.0 - 1.0 / k) * xi)

    def mean(self, t, xi):
        return np.asarray(xi, dtype=float) + self.m * (self.T - t) * self.kappa

    def marginal_pdf(self, t, xi):
        a, k = self.m * t, self.kappa
        xi = np.asarray(xi, dtype=float)
        with np.errstate(divide="ignore"):
            logp = (a - 1.0) * np.log(xi / k) - xi / k - _special.gammaln(a) - math.log(k)
        return np.where(xi > 0, np.exp(logp), 0.0)

    def marginal_cdf(self, t, x, left=False):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return _special.gammainc(self.m * t, x / self.kappa)

    def marginal_quantile(self, t, u):
        return float(_special.gammaincinv(self.m * t, u) * self.kappa)


class PoissonLaw:
    """Poisson kernel with an atomic terminal law on the integers."""

    def __init__(self, horizon, atoms):
        self.T = float(horizon)
        self.atoms = tuple((int(z), float(w)) for z, w in atoms)

    def marginal_cdf(self, t, x, left=False):
        x = np.asarray(x, dtype=float)
        k = np.ceil(x) - 1.0 if left else np.floor(x)
        out = np.zeros(x.shape)
        p = min(t / self.T, 1.0)
        for z, w in self.atoms:
            out += w * np.where(k < 0, 0.0, _special.bdtr(np.clip(k, 0, z), z, p))
        return out


# ---------------------------------------------------------------------------
# options


def threshold(law, t, strike, df_tT, bracket):
    """xi* with df_tT * E[X_T | xi*] = strike, by Brent on the closed form."""
    g = lambda x: df_tT * float(law.mean(t, x)) - strike
    return _optimize.brentq(g, *bracket, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def call_price(law, t, strike, df_0t, df_tT, xi_star, upper):
    """df_0t * E[(df_tT * E[X_T | xi_t] - strike)^+] over the law of xi_t.

    The integrand vanishes below ``xi_star``; ``upper`` is a point past which
    the marginal density is negligible (the tail beyond it is added by a
    second, infinite-range quadrature).
    """

    def f(x):
        return (df_tT * float(law.mean(t, x)) - strike) * float(law.marginal_pdf(t, x))

    body, _ = _integrate.quad(f, xi_star, upper, epsabs=0.0, epsrel=1e-13, limit=500)
    tail, _ = _integrate.quad(f, upper, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
    return df_0t * (body + tail)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def ks_statistic(sample, cdf, cdf_left=None):
    """One-sample KS distance, exact for laws with atoms.

    ``cdf_left`` gives P[X < x]; it defaults to ``cdf`` (continuous laws).
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    upper = np.asarray(cdf(x), dtype=float)
    lower = upper if cdf_left is None else np.asarray(cdf_left(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - upper), np.max(lower - (i - 1) / n)))


def ks_critical(n, alpha):
    """Asymptotic one-sample KS critical value; conservative for atoms."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def moment_z_scores(sample, mean, var):
    """z-scores of the sample mean and the sample variance against the law's.

    The variance's standard error is estimated from the sample's fourth
    central moment, so the score is asymptotically normal for any law with
    four moments.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    dev = x - x.mean()
    s2 = float(np.mean(dev**2))
    m4 = float(np.mean(dev**4))
    z_mean = (float(x.mean()) - mean) / math.sqrt(var / n)
    z_var = (s2 - var) / math.sqrt(max(m4 - s2 * s2, 1e-300) / n)
    return z_mean, z_var


def z_critical(alpha):
    """Two-sided normal critical value at significance ``alpha``."""
    return float(-_special.ndtri(alpha / 2.0))
