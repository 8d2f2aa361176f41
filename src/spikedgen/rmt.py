"""Random-matrix asymptotics of the linear-activation LAMP operator.

The null operator (no spike) is W^T T W / k with T a shifted GOE (Wigner) or
shifted Marchenko-Pastur matrix (Wishart), so its limiting spectral measure nu
obeys the Silverstein equation

    g_nu(z) = -[ z - alpha Int rho(dt) t / (1 + t g_nu(z)) ]^{-1}

over the base law rho.  The support edge comes from the stationary point of
the explicit inverse g_nu^{-1}(s) = -1/s + alpha Int rho(dt) t/(1+st); the
S-hierarchy of weighted resolvent traces then gives the squared overlap
eps(Delta) of the top LAMP eigenvector with the spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .priors import Wigner, Wishart, gauss_legendre

EDGE_GUARD = 1e-10   # bracket guard; the edge integrand is singular at -1/z1
_DENSITY_PREFIX = 50  # damped Silverstein steps before Newton takes over
_NEWTON_MAX = 50      # Newton steps a density point may take before falling back


def brentq(*args, **kwargs):
    """`scipy.optimize.brentq`, imported at the first call, as `state_evolution.root` is."""
    from scipy.optimize import brentq as scipy_brentq
    return scipy_brentq(*args, **kwargs)


class NegativeSupportError(ValueError):
    """The bulk lies entirely on the negative axis; there is no edge above 0."""


# ---------------------------------------------------------------------------
# base laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseLaw:
    """Limiting law of the shifted data part T; continuous density + optional atom."""

    kind: str                 # "semicircle" or "mp"
    delta: float
    beta: float | None
    center: float             # theta-substitution: t = center + radius cos(theta)
    radius: float
    atom_weight: float = 0.0
    atom_at: float = 0.0

    @property
    def t_min(self) -> float:
        lo = self.center - self.radius
        return min(lo, self.atom_at) if self.atom_weight > 0 else lo

    @property
    def z1(self) -> float:
        """Supremum of the support (the continuous part always ends highest)."""
        return self.center + self.radius

    def density(self, t):
        """Continuous part of the law (the atom, if any, is not included)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "semicircle":
            d = self.delta
            arg = 4.0 - d * (t + 1.0 / d) ** 2
            return np.where(arg > 0, math.sqrt(d) / (2 * math.pi) * np.sqrt(np.maximum(arg, 0)), 0.0)
        # shifted MP: t = beta/(1+Delta) X - beta/Delta with X ~ MP(beta)
        b, d = self.beta, self.delta
        scale = (1.0 + d) / b
        x = scale * t + (1.0 + d) / d
        lam_p = (1.0 + 1.0 / math.sqrt(b)) ** 2
        lam_m = (1.0 - 1.0 / math.sqrt(b)) ** 2
        arg = (lam_p - x) * (x - lam_m)
        dens = np.where((arg > 0) & (x > 0),
                        b / (2 * math.pi) * np.sqrt(np.maximum(arg, 0)) / np.where(x > 0, x, 1.0),
                        0.0)
        return scale * dens

    def integrate(self, f, order: int = 256, rtol: float = 1e-12,
                  atol: float = 1e-11, max_order: int = 2048):
        """Int f(t) rho(dt) with the cos(theta) substitution removing edge roots.

        f may return complex values and may broadcast extra leading axes
        against the trailing node axis.  Orders double until two successive
        values agree within tolerance.
        """
        prev = None
        while True:
            val = self._integrate_once(f, order)
            if prev is not None:
                err = np.max(np.abs(val - prev))
                if err <= max(atol, rtol * np.max(np.abs(val))) or order >= max_order:
                    break
            prev = val
            order *= 2
        if self.atom_weight > 0:
            val = val + self.atom_weight * np.asarray(f(np.array([self.atom_at])))[..., 0]
        return val

    def _integrate_once(self, f, order):
        t, weight = self.nodes(order)
        return np.sum(np.asarray(f(t)) * weight, axis=-1)

    def nodes(self, order: int):
        """Nodes t and weights of the continuous part: Int f rho = sum f(t) weight."""
        u, w = gauss_legendre(order)
        theta, w = 0.5 * math.pi * (u + 1.0), 0.5 * math.pi * w
        t = self.center + self.radius * np.cos(theta)
        if self.kind == "semicircle":
            return t, (2.0 / math.pi) * np.sin(theta) ** 2 * w
        b, d = self.beta, self.delta
        scale = (1.0 + d) / b
        x = scale * t + (1.0 + d) / d
        c1 = scale * self.radius      # MP half-width in X coordinates
        return t, (b / (2 * math.pi)) * c1 ** 2 * np.sin(theta) ** 2 / x * w


def base_law(model: Wigner | Wishart, delta: float,
             beta: float | None = None) -> BaseLaw:
    """Limiting law of the shifted data part of the null LAMP operator."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if isinstance(model, Wigner):
        return BaseLaw(kind="semicircle", delta=delta, beta=None,
                       center=-1.0 / delta, radius=2.0 / math.sqrt(delta))
    b = beta if beta is not None else model.beta
    if b <= 0:
        raise ValueError("beta must be positive")
    lam_p = (1.0 + 1.0 / math.sqrt(b)) ** 2
    lam_m = (1.0 - 1.0 / math.sqrt(b)) ** 2
    scale = b / (1.0 + delta)
    center = scale * 0.5 * (lam_p + lam_m) - b / delta
    radius = scale * 0.5 * (lam_p - lam_m)
    atom = max(0.0, 1.0 - b)
    return BaseLaw(kind="mp", delta=delta, beta=b, center=center,
                   radius=radius, atom_weight=atom, atom_at=-b / delta)


def delta_pos(beta: float) -> float:
    """Noise below which the Wishart bulk is entirely on the negative axis."""
    return beta / (1.0 + 2.0 * math.sqrt(beta))


# ---------------------------------------------------------------------------
# Silverstein inverse and support edge
# ---------------------------------------------------------------------------

def silverstein_g_inverse(base: BaseLaw, alpha: float, s: float) -> float:
    """g_nu^{-1}(s) = -1/s + alpha Int rho(dt) t / (1 + s t), for s < 0."""
    if s >= 0:
        raise ValueError("s must be negative")
    if base.z1 > 0 and s <= -1.0 / base.z1:
        raise ValueError("1 + s t vanishes on the support")
    val = base.integrate(lambda t: t / (1.0 + s * t))
    return -1.0 / s + alpha * float(val)


def g_inverse_prime(base: BaseLaw, alpha: float, s: float) -> float:
    val = base.integrate(lambda t: t * t / (1.0 + s * t) ** 2)
    return 1.0 / s ** 2 - alpha * float(val)


def edge_equation_residual(base: BaseLaw, alpha: float, s: float) -> float:
    """alpha Int rho(dt) (st / (1+st))^2 - 1; zero at s_edge."""
    val = base.integrate(lambda t: (s * t / (1.0 + s * t)) ** 2)
    return alpha * float(val) - 1.0


@dataclass(frozen=True)
class EdgeResult:
    s_edge: float
    lambda_max: float
    z_edge: float
    alpha: float
    base: BaseLaw
    residual: float

    @cached_property
    def edge_coefficient(self) -> float:
        """A in nu(x) ~ A sqrt(z_edge - x) just inside the edge, computed on demand.

        g^{-1} is stationary at s_edge, so z - z_edge = g^{-1}''(s_edge)
        (s - s_edge)^2 / 2 there, with
        g^{-1}''(s) = -2/s^3 + 2 alpha Int rho(dt) t^3 / (1 + st)^3, and
        A = sqrt(2 / |g^{-1}''(s_edge)|) / pi.
        """
        s = self.s_edge
        val = self.base.integrate(lambda t: t ** 3 / (1.0 + s * t) ** 3)
        curvature = -2.0 / s ** 3 + 2.0 * self.alpha * float(val)
        return math.sqrt(2.0 / abs(curvature)) / math.pi


def solve_s_edge(base: BaseLaw, alpha: float) -> EdgeResult:
    """Edge of the bulk: root of the edge equation in (-1/z1, 0).

    The residual is +inf at the left end and -1 at 0-, and is strictly
    decreasing, so bisection cannot miss.  lambda_max applies the max(0, .)
    branch when alpha > 1 (the p x p operator then carries p - k zeros).
    """
    if base.z1 <= 0:
        raise NegativeSupportError(
            f"support supremum z1 = {base.z1:.6g} <= 0; bulk is on the negative axis")
    lo = -1.0 / base.z1 * (1.0 - EDGE_GUARD)
    hi = -EDGE_GUARD
    f = lambda s: edge_equation_residual(base, alpha, s)
    try:
        s_edge = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    except ValueError:
        # no sign change: alpha so large that the root lies inside the guard
        raise RuntimeError(f"edge equation has no root in [{lo:.3g}, {hi:.3g}] "
                           f"at alpha = {alpha:.6g}") from None
    z_edge = silverstein_g_inverse(base, alpha, s_edge)
    lam = z_edge if alpha <= 1 else max(0.0, z_edge)
    return EdgeResult(s_edge=float(s_edge), lambda_max=float(lam),
                      z_edge=float(z_edge), alpha=alpha, base=base,
                      residual=float(f(s_edge)))


# ---------------------------------------------------------------------------
# Stieltjes transform outside the bulk, and the bulk density
# ---------------------------------------------------------------------------

def g_nu_at(base: BaseLaw, alpha: float, lam: float) -> tuple[float, float]:
    """(g_nu(lam), d/dlam g_nu(lam)) for lam above the bulk, by inverting g^{-1}."""
    if base.z1 > 0:
        edge = solve_s_edge(base, alpha)
        if lam <= edge.z_edge:
            raise ValueError(f"lambda = {lam} is not above the bulk edge {edge.z_edge}")
        lo = edge.s_edge * (1.0 - 1e-13)
    else:
        if lam <= 0:
            raise ValueError("need lambda > 0 when the bulk is on the negative axis")
        lo = -1.0
        while silverstein_g_inverse(base, alpha, lo) > lam:
            lo *= 2.0
            if lo < -1e14:
                raise RuntimeError("bracket expansion failed")
    hi = -1e-14
    f = lambda s: silverstein_g_inverse(base, alpha, s) - lam
    s = brentq(f, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=300)
    return float(s), 1.0 / g_inverse_prime(base, alpha, s)


@dataclass
class BulkDensity:
    x: np.ndarray
    nu: np.ndarray            # density of the k x k law (Silverstein measure)
    mu: np.ndarray            # continuous density of the p x p LAMP law
    mu_zero_atom: float       # extra mass at 0 when alpha > 1
    converged: np.ndarray
    iterations: np.ndarray


def bulk_density(base: BaseLaw, alpha: float, x_grid, epsilon: float = 1e-6,
                 damping: float = 0.5, max_iter: int = 10000,
                 tol: float = 1e-11, order: int = 256) -> BulkDensity:
    """Density via Im g_nu(x + i eps)/pi, solving the Silverstein equation.

    From g = i, at most _DENSITY_PREFIX damped steps
    g <- (1-d) (-1/(z - alpha I(g))) + d g, each point stopping once it moves
    less than tol.  Points still moving then take Newton steps on
    F(g) = g (z - alpha I(g)) + 1, with I'(g) from the same nodes; the damped
    map crawls next to the spectral edge, Newton does not.  A point whose
    Newton iterate leaves the upper half-plane (the Stieltjes branch), or
    that Newton does not settle, resumes damping from its prefix state for
    the rest of max_iter.  Convergence is judged by the equation residual and
    unconverged points are flagged; `iterations` counts damped and Newton
    steps.
    """
    x = np.asarray(x_grid, dtype=float)
    z = x.ravel() + 1j * epsilon     # points are solved flat, reshaped at the end
    g = np.full(x.size, 1j, dtype=complex)
    iters = np.zeros(x.size, dtype=int)
    t, weight = base.nodes(order)

    def i1(gv):
        out = np.sum(t * weight / (1.0 + np.multiply.outer(gv, t)), axis=-1)
        if base.atom_weight > 0:
            out = out + base.atom_weight * base.atom_at / (1.0 + gv * base.atom_at)
        return out

    def i1_prime(gv):
        out = -np.sum(t * t * weight / (1.0 + np.multiply.outer(gv, t)) ** 2, axis=-1)
        if base.atom_weight > 0:
            out = out - base.atom_weight * base.atom_at ** 2 / (1.0 + gv * base.atom_at) ** 2
        return out

    def damp(active, steps):
        """Damped steps on g[active]; returns the points still moving."""
        for _ in range(steps):
            if active.size == 0:
                break
            ga = g[active]
            gnew = -1.0 / (z[active] - alpha * i1(ga))
            gnew = (1.0 - damping) * gnew + damping * ga
            g[active] = gnew
            iters[active] += 1
            active = active[np.abs(gnew - ga) >= tol]
        return active

    prefix = min(_DENSITY_PREFIX, max_iter)
    moving = damp(np.arange(x.size), prefix)
    gn = g[moving]
    settled = np.zeros(moving.size, dtype=bool)
    live = np.arange(moving.size)
    for _ in range(_NEWTON_MAX):
        if live.size == 0:
            break
        gl, zl = gn[live], z[moving[live]]
        ig = i1(gl)
        step = (gl * (zl - alpha * ig) + 1.0) / (zl - alpha * ig - alpha * gl * i1_prime(gl))
        new = gl - step
        iters[moving[live]] += 1
        stay = new.imag >= 0          # False for nan too
        gn[live[stay]] = new[stay]
        settled[live[stay]] = np.abs(step[stay]) < tol
        live = live[stay & ~settled[live]]
    g[moving[settled]] = gn[settled]
    damp(moving[~settled], max_iter - prefix)
    z, g, iters = z.reshape(x.shape), g.reshape(x.shape), iters.reshape(x.shape)
    # a small damped step does not imply a solution (the map crawls near
    # spectral atoms), so convergence is judged by the equation residual
    residual = np.abs(1.0 + g * (z - alpha * i1(g)))
    converged = residual < 1e-7 * (1.0 + np.abs(g) ** 2)
    nu = np.maximum(g.imag / math.pi, 0.0)
    if alpha < 1:
        # the k x k law carries a (1 - alpha) atom at zero; remove its
        # eps-Lorentzian so nu reports the continuous part
        nu = np.maximum(nu - (1 - alpha) * epsilon / (math.pi * (x * x + epsilon ** 2)),
                        0.0)
    mu = nu / alpha
    atom = max(0.0, 1.0 - 1.0 / alpha)
    return BulkDensity(x=x, nu=nu, mu=mu, mu_zero_atom=atom,
                       converged=converged, iterations=iters)


# ---------------------------------------------------------------------------
# the S-hierarchy and the eigenvector overlap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SHierarchy:
    at: float
    g: float
    dg: float
    s0: float
    s1: float
    s2: float
    s3: float
    s11: float
    s12: float
    ds1: float


def s_hierarchy(base: BaseLaw, alpha: float, lam: float) -> SHierarchy:
    """Limits of (1/k) Tr resolvent powers against (W^T W / k)^r at lam > lambda_max."""
    g, dg = g_nu_at(base, alpha, lam)
    u = 1.0 + lam * g
    s0 = g
    s1 = g * (alpha - u)
    s2 = g * (alpha * (1 + alpha) - (1 + 2 * alpha) * u + u ** 2)
    s3 = g * ((alpha + 3 * alpha ** 2 + alpha ** 3)
              - (1 + 5 * alpha + 3 * alpha ** 2) * u
              + (2 + 3 * alpha) * u ** 2 - u ** 3)
    ds1 = dg * (alpha - u) - g * (g + lam * dg)
    i_tt = float(base.integrate(lambda t: t * t / (1.0 + g * t) ** 2))
    i_t2 = float(base.integrate(lambda t: t / (1.0 + g * t) ** 2))
    jint = ds1 * i_tt - g * i_t2
    s11 = g * s2 - u * ds1 + alpha * g * (g + s1) * jint
    s12 = (g * s3 - u * (s11 + (1 + alpha) * ds1)
           + alpha * g * ((1 + alpha) * g + s1 + s2) * jint)
    return SHierarchy(at=lam, g=g, dg=dg, s0=s0, s1=s1, s2=s2, s3=s3,
                      s11=s11, s12=s12, ds1=ds1)


def epsilon_overlap(alpha: float, delta: float) -> float:
    """Asymptotic squared correlation of the top LAMP eigenvector (linear Wigner).

    eps = (1/alpha) [S2(1)]^2 / S12(1) with S2(1) = -alpha Delta below the
    transition; identically zero for Delta >= Delta_c = 1 + alpha.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if delta >= 1.0 + alpha:
        return 0.0
    base = base_law(Wigner(), delta)
    h = s_hierarchy(base, alpha, 1.0)
    return float(alpha * delta ** 2 / h.s12)

