"""Random-matrix asymptotics of the linear-activation LAMP operator.

The null operator (no spike) is W^T T W / k with T a shifted GOE (Wigner) or
shifted Marchenko-Pastur matrix (Wishart), so its limiting spectral measure nu
obeys the Silverstein equation

    g_nu(z) = -[ z - alpha Int rho(dt) t / (1 + t g_nu(z)) ]^{-1}

over the base law rho.  The support edge comes from the stationary point of
the explicit inverse g_nu^{-1}(s) = -1/s + alpha Int rho(dt) t/(1+st); the
S-hierarchy of weighted resolvent traces then gives the squared overlap
eps(Delta) of the top LAMP eigenvector with the spike.

Every integral against rho is closed-form in rho's Stieltjes transform, a quadratic
root (Silverstein & Bai, J. Multivariate Anal. 1995); the Silverstein equation is a quartic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .priors import Wigner, Wishart, gauss_legendre

EDGE_GUARD = 1e-10   # bracket guard; the edge integrand is singular at -1/z1
ROOT_TOL = 1e-9      # largest relative Silverstein residual of an accepted root
DENSITY_POINT_BYTES = 1024   # bulk_density's peak per grid point (968 by tracemalloc)


def brentq(*args, **kwargs):
    """`scipy.optimize.brentq`, imported at the first call, as `state_evolution.root` is."""
    from scipy.optimize import brentq as scipy_brentq
    return scipy_brentq(*args, **kwargs)


class NegativeSupportError(ValueError):
    """The bulk lies entirely on the negative axis; there is no edge above 0."""


# ---------------------------------------------------------------------------
# base laws
# ---------------------------------------------------------------------------

# Int f(t) rho(dt) at one s for f = t/(1+st), t^2/(1+st)^2, t^3/(1+st)^3, t/(1+st)^2
Transforms = namedtuple("Transforms", "t tt ttt t_sq")


@dataclass(frozen=True)
class BaseLaw:
    """Limiting law of the shifted data part T; continuous density + optional atom.

    G(z) = Int rho(dt)/(z - t) inverts as z = 1/G + R(G), R(h) = mean + var h/(1 - ratio h),
    with var = radius^2/4 and mean = center - ratio.
    """

    kind: str                 # "semicircle" or "mp"
    delta: float
    beta: float | None
    center: float             # theta-substitution: t = center + radius cos(theta)
    radius: float
    atom_weight: float = 0.0
    atom_at: float = 0.0
    ratio: float = 0.0        # of successive free cumulants: 1/(1 + Delta) for MP

    @property
    def t_min(self) -> float:
        lo = self.center - self.radius
        return min(lo, self.atom_at) if self.atom_weight > 0 else lo

    @property
    def z1(self) -> float:
        """Supremum of the support (the continuous part always ends highest)."""
        return self.center + self.radius

    def _branch_root(self, z):
        """sqrt((z - t_lo)(z - t_hi)) over the continuous support, ~ z at infinity."""
        u = np.asarray(z, dtype=complex) - self.center
        return np.sqrt(u - self.radius) * np.sqrt(u + self.radius)

    def stieltjes(self, z):
        """(G(z), G'(z)) off the support, the atom included: G = 2/(B + root) solves
        A G^2 - B G + 1 = 0, A = var + ratio (z - mean), B = z - mean + ratio, root =
        `_branch_root`; as (B + root)(B - root) = 4A, B + root is 4A/(B - root) at the atom.
        """
        b, root = self.ratio, self._branch_root(z)
        big = z - self.center + 2 * b          # B
        a = (self.radius / 2) ** 2 + b * (z - self.center + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            plus = np.where(abs(big + root) >= abs(big - root), big + root,
                            4 * a / (big - root))
        g = 2 / plus
        return g, -g * (1 - b * g) / root

    def r_transform(self, h):
        """(R(h), R'(h), R''(h)); z = 1/h + R(h) inverts h = G(z)."""
        b, var = self.ratio, (self.radius / 2) ** 2
        q = 1 / (1 - b * h)
        return self.center - b + var * h * q, var * q * q, 2 * b * var * q ** 3

    def transforms(self, s: float) -> Transforms:
        """The `Transforms` at real s != 0 with 1 + st > 0 on the support.

        With h = G(-1/s), D = 1 + h R(h), N = 1 - h^2 R'(h) = -h^2/G': Int t/(1+st) = R D,
        the rest its s-derivatives by dh/ds = -D^2/N.  No term cancels as s -> 0 (h ~ -s).
        """
        h, dh = self.stieltjes(-1.0 / s)
        r0, r1, r2 = self.r_transform(h)
        d, n = -h / s, -h * h / dh
        dd = r0 + h * r1                                   # dD/dh
        phi1 = r0 * r0 + r1 * (1 + 2 * h * r0)             # d(R D)/dh
        phi2 = 4 * r0 * r1 + 2 * h * r1 * r1 + r2 * (1 + 2 * h * r0)
        psi1 = ((phi2 * d * d + 2 * phi1 * d * dd) / n           # d(phi1 D^2/N)/dh
                + phi1 * d * d * (2 * h * r1 + h * h * r2) / n ** 2)
        return Transforms(*(float(v.real) for v in (r0 * d, phi1 * d * d / n,
                                                    psi1 * d * d / (2 * n), dd * d * d / n)))

    def integrate(self, f, order: int = 256, rtol: float = 1e-12,
                  atol: float = 1e-11, max_order: int = 2048):
        """Int f(t) rho(dt) with the cos(theta) substitution removing edge roots.

        The Gauss-Legendre reference of the tests; no solver calls it.  f may
        return complex values and broadcast leading axes against the node
        axis.  Orders double until two successive values agree.
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
    return BaseLaw(kind="mp", delta=delta, beta=b, center=center, radius=radius,
                   atom_weight=atom, atom_at=-b / delta, ratio=1.0 / (1.0 + delta))


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
    return -1.0 / s + alpha * base.transforms(s).t


def g_inverse_prime(base: BaseLaw, alpha: float, s: float) -> float:
    return 1.0 / s ** 2 - alpha * base.transforms(s).tt


def edge_equation_residual(base: BaseLaw, alpha: float, s: float) -> float:
    """alpha Int rho(dt) (st / (1+st))^2 - 1; zero at s_edge."""
    return alpha * s * s * base.transforms(s).tt - 1.0


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
        curvature = -2.0 / s ** 3 + 2.0 * self.alpha * self.base.transforms(s).ttt
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
    s_edge = _edge_root(base, alpha, -1.0 / base.z1 * (1.0 - EDGE_GUARD), -EDGE_GUARD)
    z_edge = silverstein_g_inverse(base, alpha, s_edge)
    lam = z_edge if alpha <= 1 else max(0.0, z_edge)
    return EdgeResult(s_edge=float(s_edge), lambda_max=float(lam),
                      z_edge=float(z_edge), alpha=alpha, base=base,
                      residual=float(edge_equation_residual(base, alpha, s_edge)))


def _edge_root(base: BaseLaw, alpha: float, lo: float, hi: float) -> float:
    try:
        return brentq(lambda s: edge_equation_residual(base, alpha, s), lo, hi,
                      xtol=1e-15, rtol=8.9e-16, maxiter=300)
    except ValueError:
        # no sign change: alpha so large (small, for the lower edge) that the
        # root lies inside the guard
        raise RuntimeError(f"edge equation has no root in [{lo:.3g}, {hi:.3g}] "
                           f"at alpha = {alpha:.6g}") from None


def lower_edge(base: BaseLaw, alpha: float) -> float:
    """Lowest point of the bulk: g^{-1} at the root of the edge equation in (0, -1/t_min).

    Every base law has t_min < 0.  There the residual rises strictly from -1
    at 0+ to +inf at -1/t_min, where 1 + st vanishes at the bottom of the
    support, so bisection cannot miss.
    """
    s = _edge_root(base, alpha, EDGE_GUARD, -1.0 / base.t_min * (1.0 - EDGE_GUARD))
    return float(-1.0 / s + alpha * base.transforms(s).t)


# ---------------------------------------------------------------------------
# the Silverstein equation as a quartic, and the bulk density
# ---------------------------------------------------------------------------

def _silverstein_roots(base: BaseLaw, alpha: float, z):
    """(gc, accepted) for the 4 roots at each real z, arrays (z.size, 4).

    With w = -1/g = 1/h + R(h), h = G(w), the equation is z = w (1 + alpha h R(h)), a
    quartic in h.  gc = -k h/(1 + k h R), k = min(alpha, 1), is g less the atom's
    (1 - alpha)/z pole.  A root is accepted when k + z gc + alpha h R = 0 (no spurious w = 0
    at z = 0) to ROOT_TOL, and h is on G's principal sheet at w: its root 2/h - B is
    nearer `_branch_root(w)` than the negative.
    """
    b, var, mean = base.ratio, (base.radius / 2) ** 2, base.center - base.ratio
    z = np.asarray(z, dtype=float).reshape(-1, 1)
    # (Q + hP)(Q + alpha hP) - z h Q^2, Q = 1 - b h, P = mean + (var - mean b) h
    coef = (np.polynomial.polynomial.polymul([1.0, mean - b, var - mean * b],
                                             [1.0, alpha * mean - b, alpha * (var - mean * b)])
            - z * np.array([0.0, 1.0, -2 * b, b * b, 0.0]))
    companion = np.zeros((z.size, 4, 4))
    companion[:, 1:, :-1] = np.eye(3)
    companion[:, :, -1] = -coef[:, :4] / coef[:, 4:]
    h = np.linalg.eigvals(companion)
    r = base.r_transform(h)[0]
    k = min(alpha, 1.0)
    d1, da = 1 + h * r, 1 + alpha * h * r          # h w and z / w: w from the larger
    with np.errstate(divide="ignore", invalid="ignore"):   # only at z = 0 exactly
        gc = -k * h / (1 + k * h * r)
        resid = abs(k + z * gc + alpha * h * r) / (k + abs(z * gc) + alpha * abs(h * r))
        w = np.where(abs(d1) >= abs(da), d1 / h, z / da)
    root = 1 / h - b - var * h / (1 - b * h)
    principal = base._branch_root(w.real + 1j * abs(w.imag))
    on_sheet = abs(root - principal) <= abs(root + principal)
    return gc, on_sheet & (resid <= ROOT_TOL)


def g_nu_at(base: BaseLaw, alpha: float, lam: float) -> tuple[float, float]:
    """(g_nu(lam), d/dlam g_nu(lam)) for lam above the bulk: the largest real negative
    root (others lie below s_edge), polished by a Newton step on g^{-1}(s) = lam."""
    # a bulk on the negative axis is handled above 0 only
    bound = solve_s_edge(base, alpha).z_edge if base.z1 > 0 else 0.0
    if lam <= bound:
        raise ValueError(f"lambda = {lam} is not above the bulk edge {bound}")
    gc, ok = _silverstein_roots(base, alpha, lam)
    g = gc - max(0.0, 1.0 - alpha) / lam
    real = g[ok & (g.imag == 0) & (g.real < 0)].real
    if real.size == 0:
        raise RuntimeError(f"no real Silverstein root at lambda = {lam}")
    s = real.max()
    s -= (silverstein_g_inverse(base, alpha, s) - lam) / g_inverse_prime(base, alpha, s)
    return float(s), 1.0 / g_inverse_prime(base, alpha, s)


@dataclass
class BulkDensity:
    x: np.ndarray
    nu: np.ndarray            # continuous density of the k x k law (Silverstein measure)
    mu: np.ndarray            # continuous density of the p x p LAMP law
    mu_zero_atom: float       # extra mass at 0 when alpha > 1
    converged: np.ndarray     # the reported root was accepted


def bulk_density(base: BaseLaw, alpha: float, x_grid) -> BulkDensity:
    """Continuous density Im g_nu(x + i0)/pi from the accepted root of largest Im gc.

    In the bulk one root has Im g > 0; outside, every accepted root is real.
    """
    x = np.asarray(x_grid, dtype=float)
    gc, ok = _silverstein_roots(base, alpha, x)
    pick = np.argmax(np.where(ok, gc.imag, -np.inf), axis=1)[:, None]
    nu = np.maximum(np.take_along_axis(gc.imag, pick, 1) / math.pi, 0.0).reshape(x.shape)
    return BulkDensity(x=x, nu=nu, mu=nu / alpha, mu_zero_atom=max(0.0, 1.0 - 1.0 / alpha),
                       converged=np.take_along_axis(ok, pick, 1).reshape(x.shape))


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
    tr = base.transforms(g)
    jint = ds1 * tr.tt - g * tr.t_sq
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

