"""Scalar denoising toolbox.

Everything here is built on the tilted scalar measures

    Q_out(v, x; B, A, omega, V)  propto  exp(-A v^2/2 + B v) P_out(v|x) N(x; omega, V)
    Q_z(z; gamma, Lambda)        propto  P_z(z) exp(-Lambda z^2/2 + gamma z)

For the deterministic channels shipped here (v = phi(x)) the v-integral
collapses and every moment of Q_out is a one-dimensional integral over x:
closed form for the linear channel (Gaussian convolution), erf-based closed
forms for sign (stable down to V -> 0), and truncated-Gaussian closed forms
for ReLU (the tests check them against an independent piecewise
Gauss-Legendre quadrature split at the kink, in tests/oracles.py).
Each channel has one moment core, giving log Z_out, E[v], E[x] and, on
demand, the two variances, on fast ufuncs: log-sum-exp as
max + log1p(exp(-|a - b|)), and ReLU's log Phi and Mills ratio from one erfcx
per argument.  `out_moments` and `latent_moments` are the array entry points
that AMP reads; every scalar denoiser is one of their moments, e.g.
f_{v} = E[v], f_{out} = (E[x] - omega)/V and df_{out} = Var[x]/V^2 - 1/V.

The free-entropy integrals Psi_z / Psi_out and their gradients are
Gauss-Hermite expectations over the effective Gaussian fields; gradients use
the moment identities 2 d_x Psi_out = E[Z_out f_{v}^2] and
2 d_y Psi_out = E[Z_out f_{out}^2] rather than finite differences.  The linear
channel's Psi_out and its gradients are closed form; the (xi, eta) grid
serves sign and ReLU, whose quadratures check (x, y) once as scalars and then
read only the two half-line masses of each node and the density at the cut,
from one piece-mass evaluator per channel; a field beyond the rotated grid's
range or a quadrature sum that is not finite raises FloatingPointError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .priors import Activation, SeparablePrior

_LOG2PI = math.log(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TINY = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadGrid:
    """Gauss-Hermite nodes/weights for E_{xi~N(0,1)}[f(xi)] = sum w f(sqrt(2) t) / sqrt(pi)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def std_nodes(self) -> np.ndarray:
        """Nodes scaled for standard-normal expectations."""
        return math.sqrt(2.0) * self.nodes

    @property
    def std_weights(self) -> np.ndarray:
        return self.weights / math.sqrt(math.pi)


@lru_cache(maxsize=16)
def hermite_grid(order: int = 64) -> QuadGrid:
    if order > 320:
        # hermgauss weights underflow beyond this; tails are < 1e-90 anyway
        raise ValueError("Gauss-Hermite order capped at 320")
    t, w = np.polynomial.hermite.hermgauss(order)
    return QuadGrid(order=order, nodes=t, weights=w)


# ---------------------------------------------------------------------------
# output-channel moments
# ---------------------------------------------------------------------------
# Each core returns (log Z_out, E[v], E[x], variances); variances() gives
# (Var[v], Var[x]), which only out_moments computes.  AMP runs them on whole
# layers, where np.logaddexp, log_ndtr and erfcx each cost over ten times as
# much per element as exp or log1p, so log-sum-exp is built from exp and
# log1p, and ReLU calls erfcx once per argument.  The field-grid quadratures
# do not use them: they read piece masses (see _sign_masses, _relu_masses).

def _logaddexp(a, b):
    """log(e^a + e^b) for finite a, b: numpy's formula, from vectorised ufuncs."""
    return np.maximum(a, b) + np.log1p(np.exp(-np.abs(a - b)))


def _log_ndtr_mills(t):
    """(log Phi(t), phi(t) / Phi(t)) from one e = erfcx(|t| / sqrt 2) per element.

    With h = t^2/2 and g = e^-h e = erfc(|t| / sqrt 2): for t > 0,
    Phi = 1 - g/2, so log Phi = log1p(-g/2) and phi/Phi = sqrt(2/pi) e^-h / (2 - g);
    otherwise Phi = e e^-h / 2, so log Phi = log(e/2) - h and phi/Phi = sqrt(2/pi) / e.
    """
    h = 0.5 * t * t
    e = sp.erfcx(np.abs(t) / math.sqrt(2.0))
    eh = np.exp(-h)
    g = eh * e
    pos = t > 0
    log_cdf = np.where(pos, np.log1p(-0.5 * g), np.log(0.5 * e) - h)
    mills = np.where(pos, _SQRT_2_OVER_PI * eh / (2.0 - g), _SQRT_2_OVER_PI / e)
    return log_cdf, mills


def _moments_linear(B, A, omega, V):
    c2 = A + 1.0 / V
    c1 = B + omega / V
    m = c1 / c2
    logz = -0.5 * np.log(V * A + 1.0) + 0.5 * c1 * c1 / c2 - 0.5 * omega * omega / V
    var = 1.0 / c2
    return logz, m, m, lambda: (var + np.zeros_like(m), var + np.zeros_like(m))


def _moments_sign(B, A, omega, V):
    s = np.sqrt(V)
    a0 = omega / s
    lp = sp.log_ndtr(a0)          # log P(x > 0)
    ln = sp.log_ndtr(-a0)
    log_den = _logaddexp(B + lp, -B + ln)
    logz = -0.5 * A + log_den
    v_mean = np.tanh(B + 0.5 * (lp - ln))
    # tau = sqrt(V) phi(a0) (e^B - e^-B) / (e^B p+ + e^-B p-), in log space
    absB = np.abs(B)
    with np.errstate(divide="ignore"):
        log_num = absB + np.log1p(-np.exp(-2.0 * absB))
    log_phi = -0.5 * a0 * a0 - 0.5 * _LOG2PI
    tau = np.sign(B) * s * np.exp(log_phi + log_num - log_den)
    x_mean = omega + tau
    return logz, v_mean, x_mean, lambda: (1.0 - v_mean ** 2, V - tau * x_mean)


def _moments_relu(B, A, omega, V):
    """ReLU moments in closed form: each half-line is a truncated Gaussian.

    x <= 0 carries unit tilt (v = 0), x >= 0 carries the Gaussian tilt with
    precision c2 = A + 1/V and mean m = (B + omega/V)/c2; the two masses are
    combined in log space.  Only B and omega vary over a field grid, so the
    scalar A and V stay scalars and their terms are computed once.
    """
    s = np.sqrt(V)
    a0 = omega / s
    c2 = A + 1.0 / V
    c1 = B + omega / V
    m = c1 / c2
    s2 = 1.0 / np.sqrt(c2)
    mt = m / s2
    # piece masses (each already includes the N(omega, V) normalisation) and
    # truncated-normal Mills ratios phi/Phi: rn for the x<0 piece of
    # N(omega, V), rp for the x>0 piece
    log_mn, rn = _log_ndtr_mills(-a0)
    log_cdf_p, rp = _log_ndtr_mills(mt)
    log_mp = (0.5 * c1 * c1 / c2 - 0.5 * omega * omega / V
              + np.log(s2 / s) + log_cdf_p)
    logz = _logaddexp(log_mn, log_mp)
    wp = np.exp(log_mp - logz)
    wn = np.exp(log_mn - logz)
    ex_p = m + s2 * rp
    ex_n = omega - s * rn
    ev = wp * ex_p
    ex = wn * ex_n + wp * ex_p

    def variances():
        exx_p = m * m + s2 * s2 + s2 * m * rp
        exx_n = omega * omega + V - s * omega * rn
        return wp * exx_p - ev ** 2, wn * exx_n + wp * exx_p - ex ** 2

    return logz, ev, ex, variances


_MOMENTS = {"linear": _moments_linear, "sign": _moments_sign, "relu": _moments_relu}


def out_moments(act: Activation, B, A, omega, V):
    """(log Z_out, E[v], Var[v], E[x], Var[x]) under Q_out; vectorized."""
    B = np.asarray(B, dtype=float)
    A = np.asarray(A, dtype=float)
    omega = np.asarray(omega, dtype=float)
    V = np.asarray(V, dtype=float)
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(A))
            and np.all(np.isfinite(omega)) and np.all(np.isfinite(V))):
        raise ValueError("non-finite channel parameters")
    if np.any(V <= 0):
        raise ValueError("V must be positive")
    logz, ev, ex, variances = _MOMENTS[act.kind](B, A, omega, V)
    var_v, var_x = variances()
    return logz, ev, var_v, ex, var_x


# ---------------------------------------------------------------------------
# latent / u-factor moments (closed forms)
# ---------------------------------------------------------------------------

def latent_moments(prior: SeparablePrior, gamma, lam):
    """(log Z, posterior mean, posterior variance) for the separable prior."""
    gamma = np.asarray(gamma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if prior.kind == "gauss":
        prec = lam + 1.0 / prior.rho
        mean = gamma / prec
        logz = -0.5 * np.log1p(lam * prior.rho) + 0.5 * gamma * gamma / prec
        return logz, mean, 1.0 / prec + np.zeros_like(mean)
    # rademacher
    a = np.abs(gamma)
    logz = -0.5 * lam + a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
    mean = np.tanh(gamma)
    return logz, mean, 1.0 - mean ** 2


# ---------------------------------------------------------------------------
# free-entropy integrals
# ---------------------------------------------------------------------------

def psi_z(prior: SeparablePrior, x: float, order: int = 64) -> float:
    """Psi_z(x) = E_xi[ Z_z(sqrt(x) xi, x) log Z_z(sqrt(x) xi, x) ]; Psi_z(0) = 0.

    Taken in the planted form E_{z*,xi}[ log Z_z(x z* + sqrt(x) xi, x) ], whose
    integrand stays polynomially bounded, so Gauss-Hermite is safe at any x.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if prior.kind == "gauss":
        return x * prior.rho / 2.0 - 0.5 * math.log1p(x * prior.rho)
    g = hermite_grid(order)
    gamma = x + math.sqrt(x) * g.std_nodes     # z* = +1 by symmetry
    logz, _, _ = latent_moments(prior, gamma, x)
    return float(np.sum(g.std_weights * logz))


def psi_z_grad2(prior: SeparablePrior, x: float, order: int = 64) -> float:
    """2 d/dx Psi_z(x) = E_xi[Z_z f_{z}^2], the latent overlap update."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if prior.kind == "gauss":
        return x * prior.rho ** 2 / (1.0 + x * prior.rho)
    g = hermite_grid(order)
    gamma = x + math.sqrt(x) * g.std_nodes
    _, mean, _ = latent_moments(prior, gamma, x)
    return float(np.sum(g.std_weights * mean))


class _TensorGrid(NamedTuple):
    """Per-order constants of the (xi, eta) grid: the standard-normal nodes
    u, their weights w1 and log-weights, and over the tensor grid the weights,
    log-weights and |u|^2/2 (all read-only)."""

    u: np.ndarray
    w1: np.ndarray
    logw1: np.ndarray
    w: np.ndarray
    logw: np.ndarray
    half_u2: np.ndarray


@lru_cache(maxsize=16)
def _tensor_grid(order) -> _TensorGrid:
    g = hermite_grid(order)
    u = math.sqrt(2.0) * g.nodes
    w1 = g.std_weights
    logw1 = np.log(g.weights) - 0.5 * math.log(math.pi)
    grid = _TensorGrid(u, w1, logw1, np.multiply.outer(w1, w1),
                       logw1[:, None] + logw1[None, :],
                       0.5 * (u[:, None] * u[:, None] + u[None, :] * u[None, :]))
    for a in grid:
        a.flags.writeable = False
    return grid


# The rotated grid follows the x > 0 ridge and spaces its xi nodes about
# sqrt(1 + x rho_z) apart, while the v = 0 half of the ReLU measure stays at
# xi = O(1); so that half slips between the nodes as x grows: E[Z_out] = 1
# reads 1 - 2e-3 at x = 20, 0.73 at 100 and 0.5 + 2e-8 at 1e3 (orders 64 to
# 256), after which every order agrees to 1e-16 and no doubling can tell.
# Psi_out and d_y Psi_out then lack that half, so larger x is refused.
_ROTATED_X_MAX = 1e3


def _field_grid(latent, x, y, order, rotate=True):
    """(B, omega, log-weights, V) for the E_{xi,eta} expectations over Z_out.

    The grid serves the sign and ReLU Psi_out and gradients; the linear ones
    are closed form (psi_out, psi_out_grads) and never reach it.
    Z_out(sqrt(x) xi, x, sqrt(y) eta, V) times the Gaussian weight forms a
    tilted, strongly anisotropic ridge in (xi, eta) at low noise.  For the
    linear channel its quadratic form is exact:

        log Z ~ (1/2(1+xV)) [ xV xi^2 + 2 sqrt(xy) xi eta - xy eta^2 ]

    so the tensor Gauss-Hermite grid is mapped onto the principal axes of the
    resulting effective covariance with exact importance log-weights (a
    change of sampling measure; exact for linear and for ReLU's x > 0 piece).
    That covariance is [[1 + xV + xy, sqrt(xy)], [sqrt(xy), 1]] with
    determinant 1 + xV, so its Cholesky factor needs no subtraction.  The
    piece-mass evaluators (_sign_masses, _relu_masses) turn the fields and
    log-weights into weighted masses; the caller must have checked (x, y)
    with _check_fields.  The rotated grid refuses x above _ROTATED_X_MAX with
    FloatingPointError.
    """
    V = latent.rho - y
    tg = _tensor_grid(order)
    u, logw = tg.u, tg.logw
    if not rotate:
        # plain tensor grid: best for the sign channel, whose Z shifts the
        # xi-mass without widening it (the proxy rotation would dilute nodes).
        # B (order, 1) and omega (1, order) stay separable and broadcast
        # against the (order, order) log-weights, so per-field work runs on
        # `order` values
        return math.sqrt(x) * u[:, None], math.sqrt(y) * u[None, :], logw, V
    if not x <= _ROTATED_X_MAX:
        raise FloatingPointError(f"Psi_out field grid: x={x!r} exceeds {_ROTATED_X_MAX:g}, "
                                 f"where the rotated grid misses the v = 0 mass (y={y!r})")
    one_xv = 1.0 + x * V
    l11 = math.sqrt(one_xv + x * y)
    l21 = math.sqrt(x * y) / l11
    l22 = math.sqrt(one_xv) / l11
    u1 = u[:, None]
    u2 = u[None, :]
    # xi depends on the first axis only and broadcasts as an (order, 1) column
    xi = l11 * u1
    eta = l21 * u1 + l22 * u2
    # importance ratio N(v;0,I)/N(v;0,cov) on the mapped nodes
    # (v^T cov^{-1} v = |u|^2 on the mapped grid; det cov = 1 + xV)
    logr = -0.5 * (xi * xi + eta * eta) + tg.half_u2 + 0.5 * math.log(one_xv)
    logw = logw + logr
    B = math.sqrt(x) * xi
    omega = math.sqrt(y) * eta
    return B, omega, logw, V


def _check_fields(latent, x, y):
    """Refuse (x, y) outside Psi_out's domain: finite x >= 0, finite 0 <= y < rho_z."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("non-finite channel parameters")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if y < 0 or y >= latent.rho:
        raise ValueError("need 0 <= y < rho_z (V = rho_z - y must stay positive)")


# Sign and ReLU split at x = 0 into two pieces.  On the field grid every
# quadrature reads only the weighted piece masses M- and M+ (quadrature weight
# times the piece's share of Z_out) and the weighted N(omega, V) density at
# the cut, through three per-node sums:
#     z = w Z = M- + M+,   zv = w Z E[v],   zf = w Z f_{out} = w Z (E[x] - omega)/V
# Each channel has one evaluator returning (z, zv, zf, log w); no log Z,
# posterior weight or Mills ratio is formed per node.

def _sign_masses(latent, x, y, order):
    """Piece sums of the sign channel on the plain tensor grid.

    With B_i = sqrt(x) u_i, a_j = sqrt(y) u_j / sqrt(V) and p_i, n_i =
    w_i exp(-x/2 +- B_i):  M+ = p_i w_j Phi(a_j), M- = n_i w_j Phi(-a_j), and
    w Z f_{out} = (p_i - n_i) w_j phi(a_j) / sqrt(V), so every grid node costs
    a few multiplications; transcendentals run on `order` values.
    """
    B, omega, logw, V = _field_grid(latent, x, y, order, rotate=False)
    tg = _tensor_grid(order)
    s = math.sqrt(V)
    b = B[:, 0]
    a0 = omega[0] / s
    p = np.exp(tg.logw1 - 0.5 * x + b)
    n = np.exp(tg.logw1 - 0.5 * x - b)
    d = p - n
    mp = np.multiply.outer(p, tg.w1 * sp.ndtr(a0))
    mn = np.multiply.outer(n, tg.w1 * sp.ndtr(-a0))
    zf = np.multiply.outer(d, tg.w1 * np.exp(-0.5 * a0 * a0) / (math.sqrt(2.0 * math.pi) * s))
    return mp + mn, mp - mn, zf, logw


def _relu_masses(latent, x, y, order):
    """Piece sums of the ReLU channel on the rotated grid.

    x < 0 has v = 0 and mass M- = w Phi(-a0), a0 = omega/s, s = sqrt(V);
    x > 0 is a Gaussian of precision x + 1/V and mean m, whose mass and first
    moment meet M- at the cut through w phi(a0):
        M- (E[x|x<0] - omega) = -s w phi(a0)
        M+ (E[x|x>0] - omega) = M+ (m - omega) + (s / (1 + xV)) w phi(a0)
    The x > 0 piece is the linear channel times Phi(mt), and the rotated grid
    weights the linear channel exactly, so M+ = W Phi(mt) with W the tensor
    Gauss-Hermite weight: no exponent is formed for it, where the
    exponent c1^2/2c2 - omega^2/2V would cancel to a few digits as V -> 0.
    With k = 1/(1 + xV): m = k (B V + omega), (m - omega)/V = k (B - x omega)
    and mt = m / sqrt(kV).
    """
    B, omega, logw, V = _field_grid(latent, x, y, order)
    W = _tensor_grid(order).w
    s = math.sqrt(V)
    k = 1.0 / (1.0 + x * V)
    m = (B * V + omega) * k
    dm = (B - x * omega) * k          # (m - omega) / V
    na0 = omega * (-1.0 / s)
    mp = W * sp.ndtr(m * (1.0 / math.sqrt(k * V)))
    mn = np.exp(logw) * sp.ndtr(na0)
    # (s / (1 + xV)) w phi(a0)
    wphi = np.exp(logw - 0.5 * na0 * na0) * (s * k / math.sqrt(2.0 * math.pi))
    return mn + mp, mp * m + wphi, mp * dm - x * wphi, logw


_FIELD_MASSES = {"sign": _sign_masses, "relu": _relu_masses}


def _grid_sum(terms, x, y) -> float:
    """Sum of a quadrature's terms; a non-finite sum raises FloatingPointError."""
    total = float(np.sum(terms))
    if not math.isfinite(total):
        raise FloatingPointError(f"Psi_out quadrature sum is {total} at x={x!r}, y={y!r}")
    return total


def psi_out(act: Activation, latent: SeparablePrior, x: float, y: float,
            order: int = 64, adaptive: bool = True) -> float:
    """Psi_out(x, y) as a tensor-product Gauss-Hermite expectation of Z log Z.

    On the grid that is sum z (log z - log w) over the weighted masses z = w Z.
    The linear channel has it in closed form, the integral of its gradients
    (see psi_out_grads): Psi_out = (rho_z x - log(1 + x (rho_z - y))) / 2.
    """
    def val(n):
        z, _, _, logw = _FIELD_MASSES[act.kind](latent, x, y, n)
        return _grid_sum(sp.xlogy(z, z) - z * logw, x, y)

    _check_fields(latent, x, y)
    if act.kind == "linear":
        return 0.5 * (latent.rho * x - math.log1p(x * (latent.rho - y)))
    v = val(order)
    if adaptive:
        v2 = val(2 * order)
        if abs(v2 - v) > 1e-9:
            return v2
    return v


def psi_out_grads(act: Activation, latent: SeparablePrior, x: float, y: float,
                  order: int = 64, adaptive: bool = True) -> tuple[float, float]:
    """(d/dx, d/dy) of Psi_out via the moment identities.

    2 d_x Psi_out = E[Z_out f_{v}^2] and 2 d_y Psi_out = E[Z_out f_{out}^2],
    evaluated on the same quadrature grid as psi_out as sums of zv^2/z and
    zf^2/z over the weighted piece sums.  The linear channel has them in
    closed form, with V = rho_z - y:

        2 d_x Psi_out = y + x V^2 / (1 + x V),   2 d_y Psi_out = x / (1 + x V)

    Psi_out sees the latent prior only through rho_z, so this holds for every
    latent, and `order`/`adaptive` are unused there.
    """
    def val(n):
        z, zv, zf, _ = _FIELD_MASSES[act.kind](latent, x, y, n)
        # a mass below the smallest normal float carries terms that underflow
        # anyway; the floor only keeps 0/0 out of the sums
        r = 1.0 / np.maximum(z, _TINY)
        return (0.5 * _grid_sum(zv * zv * r, x, y),
                0.5 * _grid_sum(zf * zf * r, x, y))

    _check_fields(latent, x, y)
    if act.kind == "linear":
        V = latent.rho - y
        s = 1.0 + x * V
        return 0.5 * (y + x * V * V / s), 0.5 * x / s
    gx, gy = val(order)
    if adaptive:
        gx2, gy2 = val(2 * order)
        if abs(gx2 - gx) > 1e-9 or abs(gy2 - gy) > 1e-9:
            return gx2, gy2
    return gx, gy
