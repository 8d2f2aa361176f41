"""Scalar denoising toolbox.

Everything here is built on the tilted scalar measures

    Q_out(v, x; B, A, omega, V)  propto  exp(-A v^2/2 + B v) P_out(v|x) N(x; omega, V)
    Q_z(z; gamma, Lambda)        propto  P_z(z) exp(-Lambda z^2/2 + gamma z)

For the deterministic channels shipped here (v = phi(x)) the v-integral
collapses and every moment of Q_out is a one-dimensional integral over x:
closed form for the linear channel (Gaussian convolution), erf-based closed
forms for sign (stable down to V -> 0), and truncated-Gaussian closed forms
for ReLU (piecewise Gauss-Legendre split at the kink is the reference path).
Each channel has one moment core, giving log Z_out, E[v], E[x] and, on
demand, the two variances.  The cores run whole field grids on fast ufuncs:
log-sum-exp as max + log1p(exp(-|a - b|)), and ReLU's log Phi and Mills
ratio from one erfcx per argument.  `out_moments` is the checked array entry
point: input checks, the core, then the variances that AMP reads.

The free-entropy integrals Psi_z / Psi_out and their gradients are
Gauss-Hermite expectations over the effective Gaussian fields; gradients use
the moment identities 2 d_x Psi_out = E[Z_out f_v^2] and
2 d_y Psi_out = E[Z_out f_out^2] rather than finite differences.  The linear
channel's Psi_out and its gradients are closed form; the (xi, eta) grid
serves sign and ReLU, whose quadratures check (x, y) once as scalars and then
call the moment core directly, without variances or array scans; a proxy
covariance or quadrature sum that is not finite raises FloatingPointError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .priors import Activation, SeparablePrior, gauss_legendre

_LOG2PI = math.log(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_UNDERFLOW = math.log(1e-300)


class ChannelUnderflowError(FloatingPointError):
    """Raised when Z_out underflows below 1e-300 (diagnostic, not a zero)."""


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
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenoiserParams:
    B: float
    A: float
    omega: float
    V: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.B)) or not np.all(np.isfinite(self.omega)):
            raise ValueError("non-finite denoiser parameters")
        if not np.all(np.asarray(self.V) > 0):
            raise ValueError("V must be positive")
        if not np.all(np.asarray(self.A) >= 0):
            raise ValueError("A must be nonnegative in Bayes-optimal usage")


@dataclass(frozen=True)
class LatentParams:
    gamma: float
    Lambda: float

    def __post_init__(self):
        if not np.all(np.asarray(self.Lambda) >= 0):
            raise ValueError("Lambda must be nonnegative in Bayes-optimal usage")


# ---------------------------------------------------------------------------
# output-channel moments
# ---------------------------------------------------------------------------
# Each core returns (log Z_out, E[v], E[x], variances); variances() gives
# (Var[v], Var[x]), which only out_moments computes.  The cores run on whole
# field grids, where np.logaddexp, log_ndtr and erfcx each cost over ten times
# as much per element as exp or log1p, so log-sum-exp is built from exp and
# log1p, and ReLU calls erfcx once per argument.

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


# ReLU quadrature: each half-line carries an exact Gaussian integrand, so the
# window is the +-sqrt(90) effective sigmas around the (possibly truncated)
# peak -- a 1e-20 tail cut -- split into three equal Gauss-Legendre panels.
_RELU_NODES_PER_PANEL = 24
_RELU_EFOLDS = 90.0  # 2 * (45 e-folds of integrand decay)


def _panel_nodes(edges, gl_t, gl_w):
    """Nodes/weights for composite Gauss-Legendre over consecutive panel edges.

    edges: (..., P+1) monotone; degenerate (zero-width) panels contribute 0.
    Returns nodes and weights of shape (..., P * len(gl_t)).
    """
    lo = edges[..., :-1]
    hi = edges[..., 1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[..., None] + half[..., None] * gl_t
    w = half[..., None] * gl_w
    shape = x.shape[:-2] + (-1,)
    return x.reshape(shape), w.reshape(shape)


def _halfline_window(m, inv_var, side):
    """[lo, hi] covering exp(-inv_var (x-m)^2 / 2) on the half-line.

    side=-1 covers x <= 0, side=+1 covers x >= 0.  When the peak m lies on the
    wrong side the window tracks the truncated tail until the integrand has
    dropped by _RELU_EFOLDS/2 e-folds relative to the endpoint value.
    """
    reach = np.sqrt(np.minimum(m * side, 0.0) ** 2 + _RELU_EFOLDS / inv_var)
    if side > 0:
        lo = np.maximum(0.0, m - reach)
        hi = np.maximum(0.0, m + reach)
    else:
        lo = np.minimum(0.0, m - reach)
        hi = np.minimum(0.0, m + reach)
    return lo, hi


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


def relu_moments_quadrature(B, A, omega, V, nodes_per_panel=_RELU_NODES_PER_PANEL):
    """Piecewise Gauss-Legendre reference path for the ReLU moments."""
    B, A, omega, V = np.broadcast_arrays(B, A, omega, V)
    gl_t, gl_w = gauss_legendre(nodes_per_panel)
    frac = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    # piece x <= 0: tilt is 1, effective Gaussian is N(omega, V)
    lo, hi = _halfline_window(omega, 1.0 / V, side=-1)
    edges_n = lo[..., None] + (hi - lo)[..., None] * frac
    xn, wn = _panel_nodes(edges_n, gl_t, gl_w)
    # piece x >= 0: exponent -(x-omega)^2/2V - A x^2/2 + B x is Gaussian with
    # precision c2 and mean m
    c2 = A + 1.0 / V
    c1 = B + omega / V
    m = c1 / c2
    lo, hi = _halfline_window(m, c2, side=+1)
    edges_p = lo[..., None] + (hi - lo)[..., None] * frac
    xp, wp = _panel_nodes(edges_p, gl_t, gl_w)

    x = np.concatenate([xn, xp], axis=-1)
    w = np.concatenate([wn, wp], axis=-1)
    expo = -0.5 * (x - omega[..., None]) ** 2 / V[..., None]
    pos = x > 0
    expo = expo + np.where(pos, -0.5 * A[..., None] * x * x + B[..., None] * x, 0.0)
    emax = np.max(expo, axis=-1, keepdims=True)
    f = w * np.exp(expo - emax)
    z0 = np.sum(f, axis=-1)
    v = np.where(pos, x, 0.0)
    ev = np.sum(f * v, axis=-1) / z0
    evv = np.sum(f * v * v, axis=-1) / z0
    ex = np.sum(f * x, axis=-1) / z0
    exx = np.sum(f * x * x, axis=-1) / z0
    logz = np.log(z0) + emax[..., 0] - 0.5 * np.log(2.0 * math.pi * V)
    return logz, ev, evv - ev ** 2, ex, exx - ex ** 2


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


def z_out(act: Activation, dp: DenoiserParams) -> float:
    logz, *_ = out_moments(act, dp.B, dp.A, dp.omega, dp.V)
    if logz < _LOG_UNDERFLOW:
        # max-subtraction keeps log Z finite; refuse to round the value to 0
        raise ChannelUnderflowError(f"Z_out underflow: log Z = {float(logz):.1f}")
    return float(np.exp(logz))


def f_v(act: Activation, dp: DenoiserParams) -> float:
    _, ev, *_ = out_moments(act, dp.B, dp.A, dp.omega, dp.V)
    return float(ev)


def df_v(act: Activation, dp: DenoiserParams) -> float:
    _, _, vv, *_ = out_moments(act, dp.B, dp.A, dp.omega, dp.V)
    return float(vv)


def f_out(act: Activation, dp: DenoiserParams) -> float:
    _, _, _, ex, _ = out_moments(act, dp.B, dp.A, dp.omega, dp.V)
    return float((ex - dp.omega) / dp.V)


def df_out(act: Activation, dp: DenoiserParams) -> float:
    _, _, _, _, xvar = out_moments(act, dp.B, dp.A, dp.omega, dp.V)
    return float(xvar / dp.V ** 2 - 1.0 / dp.V)


# ---------------------------------------------------------------------------
# latent / u-factor denoisers (closed forms; quadrature only in tests)
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


def z_z(prior: SeparablePrior, lp: LatentParams) -> float:
    logz, *_ = latent_moments(prior, lp.gamma, lp.Lambda)
    return float(np.exp(logz))


def f_z(prior: SeparablePrior, lp: LatentParams) -> float:
    return float(latent_moments(prior, lp.gamma, lp.Lambda)[1])


def df_z(prior: SeparablePrior, lp: LatentParams) -> float:
    return float(latent_moments(prior, lp.gamma, lp.Lambda)[2])


def f_u(prior_u: SeparablePrior, B: float, A: float) -> float:
    return float(latent_moments(prior_u, B, A)[1])


def df_u(prior_u: SeparablePrior, B: float, A: float) -> float:
    return float(latent_moments(prior_u, B, A)[2])


# ---------------------------------------------------------------------------
# free-entropy integrals
# ---------------------------------------------------------------------------

def _psi_z_once(prior: SeparablePrior, x: float, order: int) -> float:
    # planted form: E_{z*,xi}[ log Z_z(x z* + sqrt(x) xi, x) ]; integrands stay
    # polynomially bounded so Gauss-Hermite is safe at any x
    g = hermite_grid(order)
    xi = g.std_nodes
    w = g.std_weights
    if prior.kind == "gauss":
        return x * prior.rho / 2.0 - 0.5 * math.log1p(x * prior.rho)
    gamma = x + math.sqrt(x) * xi     # z* = +1 by symmetry
    logz, _, _ = latent_moments(prior, gamma, x)
    return float(np.sum(w * logz))


def psi_z(prior: SeparablePrior, x: float, order: int = 64) -> float:
    """Psi_z(x) = E_xi[ Z_z(sqrt(x) xi, x) log Z_z(sqrt(x) xi, x) ]; Psi_z(0) = 0."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    return _psi_z_once(prior, x, order)


def psi_z_grad2(prior: SeparablePrior, x: float, order: int = 64) -> float:
    """2 d/dx Psi_z(x) = E_xi[Z_z f_z^2], the latent overlap update."""
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


@lru_cache(maxsize=16)
def _tensor_grid(order):
    """Per-order constants of the (xi, eta) grid: the standard-normal nodes
    u, the tensor log-weights and |u|^2/2 over the tensor grid."""
    g = hermite_grid(order)
    u = math.sqrt(2.0) * g.nodes
    logw1 = np.log(g.weights) - 0.5 * math.log(math.pi)
    logw = logw1[:, None] + logw1[None, :]
    half_u2 = 0.5 * (u[:, None] * u[:, None] + u[None, :] * u[None, :])
    for a in (u, logw, half_u2):
        a.flags.writeable = False
    return u, logw, half_u2


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
    change of sampling measure; exact for linear, near-optimal otherwise).
    The caller must combine the returned log-weights with log Z, and must have
    checked (x, y) with _check_fields.  A proxy covariance that is not finite
    and positive definite (x near the float range) raises FloatingPointError.
    """
    V = latent.rho - y
    u, logw, half_u2 = _tensor_grid(order)
    if not rotate:
        # plain tensor grid: best for the sign channel, whose Z shifts the
        # xi-mass without widening it (the proxy rotation would dilute nodes).
        # B (order, 1) and omega (1, order) stay separable and broadcast
        # against the (order, order) log-weights, so per-field work runs on
        # `order` values
        return math.sqrt(x) * u[:, None], math.sqrt(y) * u[None, :], logw, V
    # effective precision P = I - H of the linear-proxy integrand
    s = 1.0 / (1.0 + x * V)
    c = math.sqrt(x * y)
    p11 = 1.0 - x * V * s
    p12 = -c * s
    p22 = 1.0 + x * y * s
    det_p = p11 * p22 - p12 * p12
    cov = np.array([[p22, -p12], [-p12, p11]]) / det_p
    if not (det_p > 0.0 and cov[0, 0] > 0.0 and np.all(np.isfinite(cov))):
        raise FloatingPointError(f"Psi_out field grid: proxy covariance {cov.tolist()} "
                                 f"is not finite and positive at x={x!r}, y={y!r}")
    l11 = math.sqrt(cov[0, 0])
    l21 = cov[1, 0] / l11
    l22 = math.sqrt(max(cov[1, 1] - l21 * l21, 1e-300))
    u1 = u[:, None]
    u2 = u[None, :]
    # xi depends on the first axis only and broadcasts as an (order, 1) column
    xi = l11 * u1
    eta = l21 * u1 + l22 * u2
    # importance ratio N(v;0,I)/N(v;0,cov) on the mapped nodes
    # (v^T cov^{-1} v = |u|^2 on the mapped grid; det cov = 1/det P)
    logr = -0.5 * (xi * xi + eta * eta) + half_u2 - 0.5 * math.log(det_p)
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


def _out_field_moments(act, latent, x, y, order):
    """(log-weights, log Z, E[v], E[x], omega, V) on the adapted (xi, eta) grid.

    Finite fields of a checked (x, y) need no array scan, and the variances
    are never read, so the channel's moment core is called directly.
    """
    B, omega, logw, V = _field_grid(latent, x, y, order, rotate=act.kind != "sign")
    logz, ev, ex, _ = _MOMENTS[act.kind](B, x, omega, V)
    return logw, logz, ev, ex, omega, V


def _grid_sum(terms, x, y) -> float:
    """Sum of a quadrature's terms; a non-finite sum raises FloatingPointError."""
    total = float(np.sum(terms))
    if not math.isfinite(total):
        raise FloatingPointError(f"Psi_out quadrature sum is {total} at x={x!r}, y={y!r}")
    return total


def psi_out(act: Activation, latent: SeparablePrior, x: float, y: float,
            order: int = 64, adaptive: bool = True) -> float:
    """Psi_out(x, y) as a tensor-product Gauss-Hermite expectation of Z log Z.

    The linear channel has it in closed form, the integral of its gradients
    (see psi_out_grads): Psi_out = (rho_z x - log(1 + x (rho_z - y))) / 2.
    """
    def val(n):
        logw, logz, *_ = _out_field_moments(act, latent, x, y, n)
        return _grid_sum(np.exp(logw + logz) * logz, x, y)

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

    2 d_x Psi_out = E[Z_out f_v^2] and 2 d_y Psi_out = E[Z_out f_out^2],
    evaluated on the same quadrature grid as psi_out.  The linear channel
    has them in closed form, with V = rho_z - y:

        2 d_x Psi_out = y + x V^2 / (1 + x V),   2 d_y Psi_out = x / (1 + x V)

    Psi_out sees the latent prior only through rho_z, so this holds for every
    latent, and `order`/`adaptive` are unused there.
    """
    def val(n):
        logw, logz, ev, ex, omega, V = _out_field_moments(act, latent, x, y, n)
        zw = np.exp(logw + logz)
        fout = (ex - omega) / V
        return (0.5 * _grid_sum(zw * ev * ev, x, y),
                0.5 * _grid_sum(zw * fout * fout, x, y))

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


def out_channel_normalization(act: Activation, latent: SeparablePrior,
                              x: float, y: float, order: int = 64) -> float:
    """E_{xi,eta}[Z_out] at matched (x, y); equals 1 under the planted measure."""
    _check_fields(latent, x, y)
    logw, logz, *_ = _out_field_moments(act, latent, x, y, order)
    return _grid_sum(np.exp(logw + logz), x, y)
