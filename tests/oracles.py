"""Independent references for the tests, slow, dense and separate from the code
they check, and the one test-only sum over the Psi_out field grid."""

import math

import numpy as np

from spikedgen import channels as ch
from spikedgen.priors import Wigner, gauss_legendre, null_channel_moments

DENSE_CUTOFF = 4000


def full_symmetric(Y: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix whose lower triangle is Y's, as a Wigner
    consumer reads it (`sample_wigner` stores only that triangle)."""
    lower = np.tril(Y)
    return lower + np.tril(lower, -1).T


def lamp_dense(inst, W: np.ndarray, coeffs) -> np.ndarray:
    """The LAMP operator Gamma = ((a-b) I + b W W^T/k)(scale G - shift I)/Delta
    of `inst` as a dense p x p matrix, from W, the LAMP coefficients and the
    dense symmetric Y: G = Y/sqrt(p), scale 1 and shift a (Wigner), or
    G = Y^T Y / p, scale 1/(a + Delta/d) and shift d beta (Wishart)."""
    p, k = W.shape
    if p > DENSE_CUTOFF:
        raise ValueError(f"dense assembly limited to p <= {DENSE_CUTOFF}")
    a, b = coeffs.a, coeffs.b
    if isinstance(inst.model, Wigner):
        G, scale, shift = full_symmetric(inst.Y) / math.sqrt(p), 1.0, a
    else:
        G = inst.Y.T @ inst.Y / p
        scale, shift = 1.0 / (a + inst.delta / coeffs.d), coeffs.d * inst.beta
    K = (a - b) * np.eye(p) + b * (W @ W.T) / k
    return K @ (scale * G - shift * np.eye(p)) / inst.delta


# ---------------------------------------------------------------------------
# ReLU output-channel moments by piecewise Gauss-Legendre quadrature
# ---------------------------------------------------------------------------
# Each half-line carries an exact Gaussian integrand, so the window is the
# +-sqrt(90) effective sigmas around the (possibly truncated) peak -- a 1e-20
# tail cut -- split into three equal Gauss-Legendre panels.
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


def relu_moments_quadrature(B, A, omega, V, nodes_per_panel=_RELU_NODES_PER_PANEL):
    """(log Z_out, E[v], Var[v], E[x], Var[x]) of the ReLU channel by quadrature."""
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


# ---------------------------------------------------------------------------
# E[Z_out] on the Psi_out field grid
# ---------------------------------------------------------------------------

def out_channel_normalization(act, latent, x: float, y: float, order: int = 64) -> float:
    """E_{xi,eta}[Z_out] at matched (x, y); equals 1 under the planted measure.

    The sum of the weighted masses z = w Z of the field grid that psi_out and
    psi_out_grads read; the linear channel's is 1 in closed form (a Gaussian
    convolution).
    """
    ch._check_fields(latent, x, y)
    if act.kind == "linear":
        return 1.0
    z, *_ = ch._FIELD_MASSES[act.kind](latent, x, y, order)
    return ch._grid_sum(z, x, y)


# ---------------------------------------------------------------------------
# stability of the uninformative SE fixed point
# ---------------------------------------------------------------------------

def jacobian_at_zero(delta, alpha, act, latent, model=Wigner()) -> np.ndarray:
    """Jacobian of the SE map at the all-zeros fixed point.

    Its entries come from the null moments E[v^2] and E[vx]; the q_z -> q_hat_z
    entries carry (E[x^2] - rho_z)^2 = 0 and vanish.  Requires E_{Q_out^0}[v] = 0:
    ReLU violates it, so the uninformative fixed point does not exist.
    """
    vv, vx = null_channel_moments(act, latent)
    rz = latent.rho
    a_vv = vv ** 2 / delta
    a_vx = vx ** 2
    if isinstance(model, Wigner):
        # rows/cols ordered (q_v, q_hat_z, q_z)
        return np.array([
            [a_vv, 0.0, a_vx / rz ** 2],
            [alpha * a_vx / delta, 0.0, 0.0],
            [0.0, rz ** 2, 0.0],
        ])
    beta = model.beta
    ru = model.prior_u.rho
    # rows/cols ordered (q_u, q_v, q_hat_z, q_z)
    return np.array([
        [0.0, ru ** 2 / delta, 0.0, 0.0],
        [beta * a_vv, 0.0, 0.0, a_vx / rz ** 2],
        [beta * alpha * a_vx / delta, 0.0, 0.0, 0.0],
        [0.0, 0.0, rz ** 2, 0.0],
    ])


def spectral_radius(m: np.ndarray) -> float:
    """Largest |eigenvalue| of a (small, non-symmetric) matrix."""
    return float(np.abs(np.linalg.eigvals(m)).max())
