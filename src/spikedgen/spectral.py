"""LAMP spectral estimators, the PCA baseline, and leading-eigenpair extraction.

The LAMP operator preconditions the (shifted) observation with the covariance
structure of the generative prior:

    Gamma = (1/Delta) * [ (a-b) I + b W W^T/k ] * M

with M = scale * G - shift * I, where G = `gram(inst)` is the data operator
that PCA also diagonalises: G = Y/sqrt(p) with scale 1 and shift a (Wigner),
or G = Y^T Y / p with scale 1/(a + Delta/d) and shift d beta (Wishart).  One
builder, `build_lamp`, serves both models.  The paper's third preconditioner
term is proportional to the third moment of P_z, which vanishes for both
shipped (symmetric) priors, and a >= b >= 0 holds by Cauchy-Schwarz, so the
preconditioner is PSD: K = F F^T.
Gamma then shares its nonzero spectrum with the symmetric F^T M F / Delta,
whose eigenvectors map back through F.  One Lanczos solver, `_lanczos_top2`,
finds the top two eigenpairs for LAMP, covariance-LAMP and PCA: it never
restarts, keeps its whole basis orthonormal, and stops by ARPACK's rule.
Inputs without that structure are rejected at construction: `LampCoeffs`
unless a >= b >= 0, and `build_cov_lamp` unless Sigma_hat is symmetric PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .priors import (Activation, GenerativeModel, SeparablePrior,
                     SpikedInstance, Wigner, Wishart, make_rng,
                     null_channel_moments)


@dataclass(frozen=True)
class LampCoeffs:
    a: float
    b: float
    d: float | None = None   # Wishart only

    def __post_init__(self):
        if not self.a >= self.b >= 0.0:
            raise ValueError(f"LAMP needs a >= b >= 0 for a PSD preconditioner "
                             f"(got a={self.a}, b={self.b})")


def lamp_coefficients(act: Activation, latent: SeparablePrior,
                      model: Wigner | Wishart = Wigner()) -> LampCoeffs:
    """Moments of P_z and Q_out^0 entering the linearized-AMP operator."""
    vv, vx = null_channel_moments(act, latent)
    d = model.prior_u.rho if isinstance(model, Wishart) else None
    # vx * (vx / rho) rather than vx^2 / rho: for the linear channel vx = rho,
    # and this order gives b == a exactly instead of b > a by one ulp
    return LampCoeffs(a=vv, b=vx * (vx / latent.rho), d=d)


@dataclass
class LampOperator:
    """Matrix-free Gamma = precond . data / Delta."""

    p: int
    k: int
    delta: float
    coeffs: LampCoeffs
    W: np.ndarray | None          # None for covariance-LAMP
    data_apply: callable          # x -> M x (symmetric data part)
    sigma: np.ndarray | None = None         # covariance preconditioner (cov-LAMP)
    sigma_factor: np.ndarray | None = None  # F with F F^T = sigma

    # -- preconditioner K = F F^T -------------------------------------------
    def precond_apply(self, x: np.ndarray) -> np.ndarray:
        if self.sigma is not None:
            return self.sigma @ x
        a, b = self.coeffs.a, self.coeffs.b
        return (a - b) * x + b * (self.W @ (self.W.T @ x)) / self.k

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.precond_apply(self.data_apply(x)) / self.delta

    def factor_dim(self) -> int:
        if self.sigma is not None:
            return self.p
        a, b = self.coeffs.a, self.coeffs.b
        if a == b:
            return self.k
        return self.p + self.k

    def factor_apply(self, y: np.ndarray) -> np.ndarray:
        """F y with K = F F^T."""
        if self.sigma is not None:
            return self.sigma_factor @ y
        a, b = self.coeffs.a, self.coeffs.b
        if a == b:
            return math.sqrt(b / self.k) * (self.W @ y)
        return (math.sqrt(a - b) * y[:self.p]
                + math.sqrt(b / self.k) * (self.W @ y[self.p:]))

    def factor_rapply(self, x: np.ndarray) -> np.ndarray:
        """F^T x."""
        if self.sigma is not None:
            return self.sigma_factor.T @ x
        a, b = self.coeffs.a, self.coeffs.b
        if a == b:
            return math.sqrt(b / self.k) * (self.W.T @ x)
        return np.concatenate([math.sqrt(a - b) * x,
                               math.sqrt(b / self.k) * (self.W.T @ x)])


def gram(inst: SpikedInstance):
    """The data operator x -> Y x / sqrt(p) (Wigner) or Y^T (Y x) / p (Wishart).

    PCA takes its leading eigenpairs; `build_lamp` scales and shifts it.
    """
    Y, p = inst.Y, inst.p
    if isinstance(inst.model, Wigner):
        sp = math.sqrt(p)
        return lambda x: Y @ x / sp
    return lambda x: Y.T @ (Y @ x) / p


def build_lamp(inst: SpikedInstance, gm: GenerativeModel,
               coeffs: LampCoeffs) -> LampOperator:
    """LAMP on M = scale * gram - shift * I (scale 1 and shift a for Wigner)."""
    if inst.Y.shape[1] != gm.p:
        raise ValueError("instance/model dimension mismatch")
    scale, shift = 1.0, coeffs.a
    if isinstance(inst.model, Wishart):
        if coeffs.d is None:
            raise ValueError("Wishart LAMP needs the d coefficient (rho_u)")
        scale, shift = 1.0 / (coeffs.a + inst.delta / coeffs.d), coeffs.d * inst.beta
    data = gram(inst)

    def data_apply(x):
        return scale * data(x) - shift * x

    return LampOperator(p=gm.p, k=gm.k, delta=inst.delta, coeffs=coeffs,
                        W=gm.W, data_apply=data_apply)


def empirical_covariance(spikes: np.ndarray) -> np.ndarray:
    """Plain second-moment matrix (1/n) sum v v^T over rows of `spikes`."""
    n = spikes.shape[0]
    return spikes.T @ spikes / n


def build_cov_lamp(Y: np.ndarray, sigma_hat: np.ndarray, delta: float) -> LampOperator:
    """Gamma = (1/Delta) Sigma_hat (Y/sqrt(p) - I), Sigma_hat estimated from spikes."""
    p = Y.shape[0]
    if sigma_hat.shape != (p, p):
        raise ValueError("covariance/observation dimension mismatch")
    if not np.allclose(sigma_hat, sigma_hat.T, atol=1e-10):
        raise ValueError("Sigma_hat must be symmetric")
    vals, vecs = np.linalg.eigh(sigma_hat)
    if vals.min() < -1e-10 * max(1.0, vals.max()):
        raise ValueError("Sigma_hat must be positive semidefinite")
    sp = math.sqrt(p)

    def data_apply(x):
        return Y @ x / sp - x

    return LampOperator(p=p, k=p, delta=delta, coeffs=LampCoeffs(a=1.0, b=1.0),
                        W=None, data_apply=data_apply, sigma=sigma_hat,
                        sigma_factor=vecs * np.sqrt(np.clip(vals, 0.0, None)))


# ---------------------------------------------------------------------------
# eigen-solvers
# ---------------------------------------------------------------------------

_MAX_STEPS = 1000    # default Lanczos step cap (the cap is min(dim, max_iter))
_CHUNK = 64          # basis rows added each time the Lanczos basis fills up
_CHECK_EVERY = 4     # Lanczos steps between two convergence checks on T_m
_EPS = np.finfo(float).eps


class LanczosNoConvergence(RuntimeError):
    """The top-2 Lanczos solver reached its step cap before both pairs converged."""


def _lanczos_top2(matvec, dim: int, rng: np.random.Generator, tol: float,
                  max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Top-2 eigenpairs (largest algebraic) of a symmetric operator on R^dim.

    Lanczos from q_1 = v0/|v0|, v0 = rng.standard_normal(dim), never restarted:
    after the three-term recurrence each step projects its vector off the
    whole stored basis, and once more when that pass removes more than
    1 - 1/sqrt(2) of the norm (twice is enough), so the basis stays
    orthonormal to working precision and T_m = Q_m^T A Q_m is tridiagonal.
    Every `_CHECK_EVERY` steps the two largest Ritz pairs (theta_i, s_i) of
    T_m face ARPACK's rule beta_m |s_{m,i}| <= tol max(eps^(2/3), |theta_i|);
    tol <= 0 means eps, as in ARPACK.  A Krylov space that is invariant (m = dim, or beta_m at rounding
    level) holds exact eigenpairs and ends the loop; at m = 1 it continues
    from a fresh rng vector instead, with beta_1 = 0.  At most
    min(dim, max_iter) steps, one matvec each; the basis grows by `_CHUNK`
    rows up to that many.  Returns the Ritz values (largest first), the
    Ritz vectors as the columns of a (dim, 2) array, and the step count.
    """
    cap = min(dim, max_iter)
    if cap < 2:
        raise ValueError(f"top-2 Lanczos needs dimension and max_iter >= 2 "
                         f"(got {dim} and {max_iter})")
    tol = tol if tol > 0 else _EPS
    Q = np.empty((min(cap, _CHUNK), dim))
    v0 = rng.standard_normal(dim)
    Q[0] = v0 / np.linalg.norm(v0)
    alpha, beta = [], []
    anorm = 0.0
    m = 0
    while True:
        w = matvec(Q[m])
        anorm = max(anorm, np.linalg.norm(w))
        a = Q[m] @ w
        w = w - a * Q[m]
        if m:
            w -= beta[-1] * Q[m - 1]
        m += 1
        basis = Q[:m]
        for _ in range(2):
            wnorm = np.linalg.norm(w)
            c = basis @ w
            w -= basis.T @ c
            a += c[-1]
            rnorm = np.linalg.norm(w)
            if rnorm >= wnorm / math.sqrt(2.0):
                break
        alpha.append(a)
        invariant = m == dim or rnorm <= dim * _EPS * anorm
        if invariant and m == 1:
            w = rng.standard_normal(dim)
            w -= Q[0] * (Q[0] @ w)
            rnorm, invariant = 0.0, False
        if m >= 2 and (invariant or m == cap or m % _CHECK_EVERY == 0):
            theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta),
                                        select="i", select_range=(m - 2, m - 1))
            theta, s = theta[::-1], s[:, ::-1]
            rel = rnorm * np.abs(s[-1]) / np.maximum(_EPS ** (2 / 3), np.abs(theta))
            if invariant or np.all(rel <= tol):
                return theta, basis.T @ s, m
            if m == cap:
                raise LanczosNoConvergence(
                    f"top-2 Lanczos did not converge in {cap} steps: worst Ritz "
                    f"estimate beta_m |s_m,i| / |theta_i| = {rel.max():.3g} "
                    f"> tol = {tol:g}")
        if m == Q.shape[0]:
            Q = np.concatenate([Q, np.empty((min(cap, m + _CHUNK) - m, dim))])
        beta.append(rnorm)
        Q[m] = w / np.linalg.norm(w)


@dataclass
class SpectralResult:
    eigenvalues: tuple           # (first, second); an absent pair is None
    eigenvector: np.ndarray      # normalized to |v|^2 = p
    overlap_sq: float | None
    iters: int
    residuals: tuple = ()


def _normalize_to_p(x: np.ndarray, p: int) -> np.ndarray:
    return x * math.sqrt(p) / np.linalg.norm(x)


def _overlap_sq(v: np.ndarray, truth: np.ndarray | None) -> float | None:
    if truth is None:
        return None
    p = len(v)
    return float(v @ truth) ** 2 / p ** 2


def leading_eigs(op: LampOperator, truth: np.ndarray | None = None,
                 tol: float = 1e-8, max_iter: int = _MAX_STEPS,
                 seed: int = 0) -> SpectralResult:
    """Top-2 eigenpairs of the LAMP operator, largest first.

    `_lanczos_top2` on the symmetric F^T M F / Delta (K = F F^T), mapped back
    to Gamma's eigenvectors through F.  `max_iter` caps the Lanczos steps
    (the cap is min(dim, max_iter), dim = `op.factor_dim()`, and the basis
    takes at most 8 dim min(dim, max_iter) bytes); `iters` counts the
    operator applications, one per step.  There is no other path: an
    operator without a PSD preconditioner cannot be built (`LampCoeffs`
    rejects anything but a >= b >= 0, `build_cov_lamp` a Sigma_hat that is
    not symmetric PSD).

    When F has a null space (a rank-deficient Sigma_hat) and the second Ritz
    vector y lies in it, F y is rounding noise, not an eigenvector of Gamma:
    with |F y|^2 <= dim eps |F y_1|^2 the second eigenvalue and residual are
    None.  Only a Ritz vector in null(F), whose Ritz value is 0 to rounding,
    meets that test.
    """
    def matvec(y):
        return op.factor_rapply(op.data_apply(op.factor_apply(y))) / op.delta

    dim = op.factor_dim()
    vals, vecs, iters = _lanczos_top2(matvec, dim, make_rng(seed), tol, max_iter)
    first = op.factor_apply(vecs[:, 0])
    second = op.factor_apply(vecs[:, 1])
    top = _normalize_to_p(first, op.p)
    pairs = [(vals[0], top)]
    if np.linalg.norm(second) ** 2 > dim * _EPS * np.linalg.norm(first) ** 2:
        pairs.append((vals[1], second))
    eigenvalues, residuals = [None, None], [None, None]
    for i, (lam, vec) in enumerate(pairs):
        eigenvalues[i] = float(lam)
        residuals[i] = float(np.linalg.norm(op.apply(vec) - lam * vec)
                             / np.linalg.norm(vec))
    return SpectralResult(eigenvalues=tuple(eigenvalues), eigenvector=top,
                          overlap_sq=_overlap_sq(top, truth), iters=iters,
                          residuals=tuple(residuals))


def pca_estimate(inst: SpikedInstance, seed: int = 0,
                 tol: float = 1e-10) -> SpectralResult:
    """Leading eigenpair of Y/sqrt(p) (Wigner) or top right-singular pair (Wishart)."""
    p = inst.p
    data = gram(inst)
    vals, vecs, iters = _lanczos_top2(data, p, make_rng(seed), tol, _MAX_STEPS)
    res = [float(np.linalg.norm(data(vecs[:, i]) - vals[i] * vecs[:, i]))
           for i in range(2)]
    if isinstance(inst.model, Wishart):
        vals = np.sqrt(np.clip(vals, 0.0, None))   # singular values of Y/sqrt(p)
    top = _normalize_to_p(vecs[:, 0], p)
    return SpectralResult(eigenvalues=(float(vals[0]), float(vals[1])),
                          eigenvector=top,
                          overlap_sq=_overlap_sq(top, inst.v_star),
                          iters=iters, residuals=tuple(res))
