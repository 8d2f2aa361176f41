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
whose eigenvectors map back through F, and Lanczos (`eigsh`) finds them.
Inputs without that structure are rejected at construction: `LampCoeffs`
unless a >= b >= 0, and `build_cov_lamp` unless Sigma_hat is symmetric PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .priors import (Activation, GenerativeModel, SeparablePrior,
                     SpikedInstance, Wigner, Wishart, make_rng,
                     null_channel_moments)

DENSE_CUTOFF = 4000


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
    """Matrix-free Gamma = precond . data / Delta with optional dense assembly."""

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

    # -- dense assembly ------------------------------------------------------
    def dense(self) -> np.ndarray:
        if self.p > DENSE_CUTOFF:
            raise ValueError(f"dense assembly limited to p <= {DENSE_CUTOFF}")
        m = self.data_apply(np.eye(self.p))
        return self.precond_apply(m) / self.delta


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

@dataclass
class SpectralResult:
    eigenvalues: tuple
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
                 tol: float = 1e-8, max_iter: int = 10000,
                 seed: int = 0) -> SpectralResult:
    """Top-2 eigenpairs of the LAMP operator, largest first.

    Lanczos on the symmetric F^T M F / Delta (K = F F^T), mapped back to
    Gamma's eigenvectors through F; `iters` counts the Lanczos matvecs.
    There is no other path: an operator without a PSD preconditioner cannot
    be built (`LampCoeffs` rejects anything but a >= b >= 0, `build_cov_lamp`
    a Sigma_hat that is not symmetric PSD).
    """
    dim = op.factor_dim()
    count = [0]

    def matvec(y):
        count[0] += 1
        return op.factor_rapply(op.data_apply(op.factor_apply(y))) / op.delta

    lin = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    v0 = make_rng(seed).standard_normal(dim)
    vals, vecs = eigsh(lin, k=2, which="LA", v0=v0, tol=tol,
                       maxiter=max_iter, ncv=min(dim, 40))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    top = _normalize_to_p(op.factor_apply(vecs[:, order[0]]), op.p)
    second = op.factor_apply(vecs[:, order[1]])
    residuals = []
    for lam, vec in ((vals[0], top), (vals[1], second)):
        nrm = np.linalg.norm(vec)
        residuals.append(float(np.linalg.norm(op.apply(vec) - lam * vec) / nrm))
    return SpectralResult(eigenvalues=(float(vals[0]), float(vals[1])),
                          eigenvector=top, overlap_sq=_overlap_sq(top, truth),
                          iters=count[0], residuals=tuple(residuals))


def pca_estimate(inst: SpikedInstance, seed: int = 0,
                 tol: float = 1e-10) -> SpectralResult:
    """Leading eigenpair of Y/sqrt(p) (Wigner) or top right-singular pair (Wishart)."""
    p = inst.p
    data = gram(inst)
    count = [0]

    def matvec(x):
        count[0] += 1
        return data(x)

    lin = LinearOperator((p, p), matvec=matvec, dtype=float)
    vals, vecs = eigsh(lin, k=2, which="LA", v0=make_rng(seed).standard_normal(p),
                       tol=tol)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    res = [float(np.linalg.norm(data(vecs[:, i]) - vals[i] * vecs[:, i]))
           for i in range(2)]
    if isinstance(inst.model, Wishart):
        vals = np.sqrt(np.clip(vals, 0.0, None))   # singular values of Y/sqrt(p)
    top = _normalize_to_p(vecs[:, 0], p)
    return SpectralResult(eigenvalues=(float(vals[0]), float(vals[1])),
                          eigenvector=top,
                          overlap_sq=_overlap_sq(top, inst.v_star),
                          iters=count[0], residuals=tuple(res))
