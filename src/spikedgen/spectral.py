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
whose eigenvectors map back through F.  A Wigner Y is read through its
lower triangle alone (`_lower_product`), the part `priors.sample_wigner`
stores.  One Lanczos recurrence, `_lanczos_steps`, finds the top two
eigenpairs for LAMP, covariance-LAMP and PCA: it never restarts, keeps its
whole basis orthonormal, and stops by ARPACK's rule.  It is driven one step
at a time: alone (`_lanczos_top2`), or, for LAMP and PCA on one instance, in
lockstep (`lamp_and_pca`).  There LAMP's F y and PCA's q go through the data
as one 2 x p block of rows, x G, so both share each read of Y.  Row
layout is what makes that pay: on a 6000 x 4000 Wishart Y and 2 cores,
(x Y^T) Y takes about 27 ms for two rows, against 38 ms for two vector
products and 56 ms for the same two vectors as p x 2 columns, Y^T (Y x).
Inputs without that structure are rejected at construction: `LampCoeffs`
unless a >= b >= 0, and `build_cov_lamp` unless Sigma_hat is symmetric PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .priors import (Activation, GenerativeModel, SeparablePrior,
                     SpikedInstance, Wigner, Wishart, lazy_array, make_rng,
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


def lamp_factor_dim(coeffs: LampCoeffs, p: int, k: int) -> int:
    """Columns of the factor F of the LAMP preconditioner K = F F^T.

    K = (a - b) I + b W W^T / k: F = sqrt(b/k) W when a = b (k columns),
    else [sqrt(a - b) I, sqrt(b/k) W] (p + k columns).
    """
    return k if coeffs.a == coeffs.b else p + k


@dataclass
class LampOperator:
    """Matrix-free Gamma = precond . M / Delta, M = scale * data - shift * I."""

    p: int
    k: int
    delta: float
    coeffs: LampCoeffs
    W: np.ndarray | None          # None for covariance-LAMP
    data: callable                # the data operator G of `gram`
    scale: float
    shift: float
    sigma: np.ndarray | None = None         # covariance preconditioner (cov-LAMP)
    sigma_factor: np.ndarray | None = None  # F with F F^T = sigma

    def data_apply(self, x: np.ndarray) -> np.ndarray:
        """M x, the symmetric data part."""
        return self.scale * self.data(x) - self.shift * x

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
        return lamp_factor_dim(self.coeffs, self.p, self.k)

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


# rows per panel of `_lower_product`: on 2 cores at p = 4000, panels of 1024
# rows made the LAMP matvec as fast as one dense gemv of the full Y, and
# panels of 512 rows made it 6% slower
_PANEL = 1024


def _lower_product(Y: np.ndarray):
    """x -> Y x for a symmetric Y, reading only its lower triangle L = tril(Y).

    y = L x + L^T x - diag(Y) x, by row panels of `_PANEL` rows: the part of
    a panel left of its diagonal tile is read twice per product, for its
    rows of L x and its columns of L^T x, and each diagonal tile is made
    symmetric from its lower triangle once, when the product is built
    (`lower_product_bytes`).  x may be a vector or a p x m matrix of columns.
    With rows=True, x is an m x p block of rows and the product is x Y, the
    same panels worked in row layout: there each panel meets all m rows in
    one matrix product, so two rows cost well under two vectors (the
    lockstep LAMP and PCA solve of `lamp_and_pca`): at p = 8000 on 2 cores,
    39 ms against 56 ms for two vectors and 81 ms for the same two as a
    p x 2 matrix of columns.  The products are
    numpy's, like every other product of the Lanczos loop, so the loop stays
    on one BLAS library.
    """
    p = Y.shape[0]
    panels = []
    for start in range(0, p, _PANEL):
        band = slice(start, min(start + _PANEL, p))
        tile = np.tril(Y[band, band])
        tile += np.tril(tile, -1).T
        panels.append((band, Y[band, :start], tile))

    def product(x, rows=False):
        y = np.empty(np.shape(x))
        for band, left, tile in panels:
            if rows:
                y[:, band] = x[:, :band.start] @ left.T + x[:, band] @ tile
                y[:, :band.start] += x[:, band] @ left
            else:
                y[band] = left @ x[:band.start] + tile @ x[band]
                y[:band.start] += left.T @ x[band]
        return y

    return product


def lower_product_bytes(p: int) -> int:
    """Bytes `_lower_product` allocates for a p x p Y.

    Its diagonal tiles, at most 8 _PANEL p bytes, and the one temporary
    tile each is built through.
    """
    side = min(_PANEL, p)
    return 8 * side * (p + side)


def _wigner_gram(Y: np.ndarray):
    sp, product = math.sqrt(Y.shape[0]), _lower_product(Y)
    return lambda x, rows=False: product(x, rows) / sp


def gram(inst: SpikedInstance):
    """The data operator G: x -> Y x / sqrt(p) (Wigner) or Y^T (Y x) / p (Wishart).

    PCA takes its leading eigenpairs; `build_lamp` scales and shifts it.  The
    Wigner operator reads only Y's lower triangle (`_lower_product`).  With
    rows=True it takes an m x p block of rows x and returns x G, for Wishart
    as (x Y^T) Y / p: all m rows share each read of Y.
    """
    if isinstance(inst.model, Wigner):
        return _wigner_gram(inst.Y)
    Y, p = inst.Y, inst.p

    def data(x, rows=False):
        return (x @ Y.T) @ Y / p if rows else Y.T @ (Y @ x) / p

    return data


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
    return LampOperator(p=gm.p, k=gm.k, delta=inst.delta, coeffs=coeffs,
                        W=gm.W, data=gram(inst), scale=scale, shift=shift)


def empirical_covariance(spikes: np.ndarray) -> np.ndarray:
    """Plain second-moment matrix (1/n) sum v v^T over rows of `spikes`."""
    n = spikes.shape[0]
    return spikes.T @ spikes / n


def build_cov_lamp(Y: np.ndarray, sigma_hat: np.ndarray, delta: float) -> LampOperator:
    """Gamma = (1/Delta) Sigma_hat (Y/sqrt(p) - I), Sigma_hat estimated from spikes.

    Y is a Wigner observation, read through its lower triangle alone, as by
    `gram`.
    """
    p = Y.shape[0]
    if sigma_hat.shape != (p, p):
        raise ValueError("covariance/observation dimension mismatch")
    if not np.allclose(sigma_hat, sigma_hat.T, atol=1e-10):
        raise ValueError("Sigma_hat must be symmetric")
    vals, vecs = np.linalg.eigh(sigma_hat)
    if vals.min() < -1e-10 * max(1.0, vals.max()):
        raise ValueError("Sigma_hat must be positive semidefinite")
    return LampOperator(p=p, k=p, delta=delta, coeffs=LampCoeffs(a=1.0, b=1.0),
                        W=None, data=_wigner_gram(Y), scale=1.0, shift=1.0,
                        sigma=sigma_hat,
                        sigma_factor=vecs * np.sqrt(np.clip(vals, 0.0, None)))


# ---------------------------------------------------------------------------
# eigen-solvers
# ---------------------------------------------------------------------------

_MAX_STEPS = 1000    # default Lanczos step cap (the cap is min(dim, max_iter))
_CHECK_EVERY = 4     # Lanczos steps between two convergence checks on T_m
_EPS = np.finfo(float).eps


def lanczos_basis_bytes(dim: int, max_iter: int = _MAX_STEPS) -> int:
    """Largest Lanczos basis of a top-2 solve on R^dim: 8 dim min(dim, max_iter)."""
    return 8 * dim * min(dim, max_iter)


class LanczosNoConvergence(RuntimeError):
    """The top-2 Lanczos solver reached its step cap before both pairs converged."""


def _lanczos_steps(dim: int, rng: np.random.Generator, tol: float, max_iter: int):
    """Top-2 eigenpairs (largest algebraic) of a symmetric A on R^dim, a step at a time.

    A generator: it yields each Lanczos vector q_m, is sent A q_m back, and
    returns the Ritz values (largest first), the Ritz vectors as the columns
    of a (dim, 2) array, and the step count.  `_lanczos_top2` drives it with
    one matvec; `lamp_and_pca` drives two of them in lockstep.

    Lanczos from q_1 = v0/|v0|, v0 = rng.standard_normal(dim), never restarted:
    after the three-term recurrence each step projects its vector off the
    whole stored basis, and once more when that pass removes more than
    1 - 1/sqrt(2) of the norm (twice is enough), so the basis stays
    orthonormal to working precision and T_m = Q_m^T A Q_m is tridiagonal.
    Every `_CHECK_EVERY` steps the two largest Ritz pairs (theta_i, s_i) of
    T_m face ARPACK's rule beta_m |s_{m,i}| <= tol max(eps^(2/3), |theta_i|);
    tol = 0 means eps, as in ARPACK, and a negative or non-finite tol is
    refused.  A Krylov space that is invariant (m = dim, or beta_m at
    rounding level) holds exact eigenpairs and ends the loop; at m = 1 it
    continues from a fresh rng vector instead, with beta_1 = 0.  At most
    cap = min(dim, max_iter) steps, one matvec each.  The basis is one
    cap x dim array that is never copied, on a mapping without huge pages
    (`priors.lazy_array`): its pages become resident only when a step writes
    them, so a solve of m steps holds 8 m dim bytes of it, rounded up to a
    4 KiB page, and never more than `lanczos_basis_bytes(dim, max_iter)`.
    Two solves in lockstep hold both bases at once.
    """
    cap = min(dim, max_iter)
    if cap < 2:
        raise ValueError(f"top-2 Lanczos needs dimension and max_iter >= 2 "
                         f"(got {dim} and {max_iter})")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative (got {tol})")
    tol = tol or _EPS
    Q, _ = lazy_array(cap, dim)
    v0 = rng.standard_normal(dim)
    Q[0] = v0 / np.linalg.norm(v0)
    alpha, beta = [], []
    anorm = 0.0
    m = 0
    while True:
        w = yield Q[m]
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
        beta.append(rnorm)
        Q[m] = w / np.linalg.norm(w)


def _advance(steps, w):
    """Send A q to a recurrence: (its next vector, None), or (None, its result)."""
    try:
        return steps.send(w), None
    except StopIteration as stop:
        return None, stop.value


def _finish(steps, matvec, q):
    """Answer each vector of a recurrence that has just yielded q; its result."""
    result = None
    while result is None:
        q, result = _advance(steps, matvec(q))
    return result


def _lanczos_top2(matvec, dim: int, rng: np.random.Generator, tol: float,
                  max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """`_lanczos_steps` driven alone: (Ritz values, Ritz vectors, steps)."""
    steps = _lanczos_steps(dim, rng, tol, max_iter)
    return _finish(steps, matvec, next(steps))


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


def _lamp_matvec(op: LampOperator):
    """y -> F^T M F y / Delta, the symmetric form of Gamma (K = F F^T)."""
    return lambda y: op.factor_rapply(op.data_apply(op.factor_apply(y))) / op.delta


def _lamp_result(op: LampOperator, solved, truth) -> SpectralResult:
    """Gamma's eigenpairs from the Ritz pairs of F^T M F / Delta (`leading_eigs`)."""
    vals, vecs, iters = solved
    dim = op.factor_dim()
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


def _pca_result(inst: SpikedInstance, data, solved) -> SpectralResult:
    """PCA's record from the Ritz pairs of G (`pca_estimate`)."""
    vals, vecs, iters = solved
    p = inst.p
    res = [float(np.linalg.norm(data(vecs[:, i]) - vals[i] * vecs[:, i]))
           for i in range(2)]
    if isinstance(inst.model, Wishart):
        vals = np.sqrt(np.clip(vals, 0.0, None))   # singular values of Y/sqrt(p)
    top = _normalize_to_p(vecs[:, 0], p)
    return SpectralResult(eigenvalues=(float(vals[0]), float(vals[1])),
                          eigenvector=top,
                          overlap_sq=_overlap_sq(top, inst.v_star),
                          iters=iters, residuals=tuple(res))


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
    solved = _lanczos_top2(_lamp_matvec(op), op.factor_dim(), make_rng(seed), tol,
                           max_iter)
    return _lamp_result(op, solved, truth)


def pca_estimate(inst: SpikedInstance, seed: int = 0,
                 tol: float = 1e-10) -> SpectralResult:
    """Leading eigenpair of Y/sqrt(p) (Wigner) or top right-singular pair (Wishart)."""
    data = gram(inst)
    return _pca_result(inst, data,
                       _lanczos_top2(data, inst.p, make_rng(seed), tol, _MAX_STEPS))


def lamp_and_pca(inst: SpikedInstance, gm: GenerativeModel, coeffs: LampCoeffs,
                 tol: float = 1e-8, lamp_seed: int = 0, pca_seed: int = 0,
                 max_iter: int = _MAX_STEPS) -> tuple[SpectralResult, SpectralResult]:
    """`leading_eigs(build_lamp(...))` and `pca_estimate` on one instance, in lockstep.

    The two Lanczos recurrences run step by step side by side, so that each
    step reads Y for both at once: LAMP's F y and PCA's q are stacked as a
    2 x p block of rows, which goes through one row-layout product x G
    (`gram`); then LAMP applies its scale, shift, F^T and 1/Delta, and PCA
    takes its row as it is.  Once one side converges, the other goes on
    alone with its own vector product.  Each side has its own rng and the
    same tol and step cap (`max_iter`) as its lone solve, and a
    `LanczosNoConvergence` from either side propagates.  The row product
    sums in another order than the vector one, so the results match the
    lone solves to rounding, not bit for bit.  The two bases are resident
    together, and on a Wigner Y the two sides share one set of product
    tiles.
    """
    op = build_lamp(inst, gm, coeffs)
    lamp_steps = _lanczos_steps(op.factor_dim(), make_rng(lamp_seed), tol, max_iter)
    pca_steps = _lanczos_steps(inst.p, make_rng(pca_seed), tol, max_iter)
    y, q = next(lamp_steps), next(pca_steps)
    lamp = pca = None
    while lamp is None and pca is None:
        x = np.stack([op.factor_apply(y), q])
        gx = op.data(x, rows=True)
        y, lamp = _advance(lamp_steps, op.factor_rapply(op.scale * gx[0]
                                                        - op.shift * x[0]) / op.delta)
        q, pca = _advance(pca_steps, gx[1])
    if lamp is None:
        lamp = _finish(lamp_steps, _lamp_matvec(op), y)
    if pca is None:
        pca = _finish(pca_steps, op.data, q)
    return _lamp_result(op, lamp, inst.v_star), _pca_result(inst, op.data, pca)
