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
preconditioner is PSD: K = F F^T, and `LampOperator` holds it only as F.
Gamma then shares its nonzero spectrum with the symmetric F^T M F / Delta,
whose eigenvectors map back through F.  Inputs without that structure are
rejected at construction: `LampCoeffs` unless a >= b >= 0, and
`build_cov_lamp` unless Sigma_hat is symmetric PSD.

G has one layout: it takes an m x p block of rows x and returns x G, made
by row passes over Y (`DataOperator`): one for Wigner, whose Y is read
through its lower triangle alone, the part `priors.sample_wigner` stores,
and two for Wishart, x -> x Y^T and then t -> t Y.  One Lanczos
recurrence, `_lanczos_steps`, finds the top two eigenpairs for LAMP,
covariance-LAMP and PCA: it never restarts, keeps its whole basis
orthonormal, and stops by ARPACK's rule.  One loop, `_lockstep`, runs any
number of recurrences on one G a step at a time, stacking the rows of
those still running into one block per pass, and a lone solve is the same
loop with one side.  A Lanczos side puts its row through every pass; AMP
(`amp.steps`) is a side too: Wigner AMP puts v_hat through the one pass, and
Wishart AMP v_hat into the first pass and u_hat into the second.  So AMP,
LAMP and PCA on one Wishart Y share each pair of passes.

Every product of the loop is on scipy's BLAS, on the Fortran-ordered `.T`
view of a C-ordered matrix, so that f2py copies none: the Wishart passes
over Y, F and F^T, the Lanczos projections and AMP's products with W
(`gemv`: dgemv for one row, dgemm for a block), and the Wigner pass
(`symv`: dsymv, one call per row).  One library for all of them, because
numpy and scipy link two OpenBLAS builds whose idle thread pools slow each
other's calls down (see `amp`).  On 2 cores a Wishart pass costs less per
row the more rows it stacks: on a 6000 x 4000 Y, (x Y^T) Y takes 14, 24,
28, 29 and 33 ms for 1, 2, 3, 4 and 8 rows (medians of 25), within 7% of
numpy's products on 2 to 4 rows.  A Wigner row costs one dsymv over half
of Y: at p = 8000, 9-11 ms for one row and 18-22 ms for two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, eigh_tridiagonal

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
    """Matrix-free Gamma = F F^T M / Delta, M = scale * G - shift * I.

    The preconditioner K = F F^T is held only as its factor F = [c I, w W]:
    c = sqrt(a - b) and w = sqrt(b/k) for generative LAMP, where the
    identity block drops out when a = b (c = 0), and for covariance-LAMP
    c = 0, w = 1 and W a square root of Sigma_hat.  Every map takes and gives
    blocks of rows, as the data operator G of `gram` does; F and F^T also
    take one vector.
    """

    p: int
    delta: float
    W: np.ndarray        # F's last block, p x r
    w: float             # its weight
    c: float             # weight of F's identity block; 0 means no such block
    data: DataOperator   # the data operator G of `gram`
    scale: float
    shift: float

    def factor_dim(self) -> int:
        return self.W.shape[1] + (self.p if self.c else 0)

    def factor_apply(self, y: np.ndarray) -> np.ndarray:
        """Rows of F y, for rows y of length `factor_dim()`."""
        if not self.c:
            return self.w * gemv(self.W, y)
        return self.c * y[..., :self.p] + self.w * gemv(self.W, y[..., self.p:])

    def factor_rapply(self, x: np.ndarray) -> np.ndarray:
        """Rows of F^T x."""
        fx = self.w * gemv(self.W, x, trans=True)
        return np.concatenate([self.c * x, fx], axis=-1) if self.c else fx

    def reduce(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        """F^T M x / Delta from the rows x and x G."""
        return self.factor_rapply(self.scale * gx - self.shift * x) / self.delta

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Rows of Gamma x."""
        return self.factor_apply(self.reduce(x, self.data(x)))


def gemv(A: np.ndarray, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """A x, or A^T x, for a C-ordered A, on scipy's BLAS.

    For one vector x, or one row, dgemv; for a block of rows x, dgemm, whose
    rows are then those of x A^T, or x A.  Both take the F-ordered view A.T,
    so f2py copies no matrix.  One row on dgemm would cost about 1.7 dgemv
    (12 ms against 7 on a 6000 x 4000 A, 2 cores).
    """
    if x.ndim == 2 and len(x) == 1:
        return gemv(A, x[0], trans)[None]
    if x.ndim == 1:
        return blas.dgemv(1.0, A.T, x, trans=0 if trans else 1)
    return blas.dgemm(1.0, A.T, x.T, trans_a=0 if trans else 1).T


def symv(Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Y x, or the rows of x Y, for the symmetric Y whose lower triangle the
    C-ordered Y holds: dsymv on the upper triangle of the F-ordered Y.T, one
    call per row."""
    if x.ndim == 2:
        return np.array([symv(Y, row) for row in x])
    return blas.dsymv(1.0, Y.T, x)


@dataclass(frozen=True)
class DataOperator:
    """The data operator G = P / norm on an m x p block of rows, where P
    applies the row products `passes` in turn.

    Every product takes a block of rows and all of them share each read of
    Y.  `_lockstep` drives the passes one at a time, so that a side can
    also put its own rows into a later pass.
    """

    passes: tuple
    norm: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for product in self.passes:
            x = product(x)
        return x / self.norm


def _wigner_gram(Y: np.ndarray) -> DataOperator:
    Y = np.ascontiguousarray(Y)
    return DataOperator((lambda x: symv(Y, x),), math.sqrt(Y.shape[0]))


def gram(inst: SpikedInstance) -> DataOperator:
    """The data operator G on an m x p block of rows x: x -> x G.

    G = Y/sqrt(p) (Wigner, one pass, read from Y's lower triangle alone by
    `symv`) or Y^T Y / p (Wishart, two passes: x -> x Y^T, then
    t -> t Y, and the division by p).  PCA takes G's leading eigenpairs;
    `build_lamp` scales and shifts it.
    """
    if isinstance(inst.model, Wigner):
        return _wigner_gram(inst.Y)
    Y = np.ascontiguousarray(inst.Y)
    return DataOperator((lambda x: gemv(Y, x), lambda t: gemv(Y, t, trans=True)), inst.p)


def build_lamp(inst: SpikedInstance, gm: GenerativeModel,
               coeffs: LampCoeffs) -> LampOperator:
    """LAMP on M = scale * gram - shift * I (scale 1 and shift a for Wigner)."""
    if inst.Y.shape[1] != gm.p:
        raise ValueError("instance/model dimension mismatch")
    a, b = coeffs.a, coeffs.b
    scale, shift = 1.0, a
    if isinstance(inst.model, Wishart):
        if coeffs.d is None:
            raise ValueError("Wishart LAMP needs the d coefficient (rho_u)")
        scale, shift = 1.0 / (a + inst.delta / coeffs.d), coeffs.d * inst.beta
    return LampOperator(p=gm.p, delta=inst.delta, W=np.ascontiguousarray(gm.W),
                        w=math.sqrt(b / gm.k),
                        c=math.sqrt(a - b), data=gram(inst), scale=scale, shift=shift)


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
    return LampOperator(p=p, delta=delta, W=vecs * np.sqrt(np.clip(vals, 0.0, None)),
                        w=1.0, c=0.0, data=_wigner_gram(Y), scale=1.0, shift=1.0)


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
    returns the Ritz values (largest first), the Ritz vectors as the rows of
    a (2, dim) array, and the step count.  `_lockstep` drives one or more
    of them.

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
            c = gemv(basis, w)
            w -= gemv(basis, c, trans=True)
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
                return theta, gemv(basis, s.T, trans=True), m
            if m == cap:
                raise LanczosNoConvergence(
                    f"top-2 Lanczos did not converge in {cap} steps: worst Ritz "
                    f"estimate beta_m |s_m,i| / |theta_i| = {rel.max():.3g} "
                    f"> tol = {tol:g}")
        beta.append(rnorm)
        Q[m] = w / np.linalg.norm(w)


def _lanczos_side(steps, data: DataOperator, out, back, finish):
    """A `_lanczos_steps` recurrence as a side of `_lockstep`.

    Its vector q goes in as one row x = out(q), which runs through every
    pass of `data` in turn; back(x, x G) goes back to the recurrence, and
    finish maps its (Ritz values, Ritz vectors, steps) to the side's result.
    """
    q = next(steps)
    while True:
        x = out(q)
        outs = yield (x,)
        try:
            q = steps.send(back(x, outs[-1] / data.norm))
        except StopIteration as stop:
            return finish(stop.value)


def _lamp_side(op: LampOperator, seed: int, tol: float, max_iter: int, truth=None):
    """LAMP's side: A = F^T M F / Delta, out through F, back through `op.reduce`."""
    return _lanczos_side(_lanczos_steps(op.factor_dim(), make_rng(seed), tol, max_iter),
                         op.data, op.factor_apply, op.reduce,
                         lambda solved: _lamp_result(op, solved, truth))


def _pca_side(inst: SpikedInstance, data: DataOperator, seed: int, tol: float,
              max_iter: int):
    """PCA's side: A = G, the data operator `data` of `inst`."""
    return _lanczos_side(_lanczos_steps(inst.p, make_rng(seed), tol, max_iter), data,
                         lambda q: q, lambda x, gx: gx,
                         lambda solved: _pca_result(inst, data, solved))


def _lockstep(data: DataOperator, sides) -> list:
    """Run recurrences side by side on the passes of one data operator; their results.

    Each side is a generator.  At every step it yields its rows, one for
    each pass of `data` or fewer: a side that gives fewer rows puts its
    output of one pass into the next as its row there.  It is then sent its
    outputs, one per pass, and its return value is its result.  A Lanczos
    side (`_lanczos_side`) gives one row and so runs it through all of G; an
    AMP side (`amp.steps`) on a Wishart Y gives v_hat to the first pass and
    u_hat to the second, and is sent Y v_hat and Y^T u_hat.  The rows
    of the sides still running are stacked into one block per pass, so they
    all share each read of Y.  A side that stops drops out and the others go
    on with fewer rows.  An exception of any side propagates.  With one side
    this is the lone solve.
    """
    rows = [next(side) for side in sides]
    results = {}
    while running := [i for i in range(len(sides)) if i not in results]:
        outs = [[] for _ in running]
        for j, product in enumerate(data.passes):
            x = np.stack([rows[i][j] if j < len(rows[i]) else out[-1]
                          for i, out in zip(running, outs)])
            for out, y in zip(outs, product(x)):
                out.append(y)
        for i, out in zip(running, outs):
            try:
                rows[i] = sides[i].send(out)
            except StopIteration as stop:
                results[i] = stop.value
    return [results[i] for i in range(len(sides))]


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


def _lamp_result(op: LampOperator, solved, truth) -> SpectralResult:
    """Gamma's eigenpairs from the Ritz pairs of F^T M F / Delta (`leading_eigs`).

    The eigenvectors F y_i and their residuals |Gamma v - lambda v| / |v|
    come as rows, the residuals through one product with G.
    """
    vals, vecs, iters = solved
    x = op.factor_apply(vecs)
    norms = np.linalg.norm(x, axis=1)
    kept = 1 + (norms[1] ** 2 > op.factor_dim() * _EPS * norms[0] ** 2)
    x, vals = x[:kept], vals[:kept]
    res = np.linalg.norm(op.apply(x) - vals[:, None] * x, axis=1) / norms[:kept]
    pad = (None,) * (2 - kept)
    top = _normalize_to_p(x[0], op.p)
    return SpectralResult(eigenvalues=tuple(map(float, vals)) + pad, eigenvector=top,
                          overlap_sq=_overlap_sq(top, truth), iters=iters,
                          residuals=tuple(map(float, res)) + pad)


def _pca_result(inst: SpikedInstance, data, solved) -> SpectralResult:
    """PCA's record from the Ritz pairs of G (`pca_estimate`), both residuals
    through one product with G."""
    vals, q, iters = solved
    res = np.linalg.norm(data(q) - vals[:, None] * q, axis=1)
    if isinstance(inst.model, Wishart):
        vals = np.sqrt(np.clip(vals, 0.0, None))   # singular values of Y/sqrt(p)
    top = _normalize_to_p(q[0], inst.p)
    return SpectralResult(eigenvalues=(float(vals[0]), float(vals[1])),
                          eigenvector=top,
                          overlap_sq=_overlap_sq(top, inst.v_star),
                          iters=iters, residuals=tuple(map(float, res)))


def leading_eigs(op: LampOperator, truth: np.ndarray | None = None,
                 tol: float = 1e-8, max_iter: int = _MAX_STEPS,
                 seed: int = 0) -> SpectralResult:
    """Top-2 eigenpairs of the LAMP operator, largest first.

    `_lockstep` with LAMP's side alone: Lanczos on the symmetric
    F^T M F / Delta (K = F F^T), mapped back to Gamma's eigenvectors
    through F.  `max_iter` caps the Lanczos steps (the cap is
    min(dim, max_iter), dim = `op.factor_dim()`, and the basis takes at most
    8 dim min(dim, max_iter) bytes); `iters` counts the operator
    applications, one per step.  There is no other path: an operator
    without a PSD preconditioner cannot be built (`LampCoeffs` rejects
    anything but a >= b >= 0, `build_cov_lamp` a Sigma_hat that is not
    symmetric PSD).

    When F has a null space (a rank-deficient Sigma_hat) and the second Ritz
    vector y lies in it, F y is rounding noise, not an eigenvector of Gamma:
    with |F y|^2 <= dim eps |F y_1|^2 the second eigenvalue and residual are
    None.  Only a Ritz vector in null(F), whose Ritz value is 0 to rounding,
    meets that test.
    """
    return _lockstep(op.data, [_lamp_side(op, seed, tol, max_iter, truth)])[0]


def pca_estimate(inst: SpikedInstance, seed: int = 0,
                 tol: float = 1e-10) -> SpectralResult:
    """Leading eigenpair of Y/sqrt(p) (Wigner) or top right-singular pair (Wishart)."""
    data = gram(inst)
    return _lockstep(data, [_pca_side(inst, data, seed, tol, _MAX_STEPS)])[0]


def solve(inst: SpikedInstance, methods=(), gm: GenerativeModel | None = None,
          coeffs: LampCoeffs | None = None, tol: float = 1e-8, lamp_seed: int = 0,
          pca_seed: int = 0, max_iter: int = _MAX_STEPS, sides=None) -> dict:
    """The results of `methods`, any of "lamp" and "pca", and of `sides`, by name.

    One `_lockstep` solve: LAMP (`leading_eigs(build_lamp(inst, gm,
    coeffs))`), PCA (`pca_estimate`) and the further `sides`, a dict of
    `_lockstep` sides by name (AMP, `amp.steps`), share each pass over Y.
    Each Lanczos side has its own rng and the same tol and step cap
    (`max_iter`) as its lone solve, and takes the same steps; the stacked
    products sum in another order than a lone one, so the results match the
    lone solves to rounding, not bit for bit (on a Wigner Y, where each row
    has its own dsymv, they match bit for bit).  The two bases are resident
    together; the passes hold nothing but their rows.
    """
    op = build_lamp(inst, gm, coeffs) if "lamp" in methods else None
    data = op.data if op else gram(inst)
    sides = dict(sides or {})
    if op:
        sides["lamp"] = _lamp_side(op, lamp_seed, tol, max_iter, inst.v_star)
    if "pca" in methods:
        sides["pca"] = _pca_side(inst, data, pca_seed, tol, max_iter)
    return dict(zip(sides, _lockstep(data, list(sides.values()))))
