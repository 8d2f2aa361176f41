"""Generative spike model and spiked Wigner/Wishart instance sampling.

The spike v is produced by a single-layer generative network
v = phi(W z / sqrt(k)) with i.i.d. standard Gaussian weights W, a separable
latent prior on z, and an elementwise activation phi.  Observations are
rank-one deformations of Gaussian noise:

    Wigner:   Y = v v^T / sqrt(p) + sqrt(delta) * xi   (p x p, symmetric)
    Wishart:  Y = u v^T / sqrt(p) + sqrt(delta) * xi   (n x p)

All randomness flows through numpy's counter-based Philox generator so that
every artifact is reproducible from (seed, shape) alone.

The noise samplers build Y in one dense buffer, 8 n p bytes (n = p for
Wigner): a worker thread draws the normals row block by row block, and the
calling thread symmetrises, scales and adds the spike to each block while
the later blocks are drawn.  Y is bit-identical to the dense expressions
above evaluated on one `standard_normal` draw of the whole matrix.
`prefetch_noise` starts that draw early, so that W and the spike are drawn
while the worker fills Y.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy.linalg import eigvalsh_tridiagonal


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based PRNG; independent streams come from distinct seeds."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Gauss-Legendre rules, shared by the priors, channels and rmt quadratures
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], bit for bit numpy's leggauss.

    numpy takes the roots as the eigenvalues of the scaled companion matrix
    with a dense eigensolve: O(n^3) time and, at n = 2048, a 32 MiB matrix.
    That matrix is the symmetric tridiagonal Jacobi matrix, so its eigenvalues
    come here from LAPACK's tridiagonal solver in O(n^2) time and O(n)
    memory; the off-diagonal, the Newton step, the weights, the
    symmetrisation and the normalisation are numpy's, so the result is the
    same.  Each order is built once; the arrays are shared and read-only.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    c = np.zeros(order + 1)
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    x = eigvalsh_tridiagonal(np.zeros(order), np.arange(1, order) * scl[:-1] * scl[1:])
    # one Newton step on the roots, then weights 1 / (L_{n-1} L_n'), scaled
    # against overflow
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# separable scalar priors (latent z, and the Wishart left factor u)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparablePrior:
    """Zero-mean separable prior: 'gauss' N(0, rho) or 'rademacher' +-1.

    `rho` is the second moment E[z^2] (rho_z for the latent, rho_u for the
    Wishart u-factor).  Rademacher forces rho = 1.
    """

    kind: str = "gauss"
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gauss", "rademacher"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.rho <= 0:
            raise ValueError("second moment must be positive")
        if self.kind == "rademacher" and abs(self.rho - 1.0) > 1e-12:
            raise ValueError("rademacher prior has E[z^2] = 1")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gauss":
            return math.sqrt(self.rho) * rng.standard_normal(n)
        return rng.integers(0, 2, size=n) * 2.0 - 1.0


def gauss_prior(rho: float = 1.0) -> SeparablePrior:
    return SeparablePrior("gauss", rho)


def rademacher_prior() -> SeparablePrior:
    return SeparablePrior("rademacher", 1.0)


# ---------------------------------------------------------------------------
# activations / deterministic output channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Activation:
    """Deterministic output channel P_out(v|x) = delta(v - phi(x))."""

    kind: str = "linear"

    def __post_init__(self):
        if self.kind not in ("linear", "sign", "relu"):
            raise ValueError(f"unknown activation {self.kind!r}")

    @property
    def zero_mean_output(self) -> bool:
        """Whether E[v] = 0 under x ~ N(0, rho_z) (phi odd); ReLU fails this."""
        return self.kind != "relu"

    def phi(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return np.asarray(x, dtype=float)
        if self.kind == "sign":
            return np.where(np.asarray(x) >= 0, 1.0, -1.0)
        return np.maximum(np.asarray(x, dtype=float), 0.0)


LINEAR = Activation("linear")
SIGN = Activation("sign")
RELU = Activation("relu")


def activation(name: str) -> Activation:
    return Activation(name)


@lru_cache(maxsize=64)
def rho_v(act: Activation, latent: SeparablePrior) -> float:
    """Spike second moment E[phi(x)^2], x ~ N(0, rho_z).

    Closed form for linear and sign; 64-node Gauss-Hermite for ReLU, cached
    per (act, latent) so that the state-evolution steps, which bound q_v by
    it, do not rebuild the nodes on every step.
    """
    rz = latent.rho
    if act.kind == "linear":
        return rz
    if act.kind == "sign":
        return 1.0
    t, w = np.polynomial.hermite.hermgauss(64)
    x = math.sqrt(2.0 * rz) * t
    return float(np.sum(w * act.phi(x) ** 2) / math.sqrt(math.pi))


def null_channel_moments(act: Activation, latent: SeparablePrior) -> tuple[float, float]:
    """(E[v^2], E[vx]) under the null measure x ~ N(0, rho_z), v = phi(x).

    These two numbers are the whole linearisation at the uninformative fixed
    point: the stability Jacobian, Delta_c and the LAMP coefficients.  That
    point exists only when E[v] = 0 (phi odd); ReLU has none.
    """
    if not act.zero_mean_output:
        raise ValueError(f"{act.kind}: uninformative fixed point does not exist "
                         "(E_{Q_out^0}[v] != 0)")
    rz = latent.rho
    if act.kind == "linear":
        return rz, rz
    # sign: E|x| = sqrt(2 rho_z / pi)
    return 1.0, math.sqrt(2.0 * rz / math.pi)


# ---------------------------------------------------------------------------
# model kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wigner:
    """Symmetric v v^T observation."""


@dataclass(frozen=True)
class Wishart:
    """Rectangular u v^T observation with aspect ratio beta = n/p."""

    beta: float = 1.0
    prior_u: SeparablePrior = field(default_factory=gauss_prior)

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")


# ---------------------------------------------------------------------------
# generative model and instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerativeModel:
    p: int
    k: int
    W: np.ndarray
    latent: SeparablePrior
    act: Activation

    def __post_init__(self):
        if self.W.shape != (self.p, self.k):
            raise ValueError(f"W has shape {self.W.shape}, expected ({self.p}, {self.k})")

    @property
    def alpha(self) -> float:
        return self.p / self.k

    @property
    def rho_v(self) -> float:
        return rho_v(self.act, self.latent)


def sample_weights(p: int, k: int, seed: int) -> np.ndarray:
    """i.i.d. N(0,1) weight matrix, deterministic in (p, k, seed)."""
    if p < 1 or k < 1:
        raise ValueError("weight matrix dimensions must be >= 1")
    return make_rng(seed).standard_normal((p, k))


def make_model(p: int, k: int, act: Activation, latent: SeparablePrior,
               seed: int) -> GenerativeModel:
    return GenerativeModel(p=p, k=k, W=sample_weights(p, k, seed),
                           latent=latent, act=act)


def generate_spike(gm: GenerativeModel, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw (z*, v*) with v* = phi(W z* / sqrt(k))."""
    z = gm.latent.sample(gm.k, make_rng(seed))
    v = gm.act.phi(gm.W @ z / math.sqrt(gm.k))
    return z, v


@dataclass(frozen=True)
class SpikedInstance:
    model: Wigner | Wishart
    Y: np.ndarray
    delta: float
    v_star: np.ndarray
    z_star: np.ndarray | None = None
    u_star: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.Y.shape[1]

    @property
    def beta(self) -> float:
        if isinstance(self.model, Wigner):
            return 1.0
        return self.Y.shape[0] / self.Y.shape[1]


# rows of Y per draw task; one Wigner block pair (I, J) is _BLOCK x _BLOCK
_BLOCK = 512


class _NoiseDraw:
    """Philox normals of `seed` drawn into one dense buffer by a worker thread.

    Y is allocated once, and the row blocks of _BLOCK rows are submitted in
    order as soon as the draw is made; numpy releases the GIL while it fills,
    so the calling thread is free until `complete` needs a block.  Block draws
    from one Generator give the same stream as a single
    `standard_normal(shape)` call.
    """

    def __init__(self, shape: tuple[int, int], seed: int):
        self.key = (shape, seed)
        self.Y = np.empty(shape)
        rng = make_rng(seed)
        self.blocks = [slice(r, min(r + _BLOCK, shape[0]))
                       for r in range(0, shape[0], _BLOCK)]
        self._pool = ThreadPoolExecutor(1)
        self._draws = [self._pool.submit(rng.standard_normal, out=self.Y[rows])
                       for rows in self.blocks]

    def complete(self, finish) -> np.ndarray:
        """Run `finish(Y, rows)` on each block once its draw is done; returns Y.

        `finish` may touch only rows up to `rows.stop`, so it overlaps the
        draw of the blocks after it.  An exception from a draw reaches the
        caller through its future.
        """
        try:
            for rows, draw in zip(self.blocks, self._draws):
                draw.result()
                finish(self.Y, rows)
        finally:
            self.close()
        return self.Y

    def close(self):
        """Cancel the draws not yet started and join the worker."""
        self._pool.shutdown(cancel_futures=True)


_prefetched: ContextVar[_NoiseDraw | None] = ContextVar("prefetched_noise", default=None)


@contextmanager
def prefetch_noise(shape: tuple[int, int], seed: int):
    """Start drawing the noise of `seed` for an n x p Y now, in the background.

    The first `sample_wigner` or `sample_wishart` call inside the block whose
    Y has this shape and noise seed finishes this draw instead of starting
    its own, so the caller can draw W and the spike in the meantime; Y is the
    same bit for bit.  Leaving the block cancels an unused draw and joins the
    worker, also when the block raises.
    """
    draw = _NoiseDraw(tuple(shape), seed)
    token = _prefetched.set(draw)
    try:
        yield
    finally:
        _prefetched.reset(token)
        draw.close()


def _draw_rows(shape: tuple[int, int], seed: int, finish) -> np.ndarray:
    """Dense Y of `shape` holding the Philox normals of `seed`, finished in
    place by `finish(Y, rows)` block by block (see `_NoiseDraw.complete`); a
    matching prefetched draw is used once."""
    draw = _prefetched.get()
    if draw is None or draw.key != (shape, seed):
        draw = _NoiseDraw(shape, seed)
    else:
        _prefetched.set(None)
    return draw.complete(finish)


def sample_wigner(v_star: np.ndarray, delta: float, seed: int,
                  z_star: np.ndarray | None = None) -> SpikedInstance:
    """Y = v v^T / sqrt(p) + sqrt(delta) * xi with GOE noise.

    GOE convention: E[xi_ij^2] = 1 + delta_ij, i.e. off-diagonal variance 1
    and diagonal variance 2, so the noise bulk is the semicircle of radius
    2 sqrt(delta) after the 1/sqrt(p) scaling.

    xi = (a + a^T) / sqrt(2) for a = standard_normal((p, p)) of `seed`, built
    in the one dense buffer that becomes Y: once row block J of a is drawn,
    every block (I, J), I <= J, is finished from a[I, J] and a[J, I] and its
    transpose written to (J, I), with the draw of the later rows overlapped.
    Each element sees the operations of the dense expression
    ((a + a^T) / sqrt(2)) * sqrt(delta) + outer(v, v) / sqrt(p), v as
    float64, in that order, so Y equals it bit for bit, and Y == Y^T exactly.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    v = np.asarray(v_star, dtype=float)
    p = len(v)
    scale, sqrt_p = math.sqrt(delta), math.sqrt(p)

    def finish(Y, rows):
        for start in range(0, rows.start + 1, _BLOCK):
            cols = slice(start, min(start + _BLOCK, rows.stop))
            block = Y[cols, rows] + Y[rows, cols].T
            block /= math.sqrt(2.0)
            block *= scale
            spike = np.outer(v[cols], v[rows])
            spike /= sqrt_p
            block += spike
            Y[cols, rows] = block
            Y[rows, cols] = block.T

    Y = _draw_rows((p, p), seed, finish)
    return SpikedInstance(model=Wigner(), Y=Y, delta=delta, v_star=v, z_star=z_star)


def sample_wishart(u_star: np.ndarray, v_star: np.ndarray, delta: float,
                   seed: int, prior_u: SeparablePrior | None = None,
                   z_star: np.ndarray | None = None) -> SpikedInstance:
    """Y = u v^T / sqrt(p) + sqrt(delta) * xi, xi_{mu i} i.i.d. N(0,1).

    xi is standard_normal((n, p)) of `seed`, drawn into the one dense buffer
    that becomes Y; each row block is scaled and given its rows of the spike
    while the later rows are drawn, so Y equals the dense expression
    xi * sqrt(delta) + outer(u, v) / sqrt(p), u and v as float64, bit for bit.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    u, v = np.asarray(u_star, dtype=float), np.asarray(v_star, dtype=float)
    n, p = len(u), len(v)
    scale, sqrt_p = math.sqrt(delta), math.sqrt(p)

    def finish(Y, rows):
        block = Y[rows]
        block *= scale
        spike = np.outer(u[rows], v)
        spike /= sqrt_p
        block += spike

    Y = _draw_rows((n, p), seed, finish)
    model = Wishart(beta=n / p, prior_u=prior_u or gauss_prior())
    return SpikedInstance(model=model, Y=Y, delta=delta, v_star=v,
                          z_star=z_star, u_star=u)


def sample_u(prior_u: SeparablePrior, n: int, seed: int) -> np.ndarray:
    return prior_u.sample(n, make_rng(seed))
