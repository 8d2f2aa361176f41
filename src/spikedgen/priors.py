"""Generative spike model and spiked Wigner/Wishart instance sampling.

The spike v is produced by a single-layer generative network
v = phi(W z / sqrt(k)) with i.i.d. standard Gaussian weights W, a separable
latent prior on z, and an elementwise activation phi.  Observations are
rank-one deformations of Gaussian noise:

    Wigner:   Y = v v^T / sqrt(p) + sqrt(delta) * xi   (p x p, symmetric)
    Wishart:  Y = u v^T / sqrt(p) + sqrt(delta) * xi   (n x p)

All randomness flows through numpy's counter-based Philox generator so that
every artifact is reproducible from (seed, shape) alone.

The Wishart sampler builds Y in one dense buffer of 8 n p bytes: a worker
thread draws the normals row block by row block, and the calling thread
scales and adds the spike to each block while the later blocks are drawn.
The Wigner sampler stores only Y's lower triangle (row >= column), in an
anonymous mapping whose strict upper triangle is never written and so never
becomes resident: about 4 p (p + 1) bytes.  Every scratch buffer of either
sampler has a fixed number of rows, so `sampler_scratch_bytes` bounds what
they hold beside Y (see there).  Every Wigner solve reads that triangle
alone, AMP, LAMP and PCA alike through the one `dsymv` pass of
`spectral.gram`, so a dense symmetric Y built by hand works as well.  Both Ys
are bit-identical to the dense expressions above evaluated on one
`standard_normal` draw of the whole matrix (the Wigner one as its lower
triangle).  `prefetch_noise` starts that draw early, so that W and the
spike are drawn while the worker fills Y.
"""

from __future__ import annotations

import math
import mmap
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
    """One observation Y with its planted spike.

    A Wigner Y is read through its lower triangle (row >= column) alone:
    `sample_wigner` stores exactly that triangle, with zeros above the
    diagonal, and a dense symmetric Y built by hand gives the same results.
    A Wishart Y is the dense n x p matrix.
    """

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


# rows of Y per block; one Wigner tile (I, J) is _BLOCK x _BLOCK
_BLOCK = 512
# rows of a per Wigner half-block, and the number of _HALF x p buffers the
# draw cycles through: it may run _BUFFERS - 1 half-blocks ahead of the
# adding worker.  With two buffers of 128 rows, that lead is too short for
# the first add, which faults in a page of every row of Y, and the draw
# waited 40-80 ms per instance at p = 10^4 (2 cores); three keep the lead of
# 256 rows that two 256-row buffers gave, in 3/4 of their bytes.
_HALF = 128
_BUFFERS = 3
# rows of the spike per Wishart tile: one reused _SPIKE_ROWS x p buffer
_SPIKE_ROWS = 32


def observation_bytes(n: int, p: int, symmetric: bool) -> int:
    """Resident bytes of a sampled n x p Y (n = p if `symmetric`).

    Wishart: the dense Y, 8 n p.  Wigner: the lower triangle, 4 p (p + 1),
    and the pages that the rows of the triangle share with the unwritten
    upper one: a row's part starts and ends inside a page, about one page
    per row in all.
    """
    if symmetric:
        return 4 * p * (p + 1) + p * mmap.PAGESIZE
    return 8 * n * p


def sampler_scratch_bytes(p: int, symmetric: bool) -> int:
    """Bytes the sampler of a Y with p columns holds beside Y, W and the spike.

    Wigner (`symmetric`): the _BUFFERS row buffers of _HALF x p of the
    draw, the _BLOCK x _BLOCK spike tile and its lower-triangle mask.
    Wishart: the _SPIKE_ROWS x p spike tile.  Each is float64 (the mask
    bool), and none depends on the number of rows of Y.
    """
    if symmetric:
        side = min(_BLOCK, p)
        return 8 * _BUFFERS * min(_HALF, p) * p + 9 * side * side
    return 8 * _SPIKE_ROWS * p


# Linux's MADV_POPULATE_WRITE (kernel 5.14 and later); Python's mmap does not name it
_MADV_POPULATE_WRITE = getattr(mmap, "MADV_POPULATE_WRITE", 23)


def lazy_array(rows: int, cols: int) -> tuple[np.ndarray, mmap.mmap]:
    """Zero rows x cols float64 array on an anonymous mapping of its own, and the mapping.

    The mapping has no huge pages, so a page of it becomes resident only
    when written: the Wigner Y, of which only the lower triangle is written,
    holds about half its bytes, and a Lanczos basis only the rows written so
    far.  numpy's allocator asks for 2 MiB huge pages for large arrays; in
    the Wigner Y each of those would hold the start of some row and fault in
    the whole matrix, and in a basis the last one would be mostly unwritten.
    """
    mapping = mmap.mmap(-1, max(8 * rows * cols, 1), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    array = np.frombuffer(mapping, dtype=float, count=rows * cols).reshape(rows, cols)
    return array, mapping


def _prefault_lower(mapping: mmap.mmap, p: int):
    """Fault in the pages that hold the lower triangle of the array on `mapping`.

    A write fault costs microseconds per 4 KiB page, about 10^5 of them at
    p = 10^4; one madvise per row takes a row's pages in one call, leaves
    their contents as they are, and so may run while the worker writes
    them.  A kernel without the flag refuses it, and the pages then fault on
    their first write.
    """
    page = mmap.PAGESIZE
    try:
        for r in range(p):
            start = 8 * r * p // page * page
            mapping.madvise(_MADV_POPULATE_WRITE, start, 8 * (r * p + r + 1) - start)
    except OSError:
        pass


class _NoiseDraw:
    """Philox normals of `seed` drawn into Y by worker threads.

    The row blocks of _BLOCK rows are submitted in order as soon as the draw
    is made; numpy releases the GIL while it fills, so the calling thread is
    free until `complete` needs a block.  Draws of consecutive rows from one
    Generator give the same stream as a single `standard_normal(shape)` call.

    Dense (Wishart): one worker draws each block straight into its rows of Y.
    Symmetric (Wigner): Y holds only the lower triangle of a + a^T.  One
    worker draws the half-blocks of a (_HALF rows) into _BUFFERS row buffers
    in turn, 8 _BUFFERS _HALF p bytes in all, and a second one adds each
    half-block into Y: its part right of its diagonal tile goes, transposed,
    to the later rows' entries of its columns; its part left of the tile is
    added to the entries of its rows that earlier half-blocks put there, so
    they hold a[c, r] + a[r, c]; and the lower part of the tile's own
    a + a^T is written.  A buffer is drawn into again only once it has been
    added, so the draw, the one serial part, runs alone on its thread.
    Nothing above the diagonal is written; the calling thread faults in the
    triangle's pages meanwhile, which would otherwise cost the workers half a
    second at p = 10^4.
    """

    def __init__(self, shape: tuple[int, int], seed: int, symmetric: bool = False):
        self.key = (shape, seed, symmetric)
        rng = make_rng(seed)
        self.blocks = [slice(r, min(r + _BLOCK, shape[0]))
                       for r in range(0, shape[0], _BLOCK)]
        self._pools = [ThreadPoolExecutor(1)]
        if not symmetric:
            self.Y = np.empty(shape)
            self._draws = [self._pools[0].submit(rng.standard_normal, out=self.Y[rows])
                           for rows in self.blocks]
            return
        p = shape[0]
        self.Y, mapping = lazy_array(p, p)
        self._buffers = [np.empty((min(_HALF, p), p)) for _ in range(_BUFFERS)]
        self._pools.append(ThreadPoolExecutor(1))
        halves = [slice(r, min(r + _HALF, p)) for r in range(0, p, _HALF)]
        added = []
        for h, rows in enumerate(halves):
            drawn = self._pools[0].submit(self._draw_half, rng, h, rows,
                                          added[h - _BUFFERS] if h >= _BUFFERS else None)
            added.append(self._pools[1].submit(self._add_lower, h, rows, drawn))
        # the halves are added in order: a block is done with the half that
        # holds its last row
        self._draws = [added[(rows.stop - 1) // _HALF] for rows in self.blocks]
        _prefault_lower(mapping, p)   # here, while the workers draw

    def _draw_half(self, rng: np.random.Generator, h: int, rows: slice, freed):
        if freed is not None:     # the half-block that last used this buffer
            freed.result()
        rng.standard_normal(out=self._buffers[h % _BUFFERS][:rows.stop - rows.start])

    def _add_lower(self, h: int, rows: slice, drawn):
        drawn.result()
        Y, r0, r1 = self.Y, rows.start, rows.stop
        a = self._buffers[h % _BUFFERS][:r1 - r0]
        Y[r1:, rows] = a[:, r1:].T
        Y[rows, :r0] += a[:, :r0]
        tile, diagonal, lower = a[:, rows], Y[rows, rows], np.tri(r1 - r0, dtype=bool)
        np.copyto(diagonal, tile, where=lower)
        np.add(diagonal, tile.T, out=diagonal, where=lower)

    def complete(self, finish) -> np.ndarray:
        """Run `finish(Y, rows)` on each block once its draw is done; returns Y.

        `finish` may touch only rows up to `rows.stop`, and (symmetric) only
        their entries left of `rows.stop`, so it overlaps the draw of the
        blocks after it.  An exception from a draw reaches the caller
        through its future.
        """
        try:
            for rows, draw in zip(self.blocks, self._draws):
                draw.result()
                finish(self.Y, rows)
        finally:
            self.close()
        return self.Y

    def close(self):
        """Cancel the tasks not yet started, join the workers, free the buffers.

        Every pool is cancelled before any is joined: a running task that
        waits on a cancelled one then raises instead of blocking the join.
        """
        for pool in self._pools:
            pool.shutdown(wait=False, cancel_futures=True)
        for pool in self._pools:
            pool.shutdown()
        self._buffers = None


_prefetched: ContextVar[_NoiseDraw | None] = ContextVar("prefetched_noise", default=None)


@contextmanager
def prefetch_noise(shape: tuple[int, int], seed: int, symmetric: bool = False):
    """Start drawing the noise of `seed` for an n x p Y now, in the background.

    The first `sample_wigner` (`symmetric`) or `sample_wishart` (not) call
    inside the block whose Y has this shape and noise seed finishes this
    draw instead of starting its own, so the caller can draw W and the spike
    in the meantime; Y is the same bit for bit.  Leaving the block cancels an
    unused draw and joins the worker, also when the block raises.
    """
    draw = _NoiseDraw(tuple(shape), seed, symmetric)
    token = _prefetched.set(draw)
    try:
        yield
    finally:
        _prefetched.reset(token)
        draw.close()


def _draw_rows(shape: tuple[int, int], seed: int, finish,
               symmetric: bool = False) -> np.ndarray:
    """Y of `shape` holding the Philox normals of `seed` (the lower triangle
    of a + a^T if `symmetric`), finished in place by `finish(Y, rows)` block
    by block (see `_NoiseDraw.complete`); a matching prefetched draw is used
    once."""
    draw = _prefetched.get()
    if draw is None or draw.key != (shape, seed, symmetric):
        draw = _NoiseDraw(shape, seed, symmetric)
    else:
        _prefetched.set(None)
    return draw.complete(finish)


def sample_wigner(v_star: np.ndarray, delta: float, seed: int,
                  z_star: np.ndarray | None = None) -> SpikedInstance:
    """Y = v v^T / sqrt(p) + sqrt(delta) * xi with GOE noise, stored as its
    lower triangle.

    GOE convention: E[xi_ij^2] = 1 + delta_ij, i.e. off-diagonal variance 1
    and diagonal variance 2, so the noise bulk is the semicircle of radius
    2 sqrt(delta) after the 1/sqrt(p) scaling.

    xi = (a + a^T) / sqrt(2) for a = standard_normal((p, p)) of `seed`.  Y is
    exactly np.tril of the dense expression
    ((a + a^T) / sqrt(2)) * sqrt(delta) + outer(v, v) / sqrt(p), v as
    float64, bit for bit: the workers leave a[c, r] + a[r, c] in each entry
    on and below the diagonal (see `_NoiseDraw`), and this thread divides,
    scales and adds the spike tile by tile as the row blocks finish, in the
    dense expression's order.  The strict upper triangle stays zero and is
    never written, so only about 4 p (p + 1) bytes of Y are resident.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    v = np.asarray(v_star, dtype=float)
    p = len(v)
    scale, sqrt_p = math.sqrt(delta), math.sqrt(p)

    # one tile of spike and the mask of a diagonal tile, reused by every tile
    side = min(_BLOCK, p)
    spike, tri = np.empty((side, side)), np.tri(side, dtype=bool)

    def finish(Y, rows):
        for start in range(0, rows.stop, _BLOCK):
            cols = slice(start, min(start + _BLOCK, rows.stop))
            block = Y[rows, cols]
            m, n = block.shape
            # the last tile is the diagonal one: only its lower part is Y's
            lower = tri[:m, :n] if cols == rows else True
            s = np.multiply.outer(v[rows], v[cols], out=spike[:m, :n])
            s /= sqrt_p
            np.divide(block, math.sqrt(2.0), out=block, where=lower)
            np.multiply(block, scale, out=block, where=lower)
            np.add(block, s, out=block, where=lower)

    Y = _draw_rows((p, p), seed, finish, symmetric=True)
    return SpikedInstance(model=Wigner(), Y=Y, delta=delta, v_star=v, z_star=z_star)


def sample_wishart(u_star: np.ndarray, v_star: np.ndarray, delta: float,
                   seed: int, prior_u: SeparablePrior | None = None,
                   z_star: np.ndarray | None = None) -> SpikedInstance:
    """Y = u v^T / sqrt(p) + sqrt(delta) * xi, xi_{mu i} i.i.d. N(0,1).

    xi is standard_normal((n, p)) of `seed`, drawn into the one dense buffer
    that becomes Y; each row block is scaled and given its rows of the spike
    while the later rows are drawn, so Y equals the dense expression
    xi * sqrt(delta) + outer(u, v) / sqrt(p), u and v as float64, bit for bit.
    The spike is formed _SPIKE_ROWS rows at a time in one reused buffer, so
    the sampler holds 8 _SPIKE_ROWS p bytes beside Y whatever n is.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    u, v = np.asarray(u_star, dtype=float), np.asarray(v_star, dtype=float)
    n, p = len(u), len(v)
    scale, sqrt_p = math.sqrt(delta), math.sqrt(p)
    spike = np.empty((min(_SPIKE_ROWS, n), p))

    def finish(Y, rows):
        Y[rows] *= scale
        for start in range(rows.start, rows.stop, _SPIKE_ROWS):
            tile = slice(start, min(start + _SPIKE_ROWS, rows.stop))
            s = np.multiply.outer(u[tile], v, out=spike[:tile.stop - start])
            s /= sqrt_p
            Y[tile] += s

    Y = _draw_rows((n, p), seed, finish)
    model = Wishart(beta=n / p, prior_u=prior_u or gauss_prior())
    return SpikedInstance(model=model, Y=Y, delta=delta, v_star=v,
                          z_star=z_star, u_star=u)


def sample_u(prior_u: SeparablePrior, n: int, seed: int) -> np.ndarray:
    return prior_u.sample(n, make_rng(seed))
