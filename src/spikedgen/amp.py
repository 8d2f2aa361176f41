"""Bayes-optimal approximate message passing for spiked Wigner and Wishart.

One engine serves both models.  An iteration runs the spiked layer (rank-one
likelihood messages with an Onsager memory term), the generative layer (GLM
messages through W), and the marginal updates by the scalar denoisers of
`channels`.  Only the spiked layer depends on the model: it is symmetric
(Y v_hat) for Wigner, and bipartite (Y v_hat to the left factor u, Y^T u_hat
to v) for Wishart, whose state also carries u_hat.  The per-iteration overlap
v_hat . v* / p is tracked so runs can be compared against state evolution.

One BLAS library per hot loop: every dense product of an iteration goes
through `scipy.linalg.blas`.  numpy and scipy link two separate OpenBLAS
builds, each with its own thread pool whose threads spin for a while after a
call, so a call into one library right after a call into the other runs at
about half speed while the idle pool still holds the cores.  The products are
made on the Fortran-ordered `.T` view of the C-ordered W and Y, so f2py copies
no matrix.  The Wigner pass uses `dsymv`, which reads one triangle of Y, half
the bytes of a full pass; that is exact because `sample_wigner` makes
Y == Y^T bit for bit (a Wigner Y built by hand must be symmetric too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import blas

from . import channels as ch
from .priors import (GenerativeModel, SeparablePrior, SpikedInstance, Wigner,
                     Wishart, make_rng)

_V_FLOOR = 1e-12


class AmpDivergenceError(RuntimeError):
    def __init__(self, iteration: int, what: str):
        super().__init__(f"AMP diverged at iteration {iteration}: non-finite {what}")
        self.iteration = iteration


@dataclass
class AmpConfig:
    max_iter: int = 500
    tol: float = 1e-7           # relative change of v_hat
    damping: float = 0.0        # on v_hat and z_hat only
    init_sigma2: float = 1.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0 <= self.damping < 1):
            raise ValueError("damping must be in [0, 1)")


@dataclass
class AmpState:
    """One AMP iterate; the u fields are None for Wigner."""

    v_hat: np.ndarray
    c_v: np.ndarray
    z_hat: np.ndarray
    c_z: np.ndarray
    v_hat_prev: np.ndarray
    g_prev: np.ndarray
    A_v: float = 0.0
    V: float = 0.0
    Lambda: float = 0.0
    t: int = 1
    u_hat: np.ndarray | None = None
    c_u: np.ndarray | None = None
    u_hat_prev: np.ndarray | None = None


@dataclass
class AmpResult:
    v_hat: np.ndarray
    z_hat: np.ndarray
    overlap_trace: list          # q_v^t = v_hat . v* / p
    self_overlap_trace: list     # |v_hat|^2 / p
    q_z_trace: list
    mse_trace: list
    mse_v: float
    sign: int
    iters: int
    converged: bool
    u_hat: np.ndarray | None = None
    overlap_u: float | None = None


def align_and_mse(v_hat: np.ndarray, v_star: np.ndarray) -> tuple[float, int]:
    """min over the global sign of |s v_hat - v*|^2 / p, with the argmin sign."""
    p = len(v_star)
    dot = float(v_hat @ v_star)
    sign = -1 if dot < 0 else 1
    mse = float(np.sum((sign * v_hat - v_star) ** 2)) / p
    return mse, sign


def _check_finite(t, **vecs):
    for name, v in vecs.items():
        if v is not None and not np.all(np.isfinite(v)):
            raise AmpDivergenceError(t, name)


def _gemv(A: np.ndarray, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """A x, or A^T x, for a C-ordered A, through dgemv on its F-ordered A.T."""
    return blas.dgemv(1.0, A.T, x, trans=0 if trans else 1)


def _symv(Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Y x for a C-ordered Y == Y^T, through dsymv on one triangle of Y.T."""
    return blas.dsymv(1.0, Y.T, x)


def amp_step(state: AmpState, inst: SpikedInstance, gm: GenerativeModel,
             onsager: bool = True, prior_u: SeparablePrior | None = None) -> AmpState:
    """One sweep of the Bayes-optimal algorithm, for either model.

    The spiked layer is bipartite when the state carries u_hat (Wishart; the
    u denoiser is `prior_u`, by default the instance's) and symmetric
    otherwise.  `onsager=False` drops its memory terms; it exists only as a
    negative control for the state-evolution tracking tests.
    """
    p, k = gm.p, gm.k
    delta = inst.delta
    sp = math.sqrt(p)
    sk = math.sqrt(k)
    _check_finite(state.t, **{name: v for name, v in vars(state).items()
                              if isinstance(v, np.ndarray)})

    eu = cu = None
    if state.u_hat is None:
        b_v = _symv(inst.Y, state.v_hat) / (sp * delta)
        if onsager:
            b_v -= (np.mean(state.c_v) / delta) * state.v_hat_prev
        a_v = float(state.v_hat @ state.v_hat) / (delta * p)
    else:
        b_u = _gemv(inst.Y, state.v_hat) / (sp * delta)
        b_v = _gemv(inst.Y, state.u_hat, trans=True) / (sp * delta)
        if onsager:
            b_u -= (np.sum(state.c_v) / (p * delta)) * state.u_hat_prev
            b_v -= (np.sum(state.c_u) / (p * delta)) * state.v_hat_prev
        a_u = float(state.v_hat @ state.v_hat) / (delta * p)
        a_v = float(state.u_hat @ state.u_hat) / (delta * p)
        _, eu, cu = ch.latent_moments(prior_u or inst.model.prior_u, b_u, a_u)

    v_cap = max(float(np.mean(state.c_z)), _V_FLOOR)
    omega = _gemv(gm.W, state.z_hat) / sk - v_cap * state.g_prev
    _, ev, cv, ex, _ = ch.out_moments(gm.act, b_v, a_v, omega, v_cap)
    g = (ex - omega) / v_cap
    lam = float(g @ g) / k
    gamma = _gemv(gm.W, g, trans=True) / sk + lam * state.z_hat

    _, ez, cz = ch.latent_moments(gm.latent, gamma, lam)
    _check_finite(state.t, v_hat=ev, z_hat=ez, u_hat=eu, g=g)
    return AmpState(v_hat=ev, c_v=cv, z_hat=ez, c_z=cz,
                    v_hat_prev=state.v_hat, g_prev=g,
                    A_v=a_v, V=v_cap, Lambda=lam, t=state.t + 1,
                    u_hat=eu, c_u=cu, u_hat_prev=state.u_hat)


def _trace(state: AmpState, inst: SpikedInstance, gm: GenerativeModel) -> tuple:
    """(q_v, |v_hat|^2 / p, q_z, mse_v) of one iterate."""
    q_z = (float(state.z_hat @ inst.z_star) / gm.k if inst.z_star is not None
           else float("nan"))
    return (float(state.v_hat @ inst.v_star) / gm.p,
            float(state.v_hat @ state.v_hat) / gm.p, q_z,
            align_and_mse(state.v_hat, inst.v_star)[0])


def _run(inst: SpikedInstance, gm: GenerativeModel, cfg: AmpConfig | None,
         seed: int, onsager: bool = True, init_v=None, init_z=None,
         prior_u: SeparablePrior | None = None) -> AmpResult:
    """Init, iterate with damping until the relative change of v_hat is below
    tol, and collect the traces; a `prior_u` makes the run bipartite."""
    if inst.delta <= 0:
        raise ValueError("delta must be positive (A_v would be infinite)")
    if inst.Y.shape[1] != gm.p:
        raise ValueError("instance and model dimensions differ")
    cfg = cfg or AmpConfig()
    # C order once per run, so that no iteration copies a matrix into dgemv
    inst = replace(inst, Y=np.ascontiguousarray(inst.Y))
    gm = replace(gm, W=np.ascontiguousarray(gm.W))
    p, k = gm.p, gm.k
    rng = make_rng(seed)
    sig = math.sqrt(cfg.init_sigma2)
    # draw order v, z, u: the random stream of every seed stays fixed
    v0 = sig * rng.standard_normal(p) if init_v is None else np.asarray(init_v, float)
    z0 = sig * rng.standard_normal(k) if init_z is None else np.asarray(init_z, float)
    state = AmpState(v_hat=v0, c_v=np.ones(p), z_hat=z0, c_z=np.ones(k),
                     v_hat_prev=np.zeros(p), g_prev=np.zeros(p))
    if prior_u is not None:
        n = inst.Y.shape[0]
        state.u_hat = sig * rng.standard_normal(n)
        state.c_u, state.u_hat_prev = np.ones(n), np.zeros(n)

    rows = [_trace(state, inst, gm)]
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        new = amp_step(state, inst, gm, onsager=onsager, prior_u=prior_u)
        if cfg.damping > 0:
            new.v_hat = (1 - cfg.damping) * new.v_hat + cfg.damping * state.v_hat
            new.z_hat = (1 - cfg.damping) * new.z_hat + cfg.damping * state.z_hat
        rel = (np.linalg.norm(new.v_hat - state.v_hat)
               / max(np.linalg.norm(state.v_hat), 1e-300))
        state = new
        rows.append(_trace(state, inst, gm))
        if rel < cfg.tol:
            converged = True
            break

    # Wishart: Y fixes only the product u v^T, so (u, v) share one sign
    mse_v, sign = align_and_mse(state.v_hat, inst.v_star)
    overlap_u = (float(state.u_hat @ inst.u_star) / len(inst.u_star)
                 if inst.u_star is not None else None)
    qv, qs, qz, mse = map(list, zip(*rows))
    return AmpResult(v_hat=state.v_hat, z_hat=state.z_hat, overlap_trace=qv,
                     self_overlap_trace=qs, q_z_trace=qz, mse_trace=mse,
                     mse_v=mse_v, sign=sign, iters=it, converged=converged,
                     u_hat=state.u_hat, overlap_u=overlap_u)


def amp_wigner_run(inst: SpikedInstance, gm: GenerativeModel,
                   cfg: AmpConfig | None = None, seed: int = 0,
                   onsager: bool = True, init_v=None, init_z=None) -> AmpResult:
    if not isinstance(inst.model, Wigner):
        raise ValueError("instance is not a Wigner observation")
    return _run(inst, gm, cfg, seed, onsager, init_v, init_z)


def amp_wishart_run(inst: SpikedInstance, gm: GenerativeModel,
                    prior_u: SeparablePrior | None = None,
                    cfg: AmpConfig | None = None, seed: int = 0) -> AmpResult:
    if not isinstance(inst.model, Wishart):
        raise ValueError("instance is not a Wishart observation")
    return _run(inst, gm, cfg, seed, prior_u=prior_u or inst.model.prior_u)
