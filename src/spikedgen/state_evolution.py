"""Scalar asymptotics: state evolution, mutual information, thresholds.

The Bayes-optimal overlaps (q_v, q_z, q_hat_z) [plus q_u for Wishart] obey

    q_hat_z = 2 alpha d_{q_z} Psi_out(x, q_z)
    q_z'    = 2 d Psi_z(q_hat_z)
    q_v'    = 2 d_{q_v} Psi_out(x, q_z)

with x = q_v / Delta for Wigner.  One step function `se_step` serves both
models: Wishart only sets x = beta q_u / Delta and adds
q_u' = 2 d Psi_u(q_v / Delta), where Psi_u is Psi_z taken over P_u.
MMSE_v = rho_v - q_v* at the fixed point, found by `se_fixed_point` as a
root of F(s) = T0(s) - s (T0 the undamped map) after a short damped prefix,
with damping only as the counted fallback; convergence means |F|_inf < tol.
The phase transition Delta_c is where the spectral radius of the Jacobian of
this map at the all-zeros fixed point crosses one, taken in closed form from
det(I - J) = 0 and the two null moments E[v^2], E[vx].
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import root

from . import channels as ch
from .priors import (Activation, SeparablePrior, Wigner, Wishart,
                     null_channel_moments, rho_v)

log = logging.getLogger(__name__)

_EDGE = 1e-12  # keep q_z strictly inside [0, rho_z) so V = rho_z - q_z > 0
_PREFIX = 10   # damped steps that place each init in its basin before the root solve
_TRIVIAL = 1e-12  # a deflated solve ending below this q_v found the trivial root
# hybr's step tolerance is relative to |x|, so a solve for the stable root
# s = 0 would crawl through the subnormals; solving for y = s + _STOP_SHIFT
# scale gives it an absolute floor of about tol * _STOP_SHIFT, small enough
# that both inits still agree to about 1e-15 at Delta = Delta_c
_STOP_SHIFT = 1e-10
_EPS_INIT = 1e-6     # every overlap of the uninformative init
_QUAD_ORDER = 64     # quadrature order of Psi_out and Psi_z


@dataclass(frozen=True)
class OverlapState:
    q_v: float
    q_z: float
    q_hat_z: float
    q_u: float | None = None

    def as_tuple(self):
        t = (self.q_v, self.q_z, self.q_hat_z)
        return t if self.q_u is None else t + (self.q_u,)


@dataclass(frozen=True)
class SEConfig:
    damping: float = 0.5          # applied to q_hat_z only
    tol: float = 1e-10
    max_iter: int = 5000
    init: str = "uninformative"   # or "informative"

    def __post_init__(self):
        if not (0 <= self.damping < 1):
            raise ValueError("damping must be in [0, 1)")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.init not in ("uninformative", "informative"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class PhasePoint:
    alpha: float
    delta: float
    mmse_v: float
    q_v_star: float
    iters: int
    converged: bool
    init_used: str
    q_z_star: float = 0.0
    q_hat_z_star: float = 0.0
    q_u_star: float | None = None
    init_gap: float = float("nan")   # |q_v_uninf - q_v_inf| when both converged
    runs: dict = field(default_factory=dict, repr=False)


def _clamp(value: float, lo: float, hi: float, name: str) -> float:
    if value < lo or value > hi:
        log.debug("clamped %s = %.3e to [%g, %g]", name, value, lo, hi)
        return min(max(value, lo), hi)
    return value


def _clamp_state(q_v, q_z, q_hat_z, rv, rz, q_u=None, ru=None):
    q_v = _clamp(q_v, 0.0, rv, "q_v")
    q_z = _clamp(q_z, 0.0, rz * (1.0 - _EDGE), "q_z")
    q_hat_z = _clamp(q_hat_z, 0.0, float("inf"), "q_hat_z")
    if q_u is not None:
        q_u = _clamp(q_u, 0.0, ru, "q_u")
    return q_v, q_z, q_hat_z, q_u


@functools.lru_cache(maxsize=64)
def _psi_out_grads(act: Activation, latent: SeparablePrior, x: float,
                   y: float) -> tuple[float, float]:
    """`ch.psi_out_grads` at the SE quadrature order, memoised per (x, y).

    A root solve asks for the same point about four times: scipy's shape
    check and MINPACK's first call at x0, the finite-difference Jacobian
    column for q_hat_z (which no argument of Psi_out depends on), and the
    residual of the point just found.  The function is looked up on the
    module at each call, so a wrapper installed there sees every evaluation.
    """
    return ch.psi_out_grads(act, latent, x, y, order=_QUAD_ORDER, adaptive=False)


def se_step(state: OverlapState, delta: float, alpha: float, act: Activation,
            latent: SeparablePrior, model: Wigner | Wishart = Wigner(),
            damping: float = 0.0) -> OverlapState:
    """One synchronous update of the SE map.

    The model enters only through Psi_out's first argument, q_v / Delta for
    Wigner and beta q_u / Delta for Wishart, and through Wishart's q_u line.
    """
    if not all(map(math.isfinite, state.as_tuple())):
        # an overflowed q_hat_z (alpha near the float range) poisons the next
        # step; stop here instead of handing the channel a non-finite field
        raise FloatingPointError(f"state evolution reached a non-finite state "
                                 f"{state.as_tuple()} at alpha={alpha}, delta={delta}")
    wishart = isinstance(model, Wishart)
    x = model.beta * state.q_u / delta if wishart else state.q_v / delta
    gx, gy = _psi_out_grads(act, latent, x, state.q_z)
    q_hat_new = 2.0 * alpha * gy
    q_hat = (1.0 - damping) * q_hat_new + damping * state.q_hat_z
    q_z = ch.psi_z_grad2(latent, q_hat, order=_QUAD_ORDER)
    q_v = 2.0 * gx
    q_u = ru = None
    if wishart:
        q_u = ch.psi_z_grad2(model.prior_u, state.q_v / delta, order=_QUAD_ORDER)
        ru = model.prior_u.rho
    q_v, q_z, q_hat, q_u = _clamp_state(q_v, q_z, q_hat, rho_v(act, latent),
                                        latent.rho, q_u, ru)
    return OverlapState(q_v=q_v, q_z=q_z, q_hat_z=q_hat, q_u=q_u)


def _init_state(init: str, rv: float, rz: float,
                ru: float | None = None) -> OverlapState:
    """`ru` is rho_u for Wishart and None for Wigner, which has no q_u."""
    if init == "uninformative":
        eps = _EPS_INIT
        return OverlapState(eps, eps, 0.0, None if ru is None else eps)
    keep = 1.0 - 1e-6
    return OverlapState(rv * keep, rz * keep, 0.0, None if ru is None else ru * keep)


def _deflation(t) -> float:
    """1 + 1/|t|^2, scaled by max |t_i| so that no square overflows."""
    m = np.max(np.abs(t))
    return 1.0 + (1.0 / m) ** 2 / np.sum((t / m) ** 2)


def _iterate(state: OverlapState, step, residual, cfg: SEConfig):
    """The damped fallback: at most cfg.max_iter steps of `step`.

    A step below cfg.tol only prompts a look at `residual`, which alone
    decides convergence.  Returns (state, steps, converged, residual).
    """
    for it in range(1, cfg.max_iter + 1):
        new = step(state)
        moved = max(abs(a - b) for a, b in zip(new.as_tuple(), state.as_tuple()))
        state = new
        if moved < cfg.tol and (res := residual(state)) < cfg.tol:
            return state, it, True, res
    return state, cfg.max_iter, False, residual(state)


def se_fixed_point(cfg: SEConfig, delta: float, alpha: float, act: Activation,
                   latent: SeparablePrior,
                   model: Wigner | Wishart = Wigner()) -> PhasePoint:
    """Solve the SE fixed point from both inits; report the one selected by cfg.init.

    Each init takes _PREFIX damped steps, which place it in its basin, then
    Powell's hybrid method (MINPACK `hybr`) solves F(s) = T0(P(s)) - s = 0,
    where T0 is the undamped map and P projects into the domain that
    `_clamp_state` enforces; its step tolerance is cfg.tol relative to
    |s + _STOP_SHIFT scale|, which keeps an absolute floor at s = 0.  From
    the uninformative init, when the all-zeros fixed point is unstable, the
    solve runs on the deflated G(s) = F(s) (1 + 1/|s/scale|^2), which repels
    it from that trivial root (Farrell, Birkisson & Funke, SIAM J. Sci.
    Comput. 2015), and a result with q_v below _TRIVIAL is rejected.  A result is accepted when its residual
    |F|_inf is below cfg.tol; otherwise the damped iteration continues from
    the prefix state for at most cfg.max_iter steps, converging only on the
    same residual test.

    Both runs are recorded with their state, `iters` (every evaluation of the
    map, prefix and finite-difference Jacobian columns included),
    `converged`, `residual` and `solver` ("root" or "damped"); the stable
    fixed point is expected to be unique, and `init_gap` tracks the observed
    |q_v| difference as a regression.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    rv, rz = rho_v(act, latent), latent.rho
    ru = model.prior_u.rho if isinstance(model, Wishart) else None
    scale = np.array((rv, rz, 1.0) if ru is None else (rv, rz, 1.0, ru))
    shift = _STOP_SHIFT * scale
    damped = lambda s: se_step(s, delta, alpha, act, latent, model,
                               damping=cfg.damping)

    def project(x) -> OverlapState:
        q_u = None if ru is None else float(x[3])
        return OverlapState(*_clamp_state(float(x[0]), float(x[1]), float(x[2]),
                                          rv, rz, q_u, ru))

    def f(x):
        nonlocal evals
        evals += 1
        if not np.isfinite(x).all():
            # a diverged probe of the root solve: fail it, so that the damped
            # fallback takes over, rather than step from a non-finite state
            return np.full_like(x, np.nan)
        new = se_step(project(x), delta, alpha, act, latent, model)
        return np.subtract(new.as_tuple(), x)

    def residual(state: OverlapState) -> float:
        return float(np.abs(f(state.as_tuple())).max())

    # the margin keeps Delta = Delta_c itself undeflated: at alpha = 2 the sign
    # closed form lies one ulp above the literal 1 + 8/pi^2
    deflate = (act.zero_mean_output
               and delta < delta_c(alpha, act, latent, model) * (1.0 - 1e-12))
    runs = {}
    for init in ("uninformative", "informative"):
        state = _init_state(init, rv, rz, ru)
        for _ in range(_PREFIX):
            state = damped(state)
        evals = _PREFIX
        deflated = deflate and init == "uninformative"
        g = (lambda x: f(x) * _deflation(x / scale)) if deflated else f
        sol = root(lambda y: g(y - shift), np.array(state.as_tuple()) + shift,
                   method="hybr", options={"xtol": cfg.tol})
        found = project(sol.x - shift)
        res = residual(found)
        if res < cfg.tol and not (deflated and found.q_v < _TRIVIAL):
            run = {"state": found, "converged": True, "solver": "root"}
        else:
            found, steps, converged, res = _iterate(state, damped, residual, cfg)
            evals += steps
            run = {"state": found, "converged": converged, "solver": "damped"}
        runs[init] = {**run, "iters": evals, "residual": res}

    gap = float("nan")
    if runs["uninformative"]["converged"] and runs["informative"]["converged"]:
        gap = abs(runs["uninformative"]["state"].q_v
                  - runs["informative"]["state"].q_v)

    sel = runs[cfg.init]
    st = sel["state"]
    return PhasePoint(alpha=alpha, delta=delta, mmse_v=rv - st.q_v,
                      q_v_star=st.q_v, iters=sel["iters"],
                      converged=sel["converged"], init_used=cfg.init,
                      q_z_star=st.q_z, q_hat_z_star=st.q_hat_z,
                      q_u_star=st.q_u, init_gap=gap, runs=runs)


def mutual_information(delta: float, alpha: float, act: Activation,
                       latent: SeparablePrior,
                       cfg: SEConfig | None = None) -> tuple[float, float]:
    """Replica mutual information density at the SE extremizer.

    i_RS = rho_v^2/(4 Delta) + q_v^2/(4 Delta)
           + (1/alpha) (q_z q_hat_z / 2 - Psi_z(q_hat_z))
           - Psi_out(q_v / Delta, q_z)
    """
    if alpha <= 0:
        raise ValueError("mutual information requires alpha > 0")
    cfg = cfg or SEConfig(init="informative")
    pp = se_fixed_point(cfg, delta, alpha, act, latent, Wigner())
    if not pp.converged and not pp.runs[cfg.init]["residual"] <= 1e-6:
        # i_RS is stationary at the extremizer, so a near-converged state only
        # costs second-order error; anything drifting harder (or nan) is a
        # real failure
        raise RuntimeError(f"state evolution did not converge at delta={delta}")
    rv = rho_v(act, latent)
    qv, qz, qh = pp.q_v_star, pp.q_z_star, pp.q_hat_z_star
    i_rs = (rv ** 2 / (4.0 * delta) + qv ** 2 / (4.0 * delta)
            + (0.5 * qz * qh - ch.psi_z(latent, qh, order=_QUAD_ORDER)) / alpha
            - ch.psi_out(act, latent, qv / delta, qz, order=_QUAD_ORDER))
    return i_rs, qv


# ---------------------------------------------------------------------------
# stability of the uninformative fixed point
# ---------------------------------------------------------------------------

def delta_c(alpha: float, act: Activation, latent: SeparablePrior,
            model: Wigner | Wishart = Wigner()) -> float:
    """Critical noise: the Delta at which the all-zeros fixed point loses stability.

    The Jacobian J of the SE map at that fixed point is entrywise nonnegative
    and no entry grows with Delta, so by Perron-Frobenius its spectral radius
    is one exactly where det(I - J) = 0; J itself is assembled in
    tests/oracles.py, the tests' reference for this closed form.  Its cycles through q_v give, with m2 = E[v^2] and
    m1 = E[vx],

        Wigner:  det(I - J) = 1 - (m2^2 + alpha m1^4) / Delta
        Wishart: det(I - J) = 1 - rho_u^2 beta (m2^2 + alpha m1^4) / Delta^2,

    so Delta_c = m2^2 + alpha m1^4, or rho_u sqrt(beta (m2^2 + alpha m1^4)).
    """
    vv, vx = null_channel_moments(act, latent)
    wigner_c = vv ** 2 + alpha * vx ** 4
    if isinstance(model, Wishart):
        return model.prior_u.rho * math.sqrt(model.beta * wigner_c)
    return wigner_c
