import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import blas

from spikedgen import amp, state_evolution as se
from spikedgen.priors import (LINEAR, SIGN, Wigner, gauss_prior,
                              generate_spike, make_model, make_rng, sample_u,
                              sample_wigner, sample_wishart)

GAUSS1 = gauss_prior(1.0)


def _wigner_setup(k, delta, act=LINEAR, alpha=2, seed=0):
    p = alpha * k
    gm = make_model(p, k, act, GAUSS1, seed=seed * 17 + 1)
    z, v = generate_spike(gm, seed=seed * 17 + 2)
    inst = sample_wigner(v, delta, seed=seed * 17 + 3, z_star=z)
    return gm, inst


def _wishart_setup(k, delta, act=LINEAR, alpha=2, seed=0):
    p = alpha * k
    gm = make_model(p, k, act, GAUSS1, seed=seed * 17 + 1)
    z, v = generate_spike(gm, seed=seed * 17 + 2)
    u = sample_u(GAUSS1, p, seed=seed * 17 + 4)
    inst = sample_wishart(u, v, delta, seed=seed * 17 + 3, prior_u=GAUSS1, z_star=z)
    return gm, inst


SETUPS = {"wigner": _wigner_setup, "wishart": _wishart_setup}


def _zero_state(gm, inst, model):
    """The all-zero AMP state, with the u fields for Wishart."""
    state = amp.AmpState(
        v_hat=np.zeros(gm.p), c_v=np.full(gm.p, 1.0),
        z_hat=np.zeros(gm.k), c_z=np.full(gm.k, GAUSS1.rho),
        v_hat_prev=np.zeros(gm.p), g_prev=np.zeros(gm.p))
    if model == "wishart":
        n = inst.Y.shape[0]
        state.u_hat, state.c_u, state.u_hat_prev = np.zeros(n), np.ones(n), np.zeros(n)
    return state


def se_trajectory(q_v0, q_z0, delta, alpha, act, steps):
    st = se.OverlapState(q_v=q_v0, q_z=q_z0, q_hat_z=0.0)
    out = [st.q_v]
    for _ in range(steps):
        st = se.se_step(st, delta, alpha, act, GAUSS1)
        out.append(st.q_v)
    return out


def test_align_and_mse_trivial():
    v = np.array([1.0, -2.0, 3.0])
    mse, s = amp.align_and_mse(-v, v)
    assert mse == 0.0 and s == -1
    mse, s = amp.align_and_mse(np.zeros(3), v)
    assert mse == pytest.approx(np.sum(v ** 2) / 3)


def test_align_and_mse_orthogonal():
    rng = make_rng(5)
    v = rng.standard_normal(2000)
    u = rng.standard_normal(2000)
    u -= (u @ v) / (v @ v) * v      # make exactly orthogonal
    mse, _ = amp.align_and_mse(u, v)
    assert mse == pytest.approx((np.sum(v ** 2) + np.sum(u ** 2)) / 2000, abs=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        amp.AmpConfig(tol=0.0)
    with pytest.raises(ValueError):
        amp.AmpConfig(damping=1.0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            amp.AmpConfig(max_iter=bad)


@pytest.mark.parametrize("model", sorted(SETUPS))
def test_zero_state_is_fixed_point(model):
    gm, inst = SETUPS[model](100, 1.0, SIGN)
    new = amp.amp_step(_zero_state(gm, inst, model), inst, gm)
    assert np.all(new.v_hat == 0.0)
    assert np.all(new.z_hat == 0.0)
    if model == "wishart":
        assert np.all(new.u_hat == 0.0)


def test_strong_signal_recovery():
    gm, inst = _wigner_setup(1000, 0.1)
    res = amp.amp_wigner_run(inst, gm, amp.AmpConfig(max_iter=50), seed=3)
    assert abs(res.overlap_trace[-1]) > 0.9 * 1.0
    # overlap climbs to the fixed point and stays there (finite-size ringing
    # of a few percent around the plateau is expected)
    q = np.abs(res.overlap_trace)
    running_max = np.maximum.accumulate(q)
    assert np.all(q >= running_max - 0.08)
    assert np.argmax(q > 0.9) <= 50


def test_determinism():
    gm, inst = _wigner_setup(300, 1.0)
    r1 = amp.amp_wigner_run(inst, gm, seed=9)
    r2 = amp.amp_wigner_run(inst, gm, seed=9)
    assert np.array_equal(r1.v_hat, r2.v_hat)
    assert r1.overlap_trace == r2.overlap_trace


def test_null_phase_no_overlap():
    delta_c = 3.0
    gm, inst = _wigner_setup(2000, 1.5 * delta_c)
    res = amp.amp_wigner_run(inst, gm, seed=11)
    assert abs(res.overlap_trace[-1]) <= 3 / math.sqrt(gm.p)


def _correlated_init(inst, gm, weight, seed):
    # SE tracks trajectories seeded with O(1) correlation; a noise-level random
    # start has overlap ~ 1/sqrt(k) which the scalar recursion cannot resolve
    rng = make_rng(seed)
    iv = weight * inst.v_star + math.sqrt(1 - weight ** 2) * rng.standard_normal(gm.p)
    iz = weight * inst.z_star + math.sqrt(1 - weight ** 2) * rng.standard_normal(gm.k)
    return iv, iz


def test_se_tracking_and_onsager_ablation(odd_act):
    """AMP overlap follows the SE trajectory; dropping the Onsager term breaks it."""
    k = 2000
    delta = 0.5 * se.delta_c_closed_form(2.0, odd_act)
    gm, inst = _wigner_setup(k, delta, odd_act)
    tol = 5 / math.sqrt(k)
    steps = 20
    iv, iz = _correlated_init(inst, gm, 0.3, seed=77)

    # the first two sweeps carry the cold-start memory artifact (the t=0
    # Onsager quantities are literal zeros), so rebase the SE trajectory at
    # t0 = 3 and track the stationary dynamics from there
    t0 = 3
    res = amp.amp_wigner_run(inst, gm, amp.AmpConfig(max_iter=t0 + steps),
                             seed=13, init_v=iv, init_z=iz)
    traj = se_trajectory(abs(res.overlap_trace[t0]), abs(res.q_z_trace[t0]),
                         delta, 2.0, odd_act, steps)
    devs = [abs(abs(q_amp) - q_se)
            for q_amp, q_se in zip(res.overlap_trace[t0:], traj)]
    assert max(devs) <= tol

    res_no = amp.amp_wigner_run(inst, gm, amp.AmpConfig(max_iter=t0 + steps),
                                seed=13, init_v=iv, init_z=iz, onsager=False)
    devs_no = [abs(abs(q_amp) - q_se)
               for q_amp, q_se in zip(res_no.overlap_trace[t0:], traj)]
    assert max(devs_no) > tol        # negative control: > 5 sigma = 5/sqrt(k)


def test_nishimori_at_fixed_point():
    k = 2000
    gm, inst = _wigner_setup(k, 1.5)
    res = amp.amp_wigner_run(inst, gm, seed=15)
    m = abs(res.overlap_trace[-1])
    q = res.self_overlap_trace[-1]
    assert abs(m - q) <= 5 / math.sqrt(k)


def test_se_agreement_moderate_size():
    k = 2000
    gm, inst = _wigner_setup(k, 1.5)
    res = amp.amp_wigner_run(inst, gm, seed=17)
    pp = se.se_fixed_point(se.SEConfig(), 1.5, 2.0, LINEAR, GAUSS1)
    assert abs(abs(res.overlap_trace[-1]) - pp.q_v_star) <= 5 / math.sqrt(k)


def test_permutation_equivariance():
    # permuting rows of W and v* permutes v_hat (up to BLAS reduction roundoff;
    # bit-exactness is unattainable once sums are reordered)
    gm, inst = _wigner_setup(200, 1.0)
    res = amp.amp_wigner_run(inst, gm, amp.AmpConfig(max_iter=10), seed=19)
    rng = make_rng(20)
    perm = rng.permutation(gm.p)
    gm_p = make_model(gm.p, gm.k, gm.act, gm.latent, seed=1)  # placeholder
    object.__setattr__(gm_p, "W", gm.W[perm])
    inst_p = sample_wigner(inst.v_star[perm], inst.delta, seed=0, z_star=inst.z_star)
    object.__setattr__(inst_p, "Y", inst.Y[np.ix_(perm, perm)])
    res_p = amp.amp_wigner_run(inst_p, gm_p, amp.AmpConfig(max_iter=10), seed=19)
    # note: the AMP init draws v_hat per index, so permute the init too by
    # comparing overlap traces instead of raw vectors
    assert res_p.self_overlap_trace[0] == pytest.approx(res.self_overlap_trace[0])


def test_wigner_rejects_wrong_model():
    pu = gauss_prior(1.0)
    u = sample_u(pu, 100, seed=1)
    inst = sample_wishart(u, np.ones(50), 1.0, seed=2)
    gm = make_model(50, 25, LINEAR, GAUSS1, seed=3)
    with pytest.raises(ValueError):
        amp.amp_wigner_run(inst, gm)


def test_wishart_rejects_zero_delta():
    pu = gauss_prior(1.0)
    gm = make_model(50, 25, LINEAR, GAUSS1, seed=4)
    z, v = generate_spike(gm, seed=5)
    u = sample_u(pu, 50, seed=6)
    inst = sample_wishart(u, v, 1.0, seed=7, z_star=z)
    object.__setattr__(inst, "delta", 0.0)
    with pytest.raises(ValueError, match="A_v would be infinite"):
        amp.amp_wishart_run(inst, gm, pu)


def test_wishart_strong_signal():
    k, p = 1000, 2000
    pu = gauss_prior(1.0)
    gm = make_model(p, k, LINEAR, GAUSS1, seed=8)
    z, v = generate_spike(gm, seed=9)
    u = sample_u(pu, p, seed=10)
    inst = sample_wishart(u, v, 0.02, seed=11, prior_u=pu, z_star=z)
    res = amp.amp_wishart_run(inst, gm, pu, seed=12)
    assert res.mse_v <= 0.02
    assert abs(res.overlap_u) > 0.9


def test_wishart_beta1_matches_wigner_statistically():
    """At beta = 1 the Wishart run should perform like the Wigner run."""
    k, delta = 1000, 1.0
    overlaps_w, overlaps_g = [], []
    for s in range(3):
        gm, inst = _wigner_setup(k, delta, seed=s + 40)
        overlaps_g.append(abs(amp.amp_wigner_run(inst, gm, seed=s).overlap_trace[-1]))
        pu = gauss_prior(1.0)
        gmw = make_model(2 * k, k, LINEAR, GAUSS1, seed=s * 31 + 5)
        z, v = generate_spike(gmw, seed=s * 31 + 6)
        u = sample_u(pu, 2 * k, seed=s * 31 + 7)
        instw = sample_wishart(u, v, delta, seed=s * 31 + 8, prior_u=pu, z_star=z)
        overlaps_w.append(abs(amp.amp_wishart_run(instw, gmw, pu, seed=s).overlap_trace[-1]))
    scale = 3 / math.sqrt(k)
    assert abs(np.mean(overlaps_w) - np.mean(overlaps_g)) <= 3 * scale


@pytest.mark.parametrize("model", sorted(SETUPS))
def test_divergence_detection(model):
    gm, inst = SETUPS[model](100, 1.0)
    fields = [f for f, v in vars(_zero_state(gm, inst, model)).items()
              if isinstance(v, np.ndarray)]
    for name in fields:
        bad = _zero_state(gm, inst, model)
        setattr(bad, name, np.full_like(getattr(bad, name), np.nan))
        with pytest.raises(amp.AmpDivergenceError, match=f"non-finite {name}$"):
            amp.amp_step(bad, inst, gm)


# ---------------------------------------------------------------------------
# the BLAS products of amp_step
# ---------------------------------------------------------------------------

def _numpy_products(monkeypatch):
    """Route amp_step's products through numpy's `@`, the path before dsymv."""
    monkeypatch.setattr(amp, "_gemv", lambda A, x, trans=False: (A.T if trans else A) @ x)
    monkeypatch.setattr(amp, "_symv", lambda Y, x: Y @ x)


def test_blas_products_match_numpy():
    gm, inst = _wigner_setup(60, 1.0)
    rng = make_rng(3)
    x_p, x_k, x_n = (rng.standard_normal(m) for m in (gm.p, gm.k, 90))
    Y = rng.standard_normal((90, gm.p))
    pairs = [(amp._symv(inst.Y, x_p), inst.Y @ x_p),
             (amp._gemv(gm.W, x_k), gm.W @ x_k),
             (amp._gemv(gm.W, x_p, trans=True), gm.W.T @ x_p),
             (amp._gemv(Y, x_p), Y @ x_p),
             (amp._gemv(Y, x_n, trans=True), Y.T @ x_n)]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("act", [LINEAR, SIGN], ids=["linear", "sign"])
@pytest.mark.parametrize("model", sorted(SETUPS))
def test_blas_trace_matches_numpy_path(monkeypatch, model, act):
    gm, inst = SETUPS[model](200, 1.0, act=act)
    run = amp.amp_wigner_run if model == "wigner" else amp.amp_wishart_run
    cfg = amp.AmpConfig(max_iter=30, tol=1e-300)
    new = run(inst, gm, cfg=cfg, seed=5).overlap_trace
    _numpy_products(monkeypatch)
    old = run(inst, gm, cfg=cfg, seed=5).overlap_trace
    assert len(new) == len(old) == 31
    assert np.max(np.abs(np.subtract(new, old))) <= 1e-10


@pytest.mark.parametrize("model", sorted(SETUPS))
def test_amp_step_copies_no_matrix(model):
    # tracemalloc sees numpy's buffers, so also the copy f2py makes when it
    # is handed a C-ordered matrix (the control: W, 8 p k bytes); a copy of
    # Y at p = 2000 would be 32 MB
    gm, inst = SETUPS[model](1000, 1.0)
    state = amp.amp_step(_zero_state(gm, inst, model), inst, gm)
    tracemalloc.start()
    try:
        amp.amp_step(state, inst, gm)
        step_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        blas.dgemv(1.0, gm.W, state.z_hat)   # negative control: W copied
        copy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert copy_peak >= 8 * gm.p * gm.k
    assert step_peak <= 16 * 8 * (gm.p + gm.k)   # 384 kB against 32 MB for Y


def test_run_takes_any_memory_order():
    gm, inst = _wigner_setup(100, 1.0)
    cfg = amp.AmpConfig(max_iter=10)
    res = amp.amp_wigner_run(inst, gm, cfg, seed=3)
    res_f = amp.amp_wigner_run(replace(inst, Y=np.asfortranarray(inst.Y)),
                               replace(gm, W=np.asfortranarray(gm.W)), cfg, seed=3)
    assert res_f.overlap_trace == res.overlap_trace
    assert np.array_equal(res_f.v_hat, res.v_hat)
