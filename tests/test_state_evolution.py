import math
import types
import warnings

import numpy as np
import pytest

from oracles import jacobian_at_zero, spectral_radius
from spikedgen import channels as ch
from spikedgen import state_evolution as se
from spikedgen.priors import (LINEAR, RELU, SIGN, Wigner, Wishart, gauss_prior,
                              rademacher_prior, rho_v)

GAUSS1 = gauss_prior(1.0)


def closed_linear_step(qv, qz, delta, alpha):
    """Hand-derived linear-channel map (Gauss latent, rho_z = 1)."""
    x = qv / delta
    V = 1 - qz
    qhat = alpha * x / (1 + x * V)
    qz2 = qhat / (1 + qhat)
    qv2 = qz + x * V ** 2 / (1 + x * V)
    return qv2, qz2


def closed_linear_fixed_point(delta, alpha, iters=300000):
    qv, qz = 1e-6, 1e-6
    for _ in range(iters):
        qv, qz = closed_linear_step(qv, qz, delta, alpha)
    return qv


def closed_linear_wishart_step(qv, qz, qhat, qu, delta, alpha, beta, damping):
    """Hand-derived Wishart linear map (Gauss latent and u, rho = 1)."""
    x = beta * qu / delta
    V = 1 - qz
    qhat = (1 - damping) * alpha * x / (1 + x * V) + damping * qhat
    qz2 = qhat / (1 + qhat)
    qv2 = qz + x * V ** 2 / (1 + x * V)
    qu2 = (qv / delta) / (1 + qv / delta)
    return qv2, qz2, qhat, qu2


# ---------------------------------------------------------------------------
# the SE map
# ---------------------------------------------------------------------------

def test_zero_state_is_fixed(odd_act):
    st = se.OverlapState(0.0, 0.0, 0.0)
    new = se.se_step(st, 1.5, 2.0, odd_act, GAUSS1)
    assert new.q_v == 0.0 and new.q_z == 0.0 and new.q_hat_z == 0.0


def test_step_matches_closed_linear_map():
    st = se.OverlapState(0.3, 0.2, 0.0)
    new = se.se_step(st, 2.0, 2.0, LINEAR, GAUSS1)
    qv2, qz2 = closed_linear_step(0.3, 0.2, 2.0, 2.0)
    assert new.q_v == pytest.approx(qv2, abs=1e-12)
    assert new.q_z == pytest.approx(qz2, abs=1e-12)


def test_alpha_zero_limit_separable_gaussian():
    # q = q/(Delta + q): fixed point max(0, 1 - Delta)
    for delta in (0.5, 0.9, 1.5):
        pp = se.se_fixed_point(se.SEConfig(), delta, 0.0, LINEAR, GAUSS1)
        assert pp.q_v_star == pytest.approx(max(0.0, 1 - delta), abs=1e-7)


def test_fixed_point_limits():
    # no-information limit
    pp = se.se_fixed_point(se.SEConfig(), 500.0, 2.0, LINEAR, GAUSS1)
    assert pp.q_v_star <= 1e-8
    assert pp.mmse_v == pytest.approx(1.0, abs=1e-8)
    # noiseless limit
    pp = se.se_fixed_point(se.SEConfig(), 0.01, 2.0, LINEAR, GAUSS1)
    assert pp.q_v_star >= 0.99


def test_fixed_point_vs_closed_form_oracle():
    for delta in (0.5, 1.0, 2.0, 2.5):
        want = closed_linear_fixed_point(delta, 2.0)
        pp = se.se_fixed_point(se.SEConfig(), delta, 2.0, LINEAR, GAUSS1)
        assert pp.q_v_star == pytest.approx(want, abs=1e-8)
        assert pp.converged
        assert pp.init_gap <= 1e-8
        assert pp.mmse_v == pytest.approx(rho_v(LINEAR, GAUSS1) - pp.q_v_star,
                                          abs=1e-12)


def test_one_step_decay_above_threshold(odd_act):
    # at Delta >> Delta_c the overlap decays from the informative side
    delta = 3.0 * se.delta_c(2.0, odd_act, GAUSS1)
    st = se.OverlapState(0.5 * rho_v(odd_act, GAUSS1), 0.4, 0.1)
    for _ in range(5):
        new = se.se_step(st, delta, 2.0, odd_act, GAUSS1)
        assert new.q_v <= st.q_v + 1e-12
        st = new


def test_relu_runs_from_epsilon_init():
    pp = se.se_fixed_point(se.SEConfig(), 0.6, 2.0, RELU, GAUSS1)
    assert pp.converged and 0 < pp.q_v_star < 0.5
    assert pp.init_gap <= 1e-8


def test_uniqueness_small_grid(any_act):
    rv = rho_v(any_act, GAUSS1)
    for alpha in (0.5, 2.0):
        for ratio in (0.3, 1.0, 3.0):
            pp = se.se_fixed_point(se.SEConfig(), ratio * rv ** 2, alpha,
                                   any_act, GAUSS1)
            if pp.runs["uninformative"]["converged"] and \
               pp.runs["informative"]["converged"]:
                assert pp.init_gap <= 1e-8


def test_monotone_in_delta(any_act):
    deltas = np.linspace(0.2, 4.0, 12)
    q = [se.se_fixed_point(se.SEConfig(), d, 2.0, any_act, GAUSS1).q_v_star
         for d in deltas]
    assert all(b <= a + 1e-8 for a, b in zip(q, q[1:]))


def test_trivial_point_stable_above_delta_c(odd_act):
    dc = se.delta_c(2.0, odd_act, GAUSS1)
    pp = se.se_fixed_point(se.SEConfig(), 1.4 * dc, 2.0, odd_act, GAUSS1)
    assert pp.q_v_star <= 1e-6


# next to Delta_c the damped map contracts at a rate close to one: the root
# solve must land both inits on the same fixed point, judged by the residual
NEAR_THRESHOLD = {
    "linear_zero_root": (LINEAR, 10 ** 0.6, 5.0, Wigner(), (0.0, 1e-12)),
    "linear_at_delta_c": (LINEAR, 2.0, 3.0, Wigner(), (0.0, 1e-8)),
    "sign_alpha10": (SIGN, 10.0, 5.0, Wigner(), None),
    "sign_alpha2": (SIGN, 2.0, 1.80, Wigner(), (0.0043052, 1e-6)),
    "wishart_linear": (LINEAR, 5.0, 2.97, Wishart(beta=1.5), None),
}


@pytest.mark.parametrize("case", sorted(NEAR_THRESHOLD))
def test_near_threshold_inits_agree(case):
    act, alpha, delta, model, want = NEAR_THRESHOLD[case]
    pp = se.se_fixed_point(se.SEConfig(), delta, alpha, act, GAUSS1, model)
    for run in pp.runs.values():
        assert run["converged"] and run["residual"] < 1e-10
        if want is not None:
            assert run["state"].q_v == pytest.approx(want[0], abs=want[1])
    assert pp.init_gap <= 1e-12


@pytest.mark.parametrize("model", [Wigner(), Wishart(beta=1.5)], ids=["wigner", "wishart"])
def test_stable_zero_root_stops_early(model):
    # a step tolerance relative to |s| alone walks q_v down through the
    # subnormals: 300 to 430 map evaluations per init here
    pp = se.se_fixed_point(se.SEConfig(), 5.0, 2.0, LINEAR, GAUSS1, model)
    for run in pp.runs.values():
        assert run["converged"] and run["solver"] == "root"
        assert run["state"].q_v <= 1e-15 and run["iters"] <= 60


def test_root_failure_falls_back_to_damping(monkeypatch):
    # a root call that hands back its starting point, which is no root
    def no_root(fun, x0, **kwargs):
        return types.SimpleNamespace(x=np.asarray(x0), success=False)

    monkeypatch.setattr(se, "root", no_root)
    pp = se.se_fixed_point(se.SEConfig(), 1.0, 2.0, LINEAR, GAUSS1)
    for run in pp.runs.values():
        assert run["solver"] == "damped"
        assert run["converged"] and run["residual"] < 1e-10
    assert pp.q_v_star == pytest.approx(closed_linear_fixed_point(1.0, 2.0), abs=1e-8)


# ---------------------------------------------------------------------------
# Wishart
# ---------------------------------------------------------------------------

def test_wishart_tied_reproduces_wigner():
    pu = gauss_prior(1.0)
    st_w = se.OverlapState(0.3, 0.2, 0.1, q_u=0.3)
    st_g = se.OverlapState(0.3, 0.2, 0.1)
    for _ in range(5):
        new_w = se.se_step(st_w, 1.5, 2.0, LINEAR, GAUSS1, Wishart(beta=1.0, prior_u=pu))
        new_g = se.se_step(st_g, 1.5, 2.0, LINEAR, GAUSS1)
        assert new_w.q_v == new_g.q_v
        assert new_w.q_z == new_g.q_z
        # re-tie q_u = q_v before the next step
        st_w = se.OverlapState(new_w.q_v, new_w.q_z, new_w.q_hat_z, q_u=new_w.q_v)
        st_g = new_g


def test_wishart_linear_fixed_point_vs_closed_map():
    beta, alpha, cfg = 1.5, 2.0, se.SEConfig()
    for delta in (0.5, 1.5, 3.0):
        state = (1e-6, 1e-6, 0.0, 1e-6)     # the uninformative init
        for _ in range(100000):
            new = closed_linear_wishart_step(*state, delta, alpha, beta,
                                             cfg.damping)
            done = max(abs(a - b) for a, b in zip(new, state)) < 1e-14
            state = new
            if done:
                break
        pp = se.se_fixed_point(cfg, delta, alpha, LINEAR, GAUSS1,
                               Wishart(beta=beta))
        assert pp.converged
        assert pp.q_v_star == pytest.approx(state[0], abs=1e-8)
        assert pp.q_u_star == pytest.approx(state[3], abs=1e-8)


@pytest.mark.parametrize("act, alpha, delta", [(SIGN, 2.0, 0.8), (RELU, 1.0, 0.3)],
                         ids=["sign", "relu"])
def test_psi_out_memo_evaluates_each_point_once(monkeypatch, act, alpha, delta):
    # a root solve asks for the same (x, y) several times (x0 twice, the
    # q_hat_z Jacobian column, the residual of the point found); the memo
    # must evaluate each distinct point once and leave every result as it was
    memo, grads = se._psi_out_grads, ch.psi_out_grads
    asked, evaluated = [], []

    def ask(act, latent, x, y):
        asked.append((x, y))
        return memo(act, latent, x, y)

    def evaluate(act, latent, x, y, **kwargs):
        evaluated.append((x, y))
        return grads(act, latent, x, y, **kwargs)

    monkeypatch.setattr(se, "_psi_out_grads", ask)
    monkeypatch.setattr(ch, "psi_out_grads", evaluate)
    memo.cache_clear()
    pp = se.se_fixed_point(se.SEConfig(), delta, alpha, act, GAUSS1)
    assert pp.converged
    assert len(evaluated) == len(set(evaluated)) == len(set(asked)) < len(asked)
    memo.cache_clear()
    again = se.se_fixed_point(se.SEConfig(), delta, alpha, act, GAUSS1)
    assert again == pp
    for init, run in pp.runs.items():
        for key in ("state", "iters", "residual", "solver"):
            assert again.runs[init][key] == run[key]


def test_relu_fixed_point_builds_rho_v_nodes_once(monkeypatch):
    # rho_v(relu) is a 64-node Gauss-Hermite sum that bounds q_v on every
    # step; a run must not rebuild its nodes once per step
    calls = []
    hermgauss = np.polynomial.hermite.hermgauss

    def counting(order):
        calls.append(order)
        return hermgauss(order)

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counting)
    pp = se.se_fixed_point(se.SEConfig(), 0.6, 2.0, RELU, GAUSS1)
    steps = sum(run["iters"] for run in pp.runs.values())
    assert steps > 20
    assert len(calls) <= 3


def test_wishart_no_information_limit():
    pp = se.se_fixed_point(se.SEConfig(), 200.0, 2.0, LINEAR, GAUSS1,
                           Wishart(beta=1.0))
    assert pp.q_v_star <= 1e-8 and pp.q_u_star <= 1e-8


def test_wishart_gauss_u_closed_form():
    # q_u update for Gaussian P_u: x rho_u^2 / (1 + x rho_u)
    for x in (0.3, 1.0, 4.0):
        assert ch.psi_z_grad2(gauss_prior(1.0), x) == pytest.approx(
            x / (1 + x), abs=1e-12)
        quad = _psi_u_grad2_quadrature(gauss_prior(1.0), x)
        assert ch.psi_z_grad2(gauss_prior(1.0), x) == pytest.approx(quad, abs=1e-9)


def _psi_u_grad2_quadrature(prior, x, order=150):
    # E_xi[Z_u f_u^2] by direct Gauss-Hermite over xi (Z-weighted form)
    t, w = np.polynomial.hermite.hermgauss(order)
    xi = math.sqrt(2) * t
    logz, mean, _ = ch.latent_moments(prior, math.sqrt(x) * xi, x)
    return float(np.sum(w / math.sqrt(math.pi) * np.exp(logz) * mean ** 2))


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mutual_information_large_delta_limit():
    i_rs, q = se.mutual_information(80.0, 2.0, LINEAR, GAUSS1)
    assert i_rs == pytest.approx(1.0 / (4 * 80.0), abs=1e-6)
    assert q <= 1e-8


def test_mutual_information_monotone_in_delta():
    deltas = [0.5, 1.0, 2.0, 3.0, 4.0]
    vals = [se.mutual_information(d, 2.0, LINEAR, GAUSS1)[0] for d in deltas]
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("alpha", [1e3, 1e30, 1e200])
def test_mutual_information_nonnegative_at_large_alpha(alpha):
    # q_z sits at the rho_z (1 - 1e-12) edge here, where a field-grid Psi_out
    # is off by 5e-5, enough to make i_RS negative
    i_rs, _ = se.mutual_information(1.0, alpha, LINEAR, GAUSS1)
    assert i_rs >= 0.0


def test_deflation_at_huge_alpha_raises_no_warning():
    # q_hat_z near 1e200 enters the deflation factor 1 + 1/|s/scale|^2, whose
    # squares overflowed before they were scaled by max |s_i/scale_i|
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_rs, _ = se.mutual_information(1.0, 1e200, LINEAR, GAUSS1)
    assert i_rs >= 0.0
    assert se._deflation(np.array([1e200, 1e-3, 0.5])) == 1.0
    assert se._deflation(np.array([3.0, -4.0])) == pytest.approx(1.04, rel=1e-15)


def test_immse_finite_difference():
    # d i_RS / d lambda = (rho_v^2 - q_v*^2) / 4 at lambda = 1/Delta
    for delta in (1.5, 2.5):
        lam = 1.0 / delta
        h = 1e-3
        ip, _ = se.mutual_information(1 / (lam + h), 2.0, LINEAR, GAUSS1)
        im, _ = se.mutual_information(1 / (lam - h), 2.0, LINEAR, GAUSS1)
        q = se.se_fixed_point(se.SEConfig(init="informative"), delta, 2.0,
                              LINEAR, GAUSS1).q_v_star
        assert (ip - im) / (2 * h) == pytest.approx((1 - q ** 2) / 4, abs=1e-4)


# ---------------------------------------------------------------------------
# stability Jacobian and thresholds
# ---------------------------------------------------------------------------

def test_jacobian_entries_linear():
    j = jacobian_at_zero(2.0, 3.0, LINEAR, GAUSS1)
    assert j[0, 0] == pytest.approx(0.5)        # (E v^2)^2 / Delta
    assert j[0, 2] == pytest.approx(1.0)        # (E vx)^2 / rho_z^2
    assert j[1, 0] == pytest.approx(1.5)        # alpha (E vx)^2 / Delta
    assert j[1, 2] == pytest.approx(0.0)        # (E x^2 - rho_z)^2 = 0
    assert j[2, 1] == pytest.approx(1.0)        # (E z^2)^2 = rho_z^2


def test_jacobian_row3_is_rho_z_squared():
    j = jacobian_at_zero(1.0, 1.0, LINEAR, gauss_prior(2.0))
    assert j[2, 1] == pytest.approx(4.0)


def test_jacobian_rejects_relu():
    with pytest.raises(ValueError, match="uninformative fixed point"):
        jacobian_at_zero(1.0, 1.0, RELU, GAUSS1)
    with pytest.raises(ValueError):
        se.delta_c(1.0, RELU, GAUSS1)


def test_spectral_radius_companion():
    m = np.array([[0.0, 2.0], [0.5, 0.0]])
    assert spectral_radius(m) == pytest.approx(1.0, abs=1e-12)


def test_delta_c_closed_forms_wigner():
    for alpha in (0.5, 1.0, 2.0, 5.0):
        assert se.delta_c(alpha, LINEAR, GAUSS1) == pytest.approx(
            1 + alpha, abs=1e-8)
        assert se.delta_c(alpha, SIGN, GAUSS1) == pytest.approx(
            1 + 4 * alpha / math.pi ** 2, abs=1e-8)
    # separable limit of the sign prior
    assert se.delta_c(1e-9, SIGN, GAUSS1) == pytest.approx(1.0, abs=1e-8)


def test_delta_c_closed_forms_wishart():
    for beta in (0.5, 1.0, 2.0):
        model = Wishart(beta=beta)
        assert se.delta_c(1.0, LINEAR, GAUSS1, model) == pytest.approx(
            math.sqrt(beta * 2), abs=1e-8)
        assert se.delta_c(2.0, SIGN, GAUSS1, model) == pytest.approx(
            math.sqrt(beta * (1 + 8 / math.pi ** 2)), abs=1e-8)


RADIUS_LATENTS = [gauss_prior(0.4), GAUSS1, gauss_prior(2.5), rademacher_prior()]
RADIUS_MODELS = [Wigner()] + [Wishart(beta=b, prior_u=gauss_prior(r))
                              for b in (0.5, 1.0, 2.0) for r in (0.5, 1.0, 3.0)]


@pytest.mark.parametrize("act", [LINEAR, SIGN], ids=["linear", "sign"])
def test_delta_c_is_unit_spectral_radius(act):
    # the closed form sits on rho(J) = 1 to rounding, where a bisection
    # stops only within its own tolerance
    for latent in RADIUS_LATENTS:
        for model in RADIUS_MODELS:
            for alpha in np.geomspace(1e-9, 100.0, 14):
                dc = se.delta_c(alpha, act, latent, model)
                j = jacobian_at_zero(dc, alpha, act, latent, model)
                assert spectral_radius(j) == pytest.approx(1.0, abs=1e-12)


def test_delta_c_crossing_consistency():
    # spectral radius > 1 below the threshold, < 1 above
    dc = se.delta_c(2.0, LINEAR, GAUSS1)
    assert spectral_radius(jacobian_at_zero(dc - 0.01, 2.0, LINEAR, GAUSS1)) > 1
    assert spectral_radius(jacobian_at_zero(dc + 0.01, 2.0, LINEAR, GAUSS1)) < 1


def test_config_validation():
    with pytest.raises(ValueError):
        se.SEConfig(damping=1.0)
    with pytest.raises(ValueError):
        se.SEConfig(tol=0.0)
    with pytest.raises(ValueError):
        se.SEConfig(init="warm")
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            se.SEConfig(max_iter=bad)
    with pytest.raises(ValueError):
        se.se_fixed_point(se.SEConfig(), -1.0, 2.0, LINEAR, GAUSS1)


def test_rademacher_latent_fixed_point():
    pp = se.se_fixed_point(se.SEConfig(), 1.0, 2.0, LINEAR, rademacher_prior())
    assert pp.converged and 0 < pp.q_v_star < 1
    # Rademacher latent carries more information than Gaussian at equal rho
    pp_g = se.se_fixed_point(se.SEConfig(), 1.0, 2.0, LINEAR, GAUSS1)
    assert pp.q_v_star >= pp_g.q_v_star - 1e-6
