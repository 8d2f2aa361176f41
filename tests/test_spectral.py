import math

import numpy as np
import pytest

from spikedgen import rmt, spectral as sp, state_evolution as se
from spikedgen.priors import (LINEAR, RELU, SIGN, Wigner, Wishart,
                              gauss_prior, generate_spike, make_model,
                              make_rng, sample_u, sample_wigner, sample_wishart)
from oracles import lamp_dense
from rmt_bounds import noise_seeds, overlap_bound

GAUSS1 = gauss_prior(1.0)


def _instance(p, k, delta, act=LINEAR, seed=0):
    gm = make_model(p, k, act, GAUSS1, seed=3 * seed + 1)
    z, v = generate_spike(gm, seed=3 * seed + 2)
    return gm, sample_wigner(v, delta, seed=3 * seed + 3, z_star=z)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_lamp_coefficients_linear():
    c = sp.lamp_coefficients(LINEAR, GAUSS1)
    assert (c.a, c.b) == pytest.approx((1.0, 1.0))
    assert c.d is None
    # 0.4**2 / 0.4 rounds one ulp above 0.4; b must still equal a exactly
    c = sp.lamp_coefficients(LINEAR, gauss_prior(0.4))
    assert c.a == c.b == 0.4


def test_lamp_coefficients_sign():
    c = sp.lamp_coefficients(SIGN, GAUSS1)
    assert (c.a, c.b) == pytest.approx((1.0, 2 / math.pi), abs=1e-12)


def test_lamp_coefficients_wishart_sign():
    c = sp.lamp_coefficients(SIGN, GAUSS1, Wishart(beta=1.0))
    assert (c.a, c.b, c.d) == pytest.approx((1.0, 2 / math.pi, 1.0), abs=1e-12)


def test_lamp_coefficients_reject_relu():
    with pytest.raises(ValueError):
        sp.lamp_coefficients(RELU, GAUSS1)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_applicator_matches_dense(odd_act):
    gm, inst = _instance(150, 75, 0.8, odd_act, seed=1)
    coeffs = sp.lamp_coefficients(odd_act, GAUSS1)
    op = sp.build_lamp(inst, gm, coeffs)
    dense = lamp_dense(inst, gm.W, coeffs)
    x = make_rng(4).standard_normal((5, gm.p))
    assert np.allclose(op.apply(x), x @ dense.T, atol=1e-10)


def test_pure_covariance_preconditioner():
    # F F^T is the dense K: a W W^T / k when b = a, where F = sqrt(b/k) W has
    # no identity block, (a - b) I + b W W^T / k when b < a, and Sigma_hat for
    # covariance-LAMP; factor_rapply is F's transpose
    gm, inst = _instance(80, 40, 1.0, LINEAR, seed=2)
    sigma = sp.empirical_covariance(make_rng(5).standard_normal((30, 80)))
    ops = [(sp.build_lamp(inst, gm, coeffs),
            (coeffs.a - coeffs.b) * np.eye(80) + coeffs.b * (gm.W @ gm.W.T) / gm.k)
           for coeffs in (sp.LampCoeffs(a=1.0, b=1.0), sp.LampCoeffs(a=1.0, b=2 / math.pi))]
    ops.append((sp.build_cov_lamp(inst.Y, sigma, 1.0), sigma))
    for op, K in ops:
        F = op.factor_apply(np.eye(op.factor_dim())).T
        assert np.allclose(F @ F.T, K, atol=1e-12)
        assert np.array_equal(op.factor_rapply(np.eye(80)), F)
    assert [op.factor_dim() for op, _ in ops] == [40, 120, 80]


def test_dimension_mismatch_errors():
    gm, inst = _instance(60, 30, 1.0, seed=3)
    gm_bad = make_model(50, 25, LINEAR, GAUSS1, seed=9)
    with pytest.raises(ValueError):
        sp.build_lamp(inst, gm_bad, sp.lamp_coefficients(LINEAR, GAUSS1))


def test_cov_lamp_requires_symmetric():
    y = make_rng(6).standard_normal((40, 40))
    with pytest.raises(ValueError, match="symmetric"):
        sp.build_cov_lamp(y, make_rng(7).standard_normal((40, 40)), 1.0)


def test_wishart_operator_dense_agreement():
    pu = gauss_prior(1.0)
    gm = make_model(120, 60, LINEAR, GAUSS1, seed=11)
    z, v = generate_spike(gm, seed=12)
    u = sample_u(pu, 120, seed=13)
    inst = sample_wishart(u, v, 0.9, seed=14, prior_u=pu, z_star=z)
    coeffs = sp.lamp_coefficients(LINEAR, GAUSS1, Wishart(beta=1.0))
    op = sp.build_lamp(inst, gm, coeffs)
    dense = lamp_dense(inst, gm.W, coeffs)
    x = make_rng(15).standard_normal((3, 120))
    assert np.allclose(op.apply(x), x @ dense.T, atol=1e-10)


# ---------------------------------------------------------------------------
# eigen-solvers
# ---------------------------------------------------------------------------

def _sym(dim, seed):
    a = make_rng(seed).standard_normal((dim, dim))
    return (a + a.T) / math.sqrt(2 * dim)


def _with_spectrum(vals, seed):
    q, _ = np.linalg.qr(make_rng(seed).standard_normal((len(vals), len(vals))))
    return (q * vals) @ q.T


def _lone(a, tol, max_iter=1000, data=None):
    """The driver with one side on the dense symmetric `a` (data rows x -> x a)."""
    data = sp.DataOperator((data or a.__rmatmul__,), 1.0)
    same = lambda v: v
    side = sp._lanczos_side(sp._lanczos_steps(a.shape[0], make_rng(0), tol, max_iter),
                            data, same, lambda x, gx: gx, same)
    return sp._lockstep(data, [side])[0]


def _check_top2(a, tol=1e-10):
    """`_lone` on the dense symmetric `a` against numpy.linalg.eigh."""
    count = [0]

    def data(x):
        count[0] += 1
        return x @ a

    vals, vecs, steps = _lone(a, tol, data=data)
    want = np.linalg.eigh(a)[0][::-1][:2]
    assert steps == count[0] <= a.shape[0]
    assert vals[0] >= vals[1]
    np.testing.assert_allclose(vals, want, rtol=1e-10, atol=0)
    for i in range(2):
        y = vecs[i]
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a @ y - vals[i] * y) <= 2 * tol * abs(vals[i])
    again = _lone(a, tol)
    assert np.array_equal(again[0], vals) and np.array_equal(again[1], vecs)
    assert again[2] == steps
    return steps


@pytest.mark.parametrize("dim", [2, 3, 50, 300])
def test_lanczos_matches_eigh_on_random_symmetric(dim):
    steps = _check_top2(_sym(dim, dim))
    if dim <= 3:
        assert steps == dim      # the Krylov space is the whole space


def test_lanczos_resolves_a_close_top_pair():
    vals = np.concatenate([[3.0, 3.0 - 1e-6], np.linspace(-2.0, 2.0, 198)])
    _check_top2(_with_spectrum(vals, 7))


def test_lanczos_stops_on_an_invariant_subspace():
    # rank 2: K_3(A, v0) = span(v0, u, w) is invariant, so beta_3 is at
    # rounding level and the solver stops there, far below the cap
    vals = np.zeros(50)
    vals[:2] = 3.0, 2.0
    assert _check_top2(_with_spectrum(vals, 8)) == 3


@pytest.mark.parametrize("scale", [0.0, 2.0])
def test_lanczos_on_a_multiple_of_the_identity(scale):
    # A q_1 is parallel to q_1 (or zero) at the first step: the solver goes on
    # from a fresh vector, and T_2 = scale I gives both pairs
    assert _check_top2(scale * np.eye(5)) == 2


def test_lanczos_takes_largest_algebraic():
    # negative definite: the top pair is the one closest to zero, not the
    # largest in magnitude
    assert _check_top2(_with_spectrum(-np.linspace(1.0, 5.0, 200), 9)) < 200


def test_lanczos_reports_non_convergence():
    a = _sym(50, 10)
    with pytest.raises(sp.LanczosNoConvergence,
                       match=r"Lanczos did not converge in 3 steps: worst Ritz "
                             r"estimate .* = \S+ > tol") as err:
        _lone(a, 1e-10, max_iter=3)
    assert isinstance(err.value, RuntimeError)


@pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf])
def test_lanczos_refuses_a_negative_or_non_finite_tol(tol):
    # tol = 0 means machine epsilon, as in ARPACK; nothing else is rewritten
    a = _sym(20, 11)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        _lone(a, tol)
    vals, _, _ = _lone(a, 0.0)
    np.testing.assert_allclose(vals, np.linalg.eigh(a)[0][::-1][:2], rtol=1e-12, atol=0)


def test_symmetric_path_on_known_eigenpairs():
    gm, inst = _instance(300, 150, 1.0, seed=21)
    coeffs = sp.lamp_coefficients(LINEAR, GAUSS1)
    op = sp.build_lamp(inst, gm, coeffs)
    res = sp.leading_eigs(op, truth=inst.v_star, seed=1)
    dense_eigs = np.sort(np.linalg.eigvals(lamp_dense(inst, gm.W, coeffs)).real)[::-1]
    assert res.eigenvalues[0] == pytest.approx(dense_eigs[0], abs=1e-7)
    assert res.eigenvalues[1] == pytest.approx(dense_eigs[1], abs=1e-6)
    assert res.eigenvalues[0] >= res.eigenvalues[1]
    assert np.linalg.norm(res.eigenvector) ** 2 == pytest.approx(gm.p, rel=1e-8)
    assert res.residuals[0] <= 1e-6


def test_rejects_non_psd_preconditioner():
    # only a PSD preconditioner makes Gamma similar to a symmetric operator
    with pytest.raises(ValueError, match="a >= b >= 0"):
        sp.LampCoeffs(a=1.0, b=2.0)
    with pytest.raises(ValueError, match="a >= b >= 0"):
        sp.LampCoeffs(a=1.0, b=-0.5)
    y = make_rng(31).standard_normal((40, 40))
    indefinite = np.diag(np.linspace(-1.0, 1.0, 40))
    with pytest.raises(ValueError, match="positive semidefinite"):
        sp.build_cov_lamp(y, indefinite, 1.0)


def test_lamp_outlier_at_transition():
    # linear, Delta < Delta_c: top eigenvalue detaches near 1
    p, k, delta = 2000, 1000, 2.0
    gm, inst = _instance(p, k, delta, seed=41)
    op = sp.build_lamp(inst, gm, sp.lamp_coefficients(LINEAR, GAUSS1))
    res = sp.leading_eigs(op, truth=inst.v_star, seed=3)
    assert abs(res.eigenvalues[0] - 1.0) <= 0.08
    edge = rmt.solve_s_edge(rmt.base_law(Wigner(), delta), 2.0)
    assert abs(res.eigenvalues[1] - edge.lambda_max) <= 0.08
    assert res.overlap_sq >= 0.1


def test_lamp_mse_matches_se_prediction():
    # normalized-LAMP MSE -> rho_v + 1 - 2 sqrt(q_v*); the per-instance
    # eigenvector overlap fluctuates by a few percent, so average seeds
    from spikedgen.amp import align_and_mse
    p, k, delta = 6000, 3000, 1.5
    mses = []
    for s in range(3):
        gm, inst = _instance(p, k, delta, seed=42 + s)
        op = sp.build_lamp(inst, gm, sp.lamp_coefficients(LINEAR, GAUSS1))
        res = sp.leading_eigs(op, truth=inst.v_star, seed=4 + s)
        mses.append(align_and_mse(res.eigenvector, inst.v_star)[0])
    q = se.se_fixed_point(se.SEConfig(), delta, 2.0, LINEAR, GAUSS1).q_v_star
    assert np.mean(mses) == pytest.approx(1.0 + 1.0 - 2 * math.sqrt(q), abs=0.05)


def test_wishart_lamp_gap_below_threshold():
    pu = gauss_prior(1.0)
    p = k = n = 2500   # alpha = 1, beta = 1, delta_c = sqrt(2)
    gm = make_model(p, k, LINEAR, GAUSS1, seed=400)
    z, v = generate_spike(gm, seed=500)
    u = sample_u(pu, n, seed=600)
    inst = sample_wishart(u, v, 0.9, seed=700, prior_u=pu, z_star=z)
    coeffs = sp.lamp_coefficients(LINEAR, GAUSS1, Wishart(beta=1.0))
    op = sp.build_lamp(inst, gm, coeffs)
    res = sp.leading_eigs(op, truth=inst.v_star, seed=5)
    assert res.eigenvalues[0] - res.eigenvalues[1] > 0.05
    # the uv outlier converges to 1 with sizeable finite-p fluctuations
    assert abs(res.eigenvalues[0] - 1.0) <= 0.15
    # the second eigenvalue sits at the analytic bulk edge
    edge = rmt.solve_s_edge(rmt.base_law(Wishart(1.0), inst.delta, 1.0), 1.0)
    assert abs(res.eigenvalues[1] - edge.lambda_max) <= 0.05


# ---------------------------------------------------------------------------
# PCA and covariance-LAMP
# ---------------------------------------------------------------------------

def test_pca_noiseless_recovery():
    gm, _ = _instance(400, 200, 1.0, seed=61)
    _, v = generate_spike(gm, seed=62)
    inst = sample_wigner(v, 1e-20, seed=63)
    res = sp.pca_estimate(inst, seed=6)
    # overlap_sq is scaled by |v*|^2/p; the squared cosine is the clean metric
    cos_sq = res.overlap_sq / (np.sum(inst.v_star ** 2) / 400)
    assert cos_sq >= 1.0 - 10.0 / 400


def test_pca_threshold_behaviour():
    # above threshold p overlap^2 is sub-critical, chi^2_1/(1 - 1/sqrt(1.6))^2
    # with mean 22.7, so the clause is the noise-averaged p^{-1/3} bound
    p, k = 1500, 750
    gm, _ = _instance(p, k, 1.0, seed=64)
    _, v = generate_spike(gm, seed=65)
    below = sp.pca_estimate(sample_wigner(v, 0.6, seed=66), seed=7)
    above = [sp.pca_estimate(sample_wigner(v, 1.6, seed=s), seed=7).overlap_sq
             for s in noise_seeds(67)]
    assert below.overlap_sq > 0.05
    assert np.mean(above) <= overlap_bound(p) < below.overlap_sq


def test_pca_determinism():
    gm, inst = _instance(300, 150, 0.7, seed=68)
    r1 = sp.pca_estimate(inst, seed=8)
    r2 = sp.pca_estimate(inst, seed=8)
    assert np.array_equal(r1.eigenvector, r2.eigenvector)


def test_pca_wishart_singular_pair():
    pu = gauss_prior(1.0)
    gm = make_model(500, 250, LINEAR, GAUSS1, seed=71)
    z, v = generate_spike(gm, seed=72)
    u = sample_u(pu, 500, seed=73)
    inst = sample_wishart(u, v, 0.1, seed=74, prior_u=pu, z_star=z)
    res = sp.pca_estimate(inst, seed=9)
    assert res.overlap_sq > 0.5
    sv = np.linalg.svd(inst.Y / math.sqrt(500), compute_uv=False)
    assert res.eigenvalues[0] == pytest.approx(sv[0], rel=1e-8)


def test_cov_lamp_identity_covariance_matches_pca():
    # Sigma = I: same top eigenvector as PCA of Y (shift invariance)
    gm, inst = _instance(300, 150, 0.5, seed=81)
    op = sp.build_cov_lamp(inst.Y, np.eye(300), inst.delta)
    res = sp.leading_eigs(op, truth=inst.v_star, seed=10)
    pca = sp.pca_estimate(inst, seed=10)
    align = abs(res.eigenvector @ pca.eigenvector) / 300
    assert align == pytest.approx(1.0, abs=1e-5)


def test_cov_lamp_estimated_covariance_consistency():
    # covariance from 1e4 synthetic spikes ~ oracle W W^T / k LAMP
    p, k, m, delta = 100, 50, 10000, 0.7
    gm = make_model(p, k, LINEAR, GAUSS1, seed=82)
    z, v = generate_spike(gm, seed=83)
    inst = sample_wigner(v, delta, seed=84, z_star=z)
    rng = make_rng(85)
    spikes = (gm.W @ rng.standard_normal((k, m))).T / math.sqrt(k)
    sigma = sp.empirical_covariance(spikes)
    op_emp = sp.build_cov_lamp(inst.Y, sigma, delta)
    op_orc = sp.build_lamp(inst, gm, sp.lamp_coefficients(LINEAR, GAUSS1))
    r_emp = sp.leading_eigs(op_emp, truth=inst.v_star, seed=11)
    r_orc = sp.leading_eigs(op_orc, truth=inst.v_star, seed=11)
    assert abs(r_emp.overlap_sq - r_orc.overlap_sq) <= 0.05


def test_lamp_not_worse_than_pca():
    # mean overlap over seeds: LAMP >= PCA - 0.02 on a small grid
    p, k = 1500, 750
    for act in (LINEAR, SIGN):
        dc = se.delta_c(2.0, act, GAUSS1)
        for ratio in (0.4, 0.9):
            delta = ratio * dc
            lamp_o, pca_o = [], []
            for s in range(3):
                gm, inst = _instance(p, k, delta, act, seed=90 + s)
                op = sp.build_lamp(inst, gm,
                                          sp.lamp_coefficients(act, GAUSS1))
                lamp_o.append(sp.leading_eigs(op, truth=inst.v_star,
                                              seed=12 + s).overlap_sq)
                pca_o.append(sp.pca_estimate(inst, seed=12 + s).overlap_sq)
            assert np.mean(lamp_o) >= np.mean(pca_o) - 0.02
