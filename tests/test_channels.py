"""Oracle suite for the scalar denoisers and free-entropy integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from spikedgen import channels as ch
from spikedgen.priors import LINEAR, SIGN, RELU, gauss_prior, rademacher_prior

GAUSS1 = gauss_prior(1.0)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def trapezoid_moments(act, B, A, omega, V, n=200001):
    """Dense trapezoid over x, split at the activation kink at 0.

    Each half-line is integrated on an open interval (the integrand of the
    sign channel jumps at 0, so the shared endpoint must not leak across).
    """
    s = math.sqrt(V)
    c2 = A + 1.0 / V
    m = (B + omega / V) / c2
    s2 = 1.0 / math.sqrt(c2)
    lo = min(omega - 14 * s, m - 14 * s2, -1.0)
    hi = max(omega + 14 * s, m + 14 * s2, 1.0)

    def piece(a, b):
        if b <= a:
            return np.zeros(5)
        xs = np.linspace(a, b, n)
        v = act.phi(xs)
        w = np.exp(-0.5 * (xs - omega) ** 2 / V - 0.5 * A * v * v + B * v)
        w /= math.sqrt(2 * math.pi * V)
        return np.array([np.trapezoid(w * f, xs)
                         for f in (np.ones_like(xs), v, v * v, xs, xs * xs)])

    raw = piece(lo, -1e-13) + piece(1e-13, hi)
    z, ev, evv, ex, exx = raw
    ev, evv, ex, exx = ev / z, evv / z, ex / z, exx / z
    return z, ev, evv - ev ** 2, ex, exx - ex ** 2


def mc_psi_out(act, latent, x, y, n=10 ** 6, seed=7):
    """Monte Carlo over (xi, eta) of Z log Z; returns (mean, stderr)."""
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(n)
    eta = rng.standard_normal(n)
    logz, *_ = ch.out_moments(act, math.sqrt(x) * xi, x,
                              math.sqrt(y) * eta, latent.rho - y)
    vals = np.exp(logz) * logz
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def mc_psi_z(prior, x, n=10 ** 6, seed=11):
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(n)
    logz, _, _ = ch.latent_moments(prior, math.sqrt(x) * xi, x)
    vals = np.exp(logz) * logz
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


# ---------------------------------------------------------------------------
# Z_out and moments vs the oracle
# ---------------------------------------------------------------------------

def test_null_normalization(any_act):
    dp = ch.DenoiserParams(0.0, 0.0, 0.0, GAUSS1.rho)
    assert abs(ch.z_out(any_act, dp) - 1.0) < 1e-10


def test_z_out_frozen_values():
    # Gaussian integral: int N(x;0,1) e^{-x^2/2} dx = 1/sqrt(2)
    assert ch.z_out(LINEAR, ch.DenoiserParams(0, 1, 0, 1)) == pytest.approx(
        1 / math.sqrt(2), abs=1e-12)
    # two-mass integral over v = +-1 with symmetric x-weight
    assert ch.z_out(SIGN, ch.DenoiserParams(1, 0, 0, 1)) == pytest.approx(
        math.cosh(1.0), abs=1e-12)


def test_moments_against_trapezoid_oracle(any_act):
    rng = np.random.default_rng(3)
    for _ in range(25):
        B = 3 * rng.normal()
        A = abs(rng.normal())
        omega = 3 * rng.normal()
        V = 0.05 + 2 * abs(rng.normal())
        z0, ev0, vv0, ex0, xv0 = trapezoid_moments(any_act, B, A, omega, V)
        logz, ev, vv, ex, xv = ch.out_moments(any_act, B, A, omega, V)
        assert math.exp(logz) == pytest.approx(z0, rel=1e-7)
        assert ev == pytest.approx(ev0, abs=1e-7)
        assert vv == pytest.approx(vv0, abs=1e-7)
        assert ex == pytest.approx(ex0, abs=1e-7)
        assert xv == pytest.approx(xv0, abs=1e-7)


def test_f_v_linear_closed_form_vs_oracle():
    # posterior mean (B + omega/V) / (A + 1/V) of the Gaussian channel
    for B, A, omega, V in [(0.7, 0.2, -0.4, 1.3), (-1.1, 1.5, 2.0, 0.25)]:
        dp = ch.DenoiserParams(B, A, omega, V)
        want = (B + omega / V) / (A + 1 / V)
        assert ch.f_v(LINEAR, dp) == pytest.approx(want, abs=1e-12)
        z0, ev0, *_ = trapezoid_moments(LINEAR, B, A, omega, V)
        assert ch.f_v(LINEAR, dp) == pytest.approx(ev0, abs=1e-8)


def test_sign_symmetry_and_variance(any_act):
    # B = 0, omega = 0: posterior mean of v vanishes for odd channels
    if any_act.zero_mean_output:
        dp = ch.DenoiserParams(0.0, 0.7, 0.0, 1.0)
        assert abs(ch.f_v(any_act, dp)) < 1e-12
    # df_v is a variance
    dp = ch.DenoiserParams(0.3, 0.7, -0.2, 0.8)
    assert ch.df_v(any_act, dp) >= 0


@settings(max_examples=60, deadline=None)
@given(B=st.floats(-4, 4), A=st.floats(0, 3), omega=st.floats(-4, 4),
       V=st.floats(0.05, 3), kind=st.sampled_from(["linear", "sign", "relu"]))
def test_score_identities_vs_finite_differences(B, A, omega, V, kind):
    """f_v = d_B log Z and f_out = d_omega log Z, against central differences."""
    act = {"linear": LINEAR, "sign": SIGN, "relu": RELU}[kind]
    h = 1e-6
    lzp, *_ = ch.out_moments(act, B + h, A, omega, V)
    lzm, *_ = ch.out_moments(act, B - h, A, omega, V)
    assert ch.f_v(act, ch.DenoiserParams(B, A, omega, V)) == pytest.approx(
        (lzp - lzm) / (2 * h), abs=1e-5)
    lzp, *_ = ch.out_moments(act, B, A, omega + h, V)
    lzm, *_ = ch.out_moments(act, B, A, omega - h, V)
    assert ch.f_out(act, ch.DenoiserParams(B, A, omega, V)) == pytest.approx(
        (lzp - lzm) / (2 * h), abs=1e-5)


def test_df_v_df_out_vs_finite_differences(any_act):
    rng = np.random.default_rng(5)
    for _ in range(10):
        B, A = rng.normal(), abs(rng.normal())
        omega, V = rng.normal(), 0.2 + abs(rng.normal())
        h = 1e-6
        fvp = ch.f_v(any_act, ch.DenoiserParams(B + h, A, omega, V))
        fvm = ch.f_v(any_act, ch.DenoiserParams(B - h, A, omega, V))
        assert ch.df_v(any_act, ch.DenoiserParams(B, A, omega, V)) == pytest.approx(
            (fvp - fvm) / (2 * h), abs=1e-5)
        fop = ch.f_out(any_act, ch.DenoiserParams(B, A, omega + h, V))
        fom = ch.f_out(any_act, ch.DenoiserParams(B, A, omega - h, V))
        assert ch.df_out(any_act, ch.DenoiserParams(B, A, omega, V)) == pytest.approx(
            (fop - fom) / (2 * h), abs=1e-5)


def test_f_out_null_point_zero(odd_act):
    dp = ch.DenoiserParams(0.0, 0.0, 0.0, GAUSS1.rho)
    assert abs(ch.f_out(odd_act, dp)) < 1e-12


def test_df_out_nonpositive_linear():
    # pointwise for the Gaussian channel: Var(x) = 1/(A + 1/V) <= V
    rng = np.random.default_rng(9)
    for _ in range(15):
        dp = ch.DenoiserParams(rng.normal(), abs(rng.normal()),
                               rng.normal(), 0.1 + abs(rng.normal()))
        assert ch.df_out(LINEAR, dp) <= 1e-12


def test_df_out_matched_average_identity(any_act):
    # Bayes-optimal usage: E[Z d_omega f_out] = -E[Z f_out^2] on matched fields
    # (pointwise positivity can fail for bimodal sign posteriors)
    for x, y in [(0.7, 0.2), (2.0, 0.5)]:
        B, omega, logw, V = ch._field_grid(GAUSS1, x, y, 64,
                                           rotate=any_act.kind != "sign")
        logz, _, _, ex, xvar = ch.out_moments(any_act, B, x, omega, V)
        zw = np.exp(logw + logz)
        fout = (ex - omega) / V
        dfout = xvar / V ** 2 - 1 / V
        lhs = float(np.sum(zw * dfout))
        rhs = -float(np.sum(zw * fout * fout))
        assert lhs == pytest.approx(rhs, abs=5e-6)


def test_relu_quadrature_path_matches_closed_form():
    rng = np.random.default_rng(12)
    B = 4 * rng.normal(size=500)
    A = np.abs(rng.normal(size=500)) * 2
    omega = 4 * rng.normal(size=500)
    V = 0.02 + np.abs(rng.normal(size=500))
    ref = ch.relu_moments_quadrature(B, A, omega, V)
    fast = ch.out_moments(RELU, B, A, omega, V)
    for a, b in zip(ref, fast):
        assert np.max(np.abs(a - b)) < 1e-9


def test_logaddexp_matches_numpy():
    rng = np.random.default_rng(21)
    n = 10 ** 6
    a = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    b = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    ref = np.logaddexp(a, b)
    got = ch._logaddexp(a, b)
    # relative error; below |ref| = 1 the result is max(a, b) cancelled against
    # a log1p term of at most log 2, whose absolute error both formulas share
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0))


def test_log_ndtr_mills_matches_scipy():
    t = np.concatenate([np.linspace(-60.0, 60.0, 120001),
                        np.geomspace(1e-300, 1e150, 3000),
                        -np.geomspace(1e-300, 1e150, 3000),
                        np.linspace(37.5, 38.5, 1001), -np.linspace(37.5, 38.5, 1001),
                        [0.0, -0.0]])
    log_cdf, mills = ch._log_ndtr_mills(t)
    assert np.all(np.isfinite(log_cdf)) and np.all(np.isfinite(mills))
    refs = (sp.log_ndtr(t), math.sqrt(2.0 / math.pi) / sp.erfcx(-t / math.sqrt(2.0)))
    for got, ref in zip((log_cdf, mills), refs):
        # wherever the reference is a normal float (erfcx overflows past
        # t = 37.7 and log Phi underflows for large t)
        normal = np.isfinite(ref) & (np.abs(ref) >= np.finfo(float).tiny)
        assert np.count_nonzero(normal) > 0.75 * t.size
        rel = np.abs(got[normal] - ref[normal]) / np.abs(ref[normal])
        assert rel.max() <= 1e-12
    assert log_cdf[-1] == log_cdf[-2] == math.log(0.5)
    assert mills[-1] == mills[-2] == math.sqrt(2.0 / math.pi)


@pytest.mark.parametrize("x", [1e16, 1e20, 1.7e308])
def test_relu_field_grid_refuses_huge_x(x):
    # the proxy covariance loses positivity (or the sums overflow) near the
    # float range; a non-finite gradient must not reach state evolution
    for fn in (ch.psi_out_grads, ch.psi_out):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            fn(RELU, GAUSS1, x, 0.5)


def test_underflow_raises():
    with pytest.raises(ch.ChannelUnderflowError):
        ch.z_out(SIGN, ch.DenoiserParams(0.0, 2000.0, 0.0, 1.0))


def test_param_validation():
    with pytest.raises(ValueError):
        ch.DenoiserParams(0.0, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        ch.DenoiserParams(float("nan"), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ch.LatentParams(0.0, -0.5)
    with pytest.raises(ValueError):
        ch.out_moments(LINEAR, float("inf"), 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# latent denoisers
# ---------------------------------------------------------------------------

def test_f_z_closed_forms():
    lp = ch.LatentParams(1.0, 1.0)
    assert ch.f_z(GAUSS1, lp) == pytest.approx(0.5, abs=1e-14)
    assert ch.f_z(rademacher_prior(), lp) == pytest.approx(math.tanh(1.0), abs=1e-14)
    assert ch.f_z(GAUSS1, ch.LatentParams(0.0, 0.3)) == 0.0
    assert ch.f_z(rademacher_prior(), ch.LatentParams(0.0, 0.3)) == 0.0


def test_f_z_against_quadrature():
    # e^{-L z^2/2 + g z} against each prior, integrated brute-force
    for prior in (GAUSS1, gauss_prior(0.5), rademacher_prior()):
        for gamma, lam in [(0.7, 0.4), (-1.3, 2.0), (2.5, 0.0)]:
            if prior.kind == "gauss":
                zs = np.linspace(-12 * math.sqrt(prior.rho), 12 * math.sqrt(prior.rho), 400001)
                pz = np.exp(-0.5 * zs ** 2 / prior.rho) / math.sqrt(2 * math.pi * prior.rho)
                w = pz * np.exp(-0.5 * lam * zs ** 2 + gamma * zs)
                z0 = np.trapezoid(w, zs)
                m0 = np.trapezoid(w * zs, zs) / z0
                v0 = np.trapezoid(w * zs * zs, zs) / z0 - m0 ** 2
            else:
                wts = np.exp(-0.5 * lam + np.array([gamma, -gamma])) / 2
                z0 = wts.sum()
                m0 = (wts[0] - wts[1]) / z0
                v0 = 1 - m0 ** 2
            lp = ch.LatentParams(gamma, lam)
            assert ch.z_z(prior, lp) == pytest.approx(z0, rel=1e-9)
            assert ch.f_z(prior, lp) == pytest.approx(m0, abs=1e-9)
            assert ch.df_z(prior, lp) == pytest.approx(v0, abs=1e-9)
            assert ch.df_z(prior, lp) >= 0


def test_f_u_mirrors_f_z():
    pu = gauss_prior(1.0)
    assert ch.f_u(pu, 0.0, 1.0) == 0.0
    assert ch.f_u(pu, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert ch.df_u(pu, 0.3, 0.7) >= 0
    h = 1e-6
    fd = (ch.f_u(pu, 0.3 + h, 0.7) - ch.f_u(pu, 0.3 - h, 0.7)) / (2 * h)
    assert ch.df_u(pu, 0.3, 0.7) == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# free-entropy integrals
# ---------------------------------------------------------------------------

def test_psi_z_zero_and_gauss_closed_form():
    assert ch.psi_z(GAUSS1, 0.0) == 0.0
    for x in (0.3, 0.7, 2.0, 20.0):
        want = x * GAUSS1.rho / 2 - 0.5 * math.log1p(x * GAUSS1.rho)
        assert ch.psi_z(GAUSS1, x) == pytest.approx(want, abs=1e-12)


def test_psi_z_vs_monte_carlo():
    for prior in (GAUSS1, rademacher_prior()):
        val = ch.psi_z(prior, 0.8)
        mc, se = mc_psi_z(prior, 0.8)
        assert abs(val - mc) < 3 * se


def test_psi_z_monotone():
    for prior in (GAUSS1, rademacher_prior()):
        xs = np.linspace(0, 5, 30)
        vals = [ch.psi_z(prior, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_psi_out_zero_at_origin(any_act):
    assert abs(ch.psi_out(any_act, GAUSS1, 0.0, 0.0)) < 1e-10


def test_psi_out_vs_monte_carlo():
    val = ch.psi_out(LINEAR, GAUSS1, 0.5, 0.3)
    mc, se = mc_psi_out(LINEAR, GAUSS1, 0.5, 0.3)
    assert abs(val - mc) < 3 * se


def test_psi_out_rejects_bad_y(any_act):
    with pytest.raises(ValueError):
        ch.psi_out(any_act, GAUSS1, 0.5, 1.5)
    with pytest.raises(ValueError):
        ch.psi_out_grads(any_act, GAUSS1, 0.5, GAUSS1.rho)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("arg", ["x", "y"])
@pytest.mark.parametrize("fn", ["psi_out", "psi_out_grads"])
def test_psi_out_rejects_non_finite_fields(any_act, fn, arg, bad):
    # the scalar check refuses every channel alike, the closed-form linear
    # one included, before any field grid is built
    x, y = (bad, 0.3) if arg == "x" else (0.5, bad)
    with pytest.raises(ValueError, match="non-finite channel parameters"):
        getattr(ch, fn)(any_act, GAUSS1, x, y)


def test_psi_out_grads_match_finite_differences(any_act):
    h = 1e-5
    for x, y in [(0.5, 0.3), (1.7, 0.1), (0.2, 0.6)]:
        gx, gy = ch.psi_out_grads(any_act, GAUSS1, x, y)
        fdx = (ch.psi_out(any_act, GAUSS1, x + h, y)
               - ch.psi_out(any_act, GAUSS1, x - h, y)) / (2 * h)
        fdy = (ch.psi_out(any_act, GAUSS1, x, y + h)
               - ch.psi_out(any_act, GAUSS1, x, y - h)) / (2 * h)
        assert gx == pytest.approx(fdx, abs=1e-5)
        assert gy == pytest.approx(fdy, abs=1e-5)


def test_psi_gradient_moment_identity():
    # 2 d_x Psi_out (moment form) vs direct differentiation of Psi_out
    h = 1e-4
    for act in (LINEAR, SIGN):
        gx, _ = ch.psi_out_grads(act, GAUSS1, 0.8, 0.4)
        fdx = (ch.psi_out(act, GAUSS1, 0.8 + h, 0.4)
               - ch.psi_out(act, GAUSS1, 0.8 - h, 0.4)) / (2 * h)
        assert gx == pytest.approx(fdx, abs=1e-8)


def test_psi_out_x_curvature_at_origin(odd_act):
    # d^2/dx^2 Psi_out(0,0) = rho_v^2 / 2: the Jacobian entry via chain rule
    from spikedgen.priors import rho_v
    rv = rho_v(odd_act, GAUSS1)
    h = 1e-4
    gx, _ = ch.psi_out_grads(odd_act, GAUSS1, h, 0.0)
    assert gx / h == pytest.approx(0.5 * rv ** 2, abs=1e-3)


def _grads_on_grid(act, x, B, omega, logw, V):
    """(d_x, d_y) Psi_out by the moment identities on a given field grid."""
    logz, ev, _, ex, _ = ch.out_moments(act, B, x, omega, V)
    zw = np.exp(logw + logz)
    fout = (ex - omega) / V
    return (0.5 * float(np.sum(zw * ev * ev)),
            0.5 * float(np.sum(zw * fout * fout)))


def test_linear_grads_closed_form_match_quadrature():
    # Psi_out sees the latent only through rho_z; the closed forms must agree
    # with the 64 x 64 adapted grid for every rho_z and for a Rademacher latent
    for latent in (gauss_prior(0.4), GAUSS1, gauss_prior(3.0), rademacher_prior()):
        for x in np.geomspace(1e-3, 10.0, 9):
            for frac in (0.0, 0.1, 0.5, 0.9, 0.99):
                y = frac * latent.rho
                grid = ch._field_grid(latent, x, y, 64)
                want = _grads_on_grid(LINEAR, x, *grid)
                got = ch.psi_out_grads(LINEAR, latent, x, y)
                assert abs(got[0] - want[0]) <= 1e-12
                assert abs(got[1] - want[1]) <= 1e-12
                B, omega, logw, V = grid
                logz, *_ = ch.out_moments(LINEAR, B, x, omega, V)
                want = float(np.sum(np.exp(logw + logz) * logz))
                assert abs(ch.psi_out(LINEAR, latent, x, y) - want) <= 1e-12


def test_sign_separable_grid_matches_materialised_grid():
    order = 64
    g = ch.hermite_grid(order)
    u = math.sqrt(2.0) * g.nodes
    logw1 = np.log(g.weights) - 0.5 * math.log(math.pi)
    for x, y in [(0.0, 0.0), (0.3, 0.2), (1.7, 0.6), (8.0, 0.95)]:
        B, omega, logw, V = ch._field_grid(GAUSS1, x, y, order, rotate=False)
        assert B.shape == (order, 1) and omega.shape == (1, order)
        # the tensor grid filled out to order x order, as the broadcast shapes
        # stand for
        B_full = math.sqrt(x) * u[:, None] + np.zeros((1, order))
        omega_full = math.sqrt(y) * u[None, :] + np.zeros((order, 1))
        logw_full = logw1[:, None] + logw1[None, :]
        assert ch.psi_out_grads(SIGN, GAUSS1, x, y, order=order, adaptive=False) == \
            _grads_on_grid(SIGN, x, B_full, omega_full, logw_full, V)
        logz, *_ = ch.out_moments(SIGN, B_full, x, omega_full, V)
        assert ch.psi_out(SIGN, GAUSS1, x, y, order=order, adaptive=False) == \
            float(np.sum(np.exp(logw_full + logz) * logz))
        # ReLU runs on the rotated grid, whose fields are full (order, order)
        # arrays already; its moment core must reproduce out_moments bit for bit
        grid = ch._field_grid(GAUSS1, x, y, order)
        assert ch.psi_out_grads(RELU, GAUSS1, x, y, order=order, adaptive=False) == \
            _grads_on_grid(RELU, x, *grid)
        B, omega, logw, V = grid
        logz, *_ = ch.out_moments(RELU, B, x, omega, V)
        assert ch.psi_out(RELU, GAUSS1, x, y, order=order, adaptive=False) == \
            float(np.sum(np.exp(logw + logz) * logz))


def test_psi_out_dy_nonnegative(any_act):
    for x in (0.0, 0.5, 2.0):
        for y in (0.0, 0.3, 0.7):
            _, gy = ch.psi_out_grads(any_act, GAUSS1, x, y)
            assert gy >= -1e-12


def test_out_channel_normalization_is_one(any_act):
    for x, y in [(0.0, 0.0), (0.5, 0.3), (2.0, 0.7), (6.0, 0.4)]:
        assert ch.out_channel_normalization(any_act, GAUSS1, x, y) == pytest.approx(
            1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# quadrature grid invariants
# ---------------------------------------------------------------------------

def test_quad_grid_invariants():
    g = ch.hermite_grid(64)
    assert abs(g.weights.sum() - math.sqrt(math.pi)) < 1e-12
    # Gaussian moments up to degree 8 are exact
    for deg, want in [(2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)]:
        got = np.sum(g.std_weights * g.std_nodes ** deg)
        assert got == pytest.approx(want, rel=1e-12)
