import math

import numpy as np
import pytest

from spikedgen import rmt, state_evolution as se
from spikedgen.priors import LINEAR, Wigner, Wishart, gauss_prior, make_rng

from rmt_bounds import tw_edge

GAUSS1 = gauss_prior(1.0)


def semicircle_cauchy(w, delta):
    """Closed-form Cauchy transform of the shifted semicircle (test oracle)."""
    wt = np.asarray(w, dtype=complex) + 1.0 / delta
    r = 2.0 / math.sqrt(delta)
    root = np.sqrt(wt - r) * np.sqrt(wt + r)
    return 0.5 * delta * (wt - root)


def null_operator_spectrum(alpha, delta, k, seed):
    """Eigenvalues of the finite-size null operator W^T (xi/sqrt(dp) - I/d) W / k."""
    rng = make_rng(seed)
    p = int(round(alpha * k))
    a = rng.standard_normal((p, p))
    t = (a + a.T) / math.sqrt(2 * delta * p) - np.eye(p) / delta
    w = rng.standard_normal((p, k))
    gamma = w.T @ t @ w / k
    return np.linalg.eigvalsh(gamma)


# ---------------------------------------------------------------------------
# base laws
# ---------------------------------------------------------------------------

def test_semicircle_support():
    bl = rmt.base_law(Wigner(), 1.0)
    assert bl.t_min == pytest.approx(-3.0)
    assert bl.z1 == pytest.approx(1.0)
    bl = rmt.base_law(Wigner(), 0.25)
    assert bl.z1 == pytest.approx(0.0, abs=1e-14)


def test_base_law_normalization():
    for law in (rmt.base_law(Wigner(), 1.7),
                rmt.base_law(Wishart(2.0), 0.9, 2.0),
                rmt.base_law(Wishart(0.5), 0.9, 0.5)):
        assert float(law.integrate(lambda t: np.ones_like(t))) == pytest.approx(
            1.0, abs=1e-10)


def test_wishart_law_edge_and_atom():
    beta, delta = 0.5, 0.9
    bl = rmt.base_law(Wishart(beta), delta, beta)
    want_z1 = (-beta + delta + 2 * delta * math.sqrt(beta)) / (delta * (1 + delta))
    assert bl.z1 == pytest.approx(want_z1, abs=1e-12)
    assert bl.atom_weight == pytest.approx(1 - beta)
    assert bl.atom_at == pytest.approx(-beta / delta)
    # mean of the shifted MP law: beta/(1+delta) * E[MP] - beta/delta; E[MP] = 1
    want_mean = beta / (1 + delta) - beta / delta
    assert float(bl.integrate(lambda t: t)) == pytest.approx(want_mean, abs=1e-10)


CLOSED_FORM_LAWS = {"semicircle-0.7": (Wigner(), 0.7, None), "semicircle-3": (Wigner(), 3.0, None),
                    "mp-0.5-atom": (Wishart(0.5), 0.9, 0.5), "mp-2": (Wishart(2.0), 0.9, 2.0)}


@pytest.mark.parametrize("law", sorted(CLOSED_FORM_LAWS))
def test_transforms_match_quadrature(law):
    # the closed forms against the Gauss-Legendre reference, near s = 0
    # (where the direct (1/s)(1 + G(-1/s)/s) loses 1e-13 to 1.8e-11) and
    # across (-1/z1, 0)
    bl = rmt.base_law(*CLOSED_FORM_LAWS[law])
    for s in (-1e-3, -0.2 / bl.z1, -0.5 / bl.z1, -0.9 / bl.z1):
        tr = bl.transforms(s)
        ref = [bl.integrate(lambda t: t / (1 + s * t)),
               bl.integrate(lambda t: t * t / (1 + s * t) ** 2),
               bl.integrate(lambda t: t ** 3 / (1 + s * t) ** 3),
               bl.integrate(lambda t: t / (1 + s * t) ** 2)]
        for got, want in zip(tr, ref):
            assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))
        # (st/(1+st))^2, the edge equation's integrand
        want = float(bl.integrate(lambda t: (s * t / (1 + s * t)) ** 2))
        assert abs(s * s * tr.tt - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("delta", [0.8, 1.5, 2.5, 4.0])
def test_edge_coefficient_matches_density_extrapolation(delta):
    """A = sqrt(2/|g^{-1}''(s_edge)|)/pi against the slope of the density at the edge.

    nu / sqrt(h) = A + O(h) at distance h inside the edge, extrapolated
    linearly from h = 1e-3 and 2e-3.
    """
    base = rmt.base_law(Wigner(), delta)
    edge = rmt.solve_s_edge(base, 2.0)
    h = np.array([1e-3, 2e-3])
    bd = rmt.bulk_density(base, 2.0, edge.lambda_max - h)
    assert bd.converged.all()
    a_h = bd.nu / np.sqrt(h)
    assert edge.edge_coefficient == pytest.approx(2.0 * a_h[0] - a_h[1], rel=1e-4)
    _, sigma = tw_edge(2.0, delta, 1)        # sigma_TW = (pi A)^(-2/3) at k = 1
    assert sigma == (math.pi * edge.edge_coefficient) ** (-2.0 / 3.0)


def test_edge_coefficient_wishart_matches_density():
    base = rmt.base_law(Wishart(beta=1.5), 1.0)
    edge = rmt.solve_s_edge(base, 2.0)
    h = np.array([1e-3, 2e-3])
    bd = rmt.bulk_density(base, 2.0, edge.z_edge - h)
    a_h = bd.nu / np.sqrt(h)
    assert bd.converged.all()
    assert edge.edge_coefficient == pytest.approx(2.0 * a_h[0] - a_h[1], rel=1e-4)


def test_edge_huge_alpha_is_a_numerical_failure():
    with pytest.raises(RuntimeError, match="no root"):
        rmt.solve_s_edge(rmt.base_law(Wigner(), 1.0), 1e308)


def test_delta_pos_support_sign():
    beta = 1.3
    dpos = rmt.delta_pos(beta)
    assert rmt.base_law(Wishart(beta), dpos * 0.999, beta).z1 < 0
    assert rmt.base_law(Wishart(beta), dpos * 1.001, beta).z1 > 0


# ---------------------------------------------------------------------------
# Silverstein inverse
# ---------------------------------------------------------------------------

def test_g_inverse_vs_closed_form_oracle():
    for delta, s in [(3.0, -0.4), (2.0, -0.8), (0.8, -0.6)]:
        bl = rmt.base_law(Wigner(), delta)
        i1 = float(bl.integrate(lambda t: t / (1 + s * t)))
        w = -1.0 / s
        closed = float(((1.0 / s) * (1.0 + semicircle_cauchy(w, delta) / s)).real)
        assert i1 == pytest.approx(closed, abs=1e-9)


def test_g_inverse_at_minus_one_is_one():
    # z_edge(Delta_c) = 1: g^{-1}(-1) = 1 for every Delta > 1
    for delta in (1.5, 3.0, 6.0):
        bl = rmt.base_law(Wigner(), delta)
        assert rmt.silverstein_g_inverse(bl, 2.0, -1.0) == pytest.approx(1.0, abs=1e-10)


def test_g_inverse_diverges_negative_support():
    bl = rmt.base_law(Wigner(), 0.2)   # supp in R_-
    assert rmt.silverstein_g_inverse(bl, 2.0, -1e-8) > 1e7


def test_g_inverse_validation():
    bl = rmt.base_law(Wigner(), 2.0)
    with pytest.raises(ValueError):
        rmt.silverstein_g_inverse(bl, 2.0, 0.5)
    with pytest.raises(ValueError):
        rmt.silverstein_g_inverse(bl, 2.0, -1.0 / bl.z1 * 1.5)


# ---------------------------------------------------------------------------
# support edge
# ---------------------------------------------------------------------------

def test_edge_at_critical_point():
    er = rmt.solve_s_edge(rmt.base_law(Wigner(), 3.0), 2.0)
    assert er.s_edge == pytest.approx(-1.0, abs=1e-9)
    assert er.lambda_max == pytest.approx(1.0, abs=1e-9)
    assert abs(er.residual) <= 1e-9


def test_lambda_max_peak_unique():
    alpha = 2.0
    deltas = np.linspace(0.6, 6.0, 28)
    lams = [rmt.solve_s_edge(rmt.base_law(Wigner(), d), alpha).lambda_max
            for d in deltas]
    peak = np.argmax(lams)
    assert deltas[peak] == pytest.approx(1 + alpha, abs=np.diff(deltas)[0])
    assert max(lams) <= 1.0 + 1e-9
    others = [l for i, l in enumerate(lams) if abs(deltas[i] - 3.0) > 0.25]
    assert max(others) < 1.0


def test_wishart_edge_peak():
    for alpha, beta in [(1.0, 1.0), (2.0, 0.5), (0.7, 2.0)]:
        dc = math.sqrt(beta * (1 + alpha))
        er = rmt.solve_s_edge(rmt.base_law(Wishart(beta), dc, beta), alpha)
        assert er.s_edge == pytest.approx(-1.0, abs=1e-8)
        assert er.lambda_max == pytest.approx(1.0, abs=1e-8)


def test_edge_rejects_negative_support():
    with pytest.raises(rmt.NegativeSupportError):
        rmt.solve_s_edge(rmt.base_law(Wigner(), 0.2), 2.0)


# ---------------------------------------------------------------------------
# Stieltjes transform above the bulk
# ---------------------------------------------------------------------------

def test_g_nu_round_trip():
    bl = rmt.base_law(Wigner(), 2.0)
    for lam in (1.0, 1.5, 4.0):
        s, ds = rmt.g_nu_at(bl, 2.0, lam)
        assert rmt.silverstein_g_inverse(bl, 2.0, s) == pytest.approx(lam, abs=1e-10)
        assert ds > 0


def test_g_nu_tail():
    bl = rmt.base_law(Wigner(), 2.0)
    s, _ = rmt.g_nu_at(bl, 2.0, 500.0)
    assert s == pytest.approx(-1 / 500.0, rel=5e-3)


def test_g_nu_inside_bulk_for_subcritical():
    # Delta < Delta_c: lambda = 1 is above the bulk, g_nu(1) in (s_edge, 0)
    bl = rmt.base_law(Wigner(), 2.0)
    edge = rmt.solve_s_edge(bl, 2.0)
    s, _ = rmt.g_nu_at(bl, 2.0, 1.0)
    assert edge.s_edge < s < 0


# ---------------------------------------------------------------------------
# bulk density
# ---------------------------------------------------------------------------

def test_bulk_density_nonnegative_and_normalized():
    # alpha = 1: no rank-deficiency atom, mu = nu is purely continuous
    alpha, delta = 1.0, 1.2
    bl = rmt.base_law(Wigner(), delta)
    grid = np.linspace(-6.0, 1.5, 900)
    bd = rmt.bulk_density(bl, alpha, grid)
    assert np.all(bd.nu >= 0)
    assert bd.converged.mean() > 0.99
    mass = np.trapezoid(bd.mu[bd.converged], grid[bd.converged])
    assert mass == pytest.approx(1.0, abs=0.01)
    assert bd.mu_zero_atom == 0.0


def test_bulk_density_alpha_below_one_continuous_part():
    # alpha < 1: nu reports the continuous part (atom left out), mass alpha
    alpha, delta = 0.5, 1.2
    bl = rmt.base_law(Wigner(), delta)
    grid = np.linspace(-6.0, 1.5, 900)
    bd = rmt.bulk_density(bl, alpha, grid)
    ok = bd.converged
    assert ok.mean() > 0.95
    mass = np.trapezoid(np.where(ok, bd.nu, 0.0), grid)
    assert mass == pytest.approx(alpha, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_bulk_density_alpha_below_one_mass_next_to_zero(alpha, delta):
    # the continuous part carries mass alpha, including the stretch around
    # x = 0 where the (1 - alpha) atom of nu sits; 0 is a grid point
    bl = rmt.base_law(Wigner(), delta)
    grid = np.linspace(-15.0, 1.0, 20001)
    bd = rmt.bulk_density(bl, alpha, grid)
    assert bd.converged.all()
    assert np.trapezoid(bd.nu, grid) == pytest.approx(alpha, abs=1e-3)


def test_bulk_density_alpha_below_one_matches_finite_sample_at_zero():
    # the bins next to the atom: k - p eigenvalues of the k x k operator are
    # 0 and are left out, the rest are the continuous part, 1/k each
    alpha, delta, k = 0.5, 0.5, 2400
    eigs = null_operator_spectrum(alpha, delta, k, seed=3)
    counts, _ = np.histogram(eigs[np.abs(eigs) > 1e-8], bins=[-0.05, 0.0, 0.05])
    bd = rmt.bulk_density(rmt.base_law(Wigner(), delta), alpha, np.array([-0.025, 0.025]))
    assert bd.converged.all()
    # 0.183 and 0.142 in the sample; one eigenvalue moves a bin by 1/120
    assert np.max(np.abs(counts / (k * 0.05) - bd.nu)) <= 0.04


def test_bulk_density_vanishes_beyond_edge():
    alpha, delta = 2.0, 3.0
    bl = rmt.base_law(Wigner(), delta)
    edge = rmt.solve_s_edge(bl, alpha)
    grid = np.linspace(edge.lambda_max + 0.05, edge.lambda_max + 0.6, 50)
    bd = rmt.bulk_density(bl, alpha, grid)
    assert np.max(bd.nu) <= 2e-3


def test_bulk_density_matches_finite_sample():
    alpha, delta, k = 2.0, 3.0, 700
    eigs = null_operator_spectrum(alpha, delta, k, seed=5)
    bl = rmt.base_law(Wigner(), delta)
    counts, edges = np.histogram(eigs, bins=40, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    bd = rmt.bulk_density(bl, alpha, centers)
    assert np.max(np.abs(counts - bd.nu)) <= 0.08


def test_bulk_density_converges_next_to_edge():
    # 3e-4 and 1e-4 inside the edge, where the bulk's complex root pair
    # nears the double real root it becomes at the edge
    bl = rmt.base_law(Wigner(), 4.5)
    lam = rmt.solve_s_edge(bl, 2.0).lambda_max
    bd = rmt.bulk_density(bl, 2.0, lam - np.array([3e-4, 1e-4]))
    assert bd.converged.all()
    assert np.all(bd.nu > 0)


def _damped_silverstein(bl, alpha, x, eps=1e-6, steps=10000, tol=1e-11):
    """Reference: the damped iteration g <- (-1/(z - alpha I(g)) + g)/2 alone."""
    t, w = bl.nodes(256)
    z = x + 1j * eps
    g = np.full(x.shape, 1j)
    for _ in range(steps):
        new = 0.5 * (-1.0 / (z - alpha * np.sum(t * w / (1.0 + np.multiply.outer(g, t)),
                                                axis=-1))) + 0.5 * g
        moved, g = np.abs(new - g), new
        if moved.max() < tol:
            break
    return g.imag / math.pi


def test_bulk_density_newton_keeps_damped_values():
    # Delta = 1, alpha = 2: damping alone converges on every point of a grid
    # across the bulk, and at eps = 1e-11 it is the density at x + i0 that the
    # quartic's root gives
    bl = rmt.base_law(Wigner(), 1.0)
    lam = rmt.solve_s_edge(bl, 2.0).lambda_max
    grid = np.linspace(bl.t_min * 2.0 - 1.0, lam + 0.3, 200)
    bd = rmt.bulk_density(bl, 2.0, grid)
    assert bd.converged.all()
    assert np.max(np.abs(bd.nu - _damped_silverstein(bl, 2.0, grid, eps=1e-11))) <= 1e-9


def test_mu_zero_atom_bookkeeping():
    bl = rmt.base_law(Wigner(), 2.0)
    bd = rmt.bulk_density(bl, 2.0, np.array([0.5]))
    assert bd.mu_zero_atom == pytest.approx(0.5)   # 1 - 1/alpha


# ---------------------------------------------------------------------------
# S-hierarchy and the overlap
# ---------------------------------------------------------------------------

def test_s2_at_one_is_minus_alpha_delta():
    for delta in (0.5, 1.5, 2.9):
        h = rmt.s_hierarchy(rmt.base_law(Wigner(), delta), 2.0, 1.0)
        assert h.s2 == pytest.approx(-2.0 * delta, abs=1e-8)


def test_s2_above_critical_stays_off_value():
    # for Delta > Delta_c, S2 > -alpha Delta everywhere above the bulk
    delta, alpha = 4.0, 2.0
    bl = rmt.base_law(Wigner(), delta)
    edge = rmt.solve_s_edge(bl, alpha)
    for lam in np.linspace(edge.lambda_max + 1e-3, edge.lambda_max + 2.0, 7):
        h = rmt.s_hierarchy(bl, alpha, lam)
        assert h.s2 > -alpha * delta


def test_ds1_matches_finite_difference():
    bl = rmt.base_law(Wigner(), 2.0)
    h = 1e-5
    hier = rmt.s_hierarchy(bl, 2.0, 1.2)
    up = rmt.s_hierarchy(bl, 2.0, 1.2 + h)
    dn = rmt.s_hierarchy(bl, 2.0, 1.2 - h)
    assert hier.ds1 == pytest.approx((up.s1 - dn.s1) / (2 * h), abs=1e-5)


def test_hierarchy_rejects_lambda_in_bulk():
    bl = rmt.base_law(Wigner(), 3.5)
    edge = rmt.solve_s_edge(bl, 2.0)
    with pytest.raises(ValueError):
        rmt.s_hierarchy(bl, 2.0, edge.lambda_max - 0.05)


def test_s_hierarchy_vs_finite_sample_traces():
    # lam well above the bulk edge (~0.96): edge-enhanced 1/k corrections decay
    alpha, delta, k, lam = 2.0, 2.0, 1500, 1.8
    rng = make_rng(17)
    p = int(alpha * k)
    vals = {r: [] for r in range(4)}
    v12 = []
    for _ in range(3):
        a = rng.standard_normal((p, p))
        t = (a + a.T) / math.sqrt(2 * delta * p) - np.eye(p) / delta
        w = rng.standard_normal((p, k))
        gamma = w.T @ t @ w / k
        res = np.linalg.inv(gamma - lam * np.eye(k))
        ww = w.T @ w / k
        m = res.copy()
        for r in range(4):
            vals[r].append(np.trace(m) / k)
            m = m @ ww
        v12.append(np.trace(res @ ww @ res @ ww @ ww) / k)
    bl = rmt.base_law(Wigner(), delta)
    hier = rmt.s_hierarchy(bl, alpha, lam)
    for r, want in zip(range(4), (hier.s0, hier.s1, hier.s2, hier.s3)):
        mean = np.mean(vals[r])
        tol = 3 * np.std(vals[r], ddof=1) / math.sqrt(3) + 5 * abs(want) / k
        assert abs(mean - want) <= tol
    tol = 3 * np.std(v12, ddof=1) / math.sqrt(3) + 5 * abs(hier.s12) / k
    assert abs(np.mean(v12) - hier.s12) <= tol


def test_epsilon_limits():
    assert rmt.epsilon_overlap(2.0, 3.0) == 0.0
    assert rmt.epsilon_overlap(2.0, 4.5) == 0.0
    assert rmt.epsilon_overlap(2.0, 0.01) == pytest.approx(1.0, abs=0.01)
    eps_mid = rmt.epsilon_overlap(2.0, 2.0)
    assert 0 < eps_mid < 1


def test_epsilon_matches_se_overlap():
    for delta in (0.5, 1.0, 2.0, 2.8):
        eps = rmt.epsilon_overlap(2.0, delta)
        q = se.se_fixed_point(se.SEConfig(), delta, 2.0, LINEAR, GAUSS1).q_v_star
        assert abs(eps - q) <= 1e-3
