"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them live).
The asymptotic claims are exercised at reduced size with the widened
tolerances fixed below; analytic identities carry the tight tolerances.

Above a spectral threshold (criteria 4 and 8) the clauses are the bounds that
random-matrix theory gives a correct estimator at size p, from `rmt_bounds`:
the noise-averaged squared overlap is at most the critical-window scale
p^{-1/3} (the sub-critical BBP overlap is C(Delta)/p with C of tens to
hundreds near threshold, so no c/p with c of order one holds), and the top
LAMP eigenvalue is at most TW_TAIL Tracy-Widom widths above the analytic edge
`rmt.solve_s_edge`.  Each such clause is also checked against the
criterion's below-threshold instance, which must break it.
"""

import gc
import math
import time

import numpy as np
import pytest

from spikedgen import amp, channels as ch, cli, rmt, spectral, state_evolution as se
from spikedgen.priors import (LINEAR, RELU, SIGN, Wigner, Wishart,
                              gauss_prior, generate_spike, make_model,
                              make_rng, rademacher_prior, rho_v, sample_wigner)
from rmt_bounds import TW_TAIL, noise_seeds, overlap_bound, tw_edge

GAUSS1 = gauss_prior(1.0)


def report(num, ok, t0, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({time.time() - t0:.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_threshold_formulas():
    t0 = time.time()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        worst = max(worst, abs(se.delta_c(alpha, LINEAR, GAUSS1) - (1 + alpha)))
        worst = max(worst, abs(se.delta_c(alpha, SIGN, GAUSS1)
                               - (1 + 4 * alpha / math.pi ** 2)))
        for beta in (0.5, 1.0, 2.0):
            model = Wishart(beta=beta)
            worst = max(worst, abs(se.delta_c(alpha, LINEAR, GAUSS1, model)
                                   - math.sqrt(beta * (1 + alpha))))
            worst = max(worst, abs(se.delta_c(alpha, SIGN, GAUSS1, model)
                                   - math.sqrt(beta * (1 + 4 * alpha / math.pi ** 2))))
    elapsed = time.time() - t0
    report(1, worst <= 1e-3 and elapsed < 10.0, t0,
           f"max |closed form - literature formula| = {worst:.2e}, runtime {elapsed:.1f}s < 10s")


# -- 6 (cheap analytic criteria before the big simulations) ------------------

def test_criterion_6_rmt_vs_se_overlap():
    t0 = time.time()
    deltas = np.linspace(4.0 / 30, 4.0, 30)
    rows = cli.compare_rmt_se(2.0, deltas,
                              se_cfg=se.SEConfig(tol=1e-12, init="informative"))
    worst = max(r[3] for r in rows)
    elapsed = time.time() - t0
    report(6, worst <= 1e-3 and elapsed < 60.0, t0,
           f"max |eps(Delta) - q_v*(Delta)| = {worst:.2e} over 30-point grid, "
           f"runtime {elapsed:.1f}s < 60s")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_immse_property():
    t0 = time.time()
    cfg = se.SEConfig(init="informative", tol=1e-12)
    worst = 0.0
    h = 1e-3
    for delta in (1.0, 2.0, 3.0):
        lam = 1.0 / delta
        ip, _ = se.mutual_information(1 / (lam + h), 2.0, LINEAR, GAUSS1, cfg)
        im, _ = se.mutual_information(1 / (lam - h), 2.0, LINEAR, GAUSS1, cfg)
        q = se.se_fixed_point(cfg, delta, 2.0, LINEAR, GAUSS1).q_v_star
        fd = (ip - im) / (2 * h)
        worst = max(worst, abs(fd - (1.0 - q ** 2) / 4))
    report(7, worst <= 1e-4, t0,
           f"max |d i_RS/d lambda - matrix_mmse/4| = {worst:.2e}")


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_channel_oracle_suite():
    t0 = time.time()
    ok = True
    details = []
    # score identities vs central finite differences
    rng = np.random.default_rng(99)
    worst_fd = 0.0
    for act in (LINEAR, SIGN, RELU):
        for _ in range(12):
            B, A = 3 * rng.normal(), abs(rng.normal())
            omega, V = 3 * rng.normal(), 0.1 + abs(rng.normal())
            hstep = 1e-6
            lzp, *_ = ch.out_moments(act, B + hstep, A, omega, V)
            lzm, *_ = ch.out_moments(act, B - hstep, A, omega, V)
            worst_fd = max(worst_fd, abs(
                ch.f_v(act, ch.DenoiserParams(B, A, omega, V))
                - (lzp - lzm) / (2 * hstep)))
            lzp, *_ = ch.out_moments(act, B, A, omega + hstep, V)
            lzm, *_ = ch.out_moments(act, B, A, omega - hstep, V)
            worst_fd = max(worst_fd, abs(
                ch.f_out(act, ch.DenoiserParams(B, A, omega, V))
                - (lzp - lzm) / (2 * hstep)))
        gp = 1e-6
        fz_fd = (ch.f_z(GAUSS1, ch.LatentParams(0.4 + gp, 0.7))
                 - ch.f_z(GAUSS1, ch.LatentParams(0.4 - gp, 0.7))) / (2 * gp)
        # f_z is itself d_gamma log Z_z: check via z_z
        zp = math.log(ch.z_z(GAUSS1, ch.LatentParams(0.4 + gp, 0.7)))
        zm = math.log(ch.z_z(GAUSS1, ch.LatentParams(0.4 - gp, 0.7)))
        worst_fd = max(worst_fd, abs(
            ch.f_z(GAUSS1, ch.LatentParams(0.4, 0.7)) - (zp - zm) / (2 * gp)))
    ok &= worst_fd <= 1e-5
    details.append(f"score-identity FD error {worst_fd:.2e}")
    # null-point normalizations
    worst_null = max(abs(ch.z_out(act, ch.DenoiserParams(0, 0, 0, GAUSS1.rho)) - 1)
                     for act in (LINEAR, SIGN, RELU))
    ok &= worst_null <= 1e-10
    details.append(f"null Z error {worst_null:.1e}")
    # quadrature vs Monte Carlo for the Psi integrals
    from test_channels import mc_psi_out, mc_psi_z
    val = ch.psi_out(LINEAR, GAUSS1, 0.5, 0.3)
    mc, stderr = mc_psi_out(LINEAR, GAUSS1, 0.5, 0.3)
    ok &= abs(val - mc) <= 3 * stderr
    for prior in (GAUSS1, rademacher_prior()):
        v2 = ch.psi_z(prior, 0.8)
        mc2, se2 = mc_psi_z(prior, 0.8)
        ok &= abs(v2 - mc2) <= 3 * se2
    details.append("Psi quadrature within 3 sigma of Monte Carlo")
    elapsed = time.time() - t0
    report(9, ok and elapsed < 60.0, t0, "; ".join(details))


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_rmt_self_consistency():
    t0 = time.time()
    alpha = 2.0
    deltas = np.linspace(0.6, 6.0, 50)
    step = deltas[1] - deltas[0]
    lams = [rmt.solve_s_edge(rmt.base_law(Wigner(), d), alpha).lambda_max
            for d in deltas]
    peak_delta = deltas[int(np.argmax(lams))]
    lam_at_3 = rmt.solve_s_edge(rmt.base_law(Wigner(), 3.0), alpha).lambda_max
    ok_peak = abs(peak_delta - 3.0) <= step and abs(lam_at_3 - 1.0) <= 1e-6

    # empirical spectrum of the k x k null operator vs the bulk density
    k, delta = 2000, 3.0
    rng = make_rng(55)
    p = int(alpha * k)
    a = rng.standard_normal((p, p))
    t = (a + a.T) / math.sqrt(2 * delta * p) - np.eye(p) / delta
    del a
    w = rng.standard_normal((p, k))
    gamma = w.T @ (t @ w) / k
    del t, w
    eigs = np.linalg.eigvalsh(gamma)
    del gamma
    counts, edges = np.histogram(eigs, bins=50, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    bd = rmt.bulk_density(rmt.base_law(Wigner(), delta), alpha, centers)
    sup_dev = float(np.max(np.abs(counts - bd.nu)))
    elapsed = time.time() - t0
    report(5, ok_peak and sup_dev <= 0.05 and elapsed < 120.0, t0,
           f"peak at Delta={peak_delta:.3f} (step {step:.3f}), "
           f"lambda_max(3)-1 = {lam_at_3 - 1:.1e}, hist sup-dev {sup_dev:.3f}, "
           f"runtime {elapsed:.0f}s < 120s")


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_pca_threshold():
    """PCA threshold at Delta = rho_v^2 = 1, desk scale p = 4000.

    Below (Delta = 0.8) the top eigenvector keeps a squared overlap of order
    one (1 - Delta/rho_v^2 asymptotically).  Above (Delta = 1.3) there is no
    outlier, and the overlap follows the sub-critical BBP law
    p overlap^2 -> chi^2_1 / (1 - sqrt(rho_v^2/Delta))^2, whose mean is 66 at
    Delta = 1.3; 1 - sqrt(1/1.3) = 0.12 is barely above the critical-window
    width p^{-1/3} = 0.063, so at p = 4000 it is larger still.  The clause is
    therefore the critical-window bound: the mean squared overlap over
    N_NOISE_DRAWS noise draws (W and v* fixed) is at most p^{-1/3}.  The
    Delta = 0.8 instance must exceed that bound.
    """
    t0 = time.time()
    p, k = 4000, 2000
    gm = make_model(p, k, LINEAR, GAUSS1, seed=81)
    _, v = generate_spike(gm, seed=82)
    below = spectral.pca_estimate(sample_wigner(v, 0.8, seed=83), seed=8)
    above = [spectral.pca_estimate(sample_wigner(v, 1.3, seed=s), seed=8).overlap_sq
             for s in noise_seeds(84)]
    bound = overlap_bound(p)
    ok = (below.overlap_sq > 0.05 and np.mean(above) <= bound
          and below.overlap_sq > bound)
    report(8, ok, t0,
           f"overlap_sq(0.8) = {below.overlap_sq:.3f} (> 0.05, control > {bound:.3f}); "
           f"overlap_sq(1.3) per draw = [{', '.join(f'{o:.1e}' for o in above)}], "
           f"mean {np.mean(above):.2e} (<= p^-1/3 = {bound:.3f})")


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_lamp_spectral_transition():
    """LAMP spectral transition at Delta_c = 1 + alpha = 3, desk scale k = 2000.

    The spike's empirical second moment is pinned to rho_v (the asymptotic
    statement lambda_1 -> 1 assumes that normalization; the raw +-2/sqrt(k)
    norm fluctuation would shift lambda_1 by up to ~0.1 at small Delta).

    Above threshold (Delta = 4.5) over N_NOISE_DRAWS noise draws (W and v*
    fixed):

    * no outlier: every lambda_1 <= lambda_max(4.5) + TW_TAIL sigma_TW.  The
      top two eigenvalues are edge eigenvalues of the k x k bulk, so their
      spacing lambda_1 - lambda_2 is itself of order sigma_TW (0.0078 here)
      and is printed only as a diagnostic;
    * the mean squared overlap is at most p^{-1/3}.  The overlap is the
      sub-critical O(1/p) one, with a constant of tens near threshold.  Every
      LAMP eigenvector lies in range(W), which also carries the spike, and a
      random unit vector there has squared overlap about 1/k = 2/p with it,
      not 1/p.

    Negative control: the Delta = 2.0 instance breaks both clauses (an
    outlier well above TW_TAIL sigma_TW, an overlap above p^{-1/3}).
    """
    t0 = time.time()
    p, k = 4000, 2000
    gm = make_model(p, k, LINEAR, GAUSS1, seed=41)
    z, v = generate_spike(gm, seed=42)
    v = v * math.sqrt(p) / np.linalg.norm(v)   # pin |v*|^2 = rho_v p
    coeffs = spectral.lamp_coefficients(LINEAR, GAUSS1)
    ok = True
    details = []
    for delta in (1.0, 2.0, 2.8):
        inst = sample_wigner(v, delta, seed=43 + int(10 * delta), z_star=z)
        op = spectral.build_lamp(inst, gm, coeffs)
        res = spectral.leading_eigs(op, truth=inst.v_star, seed=4)
        eps = rmt.epsilon_overlap(2.0, delta)
        ok_here = (abs(res.eigenvalues[0] - 1.0) <= 0.05
                   and res.overlap_sq >= 0.9 * eps - 0.05)
        ok &= ok_here
        details.append(f"D={delta}: lam1={res.eigenvalues[0]:.4f} "
                       f"ov={res.overlap_sq:.3f} (0.9eps-0.05={0.9 * eps - 0.05:.3f})")
        if delta == 2.0:
            control = res
        del inst, op
        gc.collect()

    bound = overlap_bound(p)
    lam_max, sigma = tw_edge(2.0, 4.5, k)
    ovs, zs = [], []
    for s in noise_seeds(90):
        inst = sample_wigner(v, 4.5, seed=s, z_star=z)
        res = spectral.leading_eigs(spectral.build_lamp(inst, gm, coeffs),
                                    truth=inst.v_star, seed=4)
        ovs.append(res.overlap_sq)
        zs.append((res.eigenvalues[0] - lam_max) / sigma)
        if s == 90:
            gap = res.eigenvalues[0] - res.eigenvalues[1]
        del inst, res
        gc.collect()
    ok &= max(zs) <= TW_TAIL and np.mean(ovs) <= bound
    details.append(f"D=4.5: (lam1-lam_max)/sigma_TW per draw = "
                   f"[{', '.join(f'{x:+.2f}' for x in zs)}] (<= {TW_TAIL:g}), "
                   f"sigma_TW={sigma:.4f}, gap(seed 90)={gap:.4f}; ov per draw = "
                   f"[{', '.join(f'{o:.1e}' for o in ovs)}], mean {np.mean(ovs):.2e} "
                   f"(<= p^-1/3 = {bound:.3f})")

    lam_max2, sigma2 = tw_edge(2.0, 2.0, k)
    z_control = (control.eigenvalues[0] - lam_max2) / sigma2
    ok &= z_control > TW_TAIL and control.overlap_sq > bound
    details.append(f"control D=2.0: (lam1-lam_max)/sigma_TW={z_control:.1f} "
                   f"(> {TW_TAIL:g}), ov={control.overlap_sq:.3f} (> {bound:.3f})")
    elapsed = time.time() - t0
    report(4, ok and elapsed < 300.0, t0,
           "; ".join(details) + f", runtime {elapsed:.0f}s < 300s")


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_se_uniqueness_grid():
    t0 = time.time()
    alphas = list(np.logspace(math.log10(0.1), math.log10(10.0), 15))
    worst = 0.0
    n_converged_pairs = 0
    for kind in ("linear", "sign", "relu"):
        act = {"linear": LINEAR, "sign": SIGN, "relu": RELU}[kind]
        rv2 = rho_v(act, GAUSS1) ** 2
        deltas = list(np.linspace(0.1, 5.0, 20) * rv2)
        cfg = cli.ExperimentConfig(activation=kind, alpha_grid=alphas,
                                   delta_grid=deltas, workers=2, se_tol=1e-12)
        rows = cli.run_sweep(cfg)
        by_point = {}
        for r in rows:
            by_point.setdefault((r[0], r[1]), {})[r[7]] = r
        for (a, d), pair in by_point.items():
            u, i = pair.get("uninformative"), pair.get("informative")
            if u is None or i is None or not (u[5] and i[5]):
                continue
            n_converged_pairs += 1
            worst = max(worst, abs(u[2] - i[2]))
    elapsed = time.time() - t0
    report(2, worst <= 1e-8 and elapsed < 300.0, t0,
           f"max init gap {worst:.2e} over {n_converged_pairs} converged pairs, "
           f"runtime {elapsed:.0f}s < 300s")


# -- 3 -----------------------------------------------------------------------

def _amp_job(args):
    """One AMP instance-run at k=5000; top-level so worker processes can pickle it."""
    kind, delta, s = args
    act = {"linear": LINEAR, "sign": SIGN}[kind]
    k = 5000
    p = 2 * k
    seed0 = cli.splitmix64(31, {"linear": 1, "sign": 2}[kind], delta, s)
    gm = make_model(p, k, act, GAUSS1, seed=cli.splitmix64(seed0, 1))
    z, v = generate_spike(gm, seed=cli.splitmix64(seed0, 2))
    inst = sample_wigner(v, delta, seed=cli.splitmix64(seed0, 3), z_star=z)
    # the q_v plateau is reached long before elementwise convergence, and in
    # the null phase v_hat only shrinks geometrically (relative change stalls),
    # so above threshold a short run suffices for the overlap readout
    dc = se.delta_c(2.0, act, GAUSS1)
    acfg = amp.AmpConfig(max_iter=80 if delta < dc else 40, tol=1e-6)
    res = amp.amp_wigner_run(inst, gm, acfg, seed=cli.splitmix64(seed0, 4))
    return kind, delta, abs(res.overlap_trace[-1])


def test_criterion_3_amp_matches_se():
    from concurrent.futures import ProcessPoolExecutor
    t0 = time.time()
    jobs = [(kind, delta, s)
            for kind in ("linear", "sign")
            for delta in (0.5, 1.5, 2.5, 3.5)
            for s in range(5)]
    got = {}
    with ProcessPoolExecutor(max_workers=2) as pool:
        for kind, delta, q in pool.map(_amp_job, jobs, chunksize=1):
            got.setdefault((kind, delta), []).append(q)
    ok = True
    details = []
    for kind in ("linear", "sign"):
        act = {"linear": LINEAR, "sign": SIGN}[kind]
        for delta in (0.5, 1.5, 2.5, 3.5):
            q_se = se.se_fixed_point(se.SEConfig(), delta, 2.0, act, GAUSS1).q_v_star
            dev = abs(np.mean(got[(kind, delta)]) - q_se)
            ok &= dev <= 0.05
            details.append(f"{kind[:3]} D={delta}: |mean q - q*| = {dev:.3f}")
    elapsed = time.time() - t0
    report(3, ok and elapsed < 600.0, t0,
           "; ".join(details) + f", runtime {elapsed:.0f}s < 600s")
