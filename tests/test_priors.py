import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spikedgen import priors as pr


def test_sample_weights_deterministic():
    a = pr.sample_weights(1, 1, seed=42)
    b = pr.sample_weights(1, 1, seed=42)
    assert a == b
    big1 = pr.sample_weights(50, 30, seed=7)
    big2 = pr.sample_weights(50, 30, seed=7)
    assert np.array_equal(big1, big2)


def test_sample_weights_statistics():
    w = pr.sample_weights(200, 100, seed=0)
    assert abs(w.mean()) <= 4 / math.sqrt(200 * 100)
    assert abs(w.var() - 1.0) <= 0.05


def test_sample_weights_zero_dim_errors():
    with pytest.raises(ValueError):
        pr.sample_weights(0, 5, seed=1)
    with pytest.raises(ValueError):
        pr.sample_weights(5, 0, seed=1)


def test_prior_validation():
    with pytest.raises(ValueError):
        pr.SeparablePrior("poisson")
    with pytest.raises(ValueError):
        pr.SeparablePrior("gauss", -1.0)
    with pytest.raises(ValueError):
        pr.SeparablePrior("rademacher", 2.0)
    for beta in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="beta"):
            pr.Wishart(beta=beta)


def test_prior_moments():
    rng = pr.make_rng(1)
    for prior in (pr.gauss_prior(1.0), pr.gauss_prior(2.5), pr.rademacher_prior()):
        z = prior.sample(200000, rng)
        assert abs(z.mean()) < 0.02 * math.sqrt(prior.rho)
        assert abs((z ** 2).mean() - prior.rho) < 0.05 * prior.rho


def test_rho_v_values(gauss1):
    assert pr.rho_v(pr.SIGN, gauss1) == 1.0
    assert pr.rho_v(pr.SIGN, pr.gauss_prior(3.0)) == 1.0   # invariant under rho_z
    assert pr.rho_v(pr.LINEAR, gauss1) == pytest.approx(1.0, abs=1e-12)
    assert pr.rho_v(pr.RELU, gauss1) == pytest.approx(0.5, abs=1e-12)


def test_generate_spike_sign_outputs(gauss1):
    gm = pr.make_model(500, 250, pr.SIGN, gauss1, seed=3)
    z, v = pr.generate_spike(gm, seed=4)
    assert set(np.unique(v)) <= {-1.0, 1.0}
    assert np.sum(v ** 2) / gm.p == 1.0


def test_generate_spike_norms(gauss1):
    gm = pr.make_model(2000, 2000, pr.LINEAR, gauss1, seed=5)
    _, v = pr.generate_spike(gm, seed=6)
    assert abs(np.sum(v ** 2) / 2000 - 1.0) <= 0.1
    gm = pr.make_model(4000, 2000, pr.RELU, gauss1, seed=7)
    _, v = pr.generate_spike(gm, seed=8)
    assert abs(np.sum(v ** 2) / 4000 - 0.5) <= 0.05


def test_model_alpha_invariant(gauss1):
    gm = pr.make_model(1000, 333, pr.LINEAR, gauss1, seed=9)
    assert abs(gm.alpha - 1000 / 333) <= 1 / 333


def test_wigner_symmetry_and_determinism(gauss1):
    gm = pr.make_model(300, 150, pr.LINEAR, gauss1, seed=10)
    z, v = pr.generate_spike(gm, seed=11)
    inst1 = pr.sample_wigner(v, 0.5, seed=12, z_star=z)
    inst2 = pr.sample_wigner(v, 0.5, seed=12, z_star=z)
    assert np.array_equal(inst1.Y, inst2.Y)
    # stored as its lower triangle: nothing above the diagonal
    assert np.array_equal(inst1.Y, np.tril(inst1.Y))


def test_wigner_noiseless_limit(gauss1):
    gm = pr.make_model(100, 50, pr.LINEAR, gauss1, seed=13)
    _, v = pr.generate_spike(gm, seed=14)
    inst = pr.sample_wigner(v, 1e-30, seed=15)
    outer = np.outer(v, v) / math.sqrt(100)
    assert np.max(np.abs(inst.Y - np.tril(outer))) < 1e-12


def test_wigner_delta_validation(gauss1):
    with pytest.raises(ValueError):
        pr.sample_wigner(np.ones(10), 0.0, seed=0)
    with pytest.raises(ValueError):
        pr.sample_wishart(np.ones(10), np.ones(10), -1.0, seed=0)


def test_goe_noise_statistics():
    # off-diagonal variance Delta, diagonal 2 Delta
    p, delta = 1200, 0.7
    inst = pr.sample_wigner(np.zeros(p), delta, seed=16)
    off = inst.Y[np.tril_indices(p, k=-1)]
    assert abs(off.var() - delta) < 0.01
    assert abs(inst.Y.diagonal().var() - 2 * delta) < 0.15


def test_goe_semicircle_edge():
    p, delta = 2000, 1.0
    inst = pr.sample_wigner(np.zeros(p), delta, seed=17)
    top = np.linalg.eigvalsh(inst.Y / math.sqrt(p))[-1]
    assert abs(top - 2 * math.sqrt(delta)) < 0.1


def test_wishart_beta_and_mp_edge():
    n = p = 1500
    inst = pr.sample_wishart(np.zeros(n), np.zeros(p), 1.0, seed=18)
    assert inst.beta == 1.0
    top = np.linalg.svd(inst.Y / math.sqrt(p), compute_uv=False)[0]
    assert abs(top - 2.0) < 0.1   # (1 + sqrt(beta)) sqrt(delta)


def test_wishart_shapes(gauss1):
    u = pr.sample_u(pr.gauss_prior(), 60, seed=19)
    v = np.ones(40)
    inst = pr.sample_wishart(u, v, 0.3, seed=20)
    assert inst.Y.shape == (60, 40)
    assert inst.beta == pytest.approx(1.5)


def test_full_chain_determinism(gauss1):
    def chain():
        gm = pr.make_model(80, 40, pr.SIGN, gauss1, seed=21)
        z, v = pr.generate_spike(gm, seed=22)
        return pr.sample_wigner(v, 1.1, seed=23, z_star=z)
    a, b = chain(), chain()
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.v_star, b.v_star)
    assert np.array_equal(a.z_star, b.z_star)


def test_spike_covariance_matches_wwt(gauss1):
    # empirical second moment of linear spikes approaches W W^T / k
    p, k, m = 50, 25, 10000
    gm = pr.make_model(p, k, pr.LINEAR, gauss1, seed=24)
    rng = pr.make_rng(25)
    spikes = np.empty((m, p))
    for i in range(m):
        z = gauss1.sample(k, rng)
        spikes[i] = gm.W @ z / math.sqrt(k)
    emp = spikes.T @ spikes / m
    want = gm.W @ gm.W.T / k
    assert np.max(np.abs(emp - want)) <= 5 / math.sqrt(m)


def test_null_channel_moments_closed_forms(gauss1):
    # (E[v^2], E[vx]) with x ~ N(0, rho_z)
    assert pr.null_channel_moments(pr.LINEAR, gauss1) == (1.0, 1.0)
    assert pr.null_channel_moments(pr.LINEAR, pr.gauss_prior(2.5)) == (2.5, 2.5)
    vv, vx = pr.null_channel_moments(pr.SIGN, gauss1)
    assert vv == 1.0 and vx == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)
    vv, vx = pr.null_channel_moments(pr.SIGN, pr.gauss_prior(2.5))
    assert vv == 1.0 and vx == pytest.approx(math.sqrt(5 / math.pi), abs=1e-12)
    # ReLU has E[v] = 1/sqrt(2 pi) != 0: nothing to linearise around
    with pytest.raises(ValueError, match="uninformative fixed point"):
        pr.null_channel_moments(pr.RELU, gauss1)


def _dense_wigner(v, delta, seed):
    a = pr.make_rng(seed).standard_normal((len(v), len(v)))
    return (a + a.T) / math.sqrt(2.0) * math.sqrt(delta) + np.outer(v, v) / math.sqrt(len(v))


def _dense_wishart(u, v, delta, seed):
    xi = pr.make_rng(seed).standard_normal((len(u), len(v)))
    return xi * math.sqrt(delta) + np.outer(u, v) / math.sqrt(len(v))


@pytest.mark.parametrize("delta", [0.3, 2.7])
def test_samplers_match_dense_reference(delta):
    # below, at and across the row-block size
    for p in (1, 511, 512, 513, 1100):
        v = pr.make_rng(p).standard_normal(p)
        Y = pr.sample_wigner(v, delta, seed=p + 1).Y
        assert np.array_equal(Y, np.tril(_dense_wigner(v, delta, p + 1)))
    # Wishart: n below, at and across the 32-row spike tile and the block
    for n, p in ((7, 30), (32, 45), (300, 700), (545, 97), (1100, 513)):
        u, v = pr.make_rng(n).standard_normal(n), pr.make_rng(p).standard_normal(p)
        Y = pr.sample_wishart(u, v, delta, seed=n + p).Y
        assert np.array_equal(Y, _dense_wishart(u, v, delta, n + p))


def _run_python(code: str, *args: str) -> str:
    """stdout of `code` run with `args` in a fresh interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(pr.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout


SAMPLER_PEAK = """
import sys
from spikedgen import priors as pr

def peak_rss():   # VmHWM, in bytes; it counts mmap buffers too
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("VmHWM:"))

w = pr.make_rng(1).standard_normal(3000)
u, v = pr.make_rng(3).standard_normal(3000), pr.make_rng(4).standard_normal(2000)
before = peak_rss()
if sys.argv[1] == "wigner":
    pr.sample_wigner(w, 0.5, seed=2)
else:
    pr.sample_wishart(u, v, 0.5, seed=5)
print(peak_rss() - before)
"""


def test_sampler_peak_is_one_buffer():
    # Wigner (p = 3000): the lower triangle of Y, 4 p (p + 1) bytes, and the
    # draw's _BUFFERS row buffers of _HALF x p; the 16 MiB hold the pages
    # that the triangle's rows share with the upper one (one per row,
    # 11.7 MiB) and the spike tile.  Wishart (n x p = 3000 x 2000): the dense
    # Y, 8 n p bytes, with a quarter to spare
    wigner = int(_run_python(SAMPLER_PEAK, "wigner"))
    wishart = int(_run_python(SAMPLER_PEAK, "wishart"))
    assert wigner <= 4 * 3000 * 3001 + 8 * pr._BUFFERS * pr._HALF * 3000 + 16 * 2 ** 20
    assert wishart < 1.25 * 8 * 3000 * 2000


def test_sampler_draw_error_reaches_caller(monkeypatch):
    class FailingRng:
        def standard_normal(self, out):
            raise FloatingPointError("draw failed")

    monkeypatch.setattr(pr, "make_rng", lambda seed: FailingRng())
    with pytest.raises(FloatingPointError, match="draw failed"):
        pr.sample_wigner(np.ones(1100), 0.5, seed=0)
    with pytest.raises(FloatingPointError, match="draw failed"):
        pr.sample_wishart(np.ones(1100), np.ones(30), 0.5, seed=0)


def test_concurrent_wigner_samplers_under_fast_thread_switching():
    # each sampler's worker and caller write disjoint parts of its own Y; four
    # samplers at once, switching threads every microsecond
    cases = [(1100 - 37 * i, 0.3 + i, 40 + i) for i in range(4)]
    spikes = [pr.make_rng(seed).standard_normal(p) for p, _, seed in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(cases)) as pool:
            futures = [pool.submit(pr.sample_wigner, v, delta, seed + 1)
                       for v, (_, delta, seed) in zip(spikes, cases)]
            got = [f.result(timeout=120).Y for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for Y, v, (_, delta, seed) in zip(got, spikes, cases):
        assert np.array_equal(Y, np.tril(_dense_wigner(v, delta, seed + 1)))


def test_prefetched_noise_serves_only_its_seed():
    v = pr.make_rng(1).standard_normal(600)
    want = pr.sample_wigner(v, 0.5, seed=2).Y
    with pr.prefetch_noise((600, 600), 3):
        other = pr.sample_wigner(v, 0.5, seed=2).Y   # another seed: drawn afresh
    with pr.prefetch_noise((600, 600), 2):
        first = pr.sample_wigner(v, 0.5, seed=2).Y
        second = pr.sample_wigner(v, 0.5, seed=2).Y  # the prefetch is used once
    assert first is not second
    for Y in (other, first, second):
        assert np.array_equal(Y, want)


GL_ORDERS = [*range(1, 71), 100, 128, 256, 512, 1024, 2048]


@pytest.mark.parametrize("order", GL_ORDERS)
def test_gauss_legendre_bit_identical_to_leggauss(order):
    x, w = pr.gauss_legendre(order)
    x_np, w_np = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(x, x_np) and np.array_equal(w, w_np)


def test_gauss_legendre_cached_and_read_only():
    x, w = pr.gauss_legendre(256)
    again = pr.gauss_legendre(256)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        pr.gauss_legendre(0)


def test_gauss_legendre_needs_no_dense_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    pr.gauss_legendre.cache_clear()
    for order in (256, 512, 1024, 2048):
        x, w = pr.gauss_legendre(order)
        assert x.shape == w.shape == (order,)
        assert abs(w.sum() - 2.0) < 1e-13


def test_gauss_legendre_memory_is_linear():
    pr.gauss_legendre.cache_clear()
    tracemalloc.start()
    try:
        pr.gauss_legendre(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20            # a dense 2048 x 2048 companion is 32 MiB


def test_gauss_legendre_rss_growth_in_fresh_interpreter():
    """Building the RMT orders 256 to 2048 grows ru_maxrss by under 8 MiB."""
    code = (
        "import resource\n"
        "from spikedgen import rmt\n"
        "from spikedgen.priors import gauss_legendre\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "for order in (256, 512, 1024, 2048):\n"
        "    gauss_legendre(order)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    growth_kib = int(_run_python(code).split()[-1])   # Linux reports ru_maxrss in KiB
    assert growth_kib < 8 * 1024
