"""The invariants of every lockstep solve (`spectral.solve`, AMP as the side
`amp.steps`), each stated once: a side gives its lone solve's results, which
the `cli.run_single` record carries; every product with Y and W is a scipy
BLAS call on a Fortran view, with numpy's values and no copy; a Wigner solve
reads only Y's lower triangle."""
import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import blas

from spikedgen import amp, cli, spectral
from spikedgen.priors import (LINEAR, SIGN, Wigner, gauss_prior, generate_spike,
                              make_model, make_rng, sample_u, sample_wigner,
                              sample_wishart)
from oracles import full_symmetric
from test_spectral import _sym

GAUSS1 = gauss_prior(1.0)
ACTS = {"linear": LINEAR, "sign": SIGN}


def _instance(model, act, p, k, delta, first, n=None):
    """W, the spike, the noise and u drawn from the seeds first, first + 1, ...."""
    gm = make_model(p, k, ACTS[act], GAUSS1, seed=first)
    z, v = generate_spike(gm, seed=first + 1)
    if model == "wigner":
        return gm, sample_wigner(v, delta, seed=first + 2, z_star=z)
    u = sample_u(GAUSS1, n, seed=first + 3)
    return gm, sample_wishart(u, v, delta, seed=first + 2, prior_u=GAUSS1, z_star=z)


def _solve(inst, gm, methods, amp_cfg=None, amp_seed=3, lamp_seed=1, pca_seed=2,
           tol=1e-8, max_iter=1000):
    """`methods` in one lockstep solve; with one method, its lone solve."""
    coeffs = (spectral.lamp_coefficients(gm.act, GAUSS1, inst.model)
              if "lamp" in methods else None)
    sides = {"amp": amp.steps(inst, gm, amp_cfg, amp_seed)} if "amp" in methods else {}
    return spectral.solve(inst, methods, gm, coeffs, tol=tol, lamp_seed=lamp_seed,
                          pca_seed=pca_seed, max_iter=max_iter, sides=sides)


def _same(a, b):
    """Every field of two results equal bit for bit."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(vars(a).values(), vars(b).values()))


def _assert_as_alone(inst, got, lone):
    """Each side of a lockstep solve against its lone solve."""
    for name, res in got.items():
        ref = lone[name]
        assert res.iters == ref.iters > 0
        if isinstance(inst.model, Wigner):
            assert _same(res, ref)
        elif name == "amp":
            assert res.converged == ref.converged
            assert len(res.overlap_trace) == res.iters + 1
            assert np.max(np.abs(np.subtract(res.overlap_trace, ref.overlap_trace))) <= 1e-10
        else:
            np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, rtol=1e-12, atol=0)
            assert abs(res.overlap_sq - ref.overlap_sq) <= 1e-10


def _amp_kw(max_iter, tol, seed):
    return {"amp_cfg": amp.AmpConfig(max_iter=max_iter, tol=tol), "amp_seed": seed}


# --- lockstep equals lone ---
_PAIR = {"p": 300, "k": 150, "delta": 0.8, "n": 450}            # Wishart: beta = 1.5
_WISHART_AMP = {"p": 400, "k": 200, "delta": 1.0, "n": 400, "first": 1}
_WIGNER_AMP = {"p": 300, "k": 150, "delta": 1.2, "first": 1}
_LANCZOS, _ALL = ("lamp", "pca"), ("amp", "lamp", "pca")
LOCKSTEP = {  # model-activation-...: instance, methods, AMP solve arguments, first
    "wigner-linear-lamp": (dict(_PAIR, first=304), _LANCZOS, {}, "lamp"),
    "wigner-linear-both": (dict(_PAIR, first=307), _LANCZOS, {}, "lamp pca"),
    "wigner-sign-pca": (dict(_PAIR, first=301), _LANCZOS, {}, "pca"),
    "wishart-linear-pca": (dict(_PAIR, first=301), _LANCZOS, {}, "pca"),
    "wishart-sign-pca": (dict(_PAIR, first=310), _LANCZOS, {}, "pca"),
    "wishart-linear-amp": (_WISHART_AMP, _ALL, _amp_kw(10, 1e-7, 4), "amp"),
    "wishart-sign-amp": (_WISHART_AMP, _ALL, _amp_kw(10, 1e-7, 4), "amp"),
    "wishart-linear-amp-last": (_WISHART_AMP, _ALL, _amp_kw(400, 1e-300, 4), "lamp pca"),
    "wishart-sign-amp-last": (_WISHART_AMP, _ALL, _amp_kw(400, 1e-300, 4), "pca"),
    "wigner-sign-amp": (_WIGNER_AMP, _ALL, _amp_kw(25, 1e-300, 3), "amp"),
}


@pytest.mark.parametrize("case", LOCKSTEP)
def test_lockstep_side_is_its_lone_solve(case):
    # whichever side stops first, each takes its lone solve's steps and gives
    # its results; on a Wigner Y, where each row has a dsymv of its own, bit
    # for bit, and on a Wishart Y to rounding
    shape, methods, kw, first = LOCKSTEP[case]
    gm, inst = _instance(*case.split("-")[:2], **shape)
    got = _solve(inst, gm, methods, **kw)
    fewest = min(res.iters for res in got.values())
    assert {name for name, res in got.items() if res.iters == fewest} == set(first.split())
    _assert_as_alone(inst, got, {name: _solve(inst, gm, (name,), **kw)[name]
                                 for name in methods})


@pytest.mark.parametrize("model, first, cap, side", [("wigner", 304, 72, "pca"),
                                                     ("wishart", 301, 64, "lamp")])
def test_lockstep_side_past_its_cap_raises_as_alone(model, first, cap, side):
    # the side that needs more than `cap` steps raises as its lone solve does,
    # while the other would have converged within the cap
    gm, inst = _instance(model, "linear", **dict(_PAIR, first=first))
    for methods in (_LANCZOS, (side,)):
        with pytest.raises(spectral.LanczosNoConvergence,
                           match=rf"did not converge in {cap} steps"):
            _solve(inst, gm, methods, max_iter=cap)
    _solve(inst, gm, ("pca" if side == "lamp" else "lamp",), max_iter=cap)


def test_lockstep_side_error_propagates():
    # one NaN entry of a Wishart Y reaches every side in the first pair of
    # passes; the AMP side, sent its products first, raises, and the solve
    # gives neither a Lanczos error nor a NaN result
    gm, inst = _instance("wishart", "linear", **dict(_PAIR, first=301))
    Y = inst.Y.copy()
    Y[5, 7] = np.nan
    with pytest.raises(amp.AmpDivergenceError, match="iteration 1: non-finite Y v_hat$"):
        _solve(replace(inst, Y=Y), gm, _ALL)


RECORDS = [("wigner", act, "amp,amp+lamp+pca", seed, 0.8, 300) for act in ACTS
           for seed in range(3)]
RECORDS += [(model, "linear", "lamp+pca", 6, 0.4, 500) for model in ("wigner", "wishart")]


@pytest.mark.parametrize("model, act, runs, seed, delta, p", RECORDS)
def test_record_carries_its_lockstep_solve(model, act, runs, seed, delta, p):
    # each record (of the method lists in `runs`) carries exactly the
    # lockstep solve with its seeds, and so the lone solves' (on a Wigner Y
    # exactly: AMP's record is the same alone and beside LAMP and PCA)
    runs = [run.split("+") for run in runs.split(",")]
    cfg = cli.ExperimentConfig(model=model, activation=act, alpha=2.0, beta=1.5,
                               delta=delta, p=p, methods=runs[-1], seed=seed)
    gm, inst = cli._make_instance(cfg, seed)
    kw = dict(amp_cfg=cfg.amp_config(), amp_seed=cli.splitmix64(seed, 5),
              lamp_seed=cli.splitmix64(seed, 6), pca_seed=cli.splitmix64(seed, 7),
              tol=cfg.eig_tol)
    lone = {name: _solve(inst, gm, (name,), **kw)[name] for name in cfg.methods}
    got = _solve(inst, gm, cfg.methods, **kw) if model == "wishart" else lone
    records = [cli.run_single(replace(cfg, methods=run))["metrics"] for run in runs]
    assert all(m["amp"] == records[0]["amp"] for m in records[1:])
    for name, rec, res in ((name, m[name], got[name]) for m in records for name in m):
        assert rec["iters"] == res.iters
        assert ((rec["trace"]["q_v"], rec["trace"]["mse_v"], rec["mse_v"])
                == (res.overlap_trace, res.mse_trace, res.mse_v) if name == "amp" else
                (rec["eigenvalues"], rec["residuals"], rec["overlap_sq"])
                == (list(res.eigenvalues), list(res.residuals), res.overlap_sq))
    _assert_as_alone(inst, got, lone)


# --- every product a scipy BLAS call on a Fortran view, with no copy ---
def _traced(fn, *args, **kwargs):
    """fn's value, and the bytes that the call held at its peak."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn(*args, **kwargs)
    return out, tracemalloc.get_traced_memory()[1] - before


def _watch(monkeypatch, calls, matrices):
    """Record (name, matrix, rows, bytes held) of each dgemv, dgemm and dsymv
    call; check numpy's value of each `gemv` and `symv` with `matrices`."""
    for name in ("dgemv", "dgemm", "dsymv"):
        def counted(alpha, a, b, *args, _fn=getattr(blas, name), _name=name, **kwargs):
            out, held = _traced(_fn, alpha, a, b, *args, **kwargs)
            calls.append((_name, a, b.shape[1] if _name == "dgemm" else 1, held))
            return out
        monkeypatch.setattr(blas, name, counted)

    def checked(fn, want):
        def product(A, x, *args, **kwargs):
            got = fn(A, x, *args, **kwargs)
            if any(np.may_share_memory(A, X) for X in matrices):
                ref = want(A, x, *args, **kwargs)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            return got
        return product

    monkeypatch.setattr(spectral, "gemv", checked(
        spectral.gemv, lambda A, x, trans=False: x @ (A if trans else A.T)))
    monkeypatch.setattr(spectral, "symv", checked(spectral.symv,
                                                  lambda Y, x: x @ full_symmetric(Y)))


BLAS = [f"{model}-{act}{only}" for model in ("wigner", "wishart") for act in ACTS
        for only in ("", "-amp")] + ["wigner-linear-lamp", "wigner-sign-lamp",
                                     "wigner-linear-pca", "wishart-linear-pca", "cov-lamp"]


@pytest.mark.parametrize("case", BLAS)
def test_every_product_is_scipy_blas_on_a_fortran_view(monkeypatch, case):
    # numpy's and scipy's OpenBLAS builds slow each other down, so each
    # product with Y or W is a scipy BLAS call on the F-ordered view of a
    # C-ordered matrix, which f2py does not copy (tracemalloc sees it copy a
    # C-ordered one).  Per step Y meets one row of each side (per pass), W
    # two of AMP and of LAMP (F, F^T); LAMP ends with 2 rows through F and
    # its kept ones through Gamma, PCA with 2 through G.  LAMP's factor:
    # sqrt(b/k) W (linear), [c I, w W] (sign), from np.linalg.eigh (cov).
    # All three sides, or the one named, alone
    calls, matrices = [], []
    model, act, *only = case.split("-")
    if model == "cov":
        gm, inst = _instance("wigner", "linear", 1000, 500, 1.0, 1)
        spikes = np.array([generate_spike(gm, seed=10 + i)[1] for i in range(40)])
        op = spectral.build_cov_lamp(inst.Y, spectral.empirical_covariance(spikes), 1.0)
        matrices += [inst.Y, op.W]
    else:
        cfg = cli.ExperimentConfig(model=model, activation=act, alpha=2.0, beta=1.5, delta=1.0,
                                   p=200, methods=only or list(_ALL), amp_max_iter=20, seed=3)
        gm, inst = cli._make_instance(cfg, cfg.seed)
        matrices += [inst.Y, gm.W]
    tracemalloc.start()
    try:
        copy = _traced(blas.dgemv, 1.0, matrices[1], np.ones(matrices[1].shape[1]))[1]
        _watch(monkeypatch, calls, [] if model == "cov" else matrices)
        solved = ({"lamp": spectral.leading_eigs(op, seed=1)} if model == "cov"
                  else cli._sampled_solves(cfg, gm, inst, cfg.seed))
    finally:
        tracemalloc.stop()
    assert copy >= matrices[1].nbytes
    iters = {name: res.iters for name, res in solved.items()}
    kept = sum(e is not None for e in solved["lamp"].eigenvalues) if "lamp" in iters else 0
    y_rows = sum(iters.values()) + kept + 2 * ("pca" in iters)
    w_rows = 2 * (iters.get("lamp", 0) + iters.get("amp", 0) + ("lamp" in iters) + kept)
    on = [[c for c in calls if np.may_share_memory(c[1], X)] for X in matrices]
    assert iters.get("amp", 20) == 20 and min(iters.values()) > 0
    assert sum(c[2] for c in on[0]) == y_rows * len(spectral.gram(inst).passes)
    assert sum(c[2] for c in on[1]) == w_rows
    assert {c[0] for c in on[0]} == ({"dsymv"} if model != "wishart" else {"dgemv"}
                                     if only == ["amp"] else {"dgemv", "dgemm"})
    assert all(c[3] < c[1].nbytes / 2 for c in on[0] + on[1])


# --- a Wigner solve reads only Y's lower triangle ---
LOWER = {  # activation-...: instance, methods, AMP solve arguments
    "linear-amp-lamp-pca": (_WIGNER_AMP, _ALL, _amp_kw(25, 1e-300, 3)),
    "sign-amp-lamp-pca": (_WIGNER_AMP, _ALL, _amp_kw(25, 1e-300, 3)),
    "sign-amp": (_WIGNER_AMP, ("amp",), _amp_kw(25, 1e-300, 7)),
    "linear-amp": (dict(p=200, k=100, delta=1.0, first=1), ("amp",), _amp_kw(10, 1e-7, 3)),
}


@pytest.mark.parametrize("case", LOWER)
def test_wigner_solve_reads_only_the_lower_triangle(case):
    # the run on the sampled Y, np.tril of the dense one, is bit for bit the
    # run on the dense Y, on any strict upper triangle (a NaN one would spread
    # into any product that read it) and on F-ordered copies of Y and W
    shape, methods, kw = LOWER[case]
    gm, inst = _instance("wigner", case.split("-")[0], **shape)
    full = full_symmetric(inst.Y)
    nan_upper = inst.Y.copy()
    nan_upper[np.triu_indices(gm.p, 1)] = np.nan
    noisy_upper = np.tril(inst.Y) + np.triu(make_rng(4).standard_normal(full.shape), 1)
    assert np.array_equal(inst.Y, np.tril(full))
    base = _solve(inst, gm, methods, **kw)
    for Y, W in [(full, gm.W), (nan_upper, gm.W), (noisy_upper, gm.W),
                 (np.asfortranarray(inst.Y), np.asfortranarray(gm.W))]:
        run = _solve(replace(inst, Y=Y), replace(gm, W=W), methods, **kw)
        assert all(_same(run[name], base[name]) for name in methods)


@functools.lru_cache(maxsize=1)
def _sym_pair(p):
    """`_sym(p, p)` and its lower triangle, which the two cases of a p share."""
    full = _sym(p, p)
    return full, np.tril(full)


@pytest.mark.parametrize("part", ["lower", "rows"])
@pytest.mark.parametrize("p", [1, 1023, 1024, 1025, 2100])
def test_symv_and_wigner_gram_read_only_the_lower_triangle(p, part):
    # spectral.symv, the pass of the Wigner data operator `_wigner_gram`
    # (x -> x Y / sqrt(p)), on blocks of 1 to 3 rows from the lower triangle
    # alone ("lower"); a row of a block comes out bit for bit as it does
    # alone ("rows")
    full, lower = _sym_pair(p)
    seed, sizes = (p, (1, 3)) if part == "lower" else (p + 1, (2,))
    rng = make_rng(seed)
    garbage = lower + np.triu(rng.standard_normal((p, p)), 1)
    assert seed > p or np.array_equal(full_symmetric(garbage), full)
    for rows in [rng.standard_normal((m, p)) for m in sizes]:
        want = rows @ full
        for Y in (lower, full, garbage):
            data = spectral._wigner_gram(Y)
            got = data.passes[0](rows)
            assert data.norm == math.sqrt(p) and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert seed == p or all(np.array_equal(data.passes[0](row[None])[0], g)
                                    for row, g in zip(rows, got))
