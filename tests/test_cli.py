import csv
import dataclasses
import hashlib
import json
import math
import mmap
import re
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spikedgen import amp, cli, priors, rmt, serialize as ser
from spikedgen.priors import (LINEAR, Wigner, gauss_prior, generate_spike, make_model,
                              make_rng, sample_u, sample_wigner, sample_wishart)
from oracles import full_symmetric
from test_priors import _run_python


def run_main(args):
    return cli.main(args)


def test_usage_error_exit_code(capsys):
    cfg_bad = ["se", "--alpha", "2", "--delta", "2", "--methods", "sorcery"]
    assert run_main(cfg_bad) == 2
    assert "usage error" in capsys.readouterr().err


def test_se_needs_no_sampling(capsys):
    # methods={se} runs without p or k
    assert run_main(["se", "--alpha", "2", "--delta", "2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["metrics"]["se"]["q_v"] == pytest.approx(0.2847747611, abs=1e-7)
    # the record says how the selected init converged
    assert rec["metrics"]["se"]["solver"] == "root"
    assert rec["metrics"]["se"]["residual"] < 1e-10


def test_se_record_is_strict_json(capsys):
    # at alpha = 1e16 no init converges, so the init gap is undefined: it
    # must print as null, never as the NaN that strict parsers reject
    assert run_main(["se", "--alpha", "1e16", "--delta", "1"]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rec = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert rec["metrics"]["se"]["init_gap"] is None


def test_dims_requires_exactly_one(capsys):
    assert run_main(["amp", "--alpha", "2", "--delta", "2"]) == 2
    assert run_main(["amp", "--alpha", "2", "--delta", "2",
                     "--p", "100", "--k", "50"]) == 2


def test_splitmix_deterministic_and_sensitive():
    a = cli.splitmix64(1, 2.0, 3.5)
    assert a == cli.splitmix64(1, 2.0, 3.5)
    assert a != cli.splitmix64(1, 2.0, 3.5000001)
    assert a != cli.splitmix64(2, 2.0, 3.5)
    assert 0 <= a < 2 ** 64


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("alpha = 2.0\ndelta = 1.5\nactivation = linear\n"
                       "# comment line\nmethods = se\n")
    cfg = cli.apply_settings(cli.ExperimentConfig(),
                             cli.load_config_file(cfgfile))
    assert cfg.alpha == 2.0 and cfg.delta == 1.5
    cli.apply_settings(cfg, {"delta": "2.5"})
    assert cfg.delta == 2.5
    with pytest.raises(cli.UsageError):
        cli.apply_settings(cfg, {"nonsense_key": "1"})


def test_sweep_golden_header_and_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = cli.ExperimentConfig(alpha_grid=[2.0], delta_grid=[1.5],
                               methods=["se"])
    cli.run_sweep(cfg, out_path=out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "delta", "q_v", "q_z", "mmse_v",
                       "converged", "iters", "init"]
    assert len(rows) == 3   # one uninformative + one informative row
    single = cli.run_single(cli.ExperimentConfig(alpha=2.0, delta=1.5,
                                                 methods=["se"]))
    by_init = {r[7]: r for r in rows[1:]}
    assert float(by_init["uninformative"][2]) == pytest.approx(
        single["metrics"]["se"]["q_v"], abs=1e-12)


def test_sweep_workers_equivalence(tmp_path):
    grid = dict(alpha_grid=[1.0, 2.0], delta_grid=[1.0, 2.0], methods=["se"])
    rows1 = cli.run_sweep(cli.ExperimentConfig(workers=1, **grid))
    rows2 = cli.run_sweep(cli.ExperimentConfig(workers=2, **grid))
    key = lambda r: (r[0], r[1], r[7])
    assert sorted(map(str, rows1)) == sorted(map(str, rows2))


def _recording_pool(monkeypatch, cores):
    """Fake `cores` usable cores and a process pool that records its size and
    starts no process; returns the list of recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cores)))
    return sizes


def test_sweep_pool_no_larger_than_the_grid(monkeypatch):
    # the pool starts all its workers at once, so it gets at most one per
    # point, here with more cores than points
    sizes = _recording_pool(monkeypatch, cores=64)
    grid = dict(alpha_grid=[1.0, 2.0], delta_grid=[1.0, 2.0, 3.0], methods=["se"])
    serial = cli.run_sweep(cli.ExperimentConfig(workers=1, **grid))
    assert cli.run_sweep(cli.ExperimentConfig(workers=10 ** 6, **grid)) == serial
    assert cli.run_sweep(cli.ExperimentConfig(workers=3, **grid)) == serial
    assert sizes == [6, 3]
    # a single point runs serially whatever workers asks for
    cli.run_sweep(cli.ExperimentConfig(workers=10 ** 6, alpha_grid=[2.0],
                                       delta_grid=[1.0], methods=["se"]))
    assert sizes == [6, 3]


def test_sweep_workers_clamped_to_the_cores(monkeypatch, capsys):
    # workers above the usable cores are clamped, with a note on stderr; the
    # rows do not depend on the worker count
    sizes = _recording_pool(monkeypatch, cores=2)
    grid = dict(alpha_grid=[1.0, 2.0], delta_grid=[1.0, 2.0, 3.0], methods=["se"])
    serial = cli.run_sweep(cli.ExperimentConfig(workers=1, **grid))
    assert "clamping" not in capsys.readouterr().err
    assert cli.run_sweep(cli.ExperimentConfig(workers=2, **grid)) == serial
    assert "clamping" not in capsys.readouterr().err
    assert cli.run_sweep(cli.ExperimentConfig(workers=10 ** 6, **grid)) == serial
    assert "# clamping workers to 2," in capsys.readouterr().err
    assert sizes == [2, 2]


def test_sweep_grid_product_bounded(monkeypatch, capsys):
    # each grid fits alone, but their product is refused before a point is
    # built, at need - 1 bytes of faked physical memory and not at need
    need = 6 * cli.SWEEP_POINT_BYTES
    argv = ["sweep", "--alpha-grid", "1,2", "--delta-grid", "1,2,3"]
    for ram, code in ((need, 0), (need - 1, 2)):
        pages = {"SC_PHYS_PAGES": ram, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        assert run_main(argv) == code
    err = capsys.readouterr().err
    assert "alpha_grid/delta_grid: a sweep of 6 points" in err and "physical memory" in err


def test_sweep_empty_grid_usage_error():
    with pytest.raises(cli.UsageError):
        cli.run_sweep(cli.ExperimentConfig(delta_grid=[], alpha_grid=[]))


def test_sweep_flags_error_rows():
    # a point with an invalid delta is flagged, the sweep continues
    cfg = cli.ExperimentConfig(alpha_grid=[2.0], delta_grid=[-1.0, 1.0],
                               methods=["se"])
    rows = cli.run_sweep(cfg)
    flagged = [r for r in rows if str(r[7]).startswith("error")]
    good = [r for r in rows if not str(r[7]).startswith("error")]
    assert len(flagged) == 1 and len(good) == 2


def test_compare_rmt_se_rows(tmp_path):
    out = tmp_path / "cmp.csv"
    rows = cli.compare_rmt_se(2.0, [2.0, 3.5], out_path=out)
    assert abs(rows[0][3]) <= 1e-3
    assert rows[1][1] <= 1e-6 and rows[1][2] <= 1e-6
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == "delta,q_v_se,epsilon_rmt,abs_diff"
    with pytest.raises(cli.UsageError):
        cli.compare_rmt_se(2.0, [])


def test_run_single_amp_reproducible():
    cfg = cli.ExperimentConfig(alpha=2.0, delta=1.0, k=150,
                               methods=["amp", "pca"], seed=5)
    r1 = cli.run_single(cfg)
    r2 = cli.run_single(cfg)
    assert r1["metrics"]["amp"]["q_v"] == r2["metrics"]["amp"]["q_v"]
    assert r1["metrics"]["pca"]["overlap_sq"] == r2["metrics"]["pca"]["overlap_sq"]


def test_run_single_shares_instance():
    cfg = cli.ExperimentConfig(alpha=2.0, delta=0.4, k=250,
                               methods=["amp", "lamp", "pca"], seed=6)
    rec = cli.run_single(cfg)
    m = rec["metrics"]
    # strong signal: every method recovers, LAMP not worse than PCA
    assert abs(m["amp"]["q_v"]) > 0.7
    assert m["lamp"]["overlap_sq"] >= m["pca"]["overlap_sq"] - 0.05
    assert rec["build"]


def test_pca_reads_eig_tol(tmp_path, capsys):
    # a config-file eig_tol reaches PCA as it reaches LAMP: each pair meets
    # the tolerance it was given, and the default is eig_tol's 1e-8
    argv = ["pca", "--alpha", "2", "--delta", "1", "--p", "300", "--seed", "3"]
    config = tmp_path / "tol.cfg"
    records = {}
    for tol in (None, 1e-4, 1e-8, 1e-12):
        config.write_text(f"eig_tol={tol!r}\n" if tol else "")
        assert run_main(argv + ["--config", str(config)]) == 0
        records[tol] = json.loads(capsys.readouterr().out)["metrics"]["pca"]
    assert records[None] == records[1e-8]
    assert records[1e-4]["iters"] < records[1e-8]["iters"] < records[1e-12]["iters"]
    for tol in (1e-4, 1e-8, 1e-12):
        m = records[tol]
        for value, residual in zip(m["eigenvalues"], m["residuals"]):
            assert residual <= 2 * tol * abs(value)
    assert max(records[1e-4]["residuals"]) > 1e-3 * 1e-4


def test_amp_record_carries_nishimori_gap():
    # the Bayes-optimal fixed point has |q_v| = |v_hat|^2 / p; at this size
    # seeds 0-4 read gaps of 0.006-0.036 at |q_v| of 0.60-0.83
    cfg = cli.ExperimentConfig(alpha=2.0, delta=1.0, k=300, methods=["amp"], seed=3)
    m = cli.run_single(cfg)["metrics"]["amp"]
    gm, inst = cli._make_instance(cfg, cfg.seed)
    res = amp.amp_wigner_run(inst, gm, cfg=cfg.amp_config(), seed=cli.splitmix64(3, 5))
    assert m["nishimori_gap"] == abs(abs(res.overlap_trace[-1]) - res.self_overlap_trace[-1])
    assert abs(m["q_v"]) > 0.5 and m["nishimori_gap"] <= 0.1


def test_duplicate_methods_refused(capsys):
    # a method named twice would be solved twice, as a second lockstep side;
    # the single-method commands refuse any list but their own method
    cfg = cli.ExperimentConfig(alpha=2.0, delta=1.0, p=40, methods=["lamp", "pca", "lamp"])
    with pytest.raises(cli.UsageError, match="methods: each method at most once"):
        cli.run_single(cfg)
    assert run_main(["pca", "--methods", "pca,pca", "--alpha", "2", "--delta", "1",
                     "--p", "40"]) == 2
    assert "usage error: methods:" in capsys.readouterr().err


_SMALLEST = {
    "lamp_k1": ["lamp", "--k", "1"],
    "lamp_k2": ["lamp", "--k", "2"],
    "lamp_wishart_k1": ["lamp", "--k", "1", "--model", "wishart"],
    "lamp_wishart_k2": ["lamp", "--k", "2", "--model", "wishart"],
    "pca_p1": ["pca", "--p", "1"],
    "pca_p2": ["pca", "--p", "2"],
    "pca_wishart_p2": ["pca", "--p", "2", "--model", "wishart"],
}


@pytest.mark.parametrize("case", sorted(_SMALLEST))
def test_spectral_at_smallest_dimension(capsys, case):
    # dimension 2 is solved exactly in two Lanczos steps; dimension 1 has no
    # second eigenpair and is a usage error
    argv = _SMALLEST[case] + ["--alpha", "1", "--delta", "1"]
    dim = int(argv[2])
    assert run_main(argv) == (0 if dim == 2 else 2)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if dim == 1:
        assert "usage error" in err and "no second eigenpair" in err
        return
    m = json.loads(out)["metrics"][argv[0]]
    assert m["iters"] == 2
    assert m["eigenvalues"][0] >= m["eigenvalues"][1]
    assert max(m["residuals"]) <= 1e-12


def test_rmt_subcommand_csv(tmp_path, capsys):
    out = tmp_path / "edge.csv"
    code = run_main(["rmt", "--alpha", "2", "--delta-grid", "2.0,3.0",
                     "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta", "lambda_max", "s_edge", "epsilon"]
    at3 = [r for r in rows[1:] if float(r[0]) == 3.0][0]
    assert float(at3[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(at3[2]) == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("model, delta, alpha", [("wigner", 0.5, 2.0), ("wigner", 0.5, 0.5),
                                                  ("wishart", 1.0, 2.0)])
def test_rmt_density_grid_holds_the_bulk(tmp_path, capsys, model, delta, alpha):
    # the default grid runs from 0.3 below the bulk's lower edge to 0.3 past
    # lambda_max, so the density CSV holds the bulk's whole mass, min(alpha, 1)
    out = tmp_path / "d.csv"
    assert run_main(["rmt", "--model", model, "--beta", "1.5", "--alpha", str(alpha),
                     "--delta", str(delta), "--density-out", str(out)]) == 0
    x, nu = np.loadtxt(out, delimiter=",", skiprows=1).T
    assert len(x) == 200
    assert np.trapezoid(nu, x) == pytest.approx(min(alpha, 1.0), abs=1e-3)


def test_amp_trace_csv(tmp_path):
    out = tmp_path / "amp.json"
    code = run_main(["amp", "--alpha", "2", "--delta", "1.0", "--k", "150",
                     "--amp-max-iter", "30", "--out", str(out)])
    assert code == 0
    trace = out.with_suffix(".json.trace.csv")
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q_v", "q_z", "mse_v"]
    assert len(rows) >= 10


def _run_cov_lamp(tmp_path):
    """cov-LAMP on p = 60 from spikes of rank k = 30; returns (code, v*, out path)."""
    p, k, m, delta = 60, 30, 4000, 0.5
    gm = make_model(p, k, LINEAR, gauss_prior(1.0), seed=21)
    rng = make_rng(22)
    spikes = (gm.W @ rng.standard_normal((k, m))).T / math.sqrt(k)
    v = spikes[0] * math.sqrt(p) / np.linalg.norm(spikes[0])
    inst = sample_wigner(v, delta, seed=23)
    ser.save_matrix_csv(tmp_path / "spikes.csv", spikes)
    ser.save_matrix(tmp_path / "obs.bin", full_symmetric(inst.Y))
    out = tmp_path / "est.csv"
    code = run_main(["cov-lamp", "--spikes", str(tmp_path / "spikes.csv"),
                     "--observation", str(tmp_path / "obs.bin"),
                     "--delta", str(delta), "--out", str(out)])
    return code, v, out


def test_cov_lamp_end_to_end(tmp_path, capsys):
    code, v, out = _run_cov_lamp(tmp_path)
    assert code == 0
    est = ser.load_matrix_csv(out).ravel()
    p = len(v)
    overlap_sq = float(est @ v) ** 2 / p ** 2
    assert overlap_sq > 0.2
    meta = json.loads(capsys.readouterr().out)
    assert "eigenvalues" in meta


def test_cov_lamp_reports_only_converged_pairs(tmp_path, capsys):
    # Sigma_hat has rank 30 < p, so Gamma's second eigenvalue is the zero of
    # its null space, whose Ritz vector maps to rounding noise: that pair is
    # null in the record, and every pair reported meets the solver's tol
    code, _, _ = _run_cov_lamp(tmp_path)
    assert code == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["eigenvalues"][0] > 0
    for value, residual in zip(meta["eigenvalues"], meta["residuals"]):
        assert (value is None) == (residual is None)
        assert residual is None or residual <= 1e-8


def test_cov_lamp_dimension_errors(tmp_path):
    ser.save_matrix_csv(tmp_path / "s.csv", np.ones((5, 7)))
    ser.save_matrix_csv(tmp_path / "y.csv", np.ones((6, 6)))
    code = run_main(["cov-lamp", "--spikes", str(tmp_path / "s.csv"),
                     "--observation", str(tmp_path / "y.csv"),
                     "--delta", "1.0", "--out", str(tmp_path / "o.csv")])
    assert code == 2


def _cov_lamp_args(tmp_path, delta="1.0", spikes=None, observation=None):
    """cov-lamp argv on valid 6 x 6 inputs, with one input replaced."""
    spikes_path, obs_path = tmp_path / "s.csv", tmp_path / "y.bin"
    ser.save_matrix_csv(spikes_path, np.ones((5, 6)) if spikes is None else spikes)
    if observation is None:
        ser.save_matrix(obs_path, np.eye(6))
    else:
        obs_path.write_bytes(observation)
    return ["cov-lamp", "--spikes", str(spikes_path), "--observation", str(obs_path),
            "--delta", delta, "--out", str(tmp_path / "o.csv")]


def _matrix_bytes(tmp_path, a):
    ser.save_matrix(tmp_path / "m.bin", a)
    return (tmp_path / "m.bin").read_bytes()


def _config_args(tmp_path, line, argv=("se", "--alpha", "2", "--delta", "2")):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    return [*argv, "--config", str(path)]


_HEADER = struct.Struct("<IQQ")
BAD_INPUT = {
    "cov_lamp_nan_spikes": lambda t: _cov_lamp_args(t, spikes=np.full((5, 6), np.nan)),
    "cov_lamp_forged_header": lambda t: _cov_lamp_args(
        t, observation=b"SPKD" + _HEADER.pack(1, 2 ** 40, 2 ** 40)),
    "cov_lamp_truncated": lambda t: _cov_lamp_args(
        t, observation=b"SPKD" + _HEADER.pack(1, 6, 6) + bytes(8 * 30)),
    "cov_lamp_negative_delta": lambda t: _cov_lamp_args(t, delta="-1"),
    "cov_lamp_zero_delta": lambda t: _cov_lamp_args(t, delta="0"),
    # every Wigner product reads only the lower triangle, so an observation
    # that is not exactly symmetric would be symmetrised in silence
    "cov_lamp_lower_triangle_only": lambda t: _cov_lamp_args(
        t, observation=_matrix_bytes(t, np.tril(np.ones((6, 6))))),
    "cov_lamp_asymmetric_by_one_ulp": lambda t: _cov_lamp_args(
        t, observation=_matrix_bytes(t, np.full((6, 6), 0.5)
                                     + np.spacing(0.5) * np.eye(6, k=1))),
    # fields a subcommand would ignore: mi computes the Wigner i_RS only, and
    # compare-rmt-se the linear, N(0, 1)-latent Wigner overlap only
    "mi_wishart": lambda t: ["mi", "--model", "wishart", "--beta", "3", "--alpha", "2",
                             "--delta", "1.5"],
    "compare_sign_activation": lambda t: ["compare-rmt-se", "--activation", "sign",
                                          "--alpha", "2", "--delta-grid", "1"],
    "compare_rademacher_latent": lambda t: ["compare-rmt-se", "--latent", "rademacher",
                                            "--alpha", "2", "--delta-grid", "1"],
    "compare_rho_z_not_one": lambda t: ["compare-rmt-se", "--rho-z", "2", "--alpha", "2",
                                        "--delta-grid", "1"],
    "compare_wishart_model": lambda t: ["compare-rmt-se", "--model", "wishart",
                                        "--alpha", "2", "--delta-grid", "1"],
    # compare-rmt-se solves SE from the informative init at its own tolerance
    "compare_se_tol_off_default": lambda t: ["compare-rmt-se", "--alpha", "2",
                                             "--delta-grid", "1", "--se-tol", "1e-12"],
    "compare_se_init_off_default": lambda t: _config_args(
        t, "se_init=informative", ("compare-rmt-se", "--alpha", "2", "--delta-grid", "1")),
    "sweep_workers_zero": lambda t: ["sweep", "--workers", "0", "--alpha", "2",
                                     "--delta", "1"],
    "sweep_workers_negative": lambda t: ["sweep", "--workers=-2", "--alpha", "2",
                                         "--delta", "1"],
    # a 1 x 1 observation has no second eigenpair
    "cov_lamp_dimension_one": lambda t: _cov_lamp_args(
        t, spikes=np.ones((5, 1)), observation=_matrix_bytes(t, np.eye(1))),
    "lamp_relu": lambda t: ["lamp", "--activation", "relu", "--alpha", "2",
                            "--delta", "1", "--p", "40"],
    "mi_alpha_zero": lambda t: ["mi", "--alpha", "0", "--delta", "1"],
    "rmt_negative_delta_grid": lambda t: ["rmt", "--alpha", "2", "--delta-grid=-1,1"],
    "rmt_alpha_zero": lambda t: ["rmt", "--alpha", "0", "--delta", "1"],
    "config_delta_not_a_number": lambda t: _config_args(t, "delta=abc"),
    "config_p_not_an_int": lambda t: _config_args(t, "p=1.5"),
    "config_se_max_iter_zero": lambda t: _config_args(t, "se_max_iter=0"),
    "config_se_max_iter_negative": lambda t: _config_args(t, "se_max_iter=-3"),
    "config_amp_max_iter_zero": lambda t: _config_args(
        t, "amp_max_iter=0", ("amp", "--alpha", "2", "--delta", "1", "--p", "200")),
    # the Lanczos tolerance of lamp, pca and cov-lamp: tol = 0 means machine
    # epsilon, as in ARPACK; below 0 or not finite it is refused
    "config_eig_tol_negative": lambda t: _config_args(
        t, "eig_tol=-1e-8", ("pca", "--alpha", "2", "--delta", "1", "--p", "40")),
    "config_eig_tol_nan": lambda t: _config_args(
        t, "eig_tol=nan", ("lamp", "--alpha", "2", "--delta", "1", "--p", "40")),
    "config_eig_tol_inf": lambda t: _config_args(
        t, "eig_tol=inf", ("pca", "--alpha", "2", "--delta", "1", "--p", "40")),
    "cov_lamp_negative_tol": lambda t: [*_cov_lamp_args(t), "--tol=-1e-8"],
    "cov_lamp_nan_tol": lambda t: [*_cov_lamp_args(t), "--tol", "nan"],
    "grid_count_not_an_int": lambda t: ["rmt", "--alpha", "2", "--delta-grid", "1:2:x"],
    # more points than physical memory holds, refused before any is allocated
    "grid_points_huge": lambda t: ["rmt", "--alpha", "2", "--delta-grid", f"1:2:{10 ** 18}"],
    "rmt_density_points_huge": lambda t: ["rmt", "--alpha", "2", "--delta", "1",
                                          "--density-points", str(10 ** 15),
                                          "--density-out", str(t / "d.csv")],
    "se_rho_z_zero": lambda t: ["se", "--rho-z", "0", "--alpha", "2", "--delta", "1"],
    "se_negative_tol": lambda t: ["se", "--alpha", "2", "--delta", "1", "--se-tol", "-1"],
    "compare_negative_delta_grid": lambda t: ["compare-rmt-se", "--alpha", "2",
                                              "--delta-grid=-1,1"],
    "compare_negative_alpha": lambda t: ["compare-rmt-se", "--alpha=-1",
                                         "--delta-grid", "1,2"],
    # p or k below 1, given or derived (k = round(1 / 2) = 0)
    "amp_k_zero": lambda t: ["amp", "--alpha", "2", "--delta", "1", "--k", "0"],
    "amp_k_negative": lambda t: ["amp", "--alpha", "2", "--delta", "1", "--k", "-5"],
    "amp_p_zero": lambda t: ["amp", "--alpha", "2", "--delta", "1", "--p", "0"],
    "amp_p_one": lambda t: ["amp", "--alpha", "2", "--delta", "1", "--p", "1"],
    # dense W and Y beyond physical memory: refused before anything is drawn
    "amp_instance_too_large": lambda t: ["amp", "--alpha", "2", "--k", "1000000",
                                         "--delta", "1"],
    "wishart_instance_too_large": lambda t: ["amp", "--model", "wishart", "--beta", "1e7",
                                             "--alpha", "2", "--p", "1000", "--delta", "1"],
    # beta must be positive; n = round(beta p) must be at least 1
    "rmt_wishart_beta_zero": lambda t: ["rmt", "--model", "wishart", "--beta", "0",
                                        "--alpha", "2", "--delta", "1"],
    "amp_wishart_beta_zero": lambda t: ["amp", "--model", "wishart", "--beta", "0",
                                        "--alpha", "2", "--delta", "1", "--p", "50"],
    "se_wishart_beta_zero": lambda t: ["se", "--model", "wishart", "--beta", "0",
                                       "--alpha", "2", "--delta", "1"],
    "amp_wishart_no_rows": lambda t: ["amp", "--model", "wishart", "--beta", "0.001",
                                      "--alpha", "2", "--delta", "1", "--p", "50"],
    # non-finite alpha, delta and grid values
    "se_alpha_inf": lambda t: ["se", "--alpha", "inf", "--delta", "1"],
    "rmt_alpha_inf": lambda t: ["rmt", "--alpha", "inf", "--delta", "1"],
    "rmt_delta_inf": lambda t: ["rmt", "--alpha", "2", "--delta", "inf"],
    "sweep_alpha_grid_nan": lambda t: ["sweep", "--alpha-grid", "1,nan", "--delta", "1"],
    "rmt_density_points_negative": lambda t: ["rmt", "--alpha", "2", "--delta", "1",
                                              "--density-points", "-3",
                                              "--density-out", str(t / "f.csv")],
    # every flag is read as its config key is, and every float and list of
    # float key must be finite; names are those the constructors accept
    "se_alpha_not_a_number": lambda t: ["se", "--alpha", "abc", "--delta", "1"],
    "se_unknown_model": lambda t: ["se", "--model", "foo", "--alpha", "2", "--delta", "1"],
    "se_tol_nan": lambda t: ["se", "--alpha", "2", "--delta", "1", "--se-tol", "nan"],
    "amp_tol_inf": lambda t: ["amp", "--alpha", "2", "--delta", "1", "--p", "40",
                              "--amp-tol", "inf"],
    "se_rho_z_inf": lambda t: ["se", "--rho-z", "inf", "--alpha", "2", "--delta", "1"],
    "config_init_sigma2_nan": lambda t: _config_args(
        t, "init_sigma2=nan", ("amp", "--alpha", "2", "--delta", "1", "--p", "40")),
    # the analytic spectrum is that of unit second moments: base_law takes
    # neither rho_z nor rho_u
    "rmt_rho_z_not_one": lambda t: ["rmt", "--alpha", "2", "--delta", "2", "--rho-z", "2"],
    "rmt_wishart_rho_u_not_one": lambda t: ["rmt", "--model", "wishart", "--rho-u", "2",
                                            "--alpha", "2", "--delta", "1"],
    # a single-method command runs its own method only
    "amp_methods_other": lambda t: ["amp", "--methods", "pca", "--alpha", "2",
                                    "--delta", "1", "--p", "40"],
    # what argparse itself refuses returns 2 from main() as well
    "se_unknown_flag": lambda t: ["se", "--alpha", "2", "--delta", "1", "--sorcery", "1"],
    "rmt_density_points_not_an_int": lambda t: ["rmt", "--alpha", "2", "--delta", "1",
                                                "--density-points", "x"],
}


def test_compare_rmt_se_accepts_its_own_fields(capsys):
    # the refusals leave the one configuration compare-rmt-se computes
    argv = ["compare-rmt-se", "--alpha", "2", "--delta-grid", "1"]
    assert run_main(argv) == 0
    default = capsys.readouterr().out
    assert run_main(argv + ["--model", "wigner", "--activation", "linear",
                            "--latent", "gauss", "--rho-z", "1"]) == 0
    assert capsys.readouterr().out == default


def _basis(dim):
    """Bytes of the largest Lanczos basis on R^dim (the step cap is 1000)."""
    return 8 * dim * min(dim, 1000)


@pytest.mark.parametrize("model, n", [("wigner", 3000), ("wishart", 4500)])
def test_check_fits_models_resident_bytes(monkeypatch, model, n):
    # at the boundary, with the physical memory faked: nothing is allocated.
    # W and Y (a Wigner Y is its lower triangle, and each of its rows
    # reaches about one page into the unwritten upper one), the samplers'
    # fixed-row scratch (Wigner: three 128-row buffers, a 512 x 512 spike
    # tile and its mask; Wishart: a 32-row spike tile), and per spectral method
    # its largest Lanczos basis; the products themselves hold only rows
    p, k = 3000, 1500
    if model == "wigner":
        base = (8 * p * k + 4 * p * (p + 1) + p * mmap.PAGESIZE
                + 8 * 3 * 128 * p + 9 * 512 ** 2)
    else:
        base = 8 * p * k + 8 * n * p + 8 * 32 * p
    cases = [("linear", ["amp"], base),
             # linear: a = b, so the LAMP factor has k columns; PCA's has p
             ("linear", ["amp", "lamp", "pca"], base + _basis(k) + _basis(p)),
             # sign: a > b, so the LAMP factor has p + k columns
             ("sign", ["lamp"], base + _basis(p + k))]
    for activation, methods, need in cases:
        cfg = cli.ExperimentConfig(model=model, activation=activation, beta=n / p,
                                   methods=methods)
        for ram in (need, need - 1):
            pages = {"SC_PHYS_PAGES": ram, "SC_PAGE_SIZE": 1}
            monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
            if ram == need:
                assert cli._check_fits(cfg, n, p, k) == need
            else:
                with pytest.raises(cli.UsageError, match="physical memory"):
                    cli._check_fits(cfg, n, p, k)


def test_point_bounds_at_the_boundary(monkeypatch, tmp_path, capsys):
    # grid specs and --density-points against physical memory faked at the
    # boundary, as in test_check_fits_models_resident_bytes
    def fake_ram(ram):
        pages = {"SC_PHYS_PAGES": ram, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)

    fake_ram(10 * cli.GRID_POINT_BYTES)
    assert len(cli.parse_grid("0:1:10")) == 10
    with pytest.raises(cli.UsageError, match="physical memory"):
        cli.parse_grid("0:1:11")
    out = str(tmp_path / "d.csv")
    argv = ["rmt", "--alpha", "2", "--delta", "1", "--density-points", "10",
            "--density-out", out]
    fake_ram(10 * (8 + rmt.DENSITY_POINT_BYTES))
    assert run_main(argv) == 0
    fake_ram(10 * (8 + rmt.DENSITY_POINT_BYTES) - 1)
    assert run_main(argv) == 2
    assert "physical memory" in capsys.readouterr().err


def test_point_bytes_bound_the_allocations():
    # the per-point bytes of both bounds against tracemalloc's peak
    n = 20000
    for run, per_point in ((lambda: cli.parse_grid(f"0:1:{n}"), cli.GRID_POINT_BYTES),
                           (lambda: rmt.bulk_density(rmt.base_law(Wigner(), 1.0), 2.0,
                                                     np.linspace(-5, 2, n)),
                            rmt.DENSITY_POINT_BYTES)):
        run()
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= n * per_point


RUN_PEAK = """
import sys
from spikedgen import cli

def peak_rss():   # VmHWM, in bytes; it counts mmap buffers too
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("VmHWM:"))

model, p, methods = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(",")

def config(p):
    return cli.ExperimentConfig(model=model, alpha=2.0, beta=1.5, delta=1.0, p=p,
                                methods=methods, amp_max_iter=30, seed=1)

cli.run_single(config(40))     # the lazy imports and caches, at a negligible size
cfg = config(p)
p, k = cfg.dims()
need = cli._check_fits(cfg, p if model == "wigner" else round(1.5 * p), p, k)
before = peak_rss()
cli.run_single(cfg)
print(peak_rss() - before, need)
"""


@pytest.mark.parametrize("model, p, methods", [("wishart", 1500, "amp,lamp,pca"),
                                               ("wigner", 3000, "amp"),
                                               ("wigner", 3000, "amp,lamp,pca")])
def test_run_single_peak_within_resident_model(model, p, methods):
    # in a fresh interpreter, a run grows VmHWM by no more than `_check_fits`
    # predicts from (n, p, k) and the methods, with 16 MiB for the rest
    # (vectors, Python objects, the allocator's own pages)
    growth, need = map(int, _run_python(RUN_PEAK, model, str(p), methods).split())
    assert growth <= need + 16 * 2 ** 20


@pytest.mark.parametrize("argv", [["rmt", "--alpha", "1e308", "--delta", "1"],
                                  ["mi", "--alpha", "1e308", "--delta", "1"],
                                  ["se", "--alpha", "1e308", "--delta", "1"]],
                         ids=["rmt", "mi", "se"])
def test_huge_alpha_fails_cleanly(capsys, argv):
    assert run_main(argv) in (2, 3)
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_rmt_density_without_a_lower_edge_is_numerical_failure(tmp_path, capsys):
    # a Wishart bulk on the negative axis has no upper edge to solve, and at a
    # tiny alpha the lower edge's root lies inside the bracket guard
    argv = ["rmt", "--model", "wishart", "--beta", "1.5", "--alpha", "1e-9",
            "--delta", "0.1", "--density-out", str(tmp_path / "d.csv")]
    assert run_main(argv) == 3
    err = capsys.readouterr().err
    assert "edge equation has no root in [1e-10," in err and "Traceback" not in err


def test_relu_se_at_tiny_delta_is_numerical_failure(capsys):
    # x = q_v / Delta near 1e20 is far past the ReLU field grid's range:
    # a numerical failure (exit 3), not a traceback
    assert run_main(["se", "--activation", "relu", "--alpha", "2",
                     "--delta", "1e-20"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2(tmp_path, capsys, case):
    assert run_main(BAD_INPUT[case](tmp_path)) == 2
    assert "usage error" in capsys.readouterr().err


# a text that reads as a non-default value of each field type
_OTHER_TEXT = {str: "other", int: "7", float: "0.25", list[float]: "0.5,1.5",
               list[str]: "amp,pca"}
COMMON_COMMANDS = ("se", "amp", "lamp", "pca", "mi", "rmt", "sweep", "compare-rmt-se")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(cli.ExperimentConfig)])
def test_every_config_key_is_a_flag(tmp_path, name):
    # the flag --<key> and the config line <key>=... give equal configs, on
    # every subcommand that reads the config
    text = _OTHER_TEXT[cli._FIELD_TYPES[name]]
    config = tmp_path / "one.cfg"
    config.write_text(f"{name}={text}\n")
    parser = cli.make_parser()
    for command in COMMON_COMMANDS:
        from_flag = cli._build_cfg(parser.parse_args(
            [command, "--" + name.replace("_", "-"), text]))
        from_file = cli._build_cfg(parser.parse_args([command, "--config", str(config)]))
        assert from_flag == from_file
        assert getattr(from_flag, name) != getattr(cli.ExperimentConfig(), name)


_TYPE_TEXT = {str: "str", int: "int", float: "float", list[float]: "list of float",
              list[str]: "list of str"}


def test_readme_config_table_matches_the_dataclass():
    # README's configuration table lists exactly the fields, each with its
    # flag, its type and its default ("unset" for None and an empty list)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([\w-]+)` \| ([^|]+) \| ([^|]+) \|", section,
                      re.MULTILINE)
    defaults = cli.ExperimentConfig()
    assert [row[0] for row in rows] == [f.name for f in dataclasses.fields(defaults)]
    for key, flag, type_text, default_text in rows:
        kind, default = cli._FIELD_TYPES[key], getattr(defaults, key)
        assert flag == "--" + key.replace("_", "-")
        assert type_text.strip() == _TYPE_TEXT[kind]
        if default_text.strip() == "unset":
            assert default in (None, [])
        else:
            assert cli._parse_value(kind, default_text.strip().strip("`")) == default


def _sha(*arrays):
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays]


@pytest.mark.parametrize("model", ["wigner", "wishart"])
@pytest.mark.parametrize("p", [7, 513, 1100])
def test_make_instance_overlap_draws_same_instance(monkeypatch, model, p):
    # the noise is drawn while W and the spike are; across the row-block size
    draws = []

    class CountedDraw(priors._NoiseDraw):
        def __init__(self, *args):
            draws.append(args)
            super().__init__(*args)

    monkeypatch.setattr(priors, "_NoiseDraw", CountedDraw)
    cfg = cli.ExperimentConfig(model=model, activation="sign", alpha=2.0, delta=0.7,
                               beta=1.5, p=p, methods=["amp"])
    seed = 19
    gm, inst = cli._make_instance(cfg, seed)
    assert len(draws) == 1       # the prefetched draw became Y
    monkeypatch.undo()
    p, k = cfg.dims()
    gm_ref = make_model(p, k, cfg.act(), cfg.latent_prior(), cli.splitmix64(seed, 1))
    z, v = generate_spike(gm_ref, cli.splitmix64(seed, 2))
    if model == "wigner":
        ref = sample_wigner(v, cfg.delta, cli.splitmix64(seed, 3), z_star=z)
    else:
        u = sample_u(cfg.u_prior(), int(round(cfg.beta * p)), cli.splitmix64(seed, 4))
        ref = sample_wishart(u, v, cfg.delta, cli.splitmix64(seed, 3),
                             prior_u=cfg.u_prior(), z_star=z)
        assert _sha(inst.u_star) == _sha(ref.u_star)
    assert (_sha(gm.W, inst.z_star, inst.v_star, inst.Y)
            == _sha(gm_ref.W, ref.z_star, ref.v_star, ref.Y))


@pytest.mark.parametrize("model", ["wigner", "wishart"])
def test_make_instance_spike_error_joins_worker(monkeypatch, model):
    def failing_spike(gm, seed):
        raise ArithmeticError("spike failed")

    monkeypatch.setattr(cli, "generate_spike", failing_spike)
    cfg = cli.ExperimentConfig(model=model, alpha=2.0, delta=0.7, p=1100,
                               methods=["amp"])
    baseline = threading.active_count()
    with pytest.raises(ArithmeticError, match="spike failed"):
        cli._make_instance(cfg, 3)
    assert threading.active_count() == baseline


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize (about 20 MiB) is imported by the first SE root solve or
    # RMT edge solve, not by importing the CLI: amp, lamp and pca never need it
    code = ("import sys, spikedgen.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "spikedgen.cli.main(['se', '--alpha', '2', '--delta', '2'])\n"
            "print('scipy.optimize' in sys.modules)\n")
    lines = _run_python(code).splitlines()
    assert (lines[0], lines[-1]) == ("False", "True")
