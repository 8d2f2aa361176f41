import csv
import hashlib
import json
import math
import struct
import threading

import numpy as np
import pytest

from spikedgen import cli, priors, serialize as ser, spectral
from spikedgen.priors import (LINEAR, gauss_prior, generate_spike, make_model, make_rng,
                              sample_u, sample_wigner, sample_wishart)


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


def test_spectral_records_carry_matvec_counts():
    # `iters` is the solver's operator-application count, for PCA as for LAMP
    cfg = cli.ExperimentConfig(alpha=2.0, delta=0.4, k=250,
                               methods=["lamp", "pca"], seed=6)
    m = cli.run_single(cfg)["metrics"]
    gm, inst = cli._make_instance(cfg, cfg.seed)
    pca = spectral.pca_estimate(inst, seed=cli.splitmix64(cfg.seed, 7))
    op = spectral.build_lamp(inst, gm, spectral.lamp_coefficients(cfg.act(),
                                                                  cfg.latent_prior()))
    lamp = spectral.leading_eigs(op, tol=cfg.eig_tol, seed=cli.splitmix64(cfg.seed, 6))
    assert m["pca"]["iters"] == pca.iters > 0
    assert m["pca"]["eigenvalues"] == list(pca.eigenvalues)
    assert m["lamp"]["iters"] == lamp.iters > 0


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
    ser.save_matrix(tmp_path / "obs.bin", inst.Y)
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
    "grid_count_not_an_int": lambda t: ["rmt", "--alpha", "2", "--delta-grid", "1:2:x"],
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
}


@pytest.mark.parametrize("argv", [["rmt", "--alpha", "1e308", "--delta", "1"],
                                  ["mi", "--alpha", "1e308", "--delta", "1"],
                                  ["se", "--alpha", "1e308", "--delta", "1"]],
                         ids=["rmt", "mi", "se"])
def test_huge_alpha_fails_cleanly(capsys, argv):
    assert run_main(argv) in (2, 3)
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


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
