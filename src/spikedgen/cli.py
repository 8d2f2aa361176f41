"""Experiment orchestration: single runs, phase-diagram sweeps, comparisons.

Configuration is a flat key=value file plus command-line overrides; every
emitted number is reproducible from (config, seed).  Per-point sweep seeds
come from a splitmix64 hash of (base seed, alpha bits, delta bits) so results
do not depend on worker scheduling.

Exit codes: 0 ok, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from . import amp as amp_mod
from . import rmt as rmt_mod
from . import spectral as spectral_mod
from . import state_evolution as se_mod
from .priors import (Activation, SeparablePrior, Wigner, Wishart,
                     generate_spike, make_model, prefetch_noise, sample_u,
                     sample_wigner, sample_wishart)
from .serialize import load_any_matrix, save_matrix_csv

SWEEP_HEADER = ["alpha", "delta", "q_v", "q_z", "mmse_v", "converged", "iters", "init"]
TRACE_HEADER = ["t", "q_v", "q_z", "mse_v"]
RMT_DENSITY_HEADER = ["x", "density"]
RMT_EDGE_HEADER = ["delta", "lambda_max", "s_edge", "epsilon"]
COMPARE_HEADER = ["delta", "q_v_se", "epsilon_rmt", "abs_diff"]

ALL_METHODS = ("se", "amp", "lamp", "pca", "mi", "rmt")


class UsageError(ValueError):
    pass


def splitmix64(*parts) -> int:
    """Deterministic 64-bit mix of integers/floats (order-sensitive)."""
    mask = (1 << 64) - 1
    h = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, float):
            v = np.float64(part).view(np.uint64).item()
        else:
            v = int(part) & mask
        h = (h ^ v) & mask
        h = (h + 0x9E3779B97F4A7C15) & mask
        z = h
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        h = z ^ (z >> 31)
    return h & mask


@dataclass
class ExperimentConfig:
    model: str = "wigner"            # wigner | wishart
    activation: str = "linear"       # linear | sign | relu
    latent: str = "gauss"            # gauss | rademacher
    rho_z: float = 1.0
    prior_u: str = "gauss"
    rho_u: float = 1.0
    alpha: float = 2.0
    beta: float = 1.0
    delta: float | None = None
    delta_grid: list[float] = field(default_factory=list)
    alpha_grid: list[float] = field(default_factory=list)
    p: int | None = None
    k: int | None = None
    seed: int = 0
    methods: list[str] = field(default_factory=lambda: ["se"])
    out: str | None = None
    workers: int = 1
    se_tol: float = 1e-10
    se_max_iter: int = 5000
    se_damping: float = 0.5
    se_init: str = "uninformative"
    amp_tol: float = 1e-7
    amp_max_iter: int = 500
    amp_damping: float = 0.0
    init_sigma2: float = 1.0
    eig_tol: float = 1e-8

    def validate(self):
        if self.model not in ("wigner", "wishart"):
            raise UsageError(f"model: unknown value {self.model!r}")
        if self.activation not in ("linear", "sign", "relu"):
            raise UsageError(f"activation: unknown value {self.activation!r}")
        if self.latent not in ("gauss", "rademacher"):
            raise UsageError(f"latent: unknown value {self.latent!r}")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise UsageError(f"methods: unknown method {m!r}")
        for name in ("alpha", "beta", "delta"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise UsageError(f"{name}: must be finite")
        for name in ("alpha_grid", "delta_grid"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise UsageError(f"{name}: values must be finite")
        if self.delta is not None and not self.delta > 0:
            raise UsageError("delta: must be positive")
        if self.alpha < 0:
            raise UsageError("alpha: must be nonnegative")
        for keys, build in (("latent/rho_z", self.latent_prior),
                            ("beta/prior_u/rho_u", self.model_kind),
                            ("se_*", self.se_config),
                            ("amp_*", self.amp_config)):
            try:
                build()
            except ValueError as exc:
                raise UsageError(f"{keys}: {exc}") from None

    # -- derived objects ----------------------------------------------------
    def act(self) -> Activation:
        return Activation(self.activation)

    def latent_prior(self) -> SeparablePrior:
        return SeparablePrior(self.latent, self.rho_z)

    def u_prior(self) -> SeparablePrior:
        return SeparablePrior(self.prior_u, self.rho_u)

    def model_kind(self):
        if self.model == "wigner":
            return Wigner()
        return Wishart(beta=self.beta, prior_u=self.u_prior())

    def se_config(self) -> se_mod.SEConfig:
        return se_mod.SEConfig(damping=self.se_damping, tol=self.se_tol,
                               max_iter=self.se_max_iter, init=self.se_init)

    def amp_config(self) -> amp_mod.AmpConfig:
        return amp_mod.AmpConfig(max_iter=self.amp_max_iter, tol=self.amp_tol,
                                 damping=self.amp_damping,
                                 init_sigma2=self.init_sigma2)

    def dims(self) -> tuple[int, int]:
        """(p, k) with exactly one given and the other derived from alpha."""
        if self.p is not None and self.k is not None:
            raise UsageError("p/k: give exactly one of p or k (with alpha)")
        if self.p is None and self.k is None:
            raise UsageError("p/k: a sampled method needs p or k")
        if self.alpha <= 0:
            raise UsageError("alpha: sampled methods need alpha > 0")
        if self.k is not None:
            p, k = int(round(self.alpha * self.k)), self.k
            if abs(p - self.alpha * self.k) > 1e-9:
                print(f"# rounding p to {p} for alpha={self.alpha}, k={self.k}",
                      file=sys.stderr)
        else:
            p, k = self.p, int(round(self.p / self.alpha))
            if abs(k - self.p / self.alpha) > 1e-9:
                print(f"# rounding k to {k} for alpha={self.alpha}, p={self.p}",
                      file=sys.stderr)
        if min(p, k) < 1:
            raise UsageError(f"p/k: p and k must be at least 1 (got p={p}, k={k})")
        return p, k


def load_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# field name -> annotated type, with `X | None` reduced to X
_FIELD_TYPES = {name: typing.get_args(hint)[0] if isinstance(hint, types.UnionType) else hint
                for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def _parse_value(kind, text: str):
    if typing.get_origin(kind) is list:
        return text.split(",") if typing.get_args(kind) == (str,) else parse_grid(text)
    return kind(text)


def apply_settings(cfg: ExperimentConfig, settings: dict) -> ExperimentConfig:
    """Set fields from key=value settings, converting strings to the field's type."""
    for key, val in settings.items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        if isinstance(val, str):
            try:
                val = _parse_value(_FIELD_TYPES[key], val)
            except ValueError as exc:
                raise UsageError(f"{key}: cannot read {val!r} ({exc})") from None
        setattr(cfg, key, val)
    return cfg


def parse_grid(spec: str) -> list:
    """'lo:hi:n' inclusive linear grid, or comma-separated values."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        return list(np.linspace(float(lo), float(hi), int(n)))
    return [float(v) for v in spec.split(",")]


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

def _check_fits(n: int, p: int, k: int):
    """Refuse an instance whose dense W (p x k) and Y (n x p) exceed physical RAM."""
    need = 8 * (n * p + p * k)
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > ram:
        raise UsageError(f"p/k/beta: the dense instance needs {need / 2 ** 30:.3g} GiB "
                         f"(W {p} x {k}, Y {n} x {p}), more than the "
                         f"{ram / 2 ** 30:.3g} GiB of physical memory")


def _check_eig_dim(method: str, dim: int):
    """Refuse a top-2 eigenproblem of dimension 1, which has no second pair."""
    if dim < 2:
        raise UsageError(f"{method}: the eigenproblem has dimension {dim}, so there "
                         "is no second eigenpair (p and k must be at least 2)")


def _make_instance(cfg: ExperimentConfig, seed: int):
    p, k = cfg.dims()
    n = p if cfg.model == "wigner" else int(round(cfg.beta * p))
    if n < 1:
        raise UsageError(f"beta: n = round(beta p) must be at least 1 (got {n})")
    _check_fits(n, p, k)
    # the worker draws the noise while this thread draws W, the spike and u
    with prefetch_noise((n, p), splitmix64(seed, 3)):
        gm = make_model(p, k, cfg.act(), cfg.latent_prior(), splitmix64(seed, 1))
        z, v = generate_spike(gm, splitmix64(seed, 2))
        if cfg.model == "wigner":
            inst = sample_wigner(v, cfg.delta, splitmix64(seed, 3), z_star=z)
        else:
            u = sample_u(cfg.u_prior(), n, splitmix64(seed, 4))
            inst = sample_wishart(u, v, cfg.delta, splitmix64(seed, 3),
                                  prior_u=cfg.u_prior(), z_star=z)
    return gm, inst


def run_single(cfg: ExperimentConfig, seed: int | None = None) -> dict:
    """Run every requested method on one shared instance; returns the record."""
    cfg.validate()
    if cfg.delta is None:
        raise UsageError("delta: required for a single run")
    seed = cfg.seed if seed is None else seed
    t0 = time.time()
    record = {"config": asdict(cfg), "build": __version__, "seed": seed,
              "metrics": {}}
    act, latent = cfg.act(), cfg.latent_prior()
    if "lamp" in cfg.methods and not act.zero_mean_output:
        raise UsageError(f"lamp: activation {cfg.activation!r} has no uninformative "
                         "fixed point to linearize around")
    if not cfg.alpha > 0 and {"mi", "rmt"} & set(cfg.methods):
        raise UsageError("alpha: mi and rmt need alpha > 0")
    needs_instance = any(m in cfg.methods for m in ("amp", "lamp", "pca"))
    gm = inst = None
    if needs_instance:
        gm, inst = _make_instance(cfg, seed)

    for method in cfg.methods:
        m: dict = {}
        if method == "se":
            pp = se_mod.se_fixed_point(cfg.se_config(), cfg.delta, cfg.alpha,
                                       act, latent, cfg.model_kind())
            sel = pp.runs[pp.init_used]
            if not all(map(math.isfinite, sel["state"].as_tuple())):
                raise FloatingPointError(f"state evolution ended in a non-finite state "
                                         f"at alpha={cfg.alpha}, delta={cfg.delta}")
            m = {"q_v": pp.q_v_star, "q_z": pp.q_z_star, "mmse_v": pp.mmse_v,
                 "converged": pp.converged, "iters": pp.iters,
                 "residual": sel["residual"], "solver": sel["solver"],
                 "init_gap": pp.init_gap, "q_u": pp.q_u_star}
        elif method == "mi":
            i_rs, q_v = se_mod.mutual_information(cfg.delta, cfg.alpha, act, latent,
                                                  cfg.se_config())
            m = {"i_rs": i_rs, "q_v": q_v}
        elif method == "rmt":
            if cfg.activation != "linear":
                raise UsageError("rmt: analytic spectrum requires linear activation")
            base = rmt_mod.base_law(cfg.model_kind(), cfg.delta, cfg.beta)
            edge = rmt_mod.solve_s_edge(base, cfg.alpha)
            m = {"lambda_max": edge.lambda_max, "s_edge": edge.s_edge,
                 "edge_residual": edge.residual}
            if cfg.model == "wigner":
                m["epsilon"] = rmt_mod.epsilon_overlap(cfg.alpha, cfg.delta)
        elif method == "amp":
            # amp_wigner_run or amp_wishart_run, looked up at call time; a
            # Wishart run denoises u with the instance's prior, cfg.u_prior()
            run = getattr(amp_mod, f"amp_{cfg.model}_run")
            res = run(inst, gm, cfg=cfg.amp_config(), seed=splitmix64(seed, 5))
            m = {"q_v": res.overlap_trace[-1], "mse_v": res.mse_v,
                 "iters": res.iters, "converged": res.converged,
                 "trace": {"q_v": res.overlap_trace, "q_z": res.q_z_trace,
                           "mse_v": res.mse_trace}}
            if res.overlap_u is not None:
                m["q_u"] = res.overlap_u
        elif method == "lamp":
            coeffs = spectral_mod.lamp_coefficients(act, latent, cfg.model_kind())
            op = spectral_mod.build_lamp(inst, gm, coeffs)
            _check_eig_dim("lamp", op.factor_dim())
            sr = spectral_mod.leading_eigs(op, truth=inst.v_star, tol=cfg.eig_tol,
                                           seed=splitmix64(seed, 6))
            mse, _ = amp_mod.align_and_mse(sr.eigenvector, inst.v_star)
            m = {"eigenvalues": list(sr.eigenvalues), "overlap_sq": sr.overlap_sq,
                 "mse_v": mse, "residuals": list(sr.residuals), "iters": sr.iters}
        elif method == "pca":
            _check_eig_dim("pca", inst.p)
            sr = spectral_mod.pca_estimate(inst, seed=splitmix64(seed, 7))
            mse, _ = amp_mod.align_and_mse(sr.eigenvector, inst.v_star)
            m = {"eigenvalues": list(sr.eigenvalues), "overlap_sq": sr.overlap_sq,
                 "mse_v": mse, "residuals": list(sr.residuals), "iters": sr.iters}
        record["metrics"][method] = m
    record["wall_time"] = time.time() - t0
    return record


# ---------------------------------------------------------------------------
# sweeps (state evolution over an (alpha, delta) grid)
# ---------------------------------------------------------------------------

def _sweep_point(args):
    cfg_dict, alpha, delta = args
    cfg = apply_settings(ExperimentConfig(), cfg_dict)
    act, latent = cfg.act(), cfg.latent_prior()
    rows = []
    try:
        pp = se_mod.se_fixed_point(cfg.se_config(), delta, alpha, act, latent,
                                   cfg.model_kind())
        for init, run in pp.runs.items():
            st = run["state"]
            rows.append([alpha, delta, st.q_v, st.q_z,
                         se_mod.rho_v(act, latent) - st.q_v,
                         run["converged"], run["iters"], init])
    except Exception as exc:  # keep the sweep alive; flag the point
        rows.append([alpha, delta, "error", "error", "error", False, 0,
                     f"error:{type(exc).__name__}"])
    return rows


def run_sweep(cfg: ExperimentConfig, out_path=None) -> list:
    """Cartesian (alpha, delta) SE sweep, deterministic per-point, CSV rows."""
    cfg.validate()
    alphas = cfg.alpha_grid or [cfg.alpha]
    deltas = cfg.delta_grid or ([cfg.delta] if cfg.delta is not None else [])
    if not alphas or not deltas:
        raise UsageError("delta_grid: sweep needs non-empty grids")
    cfg_dict = asdict(cfg)
    points = [(cfg_dict, a, d) for a in alphas for d in deltas]
    rows = []
    writer = fh = None
    if out_path:
        fh = open(out_path, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
    try:
        if cfg.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                for chunk in pool.map(_sweep_point, points):
                    rows.extend(chunk)
                    if writer:
                        writer.writerows(chunk)
                        fh.flush()
        else:
            for args in points:
                chunk = _sweep_point(args)
                rows.extend(chunk)
                if writer:
                    writer.writerows(chunk)
                    fh.flush()
    finally:
        if fh:
            fh.close()
    return rows


def compare_rmt_se(alpha: float, delta_grid, out_path=None,
                   se_cfg: se_mod.SEConfig | None = None) -> list:
    """Per delta: SE overlap vs the RMT eigenvector overlap (linear channel)."""
    deltas = list(delta_grid)
    if not deltas:
        raise UsageError("delta_grid: empty grid")
    if not all(d > 0 for d in deltas):
        raise UsageError("delta_grid: values must be positive")
    act = Activation("linear")
    latent = SeparablePrior("gauss", 1.0)
    se_cfg = se_cfg or se_mod.SEConfig(init="informative")
    rows = []
    for d in deltas:
        pp = se_mod.se_fixed_point(se_cfg, d, alpha, act, latent, Wigner())
        eps = rmt_mod.epsilon_overlap(alpha, d)
        rows.append([d, pp.q_v_star, eps, abs(pp.q_v_star - eps)])
    if out_path:
        with open(out_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(COMPARE_HEADER)
            w.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path")
    p.add_argument("--workers", type=int)
    p.add_argument("--model", choices=["wigner", "wishart"])
    p.add_argument("--activation", choices=["linear", "sign", "relu"])
    p.add_argument("--latent", choices=["gauss", "rademacher"])
    p.add_argument("--rho-z", dest="rho_z", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta-grid", dest="delta_grid")
    p.add_argument("--alpha-grid", dest="alpha_grid")
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--methods")
    p.add_argument("--se-init", dest="se_init", choices=["uninformative", "informative"])
    p.add_argument("--se-tol", dest="se_tol", type=float)
    p.add_argument("--amp-tol", dest="amp_tol", type=float)
    p.add_argument("--amp-max-iter", dest="amp_max_iter", type=int)


def _build_cfg(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        apply_settings(cfg, load_config_file(args.config))
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "func") and v is not None
                 and hasattr(cfg, k)}
    apply_settings(cfg, overrides)
    return cfg


def _emit_record(record, out):
    text = json.dumps(_jsonable(record), indent=2, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    """obj with numpy values made Python ones and every non-finite float null.

    Strict JSON has no NaN or Infinity; records are dumped with
    allow_nan=False, so anything this misses fails loudly instead.
    """
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _cmd_method(args, method):
    cfg = _build_cfg(args)
    cfg.validate()
    cfg.methods = [method]
    record = run_single(cfg)
    _emit_record(record, cfg.out)
    if method == "amp" and cfg.out:
        trace = record["metrics"]["amp"]["trace"]
        with open(cfg.out + ".trace.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TRACE_HEADER)
            for t, (qv, qz, mv) in enumerate(zip(trace["q_v"], trace["q_z"],
                                                 trace["mse_v"])):
                w.writerow([t, qv, qz, mv])
    return 0


def _cmd_sweep(args):
    cfg = _build_cfg(args)
    rows = run_sweep(cfg, out_path=cfg.out)
    if not cfg.out:
        print(",".join(SWEEP_HEADER))
        for r in rows:
            print(",".join(str(v) for v in r))
    return 0


def _cmd_compare(args):
    cfg = _build_cfg(args)
    cfg.validate()
    if not cfg.delta_grid:
        raise UsageError("delta_grid: required for compare-rmt-se")
    rows = compare_rmt_se(cfg.alpha, cfg.delta_grid, out_path=cfg.out)
    if not cfg.out:
        print(",".join(COMPARE_HEADER))
        for r in rows:
            print(",".join(f"{v:.12g}" for v in r))
    return 0


def _cmd_rmt(args):
    cfg = _build_cfg(args)
    cfg.validate()
    if cfg.activation != "linear":
        raise UsageError("rmt: analytic spectrum requires linear activation")
    if args.density_points < 1:
        raise UsageError("density_points: must be at least 1")
    deltas = cfg.delta_grid or ([cfg.delta] if cfg.delta is not None else [])
    if not deltas:
        raise UsageError("delta/delta_grid: required")
    if not all(d > 0 for d in deltas):
        raise UsageError("delta/delta_grid: values must be positive")
    if not cfg.alpha > 0:
        raise UsageError("alpha: rmt needs alpha > 0")
    model = cfg.model_kind()
    edge_rows = []
    for d in deltas:
        base = rmt_mod.base_law(model, d, cfg.beta)
        try:
            edge = rmt_mod.solve_s_edge(base, cfg.alpha)
            lam, s_edge = edge.lambda_max, edge.s_edge
        except rmt_mod.NegativeSupportError:
            lam, s_edge = float("nan"), float("nan")
        eps = (rmt_mod.epsilon_overlap(cfg.alpha, d)
               if cfg.model == "wigner" else float("nan"))
        edge_rows.append([d, lam, s_edge, eps])
    out = cfg.out
    if out:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(RMT_EDGE_HEADER)
            w.writerows(edge_rows)
    else:
        print(",".join(RMT_EDGE_HEADER))
        for r in edge_rows:
            print(",".join(f"{v:.12g}" for v in r))
    if args.density_out:
        d = deltas[0]
        base = rmt_mod.base_law(model, d, cfg.beta)
        try:
            edge = rmt_mod.solve_s_edge(base, cfg.alpha)
            hi = edge.lambda_max + 0.3
        except rmt_mod.NegativeSupportError:
            hi = 0.3
        grid = np.linspace(base.t_min * cfg.alpha - 1.0, hi, args.density_points)
        bd = rmt_mod.bulk_density(base, cfg.alpha, grid)
        with open(args.density_out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(RMT_DENSITY_HEADER)
            for x, dens in zip(bd.x, bd.nu):
                w.writerow([x, dens])
    return 0


def _cmd_cov_lamp(args):
    if not (math.isfinite(args.delta) and args.delta > 0):
        raise UsageError("delta: must be positive and finite")
    try:
        spikes = load_any_matrix(args.spikes)
        Y = load_any_matrix(args.observation)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load input: {exc}") from None
    if not (np.isfinite(spikes).all() and np.isfinite(Y).all()):
        raise UsageError("spikes/observation: non-finite entries")
    if Y.shape[0] != Y.shape[1]:
        raise UsageError("observation: covariance-LAMP expects a square (Wigner) Y")
    if spikes.shape[1] != Y.shape[0]:
        raise UsageError(f"spikes: row length {spikes.shape[1]} != p = {Y.shape[0]}")
    sigma = spectral_mod.empirical_covariance(spikes)
    op = spectral_mod.build_cov_lamp(Y, sigma, args.delta)
    _check_eig_dim("cov-lamp", op.factor_dim())
    sr = spectral_mod.leading_eigs(op, tol=args.tol, seed=args.seed or 0)
    save_matrix_csv(args.out, sr.eigenvector)
    meta = {"eigenvalues": list(sr.eigenvalues), "residuals": list(sr.residuals),
            "iters": sr.iters, "n_spikes": spikes.shape[0], "delta": args.delta}
    print(json.dumps(_jsonable(meta), indent=2, allow_nan=False))
    return 0


def make_parser():
    ap = argparse.ArgumentParser(prog="spikedgen",
                                 description="spiked matrix models with "
                                             "generative priors")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("se", "amp", "lamp", "pca", "mi"):
        p = sub.add_parser(name, help=f"single {name} run")
        _add_common(p)
        p.set_defaults(func=lambda a, n=name: _cmd_method(a, n))
    p = sub.add_parser("rmt", help="analytic LAMP spectrum: edges, overlap, density")
    _add_common(p)
    p.add_argument("--density-out")
    p.add_argument("--density-points", type=int, default=200)
    p.set_defaults(func=_cmd_rmt)
    p = sub.add_parser("sweep", help="(alpha, delta) state-evolution sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)
    p = sub.add_parser("compare-rmt-se", help="epsilon(Delta) vs SE overlap")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)
    p = sub.add_parser("cov-lamp", help="covariance-LAMP from a spikes file")
    p.add_argument("--spikes", required=True)
    p.add_argument("--observation", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_cov_lamp)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (amp_mod.AmpDivergenceError, rmt_mod.NegativeSupportError,
            FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
