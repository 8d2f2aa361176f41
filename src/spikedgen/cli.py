"""Experiment orchestration: single runs, phase-diagram sweeps, comparisons.

Configuration is a flat key=value file plus command-line overrides; every
emitted number is reproducible from (config, seed).  Per-point sweep seeds
come from a splitmix64 hash of (base seed, alpha bits, delta bits) so results
do not depend on worker scheduling.

Exit codes: 0 ok, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .priors import (Activation, SeparablePrior, Wigner, Wishart, generate_spike,
                     make_model, observation_bytes, prefetch_noise, sample_u,
                     sample_wigner, sample_wishart, sampler_scratch_bytes)
from .serialize import load_any_matrix, save_matrix_csv

SWEEP_HEADER = ["alpha", "delta", "q_v", "q_z", "mmse_v", "converged", "iters", "init"]
TRACE_HEADER = ["t", "q_v", "q_z", "mse_v"]
RMT_DENSITY_HEADER = ["x", "density"]
RMT_EDGE_HEADER = ["delta", "lambda_max", "s_edge", "epsilon"]
COMPARE_HEADER = ["delta", "q_v_se", "epsilon_rmt", "abs_diff"]

ALL_METHODS = ("se", "amp", "lamp", "pca", "mi")
# parse_grid's peak per 'lo:hi:n' point (40 by tracemalloc): linspace, numpy float, list slot
GRID_POINT_BYTES = 48
# run_sweep's per (alpha, delta) point: its task tuple and list slot and its
# up to two rows (73 and 466 by tracemalloc)
SWEEP_POINT_BYTES = 640


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
        """Refuse values no run can use; the builders decide the allowed names."""
        for name, kind in _FIELD_TYPES.items():
            val = getattr(self, name)
            if ((kind is float and val is not None and not math.isfinite(val))
                    or (kind == list[float] and not all(map(math.isfinite, val)))):
                raise UsageError(f"{name}: must be finite")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise UsageError(f"methods: unknown method {m!r}")
        if len(set(self.methods)) < len(self.methods):
            raise UsageError(f"methods: each method at most once (got {self.methods})")
        if self.delta is not None and not self.delta > 0:
            raise UsageError("delta: must be positive")
        if self.alpha < 0:
            raise UsageError("alpha: must be nonnegative")
        if self.eig_tol < 0:
            raise UsageError("eig_tol: must be nonnegative")
        if self.workers < 1:
            raise UsageError("workers: must be at least 1")
        for keys, build in (("activation", self.act),
                            ("latent/rho_z", self.latent_prior),
                            ("model/beta/prior_u/rho_u", self.model_kind),
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
        if self.model == "wishart":
            return Wishart(beta=self.beta, prior_u=self.u_prior())
        raise ValueError(f"unknown model {self.model!r}")

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
        _check_ram("grid", int(n) * GRID_POINT_BYTES, f"a grid of {n} points")
        return list(np.linspace(float(lo), float(hi), int(n)))
    return [float(v) for v in spec.split(",")]


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

def _check_ram(key: str, need: int, what: str):
    """Refuse, before anything is allocated, `what` if its `need` bytes exceed physical RAM."""
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > ram:
        raise UsageError(f"{key}: {what} needs {need / 2 ** 30:.3g} GiB, more than the "
                         f"{ram / 2 ** 30:.3g} GiB of physical memory")


def _check_fits(cfg: ExperimentConfig, n: int, p: int, k: int) -> int:
    """Refuse a run whose resident arrays exceed physical RAM; returns their bytes.

    The model, from the shapes alone: W, p x k; Y (`priors.observation_bytes`:
    dense n x p for Wishart, the lower triangle for Wigner); the sampler's
    scratch; and for each requested spectral method its largest Lanczos
    basis.  All are float64.
    """
    wigner = cfg.model == "wigner"
    parts = {"W": 8 * p * k, "Y": observation_bytes(n, p, wigner),
             "sampler scratch": sampler_scratch_bytes(p, wigner)}
    for method in ("lamp", "pca"):
        if method not in cfg.methods:
            continue
        dim = p
        if method == "lamp":
            coeffs = spectral_mod.lamp_coefficients(cfg.act(), cfg.latent_prior(),
                                                    cfg.model_kind())
            dim = spectral_mod.lamp_factor_dim(coeffs, p, k)
        parts[f"{method} Lanczos basis"] = spectral_mod.lanczos_basis_bytes(dim)
    need = sum(parts.values())
    what = ", ".join(f"{name} {size / 2 ** 30:.3g}" for name, size in parts.items())
    _check_ram("p/k/beta", need, f"the run (n = {n}, p = {p}, k = {k}; in GiB: {what})")
    return need


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
    _check_fits(cfg, n, p, k)
    # the worker draws the noise while this thread draws W, the spike and u
    with prefetch_noise((n, p), splitmix64(seed, 3), symmetric=cfg.model == "wigner"):
        gm = make_model(p, k, cfg.act(), cfg.latent_prior(), splitmix64(seed, 1))
        z, v = generate_spike(gm, splitmix64(seed, 2))
        if cfg.model == "wigner":
            inst = sample_wigner(v, cfg.delta, splitmix64(seed, 3), z_star=z)
        else:
            u = sample_u(cfg.u_prior(), n, splitmix64(seed, 4))
            inst = sample_wishart(u, v, cfg.delta, splitmix64(seed, 3),
                                  prior_u=cfg.u_prior(), z_star=z)
    return gm, inst


def _sampled_solves(cfg: ExperimentConfig, gm, inst, seed: int) -> dict:
    """The requested sampled methods' results, by name.

    LAMP (rng splitmix64(seed, 6)), PCA (splitmix64(seed, 7)) and, on a
    Wishart Y, AMP (splitmix64(seed, 5), the side `amp.steps`) are one
    lockstep solve (`spectral.solve`); Wigner AMP is a solve of its own
    (`amp_wigner_run`).  A Wishart run denoises u with the instance's prior,
    cfg.u_prior().
    """
    coeffs = None
    if "lamp" in cfg.methods:
        coeffs = spectral_mod.lamp_coefficients(cfg.act(), cfg.latent_prior(),
                                                cfg.model_kind())
        _check_eig_dim("lamp", spectral_mod.lamp_factor_dim(coeffs, gm.p, gm.k))
    if "pca" in cfg.methods:
        _check_eig_dim("pca", inst.p)
    results, sides = {}, {}
    if "amp" in cfg.methods:
        amp_seed = splitmix64(seed, 5)
        if cfg.model == "wigner":
            results["amp"] = amp_mod.amp_wigner_run(inst, gm, cfg=cfg.amp_config(),
                                                    seed=amp_seed)
        else:
            sides["amp"] = amp_mod.steps(inst, gm, cfg.amp_config(), amp_seed)
    if sides or {"lamp", "pca"} & set(cfg.methods):
        results |= spectral_mod.solve(inst, cfg.methods, gm, coeffs, tol=cfg.eig_tol,
                                      lamp_seed=splitmix64(seed, 6),
                                      pca_seed=splitmix64(seed, 7), sides=sides)
    return results


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
    if not cfg.alpha > 0 and "mi" in cfg.methods:
        raise UsageError("alpha: mi needs alpha > 0")
    if "mi" in cfg.methods and cfg.model != "wigner":
        raise UsageError("mi: the replica mutual information is implemented for "
                         "the Wigner model only")
    gm = inst = solved = None
    if {"amp", "lamp", "pca"} & set(cfg.methods):
        gm, inst = _make_instance(cfg, seed)

    for method in cfg.methods:
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
        else:
            if solved is None:
                solved = _sampled_solves(cfg, gm, inst, seed)
            res = solved[method]
            if method == "amp":
                # Nishimori identity: at the Bayes-optimal fixed point
                # |v_hat . v*| / p = |v_hat|^2 / p
                m = {"q_v": res.overlap_trace[-1], "mse_v": res.mse_v,
                     "iters": res.iters, "converged": res.converged,
                     "nishimori_gap": abs(abs(res.overlap_trace[-1])
                                          - res.self_overlap_trace[-1]),
                     "trace": {"q_v": res.overlap_trace, "q_z": res.q_z_trace,
                               "mse_v": res.mse_trace}}
                if res.overlap_u is not None:
                    m["q_u"] = res.overlap_u
            else:
                mse, _ = amp_mod.align_and_mse(res.eigenvector, inst.v_star)
                m = {"eigenvalues": list(res.eigenvalues), "overlap_sq": res.overlap_sq,
                     "mse_v": mse, "residuals": list(res.residuals), "iters": res.iters}
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
    size = len(alphas) * len(deltas)
    _check_ram("alpha_grid/delta_grid", size * SWEEP_POINT_BYTES, f"a sweep of {size} points")
    cores = len(os.sched_getaffinity(0))
    if cfg.workers > cores:
        print(f"# clamping workers to {cores}, the cores this process may run on",
              file=sys.stderr)
    cfg_dict = asdict(cfg)
    points = [(cfg_dict, a, d) for a in alphas for d in deltas]
    # the pool starts all its workers at once, so it is no larger than the grid
    workers = min(cfg.workers, cores, len(points))
    rows = []
    with contextlib.ExitStack() as stack:
        write = stack.enter_context(_csv_rows(out_path, SWEEP_HEADER)) if out_path else None
        pool = (stack.enter_context(ProcessPoolExecutor(max_workers=workers))
                if workers > 1 else None)
        for chunk in (pool.map if pool else map)(_sweep_point, points):
            rows.extend(chunk)
            if write:
                write(chunk)
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
        _write_csv(out_path, COMPARE_HEADER, rows)
    return rows


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _add_common(p):
    """--config, then one string flag per config key, read like the key."""
    p.add_argument("--config", help="flat key=value config file")
    for name in _FIELD_TYPES:
        p.add_argument("--" + name.replace("_", "-"), help=f"config key {name}")


def _build_cfg(args, **preset) -> ExperimentConfig:
    """`preset`, then the --config file, then the flags; each overrides the last."""
    cfg = ExperimentConfig(**preset)
    if args.config:
        apply_settings(cfg, load_config_file(args.config))
    return apply_settings(cfg, {name: getattr(args, name) for name in _FIELD_TYPES})


@contextlib.contextmanager
def _csv_rows(path, header, fmt=str):
    """Yields write(rows), putting rows under `header`: into the file at
    `path` through csv.writer, flushed per call, or with no path onto stdout
    as comma-joined fmt(value)."""
    if not path:
        print(",".join(header))
        yield lambda rows: sys.stdout.writelines(",".join(map(fmt, r)) + "\n" for r in rows)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)

        def write(rows):
            writer.writerows(rows)
            fh.flush()
        yield write


def _write_csv(path, header, rows, fmt=str):
    with _csv_rows(path, header, fmt) as write:
        write(rows)


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
    cfg = _build_cfg(args, methods=[method])
    if cfg.methods != [method]:
        raise UsageError(f"methods: the {method} command runs {method} only")
    record = run_single(cfg)
    _emit_record(record, cfg.out)
    if method == "amp" and cfg.out:
        trace = record["metrics"]["amp"]["trace"]
        _write_csv(cfg.out + ".trace.csv", TRACE_HEADER,
                   ((t, *row) for t, row in enumerate(zip(trace["q_v"], trace["q_z"],
                                                          trace["mse_v"]))))
    return 0


def _cmd_sweep(args):
    cfg = _build_cfg(args)
    rows = run_sweep(cfg, out_path=cfg.out)
    if not cfg.out:
        _write_csv(None, SWEEP_HEADER, rows)
    return 0


def _cmd_compare(args):
    cfg = _build_cfg(args)
    cfg.validate()
    if not cfg.delta_grid:
        raise UsageError("delta_grid: required for compare-rmt-se")
    if (cfg.model, cfg.activation, cfg.latent, cfg.rho_z) != ("wigner", "linear",
                                                             "gauss", 1.0):
        raise UsageError("compare-rmt-se: the analytic overlap is that of the "
                         "Wigner model with a linear activation and a N(0, 1) "
                         "latent (model=wigner, activation=linear, latent=gauss, "
                         "rho_z=1)")
    defaults = ExperimentConfig()
    moved = [name for name in _FIELD_TYPES
             if name.startswith("se_") and getattr(cfg, name) != getattr(defaults, name)]
    if moved:
        raise UsageError(f"compare-rmt-se: {', '.join(moved)} off the default; it "
                         "always solves SE from the informative init at its own "
                         "tolerance, so it reads no se_* key")
    rows = compare_rmt_se(cfg.alpha, cfg.delta_grid)
    _write_csv(cfg.out, COMPARE_HEADER, rows, "{:.12g}".format)
    return 0


def _cmd_rmt(args):
    cfg = _build_cfg(args)
    cfg.validate()
    if cfg.activation != "linear":
        raise UsageError("rmt: analytic spectrum requires linear activation")
    if cfg.rho_z != 1 or (cfg.model == "wishart" and cfg.rho_u != 1):
        raise UsageError("rmt: the analytic spectrum assumes rho_z = 1, and rho_u = 1 "
                         "for Wishart")
    if args.density_points < 1:
        raise UsageError("density_points: must be at least 1")
    # 8 bytes a point for the grid, and bulk_density's arrays
    _check_ram("density_points", args.density_points * (8 + rmt_mod.DENSITY_POINT_BYTES),
               f"a density grid of {args.density_points} points")
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
    _write_csv(cfg.out, RMT_EDGE_HEADER, edge_rows, "{:.12g}".format)
    if args.density_out:
        # the first delta's law, from 0.3 below its lower edge to 0.3 past its
        # upper edge when it has one
        base = rmt_mod.base_law(model, deltas[0], cfg.beta)
        lam = edge_rows[0][1]
        hi = 0.3 if math.isnan(lam) else lam + 0.3
        grid = np.linspace(rmt_mod.lower_edge(base, cfg.alpha) - 0.3, hi,
                           args.density_points)
        bd = rmt_mod.bulk_density(base, cfg.alpha, grid)
        _write_csv(args.density_out, RMT_DENSITY_HEADER, zip(bd.x, bd.nu))
    return 0


def _cmd_cov_lamp(args):
    if not (math.isfinite(args.delta) and args.delta > 0):
        raise UsageError("delta: must be positive and finite")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError("tol: must be finite and nonnegative")
    try:
        spikes = load_any_matrix(args.spikes)
        Y = load_any_matrix(args.observation)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load input: {exc}") from None
    if not (np.isfinite(spikes).all() and np.isfinite(Y).all()):
        raise UsageError("spikes/observation: non-finite entries")
    if Y.shape[0] != Y.shape[1]:
        raise UsageError("observation: covariance-LAMP expects a square (Wigner) Y")
    if not np.array_equal(Y, Y.T):
        raise UsageError("observation: covariance-LAMP reads only the lower "
                         "triangle of Y, so Y must be exactly symmetric")
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def make_parser():
    ap = _Parser(prog="spikedgen",
                 description="spiked matrix models with generative priors")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ALL_METHODS:
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
