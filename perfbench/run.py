#!/usr/bin/env python3
"""Benchmark of spikedgen on three fixed workloads.

    python3 perfbench/run.py --workload amp_wigner --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Each invocation is one fresh process running one
workload, closed loop: one job at a time, BLAS threads and sweep workers at
most two.

--trace 0  measures set-up several times in fresh interpreters, then runs
           passes over the workload's job list until --seconds is spent
           (at least two passes), checks every output, and reports the
           end-to-end metrics: median set-up time, median pass wall time,
           peak RSS and the fraction of operations that succeeded.
--trace 1  runs two untraced passes and one traced pass, prints the
           per-module table and reports the per-layer metrics, including
           the tracing overhead and the machine's gemv bandwidth.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  A full record of the
run (provenance, per-pass times, every failed check, and in a traced run
every span) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
MIN_PASSES = 2
MAX_THREADS = 2

# name: (unit, which direction is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_frac": ("ratio", "higher"),     # 1 - failed / attempted
}

PER_LAYER = {
    "priors.weights_s": ("s", "lower"),
    "priors.spike_s": ("s", "lower"),
    "priors.noise_s": ("s", "lower"),
    "priors.noise_gb": ("GB", "lower"),
    "priors.peak_pred_mb": ("MiB", "lower"),
    "priors.peak_gap_mb": ("MiB", "lower"),
    "amp.run_s": ("s", "lower"),
    "amp.iters": ("count", "lower"),
    "amp.iter_ms": ("ms", "lower"),
    "amp.gb_per_iter": ("GB", "lower"),
    "amp.gbps": ("GB/s", "higher"),
    "amp.denoise_s": ("s", "lower"),
    "spectral.lamp_s": ("s", "lower"),
    "spectral.lamp_matvecs": ("count", "lower"),
    "spectral.pca_s": ("s", "lower"),
    "spectral.pca_matvecs": ("count", "lower"),
    "spectral.matvec_ms": ("ms", "lower"),
    "spectral.gb_per_matvec": ("GB", "lower"),
    "spectral.gbps": ("GB/s", "higher"),
    "spectral.resid_max": ("ratio", "lower"),
    "state_evolution.points": ("count", "higher"),
    "state_evolution.iters_total": ("count", "lower"),
    "state_evolution.step_us": ("us", "lower"),
    "state_evolution.unconverged": ("count", "lower"),
    "state_evolution.point_p50_ms": ("ms", "lower"),
    "state_evolution.point_tail_ms": ("ms", "lower"),
    "state_evolution.mi_s": ("s", "lower"),
    "channels.psi_out_grads_calls": ("count", "lower"),
    "channels.psi_out_grads_s": ("s", "lower"),
    "channels.psi_z_grad2_s": ("s", "lower"),
    "rmt.edge_s": ("s", "lower"),
    "rmt.integrate_calls": ("count", "lower"),
    "rmt.density_s": ("s", "lower"),
    "rmt.density_unconverged": ("count", "lower"),
    "cli.sweep_efficiency": ("ratio", "higher"),
    "cli.overhead_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "priors.self_s": ("s", "lower"),
    "amp.self_s": ("s", "lower"),
    "channels.self_s": ("s", "lower"),
    "spectral.self_s": ("s", "lower"),
    "state_evolution.self_s": ("s", "lower"),
    "rmt.self_s": ("s", "lower"),
    "bench.untraced_wall_s": ("s", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "bench.uncovered_s": ("s", "lower"),
    "bench.gemv_gbps": ("GB/s", "higher"),
}


def _limit_threads():
    """Cap BLAS threads (before numpy loads) unless the caller set them."""
    threads = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, threads)


def _import_library():
    """Import spikedgen from this checkout's src/, or stop with exit code 2."""
    package = os.path.join(SRC, "spikedgen")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no spikedgen sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import spikedgen
    if os.path.dirname(os.path.abspath(spikedgen.__file__)) != package:
        print(f"error: imported spikedgen from {spikedgen.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def peak_rss_mb() -> float:
    """Larger of the peak RSS of this process and of its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until it is ready to time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-probe"],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return elapsed


def provenance(workload, seed) -> dict:
    import numpy as np
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "spikedgen")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
    }


def tally(ops):
    failed = [op for op in ops if op[1] != "ok"]
    correct = not any(op[1] in ("raised", "wrong") for op in ops)
    return len(ops), failed, correct


def _write_record(name, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name + ".json.gz")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(record, fh)
    return path


def _print_checks(ops):
    attempted, failed, correct = tally(ops)
    print(f"checks: {attempted - len(failed)} passed, {len(failed)} failed of "
          f"{attempted} (failed_frac {len(failed) / attempted:.6f}); "
          f"{'correct' if correct else 'INCORRECT'}")
    for op, status, detail in (ops if attempted <= 12 else failed):
        print(f"  {status}: {op} {detail}")


def run_timed(workload, seed, seconds):
    from workloads import pass_seed
    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    ref = workload.reference()
    walls, ops = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = workload.run_pass(pass_seed(seed, len(walls)))
        walls.append(time.perf_counter() - t0)
        ops += workload.check(out, ref)
        del out
        spent = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and spent + statistics.median(walls) > seconds:
            break
    attempted, failed, correct = tally(ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - len(failed) / attempted,
    }
    print(f"{workload.name}: {len(walls)} passes; pass wall times "
          + ", ".join(f"{w:.3f}" for w in walls) + " s; set-up samples "
          + ", ".join(f"{s:.3f}" for s in setup) + " s")
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    _print_checks(ops)
    record = {"metrics": metrics, "pass_wall_s": walls, "setup_samples_s": setup,
              "correct": correct, "ops": ops}
    return record, metrics, ops


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def llc_bytes():
    """Sum of the last-level caches lscpu reports (None if it cannot say)."""
    try:
        out = subprocess.run(["lscpu", "-B", "-C=LEVEL,ALL-SIZE"], capture_output=True,
                             text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    sizes = {}
    for line in out.splitlines()[1:]:
        level, size = line.split()
        sizes[int(level)] = sizes.get(int(level), 0) + int(size)
    return sizes[max(sizes)] if sizes else None


def gemv_bandwidth(llc):
    """GB/s of a float64 gemv over a matrix at least 4x the last-level cache."""
    import numpy as np
    target = 4 * (llc or 64 * 2**20)
    n = math.isqrt(target // 8) + 1
    a = np.ones((n, n))
    x = np.ones(n)
    a @ x
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        a @ x
        times.append(time.perf_counter() - t0)
    moved = 8.0 * (n * n + 2 * n)
    return moved / statistics.median(times) / 1e9, a.nbytes / 2**20


def _sum(spans, *names):
    return sum(s[4] - s[3] for s in spans if s[2] in names)


def _count(spans, *names):
    return sum(1 for s in spans if s[2] in names)


def _attr(spans, name, key):
    return sum(s[5][key] for s in spans if s[2] == name and s[5] and key in s[5])


def layer_metrics(workload, spans, window, untraced_wall, base_mb, peak_mb, gemv):
    import numpy as np
    import tracing
    table, uncovered, selfs = tracing.layer_table(spans, window)
    m = dict.fromkeys(PER_LAYER, 0.0)
    by_id = {s[0]: s for s in spans}

    m["priors.weights_s"] = _sum(spans, "cli.make_model")
    m["priors.spike_s"] = _sum(spans, "cli.generate_spike", "cli.sample_u")
    m["priors.noise_s"] = _sum(spans, "cli.sample_wigner", "cli.sample_wishart")
    m["priors.noise_gb"] = workload.noise_bytes() / 1e9
    dense = 8.0 * workload.p * workload.k + workload.noise_bytes()
    m["priors.peak_pred_mb"] = base_mb + dense / 2**20
    m["priors.peak_gap_mb"] = m["priors.peak_pred_mb"] - peak_mb

    amp_runs = ("amp.amp_wigner_run", "amp.amp_wishart_run")
    m["amp.run_s"] = _sum(spans, *amp_runs)
    m["amp.iters"] = sum(_attr(spans, n, "iters") for n in amp_runs)
    if m["amp.iters"]:
        m["amp.iter_ms"] = 1e3 * m["amp.run_s"] / m["amp.iters"]
        m["amp.gb_per_iter"] = workload.amp_bytes_per_iter() / 1e9
        m["amp.gbps"] = m["amp.gb_per_iter"] * m["amp.iters"] / m["amp.run_s"]
    m["amp.denoise_s"] = sum(
        s[4] - s[3] for s in spans
        if s[2] in ("channels.out_moments", "channels.latent_moments")
        and s[1] is not None and by_id[s[1]][2] in amp_runs)

    m["spectral.lamp_s"] = _sum(spans, "spectral.leading_eigs")
    m["spectral.lamp_matvecs"] = _attr(spans, "spectral.leading_eigs", "matvecs")
    m["spectral.pca_s"] = _sum(spans, "spectral.pca_estimate")
    m["spectral.pca_matvecs"] = _attr(spans, "spectral.pca_estimate", "matvecs")
    matvecs = m["spectral.lamp_matvecs"] + m["spectral.pca_matvecs"]
    if matvecs:
        eig_s = m["spectral.lamp_s"] + m["spectral.pca_s"]
        m["spectral.matvec_ms"] = 1e3 * eig_s / matvecs
        moved = (m["spectral.lamp_matvecs"] * workload.lamp_bytes_per_matvec()
                 + m["spectral.pca_matvecs"] * workload.pca_bytes_per_matvec())
        m["spectral.gb_per_matvec"] = moved / matvecs / 1e9
        m["spectral.gbps"] = moved / eig_s / 1e9
    resid = []
    for s in spans:
        if s[2] in ("spectral.leading_eigs", "spectral.pca_estimate") and s[5]:
            power = 2 if s[2] == "spectral.pca_estimate" else 1
            resid += [r / abs(v) ** power
                      for v, r in zip(s[5]["eigenvalues"], s[5]["residuals"])]
    m["spectral.resid_max"] = max(resid, default=0.0)

    points = [s[4] - s[3] for s in spans if s[2] == "state_evolution.se_fixed_point"]
    m["state_evolution.points"] = len(points)
    m["state_evolution.iters_total"] = _attr(spans, "state_evolution.se_fixed_point",
                                             "iters")
    m["state_evolution.unconverged"] = _attr(spans, "state_evolution.se_fixed_point",
                                             "unconverged")
    if points:
        m["state_evolution.step_us"] = 1e6 * sum(points) / m["state_evolution.iters_total"]
        m["state_evolution.point_p50_ms"] = 1e3 * float(np.median(points))
        # the highest percentile with at least ten points beyond it
        pct = math.floor(100 * (len(points) - 10) / len(points)) if len(points) > 10 else 50
        m["state_evolution.point_tail_pct"] = pct
        m["state_evolution.point_tail_ms"] = 1e3 * float(np.percentile(points, pct))
    m["state_evolution.mi_s"] = _sum(spans, "state_evolution.mutual_information")
    m["channels.psi_out_grads_calls"] = _count(spans, "channels.psi_out_grads")
    m["channels.psi_out_grads_s"] = _sum(spans, "channels.psi_out_grads")
    m["channels.psi_z_grad2_s"] = _sum(spans, "channels.psi_z_grad2")

    m["rmt.edge_s"] = _sum(spans, "rmt.solve_s_edge")
    m["rmt.integrate_calls"] = _count(spans, "rmt.BaseLaw.integrate")
    m["rmt.density_s"] = _sum(spans, "rmt.bulk_density")
    m["rmt.density_unconverged"] = _attr(spans, "rmt.bulk_density", "unconverged")

    sweeps = _sum(spans, "cli.run_sweep")
    if sweeps:
        m["cli.sweep_efficiency"] = (_sum(spans, "cli._sweep_point")
                                     / (workload.WORKERS * sweeps))
    m["cli.overhead_s"] = sum(selfs[s[0]] for s in spans if s[2] in
                              ("cli.run_single", "cli.run_sweep", "cli.compare_rmt_se"))
    for layer, row in table.items():
        m[f"{layer}.self_s"] = row["self_s"]

    traced_wall = window[1] - window[0]
    m["bench.untraced_wall_s"] = untraced_wall
    m["bench.traced_wall_s"] = traced_wall
    m["bench.trace_overhead_s"] = traced_wall - untraced_wall
    m["bench.uncovered_s"] = uncovered
    m["bench.spans"] = len(spans)
    m["bench.gemv_gbps"], m["bench.gemv_array_mb"], m["bench.llc_mb"] = gemv
    return m, table, uncovered


def print_table(workload, m, table, uncovered, peak_mb):
    wall = m["bench.traced_wall_s"]
    print(f"per-module table, {workload.name}: traced pass {wall:.3f} s, "
          f"untraced {m['bench.untraced_wall_s']:.3f} s, tracing overhead "
          f"{m['bench.trace_overhead_s']:+.3f} s over {int(m['bench.spans'])} spans")
    print(f"  {'layer':<16}{'calls':>9}{'self s':>10}{'share':>8}")
    for layer, row in table.items():
        print(f"  {layer:<16}{row['calls']:>9d}{row['self_s']:>10.3f}"
              f"{100 * row['self_s'] / wall:>7.1f}%")
    print(f"  {'(no span)':<16}{'':>9}{uncovered:>10.3f}{100 * uncovered / wall:>7.1f}%")
    if m["state_evolution.points"]:
        print("  sweep workers send their spans back, so self times of the two "
              "workers add up and shares can exceed 100% in total")
    print("  counts and splits:")
    for name in PER_LAYER:
        if not name.startswith("bench.") and not name.endswith(".self_s"):
            print(f"    {name} = {m[name]:.6g} {PER_LAYER[name][0]}")
    if m["state_evolution.points"]:
        print(f"    (point_tail_ms is the p{m['state_evolution.point_tail_pct']} of "
              f"{int(m['state_evolution.points'])} points)")
    print(f"  memory: peak RSS {peak_mb:.1f} MiB, predicted {m['priors.peak_pred_mb']:.1f} MiB "
          f"from (p, k, n) = ({workload.p}, {workload.k}, {workload.n}); gap "
          f"{m['priors.peak_gap_mb']:+.1f} MiB (predicted minus measured)")
    print(f"  bandwidth: gemv {m['bench.gemv_gbps']:.2f} GB/s on a "
          f"{m['bench.gemv_array_mb']:.0f} MiB matrix (last-level cache from lscpu: "
          f"{m['bench.llc_mb'] or 'unknown'} MiB); computed from shapes: AMP "
          f"{m['amp.gbps']:.2f} GB/s at {m['amp.gb_per_iter']:.3f} GB/iteration, "
          f"spectral {m['spectral.gbps']:.2f} GB/s at "
          f"{m['spectral.gb_per_matvec']:.4f} GB/matvec")


def run_traced(workload, seed, base_mb):
    import tracing
    from workloads import pass_seed
    ref = workload.reference()
    # the first pass in a process runs slower (by up to 2 s on phase_diagram),
    # so the traced pass is compared with the second untraced pass
    untraced, ops = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        out = workload.run_pass(pass_seed(seed, 0))
        untraced.append(time.perf_counter() - t0)
        ops += workload.check(out, ref)
        del out
    run_id = f"{workload.name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    tracer = tracing.install(run_id)
    try:
        t0 = time.perf_counter()
        out = workload.run_pass(pass_seed(seed, 0))
        window = (t0, time.perf_counter())
    finally:
        tracing.uninstall()
    ops += workload.check(out, ref)
    del out
    peak = peak_rss_mb()
    llc = llc_bytes()
    gbps, array_mb = gemv_bandwidth(llc)
    gemv = (gbps, array_mb, (llc or 0) / 2**20)
    m, table, uncovered = layer_metrics(workload, tracer.spans, window, untraced[-1],
                                        base_mb, peak, gemv)
    print("untraced passes: " + ", ".join(f"{w:.3f}" for w in untraced) + " s")
    print_table(workload, m, table, uncovered, peak)
    _print_checks(ops)
    record = {"run_id": run_id, "metrics": m, "peak_rss_mb": peak,
              "layers": table, "window": window, "correct": tally(ops)[2], "ops": ops,
              "spans": [list(s) for s in tracer.spans]}
    return record, {name: m[name] for name in PER_LAYER}, ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("amp_wigner", "spectral_wishart",
                                           "phase_diagram"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        ap.error("--workload is required")

    _limit_threads()
    _import_library()
    import workloads
    # RSS of the imports alone: the basis of the memory prediction, taken
    # before the warm-up's transient quadrature temporaries
    base_mb = peak_rss_mb()
    workloads.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    workload = workloads.WORKLOADS[args.workload]
    prov = provenance(workload, args.seed)
    print("provenance: " + json.dumps(prov))
    if args.trace:
        record, metrics, ops = run_traced(workload, args.seed, base_mb)
        units = PER_LAYER
    else:
        record, metrics, ops = run_timed(workload, args.seed, args.seconds)
        units = END_TO_END
    attempted, failed, correct = tally(ops)
    record["provenance"] = prov
    path = _write_record(f"{workload.name}-seed{args.seed}-trace{args.trace}", record)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, (u, _) in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
