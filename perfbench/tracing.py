"""Span tracing by interposition, from outside the library.

`install` replaces public spikedgen functions with timing wrappers.  Every
call records one span: (span id, parent id, name, start, end, counts), with
ids of the form [pid, n] so spans from several processes never collide, and
times from `time.perf_counter`, which is CLOCK_MONOTONIC on Linux and so
comparable across the processes of one machine.  Spans are kept in memory
and written once, at the end of the run.  Counts (iterations, matvecs,
unconverged points) are read from the objects the wrapped calls return.

Sweep pool workers send their spans back: the wrapped `cli._sweep_point`
returns its rows in a list whose pickled form carries the worker's spans,
and unpickling it in the parent hands them to the parent's tracer.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

import numpy as np

from spikedgen import amp, channels, cli, rmt, spectral, state_evolution

# (owner, attribute, span name, layer).  The priors functions are reached
# through the names `cli` imported them under, which is where the workloads
# call them.
TARGETS = [
    (cli, "make_model", "cli.make_model", "priors"),
    (cli, "generate_spike", "cli.generate_spike", "priors"),
    (cli, "sample_wigner", "cli.sample_wigner", "priors"),
    (cli, "sample_wishart", "cli.sample_wishart", "priors"),
    (cli, "sample_u", "cli.sample_u", "priors"),
    (cli, "run_single", "cli.run_single", "cli"),
    (cli, "run_sweep", "cli.run_sweep", "cli"),
    (cli, "compare_rmt_se", "cli.compare_rmt_se", "cli"),
    (cli, "_sweep_point", "cli._sweep_point", "cli"),
    (amp, "amp_wigner_run", "amp.amp_wigner_run", "amp"),
    (amp, "amp_wishart_run", "amp.amp_wishart_run", "amp"),
    (channels, "out_moments", "channels.out_moments", "channels"),
    (channels, "latent_moments", "channels.latent_moments", "channels"),
    (channels, "psi_out_grads", "channels.psi_out_grads", "channels"),
    (channels, "psi_z_grad2", "channels.psi_z_grad2", "channels"),
    (spectral, "leading_eigs", "spectral.leading_eigs", "spectral"),
    (spectral, "pca_estimate", "spectral.pca_estimate", "spectral"),
    (state_evolution, "se_fixed_point", "state_evolution.se_fixed_point",
     "state_evolution"),
    (state_evolution, "mutual_information", "state_evolution.mutual_information",
     "state_evolution"),
    (rmt, "solve_s_edge", "rmt.solve_s_edge", "rmt"),
    (rmt.BaseLaw, "integrate", "rmt.BaseLaw.integrate", "rmt"),
    (rmt, "bulk_density", "rmt.bulk_density", "rmt"),
    (rmt, "epsilon_overlap", "rmt.epsilon_overlap", "rmt"),
]
LAYER = {name: layer for _, _, name, layer in TARGETS}
LAYERS = ("cli", "priors", "amp", "channels", "spectral", "state_evolution", "rmt")


def _spectral_counts(res):
    return {"matvecs": res.iters, "eigenvalues": list(res.eigenvalues),
            "residuals": list(res.residuals)}


def _se_counts(pp):
    runs = pp.runs.values()
    return {"iters": sum(r["iters"] for r in runs),
            "unconverged": sum(not r["converged"] for r in runs)}


COUNTS = {
    "amp.amp_wigner_run": lambda res: {"iters": res.iters},
    "amp.amp_wishart_run": lambda res: {"iters": res.iters},
    "spectral.leading_eigs": _spectral_counts,
    "spectral.pca_estimate": _spectral_counts,
    "state_evolution.se_fixed_point": _se_counts,
    "rmt.bulk_density": lambda bd: {"unconverged": int(np.count_nonzero(~bd.converged))},
}


class Tracer:
    """Spans of one run, in memory; one tracer per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list = []
        self._stack: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(self):
        """Push a new span; returns (span id, parent id)."""
        sid = (self.pid, next(self._ids))
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, t0, counts):
        t1 = time.perf_counter()
        self._stack.pop()
        with self._lock:
            self.spans.append((sid, parent, name, t0, t1, counts))

    def deliver(self, spans):
        """Adopt spans sent back by a worker under the span open right now."""
        parent = self._stack[-1] if self._stack else None
        with self._lock:
            for sid, par, name, t0, t1, counts in spans:
                self.spans.append((sid, par if par is not None else parent,
                                   name, t0, t1, counts))


_tracer: Tracer | None = None
_originals: dict = {}


def _wrap(name, fn):
    counts_of = COUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr = _tracer
        sid, parent = tr.open()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tr.close(sid, parent, name, t0, {"raised": type(exc).__name__})
            raise
        tr.close(sid, parent, name, t0, counts_of(out) if counts_of else None)
        return out
    return traced


class _RowsWithSpans(list):
    """Sweep rows whose pickled form also carries the worker's spans."""

    def __init__(self, rows, spans):
        super().__init__(rows)
        self.spans = spans

    def __reduce__(self):
        return _receive, (list(self), self.spans)


def _receive(rows, spans):
    _tracer.deliver(spans)
    return rows


def sweep_point(args):
    """Stand-in for `cli._sweep_point` that sends a worker's spans back."""
    global _tracer
    if _tracer is None:
        # spawned worker: a fresh interpreter, where nothing is wrapped yet
        install("worker")
    elif _tracer.pid != os.getpid():
        # forked worker: the inherited tracer belongs to the parent
        _tracer = Tracer(_tracer.run_id)
    rows = _traced_sweep_point(args)
    if _tracer._stack:
        return rows
    spans, _tracer.spans = _tracer.spans, []
    return _RowsWithSpans(rows, spans)


def install(run_id: str) -> Tracer:
    """Start tracing in this process; returns the tracer that collects spans."""
    global _tracer, _traced_sweep_point
    if _originals:
        raise RuntimeError("tracing is already installed")
    _tracer = Tracer(run_id)
    for owner, attr, name, _ in TARGETS:
        fn = getattr(owner, attr)
        _originals[(owner, attr)] = fn
        wrapped = _wrap(name, fn)
        if name == "cli._sweep_point":
            _traced_sweep_point = wrapped
            wrapped = sweep_point
        setattr(owner, attr, wrapped)
    return _tracer


def uninstall():
    global _tracer
    for (owner, attr), fn in _originals.items():
        setattr(owner, attr, fn)
    _originals.clear()
    _tracer = None


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans, window):
    """Self time per span id, and the part of `window` no root span covers.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Worker spans run in parallel, so the self times of several
    processes can add up to more than the wall time.
    """
    children: dict = {}
    roots = []
    for s in spans:
        if s[1] is None:
            roots.append((s[3], s[4]))
        else:
            children.setdefault(s[1], []).append((s[3], s[4]))
    selfs = {}
    for sid, _, _, t0, t1, _ in spans:
        selfs[sid] = (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
    uncovered = (window[1] - window[0]) - _union_length(roots, *window)
    return selfs, uncovered


def layer_table(spans, window):
    """Per layer: calls, self seconds; plus the seconds no span covers."""
    selfs, uncovered = self_times(spans, window)
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for sid, _, name, _, _, _ in spans:
        row = table[LAYER[name]]
        row["calls"] += 1
        row["self_s"] += selfs[sid]
    return table, uncovered, selfs
