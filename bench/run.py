"""Benchmark of qwtopo: whole `qwtopo run` invocations per workload.

    python3 bench/run.py --workload ensemble --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; it imports the package from `src/`.
The workload's configs are generated from --seed (see workloads.py) and
run through `qwtopo.cli.entrypoint` in this process, one repetition
after another, until --seconds have passed.

--trace 0 reports the end-to-end metrics: median wall and CPU time of
one repetition, peak RSS, and the set-up time of a fresh interpreter
(import, config load and validate).  The process runs on one CPU and
these times are scaled to the reference host speed (see speed.py); the
raw times are printed and kept in the result file.

--trace 1 reports the per-layer metrics: it alternates untraced and
traced repetitions, derives each layer's counts and self time from the
spans of the traced ones, and times the kernel over a grid of t and
batch size.  The `ensemble` workload also runs once on a pool of two
worker processes.  Spans are written to .bench_out/.

Either way the outputs go through the correctness gate (gate.py), and
the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A stamped result file goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy

import gate
from layers import layer_metrics
from speed import SpeedSampler, pin_to_one_cpu
from tracer import Tracer, nominal_site_steps
from workloads import WORKLOADS, materialize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REQUIRED = (os.path.join("src", "qwtopo", "cli.py"), os.path.join("tests", "oracles.py"))

#: Fresh interpreters timed for setup_s; the first one only warms the
#: byte-code cache.  Half run before the timed repetitions, half after.
SETUP_PROBES = 8

#: Worker processes of the pooled repetition of the ensemble workload.
POOL_THREADS = 2

#: Disorder case and strength of the kernel grid.
GRID_THETAS_PI = (0.63, 1.26)
GRID_P = 0.6
#: Each grid cell is repeated until it has taken this long.
GRID_CELL_S = 0.3


def _cpu_s() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _stamp() -> dict:
    """Where and on what the numbers were measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), cpu_model)
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _declared_units(trace: int) -> dict:
    """Name -> unit of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _probe_setup(runs, count) -> list[dict]:
    """Time set-up in `count` fresh interpreters.  They inherit this
    process's CPU, so the speed sampler sees the core they run on."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC,
           *(run.config_path for run in runs)]
    out = []
    for _ in range(count):
        with SpeedSampler() as speed:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                  check=True)
        out.append({**json.loads(proc.stdout), "speed": speed})
    return out


class Session:
    """The workload's runs, their repetitions and the correctness tally."""

    def __init__(self, cli, runs):
        self.cli = cli
        self.runs = runs
        self.first_hashes = {}  # run name -> output hashes of its first success
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, message, runs=1):
        self.failures.append(message)
        self.failed = min(self.attempted, self.failed + runs)

    def repetition(self, threads=1) -> tuple[float, float, SpeedSampler]:
        """Run every config of the workload once; returns the wall and CPU
        time of the qwtopo calls alone and the speed probe's samples.  The pool size goes through
        QWTOPO_THREADS, not --threads, so this keeps working if the pool
        is removed.  Outputs are hashed afterwards."""
        os.environ["QWTOPO_THREADS"] = str(threads)
        wall = cpu = 0.0
        codes = []
        with SpeedSampler() as speed:
            for run in self.runs:
                shutil.rmtree(run.out_dir, ignore_errors=True)
                c0 = _cpu_s()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(self.cli.entrypoint(run.argv()))
                wall += time.perf_counter() - t0
                cpu += _cpu_s() - c0
        for run, code in zip(self.runs, codes):
            self.attempted += 1
            if code != 0:
                self._fail(f"{run.name}: exit code {code}")
                continue
            hashes = gate.output_hashes(run)
            first = self.first_hashes.setdefault(run.name, hashes)
            if hashes != first:
                self._fail(f"{run.name}: outputs differ from its first repetition: "
                           f"{_changed(first, hashes)}")
        return wall, cpu, speed

    def check(self, workload) -> float:
        """Reference-hash and oracle checks; returns the largest oracle
        deviation.  All repetitions matched the first one or already
        failed, so a failed check here fails every run attempted."""
        seed = self.runs[0].seed
        reference = gate.reference_hashes(workload.name, seed)
        produced = {k: v for hashes in self.first_hashes.values()
                    for k, v in hashes.items()}
        if reference is not None and produced != reference:
            self._fail(f"outputs differ from the reference hashes recorded for "
                       f"seed {seed}: {_changed(reference, produced)}", self.attempted)
        oracles = gate.load_oracles(ROOT)
        worst = 0.0
        for run in self.runs:
            try:
                errors = gate.oracle_errors(oracles, run)
            except Exception as exc:  # noqa: BLE001 - any failure fails the gate
                self._fail(f"{run.name}: oracle check raised {type(exc).__name__}: "
                           f"{exc}", self.attempted)
                continue
            worst = max([worst, *errors])
            if not max(errors) <= gate.ORACLE_TOL:
                self._fail(f"{run.name}: oracle deviation {max(errors):.3g} above "
                           f"{gate.ORACLE_TOL:g}", self.attempted)
        return worst


def _changed(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def kernel_grid(seed) -> dict:
    """ns per nominal site-step of the kernel, driven through
    disorder.ensemble_r0 at batch B = n_configs, and of walk.evolve."""
    from qwtopo import disorder, walk
    from qwtopo.scattering import ScatteringSystem

    def per_call(fn):
        times = []
        while sum(times) < GRID_CELL_S:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    out = {}
    th_a, th_b = (v * math.pi for v in GRID_THETAS_PI)
    for t in (11, 51, 201):
        for b in (1, 50, 200):
            spec = disorder.DisorderSpec.for_steps(th_a, th_b, GRID_P, t, seed, b)
            seconds = per_call(lambda: disorder.ensemble_r0(spec, t))
            out[f"scattering.ns_per_site_step.t{t}.b{b}"] = \
                seconds / (b * nominal_site_steps(t)) * 1e9
    for t in (11, 51):
        proto = ScatteringSystem.for_steps(th_a, th_b, t).protocol()
        start = walk.WalkerState.localized(-1, walk.H)
        steps = sum(s.sites for s in walk.evolve(start, proto, t)[1:])
        seconds = per_call(lambda: walk.evolve(start, proto, t))
        out[f"walk.ns_per_site_step.t{t}"] = seconds / steps * 1e9
    return out


def _raw_setup_s(probe: dict) -> float:
    return probe["import_s"] + probe["load_s"] + probe["validate_s"]


def measure(session, args) -> tuple[dict, list[str]]:
    """End-to-end metrics, tracing off."""
    setup = _probe_setup(session.runs, SETUP_PROBES // 2)[1:]
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        reps.append(session.repetition())
    setup += _probe_setup(session.runs, SETUP_PROBES - SETUP_PROBES // 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speeds = [speed for _, _, speed in reps]
    setup_speeds = [p["speed"] for p in setup]
    metrics = {
        "wall_s": statistics.median(wall * speed.scale for wall, _, speed in reps),
        "cpu_s": statistics.median(cpu * speed.scale for _, cpu, speed in reps),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(_raw_setup_s(p) * p["speed"].scale for p in setup),
    }
    raw = {"wall_s": [wall for wall, _, _ in reps], "cpu_s": [cpu for _, cpu, _ in reps],
           "speed_scale": [speed.scale for speed in speeds],
           "probe_mean_us": [speed.mean_s * 1e6 for speed in speeds],
           "probe_spread": [speed.spread for speed in speeds],
           "setup_s": [_raw_setup_s(p) for p in setup],
           "setup_speed_scale": [speed.scale for speed in setup_speeds],
           "setup_probe_mean_us": [speed.mean_s * 1e6 for speed in setup_speeds],
           "setup_probe_spread": [speed.spread for speed in setup_speeds]}
    notes = [f"{len(reps)} repetitions of {len(session.runs)} qwtopo run(s)"]
    notes += [f"raw {name}: {[round(v, 4) for v in values]}" for name, values in raw.items()]
    return metrics, notes


def measure_traced(session, workload, args, spans_path) -> tuple[dict, list[str]]:
    """Per-layer metrics: alternate untraced and traced repetitions.
    Times here are raw, not scaled to the reference speed."""
    from qwtopo import config

    predicted = sum(config.estimate(run.config)["simulations"] for run in session.runs)
    setup = _probe_setup(session.runs, SETUP_PROBES // 2)[1:]
    metrics = kernel_grid(args.seed)
    plain, traced, per_rep = [], [], []
    all_spans = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(session.repetition()[0])
        tracer = Tracer()
        tracer.install()
        try:
            wall = session.repetition()[0]
        finally:
            tracer.uninstall()
        spans = tracer.take()
        traced.append(wall)
        rep = layer_metrics(spans, predicted)
        rep["trace.wall_s"] = wall
        rep["trace.accounted_frac"] = sum(span.self_s for span in spans) / wall
        per_rep.append(rep)
        all_spans.append(spans)
    setup += _probe_setup(session.runs, SETUP_PROBES - SETUP_PROBES // 2)

    for name in per_rep[0]:
        metrics[name] = statistics.median(rep[name] for rep in per_rep)
    metrics["config.import_s"] = statistics.median(p["import_s"] for p in setup)
    metrics["config.validate_s"] = statistics.median(p["validate_s"] for p in setup)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    notes = [f"{len(traced)} traced and {len(plain)} untraced repetitions"]
    metrics["parallel.speedup"] = 1.0
    if workload.name == "ensemble":
        pooled = session.repetition(threads=POOL_THREADS)[0]
        metrics["parallel.speedup"] = statistics.median(plain) / pooled
        notes.append(f"parallel.speedup: median 1-process wall over the wall of one "
                     f"untraced repetition on a pool of {POOL_THREADS} ({pooled:.4g} s)")
    idle = sorted({name.split(".")[0] for name, value in metrics.items()
                   if name.endswith("self_s") and value == 0.0})
    if idle:
        notes.append(f"layers not exercised by this workload: {', '.join(idle)}")
    _write_spans(spans_path, all_spans)
    return metrics, notes


def _write_spans(path, reps):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "layer", "name", "start", "end",
                              "error", "counts"],
                   "repetitions": [[[s.id, s.parent, s.layer, s.name, s.start, s.end,
                                     s.error, s.counts] for s in spans]
                                   for spans in reps]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a qwtopo checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = _declared_units(args.trace)
    stamp = _stamp()
    sys.path.insert(0, SRC)
    import qwtopo.cli
    if not os.path.abspath(qwtopo.cli.__file__).startswith(SRC):
        print(f"bench: imported qwtopo from {qwtopo.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, f"{label}-{os.getpid()}")
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    runs = materialize(workload, args.seed, work_dir)
    pin_to_one_cpu()
    session = Session(qwtopo.cli, runs)
    try:
        if args.trace:
            metrics, notes = measure_traced(session, workload, args,
                                            os.path.join(results_dir, f"{label}-spans.json"))
        else:
            metrics, notes = measure(session, args)
        oracle_err = session.check(workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed_frac = session.failed / session.attempted
    if args.trace:
        metrics["gate.failed_frac"] = failed_frac
        metrics["gate.oracle_max_abs_err"] = oracle_err

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    with open(os.path.join(results_dir, f"{label}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
                   "notes": notes, "failures": session.failures,
                   "failed_frac": failed_frac, "oracle_max_abs_err": oracle_err,
                   **result}, fh, indent=1)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}; "
          f"git {stamp['git_sha'][:12]}, {stamp['nproc']} cpus ({stamp['cpu_model']}), "
          f"load {stamp['loadavg_at_start'][0]:.2f}")
    for note in notes:
        print(f"note: {note}")
    for failure in session.failures:
        print(f"FAILED: {failure}")
    if not args.trace:
        print(f"{'failed_frac':34s} {failed_frac:.6g} ratio")
        print(f"{'oracle_max_abs_err':34s} {oracle_err:.6g} 1")
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
