"""The repository benchmark: four batch workloads, timed end to end.

Run from the repository root::

    python3 perfbench/run.py --workload dpa_unprotected --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``dpa_unprotected``, ``acquire_full``, ``protocol_soak`` and
``dse_paper_space`` (see ``workloads.py`` for what each runs and why).

``--trace 0`` runs fixed-size batches with two worker processes for
``--seconds`` and reports ``setup_s`` (median of several fresh-interpreter
set-ups), ``wall_norm`` and ``peak_rss_mb``.  On a shared host the CPU
speed drifts by a fifth over minutes, so the batch time on the result
line, ``wall_norm``, is the mean batch wall time divided by the mean time
of a fixed pure-Python reference loop timed between batches on both
cores.  The raw median ``wall_s``, the workload throughputs (traces/s,
simulated cycles/s, attacked trace-bits/s, sessions/s, cells/s) and the
error rate are printed above it in host seconds.  Simulated cycles and
microjoules are the paper's physics and are checked, never reported as
metrics.

``--trace 1`` runs the same batches in-process, alternately untraced and
under :class:`layers.Tracer`, and reports per-layer calls, self time and
work counts, and the tracing overhead as traced / untraced wall time.

Every batch gets a fresh directory, so nothing is ever served from a
cache, and every output is checked: a failed check counts its ops as
failed and the run exits 1.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results and spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path[:0] = [SRC, BENCH_DIR]

from workloads import SIZES, WORKERS, WORKLOADS, Batch  # noqa: E402

#: Iterations of the host-speed reference loop (about 0.25 s).
REFERENCE_ITERATIONS = 1_000_000

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Per-layer metrics the result line carries.  Self times are listed
#: only for layers every workload calls, so none of them reads 0 by
#: construction; every other layer's self time is printed and written to
#: the span file.
REPORTED_SELF_TIMES = ("gf2m.reduce", "gf2m.mul_raw")

_PROBE = """\
import sys, time
started = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].setup({seed!r}, {size!r})
print(repr(time.perf_counter() - started))
"""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def _stop_resource_tracker(timeout: float = 10.0) -> None:
    """End the resource tracker that ``spawn`` starts and wait for it.

    Left alone it outlives the benchmark: it only notices the exit when
    its pipe closes, and nobody reaps it.  Closing the pipe here makes
    it exit now; it is killed if it has not done so within ``timeout``.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None or pid is None:
        return
    os.close(fd)
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def stop_processes() -> None:
    """Stop and wait for every process the run started: any worker still
    alive after an error, then the resource tracker (once the objects
    it tracks are collected, so it has nothing left to unlink)."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    gc.collect()
    _stop_resource_tracker()


# ----------------------------------------------------------------------
# stamps
# ----------------------------------------------------------------------

def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over every source file (a revision that needs no git)."""
    h = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def stamp(workload, ctx, seed: int, size: str, traced: bool) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "mode": "traced" if traced else "untraced",
        "workers": 1 if traced else WORKERS,
        "spec_digest": workload.spec_digest(ctx),
        "spec": workload.describe(ctx),
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def setup_seconds(name: str, seed: int, size: dict) -> list:
    """Set-up times (imports, specs, domains) of fresh interpreters."""
    code = _PROBE.format(paths=[SRC, BENCH_DIR], name=name, seed=seed,
                         size=size)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_one(workload, ctx, workers: int, tracer=None) -> Batch:
    """One batch in a fresh directory; an exception fails every op."""
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-",
                                 dir=os.path.join(OUT, "tmp"))
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            return workload.run_batch(ctx, directory, workers)
    except Exception:
        ops = workload.planned_ops(ctx)
        return Batch(attempted=ops, failed=ops,
                     problems=[traceback.format_exc()])
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest child (a worker
    or a set-up interpreter), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _rates(batches: list) -> dict:
    """Median per-batch throughput of every kind of work done."""
    def median_rate(work: str, phases: tuple):
        values = []
        for b in batches:
            seconds = sum(b.phases.get(p, 0.0) for p in phases)
            if work in b.work and seconds > 0:
                values.append(b.work[work] / seconds)
        return statistics.median(values) if values else None

    rates = {
        "acquire_traces_per_s": ("traces/s", median_rate("traces",
                                                         ("acquire",))),
        "sim_cycles_per_s": ("cycles/s", median_rate(
            "sim_cycles", ("acquire", "explore"))),
        "attack_trace_bits_per_s": ("trace-bits/s", median_rate(
            "trace_bits", ("attack",))),
        "sessions_per_s": ("sessions/s", median_rate("sessions",
                                                     ("soak",))),
        "cells_per_s": ("cells/s", median_rate("cells", ("explore",))),
    }
    return {k: v for k, v in rates.items() if v[1] is not None}


def reference_seconds(_core: int = 0) -> float:
    """Time one pass of a fixed pure-Python big-integer loop.

    The loop runs no program code, so no change to the program moves it;
    it only tracks how fast the shared host runs Python right now.
    """
    started = time.perf_counter()
    mask = (1 << 163) - 1
    acc, x = 0, 0x5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc << 1 ^ x ^ acc >> (i & 7)) & mask
        if acc >> 162:
            acc ^= 0xC9
    return time.perf_counter() - started


def _repeat(step, deadline: float) -> tuple:
    """Call ``step`` once, then again while its median duration still
    fits before ``deadline``, so a run ends within its time.  The
    reference loop is timed before every step and after the last one,
    on every core at once: each core of a shared host drifts on its own,
    and the batches use them all.  A first, untimed pass lets every pool
    worker finish starting, which would otherwise slow the first
    reference."""
    pool = multiprocessing.get_context("spawn").Pool(WORKERS)
    try:
        def reference() -> float:
            return statistics.mean(pool.map(reference_seconds,
                                            range(WORKERS), chunksize=1))

        reference()
        results, durations, references = [], [], [reference()]
        while not results or (time.perf_counter()
                              + statistics.median(durations) <= deadline):
            started = time.perf_counter()
            results.append(step())
            durations.append(time.perf_counter() - started)
            references.append(reference())
    finally:
        pool.close()
        pool.join()
    return results, references


def _wall_norm(batches: list, references: list) -> float:
    """Batch wall time in units of the reference loop: the run's mean
    batch time over its mean reference time (pooled, because a single
    reference sample is as noisy as the host)."""
    return (sum(b.wall_s for b in batches) / len(batches)) / (
        sum(references) / len(references))


def _check_digests(batches: list) -> None:
    """Every batch of one seed, traced or not, must produce the same
    output bytes."""
    reference = next((b.digest for b in batches if b.digest), None)
    for b in batches:
        if b.digest and b.digest != reference:
            b.problems.append(f"output digest {b.digest} != {reference}")
            b.failed = b.attempted


def measure(name: str, seed: int, seconds: float, traced: bool,
            size: str = "full") -> dict:
    """Run one benchmark measurement and return its full result."""
    workload = WORKLOADS[name]
    dims = SIZES[name][size]
    setups = setup_seconds(name, seed, dims)
    ctx = workload.setup(seed, dims)
    result = {"stamp": stamp(workload, ctx, seed, size, traced),
              "setup_samples": setups}
    deadline = time.perf_counter() + seconds
    if traced:
        from layers import Tracer

        def pair():
            tracer = Tracer()
            return (run_one(workload, ctx, workers=1),
                    run_one(workload, ctx, 1, tracer), tracer)

        pairs, references = _repeat(pair, deadline)
        plain, traced_batches, tracers = map(list, zip(*pairs))
        timed = plain
        batches = plain + traced_batches
        result["layers"] = _layer_result(tracers, plain, traced_batches)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"{name}-seed{seed}-spans.json")
        tracers[0].write(spans_path, result["stamp"])
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        batches, references = _repeat(
            lambda: run_one(workload, ctx, workers=WORKERS), deadline)
        timed = batches
        result["wall_norm"] = _wall_norm(batches, references)
    _check_digests(batches)
    problems = [p for b in batches for p in b.problems]
    try:
        problems += workload.final_problems(ctx, batches)
    except Exception:
        problems.append(traceback.format_exc())
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    if problems and not failed:
        failed = 1   # a run-level check failed: at least one op is wrong
    result.update({
        "batches": len(batches),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": next((b.digest for b in batches if b.digest), ""),
        "batch_walls": [b.wall_s for b in timed],
        "reference_s": references,
        "wall_s": statistics.median(b.wall_s for b in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "rates": _rates(timed),
    })
    return result


def _layer_result(tracers: list, plain: list, traced: list) -> dict:
    """Per-layer metrics: counts of the first traced batch, median self
    times, and the tracing overhead against untraced in-process runs."""
    first = tracers[0].layer_metrics()
    layers = {}
    for key, value in first.items():
        if key.endswith(".self_s"):
            value = statistics.median(t.layer_metrics()[key]
                                      for t in tracers)
        layers[key] = value
    replayed = first["sca.predict.replayed_iterations"]
    if replayed:
        layers["sca.predict.useful_ratio"] = (
            first["sca.predict_iteration.calls"] / replayed)
    repeat = [key for key in first if not key.endswith(".self_s")
              and any(t.layer_metrics()[key] != first[key]
                      for t in tracers[1:])]
    traced_wall = statistics.median(b.wall_s for b in traced)
    untraced_wall = statistics.median(b.wall_s for b in plain)
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall
    for batch in traced if repeat else ():
        batch.problems.append(f"work counts differ between traced "
                              f"batches: {sorted(repeat)}")
        batch.failed = batch.attempted
    return layers


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

END_TO_END = (("setup_s", "s"), ("wall_norm", "ratio"),
              ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric on the result line."""
    from layers import COUNTS, LAYERS

    names = [(f"{layer.name}.calls", "count") for layer in LAYERS]
    names += [(f"{name}.self_s", "s") for name in REPORTED_SELF_TIMES]
    units = {"sim_cycles": "cycles", "bytes": "B"}
    names += [(name, units.get(name.rsplit(".", 1)[1], "count"))
              for name in COUNTS]
    names += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_ratio", "ratio")]
    return names


def render(result: dict) -> list:
    """Human-readable lines: stamp, every metric with its unit, checks."""
    s = result["stamp"]
    lines = [
        f"perfbench {s['workload']} seed={s['seed']} size={s['size']} "
        f"mode={s['mode']} workers={s['workers']} "
        f"batches={result['batches']}",
        f"  spec {s['spec_digest']}: {s['spec']}",
        f"  revision git={s['git_revision']} source={s['source_digest'][:16]}"
        f" nproc={s['nproc']} python={s['python']} numpy={s['numpy']}",
        f"  output digest {result['digest']}",
        f"  setup_s {result['setup_s']:.4f} s (median of "
        f"{len(result['setup_samples'])} fresh interpreters)",
        f"  wall_s {result['wall_s']:.4f} s (median of the "
        f"{'untraced ' if 'layers' in result else ''}batches)",
    ]
    if "wall_norm" in result:
        lines.append(
            f"  wall_norm {result['wall_norm']:.4f} ratio (mean batch wall"
            f" / mean reference loop "
            f"{statistics.mean(result['reference_s']):.4f} s)")
    for name, (unit, value) in result["rates"].items():
        lines.append(f"  {name} {value:.6g} {unit}")
    lines.append(f"  peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    lines.append(f"  error_rate {result['failed'] / result['attempted']:.4g}"
                 f" ({result['failed']} failed of {result['attempted']} "
                 f"ops: {WORKLOADS[s['workload']].ops})")
    if "layers" in result:
        lines.append(f"  per-layer (traced in-process; spans in "
                     f"{result['spans_file']}):")
        layers = result["layers"]
        for key in sorted(layers):
            value = layers[key]
            text = f"{value:.6f}" if isinstance(value, float) else value
            lines.append(f"    {key} {text}")
        lines.append(
            f"  tracing overhead {layers['trace.overhead_ratio']:.3f}x "
            "(traced / untraced in-process median batch wall time)")
    for problem in result["problems"]:
        lines.append(f"  CHECK FAILED: {problem.strip()}")
    return lines


def result_line(result: dict) -> dict:
    if "layers" in result:
        wanted, source = per_layer_metrics(), result["layers"]
    else:
        wanted, source = END_TO_END, result
    return {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an error, so every worker is still stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BaseException as exc:
        # drop the unwound frames' locals (the reference pool among them)
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        stop_processes()
    line = result_line(result)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                             f"{result['stamp']['mode']}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**result, "result": line}, f, indent=1, sort_keys=True)
    print("\n".join(render(result)))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
