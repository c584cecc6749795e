"""Benchmark for ncats: exact counts, checks, file round trips and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monoid-search --seed 1 --seconds 15 --trace 0

The library is imported from this checkout's ``src/``; the run fails with
exit code 2 when it is missing.  One process runs one workload in a closed
loop (one pass at a time, no threads): setup is repeated and its median
reported, then passes run back to back for ``--seconds`` and their median
is ``wall_s``.  Answers are checked against frozen values and by second
routes (see workloads.py).  The last stdout line is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, per-layer metrics
from one traced setup and pass, spans written to
``.bench_out/trace-<workload>-seed<n>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
STARTUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_library():
    """Import ncats from ROOT/src, or return None when it is not there."""
    src = ROOT / "src"
    if not (src / "ncats" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import ncats
    if src.resolve() not in Path(ncats.__file__).resolve().parents:
        return None
    return ncats


def child_env():
    """Environment for subprocesses: this checkout's ``src`` and no budget
    overrides from the caller's environment."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NCATS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import ncats; "
                 "print(time.perf_counter() - t0)")


def import_seconds():
    """Seconds ``import ncats`` takes in a fresh interpreter, as the
    import inside one process can only be timed once."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=child_env(),
                          check=True, capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else _median(xs)


def _passes(workload, run, inputs, seconds, host):
    """Closed loop of timed passes, each bracketed by host-speed kernels;
    returns (raw pass seconds, the same at reference speed, last results)."""
    raw, ref = [], []
    kernel = host.kernel_s()
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        results = workload.run_pass(run, inputs)
        raw.append(time.perf_counter() - t0)
        before, kernel = kernel, host.kernel_s()
        ref.append(speed.at_reference(raw[-1], before, kernel))
        if time.perf_counter() >= deadline:
            return raw, ref, results


def end_to_end(workload, args, make_run, tally, host):
    setups = []
    for _ in range(SETUP_REPEATS):
        run = make_run()
        before = host.kernel_s()
        t0 = time.perf_counter()
        inputs = workload.setup(run)
        build_s = time.perf_counter() - t0
        setup_s = import_seconds() + build_s
        setups.append(speed.at_reference(setup_s, before, host.kernel_s()))
    raw, ref, results = _passes(workload, run, inputs, args.seconds, host)
    # the peak of setup and passes; verify's second routes are not the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.verify(run, inputs, results)
    metrics = {"setup_s": _median(setups), "wall_s": _median(ref), "peak_rss_mb": peak_rss_mb}
    summary = (f"{len(raw)} passes, raw median {_median(raw):.4f} s, "
               f"{tally.nodes} nodes in all")
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, summary


def cli_startup_ms():
    """Median time to start the interpreter and import this checkout's ncats."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ncats"], env=child_env(), check=True,
                       capture_output=True, timeout=60)
        samples.append((time.perf_counter() - t0) * 1e3)
    return _median(samples)


def per_layer(workload, args, make_run, tally, host, ncats):
    import tracer as tr

    run = make_run()
    inputs = workload.setup(run)
    _raw, ref, _ = _passes(workload, run, inputs, args.seconds / 2, host)
    # single-call latencies come from the untraced passes
    latency = {
        "structures.check_ms_p50": _median(tally.check_ms),
        "structures.check_ms_p90": _p90(tally.check_ms),
        "io.roundtrip_mb_per_s": _median(tally.rt_mb_per_s),
        "cli.ms_p50": _median([ms for ms, _ok in tally.cli]),
    }
    tracer = tr.Tracer()
    undo = tracer.install(ncats)
    tally.tracer = tracer
    try:
        with tracer.span(tr.BENCH) as root:
            traced_run = make_run()
            inputs = workload.setup(traced_run)
            before = host.kernel_s()
            t0 = time.perf_counter()
            results = workload.run_pass(traced_run, inputs)
            traced_s = speed.at_reference(time.perf_counter() - t0, before, host.kernel_s())
    finally:
        undo()
        tally.tracer = None
    workload.verify(traced_run, inputs, results)
    layers = tr.layer_metrics(tracer, root.index)
    layers.update(latency)
    layers["trace.overhead_frac"] = traced_s / _median(ref) - 1
    if tally.cli:
        layers["cli.startup_ms"] = cli_startup_ms()
        layers["cli.self_ms"] = latency["cli.ms_p50"] - layers["cli.startup_ms"]
        layers["cli.exit_mismatches"] = sum(1 for _ms, ok in tally.cli if not ok)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    summary = f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}"
    return {name: (layers[name], unit) for name, unit in tr.PER_LAYER}, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny instances for the benchmark's own tests")
    args = parser.parse_args(argv)

    ncats = import_library()
    if ncats is None:
        sys.stderr.write(f"error: no ncats package under {ROOT / 'src'}\n")
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = workloads.Tally()

    def make_run():
        return workloads.Run(workdir, child_env(), args.seed, args.size, tally)

    try:
        with speed.HostSpeed() as host:
            if args.trace:
                metrics, summary = per_layer(workload, args, make_run, tally, host, ncats)
            else:
                metrics, summary = end_to_end(workload, args, make_run, tally, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stderr.write(f"{args.workload} seed {args.seed}: {summary}\n")
    for what, raw, iso, nodes in tally.counts[:8]:
        sys.stderr.write(f"  {what}: {raw} raw / {iso} iso, {nodes} nodes\n")
    for note in tally.notes[:20]:
        sys.stderr.write(f"  FAILED {note}\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
