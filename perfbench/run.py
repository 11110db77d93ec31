#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``bench_plan.py`` for why each exists): ``sweep-cold``,
``figure5``, ``timing`` and ``serve``. With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics instead, from rounds
traced around each layer's public calls (``bench_trace.py``), and the
spans are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
The line before it holds run details: the environment (Python and numpy
versions, CPU count, seed, source commit), round and sample counts.

The program under test is the ``src/repro`` tree of the current
directory. Correctness checks run outside the timed phase; a mismatch
prints ``"correct": false`` and exits 1. Without ``src/repro`` the
command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

#: Environment that would change what a run measures: a trace-column
#: store turns the cold trace walk into a store hit, a build-cache size
#: changes memoisation, fault plans inject failures, and the rest
#: override sizes, worker counts and cache locations.
PINNED_ENV = (
    "REPRO_TRACE_CACHE", "REPRO_BUILD_CACHE", "REPRO_SCALE", "REPRO_JOBS",
    "REPRO_CACHE_DIR",
)
PINNED_ENV_PREFIXES = ("REPRO_FAULTS",)

WORKLOADS = ("sweep-cold", "figure5", "timing", "serve")

#: (name, unit, better) for the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_kuops_per_s", "kuops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("misp_per_kuops", "misp/Kuops", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
)

#: (name, unit, better) for the per-layer metrics, printed with --trace 1.
#: Timings ending in ``_s`` are seconds per traced round, except that
#: ``serve.*_s`` other than ``serve.self_s`` are medians per job. On
#: ``serve`` the clients, the daemon and its workers overlap in time, so
#: ``trace.self_sum_s`` can exceed the round's wall time and
#: ``execution.self_s`` includes waiting on the workers. A layer a
#: workload does not use reads 0.
PER_LAYER = (
    ("workloads.build_s", "s", "lower"),
    ("workloads.builds", "count", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("specs.system_build_s", "s", "lower"),
    ("specs.self_s", "s", "lower"),
    ("sim.first_simulate_s", "s", "lower"),
    ("sim.single_s", "s", "lower"),
    ("sim.hybrid_s", "s", "lower"),
    ("sim.perceptron_s", "s", "lower"),
    ("sim.scalar_fallback_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.prophet_misp_per_kuops", "misp/Kuops", "lower"),
    ("sim.critic_redirects", "count", "lower"),
    ("pipeline.run_s", "s", "lower"),
    ("pipeline.host_us_per_cycle", "us", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.upc", "uops/cycle", "higher"),
    ("pipeline.cycles", "count", "lower"),
    ("pipeline.mispredicts", "count", "lower"),
    ("pipeline.critic_redirects", "count", "lower"),
    ("pipeline.ftq_empty_cycles", "count", "lower"),
    ("pipeline.wrong_path_fetch_frac", "ratio", "lower"),
    ("execution.self_s", "s", "lower"),
    ("execution.cells_executed", "count", "lower"),
    ("execution.cells_from_cache", "count", "higher"),
    ("execution.cells_deduped", "count", "higher"),
    ("execution.cells_retried", "count", "lower"),
    ("execution.cells_failed", "count", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.codec_s", "s", "lower"),
    ("cache.self_s", "s", "lower"),
    ("cache.hit_frac", "ratio", "higher"),
    ("cache.bytes_written", "bytes", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.fetch_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.job_run_hit_s", "s", "lower"),
    ("serve.job_run_miss_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("serve.repeat_frac", "ratio", "higher"),
    ("serve.jobs_rejected", "count", "lower"),
    ("serve.http_429", "count", "lower"),
    ("serve.transport_errors", "count", "lower"),
    ("serve.jobs_failed", "count", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

IMPORT_PROBE = (
    "import time; began = time.perf_counter(); "
    "import repro.sim, repro.pipeline.machine, repro.serve; "
    "print(time.perf_counter() - began)"
)


def pin_environment(src: Path) -> dict:
    """Drop every variable that would alter a run; returns what was dropped."""
    dropped = {}
    for name in list(os.environ):
        if name in PINNED_ENV or name.startswith(PINNED_ENV_PREFIXES):
            dropped[name] = os.environ.pop(name)
    os.environ["PYTHONPATH"] = str(src)
    return dropped


def source_identity(root: Path, src: Path) -> dict:
    """The git commit when there is one, and a digest of the measured tree."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            check=False, timeout=30,
        )
        commit = probe.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def import_seconds(samples: int) -> list[float]:
    """Import time of the package, each sample in a fresh interpreter."""
    seconds = []
    for _ in range(samples):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
            check=True, timeout=120,
        )
        seconds.append(float(probe.stdout.strip().splitlines()[-1]))
    return seconds


def end_to_end(outcome, setup: list[float]) -> dict[str, float]:
    from bench_workloads import exact_figures, median, percentile

    untraced = outcome.untraced()
    wall = median([r.wall for r in untraced])
    latencies = [s for r in untraced for s in r.latencies]
    exact = exact_figures(outcome.results)
    return {
        "wall_s": wall,
        "setup_s": sum(setup),
        "sim_kuops_per_s": exact["committed_kuops"] / wall,
        "peak_rss_mb": outcome.peak_rss_mb,
        "misp_per_kuops": exact["misp_per_kuops"],
        "job_p50_s": percentile(latencies, 0.5),
        "job_p90_s": percentile(latencies, 0.9),
        "jobs_per_s": outcome.jobs / wall,
    }


def per_layer(outcome) -> dict[str, float]:
    from bench_trace import layer_self_seconds, summarise
    from bench_workloads import exact_figures, median

    traced = outcome.traced()
    per_round = []
    for round_ in traced:
        totals = summarise(round_.spans)
        layers = layer_self_seconds(totals)

        def total(name, key="seconds", totals=totals):
            return totals.get(name, {}).get(key, 0)

        run_s = total("pipeline.run")
        cycles = total("pipeline.run", "extra")
        row = {
            "workloads.build_s": total("workloads.build"),
            "workloads.builds": total("workloads.build", "calls"),
            "specs.system_build_s": total("specs.system_build"),
            "sim.first_simulate_s": total("sim.first"),
            "sim.single_s": total("sim.single"),
            "sim.hybrid_s": total("sim.hybrid"),
            "sim.perceptron_s": total("sim.perceptron"),
            "sim.scalar_fallback_s": total("sim.scalar_fallback"),
            "pipeline.run_s": run_s,
            "pipeline.host_us_per_cycle": 1e6 * run_s / cycles if cycles else 0.0,
            "cache.get_s": total("cache.get"),
            "cache.put_s": total("cache.put"),
            "cache.codec_s": total("cache.get", "self") + total("cache.put", "self"),
            "cache.bytes_written": total("cache.backend_put", "extra"),
            "trace.self_sum_s": sum(layers.values()),
            "trace.unattributed_s": round_.wall - sum(layers.values()),
            "trace.spans": sum(entry["calls"] for entry in totals.values()),
        }
        row.update({f"{layer}.self_s": seconds for layer, seconds in layers.items()})
        per_round.append(row)
    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    metrics.update({key: median([row[key] for row in per_round]) for key in per_round[0]})

    def durations(name):
        return [s[4] - s[3] for r in traced for s in r.spans if s[2] == name]

    documents = [
        (latency, doc)
        for r in traced for latency, doc in zip(r.latencies, r.documents)
    ]
    metrics.update({
        "serve.submit_s": median(durations("serve.submit")),
        "serve.fetch_s": median(durations("serve.fetch")),
        "serve.queue_wait_s": median([lat - doc["seconds"] for lat, doc in documents]),
        "serve.job_run_hit_s": median(
            [doc["seconds"] for _, doc in documents if doc["cells_executed"] == 0]
        ),
        "serve.job_run_miss_s": median(
            [doc["seconds"] for _, doc in documents if doc["cells_executed"] > 0]
        ),
    })
    exact = exact_figures(outcome.results)
    metrics.update({name: value for name, value in exact.items() if "." in name})
    metrics.update(outcome.counts)
    traced_wall = median([r.wall for r in traced])
    untraced_wall = median([r.wall for r in outcome.untraced()])
    metrics.update({
        "failed_frac": outcome.failed / outcome.attempted,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    })
    return metrics


def details(args, outcome, setup_parts: dict, identity: dict, dropped: dict) -> dict:
    import numpy

    untraced = outcome.untraced()
    samples = sum(len(r.latencies) for r in untraced)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **identity,
        "env_dropped": sorted(dropped),
        "rounds_untraced": len(untraced),
        "rounds_traced": len(outcome.traced()),
        "round_walls_s": [round(r.wall, 6) for r in outcome.rounds],
        "jobs_per_round": outcome.jobs,
        "job_samples": samples,
        # job_p90_s rests on this many samples beyond it; >= 10 when the
        # run finished at least 100 jobs.
        "job_samples_beyond_p90": samples - math.ceil(0.9 * samples),
        "setup_parts_s": setup_parts,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "mismatches": outcome.mismatches,
    }


def main(argv: list[str] | None = None, size=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    dropped = pin_environment(src)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from bench_plan import FULL
    from bench_trace import Tracer, write_spans
    from bench_workloads import median, run_in_process, run_serve

    size = size or FULL
    work_dir = root / ".perfbench" / f"run-{os.getpid()}"
    spill_dir = work_dir / "spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spill_dir)
    try:
        imports = import_seconds(size.setup_samples)
        if args.workload == "serve":
            outcome = run_serve(args.seed, args.seconds, bool(args.trace), size, tracer,
                                work_dir)
            boots = [r.boot for r in outcome.untraced()]
        else:
            outcome = run_in_process(args.workload, args.seed, args.seconds,
                                     bool(args.trace), size, tracer)
            boots = []
        setup_parts = {"import_s": median(imports), "daemon_boot_s": median(boots)}
        if args.trace:
            metrics = per_layer(outcome)
            spans = [span for r in outcome.traced() for span in r.spans]
            write_spans(root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                        spans)
            specs = PER_LAYER
        else:
            metrics = end_to_end(outcome, list(setup_parts.values()))
            specs = END_TO_END
        identity = source_identity(root, src)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"details": details(args, outcome, setup_parts, identity, dropped)}))
    correct = not outcome.mismatches
    for message in outcome.mismatches:
        print(f"perfbench: MISMATCH {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit, _ in specs
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
