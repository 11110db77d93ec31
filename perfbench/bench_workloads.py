"""The four workloads: timed rounds, traced rounds and correctness gates.

A run repeats its workload in rounds until ``--seconds`` have passed
(and at least ``Size.min_rounds`` have run). Every round does the same
seed-fixed work from cold: a fresh serial engine for the in-process
workloads, a freshly booted daemon over an empty cache for ``serve``.
Timings are medians over rounds; exact figures come from the first round,
and every later round must reproduce its results byte for byte.

With tracing on, rounds alternate untraced and traced, so the traced
run also measures its own overhead against untraced rounds of the same
process. Checks that fail are collected as messages in
:attr:`Outcome.mismatches`; they never become metrics.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import random
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.serve import ServeConfig, start_daemon
from repro.serve.client import (
    DEFAULT_REQUEST_RETRY,
    TRANSIENT_ERRORS,
    ServeError,
    SweepClient,
)
from repro.sim import SweepEngine, run_cell
from repro.sim.batched import SCALAR_FALLBACK_KINDS
from repro.sim.cache import decode_result, encode_result
from repro.sim.execution import CellExecutionError, SerialExecutor
from repro.sim.metrics import RunStats
from repro.sim.specs import MODE_TIMING
from repro.sim.sweepconfig import cells_from_job

from bench_plan import (
    SERVE_CLIENTS,
    WARMUP_JOB,
    Size,
    cells_for,
    derive_seed,
    repeat_share,
    serve_jobs,
)
from bench_trace import Span, TimingBackend, Tracer

#: How long a serve round may take before its clients count as hung.
SERVE_ROUND_TIMEOUT_S = 120.0


def canonical(result) -> str:
    """The byte-exact form results are compared in (the cache codec)."""
    return json.dumps(encode_result(result), sort_keys=True, separators=(",", ":"))


def _vm_hwm_kb(pid: str | int) -> int:
    """Peak resident set of a process, from /proc (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(children: list[int] = ()) -> float:
    """Peak RSS of this process plus the given (still running) children."""
    return (_vm_hwm_kb("self") + sum(_vm_hwm_kb(pid) for pid in children)) / 1024


@dataclass
class Round:
    wall: float
    traced: bool
    #: Per job: client-observed seconds (a job is one engine call, or one
    #: daemon job).
    latencies: list[float]
    spans: list[Span] | None = None
    #: serve only: daemon boot plus pool start, and the job documents.
    boot: float | None = None
    documents: list[dict] = field(default_factory=list)


@dataclass
class Outcome:
    """Everything one run measured, before it is turned into metrics."""

    rounds: list[Round] = field(default_factory=list)
    #: Jobs in one round.
    jobs: int = 0
    #: Simulated results of one round's distinct work (exact figures).
    results: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: Exact per-layer counts (identical in every round).
    counts: dict[str, float] = field(default_factory=dict)

    def untraced(self) -> list[Round]:
        return [r for r in self.rounds if not r.traced]

    def traced(self) -> list[Round]:
        return [r for r in self.rounds if r.traced]


def _done(outcome: Outcome, trace: bool, min_rounds: int, deadline: float) -> bool:
    """Whether to stop: the minimum rounds are in, and another round of
    median length would end past the deadline."""
    if trace:
        need = max(1, min_rounds - 1)
        enough = len(outcome.untraced()) >= need and len(outcome.traced()) >= need
    else:
        enough = len(outcome.rounds) >= min_rounds
    typical = statistics.median(r.wall for r in outcome.rounds)
    return enough and time.perf_counter() + typical > deadline


def _gate_sample(workload: str, seed: int, cells) -> list[int]:
    """One seeded cell per system label, so every system shape the
    workload runs is checked on every run. Accuracy cells whose system
    has a scalar-fallback kind are left out: the engine already runs
    them on the scalar driver, so re-running them compares it with
    itself."""
    rng = random.Random(derive_seed(workload, seed, "gate"))
    by_label: dict[str, list[int]] = {}
    for index, cell in enumerate(cells):
        kinds = {cell.system.prophet.kind}
        if cell.system.critic is not None:
            kinds.add(cell.system.critic.kind)
        if cell.mode != MODE_TIMING and kinds & SCALAR_FALLBACK_KINDS:
            continue
        by_label.setdefault(cell.system_label, []).append(index)
    return sorted(rng.choice(indices) for indices in by_label.values())


# -- in-process workloads ---------------------------------------------------


def _in_process_round(cells, tracer: Tracer | None) -> tuple[Round, list, int]:
    engine = SweepEngine(executor=SerialExecutor())
    results, latencies, failed = [], [], 0
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for cell in cells:
            began = time.perf_counter()
            try:
                [result] = engine.run_cells([cell])
            except CellExecutionError:
                result = None
                failed += 1
            latencies.append(time.perf_counter() - began)
            results.append(result)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        engine.close()
    spans = tracer.take(start) if tracer is not None else None
    return Round(wall, tracer is not None, latencies, spans), results, failed


def run_in_process(
    workload: str, seed: int, seconds: float, trace: bool, size: Size, tracer: Tracer
) -> Outcome:
    cells = cells_for(workload, seed, size)
    outcome = Outcome(jobs=len(cells))
    reference: list[str | None] | None = None
    first_failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(outcome.rounds) % 2 == 1
        round_, results, failed = _in_process_round(cells, tracer if traced else None)
        outcome.rounds.append(round_)
        outcome.attempted += len(cells)
        outcome.failed += failed
        encoded = [None if r is None else canonical(r) for r in results]
        if reference is None:
            reference, first_failed = encoded, failed
            outcome.results = [r for r in results if r is not None]
        elif encoded != reference:
            differing = sum(1 for a, b in zip(encoded, reference) if a != b)
            kind = "traced" if traced else "untraced"
            outcome.mismatches.append(
                f"{kind} round {len(outcome.rounds) - 1}: {differing} cell(s) differ "
                "from round 0"
            )
        if _done(outcome, trace, size.min_rounds, deadline):
            break
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.counts = {
        "execution.cells_executed": len(cells) - first_failed,
        "execution.cells_failed": first_failed,
    }

    # Gate: one seeded cell per system, re-run from scratch, must match
    # byte for byte — on the scalar reference loop for accuracy cells,
    # through run_cell (no build memo) for timing cells.
    for index in _gate_sample(workload, seed, cells):
        cell = cells[index]
        if cell.mode != MODE_TIMING:
            cell = replace(cell, config=replace(cell.config, backend="scalar"))
        if canonical(run_cell(cell)) != reference[index]:
            outcome.mismatches.append(
                f"cell {cell.system_label} x {cell.bench_name}: engine result differs "
                f"from run_cell(backend={cell.config.backend!r})"
            )
    return outcome


# -- serve ------------------------------------------------------------------


class _CountingRetry:
    """The client's retry policy, counting every transport error it sees."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.errors = 0

    def call(self, fn, **kwargs):
        def attempt():
            try:
                return fn()
            except kwargs["retry_on"]:
                self.errors += 1
                raise

        return self.policy.call(attempt, **kwargs)


class CountingClient(SweepClient):
    """A :class:`SweepClient` that counts what its retry budgets absorb:
    transport errors (retried or not), dropped event streams and 429s."""

    def __init__(self, url: str) -> None:
        self.counting = _CountingRetry(DEFAULT_REQUEST_RETRY)
        super().__init__(url, timeout=SERVE_ROUND_TIMEOUT_S, retry=self.counting)
        self.stream_errors = 0
        self.refused = 0

    def events(self, job_id: str):
        try:
            yield from super().events(job_id)
        except TRANSIENT_ERRORS:
            self.stream_errors += 1
            raise

    @property
    def transport_errors(self) -> int:
        return self.counting.errors + self.stream_errors


def _client_loop(client: CountingClient, jobs, records: dict, errors: list) -> None:
    """Closed loop: submit the next job only after the last one finished."""
    try:
        for index, job in jobs:
            began = time.perf_counter()
            while True:
                try:
                    job_id = client.submit_payload(job.payload)
                    break
                except ServeError as exc:
                    if exc.status != 429:
                        raise
                    client.refused += 1
                    time.sleep(exc.retry_after or 0.05)
            document = client.wait(job_id, timeout=SERVE_ROUND_TIMEOUT_S)
            records[index] = (time.perf_counter() - began, document)
    except Exception as exc:  # reported as a failed round, never swallowed
        errors.append(f"{type(exc).__name__}: {exc}")


_STAT_KEYS = (
    "cells_submitted", "cells_executed", "cells_from_cache", "cells_deduped",
    "cells_failed", "cells_retried", "jobs_rejected", "jobs_failed", "jobs_timed_out",
)


def _serve_round(jobs, cache_dir: Path, tracer: Tracer | None):
    if tracer is not None:
        tracer.install()
    try:
        booted = time.perf_counter()
        handle = start_daemon(ServeConfig(port=0, jobs=SERVE_CLIENTS, cache_url=str(cache_dir)))
        try:
            admin = SweepClient(handle.url)
            admin.wait(admin.submit_payload(WARMUP_JOB), timeout=SERVE_ROUND_TIMEOUT_S)
            boot = time.perf_counter() - booted
            if tracer is not None:
                cache = handle.daemon.cache
                cache.backend = TimingBackend(cache.backend, tracer)
            before = admin.stats()
            clients = [CountingClient(handle.url) for _ in range(SERVE_CLIENTS)]
            records: dict[int, tuple[float, dict]] = {}
            errors: list[str] = []
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(
                        client,
                        [(i, job) for i, job in enumerate(jobs) if job.client == c],
                        records,
                        errors,
                    ),
                    daemon=True,
                )
                for c, client in enumerate(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=SERVE_ROUND_TIMEOUT_S)
            wall = time.perf_counter() - start
            if any(thread.is_alive() for thread in threads):
                errors.append("a client did not finish within the round timeout")
            after = admin.stats()
            rss = peak_rss_mb([p.pid for p in multiprocessing.active_children()])
        finally:
            handle.stop()
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.take(start) if tracer is not None else None
    latencies = [records[i][0] for i in sorted(records)]
    documents = [records[i][1] for i in sorted(records)]
    round_ = Round(wall, tracer is not None, latencies, spans, boot, documents)
    deltas = {key: after.get(key, 0) - before.get(key, 0) for key in _STAT_KEYS}
    client_counts = {
        "serve.http_429": sum(c.refused for c in clients),
        "serve.transport_errors": sum(c.transport_errors for c in clients),
    }
    return round_, deltas, client_counts, errors, rss


def _expected_rows(cells, results) -> list[dict]:
    return [
        {
            "system": cell.system_label,
            "benchmark": cell.bench_name,
            "content_hash": cell.content_hash(),
            "result": encode_result(result),
        }
        for cell, result in zip(cells, results)
    ]


def _rows_key(rows) -> str:
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def run_serve(seed: int, seconds: float, trace: bool, size: Size, tracer: Tracer,
              work_dir: Path) -> Outcome:
    jobs = serve_jobs(seed, size)
    outcome = Outcome(jobs=len(jobs))
    reference: list[str] | None = None
    first_deltas: dict | None = None
    failures = {"serve.http_429": 0, "serve.transport_errors": 0, "serve.jobs_failed": 0}
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(outcome.rounds) % 2 == 1
        cache_dir = work_dir / f"cache-{len(outcome.rounds)}"
        round_, deltas, client_counts, errors, rss = _serve_round(
            jobs, cache_dir, tracer if traced else None
        )
        outcome.rounds.append(round_)
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, rss)
        for message in errors:
            outcome.mismatches.append(f"round {len(outcome.rounds) - 1}: {message}")
        failed_jobs = sum(
            1 for doc in round_.documents
            if doc.get("state") != "done" or doc.get("cells_failed") or doc.get("retries")
        ) + (len(jobs) - len(round_.documents))
        failures["serve.http_429"] += client_counts["serve.http_429"]
        failures["serve.transport_errors"] += client_counts["serve.transport_errors"]
        failures["serve.jobs_failed"] += failed_jobs
        # A refused submit and a failed transport call are each one more
        # attempt, on top of the job's own.
        outcome.attempted += (
            len(jobs) + client_counts["serve.http_429"]
            + client_counts["serve.transport_errors"]
        )
        outcome.failed += (
            failed_jobs + client_counts["serve.http_429"]
            + client_counts["serve.transport_errors"]
        )
        rows = [_rows_key(doc.get("results")) for doc in round_.documents]
        if reference is None:
            reference, first_deltas = rows, deltas
        elif rows != reference or deltas != first_deltas:
            kind = "traced" if traced else "untraced"
            outcome.mismatches.append(
                f"{kind} round {len(outcome.rounds) - 1}: job results or daemon "
                "counters differ from round 0"
            )
        if _done(outcome, trace, size.min_rounds, deadline):
            break

    first = outcome.rounds[0].documents
    outcome.counts = {
        "cache.hit_frac": first_deltas["cells_from_cache"] / max(1, first_deltas["cells_submitted"]),
        "serve.repeat_frac": repeat_share(jobs),
        "execution.cells_executed": first_deltas["cells_executed"],
        "execution.cells_from_cache": first_deltas["cells_from_cache"],
        "execution.cells_deduped": first_deltas["cells_deduped"],
        "execution.cells_retried": first_deltas["cells_retried"],
        "execution.cells_failed": first_deltas["cells_failed"],
        "serve.jobs_rejected": first_deltas["jobs_rejected"],
        **failures,
    }

    # Gate: every distinct job equals a local in-process sweep of the
    # same payload; every repeat equals the job it repeats.
    if len(first) != len(jobs):
        outcome.mismatches.append(f"only {len(first)} of {len(jobs)} jobs finished")
        return outcome
    engine = SweepEngine(executor=SerialExecutor())
    try:
        for index, job in enumerate(jobs):
            rows = first[index].get("results") or []
            if [row.get("content_hash") for row in rows] != list(job.content_hashes):
                outcome.mismatches.append(f"job {index}: cells differ from the plan")
                continue
            if job.kind == "repeat":
                if _rows_key(rows) != _rows_key(first[job.base].get("results")):
                    outcome.mismatches.append(f"job {index}: differs from job {job.base}")
                continue
            cells, _meta = cells_from_job(job.payload)
            local = _expected_rows(cells, engine.run_cells(cells))
            if _rows_key(rows) != _rows_key(local):
                outcome.mismatches.append(f"job {index}: differs from a local sweep")
            outcome.results.extend(
                decode_result(row["result"])
                for row, novel in zip(rows, job.novel)
                if novel
            )
    finally:
        engine.close()
    return outcome


# -- metrics ----------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def exact_figures(results: list) -> dict[str, float]:
    """Pooled simulated statistics of one round's distinct results."""
    uops = sum(r.committed_uops for r in results)
    accuracy = [r for r in results if isinstance(r, RunStats)]
    timed = [r for r in results if not isinstance(r, RunStats)]
    cycles = sum(r.cycles for r in timed)
    fetched = sum(r.fetched_uops for r in timed)
    timed_uops = sum(r.committed_uops for r in timed)
    return {
        "committed_kuops": uops / 1000,
        "misp_per_kuops": 1000 * sum(r.mispredicts for r in results) / max(1, uops),
        "sim.prophet_misp_per_kuops": (
            1000 * sum(r.prophet_mispredicts for r in accuracy)
            / max(1, sum(r.committed_uops for r in accuracy))
        ),
        "sim.critic_redirects": sum(r.critic_redirects for r in accuracy),
        "pipeline.cycles": cycles,
        "pipeline.mispredicts": sum(r.mispredicts for r in timed),
        "pipeline.critic_redirects": sum(r.critic_redirects for r in timed),
        "pipeline.ftq_empty_cycles": sum(r.ftq_empty_cycles for r in timed),
        "pipeline.wrong_path_fetch_frac": (
            max(0.0, 1 - timed_uops / fetched) if fetched else 0.0
        ),
        "pipeline.upc": timed_uops / cycles if cycles else 0.0,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
