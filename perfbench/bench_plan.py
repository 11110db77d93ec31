"""Seeded inputs for the four benchmark workloads.

Everything a run executes is derived here from the workload seed: the
same seed gives identical cells and job payloads, another seed gives
other programs. Per-program cost and accuracy swing by 20-25% from one
program seed to the next, so each workload spreads its work over many
short programs; the pooled figures then move little between seeds.

* ``sweep-cold`` — every Table-1 benchmark, each as a freshly seeded
  program, under three cheap systems (gshare-16, 2bc-gskew-16 and the
  2bc-gskew-8 + tagged-gshare-8 hybrid at 8 future bits).
* ``figure5`` — the Figure-5 grid (perceptron-8 prophet, tagged-gshare-8
  critic, 0/1/4/8/12 future bits) plus one ``tage-16`` single, over
  seeded copies of the six Figure-5 benchmarks.
* ``timing`` — a Figure-9-shaped Table-2 grid (gshare-16 alone, the
  2bc-gskew-8 + tagged-gshare-8 hybrid at 4 and 12 future bits) over
  seeded gcc- and flash-profile programs, as timing-mode cells.
* ``serve`` — a chosen synthetic stream of small sweep jobs for two
  closed-loop clients; the repository holds no recorded ``repro submit``
  traffic to replay. The daemon's job vocabulary names benchmarks but
  cannot carry a program seed, so the seed varies benchmarks and
  systems instead. A set share of the jobs repeats or extends one of
  the same client's earlier jobs; that earlier job has always finished,
  so which cells the cache serves is fixed by the seed alone.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.sim import ProgramSpec, SimulationConfig, SweepCell, SystemSpec
from repro.sim.specs import MODE_TIMING
from repro.sim.sweepconfig import cells_from_job
from repro.workloads.suites import FIGURE5_BENCHMARKS, SUITES

#: Every kernel-backed cell runs on the batched backend, named explicitly
#: so the process-wide default cannot leak in.
BACKEND = "batched"

#: Both serve clients; each submits its next job only after the last one.
SERVE_CLIENTS = 2


@dataclass(frozen=True)
class Size:
    """How much work one round of each workload holds."""

    #: Seeded programs per Table-1 benchmark in ``sweep-cold``.
    sweep_copies: int
    sweep_branches: int
    #: Seeded programs per Figure-5 benchmark in ``figure5``.
    figure5_copies: int
    figure5_branches: int
    #: Seeded programs per profile (gcc, flash) in ``timing``.
    timing_copies: int
    timing_branches: int
    #: Jobs in one round of the ``serve`` stream.
    serve_jobs: int
    #: Table-1 benchmarks ``sweep-cold`` draws from.
    benchmarks: tuple[str, ...]
    #: Figure-5 benchmarks ``figure5`` and ``serve`` draw from.
    figure5_benchmarks: tuple[str, ...]
    #: Rounds a run makes at least, whatever ``--seconds`` says.
    min_rounds: int
    #: Set-up samples behind the reported median.
    setup_samples: int


TABLE1_BENCHMARKS = tuple(name for members in SUITES.values() for name in members)

FULL = Size(
    sweep_copies=2,
    sweep_branches=1_000,
    figure5_copies=2,
    figure5_branches=600,
    timing_copies=5,
    timing_branches=700,
    serve_jobs=50,
    benchmarks=TABLE1_BENCHMARKS,
    figure5_benchmarks=FIGURE5_BENCHMARKS,
    min_rounds=3,
    setup_samples=7,
)

#: A few-second size for the benchmark's own tests.
TINY = Size(
    sweep_copies=1,
    sweep_branches=600,
    figure5_copies=1,
    figure5_branches=600,
    timing_copies=1,
    timing_branches=400,
    serve_jobs=6,
    benchmarks=("gcc", "swim", "tpcc"),
    figure5_benchmarks=("flash",),
    min_rounds=1,
    setup_samples=1,
)


def derive_seed(*parts: object) -> int:
    """A 31-bit seed that depends only on ``parts``."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


def _config(branches: int) -> SimulationConfig:
    return SimulationConfig(n_branches=branches, warmup=branches // 5, backend=BACKEND)


def _grid(
    workload: str,
    seed: int,
    benchmarks: tuple[str, ...],
    copies: int,
    systems: dict[str, SystemSpec],
    branches: int,
    mode: str = "accuracy",
) -> list[SweepCell]:
    """Program-major cells: every system runs back to back on one program."""
    config = _config(branches)
    cells = []
    for copy in range(copies):
        for bench in benchmarks:
            program = ProgramSpec(
                benchmark=bench, seed=derive_seed(workload, seed, bench, copy)
            )
            for label, system in systems.items():
                cells.append(SweepCell(
                    system_label=label,
                    bench_name=f"{bench}#{copy}",
                    system=system,
                    program=program,
                    config=config,
                    mode=mode,
                ))
    return cells


def sweep_cold_cells(seed: int, size: Size = FULL) -> list[SweepCell]:
    systems = {
        "gshare-16": SystemSpec.single("gshare", 16),
        "2bc-gskew-16": SystemSpec.single("2bc-gskew", 16),
        "2bc-gskew-8+tagged-gshare-8@f8": SystemSpec.hybrid(
            "2bc-gskew", 8, "tagged-gshare", 8, future_bits=8
        ),
    }
    return _grid(
        "sweep-cold", seed, size.benchmarks, size.sweep_copies, systems,
        size.sweep_branches,
    )


def figure5_cells(seed: int, size: Size = FULL) -> list[SweepCell]:
    systems = {
        f"fb={fb}": SystemSpec.hybrid("perceptron", 8, "tagged-gshare", 8, fb)
        for fb in (0, 1, 4, 8, 12)
    }
    # Last on each program, so the first simulate() of a program is
    # always a batched one and the scalar driver's share stays separate.
    systems["tage-16"] = SystemSpec.single("tage", 16)
    return _grid(
        "figure5", seed, size.figure5_benchmarks, size.figure5_copies, systems,
        size.figure5_branches,
    )


def timing_cells(seed: int, size: Size = FULL) -> list[SweepCell]:
    systems = {
        "gshare-16": SystemSpec.single("gshare", 16),
        "2bc-gskew-8+tagged-gshare-8@f4": SystemSpec.hybrid(
            "2bc-gskew", 8, "tagged-gshare", 8, future_bits=4
        ),
        "2bc-gskew-8+tagged-gshare-8@f12": SystemSpec.hybrid(
            "2bc-gskew", 8, "tagged-gshare", 8, future_bits=12
        ),
    }
    return _grid(
        "timing", seed, ("gcc", "flash"), size.timing_copies, systems,
        size.timing_branches, mode=MODE_TIMING,
    )


# -- serve ------------------------------------------------------------------

#: Systems a serve job picks from (job-payload configs, unique specs so
#: one job never holds two cells of equal content): the Table-3 budgets
#: of the two cheap prophets, bimodal, and the 8+8 and 16+16 KB
#: prophet/critic hybrids at the Figure-5 future-bit settings. With six
#: benchmarks these give 186 cell contents, room for the 75 distinct
#: cells of a round.
SERVE_SYSTEMS: dict[str, dict] = {
    **{
        f"{kind}-{kb}": {"kind": "single", "prophet": {"kind": kind, "budget_kb": kb}}
        for kind in ("gshare", "2bc-gskew")
        for kb in (2, 4, 8, 16, 32)
    },
    "bimodal": {"kind": "single", "prophet": "bimodal"},
    **{
        f"{prophet}{kb}+tg{kb}@f{fb}": {
            "kind": "hybrid",
            "prophet": {"kind": prophet, "budget_kb": kb},
            "critic": {"kind": "tagged-gshare", "budget_kb": kb},
            "future_bits": fb,
        }
        for prophet in ("gshare", "2bc-gskew")
        for kb in (8, 16)
        for fb in (0, 1, 4, 8, 12)
    },
}

#: A new job is two systems on one benchmark: the smallest job the
#: daemon hands to its worker pool (it runs one-cell jobs in process),
#: so kernel work stays small next to the service path. Its cells have
#: the 1 000-branch window of the canonical service panel in
#: ``tools/profile_serve.py``, chosen there for the same reason.
SERVE_BRANCHES = 1_000
SERVE_NEW_SYSTEMS = 2

#: Exact shares of the stream's jobs that repeat or extend an earlier
#: job; the rest is new content. A repeat is the same sweep submitted
#: again over the same cache, as ``examples/sweep_resume.py`` does; an
#: extension is that sweep grown by one system (a partial hit). The
#: repeat share gives 10 fully cache-served jobs in a 50-job round, so
#: the hit-path medians (``serve.job_run_hit_s``) rest on ten samples
#: per traced round, and keeps the measured hit share far below the 91%
#: a generator reusing contents by accident reaches. Counts are fixed,
#: not drawn. New jobs are the majority, so ``job_p50_s`` and
#: ``job_p90_s`` both fall among new jobs: they time the miss path, and
#: a faster hit path shows in ``jobs_per_s`` and the per-layer figures.
#: (The daemon runs one job at a time, so a cache-served job mostly
#: waits behind the other client's job; a majority of repeats does not
#: make ``job_p50_s`` a hit-path figure.)
SERVE_REPEAT_SHARE = 0.2
SERVE_EXTEND_SHARE = 0.1

#: The job that boots the worker pool before a round is timed (the
#: daemon runs one-cell jobs in process, so it has two cells). Its
#: 500-branch window differs from SERVE_BRANCHES, so its cells
#: never match a timed job's content.
WARMUP_JOB = {
    "systems": {"bimodal": SERVE_SYSTEMS["bimodal"]},
    "benchmarks": ["swim", "facerec"],
    "branches": 500,
    "warmup": 100,
    "backend": BACKEND,
}


@dataclass(frozen=True)
class ServeJob:
    """One job of the serve stream."""

    client: int
    #: "new" (all cells unseen), "repeat" (an earlier job's payload again)
    #: or "extend" (an earlier job plus one unseen system).
    kind: str
    payload: dict
    #: Index of the earlier job a repeat or extension builds on.
    base: int | None
    #: Content hash of each cell, in the daemon's (bench-major) order.
    content_hashes: tuple[str, ...]
    #: Per cell: whether no earlier job of the stream holds that content.
    novel: tuple[bool, ...]


def _payload(systems: list[str], benchmarks: list[str], branches: int) -> dict:
    return {
        "systems": {label: SERVE_SYSTEMS[label] for label in systems},
        "benchmarks": list(benchmarks),
        "branches": branches,
        "warmup": branches // 5,
        "backend": BACKEND,
    }


def serve_jobs(seed: int, size: Size = FULL) -> list[ServeJob]:
    """The seeded job stream; job ``i`` belongs to client ``i % 2``."""
    rng = random.Random(derive_seed("serve", seed))
    seen: set[str] = set()
    jobs: list[ServeJob] = []
    labels = sorted(SERVE_SYSTEMS)

    def hashes(payload: dict) -> tuple[str, ...]:
        return tuple(cell.content_hash() for cell in cells_from_job(payload)[0])

    def new_payload() -> dict:
        while True:
            # The six Figure-5 benchmarks: pool workers memoise program
            # builds, so with a small fixed set the builds are done early
            # in a round and the service path carries the rest of it.
            payload = _payload(
                rng.sample(labels, SERVE_NEW_SYSTEMS),
                [rng.choice(size.figure5_benchmarks)], SERVE_BRANCHES,
            )
            if not seen.intersection(hashes(payload)):
                return payload

    def extended(base: dict) -> dict | None:
        unused = [label for label in labels if label not in base["systems"]]
        rng.shuffle(unused)
        for label in unused:
            payload = _payload(
                [*base["systems"], label], base["benchmarks"], base["branches"]
            )
            added = [
                cell.content_hash() for cell in cells_from_job(payload)[0]
                if cell.system_label == label
            ]
            if not seen.intersection(added):
                return payload
        return None

    # Each client's first job is new: there is nothing of its own to repeat.
    repeats = round(SERVE_REPEAT_SHARE * size.serve_jobs)
    extends = round(SERVE_EXTEND_SHARE * size.serve_jobs)
    later = ["repeat"] * repeats + ["extend"] * extends
    later += ["new"] * (size.serve_jobs - SERVE_CLIENTS - len(later))
    rng.shuffle(later)
    for index, kind in enumerate(["new"] * SERVE_CLIENTS + later):
        client = index % SERVE_CLIENTS
        own = [j for j, job in enumerate(jobs) if job.client == client and job.kind != "repeat"]
        base, payload = None, None
        if kind == "repeat":
            base = rng.choice(own)
            payload = jobs[base].payload
        elif kind == "extend":
            base = rng.choice(own)
            payload = extended(jobs[base].payload)
        if payload is None:
            kind, base, payload = "new", None, new_payload()
        content = hashes(payload)
        novel = []
        for h in content:
            novel.append(h not in seen)
            seen.add(h)
        jobs.append(ServeJob(client, kind, payload, base, content, tuple(novel)))
    return jobs


def repeat_share(jobs: list[ServeJob]) -> float:
    """Share of the stream's cells whose content an earlier job already ran."""
    cells = [flag for job in jobs for flag in job.novel]
    return sum(1 for flag in cells if not flag) / len(cells)


def cells_for(workload: str, seed: int, size: Size = FULL) -> list[SweepCell]:
    """The in-process workloads' cells."""
    if workload == "sweep-cold":
        return sweep_cold_cells(seed, size)
    if workload == "figure5":
        return figure5_cells(seed, size)
    if workload == "timing":
        return timing_cells(seed, size)
    raise ValueError(f"{workload!r} has no in-process cells")
