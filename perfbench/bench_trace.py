"""Spans around the public calls into each layer, recorded from outside.

No code under ``src/`` records anything: :meth:`Tracer.install` wraps the
public entry points of each layer for the duration of a traced round and
:meth:`Tracer.uninstall` puts the originals back. A span's layer is the
part of its name before the first dot; those prefixes are the module
names:

========== =====================================================
layer      wrapped calls
========== =====================================================
workloads  ``ProgramSpec.build``
specs      ``SystemSpec.build``
sim        ``simulate()`` as the execution layer calls it
pipeline   ``TimedMachine.run``
execution  ``SweepEngine.run_cells``, ``ProgramBuildCache.program_for``
cache      ``ResultCache.get``/``put`` and :class:`TimingBackend`
serve      ``SweepClient.submit_payload``/``events``/``status``
========== =====================================================

Each ``simulate()`` span is named for what it ran: ``sim.first`` (the
first call on a program build, paying the trace walk and per-program
precompute), ``sim.scalar_fallback`` (the batched kernel declined the
system shape), ``sim.perceptron`` (perceptron prophet), else
``sim.hybrid`` or ``sim.single``.

Spans are kept in memory and written out when the run ends. A forked
pool worker inherits the wrappers; its spans are appended to a
per-process file the parent reads back after the pool has shut down.
Self time is a span's duration minus the time its child spans (same
thread) cover.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path

from repro.core.hybrid import ProphetCriticSystem
from repro.pipeline.machine import TimedMachine
from repro.predictors.perceptron import PerceptronPredictor
from repro.serve.client import SweepClient
from repro.sim import batched, execution
from repro.sim.cache import CacheBackend, ResultCache
from repro.sim.execution import ProgramBuildCache, SweepEngine
from repro.sim.specs import ProgramSpec, SystemSpec

LAYERS = ("workloads", "specs", "sim", "pipeline", "execution", "cache", "serve")

#: One recorded span: (id, parent id, name, start, end, self seconds,
#: pid, extra). ``extra`` holds a count where the span carries one
#: (bytes written, simulated cycles).
Span = tuple


class Tracer:
    """Records spans while installed; inert otherwise."""

    def __init__(self, spill_dir: Path) -> None:
        self.spans: list[Span] = []
        self.spill_dir = Path(spill_dir)
        self._owner = os.getpid()
        # next() on a count and list.append are atomic under the GIL, so
        # client threads record without a lock (a lock could also be
        # held at the instant a pool worker forks, wedging the child).
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen_programs: dict[int, weakref.ref] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        if os.getpid() == self._owner:
            self.spans.append(span)
            return
        # A forked pool worker: its memory dies with it, so each span
        # goes to the worker's own file at once.
        path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(span) + "\n")

    def call(self, name, fn, args, kwargs, namer=None, extra_of=None):
        """Run ``fn`` inside a span; ``namer(frame, result)`` may rename it."""
        stack = self._stack()
        span_id = next(self._ids)
        frame = {"id": span_id, "child": 0.0, "fallback": False}
        parent = stack[-1]["id"] if stack else 0
        stack.append(frame)
        start = time.perf_counter()
        result = None
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1]["child"] += end - start
            if namer is not None:
                name = namer(frame, result)
            extra = extra_of(result) if ok and extra_of is not None else None
            self._record((
                span_id, parent, name, start, end,
                end - start - frame["child"], os.getpid(), extra,
            ))

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (it has no child spans)."""
        stack = self._stack()
        parent = stack[-1]["id"] if stack else 0
        self._record((next(self._ids), parent, name, start, end, end - start,
                      os.getpid(), None))

    def mark_fallback(self) -> None:
        stack = self._stack()
        if stack:
            stack[-1]["fallback"] = True

    def first_use(self, program) -> bool:
        """Whether this is the round's first simulate() on ``program``."""
        # Programs are unhashable; key by identity, and hold a weak
        # reference so a recycled id is not mistaken for a seen program.
        seen = self._seen_programs.get(id(program))
        if seen is not None and seen() is program:
            return False
        self._seen_programs[id(program)] = weakref.ref(program)
        return True

    def collect_worker_spans(self) -> None:
        """Fold spans spilled by (now finished) pool workers back in."""
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(tuple(json.loads(line)) for line in handle)
            path.unlink()

    def take(self, since: float) -> list[Span]:
        """Remove and return every span that started at or after ``since``."""
        self.collect_worker_spans()
        taken = [span for span in self.spans if span[3] >= since]
        self.spans = []
        self._seen_programs = {}
        return taken

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, **hooks)

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer's public entry points (see the module doc)."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        ACTIVE[:] = [self]
        tracer = self
        self._wrap(ProgramSpec, "build", "workloads.build")
        self._wrap(SystemSpec, "build", "specs.system_build")
        self._wrap(TimedMachine, "run", "pipeline.run",
                   extra_of=lambda result: result.cycles)
        self._wrap(SweepEngine, "run_cells", "execution.run_cells")
        self._wrap(ProgramBuildCache, "program_for", "execution.program_for")
        self._wrap(ResultCache, "get", "cache.get")
        self._wrap(ResultCache, "put", "cache.put")
        self._wrap(SweepClient, "submit_payload", "serve.submit")
        self._wrap(SweepClient, "status", "serve.fetch")
        original_events = SweepClient.events

        def events(client, job_id):
            # A generator: the span runs from the call to the terminal
            # event. Reading on to end of stream would hang: pool workers
            # forked while the stream was open hold its socket.
            start = time.perf_counter()
            done = False
            try:
                for event in original_events(client, job_id):
                    if event.get("event") == "done":
                        tracer.record("serve.wait", start, time.perf_counter())
                        done = True
                    yield event
            finally:
                if not done:
                    tracer.record("serve.wait", start, time.perf_counter())

        self._patch(SweepClient, "events", events)

        original_simulate = execution.simulate

        def simulate(program, system, config=None):
            first = tracer.first_use(program)

            hybrid = isinstance(system, ProphetCriticSystem)
            prophet = system.prophet if hybrid else getattr(system, "predictor", None)

            def namer(frame, _result):
                if first:
                    return "sim.first"
                if frame["fallback"]:
                    return "sim.scalar_fallback"
                if isinstance(prophet, PerceptronPredictor):
                    return "sim.perceptron"
                return "sim.hybrid" if hybrid else "sim.single"

            return tracer.call("sim", original_simulate, (program, system, config), {},
                               namer=namer)

        self._patch(execution, "simulate", simulate)
        original_batched = batched.simulate_batched

        def simulate_batched(*args, **kwargs):
            result = original_batched(*args, **kwargs)
            if result is None:
                tracer.mark_fallback()
            return result

        self._patch(batched, "simulate_batched", simulate_batched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []
        ACTIVE.clear()


class TimingBackend(CacheBackend):
    """Times the bytes layer under a :class:`ResultCache`.

    Slid in between the cache's codec and its real storage, where chaos
    mode puts its fault injector. Picklable, so it travels with the
    cache to pool workers, whose puts are timed too.
    """

    def __init__(self, inner: CacheBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def __getstate__(self):
        return {"inner": self.inner}

    def __setstate__(self, state):
        self.inner = state["inner"]
        self.tracer = ACTIVE[0]

    def get_bytes(self, key: str) -> bytes | None:
        return self.tracer.call("cache.backend_get", self.inner.get_bytes, (key,), {})

    def put_bytes(self, key: str, data: bytes) -> None:
        self.tracer.call("cache.backend_put", self.inner.put_bytes, (key, data), {},
                         extra_of=lambda _result: len(data))

    def discard(self, key: str) -> None:
        self.inner.discard(key)

    def location(self) -> str:
        return f"timed:{self.inner.location()}"


#: The tracer a forked worker's unpickled :class:`TimingBackend` reports
#: to (a worker inherits the parent's, which spills to files there).
ACTIVE: list[Tracer] = []


def summarise(spans: list[Span]) -> dict:
    """Per-name totals: seconds, self seconds, calls, summed extra."""
    totals: dict[str, dict] = defaultdict(
        lambda: {"seconds": 0.0, "self": 0.0, "calls": 0, "extra": 0}
    )
    for _id, _parent, name, start, end, self_s, _pid, extra in spans:
        entry = totals[name]
        entry["seconds"] += end - start
        entry["self"] += self_s
        entry["calls"] += 1
        entry["extra"] += extra or 0
    return dict(totals)


def layer_self_seconds(totals: dict) -> dict[str, float]:
    """Self seconds per layer (a name's prefix before the first dot)."""
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, entry in totals.items():
        layers[name.split(".", 1)[0]] += entry["self"]
    return layers


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write spans as JSON lines (the run's trace file)."""
    keys = ("id", "parent", "name", "start", "end", "self_s", "pid", "extra")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")
