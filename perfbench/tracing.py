"""Outside-in per-layer tracing for the benchmark.

Each ``repro`` layer's public entry points are wrapped, for the length of
one traced pass, with a span that records time on the tracer's clock
(the benchmark passes its CPU-time clock).  Nothing under
``src/`` changes: :func:`traced` patches the class or module attributes
that ``_layers`` lists and puts the originals back on exit, so the
untraced passes run the unmodified program.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of all spans in a pass add up to the pass's
root span.  Spans are aggregated per name as they close (self seconds,
calls, and optionally the summed return value), which keeps memory flat
however many million calls a pass makes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

ROOT_SPAN = "bench.pass"

_MISSING = object()


class Tracer:
    """Per-name span aggregates with exact self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: one ``[covered-by-children seconds]`` cell per open span.
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        #: summed return values of spans wrapped with ``count_result``.
        self.results: defaultdict[str, int] = defaultdict(int)
        #: summed duration of the spans opened with no span open.
        self.total_s = 0.0

    def wrap(
        self, name: str, fn: Callable[..., Any], *, count_result: bool = False
    ) -> Callable[..., Any]:
        stack, clock = self._stack, self.clock
        self_s, calls, results = self.self_s, self.calls, self.results
        tracer = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if count_result:
                    results[name] += out
                return out
            finally:
                dur = clock() - start
                stack.pop()
                self_s[name] += dur - cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.total_s += dur

        return span

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside the :data:`ROOT_SPAN` span."""
        return self.wrap(ROOT_SPAN, fn)()


def _layers() -> dict[str, list[tuple[Any, str, bool]]]:
    """Layer span name -> ``(owner, attribute, count_result)`` targets."""
    from repro.chaos import watchdogs
    from repro.core import scenarios
    from repro.graphs.livegraph import LiveGraph
    from repro.net.reliable import ReliableTransport
    from repro.net.underlay import Underlay
    from repro.sim import soa
    from repro.sim.engine import Engine
    from repro.traffic.driver import TrafficDriver

    # ``repro.core`` exports a function named ``potential``, which shadows
    # the submodule as an attribute.
    potential = importlib.import_module("repro.core.potential")
    core = soa.EngineCore
    return {
        # core.scenarios
        "scenarios.build": [
            (scenarios, "build_fdp_engine", False),
            (scenarios, "build_fsp_engine", False),
        ],
        # sim.engine
        "engine.attach": [(Engine, "attach", False)],
        "engine.run": [(Engine, "run", False)],
        "engine.step": [(Engine, "step", False)],
        "engine.admit": [(Engine, "admit", False)],
        "engine.reap": [(Engine, "reap", False)],
        "engine.request_leave": [(Engine, "request_leave", False)],
        # sim.soa
        "soa.core_build": [(core, "__init__", False)],
        "soa.make_driver": [(soa, "make_driver", False)],
        "soa.run_batch": [(core, "run_batch", True)],
        "soa.export_to": [(core, "export_to", False)],
        "soa.splice": [
            (soa._RandomMirror, "splice", False),  # noqa: SLF001
            (soa._ObjectSchedDriver, "splice", False),  # noqa: SLF001
            (soa._ReplayDriver, "splice", False),  # noqa: SLF001
        ],
        # graphs.livegraph
        "livegraph.build": [(LiveGraph, "_build", False)],
        "livegraph.deltas": [
            (LiveGraph, "on_enqueue", False),
            (LiveGraph, "on_dequeue", False),
        ],
        "livegraph.same_component": [(LiveGraph, "same_component", False)],
        "livegraph.partners": [(LiveGraph, "partners", False)],
        # traffic
        "traffic.init": [(TrafficDriver, "__init__", False)],
        "traffic.run": [(TrafficDriver, "run", False)],
        "traffic.boundary": [(TrafficDriver, "_boundary", False)],
        "traffic.hops": [(TrafficDriver, "_hops", False)],
        # net
        "net.install": [(ReliableTransport, "install", False)],
        "net.on_post": [(ReliableTransport, "on_post", False)],
        "net.flush": [(ReliableTransport, "flush", False)],
        "net.run_dry": [(ReliableTransport, "run_dry", False)],
        "net.fate": [(Underlay, "fate", False)],
        # core.potential
        "potential.legitimate": [
            (potential, "fdp_legitimate", False),
            (potential, "fsp_legitimate", False),
        ],
        # chaos.watchdogs
        "watchdogs.check": [(watchdogs.Watchdog, "__call__", False)],
    }


def targets() -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` that :func:`traced` patches."""
    return [
        (owner, attr) for spec in _layers().values() for owner, attr, _ in spec
    ]


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point in a span of ``tracer``; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for name, spec in _layers().items():
            for owner, attr, count_result in spec:
                saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                original = getattr(owner, attr)
                setattr(owner, attr, tracer.wrap(name, original, count_result=count_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
