"""The benchmark's three workloads.

Each workload turns ``--seed`` into a generated scenario (graph, leaving
set, scheduler/net/traffic seeds) once, then runs *passes* over it.  A
pass builds every instance from the scenario (the set-up phase), runs
them (the run phase) and collects their simulated outputs.  Passes of one
run repeat identical work, so their host times differ only by host noise
and their simulated outputs must be identical.

The program is always reached through module attributes looked up at
call time (``scenarios.build_fdp_engine``, ``potential.fdp_legitimate``),
so a traced pass sees the span-wrapped entry points.
"""

from __future__ import annotations

import gc
import importlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.chaos.watchdogs import RetransmitStormWatchdog, default_watchdogs
from repro.core import scenarios
from repro.graphs import generators as gen
from repro.net import ReliableTransport, default_net_config
from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver

#: the clock of every host-time metric: CPU seconds of this process.  The
#: program is single-threaded and does no I/O, so on an unshared machine
#: this is its wall time; on a shared virtual machine it leaves out the
#: time the hypervisor gave this machine's CPU to others, which can be
#: most of the wall time and changes from minute to minute.
clock = time.process_time
#: the module, not the function ``repro.core`` exports under the same name.
potential = importlib.import_module("repro.core.potential")

#: the open-system mix of ``benchmarks/bench_churn.py`` (copied, so the
#: benchmark does not move when that file does): Pareto sessions, flash
#: crowds and mass departures, calibrated there for a roughly stable
#: n=4096 population.  From the benchmark's n=2048 the population grows.
CHURN_ARRIVALS = dict(
    join_rate=160.0,
    session_min=8_192.0,
    flash_crowd_prob=0.02,
    flash_crowd_size=32,
    mass_departure_prob=0.01,
    mass_departure_frac=0.02,
    max_population=4_608,
)
CHURN_REQUEST_RATE = 200.0


@dataclass(frozen=True)
class Graph:
    """One generated input: an overlay, who leaves it, a scheduler seed."""

    edges: Any
    leaving: Any
    sched_seed: int


@dataclass
class Instance:
    """One engine of a pass, with what its run needs and produced."""

    name: str
    engine: Any
    until: str | None = None  # predicate name in repro.core.potential
    transport: Any = None
    watchdogs: tuple = ()
    driver: Any = None
    reached: bool | None = None


@dataclass
class PassResult:
    #: seconds of each set-up of the pass's instances.
    setup_s: list[float] = field(default_factory=list)
    #: per instance: run-phase seconds, executed steps and tick samples.
    run_s: dict[str, float] = field(default_factory=dict)
    steps: dict[str, int] = field(default_factory=dict)
    ticks: dict[str, list[float]] = field(default_factory=dict)
    #: simulated outputs of every instance — identical on every pass.
    outputs: dict[str, dict] = field(default_factory=dict)
    #: output-check failures (empty when the pass is correct).
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _ticking(pred: Callable, ticks: list[float]) -> Callable:
    """The predicate, recording host time between consecutive checks."""
    last: float | None = None

    def until(engine: Any) -> bool:
        nonlocal last
        now = clock()
        if last is not None:
            ticks.append(now - last)
        last = now
        return pred(engine)

    return until


def _engine_outputs(engine: Any) -> dict:
    return {
        "steps": engine.step_count,
        "stats": engine.stats.as_dict(),
        "pending": engine.pending_count,
    }


class Workload:
    """Shared scenario and pass machinery; subclasses build and run the
    instances."""

    name = ""
    #: legitimacy budget of every run-to-legitimacy instance.
    budget = 2_000_000
    #: whether the struct-of-arrays core must drive the instances.
    core_active = True
    #: the scenario: graphs, their processes, chords beyond a random tree,
    #: leaving share.  Several smaller graphs rather than one large one
    #: make a pass's mix of protocol phases (and so its ticks) depend
    #: less on the seed.
    graph_count = 1
    size = 384
    min_extra_edges = 32
    leaving_fraction = 0.25
    #: set-ups per untraced pass, back to back, so that a pass's set-up
    #: phase (one ``setup_s`` sample) lasts about 0.3 s or more and never
    #: times one short build alone.
    setups = 3

    def __init__(self, seed: int, n: int | None = None) -> None:
        n = self.size if n is None else n
        self.rng = Random(f"perfbench:{self.name}:{seed}")
        self.n = n
        self.check_every = n
        self.graphs = [self._graph() for _ in range(self.graph_count)]

    def _graph(self) -> Graph:
        extra = max(self.min_extra_edges, self.n // 128)
        edges = gen.random_connected(self.n, extra, seed=self.rng.randrange(2**31))
        leaving = scenarios.choose_leaving(
            self.n, edges, fraction=self.leaving_fraction, seed=self.rng.randrange(2**31)
        )
        return Graph(edges, leaving, self.rng.randrange(2**31))

    def setup(self) -> list[Instance]:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, inst: Instance, ticks: list[float]) -> None:
        pred = _ticking(getattr(potential, inst.until), ticks)
        inst.reached = inst.engine.run(self.budget, until=pred, check_every=self.check_every)

    def outputs(self, inst: Instance) -> dict:
        return {"reached": inst.reached, **_engine_outputs(inst.engine)}

    def check(self, inst: Instance) -> list[str]:
        """Output checks of one instance after its run."""
        failures = []
        if inst.until is not None and not inst.reached:
            failures.append(
                f"{inst.name}: no legitimacy within {self.budget} steps"
            )
        status = inst.engine.core_status
        if self.core_active and not status["active"]:
            failures.append(
                f"{inst.name}: struct-of-arrays core inactive ({status['reason']})"
            )
        if not self.core_active and (
            status["active"] or "transport" not in str(status["reason"])
        ):
            failures.append(
                f"{inst.name}: core should be off for the transport, got {status}"
            )
        return failures

    def requests(self, inst: Instance) -> tuple[int, int]:
        """``(attempted, failed)`` requests of one instance."""
        return 0, 0

    def finish(self, instances: list[Instance]) -> tuple[dict, list[str]]:
        """Once-per-run checks on the first pass's instances, after its
        outputs are taken: ``(simulated outputs, failures)``."""
        return {}, []

    def one_pass(self, setups: int = 1) -> tuple[list[Instance], PassResult]:
        """Set up ``setups`` times (keeping the last instances), then run."""
        result = PassResult()
        for i in range(setups):
            if i:
                del instances
                gc.collect()
            start = clock()
            instances = self.setup()
            result.setup_s.append(clock() - start)
        for inst in instances:
            ticks: list[float] = []
            start = clock()
            self.run(inst, ticks)
            result.run_s[inst.name] = clock() - start
            result.steps[inst.name] = inst.engine.step_count
            result.ticks[inst.name] = ticks
        for inst in instances:
            result.outputs[inst.name] = self.outputs(inst)
            failures = self.check(inst)
            req_attempted, req_failed = self.requests(inst)
            result.attempted += 1 + req_attempted
            result.failed += bool(failures) + req_failed
            if req_failed:
                failures.append(f"{inst.name}: {req_failed} requests broke searchability")
            result.failures.extend(failures)
        return instances, result


class Departure(Workload):
    """Closed-system FDP and FSP to legitimacy on the struct-of-arrays core."""

    name = "departure"
    graph_count = 3

    def setup(self) -> list[Instance]:
        instances = []
        for i, graph in enumerate(self.graphs):
            for kind in ("fdp", "fsp"):
                build = getattr(scenarios, f"build_{kind}_engine")
                engine = build(
                    self.n,
                    graph.edges,
                    graph.leaving,
                    seed=graph.sched_seed,
                    engine_mode="soa",
                )
                engine.attach()
                instances.append(Instance(f"{kind}{i}", engine, until=f"{kind}_legitimate"))
        return instances


class Lossy(Workload):
    """FDP and FSP to legitimacy over a lossy underlay with the reliable
    transport and the supervised soak watchdogs, on the object loop."""

    name = "lossy"
    core_active = False
    budget = 1_000_000
    min_extra_edges = 8
    setups = 12

    def __init__(self, seed: int, n: int | None = None) -> None:
        super().__init__(seed, n)
        self.net_config = default_net_config(
            self.rng.randrange(2**31), loss=0.1, dup=0.1, delay=0.1
        )

    def setup(self) -> list[Instance]:
        instances = []
        (graph,) = self.graphs
        for kind in ("fdp", "fsp"):
            dogs = default_watchdogs(raise_on_trip=False) + (
                RetransmitStormWatchdog(raise_on_trip=False),
            )
            build = getattr(scenarios, f"build_{kind}_engine")
            engine = build(
                self.n,
                graph.edges,
                graph.leaving,
                seed=graph.sched_seed,
                monitors=dogs,
                engine_mode="soa",
            )
            transport = ReliableTransport.from_config(self.net_config).install(engine)
            engine.attach()
            instances.append(
                Instance(
                    kind,
                    engine,
                    until=f"{kind}_legitimate",
                    transport=transport,
                    watchdogs=dogs,
                )
            )
        return instances

    def outputs(self, inst: Instance) -> dict:
        return {
            **super().outputs(inst),
            "net": inst.transport.stats.as_dict(),
            "trips": [
                [dog.kind, dog.tripped.step if dog.tripped else None]
                for dog in inst.watchdogs
            ],
        }


class Churn(Workload):
    """The open-system churn + request mix on the struct-of-arrays core,
    driven one default-size chunk per call so every boundary is a tick."""

    name = "churn"
    graph_count = 2
    size = 2048
    chunk = 256
    leaving_fraction = 0.05
    setups = 2

    def __init__(self, seed: int, n: int | None = None, vsteps: int = 4096) -> None:
        super().__init__(seed, n)
        self.vsteps = vsteps
        self.traffic_seeds = [self.rng.randrange(2**31) for _ in self.graphs]

    def setup(self) -> list[Instance]:
        instances = []
        for i, (graph, traffic_seed) in enumerate(zip(self.graphs, self.traffic_seeds)):
            engine = scenarios.build_fdp_engine(
                self.n, graph.edges, graph.leaving, seed=graph.sched_seed, engine_mode="soa"
            )
            engine.attach()
            driver = TrafficDriver(
                engine,
                arrivals=ArrivalConfig(**CHURN_ARRIVALS),
                requests=RequestConfig(rate=CHURN_REQUEST_RATE, latency_sample_every=64),
                seed=traffic_seed,
                chunk=self.chunk,
            )
            instances.append(Instance(f"churn{i}", engine, driver=driver))
        return instances

    def run(self, inst: Instance, ticks: list[float]) -> None:
        for _ in range(self.vsteps // self.chunk):
            start = clock()
            inst.driver.run(self.chunk)
            ticks.append(clock() - start)

    def finish(self, instances: list[Instance]) -> tuple[dict, list[str]]:
        # Once churn stops the overlay must still reach FDP legitimacy.
        # Checked once per run: the drain is not part of the timed mix.
        outputs, failures = {}, []
        for inst in instances:
            reached = inst.engine.run(
                self.budget,
                until=potential.fdp_legitimate,
                check_every=self.check_every,
            )
            outputs[inst.name] = {"reached": reached, **_engine_outputs(inst.engine)}
            if not reached:
                failures.append(
                    f"{inst.name}: no legitimacy within {self.budget} steps after churn"
                )
        return outputs, failures

    def outputs(self, inst: Instance) -> dict:
        return {**_engine_outputs(inst.engine), "traffic": inst.driver.stats.as_dict()}

    def requests(self, inst: Instance) -> tuple[int, int]:
        stats = inst.driver.stats
        return stats.requests_issued, stats.searchability_violations


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Departure, Churn, Lossy)
}
