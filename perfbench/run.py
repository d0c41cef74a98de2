"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload departure --seed 1 --seconds 30 --trace 0

The run repeats short *passes* of the workload (see ``workloads.py``)
until ``--seconds`` of wall time are used up.  Every host time is CPU
time of this single-threaded process (``workloads.clock``), and every
host-time metric takes the fastest repetition over passes of what it
times (see :func:`end_to_end`).  An untraced pass sets its instances up
several times back to back (``Workload.setups``), so ``setup_s`` never
rests on one short build.  ``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracing.py``), with the
tracing overhead measured against the untraced ones.

Every pass is checked: each instance reaches legitimacy within its
budget, the struct-of-arrays core is on where it should be and off where
the transport forbids it, churn requests never break searchability, and
all passes produce identical simulated outputs.  Seeds recorded in
``fingerprints.json`` must also reproduce the recorded outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"

#: per-layer metrics read off the tracer, named ``<span>.<field>``: the
#: span's median ``self_s``, its ``calls``, or its summed results
#: (``steps`` of ``soa.run_batch``).
SPAN_METRICS = (
    "soa.run_batch.self_s",
    "soa.run_batch.steps",
    "soa.export_to.self_s",
    "soa.export_to.calls",
    "soa.splice.self_s",
    "soa.make_driver.calls",
    "soa.core_build.self_s",
    "livegraph.build.calls",
    "livegraph.build.self_s",
    "livegraph.same_component.self_s",
    "livegraph.partners.calls",
    "livegraph.deltas.self_s",
    "traffic.boundary.self_s",
    "traffic.hops.self_s",
    "engine.step.calls",
    "engine.step.self_s",
    "engine.attach.self_s",
    "engine.admit.self_s",
    "engine.reap.self_s",
    "net.on_post.self_s",
    "net.flush.self_s",
    "net.run_dry.self_s",
    "net.fate.calls",
    "potential.legitimate.calls",
    "potential.legitimate.self_s",
    "watchdogs.check.self_s",
    "scenarios.build.self_s",
)
#: the spans that have a metric of their own.  ``trace.coverage`` counts
#: only their self time: the root span, and spans such as ``engine.run``
#: or ``traffic.run`` that enclose a whole run phase, would otherwise
#: count time that no layer metric accounts for as covered.
LAYER_SPANS = frozenset(metric.rsplit(".", 1)[0] for metric in SPAN_METRICS)


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _die(f"no program source under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        _die(f"imported repro from {repro.__file__}, not from this checkout")


def tick_percentile(groups: list[list[float]], q: int) -> float:
    """Geometric mean over instances of each one's ``q``-th percentile tick.

    Instances of a pass tick at different rates (an FSP tick costs several
    FDP ticks), so a percentile of their pooled ticks would fall in the
    gap between them and move with each seed's mix of steps.
    """
    values = [statistics.quantiles(g, n=100, method="inclusive")[q - 1] for g in groups]
    return statistics.geometric_mean(values)


def fastest(repetitions) -> list[float]:
    """Each position's fastest time over repetitions of one timed sequence.

    Passes repeat identical work, so the ``i``-th tick (or set-up) of every
    pass times the same computation, and a shared host only ever makes it
    slower.
    """
    return [min(column) for column in zip(*repetitions)]


def fingerprint(outputs: dict) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    passes: list = field(default_factory=list)  # untraced PassResults
    pass_s: list[float] = field(default_factory=list)  # their CPU seconds
    tracers: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # traced PassResults
    once: dict = field(default_factory=dict)  # once-per-run outputs
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def outputs(self) -> dict:
        return {"pass": self.passes[0].outputs, "once": self.once}


def measure(workload, seconds: float, trace: bool) -> Run:
    """Repeat passes of ``workload`` for about ``seconds`` wall seconds.

    A run makes at least one pass (one untraced and one traced pass with
    ``trace``), and starts no pass that its median pass time says would
    end after ``seconds``.  So a run ends near ``seconds`` however slow
    the host is; a slow host gives it fewer passes, not more time.
    """
    from perfbench.tracing import Tracer, traced
    from perfbench.workloads import clock

    run = Run()
    start = time.perf_counter()
    rounds: list[float] = []
    while True:
        round_start = time.perf_counter()
        gc.collect()
        t0 = clock()
        # Traced runs set up once per pass, like the traced passes they
        # are compared with.
        instances, result = workload.one_pass(1 if trace else workload.setups)
        run.pass_s.append(clock() - t0)
        run.passes.append(result)
        if len(run.passes) == 1:
            # The once-per-run checks are not part of the measured time.
            finish_start = time.perf_counter()
            run.once, failures = workload.finish(instances)
            finish_s = time.perf_counter() - finish_start
            start += finish_s
            round_start += finish_s
            run.failures.extend(failures)
            run.failed += len(failures)
        del instances
        if trace:
            gc.collect()
            tracer = Tracer(clock)
            with traced(tracer):
                instances, result = tracer.root(workload.one_pass)
            del instances
            run.tracers.append(tracer)
            run.traced.append(result)
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now - start + statistics.median(rounds) > seconds:
            break
    first = run.passes[0].outputs
    for result in run.passes + run.traced:
        run.failures.extend(result.failures)
        run.attempted += result.attempted
        run.failed += result.failed
        if result.outputs != first:
            run.failures.append("simulated outputs differ between passes of one seed")
    return run


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of the untraced passes.

    Every host time takes its fastest repetition over the passes: each
    instance's fastest run for ``steps_per_s``, and the fastest repetition
    of each tick and of each set-up for the percentiles and the median.
    A shared host's bursts of contention only ever slow a repetition
    down, so the fastest is the one they missed, while a median over
    passes moves with how much of the run they cover.
    """
    passes = run.passes
    names = list(passes[0].ticks)
    steps = passes[0].steps
    run_s = {name: min(p.run_s[name] for p in passes) for name in names}
    ticks = [fastest(p.ticks[name] for p in passes) for name in names]
    nets = [out["net"] for out in passes[0].outputs.values() if "net" in out]
    sends = sum(net["sends"] for net in nets)
    frames = sends + sum(net["retransmits"] for net in nets)
    return {
        "setup_s": (statistics.median(fastest(p.setup_s for p in passes)), "s"),
        # Steps per second of a mix with equal steps of every instance.
        "steps_per_s": (len(names) / sum(run_s[k] / steps[k] for k in names), "1/s"),
        "tick_p50_ms": (1e3 * tick_percentile(ticks, 50), "ms"),
        "tick_p95_ms": (1e3 * tick_percentile(ticks, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # Without a transport every paper message is exactly one frame.
        "frames_per_msg": (frames / sends if sends else 1.0, "frames/msg"),
    }


def coverage(tracer) -> float:
    """Share of a traced pass spent in the self time of :data:`LAYER_SPANS`."""
    covered = sum(v for name, v in tracer.self_s.items() if name in LAYER_SPANS)
    return covered / tracer.total_s


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    tracers = run.tracers
    metrics: dict[str, tuple[float, str]] = {}
    for metric in SPAN_METRICS:
        span, kind = metric.rsplit(".", 1)
        if kind == "self_s":
            value = statistics.median(t.self_s.get(span, 0.0) for t in tracers)
            metrics[metric] = (value, "s")
        elif kind == "calls":
            metrics[metric] = (tracers[0].calls.get(span, 0), "count")
        else:
            metrics[metric] = (tracers[0].results.get(span, 0), "count")
    metrics["soa.kernel_share"] = (
        statistics.median(t.self_s.get("soa.run_batch", 0.0) / t.total_s for t in tracers),
        "fraction",
    )
    outputs = run.traced[0].outputs.values()
    nets = [out["net"] for out in outputs if "net" in out]
    traffic = [out["traffic"] for out in outputs if "traffic" in out]
    counts = {
        "traffic.requests": sum(t["requests_issued"] for t in traffic),
        "traffic.churn_ops": sum(t["joins"] + t["leaves"] + t["reaps"] for t in traffic),
        "net.retransmits": sum(n["retransmits"] for n in nets),
        "net.deduped": sum(n["deduped"] for n in nets),
        "net.acks": sum(n["acks"] for n in nets),
        "watchdogs.trips": sum(
            step is not None for out in outputs for _, step in out.get("trips", ())
        ),
    }
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["trace.coverage"] = (statistics.median(map(coverage, tracers)), "fraction")
    metrics["trace.overhead_frac"] = (
        statistics.median(t.total_s for t in tracers) / statistics.median(run.pass_s) - 1,
        "fraction",
    )
    return metrics


def layer_table(tracers: list) -> list[str]:
    """Median self time, share and calls of every span, largest first."""
    names = {name for t in tracers for name in t.self_s}
    total = statistics.median(t.total_s for t in tracers)
    rows = sorted(
        ((statistics.median(t.self_s.get(n, 0.0) for t in tracers), n) for n in names),
        reverse=True,
    )
    lines = [f"{'span':<28}{'self_s':>10}{'share':>8}{'calls':>12}"]
    for self_s, name in rows:
        calls = tracers[0].calls.get(name, 0)
        lines.append(f"{name:<28}{self_s:>10.4f}{self_s / total:>8.1%}{calls:>12}")
    return lines


def check_fingerprint(name: str, seed: int, got: str) -> list[str]:
    recorded = json.loads(FINGERPRINTS.read_text()).get(name, {}).get(str(seed))
    if recorded is not None and recorded != got:
        return [f"simulated outputs of seed {seed} changed: {got} != recorded {recorded}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ignore-fingerprint",
        action="store_true",
        help="do not compare with fingerprints.json (check.py --record re-records it)",
    )
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    setup_start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    print(f"scenario generated in {time.perf_counter() - setup_start:.3f} s")
    run = measure(workload, args.seconds, bool(args.trace))
    fp = fingerprint(run.outputs)
    if not args.ignore_fingerprint:
        run.failures.extend(check_fingerprint(args.workload, args.seed, fp))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    ticks = sum(len(t) for p in run.passes for t in p.ticks.values())
    print(
        f"{args.workload} seed={args.seed}: {len(run.passes)} passes"
        f" ({len(run.traced)} traced), {ticks} tick samples, fingerprint {fp}"
    )
    if args.trace:
        print("\n".join(layer_table(run.tracers)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {unit}")
    for failure in run.failures:
        print(f"FAILED CHECK: {failure}")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
