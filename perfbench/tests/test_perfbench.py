"""Tests of the benchmark's own code, on scenarios small enough to run in
seconds.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json

import pytest

from perfbench import check
from perfbench import run as bench

bench._import_program()

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Churn, Departure, Lossy  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

#: each workload at a size that runs a pass in well under a second.
SMALL = {
    "departure": functools.partial(Departure, n=64),
    "churn": functools.partial(Churn, n=64, vsteps=1024),
    "lossy": functools.partial(Lossy, n=32),
}


def test_self_times_telescope_with_a_scripted_clock():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", inner)
    tracer.root(outer)
    assert dict(tracer.self_s) == {"inner": 3.0, "outer": 3.0, tracing.ROOT_SPAN: 4.0}
    assert tracer.total_s == 10.0


def test_fastest_takes_each_positions_minimum_over_repetitions():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 5.0], [9.0, 1.5, 0.5]]
    assert bench.fastest(passes) == [2.0, 1.0, 0.5]


def test_coverage_counts_only_spans_with_a_layer_metric():
    # root 0-10 > engine.run 1-7 > soa.run_batch 2-5: only the kernel's
    # 3 s count, not the 3 s engine.run spends outside it.
    ticks = iter([0.0, 1.0, 2.0, 5.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    kernel = tracer.wrap("soa.run_batch", lambda: None)
    tracer.root(tracer.wrap("engine.run", kernel))
    assert "soa.run_batch" in bench.LAYER_SPANS
    assert "engine.run" not in bench.LAYER_SPANS
    assert bench.coverage(tracer) == pytest.approx(0.3)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_self_times_telescope_to_the_root(name):
    workload = SMALL[name](seed=3)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        tracer.root(workload.one_pass)
    assert tracer.calls[tracing.ROOT_SPAN] == 1
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s, rel=1e-9)
    assert all(value >= 0 for value in tracer.self_s.values())
    assert len(tracer.self_s) > 5


def _installed():
    return [vars(owner).get(attr, tracing._MISSING) for owner, attr in tracing.targets()]


def test_wrappers_are_restored_and_untraced_passes_are_not_traced():
    before = _installed()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        during = _installed()
        _, traced = tracer.root(SMALL["churn"](seed=3).one_pass)
    assert all(b is not d for b, d in zip(before, during, strict=True))
    assert all(b is a for b, a in zip(before, _installed(), strict=True))
    counted = dict(tracer.calls)
    untraced = [make(seed=3).one_pass()[1] for make in SMALL.values()]
    assert dict(tracer.calls) == counted
    assert untraced[list(SMALL).index("churn")].outputs == traced.outputs


def test_wrappers_are_restored_when_the_pass_raises():
    before = _installed()
    with pytest.raises(RuntimeError), tracing.traced(tracing.Tracer()):
        raise RuntimeError("pass failed")
    assert all(b is a for b, a in zip(before, _installed(), strict=True))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_passes_are_correct_and_repeat_exactly(name):
    first = SMALL[name](seed=3).one_pass()[1]
    again = SMALL[name](seed=3).one_pass()[1]
    other = SMALL[name](seed=4).one_pass()[1]
    assert first.failures == []
    assert first.failed == 0
    assert first.outputs == again.outputs
    assert first.outputs != other.outputs


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_printed_metrics_match_the_benchmark_spec(name, trace, section, capsys, monkeypatch):
    monkeypatch.setitem(WORKLOADS, name, SMALL[name])
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_default_seed_fingerprint_is_recorded_for_every_workload():
    recorded = json.loads(bench.FINGERPRINTS.read_text())
    assert set(recorded) == set(WORKLOADS)
    assert all(str(check.DEFAULT_SEED) in seeds for seeds in recorded.values())


def test_a_changed_fingerprint_fails_the_run_unless_ignored(capsys, monkeypatch, tmp_path):
    recorded = tmp_path / "fingerprints.json"
    recorded.write_text(json.dumps({"lossy": {"3": "0" * 16}}))
    monkeypatch.setattr(bench, "FINGERPRINTS", recorded)
    monkeypatch.setitem(WORKLOADS, "lossy", SMALL["lossy"])
    argv = ["--workload", "lossy", "--seed", "3", "--seconds", "0", "--trace", "0"]
    for extra, correct in (([], False), (["--ignore-fingerprint"], True)):
        assert bench.main(argv + extra) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is correct


def test_a_changed_fingerprint_fails_the_check():
    recorded = json.loads(bench.FINGERPRINTS.read_text())["lossy"]
    seed, fp = next(iter(recorded.items()))
    assert bench.check_fingerprint("lossy", int(seed), fp) == []
    assert bench.check_fingerprint("lossy", int(seed), "0" * 16) != []
    assert bench.check_fingerprint("lossy", 123456, "0" * 16) == []
