#!/usr/bin/env python3
"""Self-tests of the benchmark (run.py and its modules), on tiny sizes.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (puts src/ on the path)
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import HtapMixed, OlapScan, ServeMix  # noqa: E402


def tiny(name: str, seed: int = 3):
    """A workload small enough to run in a few seconds."""
    if name == "olap-scan":
        workload = OlapScan(seed, scale=0.0005, prefix_requests=12)
    elif name == "serve-mix":
        workload = ServeMix(seed, scale=0.0005, update_every=3,
                            prefix_requests=6)
    else:
        workload = HtapMixed(seed, scale=0.0005, kv_rows=4_000,
                             warm_erases=0, prefix_requests=3)
    workload.setups = 1
    return workload


def run_tiny(name: str, trace: bool, seed: int = 3, trace_dir=None):
    return bench.run(tiny(name, seed), seconds=0.0, trace=trace,
                     trace_dir=trace_dir)


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER
    prefixes = {name.split(".")[0] for name in bench.PER_LAYER}
    assert prefixes - {"trace"} <= set(LAYERS)
    for spec in LAYERS.values():
        assert set(spec["should_move"]) <= set(bench.END_TO_END)


def test_every_metric_present_with_a_unit():
    for name in bench.WORKLOADS:
        for trace in (False, True):
            out = run_tiny(name, trace)
            with contextlib.redirect_stdout(io.StringIO()):
                result = bench.report(out, trace)
            expected = bench.PER_LAYER if trace else bench.END_TO_END
            assert set(result["metrics"]) == set(expected), name
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float))
                assert metric["unit"]
            assert result["correct"], out["problems"]
            assert result["attempted"] >= 1


def test_spans_nest_and_the_trace_validates():
    with tempfile.TemporaryDirectory() as tmp:
        out = run_tiny("htap-mixed", trace=True, trace_dir=Path(tmp))
        assert out["problems"] == []
        payload = json.loads(Path(out["trace_file"]).read_text())
    from repro.obs.export import validate_chrome_trace
    assert validate_chrome_trace(payload)["X"] > 0


def test_tracer_rejects_spans_that_escape_their_parent():
    tracer = Tracer()
    root = tracer.begin_op(0)
    child = tracer.enter(tracer.name_id("sim:x", "sim"))
    tracer.exit(child)
    tracer.end_op(root)
    assert tracer.check({0: 10.0}) == []
    nid, start, end, parent, op, __ = tracer.spans[1]
    tracer.spans[1] = (nid, start, end + 5.0, parent, op, 5.0)
    assert any("escapes" in p for p in tracer.check({0: 10.0}))
    assert any("exceeds" in p for p in tracer.check({0: 1.0}))


def test_oracle_catches_a_corrupted_row():
    for name in ("olap-scan", "serve-mix", "htap-mixed"):
        workload = tiny(name)
        world = workload.build()
        records = [record for __ in range(workload.prefix_requests)
                   for record in workload.request(world)]
        assert workload.check(workload.build(), records) == []
        victim = next(r for r in records if isinstance(r.result, list))
        row = victim.result[0]
        key = next(k for k, v in row.items() if isinstance(v, (int, float)))
        row[key] += 1
        problems = workload.check(workload.build(), records)
        assert len(problems) == 1, (name, problems)


def test_same_seed_repeats_exactly_and_another_seed_runs_clean():
    for name in bench.WORKLOADS:
        first = run_tiny(name, trace=True)
        second = run_tiny(name, trace=True)
        assert first["digest"] == second["digest"], name
        for metric in ("sim_ops_per_vs", "sim_latency_p90_ms",
                       "sim_energy_j_per_op", "write_amplification"):
            assert first["end_to_end"][metric] \
                == second["end_to_end"][metric], (name, metric)
        for metric, value in first["per_layer"].items():
            if not metric.endswith("self_s") and \
                    not metric.startswith("trace."):
                assert value == second["per_layer"][metric], (name, metric)
        other = run_tiny(name, trace=False, seed=4)
        assert other["failed"] == 0 and other["digest"] != first["digest"]


if __name__ == "__main__":
    tests = [value for key, value in sorted(globals().items())
             if key.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
