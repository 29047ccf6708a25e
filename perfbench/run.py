#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root::

    python3 perfbench/run.py --workload olap-scan --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is the separate
traced run and prints every per-layer metric, a per-layer self-time table,
and writes the spans as a chrome trace under ``.bench_out/``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The command exits
non-zero when any op raised or returned rows that differ from the oracle.

One run builds the world, warms it up where the workload needs it, then
sends requests closed-loop until both ``--seconds`` have passed and the
workload's deterministic prefix of requests has run. Host-time metrics
cover every op of the timed window; ``ops_per_s`` counts the host seconds
spent inside requests. ``setup_s`` is the median of ``Workload.setups``
builds: the first, plus throwaway builds spread across the window so the
median samples the host over the whole run.

Host-time metrics are scaled to a reference host. The shared 2-CPU machine
this was tuned on changes speed by a third within seconds and by more
between minutes, far beyond any useful regression bound. So a short fixed
calibration loop runs between requests (outside the timed calls), and each
request's and each build's time is multiplied by the reference
calibration time over the mean of the calibrations taken just before and
after it. The unscaled figures are printed too.

Simulated and per-layer metrics cover the prefix only, so they repeat
exactly for a seed however fast the host is; the traced region is the
setup plus the prefix.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracing import (  # noqa: E402
    EVENT_SPANS,
    IO_UNIT_SPANS,
    UNIT_KERNEL_SPANS,
    Tracer,
)
from workloads import WORKLOADS, digest  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "sim_ops_per_vs": "ops/virtual_s",
    "sim_latency_p90_ms": "virtual_ms",
    "sim_energy_j_per_op": "J/op",
    "write_amplification": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "sql.calls": "count", "sql.self_s": "s",
    "serve.calls": "count", "serve.self_s": "s",
    "serve.cache_hit_rate": "fraction", "serve.cache_evictions": "count",
    "serve.fan_out_mean": "shards", "serve.qos_delay_vs": "virtual_s",
    "sched.calls": "count", "sched.self_s": "s",
    "sched.shared_fraction": "fraction", "sched.saved_page_reads": "pages",
    "sched.admission_wait_vs": "virtual_s", "sched.solo_rescues": "count",
    "writepath.statements": "count", "writepath.rows_changed": "rows",
    "writepath.pages_flushed": "pages", "writepath.group_flushes": "count",
    "writepath.admission_wait_vs": "virtual_s", "writepath.self_s": "s",
    "host.calls": "count", "host.self_s": "s",
    "host.buffer_pool_hit_rate": "fraction",
    "host.pushdown_fallbacks": "count",
    "engine.calls": "count", "engine.self_s": "s",
    "engine.pages_per_call": "pages", "engine.page_kernel_pages": "pages",
    "engine.pages_skipped_fraction": "fraction",
    "storage.encode_self_s": "s", "storage.decode_self_s": "s",
    "storage.pages_encoded": "pages", "storage.decoded_bytes": "bytes",
    "storage.decode_elided_fraction": "fraction",
    "smart.calls": "count", "smart.self_s": "s",
    "smart.sessions": "count", "smart.session_retries": "count",
    "flash.calls": "count", "flash.self_s": "s",
    "flash.nand_pages_read": "pages", "flash.nand_pages_programmed": "pages",
    "flash.gc_relocations": "pages", "flash.erases": "blocks",
    "flash.interface_bytes": "bytes",
    "sim.calls": "count", "sim.self_s": "s", "sim.events": "count",
    "sim.events_per_io_unit": "events/unit",
    "trace.ops_per_s_traced": "ops/s", "trace.ops_per_s_untraced": "ops/s",
}


#: Requests whose spans go into the chrome trace file (all are measured).
TRACE_FILE_REQUESTS = 8


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


#: Seconds :func:`calibrate` takes on the reference host. Host-time
#: metrics are scaled to that host: each timing is multiplied by this over
#: the calibration measured next to it.
CALIBRATION_REFERENCE_S = 1e-3


def calibrate() -> float:
    """Best-of-three seconds of a fixed interpreter and small-NumPy loop.

    The simulator's host time is interpreter work plus small NumPy calls;
    this loop mixes the same two, so its time tracks the host's speed,
    which on a shared machine drifts by a third within seconds.
    """
    best = float("inf")
    for __ in range(3):
        start = time.perf_counter()
        acc = 0
        slots = {}
        for i in range(3000):
            acc += i * i % 7
            slots[i & 63] = acc
        values = np.arange(2000)
        for __ in range(30):
            values = (values * 3 + 1) % 1009
            acc += int(values.sum())
        best = min(best, time.perf_counter() - start)
    return best


def _timed_build(workload, before: float) -> tuple:
    """(world, raw seconds, reference-host seconds) of one build."""
    start = time.perf_counter()
    world = workload.build()
    raw = time.perf_counter() - start
    after = calibrate()
    return world, raw, raw * 2 * CALIBRATION_REFERENCE_S / (before + after)


def run(workload, seconds: float, trace: bool,
        trace_dir: Path | None = None) -> dict:
    """Run one workload; returns the result and everything printed."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        frame = tracer.begin_op("setup")
    world, raw_setup, setup = _timed_build(workload, calibrate())
    setups = [(raw_setup, setup)]
    if tracer is not None:
        tracer.end_op(frame)
        tracer.uninstall()
    warm_records = workload.warm(world)

    records = []
    failed_requests = 0
    #: Per request: (ops, raw wall seconds, scale to the reference host).
    requests: list[tuple[int, float, float]] = []
    start_snap = world.snapshot()
    prefix_snap = None
    prefix_ops = 0
    if tracer is not None:
        tracer.install()
    calibration = calibrate()
    window_start = time.perf_counter()
    request = 0
    while (request < workload.prefix_requests
           or time.perf_counter() - window_start < seconds):
        if tracer is None and len(setups) < workload.setups and (
                time.perf_counter() - window_start
                >= len(setups) * seconds / workload.setups):
            setups.append(_timed_build(workload, calibration)[1:])
            gc.collect()  # free the dropped world now, not at a random op
            calibration = calibrate()
        in_prefix = request < workload.prefix_requests
        frame = None
        if tracer is not None and in_prefix:
            frame = tracer.begin_op(request)
        started = time.perf_counter()
        try:
            new = workload.request(world)
        except Exception:  # counted as a failed op; the world may be broken
            traceback.print_exc(file=sys.stderr)
            failed_requests += 1
            break
        finally:
            if frame is not None:
                tracer.end_op(frame)
        wall = time.perf_counter() - started
        after = calibrate()
        requests.append((len(new), wall, 2 * CALIBRATION_REFERENCE_S
                         / (calibration + after)))
        calibration = after
        for record in new:
            record.host_s *= requests[-1][2]
        records.extend(new)
        request += 1
        if request == workload.prefix_requests:
            prefix_snap = world.snapshot()
            prefix_ops = len(records)
            if tracer is not None:
                tracer.uninstall()
    window_s = time.perf_counter() - window_start
    if tracer is not None:
        tracer.uninstall()
    while len(setups) < workload.setups and tracer is None:
        setups.append(_timed_build(workload, calibrate())[1:])
        gc.collect()

    problems = workload.check(world, warm_records + records)
    attempted = len(warm_records) + len(records) + failed_requests
    failed = len(problems) + failed_requests
    if prefix_snap is None:  # the run broke off inside the prefix
        prefix_snap, prefix_ops = world.snapshot(), len(records)
    prefix = records[:prefix_ops]
    delta = Counter({key: prefix_snap[key] - start_snap.get(key, 0)
                     for key in prefix_snap})

    out = {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest(prefix),
        "ops": len(records),
        "prefix_ops": prefix_ops,
        "warmup_ops": len(warm_records),
        "window_s": window_s,
        "end_to_end": {},
        "per_layer": {},
    }
    if not records:
        return out
    host_ms = [record.host_s * 1e3 for record in records]
    sim_ms = [record.sim_s * 1e3 for record in prefix]
    host_writes = delta["host_writes"]
    raw_walls = sum(wall for __, wall, __ in requests)
    out["raw"] = {
        "setup_s": statistics.median(raw for raw, __ in setups),
        "ops_per_s": len(records) / raw_walls,
        "host_speed": statistics.median(scale for __, __, scale in requests),
    }
    out["end_to_end"] = {
        "setup_s": statistics.median(scaled for __, scaled in setups),
        "ops_per_s": len(records) / sum(wall * scale
                                        for __, wall, scale in requests),
        "latency_p50_ms": _percentile(host_ms, 50),
        "latency_p90_ms": _percentile(host_ms, 90),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ops_per_vs": _ratio(prefix_ops, delta["sim_now"]),
        "sim_latency_p90_ms": _percentile(sim_ms, 90),
        "sim_energy_j_per_op": _ratio(
            sum(record.energy_j for record in prefix), prefix_ops),
        "write_amplification": (
            (host_writes + delta["gc_relocations"]) / host_writes
            if host_writes else 1.0),
    }
    out["samples"] = len(host_ms)
    out["sim_samples"] = len(sim_ms)
    if tracer is not None:
        traced = requests[:workload.prefix_requests]
        untraced = requests[workload.prefix_requests:]
        out["per_layer"] = _per_layer(tracer, delta, traced, untraced)
        out["layer_table"] = tracer.layer_totals()
        out["problems"] += tracer.check(
            {op: wall for op, (__, wall, __) in enumerate(requests)
             if op < workload.prefix_requests})
        out["failed"] = len(out["problems"]) + failed_requests
        if trace_dir is not None:
            # The setup and the first requests: a bounded file per workload.
            path = trace_dir / f"trace-{workload.name}.json"
            out["trace_events"] = tracer.write_chrome_trace(
                path, {"setup", *range(TRACE_FILE_REQUESTS)})
            out["trace_file"] = str(path)
    return out


def _raw_rate(requests: list[tuple[int, float, float]]) -> float:
    """Ops per raw host second spent inside the given requests."""
    return _ratio(sum(ops for ops, __, __ in requests),
                  sum(wall for __, wall, __ in requests))


def _per_layer(tracer: Tracer, delta: Counter, traced: list,
               untraced: list) -> dict:
    totals = tracer.layer_totals()
    calls = tracer.calls_by_name()
    metrics = {}
    for layer in ("sql", "serve", "sched", "host", "engine", "smart",
                  "flash", "sim"):
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    metrics["writepath.self_s"] = totals.get(
        "writepath", {"self_s": 0.0})["self_s"]
    for part in ("encode", "decode"):
        metrics[f"storage.{part}_self_s"] = totals.get(
            f"storage.{part}", {"self_s": 0.0})["self_s"]
    d = delta
    events = sum(calls[name] for name in EVENT_SPANS)
    io_units = sum(calls[name] for name in IO_UNIT_SPANS)
    metrics.update({
        "serve.cache_hit_rate": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "serve.cache_evictions": d["cache_evictions"],
        "serve.fan_out_mean": _ratio(d["serve_fan_out"], d["serve_misses"]),
        "serve.qos_delay_vs": _ratio(d["serve_qos_delay_s"],
                                     d["serve_queries"]),
        "sched.shared_fraction": _ratio(d["sched_shared_members"],
                                        d["sched_submitted"]),
        "sched.saved_page_reads": d["sched_saved_page_reads"],
        "sched.admission_wait_vs": _ratio(d["sched_admission_wait_s"],
                                          d["sched_admission_waits"]),
        "sched.solo_rescues": d["sched_solo_rescues"],
        "writepath.statements": d["wp_statements"],
        "writepath.rows_changed": d["wp_rows_changed"],
        "writepath.pages_flushed": d["wp_pages_flushed"],
        "writepath.group_flushes": d["wp_group_flushes"],
        "writepath.admission_wait_vs": _ratio(d["wp_admission_wait_s"],
                                              d["wp_statements"]),
        "host.buffer_pool_hit_rate": _ratio(
            d["bp_hits"], d["bp_hits"] + d["bp_misses"]),
        "host.pushdown_fallbacks": d["pushdown_fallbacks"],
        "engine.pages_per_call": _ratio(
            tracer.counts["engine.unit_pages"],
            sum(calls[name] for name in UNIT_KERNEL_SPANS)),
        "engine.page_kernel_pages": tracer.counts["engine.page_kernel_pages"],
        "engine.pages_skipped_fraction": _ratio(
            d["pages_skipped"], d["pages_skipped"] + d["pages_parsed"]),
        "storage.pages_encoded": tracer.counts["storage.pages_encoded"],
        "storage.decoded_bytes": tracer.counts["storage.decoded_bytes"],
        "storage.decode_elided_fraction": _ratio(
            d["decode_bytes_elided"],
            d["decoded_bytes"] + d["decode_bytes_elided"]),
        "smart.sessions": calls["smart:runtime.SmartRuntime.open"],
        "smart.session_retries": d["session_retries"],
        "flash.nand_pages_read": d["nand_reads"],
        "flash.nand_pages_programmed": d["nand_programs"],
        "flash.gc_relocations": d["gc_relocations"],
        "flash.erases": d["erases"],
        "flash.interface_bytes": d["interface_bytes"],
        "sim.events": events,
        "sim.events_per_io_unit": _ratio(events, io_units),
        "trace.ops_per_s_traced": _raw_rate(traced),
        "trace.ops_per_s_untraced": _raw_rate(untraced),
    })
    return {name: metrics[name] for name in PER_LAYER}


def report(out: dict, trace: bool) -> dict:
    """Print the human-readable tables; returns the final JSON object."""
    print(f"workload {out['workload']}  seed {out['seed']}  "
          f"ops {out['ops']} (prefix {out['prefix_ops']}, "
          f"warm-up {out['warmup_ops']})  window {out['window_s']:.2f}s  "
          f"mean {out['ops'] / out['window_s']:.3f} ops/s")
    for problem in out["problems"][:20]:
        print(f"MISMATCH {problem}")
    error_rate = _ratio(out["failed"], out["attempted"])
    print(f"  {'error_rate':28s} {error_rate!r:>24} fraction")
    print(f"  {'result_digest':28s} {out['digest']:>24}")
    if out.get("raw"):
        raw = out["raw"]
        print(f"  unscaled: setup_s {raw['setup_s']:.4f} s, ops_per_s "
              f"{raw['ops_per_s']:.3f} ops/s; host-time metrics below are "
              f"scaled to the reference host by x{raw['host_speed']:.3f}")
    units = PER_LAYER if trace else END_TO_END
    values = out["per_layer"] if trace else out["end_to_end"]
    for name, value in values.items():
        note = ""
        if name in ("latency_p50_ms", "latency_p90_ms"):
            note = f"  (n={out['samples']})"
        elif name == "sim_latency_p90_ms":
            note = f"  (n={out['sim_samples']})"
        print(f"  {name:28s} {value!r:>24} {units[name]}{note}")
    if trace and out.get("layer_table"):
        table = out["layer_table"]
        total = sum(entry["self_s"] for entry in table.values())
        print(f"  self time by layer ({out['workload']}):")
        for layer, entry in sorted(table.items(),
                                   key=lambda item: -item[1]["self_s"]):
            share = _ratio(entry["self_s"], total)
            print(f"    {layer:16s} calls {entry['calls']:>9d}  "
                  f"self {entry['self_s']:9.4f}s  {share:6.1%}")
        if "trace_file" in out:
            print(f"  chrome trace: {out['trace_file']} "
                  f"({out['trace_events']} events)")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed)
    out = run(workload, args.seconds, trace,
              trace_dir=ROOT / ".bench_out" if trace else None)
    result = report(out, trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
