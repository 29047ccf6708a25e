"""Serial-vs-parallel differential for the fleet runtime (repro.runtime).

The contract under test: every execution backend — serial and
process — produces *bit-identical* results. Same rows, same work
counters, same virtual elapsed seconds, same energy floats, same final
clock, same cache keys. Hypothesis drives the workload shape (shard
spec, query mix, arrival offsets); a deterministic case proves the
parallel path actually engages (so the property is not vacuously green
via serial fallback); a fault-plan case proves degraded runs — where the
runtime declines lanes and the quarantined device rescue runs on the
serial engine — are also identical in every backend.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Layout, ServeConfig, ShardSpec
from repro.engine import Col, Query
from repro.faults import SITE_SESSION_CRASH, FaultPlan
from repro.host.db import Database
from repro.serve import Frontend
from repro.serve.cache import cache_key
from repro.smart.device import SmartSsdSpec
from repro.workloads.tpch import (
    generate_lineitem,
    lineitem_schema,
    q1_query,
    q6_query,
)

LINEITEM = generate_lineitem(0.001)


def topn_query():
    return Query(table="lineitem",
                 select=(("l_orderkey", Col("l_orderkey")),
                         ("l_extendedprice", Col("l_extendedprice"))),
                 order_by="l_extendedprice", descending=True, limit=5,
                 name="topn")


def distinct_query():
    return Query(table="lineitem",
                 select=(("l_returnflag", Col("l_returnflag")),
                         ("l_linestatus", Col("l_linestatus"))),
                 distinct=True, name="distinct-flags")


QUERIES = {
    "q6": q6_query,
    "q1": q1_query,
    "topn": topn_query,
    "distinct": distinct_query,
}

#: Decline/discard reasons the runtime may legitimately record; anything
#: else in the fallback histogram is a bug.
KNOWN_FALLBACKS = {
    "single_lane", "host_placement", "fault_plan", "dirty_pages",
    "unpicklable", "backend_unavailable", "clone_failed", "lane_error",
    "buffer_pool", "rescue", "host_fallback", "shared_resource",
    "host_cpu_contention",
}


def make_spec(kind: str, shards: int) -> ShardSpec:
    if kind == "range":
        quantiles = np.quantile(np.asarray(LINEITEM["l_orderkey"]),
                                np.linspace(0, 1, shards + 1)[1:-1])
        bounds = tuple(int(b) for b in quantiles)
        if len(set(bounds)) != len(bounds):
            bounds = tuple(range(1, shards))
        return ShardSpec(kind="range", key="l_orderkey", bounds=bounds)
    if kind in ("hash",):
        return ShardSpec(kind="hash", key="l_orderkey")
    return ShardSpec(kind=kind)


def build(kind: str, shards: int, plan=None) -> Database:
    db = Database()
    devices = [db.create_smart_ssd(SmartSsdSpec(name=f"smart-{i}"))
               for i in range(shards)]
    if plan is not None:
        db.install_fault_plan(plan)
    db.catalog.create_sharded_table("lineitem", lineitem_schema(),
                                    Layout.PAX, LINEITEM, devices,
                                    spec=make_spec(kind, shards))
    return db


def run_workload(backend: str, kind: str, shards: int, workload,
                 plan_factory=None) -> dict:
    """One full serving run; returns everything the differential compares."""
    plan = plan_factory() if plan_factory is not None else None
    db = build(kind, shards, plan=plan)
    frontend = Frontend(db, ServeConfig(backend=backend))
    handles = [frontend.submit(QUERIES[name](), tenant=tenant, at=at)
               for name, tenant, at in workload]
    frontend.gather()
    # A repeat batch exercises the cache-hit path and fleet reuse.
    repeats = [frontend.submit(QUERIES[workload[0][0]](), tenant="repeat")]
    frontend.gather()
    state = {
        "now": db.sim.now,
        "host_cpu": db.machine.cpu_core_seconds(),
        "rows": [repr(h.report.rows) for h in handles + repeats],
        "elapsed": [h.report.elapsed_seconds for h in handles + repeats],
        "counters": [repr(h.report.counters) for h in handles + repeats],
        "energy": [None if h.report.energy is None
                   else h.report.energy.entire_system_j
                   for h in handles + repeats],
        "cached": [h.cached for h in handles + repeats],
        "cache_keys": sorted(
            repr(cache_key(db.catalog, h.query, h.placement))
            for h in handles + repeats),
        "sched_scalars": {
            k: v for k, v in frontend.scheduler.stats.items()
            if not isinstance(v, list)},
        "sched_lists": {
            k: sorted(v) for k, v in frontend.scheduler.stats.items()
            if isinstance(v, list)},
        "runtime": dict(frontend.scheduler.runtime_stats),
        "fault_fires": (None if plan is None
                        else plan.fired_count(SITE_SESSION_CRASH)),
    }
    frontend.close()
    return state


def assert_identical(reference: dict, candidate: dict, backend: str) -> None:
    for key in ("now", "host_cpu", "rows", "elapsed", "counters", "energy",
                "cached", "cache_keys", "sched_scalars", "sched_lists",
                "fault_fires"):
        assert candidate[key] == reference[key], (
            f"{backend} diverged on {key}: "
            f"{candidate[key]!r} != {reference[key]!r}")
    fallbacks = candidate["runtime"]["fallbacks"]
    assert set(fallbacks) <= KNOWN_FALLBACKS, fallbacks


workload_strategy = st.lists(
    st.tuples(st.sampled_from(sorted(QUERIES)),
              st.sampled_from(["alpha", "beta"]),
              st.sampled_from([0.0, 0.0005, 0.002])),
    min_size=1, max_size=3)


class TestBackendDifferential:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(kind=st.sampled_from(["hash", "range", "round_robin",
                                 "replicated"]),
           shards=st.integers(min_value=2, max_value=4),
           workload=workload_strategy)
    def test_backends_bit_identical(self, kind, shards, workload):
        reference = run_workload("serial", kind, shards, workload)
        candidate = run_workload("process", kind, shards, workload)
        assert_identical(reference, candidate, "process")

    def test_parallel_path_engages(self):
        """Guard against a vacuously-green differential: on a multi-shard
        scatter with no faults, the process backend must actually run
        lanes, not fall back to serial."""
        workload = [("q6", "alpha", 0.0), ("q1", "beta", 0.001)]
        reference = run_workload("serial", "hash", 4, workload)
        assert reference["runtime"]["parallel_batches"] == 0
        candidate = run_workload("process", "hash", 4, workload)
        assert_identical(reference, candidate, "process")
        assert candidate["runtime"]["parallel_batches"] >= 1, \
            candidate["runtime"]
        assert candidate["runtime"]["fleet_builds"] >= 1

    def test_fault_plan_runs_identical_in_every_backend(self):
        """A crashing device forces the scheduler's rescue ladder. The
        runtime declines lanes whenever a fault plan has rules, so every
        backend must take the same (serial) path and produce identical
        degraded results — the quarantined-device rescue included."""
        def crash_plan():
            plan = FaultPlan(seed=42)
            plan.add(SITE_SESSION_CRASH, match={"device": "smart-0"})
            return plan

        workload = [("q6", "alpha", 0.0), ("q6", "beta", 0.0)]
        reference = run_workload("serial", "hash", 3, workload,
                                 plan_factory=crash_plan)
        assert reference["fault_fires"] >= 1
        candidate = run_workload("process", "hash", 3, workload,
                                 plan_factory=crash_plan)
        assert_identical(reference, candidate, "process")
        assert candidate["runtime"]["parallel_batches"] == 0
        assert "fault_plan" in candidate["runtime"]["fallbacks"]
