"""Pluggable execution backends: the serial engine and a process fleet.

``QueryScheduler`` hands every planned batch to a backend. The serial
backend is the engine that has always existed — one simulator, one OS
thread. The process backend carves the batch into device lanes
(:mod:`repro.runtime.lanes`), runs each lane in its own cloned world
(:mod:`repro.runtime.worlds`) in a forked worker, and replays the results
onto the parent (:mod:`repro.runtime.merge`). Any batch the planner or the
validator cannot prove independent silently runs on the serial engine
instead — parallelism is an optimization, never a semantic.

Worker setup is amortized: lane worlds and the forked workers holding
them are built once per *fleet* and reused for every batch until the
parent world's fingerprint changes, a batch is discarded, or the lane
partition shifts. The process backend requires the ``fork`` start method
so clones transfer by page-table copy, not pickle.

Per-scheduler accounting lands in ``scheduler.runtime_stats``:
``parallel_batches`` / ``serial_batches`` counts, ``fleet_builds``, and a
``fallbacks`` histogram of decline/discard reasons.
"""

from __future__ import annotations

import multiprocessing
import pickle
from dataclasses import replace
from typing import Optional

from repro.errors import PlanError
from repro.runtime.lanes import LanePlan, plan_lanes
from repro.runtime.merge import merge_lane_results
from repro.runtime.worlds import (
    LaneBatch,
    LaneSubmissionSpec,
    clone_lane_worlds,
    world_fingerprint,
)

#: The recognized backend names, in documentation order.
BACKEND_NAMES = ("serial", "process")


class LaneExecutionError(Exception):
    """A lane worker died or reported an error; the batch reruns serially."""


class SerialBackend:
    """The always-available engine: run units on the parent simulator."""

    name = "serial"

    def execute_units(self, scheduler, units) -> None:
        scheduler._execute_units(units)

    def close(self) -> None:
        pass


class ProcessBackend:
    """Lane worlds in forked worker processes, one long-lived per lane.

    Workers are forked *after* the lane worlds exist, so the shard tables
    transfer by copy-on-write page mapping — once per fleet, not per
    query. Batches and results cross a pipe; they are small (queries and
    outcome rows), the world never crosses again.
    """

    name = "process"

    def __init__(self):
        self._fleet = None
        self._fingerprint = None
        self._groups: Optional[tuple] = None

    # -- the per-batch pipeline -------------------------------------------

    def execute_units(self, scheduler, units) -> None:
        plan, reason = plan_lanes(scheduler, units)
        if plan is None:
            return self._fallback(scheduler, units, reason)
        if "fork" not in multiprocessing.get_all_start_methods():
            return self._fallback(scheduler, units, "backend_unavailable")
        sim = scheduler.db.sim
        start = sim.now
        batches = self._build_batches(plan, units, start,
                                      obs=sim.obs is not None,
                                      trace=sim.tracer is not None)
        if batches is None:
            return self._fallback(scheduler, units, "unpicklable")
        try:
            fleet = self._ensure_fleet(scheduler, plan)
        except Exception:
            self._invalidate()
            return self._fallback(scheduler, units, "clone_failed")
        try:
            results = fleet.run(batches)
        except LaneExecutionError:
            self._invalidate()
            return self._fallback(scheduler, units, "lane_error")
        tickets = {submission.index: submission
                   for _, members in units for submission in members}
        ok, why = merge_lane_results(scheduler, results, tickets, start)
        if not ok:
            # Lane results are discarded whole; the parent world was not
            # touched, so the serial rerun is exact. The fleet is rebuilt
            # next batch because the rerun will move parent state.
            self._invalidate()
            return self._fallback(scheduler, units, why)
        scheduler.runtime_stats["parallel_batches"] += 1

    def _fallback(self, scheduler, units, reason: str) -> None:
        stats = scheduler.runtime_stats
        stats["serial_batches"] += 1
        fallbacks = stats["fallbacks"]
        fallbacks[reason] = fallbacks.get(reason, 0) + 1
        scheduler._execute_units(units)

    def _build_batches(self, plan: LanePlan, units, start: float,
                       obs: bool, trace: bool) -> Optional[list[LaneBatch]]:
        per_lane: list[list] = [[] for _ in plan.groups]
        for (kind, members), lane in zip(units, plan.unit_lanes):
            specs = tuple(
                LaneSubmissionSpec(index=s.index, query=s.query,
                                   placement=s.placement,
                                   resolved=s.resolved, arrival=s.arrival)
                for s in members)
            per_lane[lane].append((kind, specs))
        batches = [LaneBatch(start=start, units=tuple(lane_units),
                             obs=obs, trace=trace)
                   for lane_units in per_lane]
        try:
            pickle.dumps(batches, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        return batches

    def _ensure_fleet(self, scheduler, plan: LanePlan):
        fingerprint = world_fingerprint(scheduler.db)
        if (self._fleet is not None and self._fingerprint == fingerprint
                and self._groups == plan.groups):
            return self._fleet
        self._invalidate()
        lane_config = replace(scheduler.config, backend="serial")
        worlds = clone_lane_worlds(scheduler.db, plan.groups, lane_config)
        self._fleet = _ProcessFleet(worlds)
        self._fingerprint = fingerprint
        self._groups = plan.groups
        scheduler.runtime_stats["fleet_builds"] += 1
        return self._fleet

    def _invalidate(self) -> None:
        if self._fleet is not None:
            self._fleet.close()
        self._fleet = None
        self._fingerprint = None
        self._groups = None

    def close(self) -> None:
        self._invalidate()


def _process_worker(conn, world) -> None:
    """Worker loop: inherited lane world, batches in, results out."""
    import traceback
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message[0] != "run":
            break
        try:
            result = world.run_batch(message[1])
        except BaseException:
            conn.send(("err", traceback.format_exc()))
        else:
            conn.send(("ok", result))
    conn.close()


class _ProcessFleet:
    def __init__(self, worlds):
        context = multiprocessing.get_context("fork")
        self.pipes = []
        self.workers = []
        for world in worlds:
            parent_end, child_end = context.Pipe()
            worker = context.Process(
                target=_process_worker, args=(child_end, world),
                name=f"repro-lane-{world.lane}", daemon=True)
            worker.start()
            child_end.close()
            self.pipes.append(parent_end)
            self.workers.append(worker)
        # The parent's copies served only to seed the forks.
        del worlds

    def run(self, batches):
        for pipe, batch in zip(self.pipes, batches):
            try:
                pipe.send(("run", batch))
            except (OSError, ValueError) as exc:
                raise LaneExecutionError(f"send failed: {exc!r}") from exc
        results = []
        for lane, pipe in enumerate(self.pipes):
            try:
                status, payload = pipe.recv()
            except (EOFError, OSError) as exc:
                raise LaneExecutionError(
                    f"lane {lane} worker died") from exc
            if status != "ok":
                raise LaneExecutionError(f"lane {lane}: {payload}")
            results.append(payload)
        return results

    def close(self) -> None:
        for pipe in self.pipes:
            try:
                pipe.send(("close",))
            except (OSError, ValueError):
                pass
            pipe.close()
        for worker in self.workers:
            worker.join(timeout=2.0)
            if worker.is_alive():
                worker.terminate()
        self.pipes = []
        self.workers = []


def resolve_backend(name: str):
    """Instantiate the named backend (each scheduler owns its own fleet)."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend()
    raise PlanError(f"unknown runtime backend {name!r}; expected one of "
                    f"{list(BACKEND_NAMES)}")
