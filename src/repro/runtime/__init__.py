"""Parallel fleet runtime: multi-core scatter/gather over device lanes.

The paper's argument is that query processing belongs where the aggregate
bandwidth is — across many Smart SSDs at once. This package gives the
*host side* of that story real parallelism: the scheduler's per-device
work units are partitioned into independent lanes, each lane runs in an
isolated clone of the simulated world in a forked worker process, and the
results are deterministically replayed onto the parent world so every
backend is bit-identical to the serial engine — same rows, counters,
virtual times, energy floats, and goldens.

Entry points: set ``SchedulerConfig.backend`` (or ``ServeConfig.backend``)
to ``"serial"`` or ``"process"``. See docs/PERFORMANCE.md for when lanes
can and cannot split and the exact determinism contract.
"""

from repro.runtime.backends import (
    BACKEND_NAMES,
    LaneExecutionError,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.lanes import LanePlan, plan_lanes
from repro.runtime.merge import merge_lane_results
from repro.runtime.worlds import (
    LaneBatch,
    LaneResult,
    LaneSubmissionSpec,
    LaneWorld,
    clone_lane_worlds,
    world_fingerprint,
)

__all__ = [
    "BACKEND_NAMES",
    "LaneBatch",
    "LaneExecutionError",
    "LanePlan",
    "LaneResult",
    "LaneSubmissionSpec",
    "LaneWorld",
    "ProcessBackend",
    "SerialBackend",
    "clone_lane_worlds",
    "merge_lane_results",
    "plan_lanes",
    "resolve_backend",
    "world_fingerprint",
]
