"""The benchmark's three workloads and their correctness oracle.

Every workload is a closed loop with one client: it sends its next request
only after the previous public call returned. A request is generated from
the workload's seeded stream, so the same seed gives the same requests,
and the program only ever receives the generated queries and rows.

* ``olap-scan`` — the paper's figure traffic: Q6 (year, discount and
  quantity vary, so selectivity varies), Q1 and Q14 as SQL text through
  ``Session.execute``, placed on smart, host or auto, against one Smart
  SSD. The host buffer pool is smaller than LINEITEM, so host-placed
  scans really read.
* ``serve-mix`` — multi-tenant serving: LINEITEM hash-sharded over four
  Smart SSDs behind ``Frontend``; each request is one batch of ``Query``
  objects drawn Zipf-wise from a fixed population, gathered with one
  call, and every few batches a write-through UPDATE invalidates the
  result cache.
* ``htap-mixed`` — the write path: one small Smart SSD holds LINEITEM and
  a key/value table; each request is one scheduler window of skewed
  UPDATE statements beside shared Q6 scans, then a scan of the updated
  table. Timing starts once GC has cycled through the device.

Each op's rows are checked after the run against
``repro.engine.run_reference`` over the workload's own copy of the data,
which it updates alongside the program (a NumPy model of every UPDATE).
"""

from __future__ import annotations

import datetime
import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro
from repro.engine import (
    Add,
    AggSpec,
    Col,
    Compare,
    Const,
    Query,
    and_all,
    run_reference,
)
from repro.flash import NandGeometry
from repro.host.catalog import ShardSpec
from repro.host.db import DatabaseConfig
from repro.host.machine import HostSpec
from repro.sched.qos import TenantSpec
from repro.serve import ServeConfig
from repro.smart.device import SmartSsdSpec
from repro.storage import Column, Int32Type, Schema
from repro.storage.page import PAGE_SIZE
from repro.workloads import (
    generate_lineitem,
    generate_part,
    lineitem_schema,
    part_schema,
    q1_query,
    q6_query,
    q14_query,
)

SMART, HOST, AUTO = (repro.Placement.SMART, repro.Placement.HOST,
                     repro.Placement.AUTO)


@dataclass
class OpRecord:
    """One op: a query or an UPDATE statement, and what it returned."""

    kind: str
    #: Host seconds of the public call that returned this op's result.
    host_s: float
    #: Virtual seconds the op took inside the simulation.
    sim_s: float
    #: Result rows (queries) or rows changed (UPDATE).
    result: Any
    #: What the oracle needs to recompute the result.
    spec: Any = None
    #: Virtual joules of the window this op closed (0 for the others, so
    #: a window shared by several ops is counted once).
    energy_j: float = 0.0


# -- result comparison ---------------------------------------------------------


def reference_rows(query: Query, schemas: dict, tables: dict) -> list[dict]:
    """``run_reference`` output shaped like ``ExecutionReport.rows``."""
    result = run_reference(query, schemas, tables)
    if query.group_by is None:
        return [result]
    rows = []
    for group in sorted(result):
        key = group if isinstance(group, tuple) else (group,)
        entry = dict(zip(query.group_by_columns, key))
        values = dict(result[group])
        if query.finalize is not None:
            values = query.finalize(values)
        entry.update(values)
        rows.append(entry)
    return rows


def _same_value(got: Any, want: Any) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return got is want
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))
    return got == want


def rows_match(got: Any, want: list[dict]) -> bool:
    """Same rows, same keys; floats equal up to summation-order rounding.

    SQL text and the builder queries descale decimals in a different
    order, so float aggregates may differ in the last bits.
    """
    if not isinstance(got, list) or len(got) != len(want):
        return False
    for got_row, want_row in zip(got, want):
        if set(got_row) != set(want_row):
            return False
        if not all(_same_value(got_row[k], want_row[k]) for k in want_row):
            return False
    return True


def digest(records: list[OpRecord]) -> str:
    """A hash of every op's result, for the determinism check."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr((record.kind, record.result)).encode())
    return h.hexdigest()[:16]


def _seeds(seed: int, count: int) -> list[int]:
    """Independent child seeds for data and the request stream."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(count)]


# -- the shared world ----------------------------------------------------------


class World:
    """One built database plus the oracle's copy of its data."""

    def __init__(self, session, tables: dict[str, np.ndarray],
                 schemas: dict[str, Schema]):
        self.session = session
        self.db = session.db
        #: The oracle's independent copy; updates are applied to it too.
        self.tables = {name: rows.copy() for name, rows in tables.items()}
        self.schemas = schemas
        #: Accumulated public stats the program resets per call.
        self.acc: Counter = Counter()

    def absorb(self, counters) -> None:
        """Fold one report's work counters into the accumulated stats."""
        for name in ("pages_parsed", "pages_skipped",
                     "decoded_bytes", "decode_bytes_elided",
                     "pushdown_fallbacks", "session_retries"):
            self.acc[name] += getattr(counters, name)

    def absorb_scheduler(self, stats: dict) -> None:
        """Fold one gather's scheduler stats into the accumulated stats."""
        acc = self.acc
        acc["sched_submitted"] += stats.get("submitted", 0)
        acc["sched_shared_members"] += stats.get("shared_members", 0)
        acc["sched_saved_page_reads"] += stats.get("saved_page_reads", 0)
        acc["sched_solo_rescues"] += stats.get("solo_rescues", 0)
        waits = stats.get("admission_waits", [])
        acc["sched_admission_waits"] += len(waits)
        acc["sched_admission_wait_s"] += sum(waits)
        acc["wp_group_flushes"] += stats.get("group_flushes", 0)

    def snapshot(self) -> Counter:
        """Cumulative counters of the whole world, for deltas."""
        snap = Counter(self.acc)
        for name in self.db.device_names():
            device = self.db.device(name)
            snap["nand_reads"] += device.nand.reads
            snap["nand_programs"] += device.nand.programs
            snap["erases"] += device.ftl.stats.erases
            snap["gc_relocations"] += device.ftl.stats.gc_relocations
            snap["host_writes"] += device.ftl.stats.host_writes
            snap["interface_bytes"] += device.interface.bytes_moved
        frontend = self.session.frontend
        if frontend is not None:
            snap["cache_hits"] = frontend.cache.hits
            snap["cache_misses"] = frontend.cache.misses
            snap["cache_evictions"] = frontend.cache.evictions
        snap["bp_hits"] = self.db.buffer_pool.hits
        snap["bp_misses"] = self.db.buffer_pool.misses
        snap["sim_now"] = self.db.sim.now
        return snap


class Workload:
    """Base: a seeded request stream over one world."""

    name = ""
    #: Requests whose ops form the deterministic prefix the simulated and
    #: per-layer metrics are computed over.
    prefix_requests = 0
    #: Times the world is built for ``setup_s``: once before the timed
    #: window (that world is used) and the rest spread across the window,
    #: so the median samples the host's speed over the whole run.
    setups = 9

    def __init__(self, seed: int):
        self.seed = seed
        self.data_seed, stream_seed = _seeds(seed, 2)
        self.rng = np.random.default_rng(stream_seed)

    def build(self) -> World:
        raise NotImplementedError

    def warm(self, world: World) -> list[OpRecord]:
        """Run untimed requests before the measurement (default: none);
        their ops are checked but not measured."""
        return []

    def request(self, world: World) -> list[OpRecord]:
        raise NotImplementedError

    def check(self, world: World, records: list[OpRecord]) -> list[str]:
        raise NotImplementedError


# -- olap-scan -----------------------------------------------------------------


def q6_sql(year: int, discount: int, quantity: int) -> str:
    """Q6 as SQL text; ``discount`` in hundredths."""
    return (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        f"WHERE l_shipdate >= DATE '{year}-01-01' "
        f"AND l_shipdate < DATE '{year + 1}-01-01' "
        f"AND l_discount > 0.{discount - 1:02d} "
        f"AND l_discount < 0.{discount + 1:02d} "
        f"AND l_quantity < {quantity}")


def q1_sql(delta_days: int) -> str:
    """Q1 as SQL text, with the builder query's output names."""
    cutoff = datetime.date(1998, 12, 1) - datetime.timedelta(delta_days)
    return (
        "SELECT l_returnflag, l_linestatus, "
        "SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_base_price, "
        "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
        "AS sum_charge, "
        "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
        "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
        f"FROM lineitem WHERE l_shipdate <= DATE '{cutoff.isoformat()}' "
        "GROUP BY l_returnflag, l_linestatus")


def q14_sql(year: int, month: int) -> str:
    """Q14 as SQL text."""
    end_year, end_month = (year + 1, 1) if month == 12 else (year, month + 1)
    return (
        "SELECT 100 * SUM(CASE WHEN p_type LIKE 'PROMO%' "
        "THEN l_extendedprice * (1 - l_discount) ELSE 0 END) "
        "/ SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue "
        "FROM lineitem, part WHERE l_partkey = p_partkey "
        f"AND l_shipdate >= DATE '{year}-{month:02d}-01' "
        f"AND l_shipdate < DATE '{end_year}-{end_month:02d}-01'")


def builder_query(kind: str, params: tuple) -> Query:
    """The builder form of an op's query: what the oracle runs."""
    if kind == "q6":
        year, discount, quantity = params
        return q6_query(year=year, discount=discount / 100,
                        quantity=quantity)
    if kind == "q1":
        return q1_query(delta_days=params[0])
    if kind == "q14":
        return q14_query(year=params[0], month=params[1])
    raise ValueError(f"unknown query kind {kind!r}")


class OlapScan(Workload):
    """Paper-figure SQL traffic on one Smart SSD."""

    name = "olap-scan"
    #: Host buffer pool pages: far fewer than LINEITEM's ~550 at SF 0.005,
    #: so host-placed scans really read.
    pool_pages = 128

    def __init__(self, seed: int, scale: float = 0.005,
                 prefix_requests: int = 120):
        super().__init__(seed)
        self.scale = scale
        self.prefix_requests = prefix_requests
        self._block: list[tuple[str, repro.Placement]] = []

    def build(self) -> World:
        lineitem_seed, part_seed = _seeds(self.data_seed, 2)
        lineitem = generate_lineitem(self.scale, seed=lineitem_seed)
        part = generate_part(self.scale, seed=part_seed)
        config = DatabaseConfig(host=HostSpec(
            buffer_pool_nbytes=self.pool_pages * PAGE_SIZE))
        session = repro.connect(config)
        session.db.create_smart_ssd()
        session.create_table("lineitem", lineitem_schema(), repro.Layout.PAX,
                             lineitem, "smart-ssd")
        session.create_table("part", part_schema(), repro.Layout.PAX, part,
                             "smart-ssd")
        return World(session, {"lineitem": lineitem, "part": part},
                     {"lineitem": lineitem_schema(), "part": part_schema()})

    def _next_shape(self) -> tuple[str, repro.Placement]:
        # Blocks of 12 with fixed proportions, shuffled: half Q6, a quarter
        # each Q1 and Q14, every kind placed smart, host and auto alike.
        if not self._block:
            block = ([("q6", p) for p in (SMART, HOST, AUTO)] * 2
                     + [(kind, p) for kind in ("q1", "q14")
                        for p in (SMART, HOST, AUTO)])
            order = self.rng.permutation(len(block))
            self._block = [block[i] for i in order]
        return self._block.pop()

    def request(self, world: World) -> list[OpRecord]:
        kind, placement = self._next_shape()
        rng = self.rng
        if kind == "q6":
            params = (int(rng.integers(1993, 1998)), int(rng.integers(2, 10)),
                      int(rng.integers(24, 51)))
            sql = q6_sql(*params)
        elif kind == "q1":
            params = (int(rng.integers(60, 121)),)
            sql = q1_sql(*params)
        else:
            params = (int(rng.integers(1993, 1998)), int(rng.integers(1, 13)))
            sql = q14_sql(*params)
        sim_before = world.db.sim.now
        start = time.perf_counter()
        report = world.session.execute(sql, placement=placement)
        host_s = time.perf_counter() - start
        world.absorb(report.counters)
        return [OpRecord(kind, host_s, world.db.sim.now - sim_before,
                         report.rows, spec=(kind, params),
                         energy_j=report.energy.entire_system_j)]

    def check(self, world: World, records: list[OpRecord]) -> list[str]:
        cache: dict[tuple, list[dict]] = {}
        problems = []
        for index, record in enumerate(records):
            if record.spec not in cache:
                cache[record.spec] = reference_rows(
                    builder_query(*record.spec), world.schemas, world.tables)
            if not rows_match(record.result, cache[record.spec]):
                problems.append(f"op {index} ({record.kind} "
                                f"{record.spec[1]}): rows differ")
        return problems


# -- serve-mix -----------------------------------------------------------------


class ServeMix(Workload):
    """Zipf-skewed multi-tenant batches over a 4-way sharded LINEITEM."""

    name = "serve-mix"
    tenants = (TenantSpec("dashboard", rate=400.0, burst=16.0),
               TenantSpec("adhoc", rate=200.0, burst=8.0),
               TenantSpec("analytics", rate=100.0, burst=4.0))

    #: Queries per tenant in every batch: the same cost mix each request.
    mix = (("dashboard", 3), ("adhoc", 3), ("analytics", 2))
    devices = 4
    #: With the Zipf skew and the UPDATE period, these keep the result
    #: cache's hit rate near one half, with evictions.
    cache_capacity = 16
    zipf_s = 1.4

    def __init__(self, seed: int, scale: float = 0.005,
                 update_every: int = 6, prefix_requests: int = 60):
        super().__init__(seed)
        self.scale = scale
        self.update_every = update_every
        self.prefix_requests = prefix_requests
        # Each tenant's fixed population of query shapes, popular ones
        # first after a seeded shuffle: (kind, params) and Zipf weights.
        populations = {
            "dashboard": [("q6", (year, discount, 24))
                          for year in range(1993, 1998)
                          for discount in (3, 5, 7)],
            "adhoc": [("q6", (year, discount, 35))
                      for year in range(1993, 1998)
                      for discount in (4, 6, 8)],
            "analytics": [("q1", (delta,))
                          for delta in (60, 75, 90, 105, 120)],
        }
        self.populations = {}
        for tenant, shapes in populations.items():
            order = self.rng.permutation(len(shapes))
            weights = 1.0 / np.arange(1, len(shapes) + 1) ** self.zipf_s
            self.populations[tenant] = ([shapes[i] for i in order],
                                        weights / weights.sum())
        # Which rank each slot draws is the same for every seed, so every
        # seed sees the same hit/miss pattern; the seed decides the data,
        # which shape holds which rank, and the UPDATEs.
        self.ranks = np.random.default_rng(0)
        self._requests = 0

    def build(self) -> World:
        lineitem = generate_lineitem(self.scale, seed=self.data_seed)
        session = repro.connect()
        names = []
        for index in range(self.devices):
            device = session.db.create_smart_ssd(
                SmartSsdSpec(name=f"smart-{index}"))
            names.append(device.spec.name)
        session.create_sharded_table(
            "lineitem", lineitem_schema(), repro.Layout.PAX, lineitem, names,
            spec=ShardSpec(kind="hash", key="l_orderkey"))
        session.serve(ServeConfig(cache_capacity=self.cache_capacity),
                      tenants=self.tenants)
        return World(session, {"lineitem": lineitem},
                     {"lineitem": lineitem_schema()})

    def request(self, world: World) -> list[OpRecord]:
        self._requests += 1
        if self._requests % self.update_every == 0:
            return [self._update(world)]
        frontend = world.session.frontend
        tenants = [tenant for tenant, count in self.mix
                   for __ in range(count)]
        batch = []
        for slot in self.ranks.permutation(len(tenants)):
            shapes, weights = self.populations[tenants[slot]]
            kind, params = shapes[self.ranks.choice(len(shapes), p=weights)]
            batch.append((tenants[slot], kind, params))
        handles = [frontend.submit(builder_query(kind, params), tenant=tenant,
                                   placement=SMART, at=slot * 2e-4)
                   for slot, (tenant, kind, params) in enumerate(batch)]
        start = time.perf_counter()
        frontend.gather()
        host_s = time.perf_counter() - start
        records = []
        energy = 0.0
        acc = world.acc
        for handle, (tenant, kind, params) in zip(handles, batch):
            report = handle.report
            acc["serve_queries"] += 1
            acc["serve_qos_delay_s"] += handle.qos_delay_seconds
            if not handle.cached:
                acc["serve_misses"] += 1
                acc["serve_fan_out"] += handle.fan_out
                world.absorb(report.counters)
                energy = report.energy.entire_system_j
            records.append(OpRecord(kind, host_s, report.elapsed_seconds,
                                    report.rows,
                                    spec=(kind, params)))
        # Every miss in one gather shares one scheduler window and its
        # energy block: count it once. An all-hit batch runs no window and
        # leaves the scheduler's stats from the previous one in place.
        records[-1].energy_j = energy
        if not all(handle.cached for handle in handles):
            world.absorb_scheduler(frontend.scheduler.stats)
        return records

    def _update(self, world: World) -> OpRecord:
        top = int(world.tables["lineitem"]["l_orderkey"].max())
        first = int(self.rng.integers(0, top)) // 4 * 4
        discount = int(self.rng.integers(0, 11))
        predicate = and_all([
            Compare(Col("l_orderkey"), ">=", Const(first)),
            Compare(Col("l_orderkey"), "<", Const(first + 400))])
        before = world.snapshot()
        start = time.perf_counter()
        changed = world.session.frontend.update(
            "lineitem", predicate, {"l_discount": Const(discount)})
        host_s = time.perf_counter() - start
        after = world.snapshot()
        world.acc["wp_statements"] += 1
        world.acc["wp_rows_changed"] += changed
        world.acc["wp_pages_flushed"] += (after["host_writes"]
                                          - before["host_writes"])
        return OpRecord("update", host_s, after["sim_now"] - before["sim_now"],
                        changed, spec=("update", (first, discount)))

    def check(self, world: World, records: list[OpRecord]) -> list[str]:
        lineitem = world.tables["lineitem"]
        cache: dict[tuple, list[dict]] = {}
        problems = []
        for index, record in enumerate(records):
            if record.kind == "update":
                first, discount = record.spec[1]
                keys = lineitem["l_orderkey"]
                mask = (keys >= first) & (keys < first + 400)
                lineitem["l_discount"][mask] = discount
                cache.clear()
                if record.result != int(mask.sum()):
                    problems.append(f"op {index} (update): changed "
                                    f"{record.result} rows, expected "
                                    f"{int(mask.sum())}")
                continue
            kind, params = record.spec
            if (kind, params) not in cache:
                cache[kind, params] = reference_rows(
                    builder_query(kind, params), world.schemas, world.tables)
            if not rows_match(record.result, cache[kind, params]):
                problems.append(f"op {index} ({kind} {params}): rows differ")
        return problems


# -- htap-mixed ----------------------------------------------------------------


def kv_schema() -> Schema:
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def kv_query(first: int, last: int) -> Query:
    """Sum and count of the values in ``first <= k < last``."""
    return Query(
        name="kv-range", table="kv",
        predicate=and_all([Compare(Col("k"), ">=", Const(first)),
                           Compare(Col("k"), "<", Const(last))]),
        aggregates=(AggSpec("sum", Col("v"), "total"),
                    AggSpec("count", None, "n")))


class HtapMixed(Workload):
    """Skewed UPDATE windows beside shared Q6 scans on one small device."""

    name = "htap-mixed"
    #: 2 channels x 2 chips x 15 blocks x 16 pages: LINEITEM and the
    #: key/value table fill most of the exported capacity, so GC relocates
    #: live pages once the free blocks are used up.
    geometry = NandGeometry(channels=2, chips_per_channel=2,
                            blocks_per_chip=15, pages_per_block=16)
    #: UPDATE statements and Q6 scans per window, one block of windows.
    statement_counts = (5, 6, 8, 9, 11, 12, 14, 15)
    scan_counts = (2, 3, 3, 4, 4, 5, 5, 6)

    def __init__(self, seed: int, scale: float = 0.005, kv_rows: int = 80_000,
                 warm_erases: int = 90, prefix_requests: int = 80):
        super().__init__(seed)
        self.scale = scale
        self.kv_rows = kv_rows
        self.warm_erases = warm_erases
        self.prefix_requests = prefix_requests
        self._shapes: list[tuple[int, int]] = []

    def build(self) -> World:
        lineitem = generate_lineitem(self.scale, seed=self.data_seed)
        kv = np.zeros(self.kv_rows, dtype=kv_schema().numpy_dtype())
        kv["k"] = np.arange(self.kv_rows)
        kv["v"] = np.arange(self.kv_rows) % 97
        session = repro.connect()
        session.db.create_smart_ssd(SmartSsdSpec(geometry=self.geometry))
        session.create_table("lineitem", lineitem_schema(), repro.Layout.PAX,
                             lineitem, "smart-ssd")
        session.create_table("kv", kv_schema(), repro.Layout.PAX, kv,
                             "smart-ssd")
        return World(session, {"lineitem": lineitem, "kv": kv},
                     {"lineitem": lineitem_schema(), "kv": kv_schema()})

    def _next_shape(self) -> tuple[int, int]:
        """(UPDATE statements, Q6 scans) of the next window.

        Blocks of eight windows with fixed sizes, shuffled: every seed gets
        the same work mix, yet window latencies spread out instead of
        bunching at one value whose median would jump with host speed.
        """
        if not self._shapes:
            self._shapes = list(zip(
                self.rng.permutation(self.statement_counts).tolist(),
                self.rng.permutation(self.scan_counts).tolist()))
        return self._shapes.pop()

    def _statements(self, world: World, statements: int) -> list:
        """Submit one window's UPDATEs: one in five touches a wide cold
        range, the rest a narrow range of the hot 5% of keys."""
        rng = self.rng
        hot = self.kv_rows // 20
        narrow, wide = self.kv_rows // 800, self.kv_rows // 10
        cold_slots = set(rng.choice(statements, round(statements / 5),
                                    replace=False).tolist())
        pending = []
        for slot in range(statements):
            if slot not in cold_slots:
                first = int(rng.integers(0, hot - narrow))
                last = first + narrow
            else:
                first = int(rng.integers(0, self.kv_rows - wide))
                last = first + wide
            delta = int(rng.integers(1, 5))
            ticket = world.session.submit_update(
                "kv", and_all([Compare(Col("k"), ">=", Const(first)),
                               Compare(Col("k"), "<", Const(last))]),
                {"v": Add(Col("v"), Const(delta))}, at=slot * 1e-4)
            pending.append((ticket, (first, last, delta)))
        return pending

    def _window(self, world: World, with_scans: bool) -> list[OpRecord]:
        rng = self.rng
        session = world.session
        statements, scan_count = self._next_shape()
        tickets = self._statements(world, statements)
        scans = []
        if with_scans:
            for slot in range(scan_count):
                params = (int(rng.integers(1993, 1998)),
                          int(rng.integers(2, 10)), int(rng.integers(24, 51)))
                session.submit(builder_query("q6", params), SMART,
                               at=slot * 1e-4)
                scans.append(params)
        window_start = world.db.sim.now
        start = time.perf_counter()
        reports = session.gather()
        host_s = time.perf_counter() - start
        world.absorb_scheduler(session.scheduler.stats)
        acc = world.acc
        records = []
        for ticket, spec in tickets:
            acc["wp_statements"] += 1
            acc["wp_rows_changed"] += ticket.rows_changed
            acc["wp_pages_flushed"] += ticket.pages_flushed
            acc["wp_admission_wait_s"] += ticket.admission_wait
            world.absorb(ticket.counters)
            records.append(OpRecord(
                "update", host_s,
                ticket.done_at - window_start - ticket.arrival,
                ticket.rows_changed, spec=("update", spec)))
        for report, params in zip(reports, scans):
            world.absorb(report.counters)
            records.append(OpRecord("q6", host_s, report.elapsed_seconds,
                                    report.rows, spec=("q6", params)))
        if reports:
            records[-1].energy_j = reports[0].energy.entire_system_j
        return records

    def warm(self, world: World) -> list[OpRecord]:
        """Update-only windows until GC has cycled through the device."""
        device = world.db.device("smart-ssd")
        records = []
        while device.ftl.stats.erases < self.warm_erases:
            records.extend(self._window(world, with_scans=False))
        self._shapes = []  # timed windows start on a block boundary
        return records

    def request(self, world: World) -> list[OpRecord]:
        records = self._window(world, with_scans=True)
        # A post-write scan of the updated range, placed smart or host.
        hot = self.kv_rows // 20
        first = int(self.rng.integers(0, self.kv_rows - hot))
        if self.rng.random() < 0.5:
            first = int(self.rng.integers(0, hot))
        placement = SMART if self.rng.random() < 0.5 else HOST
        sim_before = world.db.sim.now
        start = time.perf_counter()
        report = world.session.execute(kv_query(first, first + hot),
                                       placement=placement)
        host_s = time.perf_counter() - start
        world.absorb(report.counters)
        records.append(OpRecord("kv-scan", host_s,
                                world.db.sim.now - sim_before, report.rows,
                                spec=("kv-scan", (first, first + hot)),
                                energy_j=report.energy.entire_system_j))
        return records

    def check(self, world: World, records: list[OpRecord]) -> list[str]:
        kv = world.tables["kv"]
        q6_cache: dict[tuple, list[dict]] = {}
        problems = []
        for index, record in enumerate(records):
            kind, params = record.spec
            if kind == "update":
                first, last, delta = params
                mask = (kv["k"] >= first) & (kv["k"] < last)
                # UPDATEs of one window commute (each adds a constant),
                # so applying them in submission order is exact.
                kv["v"][mask] += delta
                if record.result != int(mask.sum()):
                    problems.append(f"op {index} (update): changed "
                                    f"{record.result} rows, expected "
                                    f"{int(mask.sum())}")
                continue
            if kind == "q6":
                if params not in q6_cache:
                    q6_cache[params] = reference_rows(
                        builder_query("q6", params), world.schemas,
                        world.tables)
                want = q6_cache[params]
            else:
                want = reference_rows(kv_query(*params), world.schemas,
                                      world.tables)
            if not rows_match(record.result, want):
                problems.append(f"op {index} ({kind} {params}): rows differ")
        return problems


WORKLOADS = {cls.name: cls for cls in (OlapScan, ServeMix, HtapMixed)}
