"""Host-side data modification: UPDATE and dirty-page write-back.

The paper's §4.3: "queries with any updates cannot be processed in the SSD
without appropriate coordination with the DBMS transaction manager", and
pushdown is unsafe while the buffer pool holds pages newer than the device.
This module provides that host-side write path:

* :func:`update_process` — a timed UPDATE: qualifying pages are read
  through the buffer pool, tuples are rewritten in place, and the cached
  pages are marked dirty (which vetoes pushdown on the table);
* :func:`flush_process` — a timed checkpoint: dirty pages are written back
  through the device's FTL (out-of-place, possibly triggering garbage
  collection), clearing the veto so pushdown becomes safe again.

UPDATE runs one I/O unit at a time, like the scan kernel: the predicate is
evaluated once over the unit's concatenated rows, decoded for its own
columns only, and only pages holding a matching row are fully decoded,
rewritten and re-encoded. That is bit-identical to rewriting page by page:
expression charges are per row, so they add up exactly across any page
split, and the elementwise NumPy operations give the same values over one
page or a whole unit. Every column an UPDATE names is checked against the
schema (:func:`check_update_columns`) before any timed I/O.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Mapping

import numpy as np

from repro.engine.expressions import EvalContext, Expr
from repro.errors import PlanError
from repro.model.counters import WorkCounters
from repro.sim import Event
from repro.smart.programs.base import IO_UNIT_PAGES, unit_lpn_runs
from repro.storage import encode_page
from repro.storage.page import PageHeader
from repro.storage.schema import Schema
from repro.storage.unitdecode import UnitColumns

if TYPE_CHECKING:
    from repro.host.catalog import Table
    from repro.host.db import Database


def check_update_columns(schema: Schema, predicate: Expr | None,
                         assignments: Mapping[str, Any]) -> None:
    """Check every column an UPDATE names against ``schema``.

    SET targets, predicate columns and SET-expression columns must all
    exist; the first missing one raises
    :class:`~repro.errors.CatalogError`. Callers run this before any
    timed I/O, so a bad statement leaves the clock and the buffer pool
    untouched.
    """
    names = list(assignments)
    for expr in (predicate, *assignments.values()):
        if isinstance(expr, Expr):
            names.extend(sorted(expr.columns()))
    for name in names:
        schema.column_index(name)


def update_process(db: "Database", table_name: str, predicate: Expr | None,
                   assignments: Mapping[str, Any],
                   io_unit_pages: int = IO_UNIT_PAGES,
                   bump_version: bool = True,
                   counters_out: WorkCounters | None = None,
                   ) -> Generator[Event, None, int]:
    """Timed UPDATE ... SET ... WHERE; returns the number of rows changed.

    ``assignments`` maps column names to either plain values (validated by
    the column type) or :class:`Expr` trees evaluated against the matching
    rows (so ``{"price": Mul(Col("price"), Const(2))}`` works).

    Each I/O unit is read through the buffer pool, then rewritten in one
    pass (:func:`_rewrite_unit`): the predicate runs once over the whole
    unit, and only the pages it hits are re-encoded and cached dirty, in
    LPN order. Work is charged as a page-at-a-time rewrite would — one
    parsed page per page, one output value per changed row and
    assignment, and one host compute per unit.

    ``bump_version=False`` leaves the catalog version bump to the caller
    (the serving layer and the scheduler's write units bump the *logical*
    relation once, after flush). ``counters_out`` accumulates the priced
    work counters for callers that report them (the write units).
    """
    table = db.catalog.table(table_name)
    device = db.device(table.device_name)
    schema = table.schema
    check_update_columns(schema, predicate, assignments)

    updated = 0
    for lpns in unit_lpn_runs(table.heap, io_unit_pages):
        # Read through the buffer pool (misses hit the device, timed).
        pages: list[bytes] = []
        miss_lpns = [lpn for lpn in lpns
                     if not db.buffer_pool.contains(table.device_name, lpn)]
        fetched = {}
        if miss_lpns:
            data = yield from device.host_read(miss_lpns)
            fetched = dict(zip(miss_lpns, data))
        for lpn in lpns:
            cached = db.buffer_pool.lookup(table.device_name, lpn)
            if cached is None:
                cached = fetched[lpn]
                db.buffer_pool.insert(table.device_name, lpn, cached)
            pages.append(cached)

        counters = WorkCounters()
        counters.io_units += 1
        hit_count, rewritten = _rewrite_unit(table, pages, predicate,
                                             assignments, counters)
        for index, page in rewritten:
            db.buffer_pool.insert(table.device_name, lpns[index], page,
                                  dirty=True)
        updated += hit_count
        yield from db.machine.compute(db.costs.cycles(counters))
        if counters_out is not None:
            counters_out.add(counters)
    if updated and bump_version:
        # Any write bumps the relation's content version, making every
        # serving-layer cache entry keyed on the old version unreachable.
        db.catalog.bump_version(table_name)
    return updated


def _rewrite_unit(table: "Table", pages: list[bytes],
                  predicate: Expr | None, assignments: Mapping[str, Any],
                  counters: WorkCounters,
                  ) -> tuple[int, list[tuple[int, bytes]]]:
    """Apply the UPDATE to one I/O unit's pages.

    Returns the rows changed and ``(page position, new page bytes)`` for
    each page holding a changed row, in page order.
    """
    schema = table.schema
    unit = UnitColumns(schema, pages)
    counters.pages_parsed += unit.page_count
    n = unit.total_rows
    if predicate is None:
        mask = np.ones(n, dtype=bool)
    else:
        columns = unit.decode(sorted(predicate.columns()))
        ctx = EvalContext(columns, n, counters, table.layout)
        mask = np.asarray(predicate.evaluate(ctx), dtype=bool)
    # Hits per page: the running hit count at each page's first row (the
    # cumulative sum, read only at page starts), differenced. Empty pages
    # get 0, which ``np.add.reduceat`` would not give them.
    hits = np.flatnonzero(mask)
    page_hits = np.diff(np.searchsorted(hits, unit.starts))
    hit_count = len(hits)
    if hit_count == 0:
        return 0, []

    hit_pages = np.flatnonzero(page_hits)
    active = mask[np.repeat(page_hits > 0, unit.counts)]
    m = len(active)
    # SQL semantics: every RHS sees the pre-update row, so expressions
    # read the decoded columns while the new values go into ``rows``.
    columns = unit.decode(schema.names, include=hit_pages)
    rows = np.empty(m, dtype=schema.numpy_dtype())
    for name in schema.names:
        rows[name] = columns[name]
    ctx = EvalContext(columns, m, counters, table.layout)
    for name, value in assignments.items():
        if isinstance(value, Expr):
            value = np.asarray(value.evaluate(ctx, active))
            if value.ndim == 0:
                value = np.full(m, value)
            rows[name][active] = value[active]
        else:
            rows[name][active] = schema.column(name).ctype.validate(value)
        counters.output_values += hit_count

    bounds = np.zeros(len(hit_pages) + 1, dtype=np.int64)
    np.cumsum(unit.counts[hit_pages], out=bounds[1:])
    rewritten = []
    for i, index in enumerate(hit_pages.tolist()):
        header = PageHeader.decode(pages[index])
        rewritten.append((index, encode_page(
            table.layout, schema, rows[bounds[i]:bounds[i + 1]],
            table_id=header.table_id, page_index=header.page_index)))
    return hit_count, rewritten


def flush_process(db: "Database", table_name: str,
                  io_unit_pages: int = IO_UNIT_PAGES,
                  ) -> Generator[Event, None, int]:
    """Timed write-back of a table's dirty pages; returns pages flushed.

    After this completes the device holds the current data and pushdown is
    safe again.
    """
    table = db.catalog.table(table_name)
    device = db.device(table.device_name)
    if not hasattr(device, "host_write"):
        raise PlanError(f"device {table.device_name!r} is not writable")
    extent = range(table.heap.first_lpn,
                   table.heap.first_lpn + table.heap.page_count)
    dirty = sorted(db.buffer_pool.dirty_lpns(table.device_name)
                   & set(extent))
    for start in range(0, len(dirty), io_unit_pages):
        lpns = dirty[start:start + io_unit_pages]
        pages = [db.buffer_pool.flush(table.device_name, lpn)
                 for lpn in lpns]
        yield from device.host_write(lpns, pages)
    return len(dirty)
