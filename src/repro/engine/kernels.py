"""Execution kernels shared by host and device placement.

* :class:`BatchKernel` — the one production kernel: one I/O unit (up to
  32 pages) per invocation. Columns decode across the whole unit in one
  NumPy pass per column (:class:`repro.storage.UnitColumns`), the
  predicate evaluates over the unit's concatenated predicate columns
  *first*, and the remaining projection/probe/aggregate columns are decoded
  only for pages with at least one surviving row (late materialization).
  Scalar aggregates fold per page segment in page order; grouped
  aggregates fold once per unit from per-(page, group) cells, adding float
  sums onto the running value in page order.
* :class:`PageKernel` — the page-at-a-time reference the differential
  tests compare :class:`BatchKernel` against: decode the needed columns of
  one page, apply the predicate, optionally probe the join hash table,
  then project rows or fold aggregates. No production path runs it.

Expression work is charged once per row in each node's active set (see
:mod:`repro.engine.expressions`), so counters add up exactly across any
split of a table into pages or units, and the batch kernel's counters,
touched bytes and results — float accumulation order included — are
bit-identical to driving :class:`PageKernel` page by page.

Both count every priced operation; the caller (host executor or Smart SSD
program) charges the counters to the right CPU and moves the right bytes
over the right links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.errors import PlanError
from repro.engine.expressions import EvalContext
from repro.engine.plans import AggSpec, JoinSpec, Query
from repro.model.counters import WorkCounters
from repro.storage.layout import Layout, decode_columns, touched_bytes
from repro.storage.page import PageHeader
from repro.storage.schema import Schema
from repro.storage.unitdecode import UnitColumns

#: Estimated per-entry bookkeeping bytes of a hash table (bucket pointers,
#: entry headers) — used for memory grants and cache-residency decisions.
HASH_ENTRY_OVERHEAD = 24


class HashTable:
    """An in-memory join table: unique keys mapping to payload columns.

    Implemented as sorted keys + aligned payload arrays; probes are binary
    searches, which is deterministic and vectorizes, while the *cost model*
    still prices each probe as a hash lookup.
    """

    def __init__(self, keys: np.ndarray, payload: dict[str, np.ndarray]):
        order = np.argsort(keys, kind="stable")
        self.keys = np.ascontiguousarray(keys[order])
        if len(np.unique(self.keys)) != len(self.keys):
            raise PlanError("hash-join build keys must be unique")
        self.payload = {name: np.ascontiguousarray(values[order])
                        for name, values in payload.items()}

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        """Estimated resident size (entries + payload + overhead)."""
        payload_nbytes = sum(v.nbytes for v in self.payload.values())
        return (self.keys.nbytes + payload_nbytes
                + HASH_ENTRY_OVERHEAD * len(self.keys))

    def probe(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Look up ``probe_keys``; returns (match_mask, build_indices).

        ``build_indices`` is only meaningful where ``match_mask`` is True.
        """
        if len(self.keys) == 0:
            return (np.zeros(len(probe_keys), dtype=bool),
                    np.zeros(len(probe_keys), dtype=np.int64))
        positions = np.searchsorted(self.keys, probe_keys)
        positions = np.clip(positions, 0, len(self.keys) - 1)
        match = self.keys[positions] == probe_keys
        return match, positions


class BuildCollector:
    """Streaming accumulator for the join build side.

    Build pages arrive one I/O unit at a time (the device cannot buffer a
    multi-GB dimension table); :meth:`consume` decodes and counts each batch,
    :meth:`finish` assembles the final :class:`HashTable`.
    """

    def __init__(self, schema: Schema, spec: JoinSpec):
        self.schema = schema
        self.spec = spec
        self._key_chunks: list[np.ndarray] = []
        self._payload_chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in spec.payload}
        self.needed = [spec.build_key, *spec.payload]
        if spec.build_predicate is not None:
            for name in sorted(spec.build_predicate.columns()):
                if name not in self.needed:
                    self.needed.append(name)
        pred = spec.build_predicate
        self._pred_names = set(pred.columns()) if pred is not None else set()

    def consume(self, pages: Sequence[bytes], counters: WorkCounters,
                layout: Layout) -> int:
        """Decode a batch of build pages; returns page bytes the CPU touched.

        Decodes the whole batch in one pass per column; with a build
        predicate, only its columns decode eagerly and the key/payload
        columns late-materialize for pages with at least one kept row.
        Counters and the assembled table are identical to per-page decode.
        """
        if not pages:
            return 0
        unit = UnitColumns(self.schema, pages)
        n = unit.total_rows
        counters.pages_parsed += unit.page_count
        if layout is Layout.NSM:
            counters.nsm_tuples_parsed += n
        touched = touched_bytes(layout, self.schema, self.needed, n)
        pred = self.spec.build_predicate
        eager = [name for name in self.needed
                 if pred is None or name in self._pred_names]
        late = [name for name in self.needed if name not in eager]
        columns = unit.decode(eager)
        ctx = EvalContext(columns, n, counters, layout)
        if pred is not None:
            mask = pred.evaluate(ctx)
            keep = np.nonzero(mask)[0]
        else:
            keep = np.arange(n)
        gathered = {name: columns[name][keep] for name in eager}
        if late:
            late_cols, gather_idx, elided = _late_materialize(unit, keep,
                                                              late)
            counters.decode_bytes_elided += elided
            for name in late:
                gathered[name] = late_cols[name][gather_idx]
        counters.decoded_bytes += unit.decoded_nbytes
        # Key + payload extraction for every inserted row.
        ctx.charge_extract(len(keep) * len(self.needed))
        counters.hash_builds += len(keep)
        self._key_chunks.append(gathered[self.spec.build_key])
        for name in self.spec.payload:
            self._payload_chunks[name].append(gathered[name])
        return touched

    def finish(self) -> HashTable:
        """Assemble the hash table from everything consumed."""
        if self._key_chunks:
            keys = np.concatenate(self._key_chunks)
            payload = {name: np.concatenate(chunks)
                       for name, chunks in self._payload_chunks.items()}
        else:
            keys = np.empty(0, dtype=np.int64)
            payload = {name: np.empty(0) for name in self.spec.payload}
        return HashTable(keys, payload)


def build_hash_table(schema: Schema, pages: Sequence[bytes], spec: JoinSpec,
                     counters: WorkCounters, layout: Layout) -> HashTable:
    """Decode build-side pages and construct the join table, counting work."""
    collector = BuildCollector(schema, spec)
    collector.consume(pages, counters, layout)
    return collector.finish()


def top_n_indexes(values: np.ndarray, n: int,
                  descending: bool) -> np.ndarray:
    """Indexes of the top-``n`` values, returned in original row order.

    Stable for ascending order; both placements (and the final merge) use
    this same helper, so results are deterministic and placement-agnostic.
    """
    order = np.argsort(values, kind="stable")
    if descending:
        order = order[::-1]
    return np.sort(order[:n])


def distinct_indexes(columns: dict[str, np.ndarray],
                     names: Sequence[str]) -> np.ndarray:
    """Indexes of the first occurrence of each distinct row, in row order.

    Shared by the page kernels (page-local dedupe), the merge step, and
    the reference executor, so DISTINCT results are identical everywhere.
    """
    n = len(next(iter(columns.values()))) if columns else 0
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if len(names) == 1:
        keys = columns[names[0]]
    else:
        key_dtype = np.dtype([(name, columns[name].dtype)
                              for name in names])
        keys = np.empty(n, dtype=key_dtype)
        for name in names:
            keys[name] = columns[name]
    __, first = np.unique(keys, return_index=True)
    return np.sort(first)


def order_and_limit_indexes(values: np.ndarray, limit: Optional[int],
                            descending: bool) -> np.ndarray:
    """Final presentation order: sorted by value, truncated to ``limit``.

    Shared by the executor's merge step and the reference executor so the
    row order (including tie handling) is identical everywhere.
    """
    if limit is not None:
        keep = top_n_indexes(values, limit, descending)
        order = np.argsort(values[keep], kind="stable")
        if descending:
            order = order[::-1]
        return keep[order]
    order = np.argsort(values, kind="stable")
    if descending:
        order = order[::-1]
    return order


class TopNState:
    """Device-resident bounded accumulator for ORDER BY ... LIMIT.

    The scan program offers each page's (already page-locally truncated)
    surviving rows together with their *ordinals* — global row positions in
    extent scan order — and the state keeps only candidates that can still
    make the final top ``limit``. Selection happens under the strict total
    order (value, ordinal), exactly the order :func:`top_n_indexes` induces
    over the host's concatenated chunk stream, so keeping the best ``n`` is
    associative and idempotent: folding page-by-page on the device yields
    the same surviving set as the host's single global pass, bit for bit,
    regardless of the order units complete in.
    """

    #: Compact once the candidate pool exceeds ``max(4 * limit, this)``.
    MIN_COMPACT_THRESHOLD = 256

    def __init__(self, order_by: str, limit: int, descending: bool):
        self.order_by = order_by
        self.limit = limit
        self.descending = descending
        self._ordinals: list[np.ndarray] = []
        self._chunks: list[dict[str, np.ndarray]] = []
        self._count = 0
        self._compact_at = max(4 * limit, self.MIN_COMPACT_THRESHOLD)

    @property
    def candidate_count(self) -> int:
        """Rows currently buffered (bounded by the compaction threshold)."""
        return self._count

    def offer(self, ordinals: np.ndarray,
              columns: dict[str, np.ndarray]) -> None:
        """Add one page's surviving rows to the candidate pool."""
        n = len(ordinals)
        if n == 0:
            return
        self._ordinals.append(np.asarray(ordinals, dtype=np.int64))
        self._chunks.append(columns)
        self._count += n
        if self._count > self._compact_at:
            self._compact()

    def _compact(self) -> None:
        ordinals = np.concatenate(self._ordinals)
        names = list(self._chunks[0])
        columns = {name: np.concatenate([chunk[name]
                                         for chunk in self._chunks])
                   for name in names}
        # Restore scan order first: ordinals are unique, so the stable
        # argsort inside top_n_indexes then breaks value ties exactly as
        # the host's concatenated-in-page-order pass would.
        order = np.argsort(ordinals, kind="stable")
        ordinals = ordinals[order]
        columns = {name: values[order] for name, values in columns.items()}
        keep = top_n_indexes(columns[self.order_by], self.limit,
                             self.descending)
        self._ordinals = [ordinals[keep]]
        self._chunks = [{name: values[keep]
                         for name, values in columns.items()}]
        self._count = len(keep)

    def finish(self) -> Optional[dict[str, np.ndarray]]:
        """The final top-``limit`` candidates in scan order, or None when
        nothing was ever offered."""
        if not self._chunks:
            return None
        self._compact()
        return self._chunks[0]


@dataclass
class AggState:
    """Mergeable partial state of the aggregate set."""

    values: dict[str, Any] = field(default_factory=dict)
    groups: dict[Any, dict[str, Any]] = field(default_factory=dict)

    def merge(self, other: "AggState", aggs: Sequence[AggSpec]) -> None:
        """Fold another partial into this one."""
        for agg in aggs:
            self.values[agg.name] = _merge_scalar(
                agg.kind, self.values.get(agg.name),
                other.values.get(agg.name))
        for group, partial in other.groups.items():
            mine = self.groups.setdefault(group, {})
            for agg in aggs:
                mine[agg.name] = _merge_scalar(
                    agg.kind, mine.get(agg.name), partial.get(agg.name))


def _merge_scalar(kind: str, a: Any, b: Any) -> Any:
    if a is None:
        return b
    if b is None:
        return a
    if kind in ("sum", "count"):
        return a + b
    if kind == "min":
        return min(a, b)
    return max(a, b)


@dataclass
class PagePartial:
    """Output of one page's worth of kernel work."""

    row_count: int
    columns: Optional[dict[str, np.ndarray]] = None  # select queries
    agg: Optional[AggState] = None                   # aggregate queries
    counters: WorkCounters = field(default_factory=WorkCounters)
    touched_nbytes: int = 0  # page bytes the CPU actually read


class PageKernel:
    """Page-at-a-time execution for one :class:`Query`: the test reference.

    The straightforward per-page form of :class:`BatchKernel`'s semantics.
    No production path runs it; the differential tests drive it page by
    page and require :class:`BatchKernel` to match its rows, counters and
    touched bytes bit for bit.
    """

    def __init__(self, query: Query, schema: Schema, layout: Layout,
                 hash_table: Optional[HashTable] = None,
                 ctx_factory: type[EvalContext] = EvalContext):
        if query.join is not None and hash_table is None:
            raise PlanError("join query needs a built hash table")
        self.query = query
        self.schema = schema
        self.layout = layout
        self.hash_table = hash_table
        self.ctx_factory = ctx_factory
        self.needed_columns = query.probe_side_columns()
        for name in self.needed_columns:
            schema.column_index(name)  # validate early

    def process_page(self, page: bytes) -> PagePartial:
        """Run the kernel over one page of real bytes."""
        counters = WorkCounters()
        header = PageHeader.decode(page)
        n = header.tuple_count
        counters.pages_parsed += 1
        if self.layout is Layout.NSM:
            counters.nsm_tuples_parsed += n
        columns = decode_columns(self.schema, page, self.needed_columns,
                                 header=header)
        touched = touched_bytes(self.layout, self.schema,
                                self.needed_columns, n)
        return self._evaluate(columns, n, counters, touched)

    def process_decoded(self, columns: dict[str, np.ndarray],
                        n: int) -> PagePartial:
        """Run the kernel over columns another scan already decoded.

        The page-setup and decode work happened elsewhere (and was charged
        there); only this query's marginal work — predicates, probes,
        aggregates, outputs — lands in the returned partial's counters.
        """
        counters = WorkCounters()
        return self._evaluate(columns, n, counters, touched=0)

    def _evaluate(self, columns: dict[str, np.ndarray], n: int,
                  counters: WorkCounters, touched: int) -> PagePartial:
        ctx = self.ctx_factory(columns, n, counters, self.layout)

        # 1. Selection.
        if self.query.predicate is not None:
            mask = self.query.predicate.evaluate(ctx)
            survivors = np.nonzero(mask)[0]
        else:
            survivors = np.arange(n)

        filtered = {name: values[survivors]
                    for name, values in columns.items()}
        k = len(survivors)

        # 2. Hash-join probe.
        if self.query.join is not None:
            probe_keys = filtered[self.query.join.probe_key]
            ctx.charge_extract(k)
            counters.hash_probes += k
            match, positions = self.hash_table.probe(probe_keys)
            matched = np.nonzero(match)[0]
            filtered = {name: values[matched]
                        for name, values in filtered.items()}
            build_rows = positions[matched]
            for name in self.query.join.payload:
                filtered[name] = self.hash_table.payload[name][build_rows]
            k = len(matched)

        # 2b. Post-join predicate (spans probe columns + build payload).
        if self.query.post_predicate is not None:
            post_ctx = self.ctx_factory(filtered, k, counters, self.layout)
            post_mask = self.query.post_predicate.evaluate(post_ctx)
            keep = np.nonzero(post_mask)[0]
            filtered = {name: values[keep]
                        for name, values in filtered.items()}
            k = len(keep)

        out_ctx = self.ctx_factory(filtered, k, counters, self.layout)

        # 3a. Projection (with optional page-local top-N truncation).
        if self.query.select:
            out_columns = {}
            for name, expr in self.query.select:
                values = np.asarray(expr.evaluate(out_ctx))
                if values.ndim == 0:
                    values = np.full(k, values)
                out_columns[name] = values
            if self.query.distinct and k > 0:
                counters.distinct_candidates += k
                keep = distinct_indexes(out_columns,
                                        self.query.output_names())
                out_columns = {name: values[keep]
                               for name, values in out_columns.items()}
                k = len(keep)
            if self.query.limit is not None and k > 0:
                counters.topn_candidates += k
                keep = top_n_indexes(out_columns[self.query.order_by],
                                     self.query.limit,
                                     self.query.descending)
                out_columns = {name: values[keep]
                               for name, values in out_columns.items()}
                k = len(keep)
            counters.output_values += k * len(self.query.select)
            return PagePartial(row_count=k, columns=out_columns,
                               counters=counters, touched_nbytes=touched)

        # 3b. Aggregation.
        state = AggState()
        if self.query.group_by is None:
            for agg in self.query.aggregates:
                state.values[agg.name] = self._scalar_partial(
                    agg, out_ctx, k, counters)
        else:
            self._grouped_partials(state, out_ctx, k, counters)
        return PagePartial(row_count=k, agg=state, counters=counters,
                           touched_nbytes=touched)

    # -- aggregation helpers ---------------------------------------------------

    def _scalar_partial(self, agg: AggSpec, ctx: EvalContext, k: int,
                        counters: WorkCounters) -> Any:
        counters.aggregate_updates += k
        if agg.kind == "count":
            return k
        values = np.asarray(agg.expr.evaluate(ctx))
        if values.ndim == 0:
            values = np.full(k, values)
        if k == 0:
            return 0 if agg.kind == "sum" else None
        if agg.kind == "sum":
            acc = values.astype(np.float64) if values.dtype.kind == "f" \
                else values.astype(np.int64)
            return acc.sum().item()
        if agg.kind == "min":
            return values.min().item()
        return values.max().item()

    def _grouped_partials(self, state: AggState, ctx: EvalContext, k: int,
                          counters: WorkCounters) -> None:
        if k == 0:
            return
        names = self.query.group_by_columns
        ctx.charge_extract(k * len(names))
        if len(names) == 1:
            groups, inverse = np.unique(ctx.columns[names[0]],
                                        return_inverse=True)
            group_list = groups.tolist()
        else:
            key_dtype = np.dtype([(name, ctx.columns[name].dtype)
                                  for name in names])
            keys = np.empty(k, dtype=key_dtype)
            for name in names:
                keys[name] = ctx.columns[name]
            groups, inverse = np.unique(keys, return_inverse=True)
            group_list = [tuple(g) for g in groups.tolist()]
        for agg in self.query.aggregates:
            counters.aggregate_updates += k
            if agg.kind == "count":
                partials = np.bincount(inverse, minlength=len(groups))
            elif agg.kind == "sum":
                values = np.asarray(agg.expr.evaluate(ctx))
                weights = values.astype(np.float64)
                partials = np.bincount(inverse, weights=weights,
                                       minlength=len(groups))
                if values.dtype.kind in "iu":
                    partials = partials.astype(np.int64)
            else:
                values = np.asarray(agg.expr.evaluate(ctx))
                reducer = np.minimum if agg.kind == "min" else np.maximum
                fill = values.max() if agg.kind == "min" else values.min()
                partials = np.full(len(groups), fill, dtype=values.dtype)
                reducer.at(partials, inverse, values)
            for group, partial in zip(group_list, partials.tolist()):
                state.groups.setdefault(group, {})[agg.name] = _merge_scalar(
                    agg.kind, state.groups.get(group, {}).get(agg.name),
                    partial)


# --------------------------------------------------------------------------
# Batch (I/O-unit-at-a-time) execution
# --------------------------------------------------------------------------

def _late_materialize(unit: UnitColumns, survivors: np.ndarray,
                      names: Sequence[str],
                      page_of: Optional[np.ndarray] = None,
                      ) -> tuple[dict[str, np.ndarray], np.ndarray, int]:
    """Decode ``names`` only for pages with at least one surviving row.

    Returns ``(columns, gather, elided)``: the decoded columns (compacted
    to live pages), the indexes of ``survivors`` within that compacted row
    space, and the value bytes the skipped (fully-filtered) pages never
    materialized.
    """
    if page_of is None:
        page_of = np.searchsorted(unit.starts, survivors, side="right") - 1
    per_page = np.bincount(page_of, minlength=unit.page_count)
    live = np.nonzero(per_page)[0]
    dead_rows = unit.total_rows - int(unit.counts[live].sum())
    elided = dead_rows * unit.rows_per_tuple(names)
    columns = unit.decode(names, include=live)
    compact_starts = np.zeros(len(live) + 1, dtype=np.int64)
    np.cumsum(unit.counts[live], out=compact_starts[1:])
    position = np.searchsorted(live, page_of)
    gather = compact_starts[position] + (survivors - unit.starts[page_of])
    return columns, gather, elided


@dataclass
class UnitPartial:
    """Output of one I/O unit's worth of batch-kernel work."""

    row_count: int
    #: ``(page offset within the unit, output columns)`` chunks. One
    #: concatenated chunk per unit normally; one per page when page-local
    #: semantics (DISTINCT dedupe, top-N truncation) require it.
    chunks: list[tuple[int, dict[str, np.ndarray]]] = field(
        default_factory=list)
    touched_nbytes: int = 0  # page bytes the CPU actually read


class BatchKernel:
    """I/O-unit-at-a-time execution for one :class:`Query`.

    The one kernel every placement runs. Its results, counters and touched
    bytes are those of driving :class:`PageKernel` over each page of the
    unit, with the decode and expression work batched across the unit's
    concatenated rows. The predicate evaluates first over just its own
    columns; every other column is then decoded only for pages with
    surviving rows (late materialization). Aggregates fold into the
    caller's running :class:`AggState` with the per-page floating-point
    accumulation order preserved bit for bit: scalar aggregates per page
    segment in page order, grouped aggregates once per unit — each group's
    per-page partials are computed in one ``bincount`` and added onto the
    running value page by page.
    """

    def __init__(self, query: Query, schema: Schema, layout: Layout,
                 hash_table: Optional[HashTable] = None,
                 ctx_factory: type[EvalContext] = EvalContext):
        if query.join is not None and hash_table is None:
            raise PlanError("join query needs a built hash table")
        self.query = query
        self.schema = schema
        self.layout = layout
        self.hash_table = hash_table
        self.ctx_factory = ctx_factory
        self.needed_columns = query.probe_side_columns()
        for name in self.needed_columns:
            schema.column_index(name)  # validate early
        pred_names = (set(query.predicate.columns())
                      if query.predicate is not None else None)
        #: Columns the predicate needs (everything, without a predicate).
        self.predicate_columns = [
            name for name in self.needed_columns
            if pred_names is None or name in pred_names]
        #: Columns whose decode waits for the predicate's survivors.
        self.late_columns = [name for name in self.needed_columns
                             if name not in self.predicate_columns]
        #: DISTINCT dedupe and top-N truncation are page-local in the
        #: per-page kernel; emit per-page chunks to preserve that.
        self.per_page_output = bool(query.distinct
                                    or query.limit is not None)

    # -- entry points --------------------------------------------------------

    def process_unit(self, pages: Sequence[bytes], *,
                     counters: WorkCounters,
                     agg_into: Optional[AggState] = None,
                     offsets: Optional[Sequence[int]] = None) -> UnitPartial:
        """Run the kernel over one I/O unit of real page bytes.

        ``counters`` accumulates the unit's work in place; aggregate
        queries fold into ``agg_into``. ``offsets`` labels each page with
        its original position within the unit (after any pruning).
        """
        offsets = list(range(len(pages))) if offsets is None else list(offsets)
        unit = UnitColumns(self.schema, pages)
        n = unit.total_rows
        counters.pages_parsed += unit.page_count
        if self.layout is Layout.NSM:
            counters.nsm_tuples_parsed += n
        touched = touched_bytes(self.layout, self.schema,
                                self.needed_columns, n)
        columns = unit.decode(self.predicate_columns)
        ctx = self.ctx_factory(columns, n, counters, self.layout)
        if self.query.predicate is not None:
            mask = self.query.predicate.evaluate(ctx)
            survivors = np.nonzero(mask)[0]
        else:
            survivors = np.arange(n)
        page_of = np.searchsorted(unit.starts, survivors, side="right") - 1
        filtered = {name: columns[name][survivors]
                    for name in self.predicate_columns}
        if self.late_columns:
            late, gather, elided = _late_materialize(
                unit, survivors, self.late_columns, page_of=page_of)
            counters.decode_bytes_elided += elided
            for name in self.late_columns:
                filtered[name] = late[name][gather]
        counters.decoded_bytes += unit.decoded_nbytes
        return self._finish(filtered, page_of, len(survivors),
                            unit.page_count, offsets, counters, agg_into,
                            touched)

    def process_decoded_unit(self, columns: dict[str, np.ndarray],
                             counts: Sequence[int], *,
                             counters: WorkCounters,
                             agg_into: Optional[AggState] = None,
                             offsets: Optional[Sequence[int]] = None,
                             ) -> UnitPartial:
        """Run the kernel over unit columns another scan already decoded.

        ``columns`` holds each column's values concatenated across the
        pages whose live-row counts are ``counts`` (it may contain more
        columns than this query needs — a shared scan decodes the member
        union). Decode and page-setup work was charged elsewhere; only
        this query's marginal work lands in ``counters``.
        """
        counts = np.asarray(counts, dtype=np.int64)
        page_count = len(counts)
        offsets = (list(range(page_count)) if offsets is None
                   else list(offsets))
        starts = np.zeros(page_count + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        n = int(starts[-1])
        ctx = self.ctx_factory(columns, n, counters, self.layout)
        if self.query.predicate is not None:
            mask = self.query.predicate.evaluate(ctx)
            survivors = np.nonzero(mask)[0]
        else:
            survivors = np.arange(n)
        page_of = np.searchsorted(starts, survivors, side="right") - 1
        filtered = {name: columns[name][survivors]
                    for name in self.needed_columns}
        return self._finish(filtered, page_of, len(survivors), page_count,
                            offsets, counters, agg_into, touched=0)

    # -- shared tail: probe, post-predicate, project / aggregate -------------

    def _finish(self, filtered: dict[str, np.ndarray], page_of: np.ndarray,
                k: int, page_count: int, offsets: Sequence[int],
                counters: WorkCounters, agg_into: Optional[AggState],
                touched: int) -> UnitPartial:
        # Hash-join probe over the unit's concatenated survivors.
        if self.query.join is not None:
            probe_keys = filtered[self.query.join.probe_key]
            probe_ctx = self.ctx_factory(filtered, k, counters, self.layout)
            probe_ctx.charge_extract(k)
            counters.hash_probes += k
            match, positions = self.hash_table.probe(probe_keys)
            matched = np.nonzero(match)[0]
            filtered = {name: values[matched]
                        for name, values in filtered.items()}
            build_rows = positions[matched]
            for name in self.query.join.payload:
                filtered[name] = self.hash_table.payload[name][build_rows]
            page_of = page_of[matched]
            k = len(matched)

        if self.query.post_predicate is not None:
            post_ctx = self.ctx_factory(filtered, k, counters, self.layout)
            post_mask = self.query.post_predicate.evaluate(post_ctx)
            keep = np.nonzero(post_mask)[0]
            filtered = {name: values[keep]
                        for name, values in filtered.items()}
            page_of = page_of[keep]
            k = len(keep)

        out_ctx = self.ctx_factory(filtered, k, counters, self.layout)

        if self.query.select:
            return self._project(out_ctx, page_of, k, page_count, offsets,
                                 counters, touched)
        if agg_into is None:
            raise PlanError("aggregate unit needs a running AggState")
        if self.query.group_by is None:
            bounds = np.searchsorted(page_of, np.arange(page_count + 1))
            self._fold_scalar_segments(out_ctx, k, bounds, page_count,
                                       counters, agg_into)
        else:
            self._fold_grouped_unit(out_ctx, k, page_of, page_count,
                                    counters, agg_into)
        return UnitPartial(row_count=k, chunks=[], touched_nbytes=touched)

    def _project(self, out_ctx: EvalContext, page_of: np.ndarray, k: int,
                 page_count: int, offsets: Sequence[int],
                 counters: WorkCounters, touched: int) -> UnitPartial:
        out_columns = {}
        for name, expr in self.query.select:
            values = np.asarray(expr.evaluate(out_ctx))
            if values.ndim == 0:
                values = np.full(k, values)
            out_columns[name] = values
        if not self.per_page_output:
            counters.output_values += k * len(self.query.select)
            first = offsets[0] if offsets else 0
            return UnitPartial(row_count=k,
                               chunks=[(first, out_columns)],
                               touched_nbytes=touched)
        # Page-local DISTINCT / top-N: slice the unit's projected rows back
        # into page segments and apply exactly the per-page treatment.
        bounds = np.searchsorted(page_of, np.arange(page_count + 1))
        chunks = []
        total = 0
        for position in range(page_count):
            lo, hi = int(bounds[position]), int(bounds[position + 1])
            chunk = {name: values[lo:hi]
                     for name, values in out_columns.items()}
            k_page = hi - lo
            if self.query.distinct and k_page > 0:
                counters.distinct_candidates += k_page
                keep = distinct_indexes(chunk, self.query.output_names())
                chunk = {name: values[keep]
                         for name, values in chunk.items()}
                k_page = len(keep)
            if self.query.limit is not None and k_page > 0:
                counters.topn_candidates += k_page
                keep = top_n_indexes(chunk[self.query.order_by],
                                     self.query.limit,
                                     self.query.descending)
                chunk = {name: values[keep]
                         for name, values in chunk.items()}
                k_page = len(keep)
            counters.output_values += k_page * len(self.query.select)
            total += k_page
            chunks.append((offsets[position], chunk))
        return UnitPartial(row_count=total, chunks=chunks,
                           touched_nbytes=touched)

    # -- aggregation: per-page-segment partials, folded in page order --------

    def _fold_scalar_segments(self, out_ctx: EvalContext, k: int,
                              bounds: np.ndarray, page_count: int,
                              counters: WorkCounters,
                              agg_into: AggState) -> None:
        aggs = self.query.aggregates
        evaluated: dict[str, np.ndarray] = {}
        for agg in aggs:
            # Per page the kernel charges its segment's row count
            # (including empty segments, which charge 0) — the sum is k.
            counters.aggregate_updates += k
            if agg.kind == "count":
                continue
            values = np.asarray(agg.expr.evaluate(out_ctx))
            if values.ndim == 0:
                values = np.full(k, values)
            if agg.kind == "sum":
                values = values.astype(np.float64) \
                    if values.dtype.kind == "f" else values.astype(np.int64)
            evaluated[agg.name] = values
        for position in range(page_count):
            lo, hi = int(bounds[position]), int(bounds[position + 1])
            k_page = hi - lo
            for agg in aggs:
                if agg.kind == "count":
                    partial: Any = k_page
                elif k_page == 0:
                    partial = 0 if agg.kind == "sum" else None
                else:
                    segment = evaluated[agg.name][lo:hi]
                    if agg.kind == "sum":
                        partial = segment.sum().item()
                    elif agg.kind == "min":
                        partial = segment.min().item()
                    else:
                        partial = segment.max().item()
                agg_into.values[agg.name] = _merge_scalar(
                    agg.kind, agg_into.values.get(agg.name), partial)

    def _fold_grouped_unit(self, out_ctx: EvalContext, k: int,
                           page_of: np.ndarray, page_count: int,
                           counters: WorkCounters,
                           agg_into: AggState) -> None:
        aggs = self.query.aggregates
        names = self.query.group_by_columns
        # Merging a page partial always (re)writes the scalar slots, even
        # for grouped queries where they stay None; mirror that so merged
        # states compare equal.
        for agg in aggs:
            agg_into.values[agg.name] = agg_into.values.get(agg.name)
        if not k:
            # Empty segments early-return in the per-page kernel, so only
            # the k surviving rows are ever charged.
            return
        out_ctx.charge_extract(k * len(names))
        columns = out_ctx.columns
        # Dense group codes in key order: one np.unique per GROUP BY
        # column, combined in mixed radix and re-compressed after each
        # column so codes stay below k.
        code = first = None
        for name in names:
            uniques, column_first, column_code = np.unique(
                columns[name], return_index=True, return_inverse=True)
            if code is None:
                code, first = column_code, column_first
            else:
                __, first, code = np.unique(
                    code * len(uniques) + column_code,
                    return_index=True, return_inverse=True)
        group_count = len(first)
        keys = [columns[name][first].tolist() for name in names]
        keys = keys[0] if len(names) == 1 else list(zip(*keys))
        entries = [agg_into.groups.setdefault(key, {}) for key in keys]
        # One (page, group) cell per per-page partial. bincount adds each
        # cell's rows in row order from +0.0, exactly as the per-page
        # kernel does, and never yields -0.0.
        cell = page_of * group_count + code
        cell_count = page_count * group_count
        for agg in aggs:
            counters.aggregate_updates += k
            running = [entry.get(agg.name) for entry in entries]
            if agg.kind == "sum":
                values = np.asarray(agg.expr.evaluate(out_ctx))
                partials = np.bincount(
                    cell, weights=values.astype(np.float64),
                    minlength=cell_count).reshape(page_count, group_count)
                if values.dtype.kind in "iu":
                    partials = partials.astype(np.int64)
                # Float addition is order-sensitive: add the partials onto
                # the running value page by page, (prev + p0) + p1 ..., as
                # the per-page merge does. Absent cells add an exact 0.
                seed = [0 if value is None else value for value in running]
                folded = np.add.accumulate(
                    np.vstack([seed, partials]), axis=0)[-1].tolist()
            else:
                if agg.kind == "count":
                    totals = np.bincount(code, minlength=group_count)
                else:
                    # min/max are order-free: one reduction over the unit.
                    values = np.asarray(agg.expr.evaluate(out_ctx))
                    reducer = (np.minimum if agg.kind == "min"
                               else np.maximum)
                    fill = values.max() if agg.kind == "min" \
                        else values.min()
                    totals = np.full(group_count, fill, dtype=values.dtype)
                    reducer.at(totals, code, values)
                folded = [_merge_scalar(agg.kind, prev, total)
                          for prev, total in zip(running, totals.tolist())]
            for entry, value in zip(entries, folded):
                entry[agg.name] = value
