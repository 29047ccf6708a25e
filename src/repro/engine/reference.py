"""Reference executor: ground truth for correctness tests.

Runs a :class:`~repro.engine.plans.Query` directly over in-memory row
arrays — no pages, no devices, no pipelining, no counters — using plain
NumPy whole-table operations and a real Python dict for the join. The page
kernels, host executor, and Smart SSD path must all produce exactly these
results.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PlanError
from repro.engine.expressions import EvalContext
from repro.engine.plans import Query
from repro.model.counters import WorkCounters
from repro.storage.layout import Layout
from repro.storage.schema import Schema


def _as_columns(schema: Schema, rows: np.ndarray) -> dict[str, np.ndarray]:
    return {name: rows[name] for name in schema.names}


def run_reference(query: Query, schemas: dict[str, Schema],
                  tables: dict[str, np.ndarray]) -> Any:
    """Execute ``query`` over raw row arrays.

    Returns a dict of output-name -> array for select queries, a dict of
    aggregate-name -> value for scalar aggregates (after ``finalize``), or a
    dict of group -> {aggregate: value} for grouped aggregates.
    """
    if query.table not in tables:
        raise PlanError(f"missing table {query.table!r}")
    schema = schemas[query.table]
    columns = _as_columns(schema, tables[query.table])
    n = len(tables[query.table])
    scratch = WorkCounters()  # reference runs are not priced
    ctx = EvalContext(columns, n, scratch, Layout.PAX)

    if query.predicate is not None:
        mask = query.predicate.evaluate(ctx)
        keep = np.nonzero(mask)[0]
    else:
        keep = np.arange(n)
    filtered = {name: values[keep] for name, values in columns.items()}

    if query.join is not None:
        spec = query.join
        build_schema = schemas[spec.build_table]
        build_columns = _as_columns(build_schema, tables[spec.build_table])
        build_n = len(tables[spec.build_table])
        if spec.build_predicate is not None:
            bctx = EvalContext(build_columns, build_n, scratch, Layout.PAX)
            bmask = spec.build_predicate.evaluate(bctx)
            build_keep = np.nonzero(bmask)[0]
        else:
            build_keep = np.arange(build_n)
        mapping: dict[Any, int] = {}
        build_keys = build_columns[spec.build_key][build_keep]
        for position, key in enumerate(build_keys.tolist()):
            if key in mapping:
                raise PlanError("reference join requires unique build keys")
            mapping[key] = position
        probe_keys = filtered[spec.probe_key].tolist()
        matched_probe = []
        matched_build = []
        for row, key in enumerate(probe_keys):
            position = mapping.get(key)
            if position is not None:
                matched_probe.append(row)
                matched_build.append(position)
        probe_index = np.asarray(matched_probe, dtype=np.int64)
        build_index = np.asarray(matched_build, dtype=np.int64)
        filtered = {name: values[probe_index]
                    for name, values in filtered.items()}
        for name in spec.payload:
            filtered[name] = build_columns[name][build_keep][build_index]

    k = len(next(iter(filtered.values()))) if filtered else 0

    if query.post_predicate is not None:
        post_ctx = EvalContext(filtered, k, scratch, Layout.PAX)
        post_mask = query.post_predicate.evaluate(post_ctx)
        keep = np.nonzero(post_mask)[0]
        filtered = {name: values[keep] for name, values in filtered.items()}
        k = len(keep)

    out_ctx = EvalContext(filtered, k, scratch, Layout.PAX)

    if query.select:
        out = {}
        for name, expr in query.select:
            values = np.asarray(expr.evaluate(out_ctx))
            if values.ndim == 0:
                values = np.full(k, values)
            out[name] = values
        if query.distinct and k:
            from repro.engine.kernels import distinct_indexes
            keep = distinct_indexes(out, query.output_names())
            out = {name: values[keep] for name, values in out.items()}
        if query.order_by is not None and len(next(iter(out.values()))):
            from repro.engine.kernels import order_and_limit_indexes
            keep = order_and_limit_indexes(out[query.order_by], query.limit,
                                           query.descending)
            out = {name: values[keep] for name, values in out.items()}
        return out

    if query.group_by is not None:
        return _grouped_reference(query, out_ctx, k)

    result: dict[str, Any] = {}
    for agg in query.aggregates:
        if agg.kind == "count":
            result[agg.name] = k
            continue
        values = np.asarray(agg.expr.evaluate(out_ctx))
        if k == 0:
            result[agg.name] = 0 if agg.kind == "sum" else None
        elif agg.kind == "sum":
            acc = values.astype(np.float64) if values.dtype.kind == "f" \
                else values.astype(np.int64)
            result[agg.name] = acc.sum().item()
        elif agg.kind == "min":
            result[agg.name] = values.min().item()
        else:
            result[agg.name] = values.max().item()
    if query.finalize is not None:
        result = query.finalize(result)
    return result


def _grouped_reference(query: Query, ctx: EvalContext,
                       k: int) -> dict[Any, dict[str, Any]]:
    names = query.group_by_columns
    if len(names) == 1:
        key_rows = [(v,) for v in ctx.columns[names[0]].tolist()]
    else:
        key_rows = list(zip(*(ctx.columns[n].tolist() for n in names)))
    out: dict[Any, dict[str, Any]] = {}
    for group in sorted(set(key_rows)):
        members = np.asarray([i for i, key in enumerate(key_rows)
                              if key == group], dtype=np.int64)
        group = group[0] if len(names) == 1 else group
        sub = {name: values[members] for name, values in ctx.columns.items()}
        sub_ctx = EvalContext(sub, len(members), WorkCounters(), Layout.PAX)
        entry: dict[str, Any] = {}
        for agg in query.aggregates:
            if agg.kind == "count":
                entry[agg.name] = len(members)
                continue
            values = np.asarray(agg.expr.evaluate(sub_ctx))
            if agg.kind == "sum":
                acc = values.astype(np.float64) if values.dtype.kind == "f" \
                    else values.astype(np.int64)
                entry[agg.name] = acc.sum().item()
            elif agg.kind == "min":
                entry[agg.name] = values.min().item()
            else:
                entry[agg.name] = values.max().item()
        out[group] = entry
    return out
