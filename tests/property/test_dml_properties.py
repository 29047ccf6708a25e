"""Property tests: UPDATE/flush against an in-memory NumPy model, and the
unit-batched UPDATE against the page-at-a-time rewrite it replaced."""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (Add, AggSpec, And, CaseWhen, Col, Compare, Const,
                          Div, Expr, Mul, Or, Query)
from repro.engine.expressions import EvalContext
from repro.host.bufferpool import BufferPoolError
from repro.host.db import Database, DatabaseConfig
from repro.host.dml import update_process
from repro.model.counters import WorkCounters
from repro.smart.programs.base import unit_lpn_runs
from repro.storage import (CharType, Column, Int32Type, Layout, Schema,
                           decode_page, encode_page)
from repro.storage.page import PageHeader

SCHEMA = Schema([Column("k", Int32Type()), Column("v", Int32Type())])


@st.composite
def update_scripts(draw):
    """A sequence of (threshold, assignment, flush?) update steps."""
    steps = draw(st.lists(
        st.tuples(
            st.integers(-5, 60),                 # predicate threshold on k
            st.one_of(st.integers(-100, 100),    # constant assignment
                      st.just("double")),        # expression assignment
            st.booleans(),                       # flush afterwards?
        ),
        min_size=1, max_size=6))
    return steps


@given(update_scripts(), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_updates_track_numpy_model(steps, seed):
    rng = np.random.default_rng(seed)
    n = 50
    rows = np.empty(n, dtype=SCHEMA.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = rng.integers(-50, 50, n)
    model = rows["v"].astype(np.int64).copy()

    db = Database()
    db.create_smart_ssd()
    db.create_table("t", SCHEMA, Layout.PAX, rows, "smart-ssd")

    flushed_everything = False
    for threshold, assignment, flush in steps:
        predicate = Compare(Col("k"), "<", Const(threshold))
        mask = np.arange(n) < threshold
        if assignment == "double":
            value = Mul(Col("v"), Const(2))
            expected_vals = model * 2
        else:
            value = assignment
            expected_vals = np.full(n, assignment, dtype=np.int64)
        # Keep values in int32 range (doubling repeatedly could overflow).
        if np.abs(expected_vals[mask]).max(initial=0) > 2**30:
            continue
        changed = db.update_rows("t", predicate, {"v": value})
        assert changed == int(mask.sum())
        model[mask] = expected_vals[mask]
        if flush:
            db.flush_table("t")
            flushed_everything = True

    # The host path always sees the model.
    total = Query(table="t", aggregates=(AggSpec("sum", Col("v"), "s"),))
    host = db.execute(total, placement="host")
    assert host.rows[0]["s"] == int(model.sum())

    # After a final flush, pushdown agrees too.
    db.flush_table("t")
    smart = db.execute(total, placement="smart")
    assert smart.rows[0]["s"] == int(model.sum())


# -- unit-batched UPDATE vs the page-at-a-time rewrite ----------------------

#: 72 tuples per PAX page, 65 per NSM page: a few thousand rows span more
#: than one 32-page I/O unit.
WIDE = Schema([Column("k", Int32Type()), Column("v", Int32Type()),
               Column("w", Int32Type()), Column("pad", CharType(100))])


def _reference_update(db, table_name, predicate, assignments,
                      io_unit_pages, counters_out):
    """The page-at-a-time UPDATE that ``update_process`` replaced.

    Every page of every unit is decoded and copied, the predicate runs per
    page, and each page with a hit is re-encoded and cached dirty.
    """
    table = db.catalog.table(table_name)
    device = db.device(table.device_name)
    schema = table.schema
    for name in assignments:
        schema.column_index(name)

    updated = 0
    for lpns in unit_lpn_runs(table.heap, io_unit_pages):
        pages = []
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
        for lpn, page in zip(lpns, pages):
            header = PageHeader.decode(page)
            rows = decode_page(schema, page).copy()
            n = header.tuple_count
            counters.pages_parsed += 1
            ctx = EvalContext(
                {name: rows[name].copy() for name in schema.names},
                n, counters, table.layout)
            if predicate is not None:
                mask = np.asarray(predicate.evaluate(ctx), dtype=bool)
            else:
                mask = np.ones(n, dtype=bool)
            hit_count = int(mask.sum())
            if hit_count == 0:
                continue
            for name, value in assignments.items():
                column = schema.column(name)
                if isinstance(value, Expr):
                    values = np.asarray(value.evaluate(ctx, mask))
                    if values.ndim == 0:
                        values = np.full(n, values)
                    rows[name][mask] = values[mask]
                else:
                    rows[name][mask] = column.ctype.validate(value)
                counters.output_values += hit_count
            new_page = encode_page(table.layout, schema, rows,
                                   table_id=header.table_id,
                                   page_index=header.page_index)
            db.buffer_pool.insert(table.device_name, lpn, new_page,
                                  dirty=True)
            updated += hit_count
        yield from db.machine.compute(db.costs.cycles(counters))
        counters_out.add(counters)
    if updated:
        db.catalog.bump_version(table_name)
    return updated


_COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _predicates(n):
    """Predicates over an ``n``-row table, at every hit rate: compares on
    each column, a narrow key range (a page or two), all and no rows, and
    nested ``And``/``Or`` of those."""
    key = st.integers(-2, n + 2)
    leaves = st.one_of(
        st.builds(lambda op, c: Compare(Col("k"), op, Const(c)),
                  st.sampled_from(_COMPARE_OPS), key),
        st.builds(lambda name, op, c: Compare(Col(name), op, Const(c)),
                  st.sampled_from(["v", "w"]), st.sampled_from(_COMPARE_OPS),
                  st.integers(-600, 600)),
        st.builds(lambda lo, width: And(Compare(Col("k"), ">=", Const(lo)),
                                        Compare(Col("k"), "<",
                                                Const(lo + width))),
                  key, st.integers(1, 150)),
        st.just(Compare(Col("k"), ">=", Const(0))),
        st.just(Compare(Col("k"), "<", Const(0))),
    )
    tree = st.recursive(
        leaves, lambda inner: st.one_of(st.builds(And, inner, inner),
                                        st.builds(Or, inner, inner)),
        max_leaves=4)
    # No predicate one time in four.
    return st.integers(0, 3).flatmap(lambda i: tree if i else st.none())


_set_values = st.one_of(
    st.builds(Const, st.integers(-1000, 1000)),
    st.integers(-1000, 1000),
    st.just(Add(Col("v"), Const(3))),
    st.just(Div(Col("v"), Const(7))),
    st.builds(lambda t: CaseWhen(Compare(Col("w"), "<", Const(t)),
                                 Add(Col("k"), Const(1)), Col("v")),
              st.integers(0, 10)),
)
_assignments = st.builds(
    lambda v, w, pad: {"v": v, **({"w": w} if w is not None else {}),
                       **({"pad": pad} if pad is not None else {})},
    _set_values, st.none() | _set_values, st.none() | st.just("updated"))


def _world(layout, n, seed, pool_frames):
    config = DatabaseConfig()
    if pool_frames is not None:
        config = replace(config, host=replace(
            config.host, buffer_pool_nbytes=pool_frames * 8192))
    rng = np.random.default_rng(seed)
    rows = np.zeros(n, dtype=WIDE.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = rng.integers(-500, 500, n)
    rows["w"] = rng.integers(0, 10, n)
    db = Database(config)
    db.create_smart_ssd()
    db.create_table("t", WIDE, layout, rows, "smart-ssd")
    return db


def _pool_state(db):
    pool = db.buffer_pool
    frames = {key: (frame.data, frame.dirty, frame.referenced)
              for key, frame in pool._frames.items()}
    return (frames, list(pool._clock_order), pool._clock_hand, pool.hits,
            pool.misses, pool.evictions, pool.dirty_lpns("smart-ssd"))


@given(layout=st.sampled_from([Layout.NSM, Layout.PAX]),
       io_unit_pages=st.sampled_from([1, 3, 32]),
       full_pages=st.integers(0, 40),
       ragged_rows=st.integers(0, 63),
       seed=st.integers(0, 2**31),
       pool_frames=st.one_of(st.none(), st.integers(8, 48)),
       data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_unit_batched_update_matches_per_page_reference(
        layout, io_unit_pages, full_pages, ragged_rows, seed, pool_frames,
        data):
    """Pages, dirty set, rows changed, every counter and the virtual clock
    are identical to rewriting page by page.

    A small buffer pool evicts clean pages mid-statement, or fills up with
    dirty ones and fails; a failure must come at the same point, with the
    same error, in both.
    """
    n = 64 * full_pages + ragged_rows
    statements = data.draw(st.lists(
        st.tuples(_predicates(n), _assignments), min_size=1, max_size=2))
    batched = _world(layout, n, seed, pool_frames)
    reference = _world(layout, n, seed, pool_frames)
    for predicate, assignments in statements:
        outcomes = []
        for db, process in ((batched, update_process),
                            (reference, _reference_update)):
            counters = WorkCounters()
            proc = db.sim.process(process(
                db, "t", predicate, assignments,
                io_unit_pages=io_unit_pages, counters_out=counters))
            try:
                db.sim.run()
                result = proc.value
            except (BufferPoolError, KeyError) as exc:
                # A pool full of dirty pages; or a page counted resident,
                # then evicted by the unit's own misses before its lookup.
                result = f"{type(exc).__name__}: {exc}"
            outcomes.append((result, counters, db.sim.now,
                             db.catalog.version("t")))
        assert outcomes[0] == outcomes[1]
        assert _pool_state(batched) == _pool_state(reference)
        if isinstance(outcomes[0][0], str):
            break
