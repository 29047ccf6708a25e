"""Property test: the batch kernel is a bit-identical page-kernel replay.

:class:`~repro.engine.kernels.BatchKernel` processes a whole I/O unit at
once — batched decode, unit-wide predicate, late materialization — but it
must be indistinguishable from driving :class:`PageKernel` page by page:
same output rows, same work counters (the inputs to virtual time), same
touched bytes. This suite drives both over the same random pages and
compares everything, including combinators nested on the short-circuited
side of an ``AND``/``OR`` (whose charges add up across pages only because
each node is charged per row of its active set), and the NSM layout where
decode degrades to whole-record parsing. The pages are cut into one or
more I/O units folded into one running aggregate state, through both the
page-bytes entry point and the shared-scan (already decoded) one. The
join build side's :class:`BuildCollector` is held to the same rule: one
multi-page batch must match consuming the pages one at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AggSpec,
    And,
    CaseWhen,
    Col,
    Compare,
    Const,
    Div,
    JoinSpec,
    Mul,
    Or,
    Query,
)
from repro.engine.kernels import (
    AggState,
    BatchKernel,
    BuildCollector,
    HashTable,
    PageKernel,
)
from repro.model.counters import WorkCounters, counter_field_names
from repro.storage import (
    Column,
    Int32Type,
    Int64Type,
    Layout,
    PageHeader,
    Schema,
    UnitColumns,
    build_heap_pages,
    decode_columns,
)

SCHEMA = Schema([
    Column("a", Int32Type()),
    Column("b", Int32Type()),
    Column("c", Int64Type()),
    Column("fk", Int32Type()),
])
DIM_SCHEMA = Schema([
    Column("pk", Int32Type()),
    Column("payload", Int32Type()),
])

#: Counters the page kernel maintains; the two new decode counters are
#: batch-only (the per-page path never sets them) and asserted separately.
_LEGACY_COUNTERS = tuple(name for name in counter_field_names()
                         if name not in ("decoded_bytes",
                                         "decode_bytes_elided"))

_OPS = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
_COLUMNS = st.sampled_from(["a", "b"])


@st.composite
def predicates(draw, depth=2, columns=_COLUMNS):
    """Random predicates, including combinators nested on the
    short-circuited right side of another."""
    if depth == 0 or draw(st.booleans()):
        return Compare(Col(draw(columns)), draw(_OPS),
                       Const(draw(st.integers(-5, 25))))
    combiner = draw(st.sampled_from([And, Or]))
    return combiner(draw(predicates(depth - 1, columns)),
                    draw(predicates(depth - 1, columns)))


@st.composite
def right_nested_predicates(draw, columns):
    """A combinator whose right side is itself a combinator."""
    outer, inner = draw(st.lists(st.sampled_from([And, Or]),
                                 min_size=2, max_size=2))
    return outer(draw(predicates(1, columns)),
                 inner(draw(predicates(1, columns)),
                       draw(predicates(1, columns))))


@st.composite
def edge_predicates(draw):
    """Predicates pinned to 0% / 100% selectivity plus CASE arithmetic."""
    kind = draw(st.sampled_from(["none", "all", "case"]))
    if kind == "none":
        return Compare(Col("a"), "<", Const(-10**6))
    if kind == "all":
        return Compare(Col("a"), ">=", Const(-10**6))
    return Compare(
        CaseWhen(Compare(Col("a"), ">", Const(0)),
                 Mul(Col("b"), Const(2)), Col("b")),
        draw(_OPS), Const(draw(st.integers(-10, 40))))


@st.composite
def queries(draw):
    predicate = draw(st.one_of(st.none(), predicates(), edge_predicates()))
    join = None
    post_predicate = None
    if draw(st.booleans()):
        join = JoinSpec(build_table="dim", build_key="pk",
                        probe_key="fk", payload=("payload",))
        if draw(st.booleans()):
            post_predicate = Compare(Col("payload"), draw(_OPS),
                                     Const(draw(st.integers(0, 100))))
    if draw(st.booleans()):
        pool = ["a", "b", "c"] + (["payload"] if join else [])
        names = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=3, unique=True))
        order_by = None
        limit = None
        descending = False
        if draw(st.booleans()):
            order_by = draw(st.sampled_from(names))
            descending = draw(st.booleans())
            if draw(st.booleans()):
                limit = draw(st.integers(1, 10))
        return Query(table="fact", predicate=predicate, join=join,
                     post_predicate=post_predicate,
                     select=tuple((n, Col(n)) for n in names),
                     order_by=order_by, descending=descending, limit=limit,
                     distinct=draw(st.booleans()))
    agg_pool = [AggSpec("count", None, "n"),
                AggSpec("sum", Col("a"), "s"),
                AggSpec("sum", Mul(Col("b"), Const(3)), "s3"),
                # Float-valued: its sums round, so fold order shows.
                AggSpec("sum", Div(Col("c"), Const(7)), "fs"),
                AggSpec("min", Col("b"), "lo"),
                AggSpec("max", Col("c"), "hi")]
    if join:
        agg_pool.append(AggSpec("sum", Col("payload"), "p"))
    aggregates = draw(st.lists(st.sampled_from(agg_pool), min_size=1,
                               max_size=4, unique_by=lambda agg: agg.name))
    group_by = draw(st.one_of(
        st.none(), st.sampled_from(["a", "b"]),
        st.sampled_from([("a", "b"), ("b", "a"), ("a", "c")])))
    return Query(table="fact", predicate=predicate, join=join,
                 post_predicate=post_predicate,
                 aggregates=tuple(aggregates), group_by=group_by)


@st.composite
def datasets(draw):
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(seed)
    rows = np.empty(n, dtype=SCHEMA.numpy_dtype())
    rows["a"] = rng.integers(-10, 30, n)
    rows["b"] = rng.integers(-10, 30, n)
    rows["c"] = rng.integers(-10**6, 10**6, n)
    rows["fk"] = rng.integers(0, 12, n)  # some fks dangle (pk 0..7)
    dim = np.empty(8, dtype=DIM_SCHEMA.numpy_dtype())
    dim["pk"] = np.arange(8)
    dim["payload"] = rng.integers(0, 100, 8)
    return rows, dim


def _hash_table(query, dim):
    if query.join is None:
        return None
    return HashTable(dim["pk"],
                     {"payload": np.ascontiguousarray(dim["payload"])})


def _page_reference(kernel, pages, query, decoded):
    """Drive the per-page kernel and collect its totals.

    ``decoded`` hands each page over already decoded (every column, as a
    shared scan decodes its riders' union) instead of as page bytes.
    """
    counters = WorkCounters()
    touched = 0
    agg = AggState()
    chunks = []
    for page in pages:
        if decoded:
            partial = kernel.process_decoded(
                decode_columns(SCHEMA, page, SCHEMA.names),
                PageHeader.decode(page).tuple_count)
        else:
            partial = kernel.process_page(page)
        counters.add(partial.counters)
        touched += partial.touched_nbytes
        if query.select:
            chunks.append(partial.columns)
        else:
            agg.merge(partial.agg, query.aggregates)
    return counters, touched, chunks, agg


def _concat(chunks, names):
    return {name: np.concatenate([c[name] for c in chunks])
            if chunks else np.empty(0) for name in names}


def _units(pages, cuts):
    """Split ``pages`` into consecutive I/O units at the ``cuts`` that fall
    inside the table."""
    edges = [0, *sorted({c for c in cuts if c < len(pages)}), len(pages)]
    return [pages[lo:hi] for lo, hi in zip(edges, edges[1:])]


@given(queries(), datasets(), st.sampled_from([Layout.NSM, Layout.PAX]),
       st.lists(st.integers(1, 6), max_size=3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_batch_kernel_matches_page_kernel(query, data, layout, cuts,
                                          decoded):
    rows, dim = data
    pages = build_heap_pages(SCHEMA, rows, layout)
    table = _hash_table(query, dim)
    batch = BatchKernel(query, SCHEMA, layout, hash_table=table)

    ref_counters, ref_touched, ref_chunks, ref_agg = _page_reference(
        PageKernel(query, SCHEMA, layout, hash_table=table), pages, query,
        decoded)

    # One or more units folding into one running state.
    counters = WorkCounters()
    agg = AggState()
    chunks = []
    touched = 0
    for unit_pages in _units(pages, cuts):
        agg_into = None if query.select else agg
        if decoded:
            unit = UnitColumns(SCHEMA, unit_pages)
            partial = batch.process_decoded_unit(
                unit.decode(SCHEMA.names), unit.counts, counters=counters,
                agg_into=agg_into)
        else:
            partial = batch.process_unit(unit_pages, counters=counters,
                                         agg_into=agg_into)
        chunks.extend(chunk for __, chunk in partial.chunks)
        touched += partial.touched_nbytes

    # Work counters — the inputs to virtual time — must match exactly.
    for name in _LEGACY_COUNTERS:
        assert getattr(counters, name) == getattr(ref_counters, name), name
    assert touched == ref_touched

    if query.select:
        names = query.output_names()
        got = _concat(chunks, names)
        want = _concat(ref_chunks, names)
        for name in names:
            assert np.array_equal(got[name], want[name])
            if len(want[name]):
                assert got[name].dtype == want[name].dtype
    else:
        # Scalar slots must match bit for bit (same float fold order) and
        # grouped partials must agree per group per aggregate.
        assert agg.values == ref_agg.values
        assert agg.groups == ref_agg.groups


@given(datasets(), st.sampled_from([Layout.NSM, Layout.PAX]))
@settings(max_examples=20, deadline=None)
def test_late_materialization_elides_dead_pages(data, layout):
    """A page whose rows all fail the filter never decodes its
    non-predicate columns (modulo NSM's unavoidable record parse)."""
    rows, __ = data
    rows = rows.copy()
    rows["a"] = 10**6  # no row ever passes
    pages = build_heap_pages(SCHEMA, rows, layout)
    query = Query(table="fact",
                  predicate=Compare(Col("a"), "<", Const(0)),
                  select=(("b", Col("b")), ("c", Col("c"))))
    batch = BatchKernel(query, SCHEMA, layout)
    counters = WorkCounters()
    partial = batch.process_unit(pages, counters=counters)
    assert partial.row_count == 0
    late_nbytes = len(rows) * (SCHEMA.column("b").nbytes
                               + SCHEMA.column("c").nbytes)
    assert counters.decode_bytes_elided == late_nbytes
    # Only the predicate column was materialized.
    assert counters.decoded_bytes == len(rows) * SCHEMA.column("a").nbytes


@given(st.integers(0, 2**31), st.integers(1, 6000),
       right_nested_predicates(st.sampled_from(["pk", "payload"])),
       st.sampled_from([Layout.NSM, Layout.PAX]))
@settings(max_examples=40, deadline=None)
def test_build_collector_batch_matches_per_page(seed, n, predicate, layout):
    """A build predicate with a nested right-side combinator charges and
    keeps the same over one multi-page batch as over its pages one by
    one."""
    rng = np.random.default_rng(seed)
    rows = np.empty(n, dtype=DIM_SCHEMA.numpy_dtype())
    rows["pk"] = rng.permutation(n)
    rows["payload"] = rng.integers(-10, 30, n)
    pages = build_heap_pages(DIM_SCHEMA, rows, layout)
    spec = JoinSpec(build_table="dim", build_key="pk", probe_key="fk",
                    payload=("payload",), build_predicate=predicate)

    batch_counters = WorkCounters()
    batch = BuildCollector(DIM_SCHEMA, spec)
    batch_touched = batch.consume(pages, batch_counters, layout)
    page_counters = WorkCounters()
    paged = BuildCollector(DIM_SCHEMA, spec)
    page_touched = sum(paged.consume([page], page_counters, layout)
                       for page in pages)

    for name in counter_field_names():
        assert getattr(batch_counters, name) == \
            getattr(page_counters, name), name
    assert batch_touched == page_touched
    got, want = batch.finish(), paged.finish()
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.payload["payload"], want.payload["payload"])
