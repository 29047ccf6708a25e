"""Grouped float sums fold onto the running state in page order.

:class:`~repro.engine.kernels.BatchKernel` folds a whole I/O unit's
grouped aggregates at once, but floating-point addition is not
associative: the per-page kernel's merge computes ``(prev + p0) + p1``,
never ``prev + (p0 + p1)``. Random data rarely tells the two apart, so
this pins the order with sums where it decides the result: ``1e16 + 1.0``
rounds back to ``1e16``, while ``1e16 + 2.0`` is exact.
"""

import numpy as np
import pytest

from repro.engine import AggSpec, Col, Const, Mul, Query
from repro.engine.kernels import AggState, BatchKernel, PageKernel
from repro.model.counters import WorkCounters
from repro.storage import (
    Column,
    Int32Type,
    Int64Type,
    Layout,
    PageHeader,
    Schema,
    UnitColumns,
    build_heap_pages,
)
from repro.storage.layout import tuples_per_page

SCHEMA = Schema([
    Column("g1", Int32Type()),
    Column("g2", Int32Type()),
    Column("v", Int64Type()),
])
PAGES = 4
BIG = 10**16
QUERY = Query(table="t",
              aggregates=(AggSpec("count", None, "n"),
                          AggSpec("sum", Mul(Col("v"), Const(1.0)), "s"),
                          AggSpec("sum", Col("v"), "si"),
                          AggSpec("min", Col("v"), "lo")),
              group_by=("g1", "g2"))
#: Already in the running state before the unit folds.
RUNNING = (7, 7)
#: First seen in this unit: 1e16 on page 0, then 1.0 on later pages.
FRESH = (8, 8)


def _rows(layout):
    """Each page opens with one RUNNING and one FRESH row of value 1 (1e16
    for FRESH on page 0); the other rows fill six other groups."""
    per_page = tuples_per_page(layout, SCHEMA)
    n = PAGES * per_page
    rows = np.empty(n, dtype=SCHEMA.numpy_dtype())
    index = np.arange(n)
    rows["g1"] = index % 2
    rows["g2"] = index % 3
    rows["v"] = 3
    starts = index[::per_page]
    rows["g1"][starts], rows["g2"][starts] = RUNNING
    rows["g1"][starts + 1], rows["g2"][starts + 1] = FRESH
    rows["v"][starts] = 1
    rows["v"][starts + 1] = 1
    rows["v"][1] = BIG
    return rows


def _running_state():
    return AggState(values=dict.fromkeys(("n", "s", "si", "lo")),
                    groups={RUNNING: {"n": 1, "s": float(BIG),
                                      "si": BIG, "lo": BIG}})


@pytest.mark.parametrize("entry", ["pages", "decoded"])
@pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
def test_grouped_float_sums_fold_in_page_order(layout, entry):
    pages = build_heap_pages(SCHEMA, _rows(layout), layout)
    assert len(pages) == PAGES
    kernel = BatchKernel(QUERY, SCHEMA, layout)
    reference = PageKernel(QUERY, SCHEMA, layout)

    want = _running_state()
    for page in pages:
        if entry == "pages":
            partial = reference.process_page(page)
        else:
            partial = reference.process_decoded(
                UnitColumns(SCHEMA, [page]).decode(SCHEMA.names),
                PageHeader.decode(page).tuple_count)
        want.merge(partial.agg, QUERY.aggregates)

    got = _running_state()
    if entry == "pages":
        kernel.process_unit(pages, counters=WorkCounters(), agg_into=got)
    else:
        unit = UnitColumns(SCHEMA, pages)
        kernel.process_decoded_unit(unit.decode(SCHEMA.names), unit.counts,
                                    counters=WorkCounters(), agg_into=got)

    assert got.groups == want.groups
    assert got.values == want.values
    # (1e16 + 1.0) + 1.0 ... stays 1e16; summing the pages first would not.
    assert got.groups[RUNNING]["s"] == float(BIG)
    assert got.groups[FRESH]["s"] == float(BIG)
    # Integer sums and counts are exact whatever the order.
    assert got.groups[RUNNING]["si"] == BIG + PAGES
    assert got.groups[FRESH]["si"] == BIG + PAGES - 1
    assert got.groups[RUNNING]["n"] == 1 + PAGES
    assert got.groups[FRESH]["lo"] == 1

