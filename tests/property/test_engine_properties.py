"""Property tests: expression semantics and aggregate-merge algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Add,
    AggSpec,
    AggState,
    And,
    CaseWhen,
    Col,
    Compare,
    Const,
    EvalContext,
    HashTable,
    Mul,
    Or,
)
from repro.engine.kernels import _merge_scalar
from repro.model import WorkCounters
from repro.storage.layout import Layout

_OPS = ["<", "<=", ">", ">=", "==", "!="]
_PY_OPS = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


def ctx_of(values):
    arr = np.asarray(values, dtype=np.int64)
    return EvalContext({"x": arr}, len(arr), WorkCounters(), Layout.PAX), \
        len(arr)


@given(st.lists(st.integers(-100, 100), min_size=0, max_size=50),
       st.sampled_from(_OPS), st.integers(-100, 100))
@settings(max_examples=80, deadline=None)
def test_compare_matches_python_semantics(values, op, constant):
    ctx, n = ctx_of(values)
    mask = Compare(Col("x"), op, Const(constant)).evaluate(ctx)
    expected = [_PY_OPS[op](v, constant) for v in values]
    assert mask.tolist() == expected


@given(st.lists(st.integers(-50, 50), min_size=0, max_size=40),
       st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_and_or_match_boolean_algebra(values, a, b):
    ctx, n = ctx_of(values)
    left = Compare(Col("x"), "<", Const(a))
    right = Compare(Col("x"), ">", Const(b))
    and_mask = And(left, right).evaluate(ctx)
    ctx2, __ = ctx_of(values)
    or_mask = Or(Compare(Col("x"), "<", Const(a)),
                 Compare(Col("x"), ">", Const(b))).evaluate(ctx2)
    assert and_mask.tolist() == [(v < a) and (v > b) for v in values]
    assert or_mask.tolist() == [(v < a) or (v > b) for v in values]


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=40),
       st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_shortcircuit_charge_never_exceeds_full(values, a):
    """Short-circuiting can only reduce the charged predicate count."""
    ctx, n = ctx_of(values)
    And(Compare(Col("x"), "<", Const(a)),
        Compare(Col("x"), ">", Const(-a))).evaluate(ctx)
    assert ctx.counters.predicates_evaluated <= 2 * n
    assert ctx.counters.predicates_evaluated >= n


@st.composite
def _values(draw, depth):
    """Integer-valued expressions over columns x and y."""
    if depth == 0 or draw(st.booleans()):
        return Col(draw(st.sampled_from(["x", "y"])))
    kind = draw(st.sampled_from(["add", "mul", "case"]))
    if kind == "case":
        return CaseWhen(draw(_predicates(depth - 1)),
                        draw(_values(depth - 1)), draw(_values(depth - 1)))
    node = Add if kind == "add" else Mul
    return node(draw(_values(depth - 1)), Const(draw(st.integers(-3, 3))))


@st.composite
def _predicates(draw, depth=3):
    """Predicates with combinators and CASE nested at any position."""
    if depth == 0 or draw(st.booleans()):
        return Compare(draw(_values(depth)), draw(st.sampled_from(_OPS)),
                       Const(draw(st.integers(-10, 10))))
    node = draw(st.sampled_from([And, Or]))
    return node(draw(_predicates(depth - 1)), draw(_predicates(depth - 1)))


def _one_row(expr, row, tally):
    """Evaluate ``expr`` on one row as a tuple-at-a-time engine would,
    with Python's own short-circuit ``and`` / ``or`` / conditional."""
    if isinstance(expr, Col):
        tally["pax_values_extracted"] += 1
        return row[expr.name]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, And):
        return _one_row(expr.left, row, tally) and \
            _one_row(expr.right, row, tally)
    if isinstance(expr, Or):
        return _one_row(expr.left, row, tally) or \
            _one_row(expr.right, row, tally)
    if isinstance(expr, CaseWhen):
        if _one_row(expr.condition, row, tally):
            return _one_row(expr.then, row, tally)
        return _one_row(expr.otherwise, row, tally)
    left = _one_row(expr.left, row, tally)
    right = _one_row(expr.right, row, tally)
    if isinstance(expr, Compare):
        tally["predicates_evaluated"] += 1
        return _PY_OPS[expr.op](left, right)
    tally["arithmetic_ops"] += 1
    return left + right if isinstance(expr, Add) else left * right


@given(st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                min_size=0, max_size=30), _predicates())
@settings(max_examples=150, deadline=None)
def test_charges_match_tuple_at_a_time_engine(rows, predicate):
    """Vectorized evaluation charges exactly the work of evaluating each
    row on its own with short-circuiting, whatever the nesting."""
    x = np.array([r[0] for r in rows], dtype=np.int64)
    y = np.array([r[1] for r in rows], dtype=np.int64)
    ctx = EvalContext({"x": x, "y": y}, len(rows), WorkCounters(),
                      Layout.PAX)
    mask = predicate.evaluate(ctx)
    tally = dict.fromkeys(
        ("pax_values_extracted", "predicates_evaluated", "arithmetic_ops"), 0)
    want = [bool(_one_row(predicate, {"x": a, "y": b}, tally))
            for a, b in rows]
    assert mask.tolist() == want
    for name, count in tally.items():
        assert getattr(ctx.counters, name) == count, name


@given(st.lists(st.integers(0, 1_000_000), min_size=1, max_size=200,
                unique=True),
       st.lists(st.integers(0, 1_000_000), min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_hash_table_probe_matches_dict(build_keys, probe_keys):
    keys = np.asarray(build_keys, dtype=np.int64)
    table = HashTable(keys, {"pos": np.arange(len(keys), dtype=np.int64)})
    mapping = {k: i for i, k in enumerate(keys.tolist())}
    match, positions = table.probe(np.asarray(probe_keys, dtype=np.int64))
    for i, key in enumerate(probe_keys):
        if key in mapping:
            assert bool(match[i])
            # The payload row the probe lands on is the dict's row.
            assert table.payload["pos"][positions[i]] == mapping[key]
        else:
            assert not bool(match[i])


@st.composite
def agg_partials(draw):
    values = draw(st.lists(st.integers(-1000, 1000), min_size=1,
                           max_size=60))
    cut_count = draw(st.integers(0, 4))
    cuts = sorted(draw(st.lists(
        st.integers(0, len(values)), min_size=cut_count,
        max_size=cut_count)))
    return values, [0, *cuts, len(values)]


@given(agg_partials())
@settings(max_examples=80, deadline=None)
def test_agg_merge_partition_invariance(data):
    """Folding any partition of the rows gives the whole-set aggregates."""
    values, bounds = data
    aggs = (AggSpec("sum", Col("x"), "s"), AggSpec("count", None, "n"),
            AggSpec("min", Col("x"), "lo"), AggSpec("max", Col("x"), "hi"))
    total = AggState()
    for start, end in zip(bounds, bounds[1:]):
        chunk = values[start:end]
        part = AggState()
        part.values = {
            "s": sum(chunk) if chunk else 0,
            "n": len(chunk),
            "lo": min(chunk) if chunk else None,
            "hi": max(chunk) if chunk else None,
        }
        total.merge(part, aggs)
    assert total.values["s"] == sum(values)
    assert total.values["n"] == len(values)
    assert total.values["lo"] == min(values)
    assert total.values["hi"] == max(values)


@given(st.sampled_from(["sum", "count", "min", "max"]),
       st.one_of(st.none(), st.integers(-99, 99)),
       st.one_of(st.none(), st.integers(-99, 99)))
@settings(max_examples=60, deadline=None)
def test_merge_scalar_identity_and_commutativity(kind, a, b):
    assert _merge_scalar(kind, a, None) == a
    assert _merge_scalar(kind, None, b) == b
    if kind in ("min", "max", "sum", "count"):
        assert _merge_scalar(kind, a, b) == _merge_scalar(kind, b, a)
