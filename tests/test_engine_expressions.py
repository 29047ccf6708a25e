"""Unit tests for vectorized expressions and their work accounting."""

import numpy as np
import pytest

from repro.engine import (
    Add,
    And,
    CaseWhen,
    Col,
    Compare,
    Const,
    Div,
    EvalContext,
    LikePrefix,
    Mul,
    Or,
    Sub,
    and_all,
)
from repro.errors import ExpressionError
from repro.model import WorkCounters
from repro.model.counters import counter_field_names
from repro.storage.layout import Layout


def make_ctx(columns, layout=Layout.PAX):
    n = len(next(iter(columns.values())))
    return EvalContext(columns, n, WorkCounters(), layout), n


class TestScalarNodes:
    def test_col_returns_array_and_charges_extract(self):
        ctx, n = make_ctx({"x": np.array([1, 2, 3])})
        out = Col("x").evaluate(ctx)
        assert out.tolist() == [1, 2, 3]
        assert ctx.counters.pax_values_extracted == 3

    def test_col_nsm_charges_nsm_extract(self):
        ctx, n = make_ctx({"x": np.array([1, 2])}, layout=Layout.NSM)
        Col("x").evaluate(ctx)
        assert ctx.counters.nsm_values_extracted == 2
        assert ctx.counters.pax_values_extracted == 0

    def test_missing_column_rejected(self):
        ctx, n = make_ctx({"x": np.array([1])})
        with pytest.raises(ExpressionError):
            Col("y").evaluate(ctx)

    def test_const_is_free(self):
        ctx, n = make_ctx({"x": np.array([1, 2])})
        assert Const(7).evaluate(ctx) == 7
        assert ctx.counters.total_events() == 0

    def test_arithmetic(self):
        ctx, n = make_ctx({"a": np.array([10, 20]), "b": np.array([3, 4])})
        assert Add(Col("a"), Col("b")).evaluate(ctx).tolist() == [13, 24]
        assert Sub(Col("a"), Col("b")).evaluate(ctx).tolist() == [7, 16]
        assert Mul(Col("a"), Col("b")).evaluate(ctx).tolist() == [30, 80]
        out = Div(Col("a"), Const(4)).evaluate(ctx)
        assert out.tolist() == [2.5, 5.0]
        assert ctx.counters.arithmetic_ops == 4 * n

    def test_mul_promotes_int32_to_int64(self):
        big = np.array([2_000_000_000], dtype=np.int32)
        ctx, n = make_ctx({"a": big})
        out = Mul(Col("a"), Const(4)).evaluate(ctx)
        assert out[0] == 8_000_000_000


class TestPredicates:
    def test_compare_ops(self):
        ctx, n = make_ctx({"x": np.array([1, 5, 9])})
        assert Compare(Col("x"), "<", Const(5)).evaluate(ctx).tolist() == \
            [True, False, False]
        assert Compare(Col("x"), ">=", Const(5)).evaluate(ctx).tolist() == \
            [False, True, True]
        assert Compare(Col("x"), "==", Const(5)).evaluate(ctx).tolist() == \
            [False, True, False]
        assert Compare(Col("x"), "!=", Const(5)).evaluate(ctx).tolist() == \
            [True, False, True]

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Compare(Col("x"), "~", Const(1))

    def test_and_shortcircuit_charging(self):
        """The right conjunct is charged only for left-side survivors."""
        ctx, n = make_ctx({"x": np.arange(10), "y": np.arange(10)})
        pred = And(Compare(Col("x"), "<", Const(3)),     # 3 survive
                   Compare(Col("y"), ">", Const(0)))
        mask = pred.evaluate(ctx)
        assert mask.tolist() == [False, True, True] + [False] * 7
        # x compared on 10 rows; y compared on the 3 survivors.
        assert ctx.counters.predicates_evaluated == 10 + 3
        assert ctx.counters.pax_values_extracted == 10 + 3

    def test_or_shortcircuit_charging(self):
        ctx, n = make_ctx({"x": np.arange(10)})
        pred = Or(Compare(Col("x"), "<", Const(7)),      # 7 pass
                  Compare(Col("x"), "==", Const(9)))     # checked on 3 rows
        mask = pred.evaluate(ctx)
        assert mask.sum() == 8
        assert ctx.counters.predicates_evaluated == 10 + 3

    def test_and_requires_boolean_children(self):
        with pytest.raises(ExpressionError):
            And(Col("x"), Compare(Col("x"), "<", Const(1)))

    def test_and_all_chains_left_to_right(self):
        ctx, n = make_ctx({"x": np.arange(100)})
        pred = and_all([
            Compare(Col("x"), ">=", Const(10)),
            Compare(Col("x"), "<", Const(20)),
            Compare(Col("x"), "!=", Const(15)),
        ])
        mask = pred.evaluate(ctx)
        assert mask.sum() == 9
        # 100 + 90 (>=10 pass) + 10 (<20 pass) comparisons.
        assert ctx.counters.predicates_evaluated == 100 + 90 + 10

    def test_and_all_empty_rejected(self):
        with pytest.raises(ExpressionError):
            and_all([])


class TestStrings:
    def test_like_prefix(self):
        values = np.array([b"PROMO BRUSHED", b"STANDARD", b"PROMO X"],
                          dtype="S16")
        ctx, n = make_ctx({"p_type": values})
        mask = LikePrefix(Col("p_type"), "PROMO").evaluate(ctx)
        assert mask.tolist() == [True, False, True]
        assert ctx.counters.like_evaluated == 3

    def test_like_is_boolean(self):
        assert LikePrefix(Col("x"), "A").is_boolean()


class TestCaseWhen:
    def test_case_values(self):
        ctx, n = make_ctx({"x": np.array([1, 5, 9])})
        expr = CaseWhen(Compare(Col("x"), ">", Const(4)),
                        Mul(Col("x"), Const(10)), Const(0))
        assert expr.evaluate(ctx).tolist() == [0, 50, 90]

    def test_case_requires_boolean_condition(self):
        with pytest.raises(ExpressionError):
            CaseWhen(Col("x"), Const(1), Const(0))

    def test_case_charges_branches_by_split(self):
        ctx, n = make_ctx({"x": np.array([1, 5, 9, 2])})
        expr = CaseWhen(Compare(Col("x"), ">", Const(4)),
                        Mul(Col("x"), Const(10)),
                        Add(Col("x"), Const(1)))
        expr.evaluate(ctx)
        # THEN-side multiply charged for 2 hits, ELSE-side add for 2 misses.
        assert ctx.counters.arithmetic_ops == 2 + 2

    def test_columns_collection(self):
        expr = CaseWhen(Compare(Col("a"), ">", Const(1)), Col("b"), Col("c"))
        assert expr.columns() == {"a", "b", "c"}

    def test_empty_input(self):
        ctx, n = make_ctx({"x": np.array([], dtype=np.int64)})
        expr = CaseWhen(Compare(Col("x"), ">", Const(4)), Const(1), Const(0))
        assert len(expr.evaluate(ctx)) == 0


#: ``x < 5 AND (x >= 5 OR x = 1)``: the OR sits where only the AND's
#: survivors are active, so its own split must stay inside them.
NESTED = And(Compare(Col("x"), "<", Const(5)),
             Or(Compare(Col("x"), ">=", Const(5)),
                Compare(Col("x"), "==", Const(1))))


class TestPageSplitInvariance:
    """Each node is charged once per row in its active set, so a table's
    charges are the same however its rows are cut into pages."""

    @staticmethod
    def _evaluate_split(expr, sizes):
        x = np.arange(sum(sizes))
        counters = WorkCounters()
        outputs = []
        for start, stop in zip(np.cumsum([0, *sizes[:-1]]), np.cumsum(sizes)):
            ctx = EvalContext({"x": x[start:stop]}, int(stop - start),
                              counters, Layout.PAX)
            outputs.append(np.asarray(expr.evaluate(ctx)))
        return counters, np.concatenate(outputs)

    @pytest.mark.parametrize("expr", [
        NESTED,
        CaseWhen(NESTED, Mul(Col("x"), Const(10)), Add(Col("x"), Const(1))),
    ], ids=["and-or", "case-when"])
    def test_one_page_charges_what_two_pages_do(self, expr):
        whole, whole_out = self._evaluate_split(expr, [10])
        halves, halves_out = self._evaluate_split(expr, [5, 5])
        assert whole_out.tolist() == halves_out.tolist()
        for name in counter_field_names():
            assert getattr(whole, name) == getattr(halves, name), name
        # A tuple-at-a-time engine: x < 5 on 10 rows, x >= 5 on the 5
        # survivors, x = 1 on the 5 of those it rejects.
        assert whole.predicates_evaluated == 10 + 5 + 5
