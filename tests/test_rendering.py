"""The report renderers against their definitions: `report.render_json`
against `json.dumps(doc, indent=2, ensure_ascii=False)` on random JSON
values, and the CLI's `_doc` of every packed container kind against the
per-index recursion it replaced (`_reference.reference_doc`), over int,
Fraction and Complex entries in both modes: its stored entries read in
`linalg._leaf_order`, and the bytes `render_json` writes for it."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercone import Complex, CurvTensor, Sym3Tensor, SymMatrix
from kahlercone.cli import _doc
from kahlercone.linalg import _layout, _leaf_order
from kahlercone.report import render_json

from _reference import reference_doc

# text with the characters JSON escapes or ensure_ascii=False keeps
texts = st.text(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f aZ9é€😀 '),
                max_size=8) | st.text(max_size=8)
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1e22, 5e-324])
           | texts)
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(texts, max_size=5)
                      | st.dictionaries(texts, children, max_size=5)),
    max_leaves=40)


def _dumps(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=200)
@given(json_values)
def test_render_json_writes_what_json_dumps_writes(doc):
    assert render_json(doc) == _dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], "", 0, None, True, {"a": []}, {"a": {}}, [[], {}, [[]]],
    [math.nan, math.inf, -math.inf, -0.0, 1e16], (1, "x", (2.5,)),
    {"points": [["1/2", "-3"], ["0", "7/9"]], "ok": False, "n": 2},
])
def test_render_json_edge_cases(doc):
    assert render_json(doc) == _dumps(doc)


def _entry(kind, k):
    """The k-th stored entry of a container over int, Fraction or Complex."""
    if kind is int:
        return k * (-1) ** k
    if kind is F:
        return F(k - 3, k % 5 + 1)
    return Complex(F(k, 3), F(-k - 1, 7))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind", [int, F, Complex],
                         ids=["int", "Fraction", "Complex"])
@pytest.mark.parametrize("cls", [SymMatrix, Sym3Tensor, CurvTensor],
                         ids=lambda cls: cls.__name__)
def test_doc_of_packed_containers_matches_the_per_index_recursion(
        cls, kind, mode):
    for n in range(1, 7):
        size = len(cls.zeros(n)._data)
        x = cls(n, [_entry(kind, k) for k in range(size)])
        got, want = _doc(x, mode), reference_doc(x, mode)
        flat = want
        for _ in range(cls._RANK - 1):
            flat = [v for row in flat for v in row]
        assert [got._data[s] for s in _leaf_order(cls, n)] == flat, (n, mode)
        assert render_json({"a": [{"b": got}]}) \
            == _dumps({"a": [{"b": want}]}), (n, mode)


def test_doc_of_scalars_points_and_arrays_matches_the_recursion():
    values = [None, 3, F(-2, 3), Complex(F(1, 2), F(-1)),
              (F(1, 2), 3, F(-7, 4)),
              [[[Complex(F(0), F(k, 5)) for k in range(3)]] * 2]]
    for mode in ("exact", "float"):
        for x in values:
            assert _doc(x, mode) == reference_doc(x, mode), (x, mode)


def test_doc_reads_only_the_layout_of_its_own_dimension():
    # a rank-4 expansion addresses the pair matrix by `_pair_index`; it
    # never builds `_layout` at the pair dimension n(n+1)/2
    _leaf_order.cache_clear()
    _layout.cache_clear()
    render_json(_doc(CurvTensor(8)))
    assert _layout.cache_info().currsize == 1
