"""The per-dimension slot tables of `linalg` against the index maps they are
built from, the table-driven `raise_index` and `contract` against naive
per-index sums over int, Fraction and Complex entries, and the index work
left in one exact verify once the tables exist."""

import itertools
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import kahlercone.linalg
from kahlercone import (Complex, CubicForm, Sym3Tensor, SymMatrix, contract,
                        cone_sample, parse_text, verify_identity)
from kahlercone.linalg import _layout, _pair_index, _triple_index, raise_index

from _util import counting

TABLE_SETTINGS = settings(max_examples=25)


def test_layout_tables_agree_with_the_index_maps():
    for n in range(1, 9):
        lay = _layout(n)
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        assert sorted(lay.pairs) == pairs
        assert [_pair_index(i, k) for i, k in lay.pairs] \
            == list(range(len(pairs)))
        assert lay.slot == tuple(tuple(_pair_index(i, k) for k in range(n))
                                 for i in range(n))
        assert lay.pair_triples == tuple(
            tuple(_triple_index(n, i, k, p) for p in range(n))
            for i, k in lay.pairs)
        # storage order is _triple_index order, not the i <= j <= k loops
        triples = list(itertools.combinations_with_replacement(range(n), 3))
        assert sorted(lay.triples) == triples
        assert [_triple_index(n, *ijk) for ijk in lay.triples] \
            == list(range(len(triples)))
        assert lay.quads == tuple(
            itertools.combinations_with_replacement(range(n), 4))
        size = len(pairs) * (len(pairs) + 1) // 2
        assert len(lay.orbits) == size
        for i, j, k, l in itertools.product(range(n), repeat=4):
            slot = _pair_index(_pair_index(i, k), _pair_index(j, l))
            q, ij, kl, il, kj = lay.orbits[slot]
            assert lay.quads[q] == tuple(sorted((i, j, k, l)))
            # the split {(i,j),(k,l)} | {(i,l),(k,j)} is the same on the
            # whole orbit, whichever member indexes it
            assert {frozenset((ij, kl)), frozenset((il, kj))} == {
                frozenset((_pair_index(i, j), _pair_index(k, l))),
                frozenset((_pair_index(i, l), _pair_index(k, j)))}


def _entries(kind):
    small = st.integers(-9, 9)
    if kind == "int":
        return small
    if kind == "Fraction":
        return st.builds(F, small, st.integers(1, 7))
    return st.builds(Complex, st.builds(F, small, st.integers(1, 5)), small)


@st.composite
def tensor_and_matrix(draw):
    """A Sym3Tensor and a SymMatrix of one dimension n = 1..6, with entries
    of one scalar kind."""
    n = draw(st.integers(1, 6))
    entries = _entries(draw(st.sampled_from(["int", "Fraction", "Complex"])))
    size2, size3 = n * (n + 1) // 2, n * (n + 1) * (n + 2) // 6
    return (Sym3Tensor(n, draw(st.lists(entries, min_size=size3,
                                        max_size=size3))),
            SymMatrix(n, draw(st.lists(entries, min_size=size2,
                                       max_size=size2))))


@TABLE_SETTINGS
@given(tensor_and_matrix())
def test_raise_index_matches_naive_sum(tm):
    s, minv = tm
    n = s.n
    u = raise_index(s, minv)
    for p, j, l in itertools.product(range(n), repeat=3):
        assert u[p][j, l] == sum(minv[p, q] * s[j, l, q] for q in range(n))


@TABLE_SETTINGS
@given(tensor_and_matrix())
def test_contract_matches_naive_sum(tm):
    t, minv = tm
    n = t.n
    r = contract(t, minv)
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    # one member of every orbit
    for (i, k), (j, l) in itertools.combinations_with_replacement(pairs, 2):
        assert r[i, j, k, l] == sum(minv[p, q] * t[i, k, p] * t[j, l, q]
                                    for p in range(n) for q in range(n))


def test_verify_reads_slots_through_the_tables(monkeypatch):
    form = parse_text("y1*y2*y3 + y4^3 + y5^3", 5)
    y = cone_sample(form, 1, seed=3, hint=(2, 2, 2, -1, -1))[0]
    verify_identity(form, [y])                        # builds the tables
    calls = dict.fromkeys(["_pair_index", "_triple_index"], 0)
    for name in calls:
        monkeypatch.setattr(kahlercone.linalg, name, counting(
            calls, name, getattr(kahlercone.linalg, name)))
    assert verify_identity(form, [y]).overall == "PASS"
    assert calls["_triple_index"] == 0
    assert calls["_pair_index"] < 5 * form.n**2


def test_form_text_is_rendered_once(monkeypatch):
    calls = {"_render_text": 0}
    monkeypatch.setattr(CubicForm, "_render_text", counting(
        calls, "_render_text", CubicForm._render_text))
    form = parse_text("y1*y2*y3 + 2/3*y4^3", 4)
    assert form.to_text() == form.to_text() == "y1*y2*y3 + 2/3*y4^3"
    assert calls["_render_text"] == 1
