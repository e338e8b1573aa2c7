"""Packed symmetric matrices/tensors and the exact matrix kernel.

Each container (one base, `_Packed`) stores one entry per orbit of its index
symmetry: symmetric matrices and 3-tensors one per index multiset, curvature
tensors one per orbit of the pair symmetries. Accessors map every index to its
orbit's slot, so `m[i, j] == m[j, i]` holds by construction, and each distinct
entry is computed once. The accessors serve single-entry reads; `build` and the
kernels instead read the slot tables `_layout(n)` builds once per dimension
from `_pair_index` and `_triple_index`, the one definition of the packing, and
loop over the flat `_data` lists. The leaf order lives here too: `_leaf_order`
reads the same tables for the stored slot that each leaf of a container's
dense n^rank array (`_RANK` indices) shows, the order in which
`report.render_json` writes it. Dimensions stay small here (n of order a few),
so n^4 kernels are not a concern; the cost is in the scalars. Contraction
works verbatim over any scalars. `inertia`, `positive_definite` and
`det_adjugate` are exact only: they work on Python ints, each of whose
operations costs a small fraction of a `Fraction` one (`inertia` clears the
denominators of its rational input first), and they reject floats. One
division-free kernel, the characteristic polynomial `_charpoly`, gives
`det_adjugate` and `inertia`. `det_adjugate` is the package's one inverse:
every caller divides adj M by det M itself, once per entry.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch
from .scalars import is_exact_scalar

__all__ = [
    "SymMatrix",
    "Sym3Tensor",
    "CurvTensor",
    "inertia",
    "positive_definite",
    "det_adjugate",
    "contract",
    "raise_index",
]


def _pair_index(i, j):
    if i > j:
        i, j = j, i
    return i + j * (j + 1) // 2


def _triple_index(n, i, j, k):
    i, j, k = sorted((i, j, k))
    # offset of the block with smallest index i, then a pair index within it
    return i * (i * i - 3 * i * (n + 1) + 3 * n * n + 6 * n + 2) // 6 \
        + _pair_index(j - i, k - i)


class _Layout(NamedTuple):
    """The storage slots of the packed containers at one dimension n, as
    tuples: `_layout` hands the same tables to every caller."""
    pairs: tuple         # SymMatrix pairs (i, k), i <= k, in packed order
    slot: tuple          # slot[i][k]: the SymMatrix slot of (i, k), n x n
    pair_triples: tuple  # per SymMatrix slot (i, k): the Sym3Tensor slots
                         # of (i, k, p), p = 0..n-1
    triples: tuple       # Sym3Tensor triples i <= j <= k, in storage order
    quads: tuple         # the index multisets i <= j <= k <= l
    quartets: tuple      # CurvTensor orbits (i, j, k, l), in storage order
    orbits: tuple        # per quartet: its multiset's position in quads, and
                         # the SymMatrix slots of (i,j), (k,l), (i,l), (k,j)


@functools.cache
def _layout(n) -> _Layout:
    ordered = itertools.combinations_with_replacement(range(n), 2)
    pairs = tuple(sorted(ordered, key=lambda ik: _pair_index(*ik)))
    ordered = itertools.combinations_with_replacement(range(n), 3)
    triples = tuple(sorted(ordered, key=lambda ijk: _triple_index(n, *ijk)))
    quads = tuple(itertools.combinations_with_replacement(range(n), 4))
    quad_pos = {q: pos for pos, q in enumerate(quads)}
    # orbit (i,j,k,l) sits at slot (a, b) of the pair matrix, with
    # (i,k) = pairs[a] and (j,l) = pairs[b], a <= b
    quartets = tuple((i, j, k, l) for b, (j, l) in enumerate(pairs)
                     for i, k in pairs[:b + 1])
    orbits = tuple((quad_pos[tuple(sorted((i, j, k, l)))], _pair_index(i, j),
                    _pair_index(k, l), _pair_index(i, l), _pair_index(k, j))
                   for i, j, k, l in quartets)
    return _Layout(
        pairs=pairs,
        slot=tuple(tuple(_pair_index(i, k) for k in range(n))
                   for i in range(n)),
        pair_triples=tuple(tuple(_triple_index(n, i, k, p) for p in range(n))
                           for i, k in pairs),
        triples=triples, quads=quads, quartets=quartets, orbits=orbits)


@functools.cache
def _leaf_order(kind, n) -> tuple:
    """The stored slot each leaf of a kind container's dense n^rank array
    shows, in row-major order, read from the `_layout(n)` slot tables."""
    lay = _layout(n)
    cells = [q for row in lay.slot for q in row]      # (i, k)
    if kind is SymMatrix:
        return tuple(cells)
    if kind is Sym3Tensor:
        return tuple(p for q in cells for p in lay.pair_triples[q])
    # R[i,j,k,l] sits at slot (slot[i][k], slot[j][l]) of the pair matrix
    return tuple(_pair_index(a, b) for row_i in lay.slot
                 for row_j in lay.slot for a in row_i for b in row_j)


class _Packed:
    """n and `_data`, one entry per orbit. Subclasses give `_size(n)` in closed
    form (sizing builds no `_layout`), `_ORBITS`, `_RANK` (the number of
    indices) and the accessors."""

    __slots__ = ("n", "_data")

    def __init__(self, n, data):
        if len(data) != self._size(n):
            raise DimensionMismatch("packed length does not match dimension")
        self.n = n
        self._data = list(data)

    @classmethod
    def zeros(cls, n):
        return cls(n, [Fraction(0)] * cls._size(n))

    @classmethod
    def build(cls, n, fn):
        """The container of fn(*idx) per orbit idx of `_ORBITS`, in order."""
        return cls(n, [fn(*idx) for idx in getattr(_layout(n), cls._ORBITS)])

    def scale(self, c):
        return type(self)(self.n, [c * v for v in self._data])

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self._data == other._data)


class SymMatrix(_Packed):
    """Symmetric n x n matrix with triangular storage."""

    __slots__ = ()
    _ORBITS = "pairs"
    _RANK = 2

    @staticmethod
    def _size(n):
        return n * (n + 1) // 2

    @classmethod
    def from_rows(cls, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("ragged rows")
        for i, j in _layout(n).pairs:
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        return cls.build(n, lambda i, j: rows[i][j])

    def __getitem__(self, ij):
        i, j = ij
        return self._data[_pair_index(i, j)]

    def __setitem__(self, ij, value):
        i, j = ij
        self._data[_pair_index(i, j)] = value

    def rows(self):
        data = self._data
        return [[data[s] for s in row] for row in _layout(self.n).slot]

    def __repr__(self):
        return f"SymMatrix({self.rows()!r})"


class Sym3Tensor(_Packed):
    """Fully symmetric 3-index tensor with one stored entry per multiset."""

    __slots__ = ()
    _ORBITS = "triples"
    _RANK = 3

    @staticmethod
    def _size(n):
        return n * (n + 1) * (n + 2) // 6

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self._data[_triple_index(self.n, i, j, k)]

    def __setitem__(self, ijk, value):
        i, j, k = ijk
        self._data[_triple_index(self.n, i, j, k)] = value

    def __repr__(self):
        return f"Sym3Tensor(n={self.n}, {self._data!r})"


class CurvTensor(_Packed):
    """4-index tensor R[i, j, k, l] with the curvature pair symmetries.

    R[i,j,k,l] = R[k,j,i,l] = R[i,l,k,j] = R[j,i,l,k]: R is a symmetric
    matrix on the unordered pairs (i,k) and (j,l), so one entry is stored
    per orbit, P(P+1)/2 of them with P = n(n+1)/2, and every accessor of an
    orbit reads the same slot.
    """

    __slots__ = ()
    _ORBITS = "quartets"
    _RANK = 4

    @staticmethod
    def _size(n):
        pairs = n * (n + 1) // 2
        return pairs * (pairs + 1) // 2

    def __init__(self, n, data=None):
        _Packed.__init__(self, n, self.zeros(n)._data if data is None else data)

    def __getitem__(self, ijkl):
        i, j, k, l = ijkl
        return self._data[_pair_index(_pair_index(i, k), _pair_index(j, l))]

    def __setitem__(self, ijkl, value):
        i, j, k, l = ijkl
        self._data[_pair_index(_pair_index(i, k), _pair_index(j, l))] = value

    def __sub__(self, other):
        if self.n != other.n:
            raise DimensionMismatch("tensor dimensions differ")
        return CurvTensor(self.n, [a - b for a, b in zip(self._data, other._data)])

    def max_abs(self):
        return max(map(abs, self._data), default=0)

    def entries(self):
        """The stored entries, one per orbit."""
        return list(self._data)

    def __repr__(self):
        return f"CurvTensor(n={self.n})"


def _charpoly(m: SymMatrix):
    """(c, B_n): c[0..n] the coefficients of det(x I - m) = sum c[k] x^k of a
    symmetric int matrix m, by the Faddeev-LeVerrier recursion B_1 = I,
    c[n-k] = -tr(m B_k) / k, B_{k+1} = m B_k + c[n-k] I, whose divisions
    are exact on ints and which never pivots. Every B_k is a polynomial in
    m, hence symmetric: it is kept packed, and tr(m B_k) sums m[i,j] B_k[i,j]
    over the packed slots, the off-diagonal ones twice."""
    n, data = m.n, m._data
    lay = _layout(n)
    rows = m.rows()
    twice = [v if i == k else 2 * v for (i, k), v in zip(lay.pairs, data)]
    c = [0] * n + [1]
    b = [int(i == k) for i, k in lay.pairs]
    for k in range(1, n + 1):
        c[n - k] = -sum(map(mul, twice, b)) // k
        if k < n:
            full = [[b[s] for s in row] for row in lay.slot]
            b = [sum(map(mul, rows[i], full[j])) + (c[n - k] if i == j else 0)
                 for i, j in lay.pairs]
    return c, b


def _sign_changes(coeffs):
    signs = [v > 0 for v in coeffs if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def inertia(m: SymMatrix):
    """Sylvester inertia (n_plus, n_minus, n_zero) of an exact symmetric matrix.

    Descartes' rule of signs on the characteristic polynomial c
    (`_charpoly`), exact since every eigenvalue of a real symmetric matrix
    is real: the sign changes of c(x) and of c(-x) count the positive and
    the negative ones, the leading zero coefficients the zero ones. Rational
    entries are first scaled by the lcm of their denominators; raises
    TypeError on floats. The interior test does not call it
    (`cubic._is_interior`); it tells Boundary from Outside and gives the
    inertias the CLI reports.
    """
    data = m._data
    if not all(map(is_exact_scalar, data)):
        raise TypeError("inertia requires exact rational entries")
    den = math.lcm(*[v.denominator for v in data])
    c = _charpoly(SymMatrix(m.n, [int(v * den) for v in data]))[0]
    zero = next(k for k, v in enumerate(c) if v)
    return (_sign_changes(c),
            _sign_changes([-v if k % 2 else v for k, v in enumerate(c)]), zero)


def positive_definite(m: SymMatrix) -> bool:
    """Whether a symmetric matrix of Python ints is positive definite, by
    Sylvester's criterion: the diagonal first, then fraction-free symmetric
    elimination without pivoting (Bareiss), whose step k replaces each
    trailing entry of the upper triangle by (p a[r][s] - a[k][r] a[k][s])
    / p', p and p' the pivots of steps k and k-1 (1 at the first), exactly;
    its pivots are the leading principal minors, so it stops at the first
    one <= 0. Raises TypeError on a non-int entry."""
    n, data = m.n, m._data
    if not {int}.issuperset(map(type, data)):
        raise TypeError("positive_definite requires int entries")
    slot = _layout(n).slot
    if min(data[row[i]] for i, row in enumerate(slot)) <= 0:
        return False
    a = [[data[q] for q in row[i:]] for i, row in enumerate(slot)]
    prev = 1
    for k in range(n - 1):
        top = a[k]                      # a[k][k..n-1]
        p = top[0]
        for r in range(k + 1, n):       # row k+1 first: it holds the pivot
            c = top[r - k]
            a[r] = [(p * v - c * w) // prev
                    for v, w in zip(a[r], top[r - k:])]
            if r == k + 1 and a[r][0] <= 0:
                return False
        prev = p
    return True


def det_adjugate(m: SymMatrix):
    """(det m, adj m) of a symmetric int matrix, adj m as a SymMatrix:
    (-1)^n c[0] and, by Cayley-Hamilton, (-1)^(n-1) B_n (`_charpoly`). A
    singular m gives det 0 and its true adjugate. Raises TypeError on a
    non-int entry."""
    if not {int}.issuperset(map(type, m._data)):
        raise TypeError("det_adjugate requires int entries")
    c, b = _charpoly(m)
    sign = -1 if m.n % 2 else 1
    return sign * c[0], SymMatrix(m.n, [-sign * v for v in b])


def _raised(s: Sym3Tensor, minv: SymMatrix):
    """(L, U): per SymMatrix slot (j, l), the vector L = S[j,l,.] and the
    vector U = Minv . S[j,l,.].

    The one place an index of a symmetric 3-tensor is raised with Minv:
    `contract` and, through `raise_index`, the Christoffel symbols read it.
    """
    if s.n != minv.n:
        raise DimensionMismatch("tensor and matrix dimensions differ")
    data, rows = s._data, minv.rows()
    lower = [[data[q] for q in slots] for slots in _layout(s.n).pair_triples]
    return lower, [[sum(map(mul, row, v)) for row in rows] for v in lower]


def raise_index(s: Sym3Tensor, minv: SymMatrix):
    """U[p][j,l] = sum_q Minv[p,q] S[j,l,q], as n SymMatrix (one per p)."""
    raised = _raised(s, minv)[1]
    return [SymMatrix(s.n, [u[p] for u in raised]) for p in range(s.n)]


def contract(t: Sym3Tensor, minv: SymMatrix) -> CurvTensor:
    """CurvTensor R with R[i,j,k,l] = sum_{p,q} Minv[p,q] T[i,k,p] T[j,l,q].

    Inherits the curvature pair symmetries from the full symmetry of T and
    the symmetry of Minv. With row P = (i, k) of L the vector T[i,k,.], R is
    the packed upper triangle of the P x P matrix L Minv L^T.
    """
    lower, upper = _raised(t, minv)
    return CurvTensor(t.n, [sum(map(mul, lower[a], u))
                            for b, u in enumerate(upper)
                            for a in range(b + 1)])
