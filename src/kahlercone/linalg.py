"""Packed symmetric matrices/tensors and exact elimination routines.

Each container stores one entry per orbit of its index symmetry: symmetric
matrices and 3-tensors one per index multiset, curvature tensors one per
orbit of the pair symmetries. Accessors map every index to its orbit's slot,
so `m[i, j] == m[j, i]` holds by construction, and each distinct entry is
computed once. The accessors serve single-entry reads; the builders and
kernels instead read the slot tables `_layout(n)` builds once per dimension
from `_pair_index` and `_triple_index`, the one definition of the packing,
and loop over the flat `_data` lists. Dimensions stay small here (n of
order a few), so cubic-time elimination is not a concern; the cost is in
the scalars. Contraction works verbatim over any scalars.
`inertia`, `positive_definite` and `det_adjugate` are exact only: they
eliminate fraction-free on Python ints, each of whose operations costs a
small fraction of a `Fraction` one (`inertia` clears the denominators of its
rational input first), and they reject floats. `det_adjugate` is the
package's one inverse: every caller divides adj M by det M itself, once per
entry.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch, SingularMatrix
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
    "identity_rows",
    "mat_mul",
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
    orbits: tuple        # per CurvTensor orbit (i, j, k, l), in storage
                         # order: its multiset's position in quads, and the
                         # SymMatrix slots of (i,j), (k,l), (i,l), (k,j)


@functools.cache
def _layout(n) -> _Layout:
    ordered = itertools.combinations_with_replacement(range(n), 2)
    pairs = tuple(sorted(ordered, key=lambda ik: _pair_index(*ik)))
    ordered = itertools.combinations_with_replacement(range(n), 3)
    triples = tuple(sorted(ordered, key=lambda ijk: _triple_index(n, *ijk)))
    quads = tuple(itertools.combinations_with_replacement(range(n), 4))
    quad_pos = {q: pos for pos, q in enumerate(quads)}
    # orbit (i,j,k,l) sits at slot (a, b) of the pair matrix, with
    # (i,k) = pairs[a] and (j,l) = pairs[b], a <= b (CurvTensor.build)
    orbits = tuple((quad_pos[tuple(sorted((i, j, k, l)))], _pair_index(i, j),
                    _pair_index(k, l), _pair_index(i, l), _pair_index(k, j))
                   for b, (j, l) in enumerate(pairs) for i, k in pairs[:b + 1])
    return _Layout(
        pairs=pairs,
        slot=tuple(tuple(_pair_index(i, k) for k in range(n))
                   for i in range(n)),
        pair_triples=tuple(tuple(_triple_index(n, i, k, p) for p in range(n))
                           for i, k in pairs),
        triples=triples, quads=quads, orbits=orbits)


class SymMatrix:
    """Symmetric n x n matrix with triangular storage."""

    __slots__ = ("n", "_data")

    def __init__(self, n, data):
        if len(data) != n * (n + 1) // 2:
            raise DimensionMismatch("packed length does not match dimension")
        self.n = n
        self._data = list(data)

    @classmethod
    def zeros(cls, n):
        return cls(n, [Fraction(0)] * (n * (n + 1) // 2))

    @classmethod
    def from_rows(cls, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("ragged rows")
        pairs = _layout(n).pairs
        for i, j in pairs:
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        return cls(n, [rows[i][j] for i, j in pairs])

    @classmethod
    def build(cls, n, fn):
        """The matrix with fn(i, j) at i <= j, called in storage order."""
        return cls(n, [fn(i, j) for i, j in _layout(n).pairs])

    def __getitem__(self, ij):
        i, j = ij
        return self._data[_pair_index(i, j)]

    def __setitem__(self, ij, value):
        i, j = ij
        self._data[_pair_index(i, j)] = value

    def rows(self):
        data = self._data
        return [[data[s] for s in row] for row in _layout(self.n).slot]

    def scale(self, c):
        return SymMatrix(self.n, [c * v for v in self._data])

    def __eq__(self, other):
        return (isinstance(other, SymMatrix) and self.n == other.n
                and self._data == other._data)

    def __repr__(self):
        return f"SymMatrix({self.rows()!r})"


class Sym3Tensor:
    """Fully symmetric 3-index tensor with one stored entry per multiset."""

    __slots__ = ("n", "_data")

    def __init__(self, n, data):
        size = n * (n + 1) * (n + 2) // 6
        if len(data) != size:
            raise DimensionMismatch("packed length does not match dimension")
        self.n = n
        self._data = list(data)

    @classmethod
    def zeros(cls, n):
        return cls(n, [Fraction(0)] * (n * (n + 1) * (n + 2) // 6))

    @classmethod
    def build(cls, n, fn):
        """The tensor with fn(i, j, k) at i <= j <= k, called in storage
        order."""
        return cls(n, [fn(i, j, k) for i, j, k in _layout(n).triples])

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self._data[_triple_index(self.n, i, j, k)]

    def __setitem__(self, ijk, value):
        i, j, k = ijk
        self._data[_triple_index(self.n, i, j, k)] = value

    def scale(self, c):
        return Sym3Tensor(self.n, [c * v for v in self._data])

    def __eq__(self, other):
        return (isinstance(other, Sym3Tensor) and self.n == other.n
                and self._data == other._data)

    def __repr__(self):
        return f"Sym3Tensor(n={self.n}, {self._data!r})"


class CurvTensor:
    """4-index tensor R[i, j, k, l] with the curvature pair symmetries.

    R[i,j,k,l] = R[k,j,i,l] = R[i,l,k,j] = R[j,i,l,k]: R is a symmetric
    matrix on the unordered pairs (i,k) and (j,l), so one entry is stored
    per orbit, P(P+1)/2 of them with P = n(n+1)/2, and every accessor of an
    orbit reads the same slot.
    """

    __slots__ = ("n", "_data")

    def __init__(self, n, data=None):
        pairs = n * (n + 1) // 2
        size = pairs * (pairs + 1) // 2
        self.n = n
        self._data = [Fraction(0)] * size if data is None else list(data)
        if len(self._data) != size:
            raise DimensionMismatch("packed length does not match dimension")

    @classmethod
    def build(cls, n, fn):
        """The tensor with fn(i, j, k, l) in each orbit, called once per
        orbit in storage order, with i <= k, j <= l and (i,k) <= (j,l)."""
        pairs = _layout(n).pairs
        return cls(n, [fn(i, j, k, l) for b, (j, l) in enumerate(pairs)
                       for i, k in pairs[:b + 1]])

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

    def scale(self, c):
        return CurvTensor(self.n, [c * v for v in self._data])

    def max_abs(self):
        return max(map(abs, self._data), default=0)

    def entries(self):
        """The stored entries, one per orbit."""
        return list(self._data)

    def __eq__(self, other):
        return (isinstance(other, CurvTensor) and self.n == other.n
                and self._data == other._data)

    def __repr__(self):
        return f"CurvTensor(n={self.n})"


def inertia(m: SymMatrix):
    """Sylvester inertia (n_plus, n_minus, n_zero) of an exact symmetric matrix.

    Fraction-free symmetric elimination on Python ints (Bareiss, Math. Comp.
    1968) with 1x1/2x2 pivot blocks. The entries are first scaled by the lcm
    of their denominators. A 1x1 step on pivot d replaces the trailing block
    by |d| times its Schur complement, a 2x2 step on the block [[0, b],
    [b, 0]] by |b| times it; each is a positive multiple of a congruence, so
    the signs of the pivot blocks give the inertia, and the block is then
    divided by the gcd of its entries to keep the integers small. Every
    trailing block is a positive multiple of the one rational elimination
    would reach, so the pivots are chosen as over the rationals. No
    eigenvalue iteration and no float; raises TypeError on float entries.
    All-int input, such as every cleared Hessian, is used as it is.
    The interior test does not call it (`cubic._is_interior`); it tells
    Boundary from Outside and gives the inertias the CLI reports.
    """
    n, data = m.n, m._data
    if set(map(type, data)) - {int}:
        for v in data:
            if not is_exact_scalar(v):
                raise TypeError("inertia requires exact rational entries")
        den = math.lcm(*[v.denominator for v in data])
        data = [v.numerator * (den // v.denominator) for v in data]
    a = [[data[s] for s in row] for row in _layout(n).slot]
    plus = minus = zero = 0
    k = 0
    while k < n:
        # best 1x1 pivot: largest |diagonal| for mild coefficient control
        piv, best = -1, 0
        for i in range(k, n):
            if abs(a[i][i]) > best:
                piv, best = i, abs(a[i][i])
        if piv >= 0:
            _sym_swap(a, k, piv)
            d = a[k][k]
            sign = 1 if d > 0 else -1
            plus, minus = (plus + 1, minus) if d > 0 else (plus, minus + 1)
            col = [a[r][k] for r in range(n)]
            for r in range(k + 1, n):
                for s in range(r, n):
                    a[r][s] = a[s][r] = best * a[r][s] - sign * col[r] * col[s]
            k += 1
        else:
            # all trailing diagonals vanish: find an off-diagonal 2x2 block
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if a[i][j] != 0), None)
            if off is None:
                zero += n - k
                break
            _sym_swap(a, k, off[0])
            _sym_swap(a, k + 1, off[1])
            b = a[k][k + 1]
            sign = 1 if b > 0 else -1
            # block [[0, b], [b, 0]] has eigenvalues +/- b: one of each sign
            plus += 1
            minus += 1
            u = [a[r][k] for r in range(n)]
            v = [a[r][k + 1] for r in range(n)]
            for r in range(k + 2, n):
                for s in range(r, n):
                    a[r][s] = a[s][r] = (abs(b) * a[r][s]
                                         - sign * (v[r] * u[s] + u[r] * v[s]))
            k += 2
        g = math.gcd(*[a[r][s] for r in range(k, n) for s in range(r, n)])
        if g > 1:
            for r in range(k, n):
                for s in range(r, n):
                    a[r][s] = a[s][r] = a[r][s] // g
    return plus, minus, zero


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


def det_adjugate(rows):
    """(det M, adj M) of a square integer matrix given as rows; adj M as rows.

    Fraction-free Gauss-Jordan elimination on [M | I] (Bareiss, Math. Comp.
    1968). With p the pivot of step k and p' that of step k-1 (1 at the
    first), the step replaces every row r other than the pivot row k by
    (p * row_r - row_r[k] * row_k) / p'; every entry stays a minor of
    [P M | I], P the row permutation of the pivot search, so each division
    is exact. At the end the left block is d I with d = det(P M), and the
    right block is d (P M)^-1; the sign of P turns both into det M and
    adj M. Raises SingularMatrix when det M = 0, TypeError on a non-int entry.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch("matrix is not square")
        if not all(type(v) is int for v in r):
            raise TypeError("det_adjugate requires int entries")
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise SingularMatrix(f"zero pivot in column {k}")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for r in range(n):
            if r != k:
                c = a[r][k]
                a[r] = [(p * v - c * w) // prev for v, w in zip(a[r], top)]
        prev = p
    return sign * prev, [[sign * v for v in r[n:]] for r in a]


def _sym_swap(a, i, j):
    if i == j:
        return
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def identity_rows(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m = len(a), len(b[0])
    inner = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(m)]
            for i in range(n)]


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
