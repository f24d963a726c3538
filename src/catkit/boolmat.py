"""
The monoid of binary relations on {1..n} as boolean matrices.

A matrix is stored as one n^2-bit integer, row i-1 at bit (i-1)*n, so that
the entry (i, j) is bit (i-1)*n + j-1.  The column mask C_k (k = 0..n-1)
has bit k of every row set.  The boolean product then spreads row k of the
right factor over the rows that column k of the left factor selects, one
integer multiplication per k.  Right multiplication by the i-th generator
of the double Catalan monoid ORs columns i and i+1, the bits under C_{i-1}
and C_i, so it is one step (_column_or):

    x | (x & C_i) >> 1 | (x & C_{i-1}) << 1.

Convex relations are the reflexive ones whose row and column supports are
all intervals; they form a submonoid isomorphic to the product of the two
Catalan monoids via the column max/min maps, with inverse given by interval
fill.  Both directions of that isomorphism live here.

mul_union_lanes multiplies a whole block of pairs at once: each matrix
of degree n <= 8 sits in its own 32- or 64-bit lane of one integer, and
the n steps of the product run on all lanes together.  _column_or_lanes
takes the generator step of a whole block of matrices of any degree at
once, each in a lane of whole 64-bit words.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .monoid import MonoidTable, generate_monoid
from .permutations import (MonotoneMap, Perm, is_nondecreasing_map,
                           is_nonincreasing_map)


class BoolMat:
    """A boolean matrix of degree n, built from its rows: bit j-1 of
    rows[i-1] is the entry (i, j).  It holds the rows as one integer,
    row i-1 at bit (i-1)*n.

    >>> BoolMat(2, (0b01, 0b11)).bits == 0b11_01
    True
    >>> a = BoolMat(3, (0, 0b100, 0))  # only the entry (2, 3) is set
    >>> a.bits == 1 << (2 - 1) * 3 + (3 - 1), a.rows, a.entry(2, 3)
    (True, (0, 4, 0), 1)
    """
    # Written out, not made by dataclass: importing dataclasses pulls in
    # inspect and ast at start-up.  __eq__, __hash__, __repr__ and the
    # frozen __setattr__ and __delattr__ are the ones a frozen dataclass
    # makes; FrozenInstanceError is imported only when it is raised.
    __slots__ = ("n", "bits")
    n: int
    bits: int

    def __init__(self, n: int, rows: Sequence[int]):
        if len(rows) != n:
            raise ValueError("row count does not match degree")
        mask = (1 << n) - 1
        if any(r & ~mask for r in rows):
            raise ValueError("row mask exceeds degree")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits",
                           sum(r << (i * n) for i, r in enumerate(rows)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.bits) == (other.n, other.bits)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BoolMat(n={self.n!r}, bits={self.bits!r})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default would restore the slots by the frozen __setattr__
        return from_bits, (self.n, self.bits)

    @property
    def rows(self) -> tuple[int, ...]:
        """Row i-1 as an n-bit integer, bit j-1 being the entry (i, j)."""
        n, x, mask = self.n, self.bits, (1 << self.n) - 1
        return tuple([x >> (i * n) & mask for i in range(n)])

    def __mul__(self, other: "BoolMat") -> "BoolMat":
        return mul(self, other)

    def entry(self, i: int, j: int) -> int:
        return self.bits >> ((i - 1) * self.n + j - 1) & 1

    def __str__(self) -> str:
        return "\n".join(to_row_strings(self))


_new = object.__new__  # bound once: from_bits wraps every product
_set = object.__setattr__


def from_bits(n: int, bits: int) -> BoolMat:
    """The matrix of degree n holding bits, unchecked: for integers below
    2^(n^2) that the code built itself."""
    a = _new(BoolMat)
    _set(a, "n", n)
    _set(a, "bits", bits)
    return a


@lru_cache(maxsize=None)
def _spaced(n: int, gap: int) -> int:
    """n set bits, gap apart from bit 0; _spaced(n, n) is the column mask
    C_0 of degree n."""
    return sum(1 << (i * gap) for i in range(n))


def identity_mat(n: int) -> BoolMat:
    return from_bits(n, _spaced(n, n + 1))


def from_perm(w: Perm) -> BoolMat:
    """The permutation matrix with entry (w(j), j) = 1."""
    n = len(w)
    return from_bits(n, sum(1 << ((v - 1) * n + j) for j, v in enumerate(w)))


def mul(a: BoolMat, b: BoolMat) -> BoolMat:
    """Boolean matrix product, i.e. composition of relations: row k of b
    is ORed into every row that column k of a selects."""
    n = a.n
    if n != b.n:
        raise ValueError(f"degree mismatch: {n} != {b.n}")
    return from_bits(n, _mul_bits(n, a.bits, b.bits))


def _mul_bits(n: int, x: int, y: int) -> int:
    """The bits of the product of the degree-n matrices with bits x, y."""
    first, mask = _spaced(n, n), (1 << n) - 1
    out = 0
    for k in range(n):
        out |= (x >> k & first) * (y >> (k * n) & mask)
    return out


def mul_union_lanes(n: int, left: Sequence[int],
                    right: Sequence[int]) -> tuple[tuple[int, ...],
                                                   tuple[int, ...]]:
    """The bits of the products and of the unions of the degree-n
    matrices with bits left[t] and right[t], for a block of pairs at once.

    Each matrix sits in its own lane of one integer, 32 bits wide when
    n^2 <= 32 and 64 bits when n^2 <= 64.  For each k, column k of every
    left factor is spread along its rows by a multiplication by 2^n - 1,
    row k of every right factor is copied to all n rows by a
    multiplication by _spaced(n, n), and the AND of the two is ORed in.
    Neither multiplication leaves the n^2 bits of its lane, and a shift
    by at most k*n brings no bit of the next lane under the masks, so no
    lane carries into another.

    >>> a = from_row_strings(["110", "010", "011"])
    >>> b = from_row_strings(["100", "011", "001"])
    >>> products, unions = mul_union_lanes(3, [a.bits, b.bits],
    ...                                    [b.bits, a.bits])
    >>> products == ((a * b).bits, (b * a).bits)
    True
    >>> unions == (union(a, b).bits,) * 2
    True
    """
    count = len(left)
    if len(right) != count:
        raise ValueError(f"block sizes differ: {count} != {len(right)}")
    if n * n > 64:
        raise ValueError(f"degree {n} does not fit a 64-bit lane")
    code, width = ("I", 4) if n * n <= 32 else ("Q", 8)
    layout = f"<{count}{code}"
    x = int.from_bytes(struct.pack(layout, *left), "little")
    y = int.from_bytes(struct.pack(layout, *right), "little")
    lanes = int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")
    row, spread = (1 << n) - 1, _spaced(n, n)
    first, mask = spread * lanes, row * lanes
    out = 0
    for k in range(n):
        out |= (x >> k & first) * row & (y >> k * n & mask) * spread
    size = count * width
    return (struct.unpack(layout, out.to_bytes(size, "little")),
            struct.unpack(layout, (x | y).to_bytes(size, "little")))


def _column_or(n: int,
               keys: Iterable[Hashable]) -> Callable[[int, Hashable], int]:
    """step(x, keys[i-1]) is the bits x times I + the transposition of
    columns i and i+1, for i = 1..n-1: columns i and i+1 of x ORed."""
    first = _spaced(n, n)
    masks = {key: (first << i, first << (i - 1))
             for i, key in enumerate(keys, 1)}

    def step(x: int, key: Hashable) -> int:
        upper, lower = masks[key]
        return x | (x & upper) >> 1 | (x & lower) << 1
    return step


def _lane_bytes(n: int) -> int:
    """The bytes of one lane of degree n: n^2 bits in whole 64-bit words,
    one word up to degree 8 and more from degree 9."""
    return 8 * max(1, -(-n * n // 64))


def _column_or_lanes(n: int, count: int, x: int) -> Iterator[int]:
    """The lane form of _column_or, for i = 1..n-1 in turn: x holds count
    degree-n matrices, lane t of x.to_bytes(_lane_bytes(n) * count,
    "little") holding the bits of one, and the i-th integer yielded holds,
    lane by lane, each of them times I + the transposition of columns i
    and i+1.

    _column_or's step, x | (x & C_i) >> 1 | (x & C_(i-1)) << 1, is
    x | (x >> 1) & C_(i-1) | (x << 1) & C_i, so the two shifts of x serve
    every i.  The masks hold C_(i-1) and C_i in every lane, 1 <= i <= n-1.
    A shift by one takes column 0 of a row, or bit 0 of a lane, into
    column n-1 or the top bit of the lane below, and column n-1 or a top
    bit into column 0 above, none of them under its mask, so no bit
    leaves its lane.

    >>> width = _lane_bytes(9)  # 81 bits: two 64-bit words a lane
    >>> a = from_row_strings(["1" * 9] * 9).bits  # all ones: a fixed point
    >>> b = identity_mat(9).bits
    >>> x = int.from_bytes(a.to_bytes(width, "little")
    ...                    + b.to_bytes(width, "little"), "little")
    >>> *_, y = _column_or_lanes(9, 2, x)  # the last, i = 8
    >>> y = y.to_bytes(2 * width, "little")
    >>> step = _column_or(9, range(1, 9))
    >>> int.from_bytes(y[:width], "little") == step(a, 8) == a
    True
    >>> int.from_bytes(y[width:], "little") == step(b, 8) != b
    True
    """
    lanes = int.from_bytes((b"\x01" + bytes(_lane_bytes(n) - 1)) * count,
                           "little")
    lower = _spaced(n, n) * lanes  # C_0 in every lane
    down, up = x >> 1, x << 1
    for _ in range(1, n):
        upper = lower << 1
        yield x | down & lower | up & upper
        lower = upper


class MatrixTable(MonoidTable):
    """A closure table of degree-n matrices that keeps their bits: bits[i]
    is the bits of element i.  elements, a list of BoolMat, and index, a
    dict from each BoolMat to its number, are made once, on their first
    read, so a caller that reads only the size or the Cayley tables makes
    no BoolMat at all."""
    __slots__ = ("n", "bits", "_elements", "_index")

    def __init__(self, n: int, table: MonoidTable) -> None:
        # table is closed on the bits; its index, keyed by them, is dropped
        self.n, self.bits = n, table.elements
        self.gens, self.right = table.gens, table.right
        self.words, self.parent = table.words, table.parent
        self.left_columns, self._left = table.left_columns, table._left
        self._elements = self._index = None

    @property
    def elements(self) -> list[BoolMat]:
        if self._elements is None:
            n = self.n
            self._elements = [from_bits(n, x) for x in self.bits]
        return self._elements

    @property
    def index(self) -> dict[BoolMat, int]:
        if self._index is None:
            self._index = dict(zip(self.elements, range(len(self.bits))))
        return self._index


def _closure(n: int, gens: Sequence[int], step: Callable[[int, int], int],
             cap: int | None = None, name: str = "the monoid") -> MatrixTable:
    """The closure table of the degree-n matrices with bits gens, run on
    the bits, step(x, g) being the bits of the product of x and g, so that
    no product hashes a BoolMat; the elements are wrapped only when read
    (see MatrixTable)."""
    return MatrixTable(n, generate_monoid(gens, step, _spaced(n, n + 1), cap,
                                          name))


def union(a: BoolMat, b: BoolMat) -> BoolMat:
    """Entrywise OR, the semiring sum."""
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} != {b.n}")
    return from_bits(a.n, a.bits | b.bits)


def transpose(a: BoolMat) -> BoolMat:
    return from_bits(a.n, _transpose_bits(a.n, a.bits))


def _transpose_bits(n: int, x: int) -> int:
    """Row k of the transpose gathers column k, whose bits lie n apart:
    times _spaced(n, n - 1), the bit of row i lands at (n-1)^2 + i, and
    no two of the n^2 partial products share a bit, so none carries."""
    first, gather, mask = _spaced(n, n), _spaced(n, n - 1), (1 << n) - 1
    top = (n - 1) ** 2
    out = 0
    for k in range(n):
        out |= ((x >> k & first) * gather >> top & mask) << (k * n)
    return out


def _map_pair(a: BoolMat) -> tuple[MonotoneMap, MonotoneMap] | None:
    """The (max, min) pair of a, None when it is not convex.

    One pass over k reads row k as x >> k*n & mask and gathers column k
    as transpose does.  A nonzero v is an interval of bits exactly when
    v & (v + lowest bit of v) == 0.  Row k must hold its diagonal bit, so
    column k is not empty, and both must be intervals; column k then
    spans rows beta(k)..alpha(k), its lowest and highest set bits.
    """
    n, x = a.n, a.bits
    first, gather, mask = _spaced(n, n), _spaced(n, n - 1), (1 << n) - 1
    top = (n - 1) ** 2
    alpha, beta = [], []
    for k in range(n):
        row = x >> k * n & mask
        col = (x >> k & first) * gather >> top & mask
        low = col & -col
        if (not row >> k & 1 or row & (row + (row & -row))
                or col & (col + low)):
            return None
        alpha.append(col.bit_length())
        beta.append(low.bit_length())
    return tuple(alpha), tuple(beta)


def is_convex(a: BoolMat) -> bool:
    """Reflexive, with every row and column support an interval."""
    return _map_pair(a) is not None


def to_map_pair(a: BoolMat) -> tuple[MonotoneMap, MonotoneMap]:
    """The (max, min) pair of a convex relation; one direction of the isomorphism.

    The columnwise maximum lands in the non-decreasing monoid, the columnwise
    minimum in the non-increasing one.
    """
    pair = _map_pair(a)
    if pair is None:
        raise ValueError("matrix is not a convex relation")
    return pair


def from_map_pair(alpha: Sequence[int], beta: Sequence[int]) -> BoolMat:
    """Interval fill: the convex relation with (i, j) set iff beta(j) <= i <= alpha(j)."""
    if len(beta) != len(alpha):
        raise ValueError("map degrees differ")
    if not is_nondecreasing_map(alpha):
        raise ValueError(f"not a non-decreasing map: {alpha!r}")
    if not is_nonincreasing_map(beta):
        raise ValueError(f"not a non-increasing map: {beta!r}")
    return _interval_fill(alpha, beta)


def _interval_fill(alpha: Sequence[int], beta: Sequence[int]) -> BoolMat:
    """from_map_pair without its checks: for maps monotone by construction,
    or a pair judged by whether its fill reads back as itself."""
    n = len(alpha)
    first = _spaced(n, n)
    # column j holds the bits of C_0 in rows beta(j)..alpha(j), shifted to j
    return from_bits(n, sum(
        (first & (1 << hi * n) - (1 << (lo - 1) * n)) << j
        for j, (hi, lo) in enumerate(zip(alpha, beta))))


def _fill_cells(n: int) -> list[list[list[int]]]:
    """cells[j][lo][hi] is the bits of column j of an interval fill of
    degree n, holding rows lo..hi, for 1 <= lo <= hi <= n; every other
    entry is 0.  The fill of (alpha, beta) is the OR of
    cells[j][beta(j+1)][alpha(j+1)] over the columns j = 0..n-1."""
    first = _spaced(n, n)
    return [[[(first & (1 << hi * n) - (1 << (lo - 1) * n)) << j
              if 0 < lo <= hi else 0 for hi in range(n + 1)]
             for lo in range(n + 1)] for j in range(n)]


# ---------------------------------------------------------------------------
# Text formats.

def to_row_strings(a: BoolMat) -> list[str]:
    return [format(row, f"0{a.n}b")[::-1] for row in a.rows]


def from_row_strings(lines: Sequence[str]) -> BoolMat:
    n = len(lines)
    rows = []
    for line in lines:
        line = line.strip()
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValueError(f"bad matrix row {line!r}")
        rows.append(sum(1 << j for j, ch in enumerate(line) if ch == "1"))
    return BoolMat(n, tuple(rows))


def parse_matrix(text: str) -> BoolMat:
    """Parse either comma-separated rows ("110,111,011") or newline rows."""
    sep = "," if "," in text else "\n"
    return from_row_strings([part for part in text.split(sep) if part.strip()])
