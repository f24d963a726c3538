"""
The monoid of binary relations on {1..n} as boolean matrices.

A matrix is stored as one machine integer per row, bit j-1 of rows[i-1]
being the entry (i, j).  Multiplying over the boolean semiring then reduces
to OR-ing rows together, which is also exactly how the generators of the
double Catalan monoid act (left multiplication by I + mat(s_i) replaces rows
i and i+1 by their common union, right multiplication does the same to
columns).

The double Catalan generator products pack a matrix further, into one
n^2-bit integer with rows[i-1] at bit (i-1)*n, so that the entry (i, j) is
bit (i-1)*n + j-1.  The column mask C_k (k = 0..n-1) has bit k of every row
set.  Right multiplication by the i-th generator ORs columns i and i+1, the
bits under C_{i-1} and C_i, so on a packed x it is one step (_column_or):

    x | (x & C_i) >> 1 | (x & C_{i-1}) << 1.

Convex relations are the reflexive ones whose row and column supports are
all intervals; they form a submonoid isomorphic to the product of the two
Catalan monoids via the column max/min maps, with inverse given by interval
fill.  Both directions of that isomorphism live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .permutations import (MonotoneMap, Perm, is_nondecreasing_map,
                           is_nonincreasing_map)


@dataclass(frozen=True)
class BoolMat:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError("row count does not match degree")
        mask = (1 << self.n) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row mask exceeds degree")

    def __mul__(self, other: "BoolMat") -> "BoolMat":
        return mul(self, other)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i - 1] >> (j - 1)) & 1

    def column_support(self, j: int) -> frozenset[int]:
        return frozenset(i + 1 for i in range(self.n)
                         if self.rows[i] >> (j - 1) & 1)

    def __str__(self) -> str:
        return "\n".join(to_row_strings(self))


def identity_mat(n: int) -> BoolMat:
    return BoolMat(n, tuple(1 << i for i in range(n)))


def all_ones(n: int) -> BoolMat:
    full = (1 << n) - 1
    return BoolMat(n, (full,) * n)


def from_perm(w: Perm) -> BoolMat:
    """The permutation matrix with entry (w(j), j) = 1."""
    n = len(w)
    rows = [0] * n
    for j, v in enumerate(w):
        rows[v - 1] |= 1 << j
    return BoolMat(n, tuple(rows))


def mul(a: BoolMat, b: BoolMat) -> BoolMat:
    """Boolean matrix product, i.e. composition of relations."""
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} != {b.n}")
    return BoolMat(a.n, _mul_rows(a.rows, b.rows))


def _mul_rows(arows: Sequence[int], brows: Sequence[int]) -> tuple[int, ...]:
    """The rows of the product of two row tuples of one degree, unchecked:
    row i ORs the rows of b that row i of a selects."""
    out = []
    for ra in arows:
        acc = 0
        r = ra
        while r:
            low = r & -r
            acc |= brows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def _pack(a: BoolMat) -> int:
    """The rows of a as one n^2-bit integer, row i-1 at bit (i-1)*n."""
    x = 0
    for i, row in enumerate(a.rows):
        x |= row << (i * a.n)
    return x


def _unpack(x: int, n: int) -> BoolMat:
    """The matrix of a packed integer, through the validating constructor."""
    mask = (1 << n) - 1
    return BoolMat(n, tuple([x >> (i * n) & mask for i in range(n)]))


def _column_or(n: int,
               keys: Iterable[Hashable]) -> Callable[[int, Hashable], int]:
    """step(x, keys[i-1]) is the packed x times I + the transposition of
    columns i and i+1, for i = 1..n-1: columns i and i+1 of x ORed."""
    first = sum(1 << (i * n) for i in range(n))  # the column mask C_0
    masks = {key: (first << i, first << (i - 1))
             for i, key in enumerate(keys, 1)}

    def step(x: int, key: Hashable) -> int:
        upper, lower = masks[key]
        return x | (x & upper) >> 1 | (x & lower) << 1
    return step


def union(a: BoolMat, b: BoolMat) -> BoolMat:
    """Entrywise OR, the semiring sum."""
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} != {b.n}")
    return BoolMat(a.n, _union_rows(a.rows, b.rows))


def _union_rows(arows: Sequence[int], brows: Sequence[int]) -> tuple[int, ...]:
    """The rows of the entrywise OR of two row tuples of one degree."""
    return tuple([x | y for x, y in zip(arows, brows)])


def transpose(a: BoolMat) -> BoolMat:
    n = a.n
    out = [0] * n
    for i, row in enumerate(a.rows):
        r = row
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return BoolMat(n, tuple(out))


def subset_leq(a: BoolMat, b: BoolMat) -> bool:
    """Entrywise containment of relations."""
    return all(ra & ~rb == 0 for ra, rb in zip(a.rows, b.rows))


def _is_interval_mask(m: int) -> bool:
    if m == 0:
        return False
    m >>= (m & -m).bit_length() - 1
    return m & (m + 1) == 0


def _convex_columns(rows: Sequence[int]) -> list[int] | None:
    """The column masks of the relation with these rows if it is convex,
    None for any other relation.

    Convex means reflexive, with every row and column support an interval.
    One pass tests the rows and transposes: a reflexive row is an interval
    [lo, hi) of columns exactly when it equals 2^hi - 2^lo, and it adds its
    bit to each of those columns.  Every column j then holds row j's bit,
    so no column is empty.
    """
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        lo = (row & -row).bit_length() - 1
        hi = row.bit_length()
        if not row >> i & 1 or row != (1 << hi) - (1 << lo):
            return None
        bit = 1 << i
        for j in range(lo, hi):
            cols[j] |= bit
    for col in cols:
        if col & (col + (col & -col)):
            return None
    return cols


def _map_pair(rows: Sequence[int]) -> tuple[MonotoneMap, MonotoneMap] | None:
    """The (max, min) pair of the relation with these rows, None when it is
    not convex."""
    cols = _convex_columns(rows)
    if cols is None:
        return None
    return (tuple(map(int.bit_length, cols)),
            tuple([(c & -c).bit_length() for c in cols]))


def is_convex(a: BoolMat) -> bool:
    """Reflexive, with every row and column support an interval."""
    return _map_pair(a.rows) is not None


def to_map_pair(a: BoolMat) -> tuple[MonotoneMap, MonotoneMap]:
    """The (max, min) pair of a convex relation; one direction of the isomorphism.

    The columnwise maximum lands in the non-decreasing monoid, the columnwise
    minimum in the non-increasing one.
    """
    pair = _map_pair(a.rows)
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
    """from_map_pair without its checks, for maps monotone by construction."""
    n = len(alpha)
    rows = [0] * n
    for j in range(n):
        for i in range(beta[j] - 1, alpha[j]):
            rows[i] |= 1 << j
    return BoolMat(n, tuple(rows))


def enumerate_convex(n: int) -> Iterator[BoolMat]:
    """All convex relations, by brute-force filter over reflexive matrices.

    Exponential; only a test oracle for small n.
    """
    free_rows = []
    for i in range(n):
        diag = 1 << i
        free_rows.append([diag | m_lo | (m_hi << (i + 1))
                          for m_lo in range(1 << i)
                          for m_hi in range(1 << (n - i - 1))])
    for rows in _iproduct(*free_rows):
        m = BoolMat(n, rows)
        if is_convex(m):
            yield m


# ---------------------------------------------------------------------------
# Text and JSON formats.

def to_row_strings(a: BoolMat) -> list[str]:
    return ["".join("1" if a.rows[i] >> j & 1 else "0" for j in range(a.n))
            for i in range(a.n)]


def from_row_strings(lines: Sequence[str]) -> BoolMat:
    n = len(lines)
    rows = []
    for line in lines:
        line = line.strip()
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValueError(f"bad matrix row {line!r}")
        rows.append(sum(1 << j for j, ch in enumerate(line) if ch == "1"))
    return BoolMat(n, tuple(rows))


def to_json_dict(a: BoolMat) -> dict:
    return {"n": a.n, "rows": to_row_strings(a)}


def from_json_dict(data: dict) -> BoolMat:
    mat = from_row_strings(data["rows"])
    if mat.n != data["n"]:
        raise ValueError("degree field does not match rows")
    return mat


def parse_matrix(text: str) -> BoolMat:
    """Parse either comma-separated rows ("110,111,011") or newline rows."""
    sep = "," if "," in text else "\n"
    return from_row_strings([part for part in text.split(sep) if part.strip()])
