"""
Permutations of {1, ..., n} in one-line notation, and monotone self-maps.

A permutation w is the tuple (w(1), ..., w(n)) over the values 1..n.  The
composition convention used everywhere is

    compose(u, w)(j) = u(w(j)),

i.e. the right factor acts first.  Under this convention the 0/1 matrix of w
(column j carries a single 1 in row w(j)) turns composition into matrix
product, and left multiplication by a simple transposition s_i swaps the
values i, i+1 while right multiplication swaps the entries at positions
i, i+1.

Monotone self-maps of {1, ..., n} (order preserving, non-decreasing or
non-increasing) are represented the same way, as value tuples; they carry
the prefix-maxima / suffix-minima statistics of permutations.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, permutations as _permutations
from typing import Iterator, Sequence

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_permutation(values: Sequence[int]) -> bool:
    n = len(values)
    return sorted(values) == list(range(1, n + 1))


def simple_transposition(i: int, n: int) -> Perm:
    """The simple transposition s_i swapping i and i+1, for 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for degree {n}")
    values = list(range(1, n + 1))
    values[i - 1], values[i] = values[i], values[i - 1]
    return tuple(values)


def compose(u: Perm, w: Perm) -> Perm:
    """Compose two permutations, w acting first: compose(u, w)(j) = u(w(j)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(u) != len(w):
        raise ValueError(f"degree mismatch: {len(u)} != {len(w)}")
    return tuple(u[v - 1] for v in w)


def invert(w: Perm) -> Perm:
    inv = [0] * len(w)
    for j, v in enumerate(w):
        inv[v - 1] = j + 1
    return tuple(inv)


def is_involution(w: Perm) -> bool:
    return invert(w) == w


def inversions(w: Perm) -> int:
    """Number of inversions of w, i.e. its Coxeter length."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return _permutations(range(1, n + 1))


def mul_simple_left(i: int, w: Perm) -> Perm:
    """s_i composed after w; swaps the values i and i+1 inside w."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)


def mul_simple_right(w: Perm, i: int) -> Perm:
    """w composed after s_i; swaps the entries at positions i and i+1."""
    values = list(w)
    values[i - 1], values[i] = values[i], values[i - 1]
    return tuple(values)


def right_descents(w: Perm) -> frozenset[int]:
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def left_descents(w: Perm) -> frozenset[int]:
    return right_descents(invert(w))


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word for w in the simple transpositions.

    The word (i_1, ..., i_k) evaluates to w as compose(s_{i_1}, compose(...))
    and its length equals inversions(w).  Letters are produced by clearing
    the leftmost descent on the right, one insertion-sort pass: the values
    left of a cleared descent at i are increasing, so the next leftmost
    descent is at i-1 or to the right of i, and the pass steps back one
    place instead of starting over.  It takes O(n + inversions) steps.

    >>> reduced_word((2, 3, 1))
    (1, 2)
    """
    letters = []
    values = list(w)
    last = len(values) - 1
    i = 0
    while i < last:
        if values[i] > values[i + 1]:
            letters.append(i + 1)
            values[i], values[i + 1] = values[i + 1], values[i]
            if i:
                i -= 1
        else:
            i += 1
    return tuple(reversed(letters))


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Bruhat order comparison by the rank criterion on prefix bitmasks.

    u <= w iff for every prefix length i and every value k, no more of
    u(1..i) than of w(1..i) are >= k (Björner and Brenti, Combinatorics
    of Coxeter Groups, Thm 2.1.5); this is equivalent to the subword
    property of reduced decompositions.  The prefixes are kept as
    bitmasks mu and mw.  Values in both cancel, so the walk goes down the
    bits of mu ^ mw from the top with a running count, +1 for a value of
    u and -1 for one of w, and u <= w fails once the count is positive.

    >>> bruhat_leq((2, 3, 1), (3, 2, 1)), bruhat_leq((2, 3, 1), (3, 1, 2))
    (True, False)
    """
    if len(u) != len(w):
        raise ValueError(f"degree mismatch: {len(u)} != {len(w)}")
    mu = mw = 0
    for a, b in zip(u, w):
        mu |= 1 << a
        mw |= 1 << b
        diff = mu ^ mw
        count = 0
        while diff:
            bit = 1 << diff.bit_length() - 1
            count += 1 if mu & bit else -1
            if count > 0:
                return False
            diff ^= bit
    return True


def bruhat_covers(u: Perm) -> Iterator[Perm]:
    """The permutations covering u in the Bruhat order: the products
    u*(i j) with u(i) < u(j) and no k between i and j having
    u(i) < u(k) < u(j) (Björner and Brenti, Combinatorics of Coxeter
    Groups, Lemma 2.1.4)."""
    n = len(u)
    for i in range(n - 1):
        low = u[i]
        ceiling = n + 1   # least value above low seen between i and j
        for j in range(i + 1, n):
            if low < u[j] < ceiling:
                v = list(u)
                v[i], v[j] = u[j], low
                yield tuple(v)
                ceiling = u[j]


def bruhat_ideals(n: int) -> list[int]:
    """The principal Bruhat ideal of each permutation of all_perms(n), as a
    bitset: bit j is set iff the j-th permutation lies below.  One pass in
    length order, each level the covers of the one before: an ideal is its
    own bit and the ideals of the elements it covers.

    >>> bruhat_ideals(2)   # 12 is below 21
    [1, 3]
    """
    perms = list(all_perms(n))
    index = {w: k for k, w in enumerate(perms)}
    ideals = [1 << k for k in range(len(perms))]
    level = {0}   # the identity
    while level:
        above = set()
        for k in level:
            for v in bruhat_covers(perms[k]):
                j = index[v]
                ideals[j] |= ideals[k]
                above.add(j)
        level = above
    return ideals


def contains_pattern(w: Perm, p: Perm) -> bool:
    """True iff some subsequence of w is order-isomorphic to the
    permutation p.

    A decreasing p is contained iff w's longest decreasing subsequence is
    at least as long as p.  Any other p is matched left to right by
    backtracking over partial matches order-isomorphic to a prefix of p:
    the next value must lie strictly between the values matched to the
    prefix's nearest lower and nearest higher entries of p.

    >>> contains_pattern((5, 2, 4, 3, 1), (4, 2, 3, 1))
    True
    >>> contains_pattern((3, 4, 1, 2), (3, 2, 1))
    False
    """
    n, m = len(w), len(p)
    if m > n:
        return False
    bounds = _pattern_bounds(tuple(p))
    if bounds is None:
        return _longest_decreasing(w) >= m
    matched = [0] * (m + 2)   # matched[m], matched[m+1]: the bounds 0, n+1
    matched[m + 1] = n + 1

    def extend(k: int, start: int) -> bool:
        if k == m:
            return True
        lo, hi = bounds[k]
        low, high = matched[lo], matched[hi]
        for j in range(start, n - m + k + 1):
            if low < w[j] < high:
                matched[k] = w[j]
                if extend(k + 1, j + 1):
                    return True
        return False

    return extend(0, 0)


@lru_cache(maxsize=None)
def _pattern_bounds(p: Perm) -> tuple[tuple[int, int], ...] | None:
    """For each position k of p, the positions before k of its nearest
    lower and nearest higher values in p, m and m+1 standing for the
    missing bounds 0 and n+1 (m = len(p)); None for a decreasing p."""
    m = len(p)
    if list(p) == list(range(m, 0, -1)):
        return None
    bounds = []
    for k in range(m):
        below = [a for a in range(k) if p[a] < p[k]]
        above = [a for a in range(k) if p[a] > p[k]]
        bounds.append((max(below, key=p.__getitem__, default=m),
                       min(above, key=p.__getitem__, default=m + 1)))
    return tuple(bounds)


def _longest_decreasing(w: Perm) -> int:
    """Length of the longest decreasing subsequence, by patience sorting:
    -tops[i] is the largest last value of a decreasing subsequence of
    length i+1 so far, so tops stays increasing."""
    tops: list[int] = []
    for v in w:
        i = bisect_left(tops, -v)
        if i == len(tops):
            tops.append(-v)
        else:
            tops[i] = -v
    return len(tops)


def avoids(w: Perm, p: Perm) -> bool:
    return not contains_pattern(w, p)


def count_avoiding(n: int, p: Perm) -> int:
    """Brute-force count of p-avoiding permutations in S_n."""
    return sum(1 for w in all_perms(n) if avoids(w, p))


def count_avoiding_involutions(n: int, p: Perm) -> int:
    return sum(1 for w in all_perms(n) if is_involution(w) and avoids(w, p))


# ---------------------------------------------------------------------------
# Monotone self-maps (elements of the two Catalan monoids).

MonotoneMap = tuple[int, ...]


def is_nondecreasing_map(values: Sequence[int]) -> bool:
    """Order preserving with values(i) >= i: the non-decreasing Catalan monoid."""
    n = len(values)
    return (all(1 <= v <= n for v in values)
            and all(values[i] <= values[i + 1] for i in range(n - 1))
            and all(values[i] >= i + 1 for i in range(n)))


def is_nonincreasing_map(values: Sequence[int]) -> bool:
    """Order preserving with values(i) <= i: the non-increasing Catalan monoid."""
    n = len(values)
    return (all(1 <= v <= n for v in values)
            and all(values[i] <= values[i + 1] for i in range(n - 1))
            and all(values[i] <= i + 1 for i in range(n)))


def compose_map(f: Sequence[int], g: Sequence[int]) -> MonotoneMap:
    """compose_map(f, g)(i) = f(g(i)); same convention as compose()."""
    return tuple(f[v - 1] for v in g)


def ltr_maxima(w: Perm) -> MonotoneMap:
    """The left-to-right maximum transformation i -> max(w(1..i)).

    >>> ltr_maxima((3, 4, 1, 2))
    (3, 4, 4, 4)
    """
    return tuple(accumulate(w, max))


def rtl_minima(w: Perm) -> MonotoneMap:
    """The right-to-left minimum transformation i -> min(w(i..n)).

    >>> rtl_minima((3, 4, 1, 2))
    (1, 1, 1, 2)
    """
    return tuple(accumulate(reversed(w), min))[::-1]


def all_nondecreasing_maps(n: int) -> Iterator[MonotoneMap]:
    """All order preserving non-decreasing self-maps of {1..n}, lex order."""

    def rec(prefix: list[int]) -> Iterator[MonotoneMap]:
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        lo = max(i + 1, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    return rec([])


def min_perm_with_maxima(alpha: Sequence[int]) -> Perm:
    """The 321-avoiding permutation whose prefix maxima equal alpha.

    Built by the greedy recursion: take alpha(i) whenever it strictly grows,
    otherwise the smallest unused value.  The output is the Bruhat-least
    member of the fiber {w : ltr_maxima(w) = alpha}.
    """
    n = len(alpha)
    if not is_nondecreasing_map(alpha):
        raise ValueError(f"not a non-decreasing monotone map: {alpha!r}")
    used = [False] * (n + 1)
    out = []
    prev = 0
    smallest = 1
    for i in range(n):
        if alpha[i] > prev:
            v = alpha[i]
        else:
            v = smallest
        out.append(v)
        used[v] = True
        prev = alpha[i]
        while smallest <= n and used[smallest]:
            smallest += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Serialization: digit strings for n <= 9, comma-separated for n >= 10.

class _PermTemplates(dict):
    """The %-template of the value tuples of each length, made on first
    use: one %d per value, joined by commas above nine values."""

    def __missing__(self, length: int) -> str:
        template = self[length] = ("" if length <= 9 else ",").join(
            ["%d"] * length)
        return template


_PERM_TEMPLATES = _PermTemplates()


def format_perm(w: Sequence[int]) -> str:
    """The values of w, by one %-format of its length's template.

    >>> format_perm((3, 1, 2)), format_perm(list(range(10, 0, -1)))
    ('312', '10,9,8,7,6,5,4,3,2,1')
    """
    return _PERM_TEMPLATES[len(w)] % tuple(w)


_PERM_TEXT = re.compile(r"[0-9]*|[0-9]+(?:,[0-9]+)+")


def parse_perm(text: str) -> Perm:
    """Parse the value-tuple format, one ASCII decimal digit per value or
    values separated by single commas; nothing else.  Monotone maps share
    it, so no bijection check."""
    text = text.strip()
    if not _PERM_TEXT.fullmatch(text):
        raise ValueError(f"bad permutation syntax: {text!r}")
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)
