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
from itertools import combinations, permutations as _permutations
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
    and its length equals inversions(w).  Letters are produced by repeatedly
    clearing the leftmost descent on the right, so the output is
    deterministic.

    >>> reduced_word((2, 3, 1))
    (1, 2)
    """
    letters = []
    values = list(w)
    n = len(values)
    done = False
    while not done:
        done = True
        for i in range(n - 1):
            if values[i] > values[i + 1]:
                letters.append(i + 1)
                values[i], values[i + 1] = values[i + 1], values[i]
                done = False
                break
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


def contains_pattern(w: Perm, p: Perm) -> bool:
    """True iff some subsequence of w is order-isomorphic to p.

    Exhaustive subsequence scan; adequate for the small degrees used here.
    """
    n, m = len(w), len(p)
    if m > n:
        return False
    for positions in combinations(range(n), m):
        vals = [w[j] for j in positions]
        if all((vals[a] < vals[b]) == (p[a] < p[b])
               for a in range(m) for b in range(a + 1, m)):
            return True
    return False


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
    out = []
    best = 0
    for v in w:
        best = max(best, v)
        out.append(best)
    return tuple(out)


def rtl_minima(w: Perm) -> MonotoneMap:
    """The right-to-left minimum transformation i -> min(w(i..n)).

    >>> rtl_minima((3, 4, 1, 2))
    (1, 1, 1, 2)
    """
    out = []
    best = len(w) + 1
    for v in reversed(w):
        best = min(best, v)
        out.append(best)
    return tuple(reversed(out))


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

def format_perm(w: Sequence[int]) -> str:
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


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
