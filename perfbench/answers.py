"""Known answers for the benchmark's gate, and the small reference code that
recomputes the ones no table holds.

Nothing here imports catkit.  Counts come from published sequences or
closed forms; structural answers (Cayley tables, fibers, projections) are
recomputed by self-contained code, so a wrong library result cannot also
corrupt its own check.  Boolean matrices are tuples of row bitmasks, bit j
of row i being the entry (i+1, j+1), the same encoding as catkit.boolmat.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb


class Mismatch(AssertionError):
    """An op's output disagrees with its known answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# |DC_n|, OEIS A005802 (4321-avoiding permutations).
DC_SIZES = {1: 1, 2: 2, 3: 6, 4: 23, 5: 103, 6: 513, 7: 2761, 8: 15767}
# Motzkin numbers M_0.., OEIS A001006; M_n counts the self-dual elements of DC_n.
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
# The first fiber of degree 7 with more than one Bruhat-maximal member.
FIRST_MULTIMAXIMAL_7 = frozenset({"5276143", "5472163"})


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def idempotent_count(n: int) -> int:
    return 2 ** (n - 1)


def type_a_min_dim(k: int) -> int:
    """Minimal effective dimension of the 0-Hecke monoid of type A_k."""
    return 2 ** (k + 1) - k - 2


def dc_module_dim(n: int) -> int:
    """Dimension of the minimal effective module of DC_n."""
    return 2 * n - 2


# ---------------------------------------------------------------------------
# Permutations and monotone maps, one-line notation over 1..n.

def parse_perm(text: str) -> tuple[int, ...]:
    """Digit-string form, as catkit prints degrees up to 9."""
    return tuple(int(ch) for ch in text)


def format_perm(w) -> str:
    return "".join(map(str, w))


def inversions(w) -> int:
    return sum(1 for i, j in combinations(range(len(w)), 2) if w[i] > w[j])


def contains(w, pattern) -> bool:
    m = len(pattern)
    for positions in combinations(range(len(w)), m):
        vals = [w[p] for p in positions]
        if all((vals[a] < vals[b]) == (pattern[a] < pattern[b])
               for a, b in combinations(range(m), 2)):
            return True
    return False


def prefix_maxima(w) -> tuple[int, ...]:
    out, best = [], 0
    for v in w:
        best = max(best, v)
        out.append(best)
    return tuple(out)


def suffix_minima(w) -> tuple[int, ...]:
    out, best = [], len(w) + 1
    for v in reversed(w):
        best = min(best, v)
        out.append(best)
    return tuple(reversed(out))


def compose(f, g) -> tuple[int, ...]:
    """(f o g)(i) = f(g(i)); g acts first."""
    return tuple(f[v - 1] for v in g)


def catalan_maps(n: int) -> list[tuple[int, ...]]:
    """Non-decreasing maps with f(i) >= i: the prefix-maxima maps, C_n many."""
    out = []

    def rec(prefix):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        for v in range(max(i + 1, prefix[-1] if prefix else 1), n + 1):
            rec(prefix + [v])

    rec([])
    return out


def catalan_generator(i: int, n: int) -> tuple[int, ...]:
    """Prefix maxima of the simple transposition s_i, 1 <= i < n."""
    return tuple(i + 1 if k == i else k for k in range(1, n + 1))


def hecke_right(w, i: int) -> tuple[int, ...]:
    """w times the i-th 0-Hecke generator: swap positions i, i+1 if that
    adds an inversion, else w."""
    if w[i - 1] < w[i]:
        w = list(w)
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


# ---------------------------------------------------------------------------
# Boolean matrices as row-bitmask tuples.

def bool_mul(a, b) -> tuple[int, ...]:
    out = []
    for row in a:
        acc, j = 0, 0
        while row:
            if row & 1:
                acc |= b[j]
            row >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


def interval_fill(alpha, beta) -> tuple[int, ...]:
    """Entry (i, j) set iff beta(j) <= i <= alpha(j)."""
    rows = [0] * len(alpha)
    for j, (lo, hi) in enumerate(zip(beta, alpha)):
        for i in range(lo - 1, hi):
            rows[i] |= 1 << j
    return tuple(rows)


def perm_fill(w) -> tuple[int, ...]:
    """The projection of w to DC_n: interval fill of (prefix maxima, suffix minima)."""
    return interval_fill(prefix_maxima(w), suffix_minima(w))


def dc_generator(i: int, n: int) -> tuple[int, ...]:
    """Identity plus the block on rows and columns i, i+1 (1 <= i < n)."""
    rows = [1 << k for k in range(n)]
    rows[i - 1] = rows[i] = (1 << (i - 1)) | (1 << i)
    return tuple(rows)


def identity_rows(n: int) -> tuple[int, ...]:
    return tuple(1 << k for k in range(n))


def is_block_all_ones(rows) -> bool:
    """Block diagonal, every diagonal block filled."""
    i, n = 0, len(rows)
    while i < n:
        hi = i
        while hi + 1 < n and rows[i] >> (hi + 1) & 1:
            hi += 1
        block = ((1 << (hi + 1)) - 1) ^ ((1 << i) - 1)
        if any(rows[k] != block for k in range(i, hi + 1)):
            return False
        i = hi + 1
    return True


def dc_elements(n: int) -> list[tuple[int, ...]]:
    """DC_n by breadth-first closure of its generators, sorted."""
    gens = [dc_generator(i, n) for i in range(1, n)]
    seen = {identity_rows(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = bool_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


class FiberData:
    """Per-permutation statistics of S_n that the fiber checks compare with."""

    def __init__(self, n: int):
        self.by_matrix: dict = {}
        self.by_maxima: dict = {}
        for w in permutations(range(1, n + 1)):
            self.by_matrix.setdefault(perm_fill(w), []).append(w)
            self.by_maxima.setdefault(prefix_maxima(w), []).append(w)

    @staticmethod
    def only(members, pattern):
        """The unique member avoiding the pattern; Mismatch if not unique."""
        found = [w for w in members if not contains(w, pattern)]
        expect(len(found) == 1,
               f"{len(found)} members avoid {format_perm(pattern)}, "
               "expected 1")
        return found[0]
