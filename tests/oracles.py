"""Slow, independent references that tests compare the library against."""

import random

from catkit import hecke
from catkit import permutations as pm


def word_to_perm(word, n: int) -> pm.Perm:
    """Evaluate a word in the simple transpositions, leftmost letter outermost."""
    acc = pm.identity(n)
    for i in word:
        acc = pm.compose(acc, pm.simple_transposition(i, n))
    return acc


def all_chambers(n: int) -> list[hecke.SetPartition]:
    """The chambers of all of S_n, in the order of pm.all_perms."""
    return [hecke.chamber_of(w) for w in pm.all_perms(n)]


def bruhat_leq_by_sorted_prefixes(u: pm.Perm, w: pm.Perm) -> bool:
    """Bruhat order by prefix dominance: u <= w iff for every i the
    increasing rearrangement of u(1..i) is entrywise <= that of w(1..i)."""
    if len(u) != len(w):
        raise ValueError(f"degree mismatch: {len(u)} != {len(w)}")
    for i in range(1, len(u)):
        pu = sorted(u[:i])
        pw = sorted(w[:i])
        if any(a > b for a, b in zip(pu, pw)):
            return False
    return True


def bruhat_ideal_by_subwords(w: pm.Perm) -> frozenset[pm.Perm]:
    """The principal Bruhat ideal of w as the values of all subwords of one
    reduced word of w (the subword property)."""
    word = pm.reduced_word(w)
    n = len(w)
    out = {pm.identity(n)}
    # evaluate all subwords incrementally
    partials: list[pm.Perm] = [pm.identity(n)]
    for letter in word:
        s = pm.simple_transposition(letter, n)
        extension = [pm.compose(value, s) for value in partials]
        out.update(extension)
        partials.extend(extension)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Boolean matrices as row tuples: bit j-1 of rows[i-1] is the entry (i, j).

def mul_rows(arows: tuple[int, ...], brows: tuple[int, ...]) -> tuple[int, ...]:
    """The boolean product: row i ORs the rows of b that row i of a selects."""
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


def union_rows(arows: tuple[int, ...], brows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x | y for x, y in zip(arows, brows))


def transpose_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 << i for i, r in enumerate(rows) if r >> j & 1)
                 for j in range(len(rows)))


def leq_rows(arows: tuple[int, ...], brows: tuple[int, ...]) -> bool:
    return all(x & ~y == 0 for x, y in zip(arows, brows))


def perm_rows(w: pm.Perm) -> tuple[int, ...]:
    """The rows of the permutation matrix with entry (w(j), j) = 1."""
    return tuple(sum(1 << j for j, v in enumerate(w) if v == i)
                 for i in range(1, len(w) + 1))


def entry_of_rows(rows: tuple[int, ...], i: int, j: int) -> int:
    return rows[i - 1] >> (j - 1) & 1


def is_block_all_ones_rows(rows: tuple[int, ...]) -> bool:
    """Block diagonal with every diagonal block entirely filled: row i is
    the block [i, hi) of columns, and so is every row below it up to hi."""
    i = 0
    while i < len(rows):
        row = rows[i]
        hi = row.bit_length()
        if hi <= i or row != (1 << hi) - (1 << i):
            return False
        if any(rows[k] != row for k in range(i, hi)):
            return False
        i = hi
    return True


# ---------------------------------------------------------------------------
# Convex relations read row by row, and the convex sampler by rng.randint.

def map_pair_by_rows(a) -> tuple[tuple, tuple] | None:
    """The (max, min) pair of the BoolMat a, None when it is not convex.

    A reflexive row is an interval [lo, hi) of columns exactly when it
    equals 2^hi - 2^lo, and it adds its bit to each of those columns, one
    entry at a time; every column then holds its diagonal bit, so only
    its interval test is left.
    """
    n, x, mask = a.n, a.bits, (1 << a.n) - 1
    cols = [0] * n
    for i in range(n):
        row = x >> (i * n) & mask
        lo = (row & -row).bit_length() - 1
        hi = row.bit_length()
        if not row >> i & 1 or row != (1 << hi) - (1 << lo):
            return None
        for j in range(lo, hi):
            cols[j] |= 1 << i
    for col in cols:
        if col & (col + (col & -col)):
            return None
    return (tuple(map(int.bit_length, cols)),
            tuple([(c & -c).bit_length() for c in cols]))


def random_convex_by_randint(n: int, rng: random.Random) -> tuple[tuple, tuple]:
    """A seeded (max, min) pair of a convex relation, one rng.randint per
    value."""
    alpha = []
    prev = 1
    for i in range(1, n + 1):
        alpha.append(rng.randint(max(prev, i), n))
        prev = alpha[-1]
    beta = []
    prev = 1
    for i in range(1, n + 1):
        beta.append(rng.randint(prev, i))
        prev = beta[-1]
    return tuple(alpha), tuple(beta)
