"""Slow, independent references that tests compare the library against."""

from catkit import permutations as pm


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
