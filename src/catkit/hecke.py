"""
The 0-Hecke monoid of the symmetric group, in three guises.

Elements are indexed by permutations w; the element indexed by w is the
product of idempotent generators along any reduced word of w.  Products are
computed by folding: a generator applied on the left sends w to s_i w when
that increases length and fixes w otherwise, and dually on the right.

The same monoid is realized as principal Bruhat order ideals of S_n under
set multiplication, and as the monoid generated by the foldings of ordered
set partitions (transpose i, i+1 when the block of i comes strictly before
the block of i+1).  Both realizations are implemented so they can be played
against the folding arithmetic.
"""

from __future__ import annotations

import re
from typing import Iterable

from . import permutations as pm
from .monoid import MonoidTable, generate_monoid
from .permutations import Perm


def gen_mul(i: int, z: Perm, side: str = "left") -> Perm:
    """Multiply the element indexed by z by the i-th idempotent generator.

    Left side: s_i z if that is longer, else z; right side dually.
    """
    n = len(z)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for degree {n}")
    if side == "left":
        # l(s_i z) > l(z) iff i occurs before i+1 in z
        if z.index(i) < z.index(i + 1):
            return pm.mul_simple_left(i, z)
        return z
    if side == "right":
        if z[i - 1] < z[i]:
            return pm.mul_simple_right(z, i)
        return z
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def mul(a: Perm, b: Perm) -> Perm:
    """Product in the 0-Hecke monoid, folding b's reduced word into a."""
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} != {len(b)}")
    cur = a
    for i in pm.reduced_word(b):
        cur = gen_mul(i, cur, side="right")
    return cur


def reverse(z: Perm) -> Perm:
    """The canonical involution induced by reversing words: z_w -> z_{w^-1}."""
    return pm.invert(z)


def bruhat_ideal(w: Perm) -> frozenset[Perm]:
    """The principal Bruhat order ideal {u : u <= w}."""
    return frozenset(u for u in pm.all_perms(len(w)) if pm.bruhat_leq(u, w))


def ideal_product(a: Iterable[Perm], b: Iterable[Perm]) -> frozenset[Perm]:
    """Elementwise product of subsets of the same symmetric group."""
    bl = list(b)
    return frozenset(pm.compose(x, y) for x in a for y in bl)


def idempotents(n: int) -> list[Perm]:
    """All w with z_w idempotent, in lexicographic order; there are 2^(n-1).

    Each element of the closure is tested by folding its witness word, a
    reduced word, into itself through the right Cayley table.
    """
    table = hecke_monoid(n)
    return sorted(table.elements[j] for j in table.idempotent_indices())


def hecke_monoid(n: int) -> MonoidTable:
    """The full 0-Hecke monoid of degree n as a closure table (size n!),
    closed by the right fold: s_i swaps an ascent at positions i, i+1."""
    gens = [pm.simple_transposition(i, n) for i in range(1, n)]
    letter = {g: i for i, g in enumerate(gens, 1)}

    def fold(z: Perm, g: Perm) -> Perm:
        i = letter[g]
        return pm.mul_simple_right(z, i) if z[i - 1] < z[i] else z

    return generate_monoid(gens, fold, pm.identity(n))


# ---------------------------------------------------------------------------
# Ordered set partitions and foldings.

SetPartition = tuple[frozenset[int], ...]


def make_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    part = tuple(frozenset(block) for block in blocks)
    validate_partition(part)
    return part


def validate_partition(part: SetPartition) -> None:
    if len(part) < 2:
        raise ValueError("ordered set partitions here have at least two blocks")
    if any(not block for block in part):
        raise ValueError("empty block")
    total = [v for block in part for v in block]
    if sorted(total) != list(range(1, len(total) + 1)):
        raise ValueError("blocks must partition {1..n}")


def fold(i: int, part: SetPartition) -> SetPartition:
    """Transpose i and i+1 when i's block comes strictly before i+1's block."""
    pos_i = pos_j = None
    for k, block in enumerate(part):
        if i in block:
            pos_i = k
        if i + 1 in block:
            pos_j = k
    if pos_i is None or pos_j is None:
        raise ValueError(f"values {i}, {i + 1} not covered by partition")
    if pos_i >= pos_j:
        return part
    out = list(part)
    out[pos_i] = (part[pos_i] - {i}) | {i + 1}
    out[pos_j] = (part[pos_j] - {i + 1}) | {i}
    return tuple(out)


def format_partition(part: SetPartition) -> str:
    blocks = ("{" + ",".join(str(v) for v in sorted(block)) + "}"
              for block in part)
    return "(" + ",".join(blocks) + ")"


_BLOCK = r"\{[0-9]+(?:,[0-9]+)*\}"
_PARTITION = re.compile(rf"\({_BLOCK}(?:,{_BLOCK})*\)")


def parse_partition(text: str) -> SetPartition:
    """The inverse of format_partition: "(", then blocks "{v,...}" of
    decimal values separated by single commas, then ")"; nothing else."""
    text = text.strip()
    if not _PARTITION.fullmatch(text):
        raise ValueError(f"bad partition syntax: {text!r}")
    return make_partition(frozenset(int(v) for v in block.split(","))
                          for block in text[2:-2].split("},{"))
