"""
Dyck paths, their correspondence with monotone maps, and the path-pair
combinatorics of permutations.

Paths are strings over 'U'/'D' with every prefix balanced.  The bijection
with the non-decreasing Catalan monoid reads the staircase outline of a
map's matrix from the bottom-right corner: a map alpha of degree n goes to

    U D^{c_n} U D^{c_{n-1}} ... U D^{c_1},   c_j = alpha(j) - alpha(j-1),

so the identity map gives the sawtooth (UD)^n and the constant map n gives
the pyramid U^n D^n.  Under this normalization the valley-completion covers
below line up with the two-sided divisibility order on monotone maps.

The path involution implemented by kreweras_derivative sends the path of
alpha to the path of the prefix-maxima of the inverse of the 321-avoiding
witness of alpha; it is an involution because inversion preserves
321-avoidance and the witness of a 321-avoiding permutation is itself.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_
from typing import Iterator

from . import permutations as pm
from .dcm import catalan_monoid
from .permutations import MonotoneMap, Perm

DyckPath = str


def is_dyck_path(path: str) -> bool:
    h = 0
    for step in path:
        if step == "U":
            h += 1
        elif step == "D":
            h -= 1
            if h < 0:
                return False
        else:
            return False
    return h == 0


def semilength(path: DyckPath) -> int:
    return len(path) // 2


def all_dyck_paths(n: int) -> list[DyckPath]:
    """All Dyck paths of semilength n (Catalan many), in lexicographic order."""

    def rec(prefix: list[str], ups: int, downs: int) -> Iterator[str]:
        if ups == n and downs == n:
            yield "".join(prefix)
            return
        if downs < ups:
            prefix.append("D")
            yield from rec(prefix, ups, downs + 1)
            prefix.pop()
        if ups < n:
            prefix.append("U")
            yield from rec(prefix, ups + 1, downs)
            prefix.pop()

    return list(rec([], 0, 0))


def map_to_path(alpha: MonotoneMap) -> DyckPath:
    """The Dyck path of a non-decreasing monotone map (see module docstring).

    >>> map_to_path((1, 2, 3))
    'UDUDUD'
    >>> map_to_path((3, 3, 3))
    'UUUDDD'
    """
    if not pm.is_nondecreasing_map(alpha):
        raise ValueError(f"not a non-decreasing map: {alpha!r}")
    n = len(alpha)
    parts = []
    for j in range(n, 0, -1):
        inc = alpha[j - 1] - (alpha[j - 2] if j >= 2 else 0)
        parts.append("U" + "D" * inc)
    return "".join(parts)


def path_to_map(path: DyckPath) -> MonotoneMap:
    """Inverse of map_to_path.

    >>> path_to_map('UUDUDD')
    (2, 3, 3)
    """
    if not is_dyck_path(path):
        raise ValueError(f"not a Dyck path: {path!r}")
    runs = [len(run) for run in path.split("U")[1:]]  # D-run after each U
    # of semilength n, the k-th U from the left carries the increment of
    # position n+1-k
    return tuple(accumulate(reversed(runs)))


def _run_decomposition(path: DyckPath) -> tuple[list[int], list[int]]:
    """Maximal run lengths: path = U^{a_1} D^{b_1} ... U^{a_r} D^{b_r}."""
    ups, downs = [], []
    i = 0
    while i < len(path):
        j = i
        while j < len(path) and path[j] == "U":
            j += 1
        ups.append(j - i)
        i = j
        while j < len(path) and path[j] == "D":
            j += 1
        downs.append(j - i)
        i = j
    return ups, downs


def valley_completions(path: DyckPath) -> frozenset[DyckPath]:
    """Covers of a path: complete a contiguous run of valleys to peaks.

    For each valley in the chosen run the descent into it and the ascent
    out of it trade places, which fills the minimal rectangle over the
    valley.  The empty choice is allowed, so the path itself is included.
    """
    if not is_dyck_path(path):
        raise ValueError(f"not a Dyck path: {path!r}")
    ups, downs = _run_decomposition(path)
    r = len(ups)
    out = {path}
    for lo in range(r - 1):
        for hi in range(lo, r - 1):
            # swap (D^{b_l}, U^{a_{l+1}}) around each valley l in lo..hi
            parts = []
            for l in range(r):
                if l < lo or l > hi + 1:
                    parts.append("U" * ups[l] + "D" * downs[l])
                elif l == lo:
                    parts.append("U" * ups[l])
                    parts.append("U" * ups[l + 1] + "D" * downs[l])
                elif l <= hi:
                    # U-run already consumed by the previous swap
                    parts.append("U" * ups[l + 1] + "D" * downs[l])
                else:
                    parts.append("D" * downs[l])
            out.add("".join(parts))
    return frozenset(out)


@lru_cache(maxsize=None)
def _all_maps(n: int) -> tuple[MonotoneMap, ...]:
    return tuple(pm.all_nondecreasing_maps(n))


@lru_cache(maxsize=None)
def _factor_sets(alpha: MonotoneMap) -> tuple[frozenset, frozenset]:
    """All left multiples and all right multiples of alpha in the monoid."""
    maps = _all_maps(len(alpha))
    left = frozenset(pm.compose_map(g, alpha) for g in maps)
    right = frozenset(pm.compose_map(alpha, g) for g in maps)
    return left, right


def factor_order_leq(alpha: MonotoneMap, beta: MonotoneMap) -> bool:
    """Two-sided divisibility: beta is both a left and a right multiple of alpha.

    Brute force over the non-decreasing Catalan monoid, for one pair at a
    time (`catkit dyck prec`); factor_order_sets gives the whole relation.
    """
    if len(alpha) != len(beta):
        raise ValueError("degree mismatch")
    left, right = _factor_sets(tuple(alpha))
    return beta in left and beta in right


def _indexed(n: int) -> tuple[list[DyckPath], dict[DyckPath, int]]:
    paths = all_dyck_paths(n)
    return paths, {p: k for k, p in enumerate(paths)}


def factor_order_sets(n: int) -> list[int]:
    """factor_order_leq on paths of semilength n as bitsets: bit j of
    entry k is set iff the map of the j-th path of all_dyck_paths(n) is a
    two-sided multiple of the map of the k-th.  With each product of
    catalan_monoid(n) labelled by its path's bit, an element's right
    multiples are the OR of its row of the product table and its left
    multiples the OR of its column."""
    paths, index = _indexed(n)
    table = catalan_monoid(n)
    labels = [1 << index[map_to_path(x)] for x in table.elements]
    rows, cols = [], [0] * len(table)
    for row in table.product_rows(labels):
        rows.append(reduce(or_, row))
        cols = list(map(or_, cols, row))
    fo = [0] * len(paths)
    for label, row, col in zip(labels, rows, cols):
        fo[label.bit_length() - 1] = row & col
    return fo


def cover_order_sets(n: int) -> list[int]:
    """The cover order on paths of semilength n as bitsets, indexed as in
    factor_order_sets: bit j of entry k is set iff a chain of valley
    completions leads from the k-th path to the j-th.  One pass from the
    highest path down: a completion trades D^b U^a for U^a D^b, so it
    raises the path and its set is done before it is read."""
    paths, index = _indexed(n)
    up = [1 << k for k in range(len(paths))]
    area = [sum(accumulate(1 if s == "U" else -1 for s in p)) for p in paths]
    for k in sorted(range(len(paths)), key=area.__getitem__, reverse=True):
        for q in valley_completions(paths[k]):
            up[k] |= up[index[q]]
    return up


def kreweras_derivative(path: DyckPath) -> DyckPath:
    """The involution sending the path of alpha to the path of the
    prefix-maxima of the inverse 321-avoiding witness of alpha.

    >>> kreweras_derivative('UDUDUD')
    'UDUDUD'
    >>> kreweras_derivative('UUDUDD')
    'UUUDDD'
    """
    alpha = path_to_map(path)
    witness = pm.min_perm_with_maxima(alpha)
    return map_to_path(pm.ltr_maxima(pm.invert(witness)))


PathPair = tuple[DyckPath, DyckPath]


def path_pair_of(w: Perm) -> PathPair:
    """The pair of paths carried by a permutation and its inverse."""
    return (map_to_path(pm.ltr_maxima(w)),
            map_to_path(pm.ltr_maxima(pm.invert(w))))


def is_admissible(first: DyckPath, second: DyckPath) -> bool:
    """Whether some permutation realizes (first, second) as its path pair.

    Evaluated through the order criterion: the derivative of each path must
    divide the other path's map on both sides.
    """
    if semilength(first) != semilength(second):
        raise ValueError("semilength mismatch")
    return (factor_order_leq(path_to_map(kreweras_derivative(first)),
                             path_to_map(second))
            and factor_order_leq(path_to_map(kreweras_derivative(second)),
                                 path_to_map(first)))


def admissible_sets(n: int) -> list[int]:
    """is_admissible on paths of semilength n as bitsets, indexed as in
    factor_order_sets: the partners of p are fo[D(p)] & back[p], D the
    derivative and back[p] the q with p in fo[D(q)]."""
    paths, index = _indexed(n)
    fo = factor_order_sets(n)
    above = [fo[index[kreweras_derivative(p)]] for p in paths]
    back = [0] * len(paths)
    for q, row in enumerate(above):
        while row:
            low = row & -row
            back[low.bit_length() - 1] |= 1 << q
            row ^= low
    return [a & b for a, b in zip(above, back)]


def brute_force_admissible_pairs(n: int) -> frozenset[PathPair]:
    """All realized path pairs of S_n, by exhaustive scan: the realized
    side that the admissible-pairs check compares admissible_sets with."""
    return frozenset(path_pair_of(w) for w in pm.all_perms(n))
