"""
Exact linear algebra for 0-Hecke modules and minimal effective dimensions.

The projective module attached to a generator s has basis the longest coset
representatives modulo the complementary maximal parabolic; each generator
acts by folding, so its matrix is 0/1 with at most one 1 per column and is
stored as a column map (basis index to basis index, or None once the
longest element has been projected away).  Dropping the one-dimensional
span of the longest element leaves the interesting summand, whose socle is
one-dimensional.

All eigenspace and socle computations run over the rationals by a sparse
integer elimination: zero and repeated rows are dropped, only the rows
with a nonzero entry in the pivot column are reduced, and each reduced row
is divided by the gcd of its entries.  Nullspaces come out in a canonical
basis that depends only on the row space, so reports are reproducible; an
optional prime modulus reruns the same elimination in characteristic p as
a spot check (the action matrices are 0/1, so the answers are
characteristic-free).  The socle never builds a dense matrix: each piece
is a nullspace of sparse kernel rows on the coordinates its generators
fix, and a depth-first search over the generator subsets skips every
subset below one whose rows already have full rank.

Effectiveness over a Coxeter system reads one column's image under every
element at a time, top columns first, and stops once the elements are
told apart, which the first rank columns do for the sum of reduced
projectives; element_column_maps, every element's full map by one gather
each, stays as the reference.  Over the double Catalan monoid the
generator maps are closed and matched against its own table.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from . import coxeter as cx
from . import dcm
from . import permutations as pm
from .coxeter import CoxeterSystem
from .monoid import DEFAULT_CAP, gather, generate_monoid, generators_match

ColumnMap = tuple  # tuple[int | None, ...]


class HeckeModule(NamedTuple):
    sys: CoxeterSystem
    labels: tuple            # one label per basis vector
    action: tuple[ColumnMap, ...]   # one column map per generator

    @property
    def dim(self) -> int:
        return len(self.labels)


def projective_module(sys: CoxeterSystem, s: int,
                      para: cx.Parabolic | None = None) -> HeckeModule:
    """The left ideal of the idempotent complementary to s, as a module.

    Basis: longest coset representatives modulo para, the parabolic on the
    other generators, built here when not given; dimension is the index of
    that parabolic.
    """
    if para is None:
        para = cx.parabolic(sys, frozenset(range(sys.rank)) - {s})
    return HeckeModule(sys=sys, labels=para.max_reps,
                       action=cx.folding_action(sys, para))


def drop_trivial_summand(module: HeckeModule) -> tuple[HeckeModule, HeckeModule]:
    """Split off the span of the longest element.

    Returns (reduced, trivial): the reduced module has basis the differences
    label - longest, with the image of a basis vector hitting the longest
    element becoming zero (None in the column map).
    """
    sys = module.sys
    w0 = sys.longest
    if w0 not in module.labels:
        raise ValueError("module basis does not contain the longest element")
    keep = [k for k, w in enumerate(module.labels) if w != w0]
    renumber = {old: new for new, old in enumerate(keep)}
    action = tuple(tuple(renumber.get(colmap[old]) for old in keep)
                   for colmap in module.action)
    reduced = HeckeModule(sys=sys,
                          labels=tuple(module.labels[k] for k in keep),
                          action=action)
    trivial = HeckeModule(sys=sys, labels=(w0,),
                          action=tuple((0,) for _ in range(sys.rank)))
    return reduced, trivial


def direct_sum(modules: Sequence[HeckeModule]) -> HeckeModule:
    if not modules:
        raise ValueError("empty direct sum")
    sys = modules[0].sys
    if any(m.sys is not sys for m in modules):
        raise ValueError("summands over different systems")
    labels = []
    action = [[] for _ in range(sys.rank)]
    offset = 0
    for mod in modules:
        labels.extend((offset, lab) for lab in mod.labels)
        for t in range(sys.rank):
            action[t].extend(None if v is None else v + offset
                             for v in mod.action[t])
        offset += mod.dim
    return HeckeModule(sys=sys, labels=tuple(labels),
                       action=tuple(tuple(col) for col in action))


# ---------------------------------------------------------------------------
# Eigenspace split of one generator.

class EigenSplit(NamedTuple):
    fixed: tuple[int, ...]                 # basis indices spanning the 1-eigenspace
    kernel_pairs: tuple[tuple[int, int], ...]  # (j, tj): vectors e_j - e_tj span ker

    @property
    def fixed_dim(self) -> int:
        return len(self.fixed)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_pairs)


def eigen_split(module: HeckeModule, t: int) -> EigenSplit:
    """Fixed space and kernel of an idempotent generator action.

    The fixed space is spanned by the basis vectors the generator fixes;
    the kernel by the differences along its two-element basis orbits.  The
    two always fill the module, which is re-checked by exact rank.
    """
    colmap, d = module.action[t], module.dim
    fixed = tuple(j for j, img in enumerate(colmap) if img == j)
    vectors = [[int(k == j) for k in range(d)] for j in fixed]
    pairs = []
    for j, img in enumerate(colmap):
        if img is not None and colmap[img] != img:
            raise RuntimeError("generator action not idempotent")
        if img != j:  # e_j - e_img is in the kernel; a None image is zero
            pairs.append((j, img))
            vectors.append([(k == j) - (k == img) for k in range(d)])
    if len(vectors) != d or matrix_rank(vectors) != d:
        raise RuntimeError("eigenspaces do not span the module")
    return EigenSplit(fixed=fixed, kernel_pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# Sparse elimination, nullspaces, socles.

def _echelon(rows: list, p: int | None) -> tuple[list[dict], list[int]]:
    """Row echelon form as sparse rows, pivots increasing.

    A row is a sequence of entries, or a dict from column to entry.  Zero
    rows and repeated rows are dropped first, which leaves the row space
    unchanged.  The rest are kept as dicts (column to nonzero entry)
    in buckets by leading column.  Column by column, the first row of the
    bucket becomes the pivot row; only the other rows of that bucket, the
    ones with a nonzero entry in the pivot column, are reduced against it
    and moved to the bucket of their new leading column, or dropped once
    zero.  Over the rationals each reduced row is divided by the gcd of its
    entries, so it stays primitive; with a prime modulus p each pivot row
    is scaled to a leading 1 and the arithmetic runs in GF(p).
    """
    if p is not None and p < 2:
        raise ValueError(f"modulus must be a prime, got {p}")
    buckets: dict[int, list[dict]] = {}
    seen = set()
    for row in rows:
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        if p is None:
            sparse = {c: x for c, x in pairs if x}
        else:
            sparse = {c: x % p for c, x in pairs if x % p}
        key = tuple(sparse.items())
        if sparse and key not in seen:
            seen.add(key)
            buckets.setdefault(min(sparse), []).append(sparse)
    ech: list[dict] = []
    pivots: list[int] = []
    while buckets:
        c = min(buckets)
        pivot_row, *others = buckets.pop(c)
        a = pivot_row[c]
        if p is not None and a != 1:
            inv = pow(a, -1, p)
            pivot_row = {k: x * inv % p for k, x in pivot_row.items()}
            a = 1
        for row in others:
            b = row[c]
            new = row if a == 1 else {k: a * x for k, x in row.items()}
            for k, y in pivot_row.items():
                x = new.get(k, 0) - b * y
                if p is not None:
                    x %= p
                if x:
                    new[k] = x
                else:
                    del new[k]
            if not new:
                continue
            if p is None:
                g = gcd(*new.values())
                if g > 1:
                    new = {k: x // g for k, x in new.items()}
            buckets.setdefault(min(new), []).append(new)
        ech.append(pivot_row)
        pivots.append(c)
    return ech, pivots


def matrix_rank(rows: list, p: int | None = None) -> int:
    return len(_echelon(rows, p)[1])


def nullspace(rows: list, ncols: int, p: int | None = None) -> list[list]:
    """Canonical nullspace basis, one vector per free column.

    The vector of a free column is 1 there and 0 on the other free columns.
    Over the rationals it is scaled to primitive integers with a positive
    leading entry; in characteristic p entries are reduced mod p.  The
    basis depends only on the row space, and a sparse row, a dict from
    column to entry, stands for the dense row it names:

    >>> nullspace([[2, 4, -6], [-1, -2, 3]], 3)
    [[2, -1, 0], [3, 0, 1]]
    >>> nullspace([[2, 4, -6], [-1, -2, 3]], 3, p=5)
    [[3, 1, 0], [3, 0, 1]]
    >>> nullspace([{0: 2, 1: 4, 2: -6}], 3)
    [[2, -1, 0], [3, 0, 1]]
    """
    ech, pivots = _echelon(rows, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v: dict = {fc: 1}
        for row, pc in zip(reversed(ech), reversed(pivots)):
            s = sum(x * v[k] for k, x in row.items() if k in v)
            if p is not None:
                s %= p
                if s:
                    v[pc] = p - s  # mod p the pivot rows lead with 1
            elif s:
                # v is an integer multiple of the rational solution; scale
                # it by a/g so that the new entry -s/a is the integer -s/g
                a = row[pc]
                g = gcd(s, a)
                if a != g:
                    v = {k: x * (a // g) for k, x in v.items()}
                v[pc] = -s // g
        if p is None:
            g = gcd(*v.values())
            if v[min(v)] < 0:
                g = -g
            v = {k: x // g for k, x in v.items()}
        basis.append([v.get(k, 0) for k in range(ncols)])
    return basis


SocleReport = dict  # frozenset of generator indices -> list of basis vectors


def socle(module: HeckeModule, p: int | None = None) -> SocleReport:
    """For each generator subset J, the space of vectors fixed by the
    J-generators and killed by the rest; nonzero pieces assembled into the
    socle report, in increasing order of the mask of J.

    A generator t acts by an idempotent column map, so its fixed space is
    the coordinate subspace on the points t fixes, and its kernel is cut
    out by one 0/1 row per image point i: the sum of v_j over the j with
    t(j) = i is 0, a row held as the set of those j.  The J-piece is
    therefore the nullspace of the kernel rows of the t outside J,
    restricted to S_J, the points fixed by every t in J.  Each coordinate
    k outside S_J is a pivot of the full system, whose row space holds the
    unit row e_k, and the pivots inside S_J are those of the restricted
    rows.  The canonical basis of nullspace depends only on the null space
    and the column order, so re-embedding the restricted basis gives
    exactly the vectors of the full system, over the rationals and mod p.

    The subsets are searched depth first, deciding the generators in
    order, into J or out of it.  A node is cut when its support is empty,
    or when its rows already have full rank on it: every subset below has
    a smaller support and more rows, so its piece is zero too.  Rows fewer
    than the support cannot have full rank, so only the other nodes run an
    elimination.  The trivial summand's point is fixed by every generator:

    >>> a2 = cx.type_a(2)
    >>> socle(HeckeModule(sys=a2, labels=(0,), action=((0,), (0,))))
    {frozenset({0, 1}): [[1]]}
    """
    rank, d = module.sys.rank, module.dim
    fixed, groups = [], []  # per generator: its fixed points, kernel rows
    for colmap in module.action:
        if any(i is not None and colmap[i] != i for i in colmap):
            raise RuntimeError("generator action not idempotent")
        fixed.append(frozenset(j for j, i in enumerate(colmap) if i == j))
        by_image: dict[int, list[int]] = {}
        for j, i in enumerate(colmap):
            if i is not None:
                by_image.setdefault(i, []).append(j)
        groups.append([frozenset(g) for g in by_image.values()])
    pieces = []

    def visit(t: int, mask: int, support: frozenset, rows: list) -> None:
        if not support:
            return
        restricted = {r & support for r in rows} - {frozenset()}
        if t == rank:
            cols = sorted(support)
            position = {j: c for c, j in enumerate(cols)}
            kernel = [{position[j]: 1 for j in r} for r in restricted]
            basis = nullspace(kernel, len(cols), p)
            if basis:
                pieces.append((mask, [_embed(v, cols, d) for v in basis]))
        elif len(restricted) < len(support) or matrix_rank(
                [dict.fromkeys(r, 1) for r in restricted], p) < len(support):
            visit(t + 1, mask, support, rows + groups[t])
            visit(t + 1, mask | 1 << t, support & fixed[t], rows)

    visit(0, 0, frozenset(range(d)), [])
    return {frozenset(s for s in range(rank) if mask >> s & 1): basis
            for mask, basis in sorted(pieces)}


def _embed(vec: list, support: list[int], d: int) -> list:
    out = [0] * d
    for j, x in zip(support, vec):
        out[j] = x
    return out


def socle_dimension(report: SocleReport) -> int:
    return sum(len(v) for v in report.values())


# ---------------------------------------------------------------------------
# Element matrices and effectiveness.

def element_column_maps(sys: CoxeterSystem,
                        module: HeckeModule) -> list[tuple[int, ...]]:
    """Column map of every 0-Hecke element, by DP along the element table:
    element i is its parent times s, the last letter of its word.

    A map is a tuple of dim + 1 indices, the sentinel dim standing for the
    zero vector and mapped to itself, so that each element's map is one
    gather of its parent's map through the action of s.
    """
    d = module.dim
    act = [gather([d if i is None else i for i in colmap] + [d])
           for colmap in module.action]
    maps = [tuple(range(d + 1))]
    for p, word in zip(sys.parent[1:], sys.words[1:]):
        maps.append(act[word[-1]](maps[p]))
    return maps


def _column_images(steps: list, c: int) -> list[int]:
    """The image of column c under every element, in table order: steps
    holds, for each element j > 0, the index u of its word without the
    first letter a, and the map of a; j = a * u sends c where a sends u's
    image."""
    images = [c]
    append = images.append
    for u, act in steps:
        append(act[images[u]])
    return images


def is_effective(sys: CoxeterSystem, module: HeckeModule) -> bool:
    """Distinct 0-Hecke elements act by distinct matrices.

    The elements are told apart one column at a time, each column's image
    under every element read off in one pass; the answer is True as soon
    as every element has its own tuple of images, and False when the
    columns run out.  Distinct partial images imply distinct maps, and all
    columns are the full comparison, so this is exact for any action.
    The closure words are numbered by (length, word), so an element's word
    without its first letter is the word of an earlier element, and the
    images are those of element_column_maps.

    The top columns, which no generator sends another column to, come
    first, then the rest in index order.  In a sum of reduced projectives
    the top of each summand is the identity coset w0_J, whose image under
    w is the longest element of the coset w W_J; the maximal parabolics
    meet in the identity, so the first rank columns already separate.

    >>> a2 = cx.type_a(2)
    >>> parts = [drop_trivial_summand(projective_module(a2, s))[0]
    ...          for s in range(a2.rank)]
    >>> is_effective(a2, direct_sum(parts)), is_effective(a2, parts[0])
    (True, False)
    """
    d, n = module.dim, sys.order
    act = [[d if i is None else i for i in colmap] + [d]
           for colmap in module.action]
    suffix = [0] * n  # the element of each word without its first letter
    for j in range(1, n):
        word = sys.words[j]
        if len(word) > 1:
            suffix[j] = sys.right[suffix[sys.parent[j]]][word[-1]]
    steps = [(u, act[word[0]]) for u, word in zip(suffix[1:], sys.words[1:])]
    hit = {i for colmap in module.action
           for j, i in enumerate(colmap) if i is not None and i != j}
    keys = [0] * n  # the images read so far, as digits in base d + 1
    for c in [c for c in range(d) if c not in hit] + sorted(hit):
        keys = [k * (d + 1) + i
                for k, i in zip(keys, _column_images(steps, c))]
        if len(set(keys)) == n:
            return True
    return len(set(keys)) == n


def simple_socle_check(sys: CoxeterSystem, s: int, p: int | None = None,
                       para: cx.Parabolic | None = None) -> dict:
    """Verify the reduced projective of s has the predicted simple socle.

    Expected: one-dimensional, spanned by (longest * s) - longest, of type
    indexed by the complement of the conjugated generator.  The reduced
    projective itself is returned under "module".  para is passed on to
    projective_module.
    """
    reduced, _ = drop_trivial_summand(projective_module(sys, s, para))
    report = socle(reduced, p)
    w0 = sys.longest
    w0s = sys.right[w0][s]
    conj = sys.longest_conjugation()[s]
    expected_J = frozenset(range(sys.rank)) - {conj}
    expected_vec = [0] * reduced.dim
    expected_vec[reduced.labels.index(w0s)] = 1
    ok = (socle_dimension(report) == 1
          and set(report) == {expected_J}
          and len(report[expected_J]) == 1)
    if ok and p is None:
        ok = report[expected_J][0] == expected_vec
    return {
        "generator": s,
        "dimension": socle_dimension(report),
        "type": sorted(expected_J),
        "vector_label": w0s,
        "ok": bool(ok),
        "report": report,
        "module": reduced,
    }


def min_dim_report(sys: CoxeterSystem, p: int | None = None) -> dict:
    """Build the direct sum of reduced projectives and certify it.

    claimed: vertex count minus rank; the construction must hit exactly
    that dimension, act effectively, and have all the predicted socles.
    "socles" holds each generator's socle check, with its basis vectors.
    The maximal parabolics are built once, for the projectives and for the
    vertex count.
    """
    paras = cx.maximal_parabolics(sys)
    reduced_modules = []
    socles = {}
    for s, para in enumerate(paras):
        check = simple_socle_check(sys, s, p, para)
        reduced_modules.append(check["module"])
        socles[f"s{s + 1}"] = {
            "dimension": check["dimension"],
            "type": [f"s{t + 1}" for t in check["type"]],
            "ok": check["ok"],
            "basis": [[str(x) for x in vec]
                      for vecs in check["report"].values()
                      for vec in vecs],
        }
    total = direct_sum(reduced_modules)
    claimed = cx.vertex_count(sys, paras) - sys.rank
    return {
        "type": sys.name,
        "claimed": claimed,
        "constructed_dim": total.dim,
        "effective": is_effective(sys, total),
        "socle_verified": all(c["ok"] for c in socles.values()),
        "socles": socles,
    }


def dc_module_action(n: int) -> list[tuple[int, ...]]:
    """Column maps of the generators of DC_n on 2n - 2 points, with the
    zero sentinel 2n - 2: the prefix maxima of s_i on points 1..n-1 and
    its suffix minima on points n..2, in that order, an image on the fixed
    end point n or 1 (the dropped trivial summands) becoming zero."""
    d = 2 * n - 2
    action = []
    for i in range(1, n):
        s = pm.simple_transposition(i, n)
        first = [d if v == n else v - 1 for v in pm.ltr_maxima(s)[:-1]]
        second = [d if v == 1 else d + 1 - v for v in pm.rtl_minima(s)[:0:-1]]
        action.append(tuple(first + second + [d]))
    return action


def dc_min_dim(n: int) -> dict:
    """The 2n - 2 dimensional effective module of DC_n, certified on DC_n.

    A column map fixing the zero sentinel is a 0/1 matrix with at most one
    1 per column, and a gather of maps multiplies the matrices, so g_i -> A_i
    is a well-defined faithful DC_n-module iff it extends to an isomorphism
    of DC_n onto the closure of the maps: generators_match.  DC_n is closed
    first, so that a degree too large stops on its own cap."""
    if n < 2:
        raise ValueError("degree must be at least 2")
    table = dcm.dc_monoid(n)
    action = dc_module_action(n)
    act = {g: gather(g) for g in action}
    image = generate_monoid(action, lambda x, g: act[g](x),
                            tuple(range(2 * n - 1)), DEFAULT_CAP,
                            f"the DC_{n} module's image")
    return {"n": n, "dim": 2 * n - 2,
            "effective": generators_match(image, table)}
