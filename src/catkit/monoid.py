"""
Breadth-first closure of finitely generated monoids.

The engine is generic: elements are any hashable encodings (boolean
matrices, permutations, transformation tuples, ...) with an associative
product supplied by the caller.  Closure proceeds level by level with
generators applied on the right, so elements are numbered deterministically
by (word length, generator sequence) in lexicographic order and every
element carries a shortest witness word.

The closure is a prefix tree (Froidure and Pin, "Algorithms for computing
finite semigroups", 1997): every element j > 0 is its parent, the element
whose row discovered it, times the last letter g of its word.  Both Cayley
graphs are kept, as in their algorithm: the right table row by row, and
the left table, the products g' * j, column by column, as the closure
makes it (below).  A single product x * j walks j's word through the
right table.  The product table follows the prefix rule from the left: if
i = parent[i] * g, then

    i * j = parent[i] * (g * j),

so row i is row parent[i] read through column g of the left table, one
gather per row.  The gather moves whatever the row holds, so a row of
labels of the indices, such as their JSON texts, costs the same as a row of
indices.  A finite monoid is J-trivial iff it is both R-trivial and
L-trivial (Pin, "Mathematical Foundations of Automata Theory", on Green's
relations), that is, iff neither its right nor its left Cayley graph has a
cycle other than a self-loop.

The closure itself follows their suffix rule, so that the caller's product
is called only on the edges that make new words.  A word that is the least
word of its element has only least words as prefixes and suffixes.  So
every element u > 0 is its first letter b times its suffix s, the element
of its word without b, and for each letter a, t = s * a is either the new
word s a, so that u * a is multiplied out and may be new, or an older
element, so that by associativity

    u * a = b * t = (b * parent[t]) * (last letter of t).

Column b of the left table gives b * t if t lies in an earlier level, and
else b * parent[t], which comes no later than u, so that the last step
reads a row already made.  The left table is filled a level at a time, by
the prefix rule g' * j = (g' * parent[j]) * g, and kept.  At DC_8 the
product is called on 16,319 of the 110,369 edges.

A monoid given by a finite presentation is enumerated by Todd-Coxeter
coset enumeration instead, and its finished table is renumbered by the same
closure, so both routes yield comparable tables.  The renumbering's product
is a step of the finished table.  Once the enumeration ends every relation
holds at every node, so the table is the right regular representation of
the presented monoid, a node reached by a word depends only on the element
the word stands for, and the suffix rule applies.
"""

from __future__ import annotations

import gc
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Sequence


MAX_PRODUCT_TABLE = 2000  # largest table whose JSON carries all products

# The least power of two above the largest closure the tests and benchmark
# build: the 21,969 live nodes of the degree-8 presentation.
DEFAULT_CAP = 2 ** 15


def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map row -> tuple(row[k] for k in indices) as one itemgetter
    call; itemgetter of a single index returns the bare item, so fewer
    than two indices fall back to a tuple comprehension."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple(row[k] for k in indices)


class MonoidCapExceeded(RuntimeError):
    """A closure would hold more than cap elements at once; for Todd-Coxeter
    enumeration the elements are the live nodes."""


class MonoidTable:
    __slots__ = ("elements", "index", "gens", "right", "words", "parent",
                 "left_columns", "_left")

    def __init__(self, elements: list, index: dict, gens: tuple[int, ...],
                 right: list[list[int]], words: list[tuple[int, ...]],
                 parent: list[int], left_columns: list[list[int]]) -> None:
        self.elements = elements
        self.index = index
        self.gens = gens
        self.right = right
        self.words = words
        # element j > 0 is parent[j] times letter words[j][-1]
        self.parent = parent
        # left_columns[g][x]: the index of generators[g] * elements[x]
        self.left_columns = left_columns
        self._left: list[list[int]] | None = None

    def __len__(self) -> int:
        return len(self.right)  # not elements, which a subclass may make

    @property
    def identity(self) -> int:
        return 0

    def product(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j], via the witness word of j."""
        cur = i
        for g in self.words[j]:
            cur = self.right[cur][g]
        return cur

    def _steps(self) -> list[tuple[int, int]]:
        """(parent, last letter) of every element after the identity."""
        return [(p, w[-1]) for p, w in zip(self.parent[1:], self.words[1:])]

    def left_table(self) -> list[list[int]]:
        """left[i][g] = index of generators[g] * elements[i]: the transpose
        of left_columns, made on the first call; a table with no
        generators has one empty row per element."""
        if self._left is None:
            self._left = (list(map(list, zip(*self.left_columns)))
                          if self.left_columns else [[] for _ in self.right])
        return self._left

    def product_rows(self, labels: Sequence | None = None) -> Iterator[tuple]:
        """Row i of the product table, the tuple of labels[product(i, j)]
        over every j, for each i in turn; the labels default to the indices.
        Row 0 is tuple(labels), and each later row is row parent[i]
        gathered through left_columns[g], g the last letter of i.  A row
        is kept only until the row of its last child is made.

        The sums 0, 1, 2, capped at 2:

        >>> table = generate_monoid([1], lambda x, y: min(x + y, 2), 0)
        >>> list(table.product_rows("abc"))
        [('a', 'b', 'c'), ('b', 'c', 'c'), ('c', 'c', 'c')]
        """
        row = tuple(range(len(self)) if labels is None else labels)
        yield row
        through = [gather(column) for column in self.left_columns]
        last_child = {p: j for j, p in enumerate(self.parent)}
        live = {0: row}
        for i, (p, g) in enumerate(self._steps(), 1):
            row = through[g](live[p])
            if last_child[p] == i:
                del live[p]
            if i in last_child:
                live[i] = row
            yield row

    def two_sided_ideal(self, a: int) -> frozenset[int]:
        """Indices of all elements x*a*y."""
        seen = {a}
        frontier = [a]
        while frontier:
            nxt = []
            for x in frontier:
                for g, column in enumerate(self.left_columns):
                    for y in (self.right[x][g], column[x]):
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def is_j_trivial(self) -> bool:
        """Distinct elements generate distinct two-sided principal ideals:
        neither Cayley graph has a cycle other than a self-loop.  Both
        graphs are read as columns: the left one from left_columns, so no
        left_table() is made, the right one from a transpose made here."""
        return (_loops_only(list(zip(*self.right)), len(self))
                and _loops_only(self.left_columns, len(self)))

    def idempotent_indices(self) -> list[int]:
        return [i for i in range(len(self)) if self.product(i, i) == i]

    def to_json_dict(self, element_repr: Callable = str) -> dict:
        """The table as JSON data.  "words" and "right_cayley" are IntRows
        of the table's own rows, not copies, so the rows are to be read
        only, and a writer can join each row's ints without testing their
        types.  "product_table" is None above MAX_PRODUCT_TABLE
        elements, else the view ProductRows(self), so a writer can stream
        the rows without holding them all, and gather each row's texts
        instead of writing its ints one by one."""
        return {
            "size": len(self),
            "generators": list(self.gens),
            "elements": list(map(element_repr, self.elements)),
            "words": IntRows(self.words),
            "right_cayley": IntRows(self.right),
            "product_table": (ProductRows(self)
                              if len(self) <= MAX_PRODUCT_TABLE else None),
        }

    def right_cayley_dot(self, element_repr: Callable = None) -> str:
        """The right Cayley graph in DOT format, edges labeled g1..gk."""
        lines = ["digraph cayley {"]
        for i in range(len(self)):
            label = str(i) if element_repr is None else element_repr(self.elements[i])
            lines.append(f'  n{i} [label="{label}"];')
        for i, row in enumerate(self.right):
            for g, j in enumerate(row):
                lines.append(f'  n{i} -> n{j} [label="g{g + 1}"];')
        lines.append("}")
        return "\n".join(lines)


class IntRows(list):
    """Rows of ints only, each a list or a tuple, as a table builds them:
    a list that vouches for its entries, so that a writer may join each
    row's ints without testing the type of each entry."""
    __slots__ = ()


class ProductRows:
    """The product table of a MonoidTable, made a row at a time on each
    pass: iterating gives the rows of indices, and
    table.product_rows(labels) the rows of their labels."""
    __slots__ = ("table",)

    def __init__(self, table: MonoidTable) -> None:
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self.table.product_rows()


def _loops_only(columns: Sequence[Sequence[int]], size: int) -> bool:
    """True iff the graph on range(size) with an edge x -> column[x] for
    each of the columns has no cycle other than a self-loop, by Kahn's
    algorithm."""
    indegree = [0] * size
    for column in columns:
        for x, y in enumerate(column):
            if y != x:
                indegree[y] += 1
    order = [x for x, d in enumerate(indegree) if d == 0]
    for x in order:  # the loop also visits the nodes appended during it
        for column in columns:
            y = column[x]
            if y != x:
                indegree[y] -= 1
                if indegree[y] == 0:
                    order.append(y)
    return len(order) == size


def generate_monoid(generators: Sequence[Hashable], mul: Callable,
                    identity: Hashable, cap: int | None = None,
                    name: str = "the monoid") -> MonoidTable:
    """Close a generating set under an associative product.

    The identity is adjoined as element 0, and the elements are numbered
    by (word length, word), as the module docstring describes.  mul is
    called on the identity's row and on the edges whose suffix makes a new
    word; the suffix rule gives every other edge, and it holds only if the
    product is associative.  The cyclic collector is paused for the
    closure, which makes no reference cycles, and left as it was found.
    More than cap elements raise MonoidCapExceeded, whose message names
    the monoid by name.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        elements = [identity]
        index = {identity: 0}
        words: list[tuple[int, ...]] = [()]
        parent = [0]
        last = [-1]  # the identity has no last letter
        # suffix[u - start]: u's word without its first letter, for u in
        # this level and the next
        suffix = [0]
        # begin[u - base] is the first element that row u could find, so
        # row s found begin[s - base] .. begin[s - base + 1] - 1, the new
        # words of s; it spans the last level and this one, which hold the
        # suffixes of this level and its elements
        begin: list[int] = []
        base = 0
        right: list[list[int]] = []
        # left[b][x]: the index of generators[b] * elements[x], column-major
        left: list[list[int]] = [[] for _ in generators]
        start = 0
        while start < len(elements):
            end = len(elements)
            for u in range(start, end):
                x = elements[u]
                begin.append(len(elements))
                row = [0] * len(generators)
                right.append(row)
                if u:
                    # u = b * s for its first letter b; u * a needs a
                    # product only where s * a is a new word t, the suffix
                    # of u * a if that is new too
                    s = suffix[u - start]
                    fresh = range(begin[s - base], begin[s - base + 1])
                else:
                    fresh = range(len(generators))
                for t in fresh:
                    a = last[t] if u else t  # the identity's row: every a
                    y = mul(x, generators[a])
                    j = index.get(y)
                    if j is None:
                        j = len(elements)
                        if cap is not None and j >= cap:
                            raise MonoidCapExceeded(
                                f"closure of {name} exceeded cap of {cap} "
                                f"elements")
                        index[y] = j
                        elements.append(y)
                        words.append(words[u] + (a,))
                        parent.append(u)
                        last.append(a)
                        suffix.append(t if u else 0)
                    row[a] = j
                if u:
                    # otherwise u * a = b * t: column b of the left table
                    # holds it if t is in an earlier level, and else it is
                    # (b * parent[t]) * last[t], where b * parent[t] <= u,
                    # and = u only when t is a new word of s, whose entry
                    # is already in row
                    column = left[words[u][0]]
                    right[u] = [column[t] if t < start
                                else right[column[parent[t]]][last[t]]
                                for t in right[s]]
            if start:
                for column in left:
                    column += [right[column[p]][g] for p, g
                               in zip(parent[start:end], last[start:end])]
            else:
                for column, j in zip(left, right[0]):
                    column.append(j)
            del begin[:start - base], suffix[:end - start]
            base, start = start, end
        gens = tuple(index[g] for g in generators) if generators else ()
        return MonoidTable(elements=elements, index=index, gens=gens,
                           right=right, words=words, parent=parent,
                           left_columns=left)
    finally:
        if collecting:
            gc.enable()


def enumerate_presentation(letters: int,
                           relations: Sequence[tuple[Sequence[int],
                                                     Sequence[int]]],
                           cap: int | None = None,
                           name: str = "the presentation") -> MonoidTable:
    """Close the monoid on letters 0..letters-1 subject to relation pairs.

    Todd-Coxeter enumeration with the HLT strategy: nodes stand for
    elements, node 0 for the identity.  Every relation u = v is traced from
    every live node in order of definition, defining missing edges on the
    way; when the traces end at distinct nodes they are a coincidence, and
    merging it may force further coincidences between the merged rows.
    Once every live node is scanned and its row filled, each relation holds
    at each node, so the nodes are exactly the elements of the presented
    monoid.  More than cap live nodes at any one time, which may be more
    than the monoid has elements, raise MonoidCapExceeded; this also stops
    the enumeration of an infinite monoid; the message names the monoid
    by name.  The finished table is renumbered by generate_monoid.
    """
    table: list[list[int | None] | None] = [[None] * letters]
    parent = [0]
    live = 1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define(x: int, g: int) -> int:
        nonlocal live
        if cap is not None and live >= cap:
            raise MonoidCapExceeded(
                f"coset enumeration of {name} exceeded cap of {cap} "
                f"live nodes")
        y = len(table)
        table.append([None] * letters)
        parent.append(y)
        table[x][g] = y
        live += 1
        return y

    def trace(x: int, word: Sequence[int]) -> int:
        for g in word:
            y = table[x][g]
            if y is None:
                x = define(x, g)
            else:
                x = y if parent[y] == y else find(y)
        return x

    def coincide(a: int, b: int) -> None:
        nonlocal live
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a  # the older node survives, so node 0 stays
            live -= 1
            row_a, row_b = table[a], table[b]
            table[b] = None
            for g, y in enumerate(row_b):
                if y is not None:
                    if row_a[g] is None:
                        row_a[g] = y
                    else:
                        queue.append((row_a[g], y))

    x = 0
    while x < len(table):
        for u, v in relations:
            if parent[x] != x:
                break
            end = trace(x, u)
            if not v:
                coincide(end, x)
                continue
            # the last letter of v becomes a deduction, not a new node
            prev = trace(x, v[:-1])
            y = table[prev][v[-1]]
            if y is None:
                table[prev][v[-1]] = end
            elif find(y) != end:
                coincide(y, end)
        if parent[x] == x:
            for g in range(letters):
                if table[x][g] is None:
                    define(x, g)
        x += 1

    rows = {x: [find(y) for y in row]
            for x, row in enumerate(table) if parent[x] == x}
    letter_of: dict[int, int] = {}
    for g, node in enumerate(rows[0]):
        letter_of.setdefault(node, g)
    return generate_monoid(rows[0], lambda x, node: rows[x][letter_of[node]],
                           0, cap, name)


def generators_match(a: MonoidTable, b: MonoidTable) -> bool:
    """True iff mapping the i-th generator of a to the i-th of b extends to
    an isomorphism.

    Since every element of a is reached by its witness word, it is enough
    to check that the generator-matched word map is well defined on the
    right Cayley table and bijective.  The map follows a's prefix tree:
    phi[j] = b.right[phi[parent[j]]][last letter of j].
    """
    if len(a) != len(b) or len(a.gens) != len(b.gens):
        return False
    phi = [0]
    for p, g in a._steps():
        phi.append(b.right[phi[p]][g])
    if len(set(phi)) != len(a):
        return False
    for i in range(len(a)):
        for g in range(len(a.gens)):
            if phi[a.right[i][g]] != b.right[phi[i]][g]:
                return False
    return True
