import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catkit import coxeter as cx
from catkit import repmin as rm
from catkit import verify

import oracles


def test_projective_module_dimensions():
    a2 = cx.type_a(2)
    P = rm.projective_module(a2, 0)
    assert P.dim == 3
    reduced, trivial = rm.drop_trivial_summand(P)
    assert reduced.dim == 2
    assert trivial.dim == 1
    a3 = cx.type_a(3)
    for s in range(3):
        P = rm.projective_module(a3, s)
        J = frozenset(range(3)) - {s}
        expected = a3.order // len(cx.parabolic(a3, J).members)
        assert P.dim == expected
        assert rm.drop_trivial_summand(P)[0].dim == expected - 1


def test_generator_matrices_idempotent_and_braid():
    for sys in (cx.type_a(2), cx.type_b(2), cx.dihedral(5)):
        for s in range(sys.rank):
            module = rm.projective_module(sys, s)
            mats = [module.action[t] for t in range(sys.rank)]
            for t, mt in enumerate(mats):
                assert oracles.compose_colmap(mt, mt) == mt
                for u in range(t + 1, sys.rank):
                    m_ = sys.matrix[t][u]
                    a = _alternate(mats[t], mats[u], m_, module.dim)
                    b = _alternate(mats[u], mats[t], m_, module.dim)
                    assert a == b


def _alternate(x, y, times, dim):
    cur = tuple(range(dim))
    use_x = True
    for _ in range(times):
        cur = oracles.compose_colmap(x if use_x else y, cur)
        use_x = not use_x
    return cur


def test_trivial_summand_splits_off():
    a2 = cx.type_a(2)
    P = rm.projective_module(a2, 0)
    w0_pos = P.labels.index(a2.longest)
    for t in range(a2.rank):
        assert P.action[t][w0_pos] == w0_pos  # top row is fixed by everyone


def test_eigen_split_example():
    a2 = cx.type_a(2)
    P = rm.projective_module(a2, 0)  # basis {132, 231, 321}
    split = rm.eigen_split(P, 1)
    assert split.fixed_dim == 2
    assert split.kernel_dim == 1
    fixed_labels = {a2.elements[P.labels[j]] for j in split.fixed}
    assert fixed_labels == {(0, 2, 1), (2, 1, 0)}
    (j, tj), = split.kernel_pairs
    assert a2.elements[P.labels[j]] == (1, 2, 0)
    assert a2.elements[P.labels[tj]] == (2, 1, 0)


@pytest.mark.parametrize("make", [lambda: cx.type_a(2), lambda: cx.type_a(3),
                                  lambda: cx.type_b(2), lambda: cx.dihedral(4),
                                  lambda: cx.dihedral(6)])
def test_eigen_split_spans(make):
    sys = make()
    for s in range(sys.rank):
        for module in (rm.projective_module(sys, s),
                       rm.drop_trivial_summand(
                           rm.projective_module(sys, s))[0]):
            for t in range(sys.rank):
                split = rm.eigen_split(module, t)
                assert split.fixed_dim + split.kernel_dim == module.dim


def test_nullspace_exactness():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = rm.nullspace(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(r * x for r, x in zip(rows[0], v)) == 0
    assert rm.matrix_rank(rows) == 1
    # mod-p route
    basis_p = rm.nullspace(rows, 3, p=5)
    assert len(basis_p) == 2


def _reference_nullspace(rows, ncols, p):
    """Reduced row echelon form by Fractions (or GF(p)), then the canonical
    basis: 1 at a free column, 0 at the others, primitive over Q."""
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
    else:
        m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        m[r] = [x * inv if p is None else x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if p is None else (x - f * y) % p
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] if p is None else -m[r][fc] % p
        if p is None:
            scale = 1
            for x in v:
                scale = scale * Fraction(x).denominator // gcd(
                    scale, Fraction(x).denominator)
            v = [int(x * scale) for x in v]
            g = gcd(*v)
            if next(x for x in v if x) < 0:
                g = -g
            v = [x // g for x in v]
        basis.append(v)
    return len(pivots), basis


@st.composite
def _matrices(draw):
    """Rows drawn from a few distinct ones, so zero rows, repeated rows,
    negative entries and entries outside {0, 1, -1} all occur."""
    ncols = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5, 7, 12])
    distinct = draw(st.lists(st.lists(entry, min_size=ncols,
                                      max_size=ncols), min_size=1,
                             max_size=6))
    distinct.append([0] * ncols)
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=12))
    return ncols, [list(distinct[i]) for i in picks]


@settings(max_examples=300, deadline=None)
@given(_matrices(), st.sampled_from([None, 2, 3, 5, 7]))
def test_elimination_matches_reference_rref(matrix, p):
    ncols, rows = matrix
    rank, basis = _reference_nullspace(rows, ncols, p)
    assert rm.nullspace(rows, ncols, p) == basis
    assert rm.matrix_rank(rows, p) == rank
    assert rank + len(basis) == ncols


def _seeded_integer_matrices() -> list[tuple[int, list[list[int]]]]:
    """(ncols, rows) up to 8 x 10: each matrix's rows are integer
    combinations of a few random rows, so the rank runs from 0 (the zero
    matrix) to full."""
    rng = random.Random(24)
    entry = (0, 0, 0, 1, -1, 2, -3, 5)
    mats = [(10, [[0] * 10 for _ in range(8)]), (1, [[0]]), (1, [[3]]),
            (10, [[int(i == j) for j in range(10)] for i in range(8)])]
    for _ in range(120):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 10)
        spans = [[rng.choice(entry) for _ in range(ncols)]
                 for _ in range(rng.randint(1, min(nrows, ncols)))]
        rows = [[sum(rng.randint(-2, 2) * r[c] for r in spans)
                 for c in range(ncols)] for _ in range(nrows)]
        mats.append((ncols, rows))
    return mats


SEEDED_MATRICES = _seeded_integer_matrices()


def test_seeded_matrices_cover_zero_full_and_deficient_rank():
    kinds = set()
    for ncols, rows in SEEDED_MATRICES:
        rank = _reference_nullspace(rows, ncols, None)[0]
        kinds.add("zero" if rank == 0 else
                  "full" if rank == min(len(rows), ncols) else "deficient")
    assert kinds == {"zero", "full", "deficient"}


@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_nullspace_matches_back_substitution_by_fractions(p):
    for ncols, rows in SEEDED_MATRICES:
        assert rm.nullspace(rows, ncols, p) == oracles.nullspace_by_fractions(
            rows, ncols, p), (rows, p)


@pytest.mark.parametrize("p", [0, 1, -3])
def test_modulus_below_two_is_rejected(p):
    with pytest.raises(ValueError):
        rm.nullspace([[1, 2]], 2, p=p)
    with pytest.raises(ValueError):
        rm.matrix_rank([], p=p)


def test_socle_of_reduced_projective_a2():
    a2 = cx.type_a(2)
    check = rm.simple_socle_check(a2, 0)
    assert check["ok"]
    assert check["dimension"] == 1
    # spanning vector is the difference of 231 and the top element
    reduced, _ = rm.drop_trivial_summand(rm.projective_module(a2, 0))
    (J, vectors), = check["report"].items()
    assert J == frozenset({0})
    vec = vectors[0]
    assert vec == [0, 1]
    assert a2.elements[reduced.labels[1]] == (1, 2, 0)


def test_socle_of_trivial_summand():
    a2 = cx.type_a(2)
    _, trivial = rm.drop_trivial_summand(rm.projective_module(a2, 0))
    report = rm.socle(trivial)
    assert set(report) == {frozenset({0, 1})}
    assert report[frozenset({0, 1})] == [[1]]


@pytest.mark.parametrize("make", [
    lambda: cx.type_a(2), lambda: cx.type_a(3), lambda: cx.type_a(4),
    lambda: cx.type_b(2), lambda: cx.type_b(3),
    lambda: cx.dihedral(3), lambda: cx.dihedral(4),
    lambda: cx.dihedral(5), lambda: cx.dihedral(6),
])
def test_simple_socles_everywhere(make):
    sys = make()
    for s in range(sys.rank):
        assert rm.simple_socle_check(sys, s)["ok"]


def test_socle_unchanged_mod_p():
    b2 = cx.type_b(2)
    for s in range(2):
        for p in (2, 3, 7):
            check = rm.simple_socle_check(b2, s, p=p)
            assert check["ok"]


def test_effectiveness():
    a2 = cx.type_a(2)
    modules = [rm.drop_trivial_summand(rm.projective_module(a2, s))[0]
               for s in range(2)]
    total = rm.direct_sum(modules)
    assert total.dim == 4
    assert rm.is_effective(a2, total)
    _, trivial = rm.drop_trivial_summand(rm.projective_module(a2, 0))
    assert not rm.is_effective(a2, trivial)


@pytest.mark.parametrize("make,expected", [
    (lambda: cx.type_a(2), 4), (lambda: cx.type_a(3), 11),
    (lambda: cx.type_a(4), 26), (lambda: cx.type_b(2), 6),
    (lambda: cx.type_b(3), 23), (lambda: cx.dihedral(4), 6),
    (lambda: cx.type_a(5), 57), (lambda: cx.type_a(6), 120),
])
def test_min_dim_reports(make, expected):
    rep = rm.min_dim_report(make())
    assert rep["claimed"] == rep["constructed_dim"] == expected
    assert rep["effective"]
    assert rep["socle_verified"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dc_min_dim(n):
    rep = rm.dc_min_dim(n)
    assert rep["dim"] == 2 * n - 2
    assert rep["effective"]


@pytest.mark.parametrize("n", range(2, 8))
def test_dc_min_dim_matches_the_projection_route(n):
    assert rm.dc_min_dim(n) == oracles.dc_min_dim_by_projection(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_dc_module_action_is_the_sum_of_the_end_projectives(n):
    """The generator maps are the action of the reduced projectives of the
    first and last generators of the symmetric system, zero as sentinel."""
    sys = cx.type_a(n - 1)
    total = rm.direct_sum([
        rm.drop_trivial_summand(rm.projective_module(sys, s))[0]
        for s in (0, sys.rank - 1)])
    d = total.dim
    assert rm.dc_module_action(n) == [
        tuple(d if i is None else i for i in colmap) + (d,)
        for colmap in total.action]


def test_a_wrong_generator_entry_is_not_effective(monkeypatch):
    """Sending one point of one generator to a wrong vector breaks the
    isomorphism with DC_4; verify-all reports it as a counterexample."""
    action = rm.dc_module_action

    def wrong(n):
        maps = action(n)
        if n == 4:
            maps[0] = (2,) + maps[0][1:]  # s_1 sends point 1 to 3, not 2
        return maps

    monkeypatch.setattr(rm, "dc_module_action", wrong)
    assert rm.dc_min_dim(4) == {"n": 4, "dim": 6, "effective": False}
    result = verify.check_dc_min_dim(6, random.Random(0))
    assert not result.passed
    assert result.counterexample == {"n": 4, "dim": 6, "effective": False}


def test_basis_permutation_agrees_with_coset_projection():
    """Right multiplication by the parabolic idempotent moves basis labels
    the same way the coset projection does."""
    sys = cx.type_a(3)
    for s in range(sys.rank):
        J = frozenset(range(sys.rank)) - {s}
        para = cx.parabolic(sys, J)
        for i in range(sys.order):
            assert cx.hecke_mul(sys, i, para.longest) == \
                cx.coset_max_rep(sys, para, i)


@pytest.mark.parametrize("make", [lambda: cx.type_a(2), lambda: cx.type_a(3),
                                  lambda: cx.type_b(2)])
def test_socle_components_are_independent(make):
    sys = make()
    for s in range(sys.rank):
        module = rm.projective_module(sys, s)
        report = rm.socle(module)
        stacked = [vec for vectors in report.values() for vec in vectors]
        assert rm.matrix_rank(stacked) == len(stacked)
        # every reported vector is genuinely of its type
        for J, vectors in report.items():
            for vec in vectors:
                for t in range(sys.rank):
                    mat = oracles.dense_matrix(module, t)
                    image = [sum(mat[i][j] * vec[j] for j in range(module.dim))
                             for i in range(module.dim)]
                    expected = vec if t in J else [0] * module.dim
                    assert image == list(expected)


# ---------------------------------------------------------------------------
# The index-array kernels against their references in oracles.

SYSTEMS = ([f"A{k}" for k in range(1, 6)] + [f"B{k}" for k in range(2, 5)]
           + [f"I2:{m}" for m in range(3, 9)])


def _projectives(sys):
    """Every projective and reduced projective of sys."""
    out = []
    for s in range(sys.rank):
        module = rm.projective_module(sys, s)
        out += [module, rm.drop_trivial_summand(module)[0]]
    return out


def _sums(modules):
    """The sum of the reduced projectives and the sum of all of them."""
    return [rm.direct_sum(modules[1::2]), rm.direct_sum(modules)]


@pytest.mark.parametrize("type_string", SYSTEMS)
def test_socle_matches_the_dense_row_reference(type_string):
    """Also on the sums, which have several nonzero pieces; the pieces
    come in increasing mask order, the order of the report's bases."""
    sys = cx.from_type_string(type_string)
    modules = _projectives(sys)
    for module in modules + _sums(modules):
        for p in (None, 2, 3, 7):
            report = rm.socle(module, p)
            want = oracles.socle_by_dense_rows(module, p)
            assert report == want
            assert list(report) == list(want)


@pytest.mark.parametrize("type_string", SYSTEMS)
def test_folding_action_matches_the_left_table(type_string):
    """On every parabolic, not only the maximal ones."""
    sys = cx.from_type_string(type_string)
    for mask in range(1 << sys.rank):
        para = cx.parabolic(
            sys, frozenset(s for s in range(sys.rank) if mask >> s & 1))
        assert (cx.folding_action(sys, para)
                == oracles.folding_action_by_left_table(sys, para))


def _with_sentinel(colmap, d):
    return tuple(d if v is None else v for v in colmap) + (d,)


@pytest.mark.parametrize("type_string", SYSTEMS)
def test_element_maps_match_the_fold(type_string):
    sys = cx.from_type_string(type_string)
    modules = _projectives(sys)
    for module in modules + _sums(modules):
        want = [_with_sentinel(m, module.dim)
                for m in oracles.element_column_maps_by_fold(sys, module)]
        assert rm.element_column_maps(sys, module) == want


def test_element_maps_of_a_zero_dimensional_module():
    """One gather index, the sentinel alone, still yields tuples."""
    a1 = cx.type_a(1)
    module = rm.HeckeModule(sys=a1, labels=(), action=((),))
    assert rm.element_column_maps(a1, module) == [(0,), (0,)]
    assert not rm.is_effective(a1, module)
    assert not _effective_by_full_maps(a1, module)


def _effective_by_full_maps(sys, module):
    return len(set(rm.element_column_maps(sys, module))) == sys.order


@pytest.mark.parametrize("type_string", SYSTEMS)
def test_is_effective_matches_the_full_maps(type_string):
    """Every projective, reduced projective, both sums and the trivial
    summand; a single projective is not effective beyond rank one, so
    its columns run out."""
    sys = cx.from_type_string(type_string)
    modules = _projectives(sys)
    trivial = rm.drop_trivial_summand(modules[0])[1]
    cases = modules + _sums(modules) + [trivial]
    got = [rm.is_effective(sys, module) for module in cases]
    assert got == [_effective_by_full_maps(sys, module) for module in cases]
    assert got == [sys.rank == 1] * len(modules) + [True, True, False]


def test_is_effective_on_actions_that_are_not_modules():
    """Column maps that break the module axioms are still judged by their
    full maps.  The A2 action breaks the braid relation; its only top
    column, 2, leaves elements together, so only the columns after the
    tops tell them apart.  The A3 sum of the end projectives is DC_4's
    module, not effective for A3, also with one generator entry wrong."""
    a2 = cx.type_a(2)
    braidless = rm.HeckeModule(sys=a2, labels=(0, 1, 2),
                               action=((None, 1, 1), (0, 0, 2)))
    maps = rm.element_column_maps(a2, braidless)
    assert len({m[2] for m in maps}) < a2.order
    assert rm.is_effective(a2, braidless)
    assert _effective_by_full_maps(a2, braidless)
    a3 = cx.type_a(3)
    ends = rm.direct_sum([
        rm.drop_trivial_summand(rm.projective_module(a3, s))[0]
        for s in (0, 2)])
    wrong = ends._replace(action=((2,) + ends.action[0][1:],)
                          + ends.action[1:])
    for module in (ends, wrong):
        assert not rm.is_effective(a3, module)
        assert not _effective_by_full_maps(a3, module)


MIN_DIM_SYSTEMS = ([f"A{k}" for k in range(1, 7)]
                   + [f"B{k}" for k in range(2, 5)]
                   + [f"I2:{m}" for m in range(3, 9)])


@pytest.mark.parametrize("type_string", MIN_DIM_SYSTEMS)
def test_a_min_dim_sum_is_told_apart_by_its_tops(type_string, monkeypatch):
    """The certificate reads exactly rank columns: the identity cosets
    w0_J of the summands, whose images are the cosets of the maximal
    parabolics."""
    sys = cx.from_type_string(type_string)
    total = rm.direct_sum([
        rm.drop_trivial_summand(rm.projective_module(sys, s))[0]
        for s in range(sys.rank)])
    read = []
    column_images = rm._column_images
    monkeypatch.setattr(rm, "_column_images",
                        lambda steps, c: read.append(c)
                        or column_images(steps, c))
    assert rm.is_effective(sys, total)
    every = frozenset(range(sys.rank))
    assert [total.labels[c][1] for c in read] == [
        cx.parabolic(sys, every - {s}).longest for s in range(sys.rank)]


@pytest.mark.parametrize("type_string", MIN_DIM_SYSTEMS)
def test_min_dim_report_builds_each_maximal_parabolic_once(
        type_string, monkeypatch):
    """The projectives and the vertex count share the rank parabolics,
    made by one maximal_parabolics pass and no per-J parabolic."""
    sys = cx.from_type_string(type_string)
    built, passes = [], []
    parabolic, maximal = cx.parabolic, cx.maximal_parabolics
    monkeypatch.setattr(cx, "parabolic",
                        lambda sys, J: built.append(J) or parabolic(sys, J))
    monkeypatch.setattr(cx, "maximal_parabolics",
                        lambda sys: passes.append(sys) or maximal(sys))
    report = rm.min_dim_report(sys)
    assert built == [] and passes == [sys]
    assert report["claimed"] == report["constructed_dim"]


def test_socle_refuses_a_non_idempotent_action():
    """The fixed-coordinate route holds only for idempotents; a swap of two
    points is refused as eigen_split refuses it."""
    swap = rm.HeckeModule(sys=cx.type_a(1), labels=(0, 1), action=((1, 0),))
    with pytest.raises(RuntimeError, match="generator action not idempotent"):
        rm.socle(swap)
    with pytest.raises(RuntimeError, match="generator action not idempotent"):
        rm.eigen_split(swap, 0)
