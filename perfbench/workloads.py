"""The benchmark's workloads: their ops, the inputs each makes from the seed,
and the known-answer check of every op's output.

An op's ``run`` is timed; its ``check`` runs after the timed region and
raises on a wrong answer; ``canon`` turns the output into the text that
must be byte-identical across the samples of a run (a CLI op's stdout as
printed).  Exhaustive ops ignore the seed.

- verify:  ``catkit verify-all --n-max 5``, which touches all ten modules.
- closure: the build side of monoid closure: ``dcm --n 8 count``, the
  0-Hecke and Catalan exports at n = 7 and 9, and the A5 double quotient.
- tables:  the query side on tables that are cheap to build: the Catalan
  export at n = 8 (2.0M ``MonoidTable.product`` calls), J-triviality,
  idempotents and self-dual count of DC_7, and seeded product queries.
- certify: permutations, the two-route projection and fraction-free
  elimination, with only small closures.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Callable

from catkit import boolmat, cli, dcm

import answers as A
import layers
from answers import expect

PRODUCT_QUERIES = 100_000     # seeded MonoidTable.product calls on DC_7
DEGREE12_PERMS = 400          # seeded degree-12 permutations through dc_of_perm
FIBER_SAMPLE = 40             # seeded DC_6 elements through fiber_analysis
CHECKED_PRODUCTS = 20_000     # product-table entries checked per exported table


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], str]
    cli: bool = False


def run_cli(argv: list[str]) -> str:
    """catkit.cli.main in-process, returning what it printed to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"catkit {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def cli_op(name: str, argv: list[str], check: Callable[[dict], None]) -> Op:
    return Op(name, lambda: run_cli(argv),
              lambda out: check(json.loads(out)), str, cli=True)


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


# ---------------------------------------------------------------------------
# Checks of exported closure tables.

def check_table(table: dict, elements: list, gens: list, mul, identity,
                size: int, rng: random.Random) -> None:
    """Elements distinct and of the known count, element 0 the identity,
    every witness word evaluating to its element, the right Cayley table
    and a seeded sample of the product table agreeing with ``mul``."""
    expect(table["size"] == len(elements) == size,
           f"table size {table['size']}, expected {size}")
    index = {x: k for k, x in enumerate(elements)}
    expect(len(index) == size, "table elements are not distinct")
    expect(elements[0] == identity, "element 0 is not the identity")
    for k, (x, word) in enumerate(zip(elements, table["words"])):
        y = identity
        for g in word:
            y = mul(y, gens[g])
        expect(y == x, f"witness word of element {k} evaluates elsewhere")
        expect(table["right_cayley"][k] == [index.get(mul(x, g))
                                            for g in gens],
               f"right Cayley row {k} is wrong")
    products = table["product_table"]
    if products is not None:
        for _ in range(CHECKED_PRODUCTS):
            i, j = rng.randrange(size), rng.randrange(size)
            expect(products[i][j] == index.get(mul(elements[i], elements[j])),
                   f"product table entry ({i}, {j}) is wrong")


def check_hecke_export(n: int, seed: int):
    def check(report: dict) -> None:
        table = report["result"]["table"]
        elements = [A.parse_perm(e) for e in table["elements"]]
        expect(set(elements) == set(permutations(range(1, n + 1))),
               "0-Hecke elements are not S_n")
        check_table(table, elements, list(range(1, n)), A.hecke_right,
                    tuple(range(1, n + 1)), factorial(n), random.Random(seed))
        expect(all(len(word) == A.inversions(w)
                   for w, word in zip(elements, table["words"])),
               "a 0-Hecke witness word is not reduced")
    return check


def check_catalan_export(n: int, seed: int):
    def check(report: dict) -> None:
        table = report["result"]["table"]
        elements = [A.parse_perm(e) for e in table["elements"]]
        expect(set(elements) == set(A.catalan_maps(n)),
               "Catalan elements are not the prefix-maxima maps")
        gens = [A.catalan_generator(i, n) for i in range(1, n)]
        check_table(table, elements, gens, A.compose,
                    tuple(range(1, n + 1)), A.catalan(n),
                    random.Random(seed))
    return check


def check_dc_quotient(n: int, seed: int):
    """The double quotient is DC_n: its words, read in DC_n's generators,
    give a bijection onto DC_n that respects both tables."""
    def check(report: dict) -> None:
        table = report["result"]["table"]
        gens = [A.dc_generator(i, n) for i in range(1, n)]
        identity = A.identity_rows(n)
        images = []
        for word in table["words"]:
            x = identity
            for g in word:
                x = A.bool_mul(x, gens[g])
            images.append(x)
        expect(set(images) == set(A.dc_elements(n)),
               "quotient words do not map onto DC_n")
        check_table(table, images, gens, A.bool_mul, identity,
                    A.DC_SIZES[n], random.Random(seed))
    return check


# ---------------------------------------------------------------------------
# verify

def check_verify_report(seed: int):
    check_names = set(layers.check_names(layers.load()).values())

    def check(report: dict) -> None:
        res = report["result"]
        expect(report["config"]["seed"] == res["seed"] == seed,
               "seed not recorded")
        expect(res["n_max"] == 5, "n_max not recorded")
        checks = res["checks"]
        expect(set(checks) == check_names,
               f"checks run: {sorted(checks)}")
        failed = sorted(k for k, v in checks.items() if not v["passed"])
        expect(not failed and res["passed"] is True, f"failed: {failed}")

        def details(name):
            return checks[name]["details"]

        expect(details("catalan-count")["sizes"]
               == {str(n): A.catalan(n) for n in range(1, 6)},
               "Catalan monoid sizes")
        expect(details("double-catalan-count")["sizes"]
               == {str(n): A.DC_SIZES[n] for n in range(1, 6)},
               "double Catalan monoid sizes")
        expect(details("self-dual-count")["counts"]
               == {str(n): A.MOTZKIN[n] for n in range(1, 6)},
               "self-dual counts")
        expect(details("presentation")["sizes"]
               == {str(n): A.DC_SIZES[n] for n in range(2, 5)},
               "presented sizes")
        expect(details("convex-monoid-iso")
               == {**{str(n): A.catalan(n) ** 2 for n in range(1, 5)},
                   "samples": 10_000},
               "convex relation counts")
        reports = {r["type"]: r for r in details("hecke-min-dim")["reports"]}
        for k in (2, 3, 4):
            expect(reports[f"A{k}"]["claimed"] == A.type_a_min_dim(k),
                   f"A{k} minimal dimension")
        expect(all(r["effective"] and r["socle_verified"]
                   and r["constructed_dim"] == r["claimed"]
                   for r in reports.values()),
               "a minimal-dimension report is not certified")
    return check


def verify(seed: int) -> list[Op]:
    return [cli_op("verify-all",
                   ["verify-all", "--n-max", "5", "--seed", str(seed)],
                   check_verify_report(seed))]


# ---------------------------------------------------------------------------
# closure

def closure(seed: int) -> list[Op]:
    def dc8(report):
        expect(report["result"]["size"] == A.DC_SIZES[8], "|DC_8|")

    return [
        cli_op("dcm-count-8", ["dcm", "--n", "8", "count"], dc8),
        cli_op("export-hecke-7", ["export", "--what", "hecke", "--n", "7"],
               check_hecke_export(7, seed)),
        cli_op("export-catalan-9",
               ["export", "--what", "catalan", "--n", "9"],
               check_catalan_export(9, seed)),
        cli_op("coxeter-A5-double",
               ["coxeter", "--type", "A5", "--quotient", "double",
                "--J", "s1,s2,s3,s4"],
               check_dc_quotient(6, seed)),
    ]


# ---------------------------------------------------------------------------
# tables

def _dc7_rows() -> list:
    rows = [x.rows for x in dcm.dc_monoid(7).elements]
    expect(len(rows) == A.DC_SIZES[7] and set(rows) == set(A.dc_elements(7)),
           "the DC_7 table does not hold DC_7")
    return rows


def tables(seed: int) -> list[Op]:
    rng = random.Random(seed)
    size = A.DC_SIZES[7]
    pairs = [(rng.randrange(size), rng.randrange(size))
             for _ in range(PRODUCT_QUERIES)]

    def products():
        table = dcm.dc_monoid(7)
        return [table.product(i, j) for i, j in pairs]

    def check_products(out):
        rows = _dc7_rows()
        expect(all(rows[k] == A.bool_mul(rows[i], rows[j])
                   for (i, j), k in zip(pairs, out)),
               "a DC_7 product is wrong")

    def check_idempotents(out):
        rows = [x.rows for x in out]
        expect(len(set(rows)) == len(rows) == A.idempotent_count(7),
               f"{len(rows)} idempotents")
        expect(all(A.is_block_all_ones(x) and A.bool_mul(x, x) == x
                   for x in rows),
               "an idempotent is not block all-ones")

    return [
        cli_op("export-catalan-8",
               ["export", "--what", "catalan", "--n", "8"],
               check_catalan_export(8, seed)),
        Op("dc7-is-j-trivial", lambda: dcm.dc_monoid(7).is_j_trivial(),
           lambda out: expect(out is True, "DC_7 is not J-trivial"), repr),
        Op("dc7-idempotents", lambda: dcm.dc_idempotents(7),
           check_idempotents, lambda out: _json([x.rows for x in out])),
        Op("dc7-self-dual-count", lambda: dcm.self_dual_count(7),
           lambda out: expect(out == A.MOTZKIN[7], f"{out} self-dual"),
           repr),
        Op("dc7-products", products, check_products, _json),
    ]


# ---------------------------------------------------------------------------
# certify

def certify(seed: int) -> list[Op]:
    rng = random.Random(seed)
    sample = rng.sample(A.dc_elements(6), FIBER_SAMPLE)
    matrices = [boolmat.BoolMat(6, rows) for rows in sample]
    maps = A.catalan_maps(6)
    perms12 = [tuple(rng.sample(range(1, 13), 12))
               for _ in range(DEGREE12_PERMS)]
    fiber_data = functools.cache(lambda: A.FiberData(6))

    def check_multimaximal(out):
        expect(out is not None, "no multi-maximal fiber")
        x, maximal = out
        expect({A.format_perm(w) for w in maximal} == A.FIRST_MULTIMAXIMAL_7,
               "maximal members of the first multi-maximal fiber")
        expect(all(A.perm_fill(w) == x.rows for w in maximal),
               "maximal members lie outside the fiber")

    def check_fibers(out):
        data = fiber_data()
        for rows, report in zip(sample, out, strict=True):
            members = data.by_matrix[rows]
            expect(report.tau == data.only(members, (4, 3, 2, 1)),
                   "fiber minimum is not the 4321-avoider")
            expect(set(report.maximal)
                   == {w for w in members if not A.contains(w, (4, 2, 3, 1))},
                   "fiber maxima are not the 4231-avoiders")
            expect(report.convex is True, "fiber is not convex")

    def check_catalan_fibers(out):
        data = fiber_data()
        for alpha, report in zip(maps, out, strict=True):
            members = data.by_maxima[alpha]
            expect(report.pi == data.only(members, (3, 2, 1)), "fiber minimum")
            expect(report.pi_prime == data.only(members, (3, 1, 2)),
                   "fiber maximum")
            expect(report.interval is True, "fiber is not an interval")

    def check_repmin(report):
        res = report["result"]
        expect(res["claimed"] == res["constructed_dim"] == A.type_a_min_dim(6),
               "A6 minimal dimension")
        expect(res["effective"] and res["socle_verified"], "not certified")
        expect(sorted(res["socles"]) == [f"s{i}" for i in range(1, 7)]
               and all(s["ok"] and s["dimension"] == 1
                       for s in res["socles"].values()),
               "A6 socles are not simple")

    def check_dc_module(report):
        res = report["result"]
        expect(res["n"] == 6 and res["dim"] == A.dc_module_dim(6)
               and res["effective"] is True, "DC_6 module dimension")

    def check_projections(out):
        expect([x.rows for x in out] == [A.perm_fill(w) for w in perms12],
               "a degree-12 projection differs from its interval fill")

    return [
        Op("first-multimaximal-fiber-7",
           lambda: dcm.first_multimaximal_fiber(7), check_multimaximal,
           lambda out: _json([out[0].rows, sorted(out[1])])),
        Op("fiber-analysis-6",
           lambda: [dcm.fiber_analysis(x) for x in matrices], check_fibers,
           lambda out: _json([[r.tau, sorted(r.maximal), r.convex]
                              for r in out])),
        Op("catalan-fiber-analysis-6",
           lambda: [dcm.catalan_fiber_analysis(a) for a in maps],
           check_catalan_fibers,
           lambda out: _json([[r.pi, r.pi_prime, r.interval] for r in out])),
        cli_op("repmin-A6", ["repmin", "--type", "A6"], check_repmin),
        cli_op("repmin-dc-6", ["repmin", "--dc", "6"], check_dc_module),
        Op("dc-of-perm-12", lambda: [dcm.dc_of_perm(w) for w in perms12],
           check_projections, lambda out: _json([x.rows for x in out])),
    ]


WORKLOADS = {"verify": verify, "closure": closure, "tables": tables,
             "certify": certify}
