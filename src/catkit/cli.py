"""
Command-line frontend.

Subcommands: hecke, dcm, dyck, coxeter, repmin, verify-all, export.
JSON reports are schema-stable: sorted keys, a version/config envelope with
the seed recorded, and no timing data, so identical configurations produce
byte-identical output, in json.dump's sort_keys/indent=2 layout.
verify-all exits nonzero on any failing check and serializes the first
counterexample to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from . import boolmat as bm
from . import coxeter as cx
from . import dcm
from . import dyck
from . import hecke
from . import permutations as pm
from . import repmin as rm
from . import verify
from .monoid import DEFAULT_CAP, IntRows, MonoidCapExceeded, ProductRows


# The largest degree dcm fiber takes: its sweep of S_n costs 1.3 to 1.7 s
# and 109 MB at degree 9, and by extrapolation ten times that at 10.
FIBER_DEGREE_MAX = 9


def _whole(flag: str, least: int | None = None):
    """The parser of a numeric flag: an integer, of at least `least` when
    given; anything else ends in a one-line message and exit status 1."""
    wanted = ("an integer" if least is None
              else f"a whole number of at least {least}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or least is not None and value < least:
            raise SystemExit(f"{flag} needs {wanted}, got {text!r}")
        return value
    return parse


def _cap(args) -> int:
    """--cap if given, else DEFAULT_CAP; the envelope records only --cap."""
    return DEFAULT_CAP if args.cap is None else args.cap


def _check_degree(args, size: int, text: str) -> None:
    """--n, when given, must be the degree of the argument it comes with."""
    if args.n is not None and args.n != size:
        raise SystemExit(f"--n {args.n} does not match the degree {size} "
                         f"of {text!r}")


def _emit(payload: dict, args) -> None:
    report = {
        "version": __version__,
        "config": {
            "subcommand": args.command,
            "seed": getattr(args, "seed", 0),
            "cap": getattr(args, "cap", None),
        },
        "result": payload,
    }
    write = sys.stdout.write
    _write_json(report, write)
    write("\n")


class _IntTexts(dict):
    """The JSON text of each int, computed on its first lookup.  Only ints
    proper may be looked up: True == 1 would find the text of 1."""

    def __missing__(self, value: int) -> str:
        text = self[value] = int.__repr__(value)
        return text


def _leaf(value, newline: str, texts: _IntTexts) -> str | None:
    """The JSON text of a value written in one piece: a scalar, an empty
    container, or a list or tuple of ints only, their texts read from
    texts; else None."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # IntRows hold rows; type, not isinstance, as bool is an int
        if value.__class__ is IntRows or set(map(type, value)) != {int}:
            return None
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join(map(texts.__getitem__, value))
                + newline + "]")
    if isinstance(value, dict) and not value:
        return "{}"
    return None


def _entries(value, newline: str, texts: _IntTexts) -> Iterator[str] | None:
    """The JSON texts of the entries of a nonempty list or tuple, each in
    one piece and to follow newline, when it holds only strs or only rows
    of ints, a row being a list or a tuple; else None.  One type scan over
    the entries, and one over the rows' entries, stand for a type test per
    entry, so a bool or any other type in a row, or an iterator, leaves
    the value to the generic path.  IntRows, which a table built from its
    own rows, skips both scans."""
    if value.__class__ is not IntRows:
        kinds = set(map(type, value))
        if kinds == {str}:
            return map(_quote, value)
        if not kinds <= {list, tuple} or not set(
                map(type, chain.from_iterable(value))) <= {int}:
            return None
    inner = newline + "  "
    head, sep, tail = "[" + inner, "," + inner, newline + "]"
    get = texts.__getitem__
    return (f"{head}{sep.join(map(get, row))}{tail}" if row else "[]"
            for row in value)


def _write_json(value, write, newline: str = "\n",
                texts: _IntTexts | None = None) -> None:
    """Write value as json.dump(value, sort_keys=True, indent=2) would,
    byte for byte, one child of a container of containers at a time.

    Tuples and iterators are written as lists.  Dict keys must be strs;
    floats and any other type raise TypeError.  The text of each int in a
    list of ints is made once per top-level call, which passes its memo
    down to the nested ones.  Two kinds of list or tuple skip the test of
    each entry (see _entries): one of strs only, each entry quoted, and
    one of rows of ints only, such as a table's words or Cayley rows, each
    row one join of its ints' texts; a table hands those as IntRows, which
    are not scanned at all.  Either is written one entry at a
    time, so no text of the whole block is held.  A monoid.ProductRows
    view, a table's product rows, is written from rows of those texts,
    each gathered from its parent's row, joined in one piece and written
    as it is.

    >>> import io
    >>> out = io.StringIO()
    >>> _write_json({"b": [(1, 2), []], "a": iter([{}, "\u00e9"])},
    ...             out.write)
    >>> print(out.getvalue())
    {
      "a": [
        {},
        "\\u00e9"
      ],
      "b": [
        [
          1,
          2
        ],
        []
      ]
    }
    """
    if texts is None:
        texts = _IntTexts()
    text = _leaf(value, newline, texts)
    if text is not None:
        write(text)
        return
    inner = newline + "  "
    entries = (_entries(value, inner, texts)
               if isinstance(value, (list, tuple)) else None)
    if entries is not None:
        sep = "[" + inner
        for text in entries:
            write(sep + text)
            sep = "," + inner
        write(newline + "]")
        return
    if isinstance(value, ProductRows):
        # every table holds its identity, so there is at least one row
        labels = [texts[k] for k in range(len(value))]
        head, entry, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"
        sep = "[" + inner + head
        for row in value.table.product_rows(labels):
            # the joined row is written as it is, never copied into a
            # larger text; the short texts around it go between the rows
            write(sep)
            write(entry.join(row))
            sep = tail + "," + inner + head
        write(tail + newline + "]")
        return
    if isinstance(value, dict):
        # _quote raises TypeError on a key that is not a str
        opener, closer = "{", "}"
        pairs = ((_quote(key) + ": ", value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple, Iterator)):
        opener, closer = "[", "]"
        pairs = (("", item) for item in value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")
    sep = opener + inner
    for head, child in pairs:
        text = _leaf(child, inner, texts)
        if text is None:
            write(sep + head)
            _write_json(child, write, inner, texts)
        else:
            write(sep + head + text)
        sep = "," + inner
    # an empty iterator: nothing was written, as in json's "[]"
    write(opener + closer if sep[0] == opener else newline + closer)


def _perm_strs(perms) -> list[str]:
    return sorted(pm.format_perm(w) for w in perms)


def _parse_tuples(texts, is_valid, what: str) -> list[tuple]:
    """Parse value tuples given on the command line, all of one degree."""
    values = []
    for text in texts:
        if text is None:
            raise SystemExit(f"a {what} argument is required")
        try:
            w = pm.parse_perm(text)
        except ValueError:
            w = None
        if w is None or not is_valid(w):
            raise SystemExit(f"not a {what}: {text!r}")
        values.append(w)
    if len({len(w) for w in values}) > 1:
        raise SystemExit(f"{what}s of different degrees: " + " ".join(texts))
    return values


def _parse_perms(*texts: str | None) -> list[pm.Perm]:
    return _parse_tuples(texts, pm.is_permutation, "permutation")


def _parse_maps(*texts: str) -> list[pm.MonotoneMap]:
    return _parse_tuples(texts, pm.is_nondecreasing_map, "non-decreasing map")


def _parse_paths(*texts: str) -> list[str]:
    """Dyck paths given on the command line, all of one semilength."""
    for text in texts:
        if not dyck.is_dyck_path(text):
            raise SystemExit(f"not a Dyck path: {text!r}")
    if len({len(t) for t in texts}) > 1:
        raise SystemExit("Dyck paths of different semilengths: "
                         + " ".join(texts))
    return list(texts)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the primes up to 37, exact for n below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    if any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _cmd_hecke(args) -> int:
    n = args.n
    if args.mul is not None:
        a, b = _parse_perms(*args.mul)
        _check_degree(args, len(a), args.mul[0])
        _emit({"product": pm.format_perm(hecke.mul(a, b))}, args)
    elif args.ideal is not None:
        (w,) = _parse_perms(args.ideal)
        _check_degree(args, len(w), args.ideal)
        _emit({"ideal": _perm_strs(hecke.bruhat_ideal(w))}, args)
    elif args.idempotents:
        if n is None:
            raise SystemExit("--idempotents requires --n")
        _emit({"idempotents": _perm_strs(hecke.idempotents(n))}, args)
    elif args.fold is not None:
        i, text = args.fold
        try:
            part = hecke.parse_partition(text)
        except ValueError:
            raise SystemExit(
                f"not an ordered set partition: {text!r}") from None
        size = sum(len(block) for block in part)
        _check_degree(args, size, text)
        top = size - 1
        if not (i.isdecimal() and 1 <= int(i) <= top):
            raise SystemExit(f"--fold needs a value in 1..{top}, got {i!r}")
        _emit({"folded": hecke.format_partition(hecke.fold(int(i), part))},
              args)
    else:
        raise SystemExit("no hecke action requested")
    return 0


def _cmd_dcm(args) -> int:
    n = args.n
    action = args.action
    if action in ("psi", "fiber"):
        if args.cap is not None:
            raise SystemExit(f"dcm {action} reads no cap")
    elif n is None:
        raise SystemExit(f"{action} requires --n")
    elif action == "verify-presentation" and n < 2:
        raise SystemExit(f"{action} needs --n of at least 2, got {n}")
    if action == "psi":
        (w,) = _parse_perms(args.argument)
        _check_degree(args, len(w), args.argument)
        _emit({"matrix": bm.to_row_strings(dcm.dc_of_perm(w))}, args)
    elif action == "fiber":
        if args.argument is None:
            raise SystemExit("a matrix argument is required")
        try:
            x = bm.parse_matrix(args.argument)
            _check_degree(args, x.n, args.argument)
            if x.n > FIBER_DEGREE_MAX:
                raise SystemExit(
                    "dcm fiber sweeps all of S_n for a matrix of degree n, "
                    f"so n is at most {FIBER_DEGREE_MAX}, got {x.n}")
            if not bm.is_convex(x):  # no member of DC_n is; skip the sweep
                raise ValueError
            members = dcm.fiber(x)
        except ValueError:
            raise SystemExit("not a matrix of the double Catalan monoid: "
                             f"{args.argument!r}") from None
        report = dcm.fiber_analysis(x)
        _emit({
            "fiber": _perm_strs(members),
            "tau": pm.format_perm(report.tau),
            "maximal": _perm_strs(report.maximal),
            "convex": report.convex,
        }, args)
    elif action == "count":
        _emit({"size": dcm.dc_size(n, _cap(args))}, args)
    elif action == "self-dual":
        _emit({"self_dual": dcm.self_dual_count(n, _cap(args)),
               "motzkin": dcm.motzkin_number(n)}, args)
    else:  # verify-presentation, the last of the parser's choices
        report = dcm.verify_presentation(n, _cap(args))
        _emit({"presented_size": report.presented_size,
               "matches": report.matches}, args)
    return 0


def _cmd_dyck(args) -> int:
    action = args.action
    arity = 2 if action in ("admissible", "prec") else 1
    if len(args.args) != arity:
        raise SystemExit(f"dyck {action} takes {arity} argument(s)")
    if action == "derivative":
        (path,) = _parse_paths(*args.args)
        _emit({"derivative": dyck.kreweras_derivative(path)}, args)
    elif action == "admissible":
        p1, p2 = _parse_paths(*args.args)
        _emit({"admissible": dyck.is_admissible(p1, p2)}, args)
    elif action == "prec":
        a, b = _parse_maps(*args.args)
        _emit({"leq": dyck.factor_order_leq(a, b)}, args)
    elif action == "path":
        (alpha,) = _parse_maps(*args.args)
        _emit({"path": dyck.map_to_path(alpha)}, args)
    else:  # map, the last of the parser's choices
        (path,) = _parse_paths(*args.args)
        _emit({"map": pm.format_perm(dyck.path_to_map(path))}, args)
    return 0


def _parse_J(text: str, sys_: cx.CoxeterSystem) -> frozenset[int]:
    if not text:
        return frozenset()
    out = set()
    for raw in text.split(","):
        token = raw.strip().lstrip("s")
        if not (token.isdecimal() and 1 <= int(token) <= sys_.rank):
            raise SystemExit(f"--J needs generators s1..s{sys_.rank}, "
                             f"got {raw!r}")
        out.add(int(token) - 1)
    return frozenset(out)


def _read_rows(path: str) -> list[list[int]]:
    """The whitespace-separated integer rows of a file, blank lines skipped."""
    try:
        with open(path) as fh:
            return [[int(v) for v in line.split()]
                    for line in fh if line.strip()]
    except OSError as err:
        raise SystemExit(f"cannot read {path}: {err.strerror}") from None
    except ValueError:
        raise SystemExit(f"not rows of integers: {path}") from None


def _build_system(args) -> cx.CoxeterSystem:
    if args.type:
        return cx.from_type_string(args.type, cap=_cap(args))
    if args.gens:
        gens = [tuple(row) for row in _read_rows(args.gens)]
        matrix = _read_rows(args.matrix) if args.matrix else None
        return cx.coxeter_system(gens, matrix, cap=_cap(args), name="custom")
    raise SystemExit("need --type or --gens")


def _cmd_coxeter(args) -> int:
    sys_ = _build_system(args)
    if args.quotient:
        J = _parse_J(args.J or "", sys_)
        if args.quotient == "catalan":
            table = cx.catalan_quotient(sys_, J)
        else:
            table = cx.double_catalan_quotient(sys_, J)
        if args.dot:
            sys.stdout.write(table.right_cayley_dot() + "\n")
        else:
            _emit({"quotient": args.quotient, "J": sorted(J),
                   "table": table.to_json_dict()}, args)
    else:
        _emit({
            "type": sys_.name,
            "rank": sys_.rank,
            "order": sys_.order,
            "longest_length": sys_.length[sys_.longest],
            "vertex_count": cx.vertex_count(sys_),
            "coxeter_matrix": [list(row) for row in sys_.matrix],
        }, args)
    return 0


def _cmd_repmin(args) -> int:
    if args.dc is not None:
        _emit(rm.dc_min_dim(args.dc), args)
        return 0
    if args.type:
        if args.mod is not None and not _is_prime(args.mod):
            raise SystemExit(f"--mod needs a prime, got {args.mod}")
        sys_ = cx.from_type_string(args.type)
        if sys_.rank == 0:
            raise SystemExit(f"repmin needs a rank of at least 1: {args.type}")
        _emit(rm.min_dim_report(sys_, p=args.mod), args)
        return 0
    raise SystemExit("need --type or --dc")


def _cmd_verify_all(args) -> int:
    report = verify.run_verify_all(n_max=args.n_max, seed=args.seed)
    _emit(report, args)
    if not report["passed"]:
        for name, res in sorted(report["checks"].items()):
            if not res["passed"]:
                json.dump({"check": name,
                           "counterexample": res["counterexample"]},
                          sys.stderr, sort_keys=True)
                sys.stderr.write("\n")
        return 1
    return 0


def _cmd_export(args) -> int:
    n = args.n
    if args.what == "dc":
        table = dcm.dc_monoid(n)
        labels = lambda x: "|".join(bm.to_row_strings(x))
    elif args.what == "hecke":
        table = hecke.hecke_monoid(n)
        labels = pm.format_perm
    else:  # catalan, the last of the parser's choices
        table = dcm.catalan_monoid(n)
        labels = pm.format_perm
    if args.dot:
        sys.stdout.write(table.right_cayley_dot(element_repr=labels) + "\n")
    else:
        _emit({"table": table.to_json_dict(element_repr=labels)}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catkit",
        description="0-Hecke monoids, double Catalan monoids, Dyck paths, "
                    "and effective representation dimensions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hecke", help="products, ideals, foldings")
    p.add_argument("--n", type=_whole("--n", 0))
    p.add_argument("--mul", nargs=2, metavar=("A", "B"))
    p.add_argument("--ideal", metavar="W")
    p.add_argument("--idempotents", action="store_true")
    p.add_argument("--fold", nargs=2, metavar=("I", "F"))
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("dcm", help="double Catalan monoid")
    p.add_argument("--n", type=_whole("--n", 0))
    p.add_argument("action", choices=["psi", "fiber", "count", "self-dual",
                                      "verify-presentation"])
    p.add_argument("argument", nargs="?")
    p.add_argument("--cap", type=_whole("--cap", 1),
                   help="most elements a closure may hold")
    p.set_defaults(func=_cmd_dcm)

    p = sub.add_parser("dyck", help="Dyck path operations")
    p.add_argument("action", choices=["derivative", "admissible", "prec",
                                      "path", "map"])
    p.add_argument("args", nargs="+")
    p.set_defaults(func=_cmd_dyck)

    p = sub.add_parser("coxeter", help="finite Coxeter systems and quotients")
    p.add_argument("--type", help="A4, B3, I2:6 ...")
    p.add_argument("--gens", help="file of generator permutations")
    p.add_argument("--matrix", help="file with the Coxeter matrix")
    p.add_argument("--quotient", choices=["catalan", "double"])
    p.add_argument("--J", help="comma-separated generator list, e.g. s1,s3")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--cap", type=_whole("--cap", 1),
                   help="most elements a closure may hold")
    p.set_defaults(func=_cmd_coxeter)

    p = sub.add_parser("repmin", help="effective representation dimensions")
    p.add_argument("--type", help="Coxeter type, e.g. A3 or B3")
    p.add_argument("--dc", type=_whole("--dc", 2), metavar="N",
                   help="check the double Catalan module of degree N")
    p.add_argument("--mod", type=_whole("--mod"), default=None,
                   help="rerun socles modulo a prime")
    p.set_defaults(func=_cmd_repmin)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.add_argument("--n-max", type=_whole("--n-max", 1), default=4)
    p.add_argument("--seed", type=_whole("--seed"), default=0)
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("export", help="closure tables and Cayley graphs")
    p.add_argument("--what", choices=["dc", "hecke", "catalan"],
                   required=True)
    p.add_argument("--n", type=_whole("--n", 0), required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (as `| head` does): stop quietly, and
        # point stdout at devnull so the final flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MonoidCapExceeded as err:
        # a closure beyond its cap, which names the closure; only the
        # subcommands that take --cap can raise it
        hint = "; --cap raises it" if "cap" in vars(args) else ""
        raise SystemExit(f"{err}{hint}") from None
    except cx.CoxeterError as err:
        # a group the input does not define
        raise SystemExit(str(err)) from None
    return code


if __name__ == "__main__":
    raise SystemExit(main())
