import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import catkit
from catkit import boolmat as bm
from catkit import dcm
from catkit import dyck
from catkit.cli import _entries, _IntTexts, _is_prime, _write_json, main
from catkit.monoid import IntRows, MonoidTable


def _cli_env():
    """The environment for running catkit.cli in a child interpreter."""
    return {**os.environ,
            "PYTHONPATH": str(Path(catkit.__file__).resolve().parents[1])}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_hecke_mul(capsys):
    code, report = run_cli(capsys, "hecke", "--n", "3", "--mul", "231", "312")
    assert code == 0
    assert report["result"]["product"] == "321"
    assert report["version"]


def test_hecke_ideal(capsys):
    _, report = run_cli(capsys, "hecke", "--ideal", "231")
    assert report["result"]["ideal"] == ["123", "132", "213", "231"]


def test_hecke_ideal_of_degree_zero(capsys):
    code, report = run_cli(capsys, "hecke", "--ideal", "")
    assert code == 0
    assert report["result"]["ideal"] == [""]


def test_hecke_idempotents(capsys):
    _, report = run_cli(capsys, "hecke", "--n", "4", "--idempotents")
    assert len(report["result"]["idempotents"]) == 8


def test_hecke_fold(capsys):
    _, report = run_cli(capsys, "hecke", "--n", "4", "--fold", "1",
                        "({1,3},{2,4})")
    assert report["result"]["folded"] == "({2,3},{1,4})"


def test_dcm_psi(capsys):
    _, report = run_cli(capsys, "dcm", "psi", "231")
    assert report["result"]["matrix"] == ["111", "111", "011"]


@pytest.mark.parametrize("argv", [
    ["dcm", "psi", "1224"],
    ["dcm", "psi"],
    ["hecke", "--ideal", "12x"],
    ["hecke", "--mul", "1224", "123"],
    ["hecke", "--mul", "1234", "123"],
])
def test_bad_permutations_exit_with_a_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "permutation" in str(exc.value)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,message", [
    (["dcm", "fiber", "10,01,11"], "matrix"),
    (["dcm", "fiber", "110,111,011"], "matrix"),
    (["dcm", "fiber"], "matrix"),
    (["dyck", "derivative", "UUD"], "Dyck path"),
    (["dyck", "derivative", "UD", "UD"], "argument"),
    (["dyck", "admissible", "UD"], "argument"),
    (["dyck", "admissible", "UD", "UUDD"], "semilength"),
    (["dyck", "map", "UDU"], "Dyck path"),
    (["dyck", "prec", "1224", "333"], "non-decreasing map"),
    (["dyck", "prec", "123", "12x"], "non-decreasing map"),
    (["dyck", "prec", "123", "22"], "different degrees"),
    (["dyck", "path", "321"], "non-decreasing map"),
    (["hecke", "--fold", "1", "({1}{2})"], "not an ordered set partition"),
    (["hecke", "--fold", "1", "({1}x,{2})"], "not an ordered set partition"),
])
def test_bad_matrices_paths_and_maps_exit_with_a_message(capsys, argv,
                                                          message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert message in str(exc.value)
    assert capsys.readouterr().out == ""


# the degree-9 identity with the entry (1, 9) added: row 1 is no interval
_NOT_CONVEX_9 = ",".join(["100000001"] + [format(1 << 8 - i, "09b")
                                          for i in range(1, 9)])


@pytest.mark.parametrize("argv", [
    ["coxeter", "--type", "C3"],
    ["coxeter", "--type", "A3", "--cap", "0"],
    ["coxeter", "--type", "A7"],
    ["coxeter", "--type", "A3", "--quotient", "double", "--J", "x"],
    ["coxeter", "--type", "A3", "--quotient", "catalan", "--J", "s4"],
    ["coxeter", "--gens", "/nonexistent/gens.txt"],
    ["repmin", "--type", "A"],
    ["repmin", "--type", "A0"],
    ["repmin", "--type", "I2:1"],
    ["repmin", "--dc", "1"],
    ["hecke", "--fold", "1", "xx"],
    ["hecke", "--fold", "4", "({1,3},{2,4})"],
    ["dcm", "--n", "9", "count", "--cap", "1000"],
    ["dcm", "--n", "6", "count", "--cap", "5"],
    ["dcm", "--n", "-1", "count"],
    ["dcm", "--n", "9", "self-dual", "--cap", "1000"],
    ["dcm", "--n", "1", "verify-presentation"],
    ["export", "--what", "dc", "--n", "9"],  # DC_9 exceeds the default cap
    ["hecke", "--n", "-1", "--idempotents"],
    ["export", "--what", "hecke", "--n", "-2"],
    ["export", "--what", "catalan", "--n", "-3"],
    ["dcm", "--n", "3", "count", "--cap", "-3"],
    ["verify-all", "--n-max", "0"],
    ["verify-all", "--n-max", "-1"],
    ["repmin", "--dc", "9"],  # DC_9 exceeds the default cap
    ["dcm", "psi", "1", "--cap", "3"],
    ["dcm", "fiber", "1111,1111,1111,1111", "--cap", "3"],
    ["dcm", "--n", "4", "verify-presentation", "--cap", "30"],
    # --n must be the degree of the argument it comes with
    ["dcm", "--n", "9", "psi", "231"],
    ["dcm", "--n", "2", "fiber", "110,111,011"],
    ["hecke", "--n", "7", "--mul", "231", "312"],
    ["hecke", "--n", "2", "--ideal", "231"],
    ["hecke", "--n", "3", "--fold", "1", "({1,3},{2,4})"],
    # every numeric flag is read by one parser
    ["dcm", "--n", "abc", "count"],
    ["hecke", "--n", "x", "--idempotents"],
    ["export", "--what", "hecke", "--n", "3.5"],
    ["verify-all", "--seed", "x"],
    ["verify-all", "--n-max", "x"],
    ["repmin", "--dc", "abc"],
    ["repmin", "--type", "A2", "--mod", "abc"],
    # permutations are ASCII digits and single commas, nothing int() allows
    ["dcm", "psi", "1,+2,3"],
    ["dcm", "psi", " 2, 1,3"],
    ["dcm", "psi", "1_0,9,8,7,6,5,4,3,2,1"],
    # dcm fiber refuses a degree whose sweep of S_n it cannot afford
    ["dcm", "fiber", ",".join(["1" * 10] * 10)],
    # and a matrix that is not convex, so in no DC_n, without the sweep
    ["dcm", "fiber", _NOT_CONVEX_9],
])
def test_bad_input_ends_in_a_one_line_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str)  # printed to stderr, exit status 1
    assert message and "\n" not in message
    assert capsys.readouterr().out == ""


@given(st.text(alphabet="UDX", max_size=16))
def test_dyck_derivative_reports_or_refuses_any_text(text):
    """Every string of U, D and a stray letter either gets a report or
    ends in a one-line message, never a traceback."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = main(["dyck", "derivative", text])
    except SystemExit as exc:
        assert isinstance(exc.code, str)  # printed to stderr, exit status 1
        assert exc.code and "\n" not in exc.code
        assert out.getvalue() == ""
    else:
        assert code == 0
        report = json.loads(out.getvalue())
        assert dyck.is_dyck_path(report["result"]["derivative"])


def test_dcm_fiber_refuses_a_non_convex_matrix_before_the_sweep(
        monkeypatch):
    def sweep(n):
        raise AssertionError(f"swept S_{n}")

    monkeypatch.setattr(dcm, "projection_fibers", sweep)
    with pytest.raises(SystemExit) as exc:
        main(["dcm", "fiber", _NOT_CONVEX_9])
    assert exc.value.code == ("not a matrix of the double Catalan monoid: "
                              f"{_NOT_CONVEX_9!r}")


@pytest.mark.parametrize("argv,key", [
    (["dcm", "--n", "3", "psi", "231"], "matrix"),
    (["dcm", "--n", "3", "fiber", "111,111,011"], "fiber"),
    (["hecke", "--n", "3", "--ideal", "231"], "ideal"),
])
def test_a_matching_n_is_accepted(capsys, argv, key):
    code, report = run_cli(capsys, *argv)
    assert code == 0 and report["result"][key]


@pytest.mark.parametrize("argv,message", [
    (["dcm", "--n", "9", "count"],
     "closure of DC_9 exceeded cap of 32768 elements; --cap raises it"),
    (["dcm", "--n", "9", "self-dual", "--cap", "1000"],
     "closure of DC_9 exceeded cap of 1000 elements; --cap raises it"),
    (["dcm", "--n", "4", "verify-presentation", "--cap", "30"],
     "coset enumeration of the DC_4 presentation exceeded cap of 30 live "
     "nodes; --cap raises it"),
    (["export", "--what", "dc", "--n", "9"],
     "closure of DC_9 exceeded cap of 32768 elements"),
    (["repmin", "--dc", "9"],
     "closure of DC_9 exceeded cap of 32768 elements"),
    (["coxeter", "--type", "A3", "--cap", "20"],
     "closure of the A3 Coxeter group exceeded cap of 20 elements; "
     "--cap raises it"),
    (["repmin", "--type", "A7"],
     "closure of the A7 Coxeter group exceeded cap of 32768 elements"),
    (["dcm", "--n", "4", "count", "--cap", "22"],
     "closure of DC_4 exceeded cap of 22 elements; --cap raises it"),
    (["dcm", "--n", "4", "self-dual", "--cap", "22"],
     "closure of DC_4 exceeded cap of 22 elements; --cap raises it"),
])
def test_a_cap_message_names_the_closure(capsys, argv, message):
    """The message names the monoid and its degree, and mentions --cap
    only where the subcommand takes it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == message
    assert capsys.readouterr().out == ""


def test_dcm_count_wraps_no_matrix(capsys, monkeypatch):
    """dcm count reads only the size, which the orbit of the identity
    gives: it builds no closure table and makes no BoolMat."""
    calls = []
    from_bits = bm.from_bits
    monkeypatch.setattr(bm, "from_bits",
                        lambda n, x: calls.append(x) or from_bits(n, x))

    def no_table(*args):
        raise AssertionError("dcm count built a closure table")
    monkeypatch.setattr(dcm, "dc_monoid", no_table)
    monkeypatch.setattr(bm, "generate_monoid", no_table)
    _, report = run_cli(capsys, "dcm", "--n", "8", "count")
    assert report["result"] == {"size": 15767}
    assert calls == []


def test_dcm_self_dual_wraps_no_matrix(capsys, monkeypatch):
    """dcm self-dual transposes the closure's bits as they are."""
    calls = []
    from_bits = bm.from_bits
    monkeypatch.setattr(bm, "from_bits",
                        lambda n, x: calls.append(x) or from_bits(n, x))
    fresh = functools.lru_cache(maxsize=None)(dcm.dc_monoid.__wrapped__)
    monkeypatch.setattr(dcm, "dc_monoid", fresh)
    _, report = run_cli(capsys, "dcm", "--n", "8", "self-dual")
    assert report["result"] == {"self_dual": 323, "motzkin": 323}
    assert calls == []


def test_repmin_type_builds_no_left_table(capsys, monkeypatch):
    """The projectives fold their coset representatives along words, so no
    left table of the group is built."""
    calls = []
    left_table = MonoidTable.left_table
    monkeypatch.setattr(MonoidTable, "left_table",
                        lambda self: calls.append(self) or left_table(self))
    _, report = run_cli(capsys, "repmin", "--type", "A6")
    assert report["result"]["claimed"] == 120
    assert calls == []


@pytest.mark.parametrize("run", [
    lambda capsys: run_cli(capsys, "verify-all", "--n-max", "5"),
    lambda capsys: run_cli(capsys, "coxeter", "--type", "A5", "--quotient",
                           "double", "--J", "s1,s2,s3,s4"),
    lambda capsys: dcm.dc_monoid(7).is_j_trivial()],
    ids=["verify-all", "coxeter-A5-double", "dc7-is-j-trivial"])
def test_left_columns_serve_without_a_left_table(capsys, monkeypatch, run):
    """The Coxeter readers and the J-triviality test read the closure's
    left columns, so no left table is made."""
    calls = []
    left_table = MonoidTable.left_table
    monkeypatch.setattr(MonoidTable, "left_table",
                        lambda self: calls.append(self) or left_table(self))
    run(capsys)
    assert calls == []


def test_dcm_count_at_degree_nine():
    """DC_9 has 94,359 elements (A005802), beyond the default cap; its own
    interpreter, so the cached table does not stay with the test session."""
    proc = subprocess.run(
        [sys.executable, "-m", "catkit.cli", "dcm", "--n", "9", "count",
         "--cap", "100000"],
        capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == {"size": 94359}


def test_bad_input_prints_no_traceback(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("1 0 x\n")
    proc = subprocess.run(
        [sys.executable, "-m", "catkit.cli", "coxeter", "--gens", str(gens)],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"not rows of integers: {gens}\n"


def test_start_up_loads_no_dataclasses_or_fractions():
    """import catkit.cli plus build_parser, as every command starts, adds
    none of these modules to what a bare interpreter has loaded."""
    code = ("import sys; bare = set(sys.modules); import catkit.cli; "
            "catkit.cli.build_parser(); "
            "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "catkit.cli" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal"}


@pytest.mark.parametrize("cap,argv", [
    ("5", ["dcm", "--n", "6", "count"]),
    ("20", ["coxeter", "--type", "A3"]),  # 24 elements
    ("x", ["coxeter", "--type", "A2"]),
    ("-3", ["dcm", "--n", "2", "count"]),
])
def test_catkit_cap_bounds_dcm_count_and_coxeter(capsys, cap, argv):
    """--cap counts elements; a closure beyond it, or a cap that is not a
    whole number of at least 1, ends in a one-line message."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", cap])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,cap,key,value", [
    (["dcm", "--n", "4", "count"], 23, "size", 23),
    (["dcm", "--n", "4", "self-dual"], 23, "self_dual", 9),
    # Todd-Coxeter holds at most 35 live nodes at degree 4
    (["dcm", "--n", "4", "verify-presentation"], 35, "presented_size", 23),
    (["coxeter", "--type", "A3"], 24, "order", 24),
])
def test_a_cap_of_exactly_the_closure_size_suffices(capsys, argv, cap, key,
                                                    value):
    _, report = run_cli(capsys, *argv, "--cap", str(cap))
    assert report["result"][key] == value
    assert report["config"]["cap"] == cap


@pytest.mark.parametrize("argv", [
    ["repmin", "--type", "A", "--n", "3"],
    ["repmin", "--type", "A3", "--cap", "10"],
    ["hecke", "--n", "4", "--idempotents", "--seed", "1"],
    ["export", "--what", "hecke", "--n", "3", "--cap", "10"],
    ["dyck", "map", "UD", "--seed", "1"],
    ["dcm", "--n", "3", "count", "--seed", "1"],
    ["coxeter", "--type", "A2", "--seed", "1"],
])
def test_options_nothing_reads_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hecke", "--n", "3", "--idempotents"],
    ["dcm", "--n", "3", "count"],
    ["dyck", "map", "UD"],
    ["coxeter", "--type", "A2"],
    ["repmin", "--type", "A2"],
    ["verify-all", "--n-max", "1"],
    ["export", "--what", "catalan", "--n", "3"],
])
def test_envelope_defaults_without_seed_or_cap(capsys, argv):
    _, report = run_cli(capsys, *argv)
    assert report["config"] == {"subcommand": argv[0], "seed": 0,
                                "cap": None}


@pytest.mark.parametrize("mod", ["0", "1", "4", "-3", "91"])
def test_repmin_mod_must_be_prime(capsys, mod):
    with pytest.raises(SystemExit) as exc:
        main(["repmin", "--type", "A3", "--mod", mod])
    assert "prime" in str(exc.value)
    assert capsys.readouterr().out == ""


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-2, 3000) if _is_prime(n)] == \
        [n for n in range(-2, 3000) if trial(n)]
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime(3825123056546413051)  # strong pseudoprime to 2..23


def test_closed_stdout_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "catkit.cli", "repmin", "--type", "B2"],
            stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(),
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_dcm_fiber(capsys):
    _, report = run_cli(capsys, "dcm", "fiber", "1111,1111,1111,1111")
    assert report["result"]["tau"] == "4231"
    assert report["result"]["maximal"] == ["4321"]
    assert report["result"]["convex"] is True
    assert report["result"]["fiber"] == ["4231", "4321"]


def test_dcm_fiber_with_two_maximal_members(capsys):
    """The first degree with a fiber of several maximal members is 7."""
    rows = ",".join(bm.to_row_strings(dcm.dc_of_perm((5, 2, 7, 6, 1, 4, 3))))
    _, report = run_cli(capsys, "dcm", "fiber", rows)
    assert report["result"]["maximal"] == ["5276143", "5472163"]
    assert report["result"]["convex"] is True


def test_dcm_count_and_self_dual(capsys):
    _, report = run_cli(capsys, "dcm", "--n", "5", "count")
    assert report["result"]["size"] == 103
    _, report = run_cli(capsys, "dcm", "--n", "5", "self-dual")
    assert report["result"]["self_dual"] == 21


def test_dcm_verify_presentation(capsys):
    _, report = run_cli(capsys, "dcm", "--n", "3", "verify-presentation")
    assert report["result"] == {"presented_size": 6, "matches": True}


def test_dyck_commands(capsys):
    _, report = run_cli(capsys, "dyck", "derivative", "UUDUDD")
    assert report["result"]["derivative"] == "UUUDDD"
    _, report = run_cli(capsys, "dyck", "admissible", "UUDUDD", "UUUDDD")
    assert report["result"]["admissible"] is True
    _, report = run_cli(capsys, "dyck", "prec", "233", "333")
    assert report["result"]["leq"] is True
    _, report = run_cli(capsys, "dyck", "path", "233")
    assert report["result"]["path"] == "UUDUDD"
    _, report = run_cli(capsys, "dyck", "map", "UUDUDD")
    assert report["result"]["map"] == "233"


def test_dyck_commands_at_semilength_zero(capsys):
    _, report = run_cli(capsys, "dyck", "map", "")
    assert report["result"]["map"] == ""
    _, report = run_cli(capsys, "dyck", "path", "")
    assert report["result"]["path"] == ""
    _, report = run_cli(capsys, "dyck", "derivative", "")
    assert report["result"]["derivative"] == ""
    _, report = run_cli(capsys, "dyck", "admissible", "", "")
    assert report["result"]["admissible"] is True


def test_coxeter_info(capsys):
    _, report = run_cli(capsys, "coxeter", "--type", "B3")
    assert report["result"]["order"] == 48
    assert report["result"]["vertex_count"] == 26


def test_coxeter_dihedral_of_order_above_64(capsys):
    _, report = run_cli(capsys, "coxeter", "--type", "I2:100")
    assert report["result"]["order"] == 200
    assert report["result"]["coxeter_matrix"] == [[1, 100], [100, 1]]


def test_coxeter_quotient(capsys):
    _, report = run_cli(capsys, "coxeter", "--type", "A3",
                        "--quotient", "catalan", "--J", "s1,s2")
    assert report["result"]["table"]["size"] == 14


def test_coxeter_quotient_dot(capsys):
    code = main(["coxeter", "--type", "A2", "--quotient", "double",
                 "--J", "s1", "--dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph")


def test_repmin_report(capsys):
    _, report = run_cli(capsys, "repmin", "--type", "A3")
    res = report["result"]
    assert res["claimed"] == res["constructed_dim"] == 11
    assert res["effective"] and res["socle_verified"]
    assert set(res["socles"]) == {"s1", "s2", "s3"}
    _, report = run_cli(capsys, "repmin", "--type", "A3", "--mod", "5")
    assert report["result"]["socle_verified"]


def test_repmin_dc(capsys):
    _, report = run_cli(capsys, "repmin", "--dc", "4")
    assert report["result"] == {"n": 4, "dim": 6, "effective": True}
    # certified on DC_8 (15,767 elements) at the default cap
    _, report = run_cli(capsys, "repmin", "--dc", "8")
    assert report["result"] == {"n": 8, "dim": 14, "effective": True}


def test_verify_all(capsys):
    code, report = run_cli(capsys, "verify-all", "--n-max", "2")
    assert code == 0
    assert report["result"]["passed"] is True


def test_export_dot(capsys):
    code = main(["export", "--what", "dc", "--n", "3", "--dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("->") == 12  # 6 nodes, 2 generators


def test_export_json(capsys):
    _, report = run_cli(capsys, "export", "--what", "hecke", "--n", "3")
    assert report["result"]["table"]["size"] == 6


def test_reports_are_byte_identical(capsys):
    main(["dcm", "--n", "4", "count"])
    first = capsys.readouterr().out
    main(["dcm", "--n", "4", "count"])
    second = capsys.readouterr().out
    assert first == second


# sha256 of stdout as json.dump(report, sort_keys=True, indent=2) wrote it,
# before reports had their own writer
PINNED_DIGESTS = [
    (["export", "--what", "catalan", "--n", "6"],
     "58ed3877f990a3cbecd06a4c51347d5d6eb2e4cc36ec926a3160150797bf339f"),
    (["export", "--what", "dc", "--n", "5"],
     "796612da7b608c56de26404bb59211b2d55d85b9c514ea1e1a79d2b749bcae11"),
    (["verify-all", "--n-max", "4"],
     "8b1e6b9b007ddbd3ab530d74d8d050f6024682a612a8c1285a69f04b5381d470"),
    (["coxeter", "--type", "A3", "--quotient", "double", "--J", "s1,s2"],
     "cb65c571b6962bdee150ca3f2d011fbd9c9112a0cb4bbf0f7636a3f207079836"),
    (["dcm", "fiber", ",".join(["111111"] * 6)],
     "9ca39ff3825ffce91248cd21b8138f55c4114d9085fc32e17a5c07f242233719"),
    (["dcm", "--n", "6", "self-dual"],
     "7ed64d14e8e86289e0da140f0e23b7fd1a587ef66d70203d79fa3c0606235a81"),
    (["repmin", "--dc", "5"],
     "e87468085dfdc69cf3a80c79e8f35ec97033de03ad8c893dd4a51a5c7ff6c8c0"),
    (["dcm", "psi", "5,2,7,6,1,4,3,12,9,11,8,10"],
     "fffad577db65da7d771c0c132a279e69f99758fb1763810c6456c48cf43afd7b"),
    (["export", "--what", "catalan", "--n", "7"],
     "2008163abd47f00f3da5eb86e28bdeffba647bef73bc5ed0d83c62c9d82ffc16"),
    (["export", "--what", "hecke", "--n", "5"],
     "89b1c0823949109d1d393482327826486df7b6f6cfefed6d316aab368172b05b"),
    (["export", "--what", "catalan", "--n", "1"],
     "6191c7e1844cdc6cdfe960b7f83bd3f29cede7078df77fc4c089f8aa881b6024"),
    (["coxeter", "--type", "B3", "--quotient", "catalan", "--J", "s1"],
     "c6b707256c268d1d2d9b3100c9891497f52a300b31a905e6d3574115300c8446"),
    (["verify-all", "--n-max", "5"],
     "8d45b105e55ca272ff736a5f45a0f0d0547eff9097a82cf535af62e5e779d590"),
    (["verify-all", "--n-max", "6"],
     "3193772e2e3766990734c651200863da2b0117e997b82bf4b306bb9d9f0d5df8"),
    (["verify-all", "--n-max", "5", "--seed", "3"],
     "1040aff121aa2249fd3733dcdc273131bfdf2d8a78bc0c094e4e02e32ca8aa02"),
    (["export", "--what", "hecke", "--n", "6"],
     "9620b7d9e3680b65a2cc32bbbec11bf9ce3e7d00b6ee8c6a6cf56f62c2e48f42"),
    (["coxeter", "--type", "A5", "--quotient", "double",
      "--J", "s1,s2,s3,s4"],
     "0976a910a4ed12299115fdd1739d2b89fae5f24dce66f9f42dd0668bf7da3d94"),
    # the other three commands of the closure benchmark, and a DC export
    (["export", "--what", "hecke", "--n", "7"],
     "7116b68ae2c6329bafeed4fc4723793ef24a49e9123a0de0208b3c0e512c1b06"),
    (["export", "--what", "catalan", "--n", "9"],
     "51d23d73e48389e1dc873b6e18b8ef2e131e8b70abb1f53b8824721f9911591f"),
    (["export", "--what", "dc", "--n", "6"],
     "c95ff4773ac0c2031bab8d6c49b75cc2d179dcaaf0ec82468d997b5be68892b6"),
    (["dcm", "--n", "8", "count"],
     "102e92ef37e4c9c3c19b23feedb27b74a7429d9190f25fc443dc3ee0514042c5"),
]


@pytest.mark.parametrize("argv,digest", PINNED_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in PINNED_DIGESTS])
def test_reports_keep_their_bytes(capsys, argv, digest):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


class Lazy(list):
    """A list that the writer is handed as an iterator."""


def _for_writer(value):
    """value with every Lazy list turned into a fresh generator."""
    if isinstance(value, Lazy):
        return (_for_writer(item) for item in value)
    if isinstance(value, (list, tuple)):
        return type(value)(_for_writer(item) for item in value)
    if isinstance(value, dict):
        return {key: _for_writer(item) for key, item in value.items()}
    return value


def _plain(value):
    """value with every Lazy list and tuple turned into a list."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _written(value) -> str:
    chunks = []
    _write_json(value, chunks.append)
    return "".join(chunks)


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.text(st.characters(blacklist_categories=())))
JSON_VALUES = st.recursive(
    SCALARS | st.lists(st.integers() | st.booleans()),
    lambda children: (st.lists(children)
                      | st.lists(children).map(tuple)
                      | st.lists(children).map(Lazy)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40)


@given(JSON_VALUES)
@example({"": [], "a": [{}, [[]], Lazy(), ()], "\x00\u00e9\U0001f600": "\""})
@example([True, 1, False, 0, -1, 2 ** 70, None])
@example(Lazy([Lazy([1, 2]), ("x", "\n\t\x7f\u2028"), {"k": Lazy()}]))
@example([[7, 300, 7], Lazy([300, 7]), {"a": (7, 7, -300)}, [300]])
@example([[1, 1, 0], [True, False], [0, 1], Lazy([False, 1, True, 0])])
@example([[3, -1, 2 ** 70], [], (0, -2 ** 70), (), [7]])
@example({"a": [(1, 2), [True, 0], [3]], "b": [[0], Lazy([1]), []]})
@example({"right_cayley": [[]], "words": [()], "z": [(), [], ()]})
@example(["\"\\/\b\f\n\r\t\x00\x1f\x7f", "", "\u00e9\u2028\U0001f600"])
@example({"k": [["x"], "a", 1, "b", -2, ("y", 3)]})
def test_writer_matches_json(value):
    expected = json.dumps(_plain(value), sort_keys=True, indent=2)
    assert _written(_for_writer(value)) == expected


INT_ROWS = st.lists(st.lists(st.integers())
                    | st.lists(st.integers()).map(tuple))


@given(INT_ROWS, INT_ROWS)
@example([[3, -1, 2 ** 70], [], (0, -2 ** 70), (), [7]], [])
def test_int_rows_write_as_the_plain_lists(words, right):
    """IntRows skip the type scans and write as json.dumps writes the plain
    lists, alone or among other values."""
    assert _written(IntRows(words)) == json.dumps(_plain(words), indent=2)
    value = {"words": IntRows(words), "right": IntRows(right), "z": [True]}
    assert _written(value) == json.dumps(_plain(value), sort_keys=True,
                                         indent=2)


def test_a_row_holding_a_bool_takes_the_generic_path():
    rows = [[1, 0], [1, True], (2,)]
    assert _entries(rows, "\n", _IntTexts()) is None
    assert _entries([[1, 0], (2,)], "\n", _IntTexts()) is not None
    assert _written(rows) == json.dumps(rows, indent=2)
    assert "true" in _written(rows)


def test_a_table_hands_its_rows_as_int_rows():
    table = dcm.catalan_monoid(4)
    data = table.to_json_dict()
    for key, rows in (("words", table.words), ("right_cayley", table.right)):
        assert type(data[key]) is IntRows and data[key] == rows
    assert _written(data) == json.dumps(_plain({**data, "product_table": [
        list(row) for row in data["product_table"]]}), sort_keys=True,
        indent=2)


@given(JSON_VALUES, st.integers() | st.none() | st.booleans() | st.floats(),
       st.floats(allow_nan=True))
def test_writer_refuses_non_string_keys_and_floats(value, key, number):
    with pytest.raises(TypeError):
        _written({"a": value, key: 1})
    with pytest.raises(TypeError):
        _written([value, {"b": number}])
    with pytest.raises(TypeError):
        _written(iter([value, number]))


def test_custom_coxeter_from_files(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("1 0 2\n0 2 1\n")
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("1 3\n3 1\n")
    _, report = run_cli(capsys, "coxeter", "--gens", str(gens),
                        "--matrix", str(matrix))
    assert report["result"]["order"] == 6


def test_one_point_coxeter_from_a_file(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("0\n")
    _, report = run_cli(capsys, "coxeter", "--gens", str(gens))
    result = report["result"]
    assert (result["order"], result["rank"], result["vertex_count"]) == (1, 1, 1)


def test_verify_all_failure_reports_counterexample(capsys, monkeypatch):
    from catkit import verify

    def broken(n_max, rng):
        return verify.CheckResult("broken", False, {},
                                  counterexample={"n": 1})

    monkeypatch.setattr(verify, "ALL_CHECKS", [broken])
    code = main(["verify-all", "--n-max", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err.strip()) == {
        "check": "broken", "counterexample": {"n": 1}}


def test_verify_all_reports_a_presentation_that_does_not_match(capsys,
                                                                monkeypatch):
    """A failing presentation record reaches stderr as a JSON object of
    its fields."""
    from catkit import dcm

    monkeypatch.setattr(dcm, "verify_presentation",
                        lambda n: dcm.PresentationReport(presented_size=5,
                                                         matches=False))
    code = main(["verify-all", "--n-max", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err.strip()) == {
        "check": "presentation",
        "counterexample": {"n": 2, "report": {"presented_size": 5,
                                              "matches": False}}}
