import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freegroups import cli, closure, splittings, stallings
from freegroups.cli import main
from freegroups.words import Alphabet

EXPECTED_SUBCOMMANDS = {
    "reduce",
    "conjugate",
    "root",
    "centralizer",
    "abelianize",
    "fold",
    "member",
    "rank",
    "intersect",
    "malnormal",
    "is-primitive",
    "is-free-factor",
    "whitehead-min",
    "britton",
    "hnn-equal",
    "classify",
    "dehn-twist",
    "apply",
    "compose",
    "is-auto",
    "order",
    "fixed",
    "orbit",
    "abelian-acl",
    "compressed-check",
    "verify-counterexample",
}

THM_PRES = "gens a b u y\nhnn t : u -> a y b y a y^-1 b y^-1\n"


@pytest.fixture
def pres_file(tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text(THM_PRES)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommands():
    """Subcommand name -> handler, read from the parser, in declaration order."""
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: p.get_default("handler") for name, p in action.choices.items()}


def test_subcommand_table_coverage():
    table = subcommands()
    assert set(table) == EXPECTED_SUBCOMMANDS
    handlers = list(table.values())
    assert all(map(callable, handlers))
    assert len({id(h) for h in handlers}) == len(handlers)


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--gens", "x y", "x y y^-1")
    assert code == 0 and out == "x\n"


def test_conjugate(capsys):
    code, out, _ = run(capsys, "conjugate", "--gens", "x y", "y", "x y x^-1")
    assert code == 0 and out == "x\n"
    code, out, _ = run(capsys, "conjugate", "--gens", "x y", "x", "y")
    assert code == 1 and out == "none\n"


def test_root_centralizer_abelianize(capsys):
    code, out, _ = run(capsys, "root", "--gens", "x y", "x y x y x y")
    assert code == 0 and out == "root: x y\nexponent: 3\n"
    code, out, _ = run(capsys, "centralizer", "--gens", "x y", "x^2")
    assert code == 0 and out == "x\n"
    code, out, _ = run(capsys, "abelianize", "--gens", "a b u y", "a y b y a y^-1 b y^-1")
    assert code == 0 and out == "2 2 0 0\n"


def test_fold_member_rank_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "fold", "--gens", "x y", "x^2", "x y x^-1")
    assert code == 0
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(out)
    code, out2, _ = run(capsys, "member", "--graph", str(graph_file), "x y x^-1 x^2")
    assert code == 0 and out2 == "true\n"
    code, out3, _ = run(capsys, "member", "--graph", str(graph_file), "y")
    assert code == 1 and out3 == "false\n"
    code, out4, _ = run(capsys, "rank", "--graph", str(graph_file))
    assert code == 0 and out4.splitlines()[0] == "rank: 2"


def test_unfolded_graph_file_is_a_usage_error(capsys, tmp_path):
    graph_file = tmp_path / "unfolded.txt"
    graph_file.write_text("gens x y\nbase 0\n0 x 1\n0 x 2\n")
    for command in ("malnormal", "rank"):
        code, out, err = run(capsys, command, "--graph", str(graph_file))
        assert code == 2 and out == "" and err == "error: graph is not folded\n"


def test_member_cyclic(capsys, tmp_path):
    graph_file = tmp_path / "gx.txt"
    graph_file.write_text("gens x\nbase 0\n0 x 0\n")
    code, out, _ = run(capsys, "member", "--graph", str(graph_file), "x^3")
    assert code == 0 and out == "true\n"


def test_intersect_malnormal(capsys, tmp_path):
    f2 = "x y"
    code, out_a, _ = run(capsys, "fold", "--gens", f2, "x^2")
    a = tmp_path / "a.txt"
    a.write_text(out_a)
    code, out_b, _ = run(capsys, "fold", "--gens", f2, "x^3")
    b = tmp_path / "b.txt"
    b.write_text(out_b)
    code, out, _ = run(capsys, "intersect", "--graph", str(a), "--graph2", str(b))
    assert code == 0
    meet = tmp_path / "meet.txt"
    meet.write_text(out)
    code, out2, _ = run(capsys, "member", "--graph", str(meet), "x^6")
    assert code == 0 and out2 == "true\n"
    code, out3, _ = run(capsys, "malnormal", "--graph", str(a))
    assert code == 1 and out3 == "false\n"


def test_whitehead_commands(capsys):
    code, out, _ = run(capsys, "is-primitive", "--gens", "x y", "x y")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "is-free-factor", "--gens", "x y", "x^2")
    assert code == 1 and out == "false\n"
    code, out, _ = run(capsys, "is-free-factor", "--gens", "x y", "x^2 y^2")
    assert code == 1 and out == "false\n"
    code, out, _ = run(capsys, "is-free-factor", "--gens", "x y", "--cap", "1", "x^2 y^2")
    assert code == 2 and out == ""
    code, out, _ = run(capsys, "whitehead-min", "--gens", "x y", "x y")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "initial: x y"
    assert lines[-1] == "length: 1"


def test_britton_and_equal(capsys, pres_file):
    code, out, _ = run(capsys, "britton", "--pres", pres_file, "t^-1 u t")
    assert code == 0
    assert out == "form: a y b y a y^-1 b y^-1\nt_letters: 0\n"
    code, out, _ = run(
        capsys, "hnn-equal", "--pres", pres_file, "t^-1 u t", "a y b y a y^-1 b y^-1"
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "hnn-equal", "--pres", pres_file, "t", "t u")
    assert code == 1 and out == "false\n"
    # u = a b^2 a^-1 has a conjugator and an exponent; CI reruns this installed.
    pres = str(DATA / "hnn_conjugated_power.txt")
    code, out, _ = run(capsys, "britton", "--pres", pres, "t^-1 a b^-4 a^-1 t b t a b^-2 a^-1 t^-1")
    assert (code, out) == (0, "form: b a^-2 t a b^-2 a^-1 t^-1\nt_letters: 2\n")


def test_classify(capsys, pres_file):
    code, out, _ = run(capsys, "classify", "--pres", pres_file, "u", "a y b y a y^-1 b y^-1")
    assert code == 0
    assert out.splitlines()[:3] == ["solvable: true", "case: 1", "p: 1"]
    code, out, _ = run(capsys, "classify", "--pres", pres_file, "a", "b")
    assert code == 1 and out == "solvable: false\n"


def test_dehn_twist(capsys, pres_file):
    code, out, _ = run(capsys, "dehn-twist", "--pres", pres_file, "--power", "1")
    assert code == 0
    assert "map t -> u t" in out.splitlines()


def test_map_commands(capsys, tmp_path):
    map_file = tmp_path / "f.txt"
    map_file.write_text("map x -> x y\nmap y -> y\n")
    code, out, _ = run(capsys, "apply", "--gens", "x y", "--map", str(map_file), "x")
    assert code == 0 and out == "x y\n"
    map2 = tmp_path / "g.txt"
    map2.write_text("map x -> x y^-1\nmap y -> y\n")
    code, out, _ = run(
        capsys, "compose", "--gens", "x y", "--map", str(map_file), "--map2", str(map2)
    )
    assert code == 0 and out == "map x -> x\nmap y -> y\n"
    code, out, _ = run(capsys, "is-auto", "--gens", "x y", "--map", str(map_file))
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "order", "--gens", "x y", "--map", str(map_file), "--max", "10")
    assert code == 0 and out == "order: none\n"
    swap = tmp_path / "swap.txt"
    swap.write_text("map x -> y\nmap y -> x\n")
    code, out, _ = run(capsys, "order", "--gens", "x y", "--map", str(swap), "--max", "10")
    assert code == 0 and out == "order: 2\n"
    conj = tmp_path / "conj.txt"
    conj.write_text("map x -> x\nmap y -> x y x^-1\n")
    code, out, _ = run(capsys, "fixed", "--gens", "x y", "--map", str(conj), "--max-len", "4")
    assert code == 0
    assert out == "gens x y\nbase 0\n0 x 0\n"


def test_orbit(capsys, pres_file):
    code, out, _ = run(capsys, "orbit", "--pres", pres_file, "--element", "t", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert "distinct: 6" in lines
    assert "first_collision: none" in lines


@pytest.mark.parametrize(
    "subcommand, option",
    [("orbit", "--n"), ("order", "--max"), ("fixed", "--max-len")],
)
def test_negative_bound_is_a_usage_error(capsys, tmp_path, pres_file, subcommand, option):
    # An orbit always holds f_0(w), so "distinct: 0" would be false.
    swap = tmp_path / "swap.txt"
    swap.write_text("map x -> y\nmap y -> x\n")
    inputs = {
        "orbit": ["--pres", pres_file, "--element", "t"],
        "order": ["--gens", "x y", "--map", str(swap)],
        "fixed": ["--gens", "x y", "--map", str(swap)],
    }[subcommand]
    code, out, err = run(capsys, subcommand, *inputs, option, "-3")
    assert (code, out, err) == (2, "", f"error: {option} must be nonnegative, got -3\n")
    code, out, _ = run(capsys, subcommand, *inputs, option, "0")
    assert code == 0 and out


def test_apply_amalgam_merges_after_cancellation(capsys, tmp_path):
    pres = tmp_path / "am.txt"
    pres.write_text("gens p q\ngens r s\namalgam : p = r\n")
    identity_map = tmp_path / "id.txt"
    identity_map.write_text("map p -> p\nmap q -> q\nmap r -> r\nmap s -> s\n")
    code, out, _ = run(
        capsys, "apply", "--pres", str(pres), "--map", str(identity_map), "q s p r^-1 s^-1 p"
    )
    assert code == 0 and out == "q p\n"


def test_orbit_least_period_two(capsys, tmp_path):
    pres = tmp_path / "bs23.txt"
    pres.write_text("gens a b\nhnn t : a^2 -> a^3\n")
    code, out, _ = run(
        capsys, "orbit", "--pres", str(pres), "--element", "t t a t^-1 t^-1", "--n", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert "distinct: 2" in lines
    assert "first_collision: 0 2" in lines


def test_abelian_acl(capsys):
    code, out, _ = run(capsys, "abelian-acl", "--gens", "x y", "x^2")
    assert code == 0 and out == "x\n"


def test_compressed_check(capsys, tmp_path):
    cert = tmp_path / "cert.txt"
    cert.write_text(
        "gens a b u y\nkind hnn\nbase: a, b, u, y\nu: u\nv: a y b y a y^-1 b y^-1\n"
    )
    code, out, err = run(capsys, "compressed-check", "--cert", str(cert))
    assert code == 0 and err == ""
    assert out == (
        "u_in_base: PASS [membership via folded graph]\n"
        "v_in_base: PASS [membership via folded graph]\n"
        "edge_primitive_in_base: PASS [u = b3 (primitive); "
        "v = b1 b4 b2 b4 b1 b4^-1 b2 b4^-1 (not primitive)]\n"
        "overall: PASS\n"
    )


def test_compressed_check_fails_when_no_side_is_primitive(capsys, tmp_path):
    cert = tmp_path / "cert.txt"
    cert.write_text("gens x y\nkind amalgam\nb1: x, y\nb2: x\nc: x^2\n")
    code, out, err = run(capsys, "compressed-check", "--cert", str(cert))
    assert code == 1 and err == ""
    assert out.splitlines()[2:] == [
        "edge_primitive_in_a_factor: FAIL [in b1 coordinates c = b1^2 (not primitive); "
        "in b2 coordinates c = b1^2 (not primitive)]",
        "overall: FAIL",
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind hnn\nbase: a\nu: a\nv: a\n", "certificate needs gens and kind lines"),
        ("gens a\nbase: a\nu: a\nv: a\n", "certificate needs gens and kind lines"),
        ("gens a\nkind foo\n", "unknown certificate kind 'foo'"),
        ("gens a\nkind hnn\nbase a\n", "bad certificate line 'base a'"),
        ("gens a\nkind hnn\nbase: a\nu: a\n", "certificate missing field 'v'"),
        ("gens a b\nkind amalgam\nb1: a\nc: a\n", "certificate missing field 'b2'"),
        ("gens a b\nkind amalgam\nb1: a\nb2: b\nc:\n", "certificate field 'c' must be a nontrivial word"),
        ("gens a b\nkind hnn\nbase: a\nu:\nv: a\n", "certificate field 'u' must be a nontrivial word"),
        ("gens a b\nkind hnn\nbase: a\nu: a\nv: 1\n", "certificate field 'v' must be a nontrivial word"),
        (
            "gens a b\nkind amalgam\nb1: a, a^2\nb2: b\nc: a\n",
            "certificate error: b1 is not an independent basis",
        ),
        (
            "gens a b\nkind hnn\nbase: a, a b a^-1, b\nu: a\nv: b\n",
            "certificate error: base is not an independent basis",
        ),
        # Every basis is checked before any edge word is rewritten.
        (
            "gens a b\nkind amalgam\nb1: b\nb2: a, a^-1\nc: a\n",
            "certificate error: b2 is not an independent basis",
        ),
    ],
)
def test_certificate_errors_are_usage_errors(capsys, tmp_path, text, message):
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    code, out, err = run(capsys, "compressed-check", "--cert", str(cert))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "gens a b\nkind amalgam\nb1: a\nb2: b\nc: a\n",
            "c_in_b1: PASS [membership via folded graph]\n"
            "c_in_b2: FAIL [not in b2]\n"
            "edge_primitive_in_a_factor: PASS [in b1 coordinates c = b1 (primitive)]\n"
            "overall: FAIL\n",
        ),
        (
            "gens a b\nkind hnn\nbase: a\nu: a\nv: b\n",
            "u_in_base: PASS [membership via folded graph]\n"
            "v_in_base: FAIL [not in base]\n"
            "edge_primitive_in_base: PASS [u = b1 (primitive)]\n"
            "overall: FAIL\n",
        ),
    ],
    ids=["amalgam", "hnn"],
)
def test_edge_word_outside_its_factor_fails_its_check(capsys, tmp_path, text, expected):
    # The primitivity verdict reads the rows whose edge word is a member only.
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    code, out, err = run(capsys, "compressed-check", "--cert", str(cert))
    assert (code, out, err) == (1, expected, "")


def test_verify_counterexample_text_and_tsv(capsys):
    code, out, _ = run(
        capsys,
        "verify-counterexample",
        "--a0",
        "0",
        "--l-solution",
        "3",
        "--l-separation",
        "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a0_size: 0"
    assert lines[1] == "rank: 4"
    check_lines = [line for line in lines if ": PASS" in line and not line.startswith("overall")]
    assert len(check_lines) == 7
    assert lines[-1] == "overall: PASS"

    code, tsv, _ = run(
        capsys,
        "verify-counterexample",
        "--l-solution",
        "3",
        "--l-separation",
        "3",
        "--format",
        "tsv",
    )
    assert code == 0
    rows = [line.split("\t") for line in tsv.splitlines()]
    assert len(rows) == 8
    assert all(row[1] == "PASS" for row in rows)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("verify_a0_0_l3_l3.txt", ["--a0", "0", "--l-solution", "3", "--l-separation", "3"]),
        (
            "verify_a0_0_l3_l3.tsv",
            ["--a0", "0", "--l-solution", "3", "--l-separation", "3", "--format", "tsv"],
        ),
        ("verify_a0_2_l7.txt", ["--a0", "2", "--l-solution", "7"]),
    ],
)
def test_verify_counterexample_golden(capsys, golden, argv):
    # The whole report, byte for byte; the same file backs the packaging
    # smoke test in CI.
    code, out, err = run(capsys, "verify-counterexample", *argv)
    assert code == 0 and err == ""
    assert out == (DATA / golden).read_text()


def test_cli_determinism(capsys):
    argv = ["verify-counterexample", "--l-solution", "3", "--l-separation", "3"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_usage_errors(capsys):
    code, _, err = run(capsys, "reduce", "--gens", "x y", "z")
    assert code == 2
    assert err.startswith("error:")
    code, _, _ = run(capsys, "not-a-command")
    assert code == 2
    code, _, err = run(capsys, "member", "--graph", "/nonexistent/file.txt", "x")
    assert code == 2
    code, _, err = run(capsys, "reduce")
    assert code == 2


def test_workers_validation(capsys, monkeypatch):
    argv = ["verify-counterexample", "--l-solution", "1", "--l-separation", "1"]
    code, _, _ = run(capsys, *argv, "--workers", "2")
    assert code == 2
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("FREEGROUPS_WORKERS", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == plain


def test_a0_has_no_rank_limit_and_rejects_negatives(capsys):
    # --a0 k gives rank k + 4; check 6 is exact at every rank, so ranks
    # past 127 (the int8 letter codes of the old sweep) pass too.
    argv = ["verify-counterexample", "--l-solution", "1", "--l-separation", "1"]
    code, out, _ = run(capsys, *argv, "--a0", "124")
    assert code == 0 and {"rank: 128", "overall: PASS"} <= set(out.splitlines())
    code, out, _ = run(capsys, *argv, "--a0", "123")
    assert code == 0 and "rank: 127" in out.splitlines()
    code, out, err = run(capsys, *argv, "--a0", "-1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_cached_parser_matches_fresh_parser(capsys, monkeypatch):
    argvs = [
        ["verify-counterexample", "--l-solution", "2", "--format", "tsv"],
        ["reduce", "--gens", "x y", "x x^-1 y"],
        ["reduce", "--gens", "x y", "x", "--bogus"],
        ["verify-counterexample", "--help"],
        ["conjugate", "--gens", "x y", "x y", "y x"],
        ["nosuch"],
        ["--help"],
    ]
    cached = [run(capsys, *argv) for argv in argvs + argvs]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in argvs + argvs]
    assert cached == fresh
    assert [code for code, _, _ in fresh[: len(argvs)]] == [0, 0, 2, 0, 0, 2, 0]


def test_cli_import_leaves_numpy_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, freegroups.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def help_text(capsys):
    """The --help output of the top level and of every subcommand, each under a "$ ..." line."""
    text = ""
    for argv in [[]] + [[name] for name in subcommands()]:
        code, out, err = run(capsys, *argv, "--help")
        assert code == 0 and err == ""
        text += f"$ freegroups {' '.join(argv + ['--help'])}\n{out}"
    return text


def test_help_golden(capsys, monkeypatch):
    # argparse wraps help at the terminal width; CI diffs the installed
    # entry point's output against the same file at COLUMNS=80.
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text(capsys) == (DATA / "cli_help.txt").read_text()


def test_compressed_check_amalgam_golden(capsys):
    # The README certificate; the same files back the packaging smoke test in CI.
    code, out, err = run(capsys, "compressed-check", "--cert", str(DATA / "amalgam_cert.txt"))
    assert code == 0 and err == ""
    assert out == (DATA / "amalgam_cert_report.txt").read_text()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["reduce", "x"], "--gens"),
        (["britton", "t"], "--pres FILE"),
        (["rank"], "--graph FILE"),
        (["intersect", "--graph", "GRAPH"], "--graph2 FILE"),
        (["is-auto", "--gens", "x y"], "--map FILE"),
        (["compose", "--gens", "x y", "--map", "MAP"], "--map2 FILE"),
        (["compressed-check"], "--cert FILE"),
    ],
)
def test_missing_required_input(capsys, tmp_path, argv, option):
    files = {"GRAPH": tmp_path / "g.txt", "MAP": tmp_path / "f.txt"}
    files["GRAPH"].write_text("gens x y\nbase 0\n0 x 0\n")
    files["MAP"].write_text("map x -> y\nmap y -> x\n")
    code, out, err = run(capsys, *(str(files.get(arg, arg)) for arg in argv))
    assert (code, out, err) == (2, "", f"error: this subcommand needs {option}\n")


def decorated(text):
    """The same file with a comment header, blank lines, indentation and trailing blanks."""
    return "# header\n\n" + "".join(f"  {line} \t\n\n\t# note\n" for line in text.splitlines())


def amalgam_fields(pres):
    return pres.factor1, pres.factor2, pres.c1, pres.c2


@pytest.mark.parametrize(
    "parse, text, key",
    [
        (stallings.graph_from_text, "gens x y\nbase 0\n0 x 1\n1 x 0\n0 y 0\n", None),
        (splittings.parse_presentation, THM_PRES, None),
        (splittings.parse_presentation, "gens p q\ngens r s\namalgam : p q = r^2\n", amalgam_fields),
        (lambda text: cli._map_from_text(Alphabet("x y"), text), "map x -> x y\nmap y -> y\n", None),
        (closure.parse_certificate, (DATA / "amalgam_cert.txt").read_text(), None),
        (closure.parse_certificate, "gens a b\nkind hnn\nbase: a, b\nu: a\nv: b a b^-1\n", None),
    ],
)
def test_comments_blank_lines_and_indentation_are_ignored(parse, text, key):
    key = key or (lambda parsed: parsed)
    assert key(parse(decorated(text))) == key(parse(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("gens a b\nhnn\n", "hnn line must read 'hnn t : u -> v'"),
        ("gens p q\ngens r s\namalgam\n", "amalgam line must read 'amalgam : w1 = w2'"),
    ],
)
def test_bare_splitting_keyword_is_a_usage_error(capsys, tmp_path, text, message):
    pres = tmp_path / "pres.txt"
    pres.write_text(text)
    code, out, err = run(capsys, "britton", "--pres", str(pres), "a")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "gens a b u y\nhnn t : u -> a\nhnn t : u -> b a\n",
            "repeated splitting line 'hnn t : u -> b a': a presentation has one hnn or amalgam line",
        ),
        (
            "gens p q\ngens r s\namalgam : p = r\namalgam : q = s\n",
            "repeated splitting line 'amalgam : q = s': a presentation has one hnn or amalgam line",
        ),
        (
            "gens a b\nhnn t : a -> b\namalgam : a = b\n",
            "repeated splitting line 'amalgam : a = b': a presentation has one hnn or amalgam line",
        ),
    ],
)
def test_repeated_presentation_line_is_a_usage_error(capsys, tmp_path, text, message):
    pres = tmp_path / "pres.txt"
    pres.write_text(text)
    code, out, err = run(capsys, "britton", "--pres", str(pres), "t^-1 u t")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_repeated_map_line_is_a_usage_error(capsys, tmp_path):
    map_file = tmp_path / "f.txt"
    map_file.write_text("map x -> x y\nmap y -> y\nmap x -> x\n")
    code, out, err = run(capsys, "apply", "--gens", "x y", "--map", str(map_file), "x")
    assert (code, out, err) == (2, "", "error: repeated map line for 'x': 'map x -> x'\n")


@pytest.mark.parametrize(
    "text, repeat",
    [
        ("gens a b\ngens a b c\nkind hnn\nbase: a\nu: a\nv: a\n", "gens a b c"),
        ("gens a b\nkind hnn\nkind amalgam\nbase: a\nu: a\nv: a\n", "kind amalgam"),
        ("gens a b\nkind hnn\nbase: a\nu: a\nv: a\nu: b\n", "u: b"),
    ],
)
def test_repeated_certificate_line_is_a_usage_error(capsys, tmp_path, text, repeat):
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    code, out, err = run(capsys, "compressed-check", "--cert", str(cert))
    assert (code, out, err) == (2, "", f"error: repeated certificate line {repeat!r}\n")


@pytest.mark.parametrize("edge", ["0 x q", "q x 0", "0 x 1.5", "0 x"])
def test_non_integer_vertex_is_a_bad_edge_line(capsys, tmp_path, edge):
    graph = tmp_path / "g.txt"
    graph.write_text(f"gens x y\nbase 0\n{edge}\n")
    code, out, err = run(capsys, "rank", "--graph", str(graph))
    assert (code, out, err) == (2, "", f"error: bad edge line {edge!r}\n")
