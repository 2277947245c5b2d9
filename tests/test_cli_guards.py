"""Time-boxed CLI guards: one row per guard, each run as its own process.

Each guard runs ``python -m freegroups.cli`` on the package these tests
import: the source tree under tier-1, the installed package in CI's
packaging step.  A row gives the arguments, what stdout must satisfy,
the exit code, the exact stderr and the time box in seconds (None where
the guard has none).  Arguments may name the files of ``FILES``, written
once per module: the pipeline's presentation and two folded graphs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import freegroups

DATA = Path(__file__).parent / "data"
ENV = {**os.environ, "PYTHONPATH": str(Path(freegroups.__file__).resolve().parents[1])}

GENS12 = " ".join(f"g{i}" for i in range(1, 13))
SQUARES12 = " ".join(f"g{i}^2" for i in range(1, 13))
# Six conjugates p x^i y x^-i p^-1 with |p| = 2,001, about 24,000 letters.
P, P_INV = "x y z " * 667, "z^-1 y^-1 x^-1 " * 667
CONJUGATES = [f"{P}y {P_INV}"] + [f"{P}x^{i} y x^-{i} {P_INV}" for i in range(1, 6)]
# p x p^-1 and p y p^-1 with p = (y^2 z^2 x^2)^3333 y z, |p| = 20,000.
P20K, P20K_INV = "y^2 z^2 x^2 " * 3333 + "y z ", "z^-1 y^-1 " + "x^-2 z^-2 y^-2 " * 3333
# (x y z)^400 x y^-1: root-free, one cycle of 1,202 edges.
ROOT_FREE = "x y z " * 400 + "x y^-1"

# name -> text, or (fold arguments, time box): the fold's stdout is the file.
FILES = {
    "pipeline.txt": "gens a b u y\nhnn t : u -> a y b y a y^-1 b y^-1\n",
    "conjugates.txt": (["fold", "--gens", "x y z", *CONJUGATES], 5),
    "root_free.txt": (["fold", "--gens", "x y z", ROOT_FREE], 5),
}


def exactly(text):
    return lambda out, files: out == text


def first_line(text):
    return lambda out, files: out.splitlines()[:1] == [text]


def last_line(text):
    return lambda out, files: out.splitlines()[-1:] == [text]


def with_lines(*texts):
    return lambda out, files: set(texts) <= set(out.splitlines())


def minimal(length):
    """whitehead-min reports no move and the given length."""
    return lambda out, files: last_line(f"length: {length}")(out, files) and "\nmove:" not in out


def same_as(name):
    return lambda out, files: out == (files / name).read_text()


GUARDS = [
    # (why, arguments, stdout, exit code, stderr, time box)
    ("not a free factor",
     ["is-free-factor", "--gens", "x y", "x^2 y^2"], exactly("false\n"), 1, "", None),
    # Rank 12 and already Whitehead-minimal: the min-cut step decides it
    # in milliseconds, while a sweep over all ~10^8 moves of the step
    # takes about 17 s on a 2-core box.
    ("rank-12 squares by the gcd test",
     ["is-primitive", "--gens", GENS12, SQUARES12], exactly("false\n"), 1, "", 5),
    # The exponent sums of that word have gcd 2, so is-primitive answers
    # it before any descent.  Those of g1^3 g2^2 ... g12^2 have gcd 1:
    # here the min-cut descent must run and find the word minimal.
    ("rank-12 word by the min-cut descent",
     ["is-primitive", "--gens", GENS12, "g1^3" + SQUARES12[4:]], exactly("false\n"), 1, "", 5),
    # whitehead-min's canonical first-move picker must also report the
    # squares minimal (no move) by min cuts.
    ("whitehead-min of the rank-12 squares",
     ["whitehead-min", "--gens", GENS12, SQUARES12], minimal(24), 0, "", 5),
    # One x in a long word: the deciders drop every word that holds a
    # generator occurring once, where a descent that removes one y per
    # step took 3.7 s at y^4000 (2.6 s for the pair with z) on a 2-core box.
    ("primitive word with a lone letter",
     ["is-primitive", "--gens", "x y z", "x y^100000"], exactly("true\n"), 0, "", 5),
    ("free factor with lone letters",
     ["is-free-factor", "--gens", "x y z", "x y^100000", "z"], exactly("true\n"), 0, "", 5),
    # A conjugator shared by the whole tuple: the descent starts from the
    # folded core, where descending from the words themselves strips p
    # about a letter per move (still running after 90 s on a 2-core box).
    ("free factor behind a long shared conjugator",
     ["is-free-factor", "--gens", "x y z", f"{P20K}x {P20K_INV}", f"{P20K}y {P20K_INV}"],
     exactly("true\n"), 0, "", 5),
    # An edge word with a conjugator and an exponent above 1: the pinch
    # t^-1 u^-2 t is found by slicing against u's root.
    ("britton pinch against a conjugated power",
     ["britton", "--pres", str(DATA / "hnn_conjugated_power.txt"), "t^-1 a b^-4 a^-1 t b t a b^-2 a^-1 t^-1"],
     exactly("form: b a^-2 t a b^-2 a^-1 t^-1\nt_letters: 2\n"), 0, "", None),
    # Exponent 40,000 on the pipeline's presentation: classify tests one
    # candidate exponent per case, where trying every exponent up to the
    # length bound took 24 s on a 2-core box.
    ("classify at exponent 40,000",
     ["classify", "--pres", "pipeline.txt", "u^40000", "a^40000"], exactly("solvable: false\n"), 1, "", 5),
    # A million twists: the presentation validates, so one Britton
    # reduction decides each orbit, where a scan with an equality test per
    # twist is quadratic (15 s at n = 10^4 on a 2-core box).
    ("orbit of t over a million twists",
     ["orbit", "--pres", "pipeline.txt", "--element", "t", "--n", "1000000"],
     with_lines("distinct: 1000001", "first_collision: none"), 0, "", 5),
    ("orbit of t^-1 u t over a million twists",
     ["orbit", "--pres", "pipeline.txt", "--element", "t^-1 u t", "--n", "1000000"],
     with_lines("distinct: 1", "first_collision: 0 1"), 0, "", 5),
    # Each conjugate is read in from both ends and adds only its unread
    # middle, where folding a petal per letter by a quadratic merge loop
    # would not finish.
    ("rank of the six folded conjugates",
     ["rank", "--graph", "conjugates.txt"], first_line("rank: 6"), 0, "", None),
    # H meet H = H: the product's base component, trimmed and renumbered,
    # prints the fold's canonical text byte for byte.
    ("intersection of the conjugates with themselves",
     ["intersect", "--graph", "conjugates.txt", "--graph2", "conjugates.txt"], same_as("conjugates.txt"), 0, "", 5),
    # <w> is malnormal: the test streams about 240,000 unordered pairs of
    # same-label edges (480,000 ordered pairs) through one union-find.
    ("malnormal root-free cycle",
     ["malnormal", "--graph", "root_free.txt"], exactly("true\n"), 0, "", 5),
    # Rank 6, length 40: only an exact check 6 finishes; a sweep to length
    # 40 would not.
    ("verify-counterexample at length 40",
     ["verify-counterexample", "--a0", "2", "--l-solution", "40", "--l-separation", "1"],
     last_line("overall: PASS"), 0, "", 5),
    # Rank 124: the call takes about 2.5 ms in process on a 2-core box,
    # growing about linearly in the rank, so a super-linear regression in
    # the rank shows here.
    ("verify-counterexample at rank 124",
     ["verify-counterexample", "--a0", "120"], last_line("overall: PASS"), 0, "", 5),
    # Both bounds count letters, so 0 is a usage error, raised before the
    # pipeline runs: empty stdout, one error line, exit 2.
    ("verify-counterexample at --l-separation 0",
     ["verify-counterexample", "--l-separation", "0"], exactly(""), 2, "error: bounds must be at least 1\n", 5),
    ("verify-counterexample at --l-solution 0",
     ["verify-counterexample", "--l-solution", "0"], exactly(""), 2, "error: bounds must be at least 1\n", 5),
    # Numbers that fit in no index are input errors (exit 2), not a
    # traceback's exit 1, which would read as a mathematical false; the
    # error line names the token or the power.
    ("word exponent too large for an index",
     ["reduce", "--gens", "x y", "x^99999999999999999999"], exactly(""), 2,
     "error: exponent too large to hold in token 'x^99999999999999999999'\n", 5),
    ("twist power too large for an index",
     ["dehn-twist", "--pres", "pipeline.txt", "--power", "99999999999999999999"], exactly(""), 2,
     "error: twist power 99999999999999999999 is too large to hold\n", 5),
]


def freegroups_cli(argv, seconds, cwd):
    return subprocess.run(
        [sys.executable, "-m", "freegroups.cli", *argv],
        env=ENV, cwd=cwd, capture_output=True, text=True, timeout=seconds,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    path = tmp_path_factory.mktemp("guards")
    for name, source in FILES.items():
        if isinstance(source, str):
            (path / name).write_text(source)
            continue
        argv, seconds = source
        done = freegroups_cli(argv, seconds, path)
        assert done.returncode == 0, done.stderr
        (path / name).write_text(done.stdout)
    return path


@pytest.mark.parametrize("why, argv, stdout, code, stderr, seconds", GUARDS, ids=[row[0] for row in GUARDS])
def test_guard(files, why, argv, stdout, code, stderr, seconds):
    done = freegroups_cli(argv, seconds, files)
    assert done.returncode == code, done.stderr
    assert stdout(done.stdout, files), done.stdout[-2000:]
    assert done.stderr == stderr
