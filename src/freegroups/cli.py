"""Deterministic command-line surface for the toolkit.

No operation has two subcommands.  All output is plain text,
byte-identical across runs for identical inputs; randomized checks live
in the test suite, never here.  Exit status: 0 for success / true /
PASS, 1 for a mathematical false / FAIL, 2 for usage or parse errors and
for numbers too large to hold.

Each fact of the text boundary is stated once: ``build_parser`` declares
every subcommand with its handler and options, ``main`` dispatches a call
that starts with a subcommand to that subcommand's parser (the top-level
parser takes every other call and reports leftover arguments), ``_given``
rejects a missing required option, ``_integer`` reads every numeric option,
``_print_report`` writes every check report, and the file formats skip
blank and ``#`` lines through ``words.content_lines``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import closure, endos, splittings, stallings, whitehead, words

OPTION_HELP = {
    "gens": "space-separated generator names",
    "pres": "presentation file",
    "graph": "graph file",
    "graph2": "second graph file",
    "map": "endomorphism file",
    "map2": "second endomorphism file",
    "cert": "certificate file",
}

# One line of a report, per --format: (check name, PASS or FAIL, detail).
REPORT_LINE = {
    "text": lambda name, status, detail: f"{name}: {status}" + (f" [{detail}]" if detail else ""),
    "tsv": lambda name, status, detail: f"{name}\t{status}\t{detail}",
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _given(args, option: str) -> str:
    """The value of a required option; every option but --gens names a file."""
    value = getattr(args, option)
    if not value:
        raise ValueError(f"this subcommand needs --{option}" + ("" if option == "gens" else " FILE"))
    return value


def _integer(text: str) -> int:
    """The type of every numeric option: what a word exponent is, an optional - and ASCII digits."""
    try:
        if text.isascii() and text.removeprefix("-").isdecimal():
            return int(text)
    except ValueError:  # more digits than int() reads
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _count(args, option: str) -> int:
    """The value of a bound option: a count of twists, powers or letters."""
    value = getattr(args, option)
    if value < 0:
        raise ValueError(f"--{option.replace('_', '-')} must be nonnegative, got {value}")
    return value


def _alphabet(args) -> words.Alphabet:
    return words.Alphabet(_given(args, "gens"))


def _presentation(args):
    return splittings.parse_presentation(_read(_given(args, "pres")))


def _hnn(args) -> splittings.HnnPresentation:
    pres = _presentation(args)
    if not isinstance(pres, splittings.HnnPresentation):
        raise ValueError("this subcommand needs an hnn presentation")
    return pres


def _graph(args, option: str = "graph") -> stallings.SubgroupGraph:
    return stallings.graph_from_text(_read(_given(args, option)))


def _domain(args):
    return _presentation(args) if args.pres else _alphabet(args)


def _map_from_text(domain, text: str) -> endos.Endomorphism:
    alphabet = domain.alphabet
    images = {}
    for line in words.content_lines(text):
        if not line.startswith("map "):
            raise ValueError(f"bad map line {line!r}")
        name, sep, image = line[4:].partition("->")
        if not sep:
            raise ValueError(f"bad map line {line!r}")
        name = name.strip()
        if name in images:
            raise ValueError(f"repeated map line for {name!r}: {line!r}")
        images[name] = words.parse_word(alphabet, image)
    return endos.Endomorphism(domain, images)


def _load_map(args, domain, option: str = "map"):
    return _map_from_text(domain, _read(_given(args, option)))


def _print_map(f: endos.Endomorphism) -> None:
    for name in f.domain.alphabet.generators:
        print(f"map {name} -> {words.format_word(f.images[name])}")


def _bool_exit(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _print_report(report, fmt: str = "text") -> int:
    """One line per check, then the overall verdict; the exit code of the verdict."""
    line = REPORT_LINE[fmt]
    lines = [line(check.name, "PASS" if check.passed else "FAIL", check.detail) for check in report.checks]
    print("\n".join(lines + [line("overall", "PASS" if report.ok else "FAIL", "")]))
    return 0 if report.ok else 1


# --- word algebra -----------------------------------------------------------


def cmd_reduce(args) -> int:
    print(words.format_word(words.parse_word(_alphabet(args), args.word)))
    return 0


def cmd_conjugate(args) -> int:
    alphabet = _alphabet(args)
    witness = words.is_conjugate(
        words.parse_word(alphabet, args.word1), words.parse_word(alphabet, args.word2)
    )
    if witness is None:
        print("none")
        return 1
    print(words.format_word(witness))
    return 0


def cmd_root(args) -> int:
    root, exponent = words.extract_root(words.parse_word(_alphabet(args), args.word))
    print(f"root: {words.format_word(root)}")
    print(f"exponent: {exponent}")
    return 0


def cmd_centralizer(args) -> int:
    print(words.format_word(words.centralizer(words.parse_word(_alphabet(args), args.word))))
    return 0


def cmd_abelianize(args) -> int:
    vector = words.abelianize(words.parse_word(_alphabet(args), args.word))
    print(" ".join(str(x) for x in vector))
    return 0


# --- subgroup graphs --------------------------------------------------------


def cmd_fold(args) -> int:
    alphabet = _alphabet(args)
    graph = stallings.subgroup_graph(alphabet, [words.parse_word(alphabet, w) for w in args.words])
    sys.stdout.write(graph.to_text())
    return 0


def cmd_member(args) -> int:
    graph = _graph(args)
    return _bool_exit(graph.contains(words.parse_word(graph.alphabet, args.word)))


def cmd_rank(args) -> int:
    graph = _graph(args)
    print(f"rank: {graph.rank()}")
    for b in graph.basis():
        print(f"basis: {words.format_word(b)}")
    return 0


def cmd_intersect(args) -> int:
    sys.stdout.write(stallings.intersect(_graph(args), _graph(args, "graph2")).to_text())
    return 0


def cmd_malnormal(args) -> int:
    return _bool_exit(stallings.is_malnormal(_graph(args)))


# --- Whitehead --------------------------------------------------------------


def cmd_is_primitive(args) -> int:
    return _bool_exit(whitehead.is_primitive(words.parse_word(_alphabet(args), args.word)))


def cmd_is_free_factor(args) -> int:
    alphabet = _alphabet(args)
    basis = [words.parse_word(alphabet, w) for w in args.words]
    return _bool_exit(whitehead.is_free_factor(basis, alphabet))


def cmd_whitehead_min(args) -> int:
    alphabet = _alphabet(args)
    trace = whitehead.minimize_tuple([words.parse_word(alphabet, w) for w in args.words])
    print("initial: " + ", ".join(words.format_word(w) for w in trace.initial))
    for move in trace.moves:
        print(f"move: {move!r}")
    print("final: " + ", ".join(words.format_word(w) for w in trace.final))
    print(f"length: {trace.final_length}")
    return 0


# --- splittings -------------------------------------------------------------


def cmd_britton(args) -> int:
    pres = _hnn(args)
    form = splittings.britton_reduce(pres, pres.word(args.word))
    print(f"form: {words.format_word(form.to_word(pres))}")
    print(f"t_letters: {splittings.hnn_length(form)}")
    return 0


def cmd_hnn_equal(args) -> int:
    pres = _hnn(args)
    return _bool_exit(splittings.hnn_equal(pres, pres.word(args.word1), pres.word(args.word2)))


def cmd_classify(args) -> int:
    pres = _hnn(args)
    result = splittings.classify_base_conjugacy(
        pres, pres.base_word(args.alpha), pres.base_word(args.beta)
    )
    print(f"solvable: {'true' if result.solvable else 'false'}")
    if not result.solvable:
        return 1
    print(f"case: {result.case}")
    print(f"p: {result.p}")
    print(f"gamma: {words.format_word(result.gamma)}")
    print(f"delta: {words.format_word(result.delta)}")
    print(f"s: {words.format_word(result.s)}")
    return 0


def cmd_dehn_twist(args) -> int:
    _print_map(splittings.dehn_twist(_presentation(args), args.power))
    return 0


# --- endomorphisms ----------------------------------------------------------


def cmd_apply(args) -> int:
    domain = _domain(args)
    f = _load_map(args, domain)
    print(words.format_word(f.apply(words.parse_word(domain.alphabet, args.word))))
    return 0


def cmd_compose(args) -> int:
    domain = _domain(args)
    f = _load_map(args, domain)
    g = _load_map(args, domain, "map2")
    _print_map(endos.compose(f, g))
    return 0


def cmd_is_auto(args) -> int:
    alphabet = _alphabet(args)
    return _bool_exit(endos.is_automorphism_free(_load_map(args, alphabet)))


def cmd_order(args) -> int:
    domain = _domain(args)
    f = _load_map(args, domain)
    order = endos.order_bounded(f, _count(args, "max"))
    print(f"order: {order if order is not None else 'none'}")
    return 0


def cmd_fixed(args) -> int:
    alphabet = _alphabet(args)
    f = _load_map(args, alphabet)
    sys.stdout.write(endos.fixed_words(f, _count(args, "max_len")).to_text())
    return 0


def cmd_orbit(args) -> int:
    pres = _presentation(args)
    element = words.parse_word(pres.alphabet, args.element)
    bound = _count(args, "n")
    report = endos.orbit_bounded(lambda n: splittings.dehn_twist(pres, n), element, bound)
    if isinstance(pres, splittings.HnnPresentation):
        print("family: hnn twists: t -> u^n t")
    else:
        print("family: amalgam twists: conjugation by c^n on factor 2")
    print(f"element: {words.format_word(element)}")
    print(f"bound: {bound}")
    print(f"distinct: {report.distinct_count}")
    collision = report.first_collision
    print(f"first_collision: {' '.join(map(str, collision)) if collision else 'none'}")
    return 0


# --- closure ----------------------------------------------------------------


def cmd_compressed_check(args) -> int:
    return _print_report(closure.compressed_step_check(closure.parse_certificate(_read(_given(args, "cert")))))


def cmd_verify_counterexample(args) -> int:
    if args.l_separation < 1:  # the bound reaches only the header line below
        raise ValueError("bounds must be at least 1")
    report = closure.verify_counterexample(args.a0, args.l_solution)
    if args.format == "text":
        print(f"a0_size: {args.a0}\nrank: {args.a0 + 4}\nl_solution: {args.l_solution}\n"
              f"l_separation: {args.l_separation}")
    return _print_report(report, args.format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="freegroups",
        description="free groups, subgroup graphs, Whitehead moves, one-edge splittings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subparser, for main's dispatch

    def add(name, handler, *options):
        """Declare a subcommand once: its handler and its OPTION_HELP options."""
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for option in options:
            p.add_argument(f"--{option}", help=OPTION_HELP[option])
        return p

    add("reduce", cmd_reduce, "gens").add_argument("word")
    p = add("conjugate", cmd_conjugate, "gens")
    p.add_argument("word1")
    p.add_argument("word2")
    add("root", cmd_root, "gens").add_argument("word")
    add("centralizer", cmd_centralizer, "gens").add_argument("word")
    add("abelianize", cmd_abelianize, "gens").add_argument("word")
    add("fold", cmd_fold, "gens").add_argument("words", nargs="*")
    add("member", cmd_member, "graph").add_argument("word")
    add("rank", cmd_rank, "graph")
    add("intersect", cmd_intersect, "graph", "graph2")
    add("malnormal", cmd_malnormal, "graph")
    add("is-primitive", cmd_is_primitive, "gens").add_argument("word")
    add("is-free-factor", cmd_is_free_factor, "gens").add_argument("words", nargs="+")
    add("whitehead-min", cmd_whitehead_min, "gens").add_argument("words", nargs="+")
    add("britton", cmd_britton, "pres").add_argument("word")
    p = add("hnn-equal", cmd_hnn_equal, "pres")
    p.add_argument("word1")
    p.add_argument("word2")
    p = add("classify", cmd_classify, "pres")
    p.add_argument("alpha")
    p.add_argument("beta")
    add("dehn-twist", cmd_dehn_twist, "pres").add_argument("--power", type=_integer, default=1)
    add("apply", cmd_apply, "gens", "pres", "map").add_argument("word")
    add("compose", cmd_compose, "gens", "pres", "map", "map2")
    add("is-auto", cmd_is_auto, "gens", "map")
    add("order", cmd_order, "gens", "pres", "map").add_argument("--max", type=_integer, default=20)
    add("fixed", cmd_fixed, "gens", "map").add_argument("--max-len", type=_integer, default=6)
    p = add("orbit", cmd_orbit, "pres")
    p.add_argument("--element", required=True, help="the word whose images under the twists are counted")
    p.add_argument("--n", type=_integer, default=20, help="the largest twist power; exact at once when the splitting"
                   " meets the twist lemma's hypotheses, otherwise a scan in time quadratic in n")
    add("compressed-check", cmd_compressed_check, "cert")
    p = add("verify-counterexample", cmd_verify_counterexample)
    p.add_argument("--a0", type=_integer, default=0)
    p.add_argument("--l-solution", type=_integer, default=6,
                   help="lists the solutions up to this length: check 6 itself is exact over F")
    p.add_argument("--l-separation", type=_integer, default=8,
                   help="changes only its header line: check 7 is exact for the letter map g")
    p.add_argument("--format", default="text", choices=tuple(REPORT_LINE))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.subcommands.get(argv[0]) if argv else None  # a known subcommand parses its own arguments
    try:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if sub else (None, None)
        if sub is None or extra:  # no arguments, -h, an unknown command, a leading --, or leftovers to report
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OverflowError, MemoryError) as exc:  # the last two: a number too large to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


build_parser()  # at import rather than inside the first main call
if __name__ == "__main__":
    sys.exit(main())
