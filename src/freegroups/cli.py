"""Deterministic command-line surface for the toolkit.

Every library operation is reachable from exactly one subcommand.  All
output is plain text, byte-identical across runs for identical inputs;
randomized checks live in the test suite, never here.  Exit status: 0
for success / true / PASS, 1 for a mathematical false / FAIL, 2 for
usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import closure, endos, splittings, stallings, whitehead, words

FORMATS = ("text", "tsv")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _alphabet(args) -> words.Alphabet:
    if not getattr(args, "gens", None):
        raise ValueError("this subcommand needs --gens")
    return words.Alphabet(args.gens)


def _presentation(args):
    if not getattr(args, "pres", None):
        raise ValueError("this subcommand needs --pres FILE")
    return splittings.parse_presentation(_read(args.pres))


def _hnn(args) -> splittings.HnnPresentation:
    pres = _presentation(args)
    if not isinstance(pres, splittings.HnnPresentation):
        raise ValueError("this subcommand needs an hnn presentation")
    return pres


def _graph(args, attr: str = "graph") -> stallings.SubgroupGraph:
    path = getattr(args, attr, None)
    if not path:
        raise ValueError(f"this subcommand needs --{attr} FILE")
    return stallings.graph_from_text(_read(path))


def _domain(args):
    if getattr(args, "pres", None):
        return _presentation(args)
    return _alphabet(args)


def _domain_word(domain, text: str) -> words.Word:
    return words.parse_word(endos.domain_alphabet(domain), text)


def _map_from_text(domain, text: str) -> endos.Endomorphism:
    alphabet = endos.domain_alphabet(domain)
    images = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("map "):
            raise ValueError(f"bad map line {line!r}")
        name, sep, image = line[4:].partition("->")
        if not sep:
            raise ValueError(f"bad map line {line!r}")
        images[name.strip()] = words.parse_word(alphabet, image)
    return endos.Endomorphism(domain, images)


def _load_map(args, domain, attr: str = "map"):
    path = getattr(args, attr, None)
    if not path:
        raise ValueError(f"this subcommand needs --{attr} FILE")
    return _map_from_text(domain, _read(path))


def _print_map(f: endos.Endomorphism) -> None:
    for name in endos.domain_alphabet(f.domain).generators:
        print(f"map {name} -> {words.format_word(f.images[name])}")


def _bool_exit(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


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
    alphabet = _alphabet(args)
    return _bool_exit(whitehead.is_primitive(words.parse_word(alphabet, args.word), alphabet))


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
    print(words.format_word(f.apply(_domain_word(domain, args.word))))
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
    order = endos.order_bounded(f, args.max)
    print(f"order: {order if order is not None else 'none'}")
    return 0


def cmd_fixed(args) -> int:
    alphabet = _alphabet(args)
    f = _load_map(args, alphabet)
    sys.stdout.write(endos.fixed_words(f, args.max_len).to_text())
    return 0


def cmd_orbit(args) -> int:
    pres = _presentation(args)
    element = _domain_word(pres, args.element)
    if isinstance(pres, splittings.HnnPresentation):
        description = "hnn twists: t -> u^n t"
    else:
        description = "amalgam twists: conjugation by c^n on factor 2"
    report = endos.orbit_bounded(
        lambda n: splittings.dehn_twist(pres, n), element, args.n, description
    )
    print(f"family: {report.family}")
    print(f"element: {words.format_word(report.element)}")
    print(f"bound: {report.bound}")
    print(f"distinct: {report.distinct_count}")
    if report.first_collision is None:
        print("first_collision: none")
    else:
        print(f"first_collision: {report.first_collision[0]} {report.first_collision[1]}")
    return 0


# --- closure ----------------------------------------------------------------


def cmd_abelian_acl(args) -> int:
    print(words.format_word(closure.abelian_closure(words.parse_word(_alphabet(args), args.word))))
    return 0


def cmd_compressed_check(args) -> int:
    if not args.cert:
        raise ValueError("this subcommand needs --cert FILE")
    report = closure.compressed_step_check(closure.parse_certificate(_read(args.cert)))
    for check in report.checks:
        suffix = f" [{check.detail}]" if check.detail else ""
        print(f"{check.name}: {'PASS' if check.passed else 'FAIL'}{suffix}")
    print(f"overall: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def cmd_verify_counterexample(args) -> int:
    if args.format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    report = closure.verify_counterexample(args.a0, args.l_solution, args.l_separation)
    if args.format == "tsv":
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{check.name}\t{status}\t{check.detail}")
        print(f"overall\t{'PASS' if report.ok else 'FAIL'}\t")
        return 0 if report.ok else 1
    print(f"a0_size: {report.a0_size}")
    print(f"rank: {report.rank}")
    print(f"l_solution: {report.l_solution}")
    print(f"l_separation: {report.l_separation}")
    for check in report.checks:
        suffix = f" [{check.detail}]" if check.detail else ""
        print(f"{check.name}: {'PASS' if check.passed else 'FAIL'}{suffix}")
    print(f"overall: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


SUBCOMMANDS = {
    "reduce": cmd_reduce,
    "conjugate": cmd_conjugate,
    "root": cmd_root,
    "centralizer": cmd_centralizer,
    "abelianize": cmd_abelianize,
    "fold": cmd_fold,
    "member": cmd_member,
    "rank": cmd_rank,
    "intersect": cmd_intersect,
    "malnormal": cmd_malnormal,
    "is-primitive": cmd_is_primitive,
    "is-free-factor": cmd_is_free_factor,
    "whitehead-min": cmd_whitehead_min,
    "britton": cmd_britton,
    "hnn-equal": cmd_hnn_equal,
    "classify": cmd_classify,
    "dehn-twist": cmd_dehn_twist,
    "apply": cmd_apply,
    "compose": cmd_compose,
    "is-auto": cmd_is_auto,
    "order": cmd_order,
    "fixed": cmd_fixed,
    "orbit": cmd_orbit,
    "abelian-acl": cmd_abelian_acl,
    "compressed-check": cmd_compressed_check,
    "verify-counterexample": cmd_verify_counterexample,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="freegroups",
        description="free groups, subgroup graphs, Whitehead moves, one-edge splittings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *, gens=False, pres=False, graph=False, graph2=False, mapfile=False, map2=False):
        p = sub.add_parser(name)
        p.set_defaults(handler=SUBCOMMANDS[name])
        if gens:
            p.add_argument("--gens", help="space-separated generator names")
        if pres:
            p.add_argument("--pres", help="presentation file")
        if graph:
            p.add_argument("--graph", help="graph file")
        if graph2:
            p.add_argument("--graph2", help="second graph file")
        if mapfile:
            p.add_argument("--map", help="endomorphism file")
        if map2:
            p.add_argument("--map2", help="second endomorphism file")
        return p

    add("reduce", gens=True).add_argument("word")
    p = add("conjugate", gens=True)
    p.add_argument("word1")
    p.add_argument("word2")
    add("root", gens=True).add_argument("word")
    add("centralizer", gens=True).add_argument("word")
    add("abelianize", gens=True).add_argument("word")
    add("fold", gens=True).add_argument("words", nargs="*")
    add("member", graph=True).add_argument("word")
    add("rank", graph=True)
    add("intersect", graph=True, graph2=True)
    add("malnormal", graph=True)
    add("is-primitive", gens=True).add_argument("word")
    add("is-free-factor", gens=True).add_argument("words", nargs="+")
    add("whitehead-min", gens=True).add_argument("words", nargs="+")
    add("britton", pres=True).add_argument("word")
    p = add("hnn-equal", pres=True)
    p.add_argument("word1")
    p.add_argument("word2")
    p = add("classify", pres=True)
    p.add_argument("alpha")
    p.add_argument("beta")
    add("dehn-twist", pres=True).add_argument("--power", type=int, default=1)
    add("apply", gens=True, pres=True, mapfile=True).add_argument("word")
    add("compose", gens=True, pres=True, mapfile=True, map2=True)
    add("is-auto", gens=True, mapfile=True)
    add("order", gens=True, pres=True, mapfile=True).add_argument("--max", type=int, default=20)
    add("fixed", gens=True, mapfile=True).add_argument("--max-len", type=int, default=6)
    p = add("orbit", pres=True)
    p.add_argument("--element", required=True)
    p.add_argument("--n", type=int, default=20)
    p = add("abelian-acl", gens=True)
    p.add_argument("word")
    p = add("compressed-check")
    p.add_argument("--cert", help="certificate file")
    p = add("verify-counterexample")
    p.add_argument("--a0", type=int, default=0)
    p.add_argument("--l-solution", type=int, default=6,
                   help="lists the solutions up to this length: check 6 itself is exact over F")
    p.add_argument("--l-separation", type=int, default=8,
                   help="changes only its header line: check 7 is exact for the letter map g")
    p.add_argument("--format", default="text", choices=FORMATS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
