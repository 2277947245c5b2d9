"""The rank-4 splitting where algebraic and definable closure differ.

Inside F = <H, t | u^t = v> with H = <a, b, u> * <y> and
v = a y b y a y^-1 b y^-1, the element y satisfies the equation
u^s = a z b z a z^-1 b z^-1 with only finitely many solutions (it is
algebraic over A = <a, b, u>), yet the automorphism fixing A with
y -> y^-1, t -> t d^-1 moves every element outside A (so nothing beyond
A is definable).  The pipeline below checks each ingredient; both
closure facts are decided exactly, and the solution set is listed up to
a length.
"""

from freegroups import (
    Alphabet,
    build_counterexample,
    centralizer,
    counterexample_solution_set,
    parse_word,
    verify_counterexample,
)


def main():
    print("# Abelian case first: closures of cyclic subgroups are centralizers")
    f2 = Alphabet("x y")
    print("closure generator of <x^2>:", centralizer(parse_word(f2, "x^2")))

    print()
    setup = build_counterexample(0)
    print("# The splitting:")
    print("  base H on", " ".join(setup.h_alphabet.generators))
    print("  u =", setup.pres.u, "   v =", setup.v)
    print("  g: y -> y^-1, t -> t d^-1 with d =", setup.d)

    print()
    print("# Solution set of the defining equation (exact, listed up to a length)")
    for max_len in (1, 3, 5):
        sols = counterexample_solution_set(0, max_len)
        print(f"  length <= {max_len}: {{{', '.join(str(s) for s in sols)}}}")

    print()
    print("# The full pipeline")
    report = verify_counterexample(0, 5)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  {check.name}: {status}")
    print("  overall:", "PASS" if report.ok else "FAIL")


if __name__ == "__main__":
    main()
