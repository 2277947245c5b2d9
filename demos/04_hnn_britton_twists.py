"""HNN extensions: Britton normal forms, conjugacy classification, twists."""

from freegroups import (
    Alphabet,
    HnnPresentation,
    britton_reduce,
    classify_base_conjugacy,
    dehn_twist,
    hnn_equal,
    hnn_length,
    orbit_bounded,
    parse_word,
)


def main():
    h = Alphabet("a b u y")
    pres = HnnPresentation(h, "t", parse_word(h, "u"), parse_word(h, "a y b y a y^-1 b y^-1"))
    print("# The splitting <H, t | u^t = v>, convention t^-1 u t = v")

    print()
    print("# Britton reduction (pinches t^-1 u^p t -> v^p and t v^p t^-1 -> u^p)")
    for text in ("t^-1 u t", "t^-1 u^2 t", "t^-1 a t"):
        form = britton_reduce(pres, pres.word(text))
        print(f"{text:12s} -> {form.to_word(pres)}   (stable letters: {hnn_length(form)})")

    print()
    print("# Equality through reduction, never form comparison")
    print("t^-1 u t = v ?", hnn_equal(pres, pres.word("t^-1 u t"), pres.lift(pres.v)))
    print("t = t u ?", hnn_equal(pres, pres.word("t"), pres.word("t u")))

    print()
    print("# Classifying alpha^s = beta with s crossing the edge")
    result = classify_base_conjugacy(pres, pres.u**2, pres.v**2)
    print(
        "u^2 ~ v^2:",
        f"solvable={result.solvable}, case={result.case}, p={result.p}, s={result.s}",
    )
    result2 = classify_base_conjugacy(pres, pres.base_word("a"), pres.base_word("b"))
    print("a ~ b:", f"solvable={result2.solvable}")

    print()
    print("# Dehn twists t -> u^n t and their bounded orbits")
    twist = dehn_twist(pres, 1)
    print("twist(1) sends t to", twist.images["t"])
    report = orbit_bounded(lambda n: dehn_twist(pres, n), pres.word("t"), 20)
    print(f"orbit of t under twists, n <= 20: {report.distinct_count} distinct images")


if __name__ == "__main__":
    main()
