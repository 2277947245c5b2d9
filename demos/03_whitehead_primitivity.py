"""Whitehead moves: length descent, primitivity, free-factor detection."""

from freegroups import (
    Alphabet,
    is_free_factor,
    is_primitive,
    minimize_tuple,
    parse_word,
    whitehead_moves,
)


def main():
    f2 = Alphabet("x y")
    w = lambda s: parse_word(f2, s)

    moves = whitehead_moves(f2)
    type_ii = [m for m in moves if m.kind == "multiplier"]
    print(f"# Rank 2 has {len(moves)} Whitehead moves ({len(type_ii)} of type II)")

    print()
    print("# Greedy peak reduction")
    trace = minimize_tuple([w("x y x")])
    print("minimizing (x y x):")
    for move in trace.moves:
        print("  apply", move)
    print("  final:", ", ".join(str(word) for word in trace.final))

    print()
    print("# Primitivity (cyclic length descent to a single letter)")
    for text in ("x y", "x y x", "x^2", "x y x^-1 y^-1", "x^2 y^2"):
        print(f"is_primitive({text}) =", is_primitive(w(text)))

    print()
    print("# Free factors (total length descent to one letter per word)")
    print("<x> free factor ?", is_free_factor([w("x")], f2))
    print("<x^2> free factor ?", is_free_factor([w("x^2")], f2))
    print("<y x y^-1> free factor ?", is_free_factor([w("y x y^-1")], f2))
    print("<x, y> free factor ?", is_free_factor([w("x"), w("y")], f2))


if __name__ == "__main__":
    main()
