"""Walk through the bird theory: birds fly, emus are heavy birds, and a
defeater keeps the heavy emu grounded without ever proving she can't fly.

Run:  python demos/bird_walkthrough.py
"""

import pathlib

from dlog import check_derivation, derive_all, explain, ground, parse_conclusion, parse_theory

THEORY = pathlib.Path(__file__).parent.parent / "tests" / "fixtures" / "bird.dl"


def main():
    text = THEORY.read_text()
    print("theory:")
    print(text)
    g = ground(parse_theory(text))
    print(f"grounded to {len(g.rules)} rules over constants {sorted(g.constants)}")
    print("(an instance is built only if each body literal is a fact or the head")
    print("of a strict or defeasible rule, so brokenWing(X) leaves r4 out);")
    print(f"superiority keeps {len(g.superiority)} pairs of instances with conflicting heads\n")

    print("all conclusions:")
    for c in sorted(derive_all(g), key=str):
        print(f"  {c.tag.display} {c.literal}")

    print("\nwhy does tweety fly defeasibly?")
    target = parse_conclusion("+d flies(tweety)")
    derivation = explain(g, target)
    for i, step in enumerate(derivation, start=1):
        print(f"  P({i}) = {step.tag.display} {step.literal}")
    print(f"replay check: {'valid' if check_derivation(g, derivation) else 'INVALID'}")

    print("\nand why not ethel?")
    print("  heavy(ethel) holds defeasibly, so the defeater")
    print("  'heavy(X) ~> ~flies(X)' is applicable and unbeaten:")
    for text_c in ("-d flies(ethel)", "-d ~flies(ethel)"):
        c = parse_conclusion(text_c)
        d = explain(g, c)
        print(f"  {c.tag.display} {c.literal}  (derivation of length {len(d)})")


if __name__ == "__main__":
    main()
