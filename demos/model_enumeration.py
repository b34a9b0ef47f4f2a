"""Exhaustive model enumeration on desk-sized theories.

Shows the three models of the self-supporting loop p => p, the single model
of => p, and that the closure conditions alone already force the epistemic
conditions (so imposing them on interpretations loses nothing).

Run:  python demos/model_enumeration.py
"""

from dlog import (
    closure_forces_epistemic,
    count_models,
    enumerate_interpretations,
    generate_random_theory,
    ground,
    is_model,
    logical_consequences,
    parse_theory,
)

STATUS = ("False", "undefined", "True")  # the names of status codes 0, 1, 2


def show_models(text: str):
    g = ground(parse_theory(text))
    print(f"theory: {text}")
    print(f"models: {count_models(g)}")
    for delta, partial in enumerate_interpretations(g):
        if is_model(g, delta, partial).is_model:
            statuses = ", ".join(
                f"{q}: Δ={STATUS[d]} ∂={STATUS[p]}"
                for q, d, p in sorted(zip(g.literals, delta, partial), key=lambda row: str(row[0]))
            )
            print(f"  {statuses}")
    print("consequences (true in every model):")
    for c in logical_consequences(g):
        print(f"  {c.tag.display} {c.literal}")
    print()


def main():
    show_models("r: p => p.")
    show_models("r: => p.")

    print("closure conditions force the epistemic conditions")
    print("(checked over the unrestricted 9-status space):")
    for seed in range(40):
        t = generate_random_theory(seed, max_atoms=2, max_rules=6)
        g = ground(t)
        if len(g.herbrand_base) > 4:
            continue
        assert closure_forces_epistemic(g), f"counterexample at seed {seed}"
    print("no counterexample over 40 seeded theories with base <= 4")


if __name__ == "__main__":
    main()
