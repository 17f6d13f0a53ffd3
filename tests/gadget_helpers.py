"""Test-side gadget helpers: parse gadget JSON back into a tree, and draw
seeded random gadget trees.  The package only writes gadget JSON and never
reads it, so the reader lives here with the tests that round-trip it."""

import random

from twospin import Comb, DaryTree, DomainError, GadgetTree, Star, tree_size


def gadget_from_json(doc) -> GadgetTree:
    try:
        kind = doc["kind"]
        if kind == "star":
            return Star(int(doc["w"]))
        if kind == "tree":
            return DaryTree(int(doc["d"]), int(doc["t"]))
        if kind == "comb":
            return Comb(tuple(gadget_from_json(c) for c in doc["children"]))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed gadget document: {exc}") from exc
    raise DomainError(f"unknown gadget kind {kind!r}")


def random_gadget_tree(rng: random.Random, max_size: int = 14) -> GadgetTree:
    """Gadget tree whose materialised size is at most max_size."""

    def build(budget: int) -> GadgetTree:
        kinds = ["star"]
        if budget >= 3:
            kinds.append("tree")
        if budget >= 2:
            kinds.append("comb")
        kind = rng.choice(kinds)
        if kind == "star":
            return Star(rng.randint(0, budget - 1))
        if kind == "tree":
            d = rng.randint(1, 3)
            # largest depth fitting the budget
            t, size = 0, 1
            while True:
                nxt = t + 2 if d == 1 else (d ** (t + 2) - 1) // (d - 1)
                if nxt > budget:
                    break
                t, size = t + 1, nxt
            return DaryTree(d, rng.randint(0, t))
        children = []
        remaining = budget - 1
        while remaining > 0:
            part = rng.randint(1, remaining)
            children.append(build(part))
            remaining -= tree_size(children[-1])
            if children and rng.random() < 0.35:
                break
        if not children:
            children.append(Star(0))
        return Comb(tuple(children))

    tree = build(max_size)
    assert tree_size(tree) <= max_size
    return tree
