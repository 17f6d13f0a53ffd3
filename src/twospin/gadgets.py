"""Tree gadget algebra: stars, d-ary trees and the comb join.

A gadget is a tree with a distinguished output vertex, all fields equal to
the uniform mu.  Its effective field obeys the product recursion

    field(comb(G_1..G_k)) = mu * prod_i edge_ratio(field(G_i)),

so arbitrary gadget trees evaluate exactly without materialising the graph:
Star(w) is a w-star rooted at the centre (field mu * edge_ratio(mu)**w) and
DaryTree(d, t) is the depth-t complete d-ary tree (t applications of the
level map to mu).  Evaluation memoises on structural identity, so a depth-t
tree costs O(t) even though it has d**t leaves.  `materialize` emits the
explicit graph for cross-checks against the exhaustive evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import FieldedGraph, SpinParams
from .errors import CapacityError, DomainError
from .recursion import DecayConstants, RecursionParams, decay_constants, edge_ratio

MATERIALIZE_LIMIT = 10 ** 6


@dataclass(frozen=True)
class Star:
    """w pendant vertices attached to the output; Star(0) is the singleton."""
    w: int

    def __post_init__(self):
        if self.w < 0:
            raise DomainError("star needs a non-negative leaf count")


@dataclass(frozen=True)
class DaryTree:
    """Complete d-ary tree of depth t rooted at the output; t=0 is the singleton."""
    d: int
    t: int

    def __post_init__(self):
        if self.d < 1 or self.t < 0:
            raise DomainError("d-ary tree needs d >= 1 and t >= 0")


@dataclass(frozen=True)
class Comb:
    """Fresh output vertex joined to the outputs of the child gadgets."""
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise DomainError("comb needs at least one child")


GadgetTree = Union[Star, DaryTree, Comb]


def gadget_field(tree: GadgetTree, p: SpinParams):
    """Exact effective field of the gadget via the product recursion."""
    memo = {}

    def f(node):
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Star):
            val = p.mu * edge_ratio(p.mu, p) ** node.w
        elif isinstance(node, DaryTree):
            # iterative so deep chains do not recurse; reuse the deepest
            # already-memoised level of the same arity
            t0, val = 0, p.mu
            for t in range(node.t, 0, -1):
                cached = memo.get(DaryTree(node.d, t))
                if cached is not None:
                    t0, val = t, cached
                    break
            for t in range(t0 + 1, node.t + 1):
                val = p.mu * edge_ratio(val, p) ** node.d
                memo[DaryTree(node.d, t)] = val
        elif isinstance(node, Comb):
            val = p.mu
            for child in node.children:
                val = val * edge_ratio(f(child), p)
        else:
            raise DomainError(f"not a gadget tree node: {node!r}")
        memo[node] = val
        return val

    return f(tree)


def tree_size(tree: GadgetTree) -> int:
    """Vertex count of the materialised gadget (computed structurally)."""
    if isinstance(tree, Star):
        return tree.w + 1
    if isinstance(tree, DaryTree):
        if tree.d == 1:
            return tree.t + 1
        return (tree.d ** (tree.t + 1) - 1) // (tree.d - 1)
    if isinstance(tree, Comb):
        return 1 + sum(tree_size(c) for c in tree.children)
    raise DomainError(f"not a gadget tree node: {tree!r}")


def materialize(tree: GadgetTree, p: SpinParams,
                limit: int = MATERIALIZE_LIMIT) -> FieldedGraph:
    """Explicit FieldedGraph of the gadget; all fields mu, output = root."""
    size = tree_size(tree)
    if size > limit:
        raise CapacityError(f"materialised gadget has {size} vertices, limit {limit}")

    vertices: list = []
    edges: list = []

    def fresh() -> str:
        vid = f"v{len(vertices)}"
        vertices.append((vid, p.mu))
        return vid

    def build(node) -> str:
        root = fresh()
        if isinstance(node, Star):
            for _ in range(node.w):
                edges.append((root, fresh()))
        elif isinstance(node, DaryTree):
            frontier = [root]
            for _ in range(node.t):
                nxt = []
                for parent in frontier:
                    for _ in range(node.d):
                        child = fresh()
                        edges.append((parent, child))
                        nxt.append(child)
                frontier = nxt
        elif isinstance(node, Comb):
            for child in node.children:
                edges.append((root, build(child)))
        else:
            raise DomainError(f"not a gadget tree node: {node!r}")
        return root

    root = build(tree)
    return FieldedGraph(tuple(vertices), tuple(edges), output=root)


def star_convergence(p: SpinParams, w_max: int) -> list[tuple[int, float, float]]:
    """(w, field, mu*beta**w) for w = 0..w_max; fields decrease to 0."""
    ratio = edge_ratio(p.mu, p)
    out = []
    field = p.mu
    for w in range(w_max + 1):
        out.append((w, field, p.mu * p.beta ** w))
        field = field * ratio
    return out


def tree_convergence(rp: RecursionParams, t_max: int,
                     constants: DecayConstants | None = None
                     ) -> list[tuple[int, float, float]]:
    """(t, field, exp(c**t * iota)) for t = 0..t_max; field/mu_star obeys the bound."""
    import math

    C = constants if constants is not None else decay_constants(rp)
    out = []
    field = rp.params.mu
    for t in range(t_max + 1):
        out.append((t, field, math.exp(C.c ** t * C.iota)))
        field = rp.params.mu * edge_ratio(field, rp.params) ** rp.d
    return out


# ---------------------------------------------------------------------------
# Gadget JSON: nested {"kind": "star"|"tree"|"comb", "w":.., "d":.., "t":..,
#                      "children": [...]}

def gadget_to_json(tree: GadgetTree) -> dict:
    if isinstance(tree, Star):
        return {"kind": "star", "w": tree.w}
    if isinstance(tree, DaryTree):
        return {"kind": "tree", "d": tree.d, "t": tree.t}
    if isinstance(tree, Comb):
        return {"kind": "comb", "children": [gadget_to_json(c) for c in tree.children]}
    raise DomainError(f"gadget {tree!r} has no JSON form")

