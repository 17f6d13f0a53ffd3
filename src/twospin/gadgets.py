"""Tree gadget algebra: stars, d-ary trees and the comb join.

A gadget is a tree with a distinguished output vertex, all fields equal to
the uniform mu.  Its effective field obeys the product recursion

    field(comb(G_1..G_k)) = mu * prod_i edge_ratio(field(G_i)),

so arbitrary gadget trees evaluate exactly without materialising the graph:
Star(w) is a w-star rooted at the centre (field mu * edge_ratio(mu)**w) and
DaryTree(d, t) is the depth-t complete d-ary tree (t applications of the
level map to mu).  `gadget_field` and `tree_size` visit each distinct node
once: a Comb is memoised by identity, a d-ary level by (d, t), and a Star
is closed form.  So a depth-t tree costs O(t) even though it has d**t
leaves, and a comb whose children share one subtree object costs O(1) per
distinct node, not per leaf.  `materialize` emits the explicit graph for
cross-checks against the exhaustive evaluator.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .core import FieldedGraph, SpinParams
from .errors import CapacityError, DomainError
from .recursion import DecayConstants, RecursionParams, decay_constants, edge_ratio

MATERIALIZE_LIMIT = 10 ** 6


class _Star(NamedTuple):
    w: int


class Star(_Star):
    """w pendant vertices attached to the output; Star(0) is the singleton."""

    __slots__ = ()

    def __new__(cls, w: int):
        if w < 0:
            raise DomainError("star needs a non-negative leaf count")
        return super().__new__(cls, w)


class _DaryTree(NamedTuple):
    d: int
    t: int


class DaryTree(_DaryTree):
    """Complete d-ary tree of depth t rooted at the output; t=0 is the singleton."""

    __slots__ = ()

    def __new__(cls, d: int, t: int):
        if d < 1 or t < 0:
            raise DomainError("d-ary tree needs d >= 1 and t >= 0")
        return super().__new__(cls, d, t)


class _Comb(NamedTuple):
    children: tuple


class Comb(_Comb):
    """Fresh output vertex joined to the outputs of the child gadgets."""

    __slots__ = ()

    def __new__(cls, children):
        children = tuple(children)
        if not children:
            raise DomainError("comb needs at least one child")
        return super().__new__(cls, children)


GadgetTree = Union[Star, DaryTree, Comb]


def gadget_field(tree: GadgetTree, p: SpinParams):
    """Exact effective field of the gadget via the product recursion."""
    combs = {}  # id(comb) -> field; every comb is reachable from tree meanwhile
    levels = {}  # d -> fields of the d-ary trees of depth 0, 1, ...

    def f(node):
        if isinstance(node, Star):
            return p.mu * edge_ratio(p.mu, p) ** node.w
        if isinstance(node, DaryTree):
            fields = levels.setdefault(node.d, [p.mu])
            while len(fields) <= node.t:  # iterative, so deep chains do not recurse
                fields.append(p.mu * edge_ratio(fields[-1], p) ** node.d)
            return fields[node.t]
        if isinstance(node, Comb):
            val = combs.get(id(node))
            if val is None:
                val = p.mu
                for child in node.children:
                    val = val * edge_ratio(f(child), p)
                combs[id(node)] = val
            return val
        raise DomainError(f"not a gadget tree node: {node!r}")

    return f(tree)


def tree_size(tree: GadgetTree) -> int:
    """Vertex count of the materialised gadget (computed structurally)."""
    combs = {}  # id(comb) -> size, as in gadget_field

    def size(node) -> int:
        if isinstance(node, Star):
            return node.w + 1
        if isinstance(node, DaryTree):
            if node.d == 1:
                return node.t + 1
            return (node.d ** (node.t + 1) - 1) // (node.d - 1)
        if isinstance(node, Comb):
            got = combs.get(id(node))
            if got is None:
                got = combs[id(node)] = 1 + sum(map(size, node.children))
            return got
        raise DomainError(f"not a gadget tree node: {node!r}")

    return size(tree)


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

