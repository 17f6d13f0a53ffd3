"""Tree gadget algebra: stars, d-ary trees and the comb join.

A gadget is a tree with a distinguished output vertex, all fields equal to
the uniform mu.  Its effective field obeys the product recursion

    field(comb(G_1..G_k)) = mu * prod_i edge_ratio(field(G_i)),

so arbitrary gadget trees evaluate exactly without materialising the graph:
Star(w) is a w-star rooted at the centre (field mu * edge_ratio(mu)**w) and
DaryTree(d, t) is the depth-t complete d-ary tree (t applications of the
level map to mu).  `gadget_field`, `tree_size` and `gadget_to_json` visit
each distinct node once: every node is memoised by identity, a d-ary level
also by (d, t), and a run of one child object inside a comb is one visit.
So a depth-t tree costs O(t) even though it has d**t leaves, and the k
singleton children that one construction level shares cost one visit, not
k.  `materialize` emits the explicit graph for cross-checks against the
exhaustive evaluator.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .core import FieldedGraph, SpinParams
from .errors import CapacityError, DomainError
from .recursion import DecayConstants, RecursionParams, decay_constants, edge_ratio

MATERIALIZE_LIMIT = 10 ** 6
# Deepest construction (`construct.certify`'s ell): every gadget walker takes
# a stack frame per comb level, and the JSON writer two, so a gadget this
# deep fits Python's default recursion limit of 1,000 with room to spare for
# the caller's frames.
DEPTH_LIMIT = 400


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
    """Exact effective field of the gadget via the product recursion.

    Costs O(distinct nodes): every node is memoised by identity (a d-ary
    level also by (d, t)), and a run of one child object inside a Comb
    takes one edge_ratio.  The product is still taken left to right, one
    factor per copy, so the value is the plain recursion's, bit for bit.
    """
    memo = {}  # id(node) -> field; every node is reachable from tree meanwhile
    levels = {}  # d -> fields of the d-ary trees of depth 0, 1, ...

    def f(node):
        val = memo.get(id(node))
        if val is not None:
            return val
        if isinstance(node, Comb):
            val, prev = p.mu, None
            for child in node.children:
                if child is not prev:
                    prev, ratio = child, edge_ratio(f(child), p)
                val = val * ratio
        elif isinstance(node, Star):
            val = p.mu * edge_ratio(p.mu, p) ** node.w
        elif isinstance(node, DaryTree):
            val = levels.setdefault(node.d, [p.mu])
            while len(val) <= node.t:  # iterative, so deep chains do not recurse
                val.append(p.mu * edge_ratio(val[-1], p) ** node.d)
            val = val[node.t]
        else:
            raise DomainError(f"not a gadget tree node: {node!r}")
        memo[id(node)] = val
        return val

    return f(tree)


def tree_size(tree: GadgetTree) -> int:
    """Vertex count of the materialised gadget (computed structurally).

    Costs O(distinct nodes), as `gadget_field` does.
    """
    memo = {}  # id(node) -> size, as in gadget_field

    def size(node) -> int:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Comb):
            got, prev = 1, None
            for child in node.children:
                if child is not prev:
                    prev, each = child, size(child)
                got += each
        elif isinstance(node, Star):
            got = node.w + 1
        elif isinstance(node, DaryTree):
            got = node.t + 1 if node.d == 1 else (node.d ** (node.t + 1) - 1) // (node.d - 1)
        else:
            raise DomainError(f"not a gadget tree node: {node!r}")
        memo[id(node)] = got
        return got

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
    """Nested JSON form of the gadget, in O(distinct nodes): each distinct
    node becomes one dict, which every occurrence of the node shares, so a
    comb's k singleton children are k references to one dict."""
    docs = {}  # id(node) -> its dict

    def doc(node) -> dict:
        got = docs.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Comb):
            got, prev = [], None
            for child in node.children:
                if child is not prev:
                    prev, each = child, doc(child)
                got.append(each)
            got = {"kind": "comb", "children": got}
        elif isinstance(node, Star):
            got = {"kind": "star", "w": node.w}
        elif isinstance(node, DaryTree):
            got = {"kind": "tree", "d": node.d, "t": node.t}
        else:
            raise DomainError(f"gadget {node!r} has no JSON form")
        docs[id(node)] = got
        return got

    return doc(tree)
