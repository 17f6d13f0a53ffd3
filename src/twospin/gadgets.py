"""Tree gadget algebra: stars, d-ary trees and the comb join.

A gadget is a tree with a distinguished output vertex, all fields equal to
the uniform mu.  Its effective field obeys the product recursion

    field(comb(G_1..G_k)) = mu * prod_i edge_ratio(field(G_i)),

so arbitrary gadget trees evaluate without materialising the graph, exactly
on int, Fraction or Quad parameters and as a float recursion on floats:
Star(w) is a w-star rooted at the centre (field mu * edge_ratio(mu)**w) and
DaryTree(d, t) is the depth-t complete d-ary tree (t applications of the
level map to mu).  `gadget_field`, `tree_size` and `gadget_to_json` are
one fold over the tree (`_fold`), which visits each node once per position
it holds, except that a run of one child object inside a comb is one visit.
A d-ary tree is one visit too: its field comes from a per-(d, t) level
table, which a construction schedule shares across gadgets, its size and
JSON from (d, t) alone.  So a depth-t tree costs O(t) even though it has
d**t leaves, and the k singleton children that one construction level
shares cost one visit, not k.  `materialize` emits the explicit graph for
cross-checks against the exhaustive evaluator.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Union

from .core import FieldedGraph, SpinParams
from .errors import CapacityError, DomainError, NumericError, in_float_range
from .recursion import DecayConstants, RecursionParams, decay_constants, edge_ratio, solve_mu_star

MATERIALIZE_LIMIT = 10 ** 6
# Deepest construction (`construct.certify`'s ell).  The construction itself
# is a loop, but the folds and `materialize` take a stack frame per comb
# level, and the JSON writer two, so a gadget this deep fits Python's default
# recursion limit of 1,000 with room to spare for the caller's frames.
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


def _fold(tree: GadgetTree, star, dary, comb):
    """Fold the gadget bottom-up: star(w) and dary(d, t) give a leaf's value,
    comb(values) a comb's from its children's values in order.  A run of one
    child object is folded once, and comb gets that value object repeated."""
    def fold(node):
        if isinstance(node, Comb):
            values = prev = []  # a fresh list is no child, so the first one is folded
            for child in node.children:
                if child is not prev:
                    prev, value = child, fold(child)
                values.append(value)
            return comb(values)
        if isinstance(node, Star):
            return star(node.w)
        if isinstance(node, DaryTree):
            return dary(node.d, node.t)
        raise DomainError(f"not a gadget tree node: {node!r}")

    try:
        return fold(tree)
    finally:
        del fold  # fold's cell refers to fold: a cycle only the collector would free


def gadget_field(tree: GadgetTree, p: SpinParams, levels: dict | None = None):
    """Effective field of the gadget via the product recursion.

    Exact on int, Fraction or Quad parameters; on floats it is the float
    recursion, rounded at every step, not a proved bound (ROADMAP item 4).

    Costs one visit per run of one child object, as `_fold` does, and one
    edge_ratio per run.  The product is still taken left to right, one
    factor per copy, so the value is the plain recursion's, bit for bit.
    levels (d -> fields of the d-ary trees of depth 0, 1, ...) is the table
    the d-ary fields are read from and extended in; callers that evaluate
    many gadgets at one p may share one.  It only caches, so it changes no
    value; None gives a fresh one.
    """
    if levels is None:
        levels = {}

    def dary(d, t):
        fields = levels.setdefault(d, [p.mu])
        while len(fields) <= t:  # iterative, so deep chains do not recurse
            fields.append(p.mu * edge_ratio(fields[-1], p) ** d)
        return fields[t]

    def comb(fields):
        val, prev = p.mu, None
        for x in fields:
            if x is not prev:  # a run's field is one object: one edge_ratio
                prev, ratio = x, edge_ratio(x, p)
            val = val * ratio
        return val

    return _fold(tree, lambda w: p.mu * edge_ratio(p.mu, p) ** w, dary, comb)


def dary_size(d: int, t: int) -> int:
    """Vertex count of DaryTree(d, t)."""
    return t + 1 if d == 1 else (d ** (t + 1) - 1) // (d - 1)


def tree_size(tree: GadgetTree) -> int:
    """Vertex count of the materialised gadget (computed structurally).

    Costs one visit per run of one child object, as `gadget_field` does.
    """
    return _fold(tree, lambda w: w + 1, dary_size, lambda sizes: 1 + sum(sizes))


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
        else:  # a Comb: tree_size has refused any other node
            for child in node.children:
                edges.append((root, build(child)))
        return root

    root = build(tree)
    del build  # build's cell refers to build: a cycle holding the vertex and edge lists
    return FieldedGraph(tuple(vertices), tuple(edges), output=root)


def star_convergence(p: SpinParams, w_max: int) -> list[tuple[int, float, float]]:
    """(w, field, mu*beta**w) for w = 0..w_max; a field or bound beyond the
    float range, or a float field below the normal range (where the repeated
    product would stick at a subnormal), is a NumericError that names its
    column and row."""
    ratio = edge_ratio(p.mu, p)
    out = []
    field = p.mu
    for w in range(w_max + 1):
        try:
            if isinstance(field, float) and field < sys.float_info.min:
                raise NumericError("the star sweep's field underflows a float")
            out.append((w, in_float_range("the star sweep's field", lambda: field),
                        in_float_range("the star sweep's beta_power_bound",
                                       lambda: p.mu * p.beta ** w)))
        except NumericError as exc:
            raise NumericError(f"{exc} at w = {w}") from None
        field = field * ratio
    return out


def tree_convergence(rp: RecursionParams, t_max: int,
                     constants: DecayConstants | None = None
                     ) -> list[tuple[int, float, float]]:
    """(t, field, exp(c**t * iota)) for t = 0..t_max; field/mu_star obeys the
    bound, and a bound beyond the float range is a NumericError."""
    C = constants if constants is not None else decay_constants(rp, solve_mu_star(rp))
    out = []
    field = rp.params.mu
    for t in range(t_max + 1):
        try:
            bound = in_float_range("the tree sweep's ratio_bound", math.exp, C.c ** t * C.iota)
        except NumericError as exc:
            raise NumericError(f"{exc} at t = {t}") from None
        out.append((t, field, bound))
        field = rp.params.mu * edge_ratio(field, rp.params) ** rp.d
    return out


# ---------------------------------------------------------------------------
# Gadget JSON: nested {"kind": "star"|"tree"|"comb", "w":.., "d":.., "t":..,
#                      "children": [...]}

def gadget_to_json(tree: GadgetTree) -> dict:
    """Nested JSON form of the gadget, one visit per run of one child object:
    a run's copies are references to one dict, so a comb's k singleton
    children are written once and repeated by `dump_json`."""
    return _fold(tree, lambda w: {"kind": "star", "w": w},
                 lambda d, t: {"kind": "tree", "d": d, "t": t},
                 lambda docs: {"kind": "comb", "children": docs})
