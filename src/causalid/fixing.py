"""Fixability tests, the fixing operator, valid sequences, and reachability.

Fixing never adds edges, so a vertex that is fixable stays fixable as other
vertices are fixed. The greedy search below exploits this: it tries targets
sinks first (fewest descendants in the input graph, then name), repeatedly
fixes the first fixable one and never backtracks.

Fixing only removes edges with an arrowhead at the fixed vertex, so in a CADMG
reached from ``g`` the descendants and district of a random vertex are those
in ``g`` within the random vertices still unfixed. The search asks ``g`` by
that set and builds no CADMG; only ``fix`` and ``fix_all`` build one.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, Optional, Tuple, Union

from ._record import Record
from .errors import GraphError, NotFixableError, UnknownVertexError
from .graph import MixedGraph


class FixingSequence(Record):
    """An ordered, replayable sequence of fixed vertices.

    ``descendants[i]`` is the descendant set of ``steps[i]`` in the CADMG
    where it was fixed: ``{steps[i]}`` when fixing it is a plain
    marginalization, larger when it is a division. A sequence built by hand
    may leave it empty.
    """

    steps: Tuple[str, ...]
    descendants: Tuple[FrozenSet[str], ...]

    def __init__(self, steps: Tuple[str, ...], descendants: Tuple[FrozenSet[str], ...] = ()):
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "descendants", descendants)
        if len(set(self.steps)) != len(self.steps):
            raise GraphError(f"fixing sequence has repeated steps: {list(self.steps)}")
        if self.descendants and len(self.descendants) != len(self.steps):
            raise GraphError("fixing sequence needs one descendant set per step")

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


class NotReachable(Record):
    """Greedy search got stuck: ``residual`` could not be fixed."""

    residual: Tuple[str, ...]

    def __init__(self, residual: Tuple[str, ...]):
        object.__setattr__(self, "residual", residual)


def is_fixable(g: MixedGraph, r: str, within: Optional[AbstractSet[str]] = None) -> bool:
    """True iff no other vertex is both a descendant of ``r`` and bidirected-
    connected to ``r`` among the random vertices, in the subgraph induced by
    ``within`` when it is given."""
    if r in g.fixed:
        raise GraphError(f"{r!r} is already fixed")
    return g.descendants({r}, within=within) & g.district_of(r, within=within) == {r}


def fix(g: MixedGraph, r: str) -> MixedGraph:
    """Move ``r`` to the fixed set, dropping every edge with an arrowhead at it."""
    if not is_fixable(g, r):
        raise NotFixableError(f"{r!r} is not fixable")
    return MixedGraph(
        random=(v for v in g.random if v != r),
        fixed=g.fixed + (r,),
        directed=((t, h) for t, h in g.directed if h != r),
        bidirected=(e for e in g.bidirected if r not in e),
    )


def fix_all(g: MixedGraph, seq: Union[FixingSequence, Iterable[str]]) -> MixedGraph:
    """Replay a fixing sequence, checking fixability at every step."""
    steps = list(seq)
    cur = g
    for i, r in enumerate(steps):
        try:
            cur = fix(cur, r)
        except NotFixableError:
            raise NotFixableError(f"{r!r} not fixable at step {i + 1}") from None
    return cur


def find_valid_sequence(
    g: MixedGraph, targets: Iterable[str]
) -> Union[FixingSequence, NotReachable]:
    """Greedily fix all of ``targets``, or report the stuck residual set.

    Targets are tried sinks first: in order of (number of descendants in
    ``g``, name), which is a reverse topological order. Each step fixes the
    first remaining target in that order that is fixable. Every valid order
    reaches the same kernel, and fixing a vertex with no descendants left
    is a plain marginalization, so this order keeps kernels small. Each
    step records its vertex's descendants where it was fixed, which is all
    kernel synthesis needs of the CADMGs along the way. No CADMG is built:
    ``left``, the random vertices not yet fixed, stands for the current one.
    """
    remaining = set(targets)
    unknown = remaining - set(g.random)
    if unknown:
        raise UnknownVertexError(sorted(unknown)[0])
    order = sorted(remaining, key=lambda v: (len(g.descendants({v})), v))
    left = set(g.random)
    steps, descendants = [], []
    while order:
        for i, r in enumerate(order):
            if is_fixable(g, r, within=left):
                steps.append(r)
                descendants.append(g.descendants({r}, within=left))
                left.remove(r)
                del order[i]
                break
        else:
            return NotReachable(residual=tuple(sorted(order)))
    return FixingSequence(steps=tuple(steps), descendants=tuple(descendants))


def reachable_closure(g: MixedGraph, s: Iterable[str]) -> FrozenSet[str]:
    """Smallest reachable superset of ``s``.

    One greedy pass suffices: whatever cannot be fixed when aiming at the
    complement of ``s`` is exactly the extra material of the closure.
    """
    s = set(s)
    unknown = s - set(g.random)
    if unknown:
        raise UnknownVertexError(sorted(unknown)[0])
    res = find_valid_sequence(g, set(g.random) - s)
    if isinstance(res, FixingSequence):
        return frozenset(s)
    return frozenset(s) | set(res.residual)


def is_intrinsic(g: MixedGraph, d: Iterable[str]) -> bool:
    """True iff ``d`` is bidirected-connected and equal to its reachable closure."""
    d = set(d)
    if not d:
        raise GraphError("intrinsic-set test requires a nonempty set")
    if len(g.districts(within=d)) != 1:
        return False
    return reachable_closure(g, d) == d
