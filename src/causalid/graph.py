"""Mixed graphs and their structural queries.

A single :class:`MixedGraph` covers three shapes of input:

* a DAG with designated hidden vertices (``hidden`` nonempty, no bidirected
  edges, no fixed vertices),
* an ADMG (directed + bidirected edges, everything random),
* a CADMG (vertices partitioned into ``random`` and ``fixed``).

All graphs are immutable after construction; every operation returns a new
graph or a plain value. Sets are externalized in sorted order so outputs are
deterministic.

The structural queries ``ancestors``, ``descendants``, ``district_of`` and
``districts`` take an optional ``within``, a set of vertices: the query is then
asked of the subgraph induced by that set, which is never built.
"""

from __future__ import annotations

import json
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import CycleError, GraphError, QueryError, UnknownVertexError

_RESERVED_CHARS = set("|,;")

_GRAPH_JSON_KEYS = ("vertices", "hidden", "fixed", "directed", "bidirected")


def _check_name(name) -> str:
    if not isinstance(name, str) or not name:
        raise GraphError(f"vertex names must be non-empty strings, got {name!r}")
    if any(ch.isspace() or ch in _RESERVED_CHARS for ch in name):
        raise GraphError(
            f"vertex name {name!r} contains whitespace or a reserved character (| , ;)"
        )
    return name


# a directed edge is ordered; a bidirected one may also be given as a set
_EDGE_TYPES = {"directed": (tuple, list), "bidirected": (tuple, list, set, frozenset)}


def _edge(e, kind: str) -> Tuple[str, str]:
    if not isinstance(e, _EDGE_TYPES[kind]) or len(e) != 2:
        raise GraphError(f"{kind} edge must be a pair of vertex names, got {e!r}")
    u, v = e
    return _check_name(u), _check_name(v)


class MixedGraph:
    """Immutable acyclic directed mixed graph with random/fixed/hidden roles."""

    __slots__ = (
        "random",
        "fixed",
        "hidden",
        "directed",
        "bidirected",
        "_pa",
        "_ch",
        "_sib",
        "_hash",
    )

    def __init__(
        self,
        random: Iterable[str],
        fixed: Iterable[str] = (),
        hidden: Iterable[str] = (),
        directed: Iterable[Tuple[str, str]] = (),
        bidirected: Iterable[Iterable[str]] = (),
    ):
        object.__setattr__(self, "random", tuple(sorted({_check_name(v) for v in random})))
        object.__setattr__(self, "fixed", tuple(sorted({_check_name(v) for v in fixed})))
        object.__setattr__(self, "hidden", frozenset(_check_name(v) for v in hidden))
        object.__setattr__(self, "directed", frozenset(_edge(e, "directed") for e in directed))
        object.__setattr__(
            self, "bidirected", frozenset(frozenset(_edge(e, "bidirected")) for e in bidirected)
        )
        self._validate()

    def _index(self) -> None:
        pa: Dict[str, Set[str]] = {v: set() for v in self.vertices}
        ch: Dict[str, Set[str]] = {v: set() for v in self.vertices}
        sib: Dict[str, Set[str]] = {v: set() for v in self.vertices}
        for t, h in self.directed:
            ch[t].add(h)
            pa[h].add(t)
        for e in self.bidirected:
            u, v = sorted(e)
            sib[u].add(v)
            sib[v].add(u)
        object.__setattr__(self, "_pa", pa)
        object.__setattr__(self, "_ch", ch)
        object.__setattr__(self, "_sib", sib)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("MixedGraph is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild through the validating constructor,
        # since no slot can be set on an existing graph
        return (type(self), (self.random, self.fixed, self.hidden, self.directed, self.bidirected))

    # ------------------------------------------------------------------ basics

    @property
    def vertices(self) -> Tuple[str, ...]:
        return tuple(sorted(self.random + self.fixed))

    def _require(self, vs: Iterable[str], within: Optional[AbstractSet[str]] = None) -> Set[str]:
        """``vs`` as a set, refused unless it lies in the graph, or in its
        subgraph induced by ``within``."""
        vs = set(vs)
        if within is None:
            unknown = vs - self._pa.keys()
        else:
            unknown = (within - self._pa.keys()) | (vs - within)
        if unknown:
            raise UnknownVertexError(min(unknown))
        return vs

    def _validate(self) -> None:
        rnd, fxd, hid = set(self.random), set(self.fixed), self.hidden
        if rnd & fxd:
            raise GraphError(f"vertices both random and fixed: {sorted(rnd & fxd)}")
        if not hid <= rnd:
            raise GraphError(f"hidden vertices must be random: {sorted(hid - rnd)}")
        allv = rnd | fxd
        for t, h in self.directed:
            if t not in allv or h not in allv:
                raise UnknownVertexError(t if t not in allv else h)
            if t == h:
                raise GraphError(f"self-loop on {t!r}")
        for e in self.bidirected:
            if len(e) != 2:
                raise GraphError(f"bidirected self-loop or malformed edge: {sorted(e)}")
            for v in e:
                if v not in allv:
                    raise UnknownVertexError(v)
        self._index()
        for t, h in self.directed:
            if h in fxd:
                raise GraphError(f"directed edge into fixed vertex {h!r}")
        for e in self.bidirected:
            bad = sorted(set(e) & fxd)
            if bad:
                raise GraphError(f"bidirected edge incident to fixed vertex {bad[0]!r}")
        if hid and self.bidirected:
            raise GraphError("a hidden-variable input must be a plain DAG (no bidirected edges)")
        if hid and fxd:
            raise GraphError("a hidden-variable input must have no fixed vertices")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        indeg = {v: len(ps) for v, ps in self._pa.items()}
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for c in self._ch[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen != len(indeg):
            # extract one cycle among the leftover vertices for the error
            # message: every leftover vertex has a leftover parent, but one
            # downstream of a cycle may have no leftover child
            leftover = {v for v, d in indeg.items() if d > 0}
            path, cur = [], min(leftover)
            while cur not in path:
                path.append(cur)
                cur = min(self._pa[cur] & leftover)
            cycle = path[path.index(cur):][::-1]  # walked against the edges
            least = cycle.index(min(cycle))
            raise CycleError(cycle[least:] + cycle[:least])

    # --------------------------------------------------------------- ancestry

    def parents(self, vs: Iterable[str]) -> FrozenSet[str]:
        """One-step parents of the set, excluding the set itself."""
        vs = self._require(vs)
        out: Set[str] = set()
        for v in vs:
            out |= self._pa[v]
        return frozenset(out - vs)

    def children(self, vs: Iterable[str]) -> FrozenSet[str]:
        vs = self._require(vs)
        out: Set[str] = set()
        for v in vs:
            out |= self._ch[v]
        return frozenset(out - vs)

    def _closure(self, vs: Set[str], step: Dict[str, Set[str]], within=None) -> FrozenSet[str]:
        within = step if within is None else within  # step has every vertex as a key
        out = set(vs)
        frontier = list(vs)
        while frontier:
            for u in step[frontier.pop()]:
                if u not in out and u in within:
                    out.add(u)
                    frontier.append(u)
        return frozenset(out)

    def ancestors(
        self, vs: Iterable[str], within: Optional[AbstractSet[str]] = None
    ) -> FrozenSet[str]:
        """Reflexive-transitive closure along incoming directed edges."""
        return self._closure(self._require(vs, within), self._pa, within)

    def descendants(
        self, vs: Iterable[str], within: Optional[AbstractSet[str]] = None
    ) -> FrozenSet[str]:
        """Reflexive-transitive closure along outgoing directed edges."""
        return self._closure(self._require(vs, within), self._ch, within)

    # -------------------------------------------------------------- districts

    def district_of(self, v: str, within: Optional[AbstractSet[str]] = None) -> FrozenSet[str]:
        """Bidirected-connected component of ``v`` among random vertices."""
        self._require([v], within)
        if v in self.fixed:
            raise GraphError(f"district_of requires a random vertex, {v!r} is fixed")
        return self._closure({v}, self._sib, within)

    def districts(self, within: Optional[AbstractSet[str]] = None) -> List[Tuple[str, ...]]:
        """Partition of the random vertices into bidirected-connected blocks.

        Blocks are sorted by their least vertex name.
        """
        scope = self._require(self.random if within is None else within) - set(self.fixed)
        seen: Set[str] = set()
        blocks: List[Tuple[str, ...]] = []
        for v in scope:
            if v not in seen:
                block = self._closure({v}, self._sib, scope)
                seen |= block
                blocks.append(tuple(sorted(block)))
        blocks.sort(key=lambda b: b[0])
        return blocks

    # ------------------------------------------------------------- subgraphs

    def ancestral_avoiding(self, outcomes: Iterable[str], avoid: Iterable[str]) -> FrozenSet[str]:
        """Vertices with a directed path to ``outcomes`` that dodges ``avoid``.

        Includes ``outcomes`` themselves. Equivalent to the ancestors of
        ``outcomes`` in the subgraph with ``avoid`` removed.
        """
        outcomes = self._require(outcomes)
        avoid = self._require(avoid)
        if outcomes & avoid:
            raise QueryError(
                f"outcome set intersects avoided set: {sorted(outcomes & avoid)}"
            )
        return self.ancestors(outcomes, within=self._pa.keys() - avoid)

    # ------------------------------------------------------ latent projection

    def latent_project(self) -> "MixedGraph":
        """Project a hidden-variable DAG onto its observed vertices.

        Directed edges survive when the endpoints are connected by a directed
        path through hidden vertices only; bidirected edges appear between
        observed vertices sharing a hidden common-ancestor trek whose interior
        stays hidden.
        """
        if self.bidirected:
            raise GraphError("latent projection expects a DAG without bidirected edges")
        if self.fixed:
            raise GraphError("latent projection expects a DAG without fixed vertices")
        observed = [v for v in self.random if v not in self.hidden]
        obs = set(observed)

        # hreach[u]: vertices reachable from u by directed paths whose
        # intermediate vertices are all hidden
        hreach: Dict[str, Set[str]] = {}
        for u in self.random:
            reach: Set[str] = set()
            frontier = list(self._ch[u])
            while frontier:
                w = frontier.pop()
                if w in reach:
                    continue
                reach.add(w)
                if w in self.hidden:
                    frontier.extend(self._ch[w])
            hreach[u] = reach

        directed = [(u, w) for u in observed for w in hreach[u] & obs]
        bidirected = []
        for h in sorted(self.hidden):
            ends = sorted(hreach[h] & obs)
            for i, a in enumerate(ends):
                for b in ends[i + 1:]:
                    bidirected.append((a, b))
        return MixedGraph(random=observed, directed=directed, bidirected=bidirected)

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "hidden": sorted(self.hidden),
            "fixed": list(self.fixed),
            "directed": sorted([t, h] for t, h in self.directed),
            "bidirected": sorted(sorted(e) for e in self.bidirected),
        }

    def to_json(self) -> str:
        """Canonical JSON form: sorted vertices and edges, two-space indent."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "MixedGraph":
        if not isinstance(data, dict):
            raise GraphError("graph JSON must be an object")
        unknown = set(data) - set(_GRAPH_JSON_KEYS)
        if unknown:
            raise GraphError(f"unknown keys in graph JSON: {sorted(unknown)}")
        for key in ("vertices", "directed", "bidirected"):
            if key not in data:
                raise GraphError(f"graph JSON missing required key {key!r}")
        fields = {key: data.get(key, []) for key in _GRAPH_JSON_KEYS}
        for key, value in fields.items():
            item = list if key in ("directed", "bidirected") else str
            if not isinstance(value, list) or not all(isinstance(x, item) for x in value):
                what = "edges, each an array of two vertex names" if item is list else "vertex names"
                raise GraphError(f"graph JSON {key!r} must be an array of {what}")
        fixed = set(fields["fixed"])
        for v in fields["fixed"]:
            if v not in fields["vertices"]:
                raise UnknownVertexError(v)
        return cls(
            random=[v for v in fields["vertices"] if v not in fixed],
            fixed=fields["fixed"],
            hidden=fields["hidden"],
            directed=fields["directed"],
            bidirected=fields["bidirected"],
        )

    @classmethod
    def from_json(cls, text: str) -> "MixedGraph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid graph JSON: {exc}") from exc
        except RecursionError:
            raise GraphError("invalid graph JSON: nested too deeply") from None
        return cls.from_dict(data)

    # --------------------------------------------------------------- equality

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (
            self.random == other.random
            and self.fixed == other.fixed
            and self.hidden == other.hidden
            and self.directed == other.directed
            and self.bidirected == other.bidirected
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self,
                "_hash",
                hash((self.random, self.fixed, self.hidden, self.directed, self.bidirected)),
            )
        return self._hash

    def __repr__(self) -> str:
        parts = [f"random={list(self.random)}"]
        if self.fixed:
            parts.append(f"fixed={list(self.fixed)}")
        if self.hidden:
            parts.append(f"hidden={sorted(self.hidden)}")
        parts.append(f"directed={sorted(self.directed)}")
        parts.append(f"bidirected={sorted(sorted(e) for e in self.bidirected)}")
        return "MixedGraph(" + ", ".join(parts) + ")"
