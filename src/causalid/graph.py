"""Mixed graphs and their structural queries.

A single :class:`MixedGraph` covers three shapes of input:

* a DAG with designated hidden vertices (``hidden`` nonempty, no bidirected
  edges, no fixed vertices),
* an ADMG (directed + bidirected edges, everything random),
* a CADMG (vertices partitioned into ``random`` and ``fixed``).

All graphs are immutable after construction; every operation returns a new
graph or a plain value. Sets are externalized in sorted order so outputs are
deterministic.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

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
        self._assign(
            tuple(sorted({_check_name(v) for v in random})),
            tuple(sorted({_check_name(v) for v in fixed})),
            frozenset(_check_name(v) for v in hidden),
            frozenset(_edge(e, "directed") for e in directed),
            frozenset(frozenset(_edge(e, "bidirected")) for e in bidirected),
        )
        self._validate()
        self._index()

    @classmethod
    def _derived(cls, random, fixed, hidden, directed, bidirected) -> "MixedGraph":
        """A graph cut from a valid one, built without re-validation.

        The caller passes the fields in normalized form (sorted tuples of
        names, a frozenset of names, a frozenset of ``(tail, head)`` tuples and
        a frozenset of two-element frozensets), so the result is equal, with an
        equal hash, to what the validating constructor would build.
        """
        g = cls.__new__(cls)
        g._assign(random, fixed, hidden, directed, bidirected)
        g._index()
        return g

    def _assign(self, rnd, fxd, hid, dedges, bedges) -> None:
        object.__setattr__(self, "random", rnd)
        object.__setattr__(self, "fixed", fxd)
        object.__setattr__(self, "hidden", hid)
        object.__setattr__(self, "directed", dedges)
        object.__setattr__(self, "bidirected", bedges)

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

    # ------------------------------------------------------------------ basics

    @property
    def vertices(self) -> Tuple[str, ...]:
        return tuple(sorted(self.random + self.fixed))

    def is_random(self, v: str) -> bool:
        return v in set(self.random)

    def _require(self, vs: Iterable[str]) -> Set[str]:
        known = set(self.random) | set(self.fixed)
        vs = set(vs)
        for v in vs:
            if v not in known:
                raise UnknownVertexError(v)
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
        indeg = {v: 0 for v in set(self.random) | set(self.fixed)}
        for _, h in self.directed:
            indeg[h] += 1
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        ch: Dict[str, List[str]] = {v: [] for v in indeg}
        for t, h in self.directed:
            ch[t].append(h)
        while queue:
            v = queue.pop()
            seen += 1
            for c in ch[v]:
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
                cur = min(t for t, h in self.directed if h == cur and t in leftover)
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

    def _closure(self, vs: Set[str], step: Dict[str, Set[str]]) -> FrozenSet[str]:
        out = set(vs)
        frontier = list(vs)
        while frontier:
            nxt = step[frontier.pop()]
            for u in nxt:
                if u not in out:
                    out.add(u)
                    frontier.append(u)
        return frozenset(out)

    def ancestors(self, vs: Iterable[str]) -> FrozenSet[str]:
        """Reflexive-transitive closure along incoming directed edges."""
        return self._closure(self._require(vs), self._pa)

    def descendants(self, vs: Iterable[str]) -> FrozenSet[str]:
        """Reflexive-transitive closure along outgoing directed edges."""
        return self._closure(self._require(vs), self._ch)

    # -------------------------------------------------------------- districts

    def district_of(self, v: str) -> FrozenSet[str]:
        """Bidirected-connected component of ``v`` among random vertices."""
        self._require([v])
        if not self.is_random(v):
            raise GraphError(f"district_of requires a random vertex, {v!r} is fixed")
        return self._closure({v}, self._sib)

    def districts(self) -> List[Tuple[str, ...]]:
        """Partition of the random vertices into bidirected-connected blocks.

        Blocks are sorted by their least vertex name.
        """
        seen: Set[str] = set()
        blocks: List[Tuple[str, ...]] = []
        for v in self.random:
            if v not in seen:
                block = self.district_of(v)
                seen |= block
                blocks.append(tuple(sorted(block)))
        blocks.sort(key=lambda b: b[0])
        return blocks

    # ------------------------------------------------------------- subgraphs

    def induced_subgraph(self, vs: Iterable[str]) -> "MixedGraph":
        vs = self._require(vs)
        return MixedGraph._derived(
            random=tuple(v for v in self.random if v in vs),
            fixed=tuple(v for v in self.fixed if v in vs),
            hidden=self.hidden & vs,
            directed=frozenset((t, h) for t, h in self.directed if t in vs and h in vs),
            bidirected=frozenset(e for e in self.bidirected if e <= vs),
        )

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
        keep = (set(self.random) | set(self.fixed)) - avoid
        return self.induced_subgraph(keep).ancestors(outcomes)

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
