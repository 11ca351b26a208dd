"""Ground truth: discrete SCMs, exact joints, and truncated-factorization
interventions for verifying symbolic estimands.

Everything here is dense and exact (up to float rounding); the intended scale
is desk-sized graphs (a handful of variables with small cardinalities).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from ._record import Record
from .errors import GraphError
from .estimand import Evaluator
from .graph import MixedGraph
from .identify import Identified, Query
from .tables import ProbTable

POSITIVITY_FLOOR = 1e-3
# Each table is one contraction whose index space spans every vertex, hidden
# ones included; this bounds the cells it enumerates.
MAX_JOINT_CELLS = 2**24


def _check_cards(g: MixedGraph, cards: Mapping[str, int]) -> None:
    """The one cardinality check: each vertex has a cardinality of at least
    2, and the joint over all of them at most ``MAX_JOINT_CELLS`` cells."""
    for v in g.random:
        if v not in cards:
            raise GraphError(f"missing cardinality for {v!r}")
        if int(cards[v]) < 2:
            raise GraphError(f"cardinality of {v!r} must be at least 2")
    cells = math.prod(int(cards[v]) for v in g.random)
    if cells > MAX_JOINT_CELLS:
        raise GraphError(
            f"the joint over all {len(g.random)} vertices has {cells} cells, "
            f"above the oracle's limit of {MAX_JOINT_CELLS}"
        )


class DiscreteScm(Record, eq=False):
    """A DAG (possibly with hidden vertices) plus one CPT per vertex.

    CPT axes are the vertex's parents in lexicographic order followed by the
    vertex itself; every row is a distribution with all entries at least
    ``POSITIVITY_FLOOR``. The joint over all vertices may have at most
    ``MAX_JOINT_CELLS`` cells.
    """

    graph: MixedGraph
    cards: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]

    def __init__(
        self, graph: MixedGraph, cards: Mapping[str, int], cpts: Mapping[str, np.ndarray]
    ):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "cpts", cpts)
        g = self.graph
        if g.bidirected or g.fixed:
            raise GraphError("an SCM graph must be a DAG (hidden vertices allowed)")
        _check_cards(g, self.cards)
        for v in g.random:
            if v not in self.cpts:
                raise GraphError(f"missing CPT for {v!r}")
            cpt = self.cpts[v]
            expected = tuple(self.cards[p] for p in sorted(g.parents({v}))) + (self.cards[v],)
            if tuple(cpt.shape) != expected:
                raise GraphError(
                    f"CPT for {v!r} has shape {cpt.shape}, expected {expected}"
                )
            if not np.all(np.isfinite(cpt)):
                raise GraphError(f"CPT for {v!r} has non-finite entries")
            rows = cpt.sum(axis=-1)
            if np.max(np.abs(rows - 1.0)) > 1e-12:
                raise GraphError(f"CPT rows for {v!r} do not sum to 1")
            if cpt.min() < POSITIVITY_FLOOR - 1e-12:
                raise GraphError(f"CPT for {v!r} violates the positivity floor")

    @property
    def observed(self) -> Tuple[str, ...]:
        return tuple(v for v in self.graph.random if v not in self.graph.hidden)


def random_scm(g: MixedGraph, cards: Mapping[str, int], seed: int) -> DiscreteScm:
    """Seeded SCM generator; part of the external contract.

    For each vertex in lexicographic order, draw one uniform(0,1) variate per
    CPT cell with ``numpy.random.default_rng(seed)`` (row-major), normalize
    each row, then mix with the uniform distribution at weight
    ``cardinality * POSITIVITY_FLOOR`` so every entry is at least the floor.
    Raises ``GraphError``, before drawing anything, when a cardinality is
    missing or below 2, or when the joint over all vertices would have more
    than ``MAX_JOINT_CELLS`` cells.
    """
    _check_cards(g, cards)
    rng = np.random.default_rng(seed)
    cpts: Dict[str, np.ndarray] = {}
    for v in g.random:
        card = int(cards[v])
        shape = tuple(int(cards[p]) for p in sorted(g.parents({v}))) + (card,)
        raw = rng.random(size=shape)
        rows = raw / raw.sum(axis=-1, keepdims=True)
        lam = card * POSITIVITY_FLOOR
        cpts[v] = (1.0 - lam) * rows + lam / card
    return DiscreteScm(graph=g, cards=dict(cards), cpts=cpts)


def _contract(
    scm: DiscreteScm, treatments: Iterable[str], keep: Iterable[str]
) -> Tuple[Tuple[str, ...], np.ndarray]:
    """The truncated factorization summed over every vertex not in ``keep``,
    as one ``einsum`` with an integer label per vertex: each treatment's CPT
    is dropped and a vector of ones keeps its axis, so the table holds the
    distribution of the other kept vertices under every treatment value at
    once. ``keep`` must hold the treatments; its axes come out sorted. The
    leading 0-d operand keeps the list non-empty on a graph with no
    vertices."""
    g = scm.graph
    treatments = set(treatments)
    label = {v: i for i, v in enumerate(g.random)}
    operands = [np.ones(()), []]
    for v in g.random:
        if v in treatments:
            operands += [np.ones(scm.cards[v]), [label[v]]]
        else:
            operands += [scm.cpts[v], [label[x] for x in sorted(g.parents({v})) + [v]]]
    kept = tuple(sorted(keep))
    return kept, np.einsum(*operands, [label[v] for v in kept])


def observed_joint(scm: DiscreteScm) -> ProbTable:
    """Exact observed joint: product of all CPTs with hidden vertices summed out."""
    variables, values = _contract(scm, (), scm.observed)
    return ProbTable(variables, tuple(scm.cards[v] for v in variables), values)


def interventional(
    scm: DiscreteScm, treatments: Mapping[str, int], outcomes: Iterable[str]
) -> ProbTable:
    """Truncated factorization on the full hidden-variable DAG.

    Drops each treatment's CPT, holds the treatment at its value in all
    remaining CPTs, and sums out everything but ``outcomes``.
    """
    outcomes = set(outcomes)
    obs = set(scm.observed)
    if set(treatments) & outcomes:
        raise GraphError("treatments and outcomes must be disjoint")
    if not (set(treatments) | outcomes) <= obs:
        raise GraphError("treatments and outcomes must be observed vertices")
    for v, value in treatments.items():
        card = scm.cards[v]
        if not 0 <= int(value) < card:
            raise GraphError(f"value {value!r} out of range for {v!r} (cardinality {card})")
    variables, values = _contract(scm, treatments, outcomes | set(treatments))
    kept = tuple(v for v in variables if v not in treatments)
    at = tuple(int(treatments[v]) if v in treatments else slice(None) for v in variables)
    return ProbTable(kept, tuple(scm.cards[v] for v in kept), values[at])


class VerificationReport(Record):
    """The comparison over every point. ``worst`` assigns a value to each
    outcome and treatment at a point of largest deviation, where the
    estimand gives ``got`` and the truth ``want``. A NaN deviation fails."""

    max_deviation: float
    tolerance: float
    points: int
    worst: Mapping[str, int]
    got: float
    want: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "points": self.points,
            "passed": self.passed,
            "worst_point": {"assignment": dict(self.worst), "got": self.got, "want": self.want},
        }


def verify(
    scm: DiscreteScm, query: Query, result: Identified, tol: float = 1e-9
) -> VerificationReport:
    """Compare the identified estimand against ground truth, pointwise over
    every joint assignment of outcomes and treatment values.

    The truth is one table over the outcomes and treatments; the estimand is
    read on the same grid in one ``Evaluator.evaluate`` call."""
    if not isinstance(result, Identified) or not result.identified:
        raise GraphError("verification requires an identified result")
    if query != result.query:
        raise GraphError(f"the result answers {result.query}, not {query}")
    projection = scm.graph.latent_project() if scm.graph.hidden else scm.graph
    if projection != result.graph:
        raise GraphError("the SCM's latent projection differs from the identified graph")
    joint = observed_joint(scm)
    variables, want = _contract(scm, query.treatments, query.outcomes + query.treatments)
    treated = [i for i, v in enumerate(variables) if v in query.treatments]
    totals = np.einsum(want, range(want.ndim), treated)
    if not np.all(np.abs(totals - 1.0) <= 1e-12):
        raise GraphError("an interventional distribution does not sum to 1")
    # one index array per axis, each along its own axis, so they broadcast
    # to the whole grid; treatments are bound by their labels
    labels = result.treatment_labels
    grid = {
        labels.get(v, v): np.arange(n).reshape([-1 if i == k else 1 for i in range(want.ndim)])
        for k, (v, n) in enumerate(zip(variables, want.shape))
    }
    got = np.broadcast_to(Evaluator(joint).evaluate(result.estimand, grid), want.shape)
    dev = np.abs(got - want)
    at = np.unravel_index(dev.argmax(), dev.shape)  # argmax finds a NaN first
    return VerificationReport(
        max_deviation=float(dev[at]),
        tolerance=tol,
        points=int(dev.size),
        worst=dict(zip(variables, map(int, at))),
        got=float(got[at]),
        want=float(want[at]),
    )
