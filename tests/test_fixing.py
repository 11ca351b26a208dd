import random as pyrandom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalid import (
    FixingSequence,
    GraphError,
    MixedGraph,
    NotFixableError,
    NotReachable,
    UnknownVertexError,
    find_valid_sequence,
    fix,
    fix_all,
    is_fixable,
    is_intrinsic,
    reachable_closure,
)
from helpers import (
    chain,
    exhaustive_valid_orderings,
    induced_subgraph,
    random_admg,
    random_hidden_dag,
)


# ----------------------------------------------------------------- fixability

def test_fixable_fig1c(fig1c):
    assert is_fixable(fig1c, "A1")
    assert is_fixable(fig1c, "Y")
    assert not is_fixable(fig1c, "W")
    assert not is_fixable(fig1c, "A2")


def test_fixable_rejects_fixed_and_unknown(fig1c):
    cadmg = fix(fig1c, "A1")
    with pytest.raises(GraphError):
        is_fixable(cadmg, "A1")
    with pytest.raises(UnknownVertexError):
        is_fixable(fig1c, "Z")


def test_fix_removes_incoming_edges(fig1c):
    cadmg = fix(fig1c, "A1")
    assert cadmg.fixed == ("A1",)
    assert ("W", "A1") not in cadmg.directed
    assert ("A1", "Y") in cadmg.directed  # outgoing edges survive


def test_fix_unfixable_raises(fig1c):
    with pytest.raises(NotFixableError):
        fix(fig1c, "A2")


def test_fix_all_replay(fig1c):
    final = fix_all(fig1c, ["A1", "W", "A2"])
    assert final == MixedGraph(
        random=["Y"],
        fixed=["A1", "A2", "W"],
        directed=[("A1", "Y"), ("A2", "Y")],
    )


def test_fix_all_reports_failing_step(fig1c):
    with pytest.raises(NotFixableError, match=r"'A2' not fixable at step 1"):
        fix_all(fig1c, ["A2", "A1"])


def test_fixing_sequence_rejects_repeats():
    with pytest.raises(GraphError):
        FixingSequence(steps=("A", "A"))


# ------------------------------------------------------------- greedy search

def test_find_valid_sequence_fig1c(fig1c):
    seq = find_valid_sequence(fig1c, {"A1", "W", "A2"})
    assert isinstance(seq, FixingSequence)
    assert set(seq) == {"A1", "W", "A2"}
    fix_all(fig1c, seq)  # must replay cleanly


def test_find_valid_sequence_stuck(fig1c):
    res = find_valid_sequence(fig1c, {"A1", "A2"})
    assert isinstance(res, NotReachable)
    assert res.residual == ("A2",)


def test_find_valid_sequence_fixes_sinks_first():
    g = chain(10)
    seq = find_valid_sequence(g, [f"V{i}" for i in range(9)])
    assert seq.steps == tuple(f"V{i}" for i in range(8, -1, -1))


def test_find_valid_sequence_empty(fig1c):
    seq = find_valid_sequence(fig1c, set())
    assert isinstance(seq, FixingSequence) and len(seq) == 0


def test_find_valid_sequence_unknown_target(fig1c):
    with pytest.raises(UnknownVertexError):
        find_valid_sequence(fig1c, {"Z"})


# -------------------------------------------------------------- reachability

def test_reachable_closure_fixtures(fig1c):
    assert reachable_closure(fig1c, {"Y"}) == {"Y"}
    assert reachable_closure(fig1c, {"W", "Y"}) == {"A2", "W", "Y"}
    assert reachable_closure(fig1c, {"A2"}) == {"A2"}


def test_reachable_closure_unknown(fig1c):
    with pytest.raises(UnknownVertexError):
        reachable_closure(fig1c, {"Z"})


def test_intrinsic_fixtures(fig1c):
    assert is_intrinsic(fig1c, {"Y"})
    assert is_intrinsic(fig1c, {"A2", "W", "Y"})
    assert not is_intrinsic(fig1c, {"W", "Y"})  # closure adds A2
    assert not is_intrinsic(fig1c, {"A1", "Y"})  # not bidirected-connected
    with pytest.raises(GraphError):
        is_intrinsic(fig1c, set())


# ------------------------------------------------------ properties / oracles

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fix_never_adds_edges(seed):
    rng = pyrandom.Random(seed)
    g = random_admg(rng, 5)
    for r in g.random:
        if not is_fixable(g, r):
            continue
        h = fix(g, r)
        assert h.directed <= g.directed
        assert h.bidirected <= g.bidirected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fixability_is_monotone_under_fixing(seed):
    # once fixable, a vertex stays fixable as others are fixed
    rng = pyrandom.Random(seed)
    g = random_admg(rng, 5)
    fixable = {r for r in g.random if is_fixable(g, r)}
    for r in sorted(fixable):
        h = fix(g, r)
        for other in fixable - {r}:
            assert is_fixable(h, other)


def test_order_invariance_of_valid_sequences():
    # every valid ordering of the same target set yields the same CADMG
    rng = pyrandom.Random(33)
    checked = 0
    while checked < 25:
        g = random_admg(rng, 5)
        names = list(g.random)
        targets = rng.sample(names, rng.randint(2, 4))
        orders = exhaustive_valid_orderings(g, targets)
        if len(orders) < 2:
            continue
        results = {fix_all(g, o) for o in orders}
        assert len(results) == 1
        checked += 1


def test_greedy_search_is_complete():
    # greedy succeeds exactly when some ordering exists
    rng = pyrandom.Random(77)
    hits = 0
    for _ in range(120):
        g = random_admg(rng, 6)
        names = list(g.random)
        targets = rng.sample(names, rng.randint(1, 4))
        orders = exhaustive_valid_orderings(g, targets)
        res = find_valid_sequence(g, targets)
        if orders:
            assert isinstance(res, FixingSequence)
            assert tuple(res) in orders
            for i, r in enumerate(res.steps):
                assert res.descendants[i] == fix_all(g, res.steps[:i]).descendants({r})
            hits += 1
        else:
            assert isinstance(res, NotReachable)
    assert hits > 10  # the sweep actually exercised both branches


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_closure_operator_laws(seed):
    rng = pyrandom.Random(seed)
    g = random_admg(rng, 5)
    names = list(g.random)
    s = set(rng.sample(names, rng.randint(1, 4)))
    cl = reachable_closure(g, s)
    assert s <= cl
    assert reachable_closure(g, cl) == cl  # idempotent
    t = s | {rng.choice(names)}
    assert cl <= reachable_closure(g, t) | t  # monotone up to the added seed


def assert_same_as_validated(h):
    rebuilt = MixedGraph.from_dict(h.to_dict())
    assert h == rebuilt and hash(h) == hash(rebuilt)
    assert all(h.children({v}) == rebuilt.children({v}) for v in h.vertices)
    assert all(h.parents({v}) == rebuilt.parents({v}) for v in h.vertices)
    assert h.districts() == rebuilt.districts()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_derived_graphs_equal_validated_ones(seed):
    # fix and induced_subgraph pass the constructor fields cut from a valid
    # graph; what they build must be the graph read back from its JSON form
    rng = pyrandom.Random(seed)
    g = random_admg(rng, rng.randint(1, 7))
    for r in g.random:
        if is_fixable(g, r):
            h = fix(g, r)
            assert_same_as_validated(h)
            for r2 in h.random:
                if is_fixable(h, r2):
                    assert_same_as_validated(fix(h, r2))
    for k in range(len(g.random) + 1):
        assert_same_as_validated(induced_subgraph(g, rng.sample(list(g.random), k)))
    hidden_dag = random_hidden_dag(rng, rng.randint(1, 4), rng.randint(1, 3))
    names = list(hidden_dag.random)
    subset = rng.sample(names, rng.randint(0, len(names)))
    assert_same_as_validated(induced_subgraph(hidden_dag, subset))
