import copy
import pickle
import random as pyrandom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalid import (
    CycleError,
    GraphError,
    MixedGraph,
    QueryError,
    UnknownVertexError,
    fix,
    is_fixable,
)
from helpers import (
    brute_ancestors,
    brute_ancestral_avoiding,
    brute_descendants,
    brute_districts,
    random_admg,
    random_hidden_dag,
)


# ----------------------------------------------------------------- validation

def test_rejects_cycle():
    with pytest.raises(CycleError) as err:
        MixedGraph(random=["A", "B"], directed=[("A", "B"), ("B", "A")])
    assert "A" in str(err.value) and "B" in str(err.value)


def test_rejects_cycle_upstream_of_a_lesser_vertex():
    # A is left over by the topological sort but has no child on the cycle
    with pytest.raises(CycleError) as err:
        MixedGraph(random=["A", "B", "C"], directed=[("B", "C"), ("C", "B"), ("B", "A")])
    assert err.value.cycle == ["B", "C"]
    assert str(err.value) == "cycle detected: B -> C -> B"


def test_rejects_self_loop():
    with pytest.raises(GraphError):
        MixedGraph(random=["A"], directed=[("A", "A")])
    with pytest.raises(GraphError):
        MixedGraph(random=["A"], bidirected=[("A", "A")])


def test_rejects_bad_names():
    with pytest.raises(GraphError):
        MixedGraph(random=[""])
    for bad in ["a b", "a|b", "a,b", "a;b"]:
        with pytest.raises(GraphError):
            MixedGraph(random=[bad])


def test_rejects_arrowheads_into_fixed():
    with pytest.raises(GraphError):
        MixedGraph(random=["A"], fixed=["S"], directed=[("A", "S")])
    with pytest.raises(GraphError):
        MixedGraph(random=["A"], fixed=["S"], bidirected=[("A", "S")])


def test_rejects_hidden_with_bidirected_or_fixed():
    with pytest.raises(GraphError):
        MixedGraph(random=["A", "B", "H"], hidden=["H"], bidirected=[("A", "B")])
    with pytest.raises(GraphError):
        MixedGraph(random=["A", "H"], fixed=["S"], hidden=["H"])


def test_rejects_unknown_edge_endpoint():
    with pytest.raises(UnknownVertexError):
        MixedGraph(random=["A"], directed=[("A", "B")])


# ----------------------------------------------------------------- projection

def test_projection_fig1b_to_fig1c(fig1b, fig1c):
    assert fig1b.latent_project() == fig1c


def test_projection_identity_without_hidden(fig1a):
    assert fig1a.latent_project() == fig1a
    # idempotent on its own output
    proj = fig1a.latent_project()
    assert proj.latent_project() == proj


def test_projection_chain_and_fork():
    chain = MixedGraph(random=["H", "X", "Y"], hidden=["H"],
                       directed=[("X", "H"), ("H", "Y")])
    assert chain.latent_project() == MixedGraph(random=["X", "Y"], directed=[("X", "Y")])
    fork = MixedGraph(random=["H", "X", "Y"], hidden=["H"],
                      directed=[("H", "X"), ("H", "Y")])
    assert fork.latent_project() == MixedGraph(random=["X", "Y"], bidirected=[("X", "Y")])


def test_projection_rejects_admg_input(fig1d):
    with pytest.raises(GraphError):
        fig1d.latent_project()


def test_projection_collider_through_hidden_is_not_bidirected():
    # X -> H <- Y : the only H-interior path between X and Y has a collider
    g = MixedGraph(random=["H", "X", "Y"], hidden=["H"],
                   directed=[("X", "H"), ("Y", "H")])
    assert g.latent_project() == MixedGraph(random=["X", "Y"])


def test_projection_agrees_with_brute_force_on_random_dags():
    rng = pyrandom.Random(20)
    for _ in range(60):
        g = random_hidden_dag(rng, n_obs=4, n_hidden=2)
        proj = g.latent_project()
        obs = sorted(set(g.random) - g.hidden)
        for a in obs:
            for b in obs:
                if a == b:
                    continue
                has_dir = any(
                    set(p[1:-1]) <= g.hidden
                    for p in _simple_directed_paths(g, a, b)
                )
                assert ((a, b) in proj.directed) == has_dir
        for a in obs:
            for b in obs:
                if a >= b:
                    continue
                has_trek = any(
                    h in g.hidden
                    and any(set(p[1:-1]) <= g.hidden for p in _simple_directed_paths(g, h, a))
                    and any(set(p[1:-1]) <= g.hidden for p in _simple_directed_paths(g, h, b))
                    for h in g.hidden
                )
                assert (frozenset({a, b}) in proj.bidirected) == has_trek


def _simple_directed_paths(g, s, t):
    from helpers import directed_paths

    return directed_paths(g, s, t)


# ------------------------------------------------------------------- ancestry

def test_descendants_fig1c(fig1c):
    assert fig1c.descendants({"A1"}) == {"A1", "Y"}


def test_ancestors_empty_set(fig1c):
    assert fig1c.ancestors(set()) == frozenset()


def test_parents_fig1d(fig1d):
    assert fig1d.parents({"M"}) == {"A", "C"}


def test_children_exclude_the_set(fig1d):
    assert fig1d.children({"C", "A"}) == {"M", "Y"}


def test_ancestry_unknown_vertex(fig1d):
    with pytest.raises(UnknownVertexError):
        fig1d.ancestors({"nope"})


def test_ancestry_matches_brute_force():
    rng = pyrandom.Random(4)
    for _ in range(40):
        g = random_admg(rng, 5)
        sample = rng.sample(list(g.random), rng.randint(1, 3))
        assert g.ancestors(sample) == brute_ancestors(g, sample)
        assert g.descendants(sample) == brute_descendants(g, sample)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_ancestors_idempotent_and_monotone(seed):
    rng = pyrandom.Random(seed)
    g = random_admg(rng, 5)
    s = set(rng.sample(list(g.random), rng.randint(1, 4)))
    bigger = s | {rng.choice(list(g.random))}
    anc = g.ancestors(s)
    assert s <= anc
    assert g.ancestors(anc) == anc
    assert anc <= g.ancestors(bigger)
    desc = g.descendants(s)
    assert g.descendants(desc) == desc


# ------------------------------------------------------------------ districts

def test_districts_fig1e(fig1e):
    assert fig1e.districts() == [("C",), ("M",), ("Y",)]


def test_districts_fig1c(fig1c):
    assert fig1c.districts() == [("A1",), ("A2", "W", "Y")]


def test_districts_all_singletons_without_bidirected(fig1a):
    assert fig1a.districts() == [(v,) for v in fig1a.random]


def test_districts_partition_random_graphs():
    rng = pyrandom.Random(11)
    for _ in range(40):
        g = random_admg(rng, 6)
        blocks = g.districts()
        assert blocks == brute_districts(g)
        flat = [v for b in blocks for v in b]
        assert sorted(flat) == list(g.random)
        assert len(set(flat)) == len(flat)
        # no bidirected edge crosses two blocks
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        for e in g.bidirected:
            u, v = sorted(e)
            assert block_of[u] == block_of[v]


# ----------------------------------------------------------- induced subgraph

def test_induced_subgraph_fig1d_is_fig1e(fig1d, fig1e):
    assert fig1d.induced_subgraph({"C", "M", "Y"}) == fig1e


def test_induced_subgraph_full_is_identity(fig1c):
    assert fig1c.induced_subgraph(fig1c.vertices) == fig1c


def test_induced_subgraph_keeps_only_internal_edges(fig1c):
    sub = fig1c.induced_subgraph({"W", "Y"})
    assert sub == MixedGraph(random=["W", "Y"], bidirected=[("W", "Y")])


def random_shape(rng, shape):
    """A random ADMG, a CADMG reached from one by random fixable steps, or a
    hidden DAG."""
    if shape == "hidden":
        return random_hidden_dag(rng, rng.randint(1, 5), rng.randint(1, 3))
    g = random_admg(rng, rng.randint(1, 7))
    while shape == "cadmg" and rng.random() < 0.7:
        fixable = [r for r in g.random if is_fixable(g, r)]
        if not fixable:
            break
        g = fix(g, rng.choice(fixable))
    return g


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["admg", "cadmg", "hidden"]))
def test_queries_within_a_set_are_queries_of_its_induced_subgraph(seed, shape):
    rng = pyrandom.Random(seed)
    g = random_shape(rng, shape)
    names = list(g.vertices)
    s = set(rng.sample(names, rng.randint(0, len(names))))
    sub = g.induced_subgraph(s)
    assert g.districts(within=s) == sub.districts()
    for v in sorted(s):
        vs = {v} | set(rng.sample(sorted(s), rng.randint(0, len(s))))
        assert g.ancestors(vs, within=s) == sub.ancestors(vs)
        assert g.descendants(vs, within=s) == sub.descendants(vs)
        if v in sub.random:
            assert g.district_of(v, within=s) == sub.district_of(v)
    for v in set(names) - s:  # a vertex outside the set is unknown to the subgraph
        with pytest.raises(UnknownVertexError):
            g.ancestors({v}, within=s)


# --------------------------------------------------------- ancestral avoiding

def test_ystar_fig1d(fig1d):
    assert fig1d.ancestral_avoiding({"Y"}, {"A"}) == {"Y", "M", "C"}


def test_ystar_fig1c_full(fig1c):
    assert fig1c.ancestral_avoiding({"Y"}, {"A1", "A2"}) == {"Y"}


def test_ystar_fig1c_sub(fig1c):
    assert fig1c.ancestral_avoiding({"Y"}, {"A2"}) == {"Y", "A1", "W"}


def test_ystar_empty_avoid_is_ancestors(fig1d):
    assert fig1d.ancestral_avoiding({"Y"}, set()) == fig1d.ancestors({"Y"})


def test_ystar_overlap_rejected(fig1d):
    with pytest.raises(QueryError):
        fig1d.ancestral_avoiding({"Y"}, {"Y"})


def test_ystar_matches_brute_force():
    rng = pyrandom.Random(9)
    for _ in range(40):
        g = random_admg(rng, 5)
        names = list(g.random)
        y = set(rng.sample(names, 2))
        a = set(rng.sample([v for v in names if v not in y], 2))
        assert g.ancestral_avoiding(y, a) == brute_ancestral_avoiding(g, y, a)


# -------------------------------------------------------------- serialization

def test_json_round_trip(fig1b, fig1c, fig1d):
    for g in (fig1b, fig1c, fig1d):
        assert MixedGraph.from_json(g.to_json()) == g


def test_json_rejects_unknown_keys():
    with pytest.raises(GraphError):
        MixedGraph.from_json('{"vertices": ["A"], "directed": [], "bidirected": [], "bogus": 1}')


MALFORMED_GRAPH_FIELDS = {
    "directed-triple": {"directed": [["A", "B", "C"]]},
    "directed-number": {"directed": [5]},
    "bidirected-number": {"bidirected": [7]},
    "directed-string": {"directed": ["AB"]},
    "bidirected-string": {"bidirected": ["AB"]},
    "vertices-string": {"vertices": "AB"},
    "hidden-object": {"hidden": {"A": 1}},
    "fixed-nested": {"fixed": [["A"]]},
    "edge-nested-name": {"directed": [["A", ["B"]]]},
}


@pytest.mark.parametrize("fields", MALFORMED_GRAPH_FIELDS.values(), ids=MALFORMED_GRAPH_FIELDS)
def test_json_rejects_malformed_fields(fields):
    # each would otherwise end in a TypeError or ValueError, or be split
    # into one-character names
    data = {"vertices": ["A", "B", "C"], "directed": [], "bidirected": [], **fields}
    with pytest.raises(GraphError):
        MixedGraph.from_dict(data)


@pytest.mark.parametrize("edge", [("A", "B", "C"), ("A",), 5, "AB", {"A", "B"}])
def test_directed_edge_must_be_a_pair(edge):
    with pytest.raises(GraphError, match="directed edge must be a pair"):
        MixedGraph(random=["A", "B", "C"], directed=[edge])


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["unclosed", "well-formed"])
def test_json_nested_too_deeply_is_a_graph_error(text):
    with pytest.raises(GraphError, match="nested too deeply"):
        MixedGraph.from_json(text)


def test_pickle_and_deepcopy_rebuild_through_the_constructor(fig1d):
    cadmg = fix(fig1d, "Y")
    for g in (fig1d, cadmg, MixedGraph(random=["H", "Y"], hidden=["H"], directed=[("H", "Y")])):
        for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert copied == g and hash(copied) == hash(g) and copied is not g
            assert copied.districts() == g.districts()


def test_json_requires_mandatory_keys():
    with pytest.raises(GraphError):
        MixedGraph.from_json('{"vertices": ["A"]}')


def test_json_bidirected_order_insensitive():
    a = MixedGraph.from_json('{"vertices": ["A","B"], "directed": [], "bidirected": [["A","B"]]}')
    b = MixedGraph.from_json('{"vertices": ["A","B"], "directed": [], "bidirected": [["B","A"]]}')
    assert a == b


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_json_round_trip_random_graphs(seed):
    rng = pyrandom.Random(seed)
    g = random_admg(rng, rng.randint(1, 6))
    assert MixedGraph.from_json(g.to_json()) == g
