import itertools
import random as pyrandom
import sys

import pytest

import causalid.fixing
from causalid import (
    Evaluator,
    GraphError,
    HedgeWitness,
    Identified,
    MixedGraph,
    NotIdentified,
    NotReachable,
    Query,
    QueryError,
    decompose,
    failure_characterizations,
    find_hedge,
    hedge_violation,
    identify,
    identify_district,
    is_hedge,
    random_scm,
    reachable_closure,
    render_text,
    simplify,
    verify,
    well_formed,
)
from conftest import load_fig
from helpers import (
    brute_rooted_forest,
    chain,
    random_admg,
    random_positive_joint,
    random_hidden_dag,
    random_query_sets,
    tian_kernel,
    tree_nodes,
)


def joint_for(g, seed=0, card=2):
    names = tuple(g.random)
    return random_positive_joint(seed, names, (card,) * len(names))


# --------------------------------------------------------------------- query

def test_query_normalizes_and_validates(fig1d):
    q = Query(outcomes=("Y",), treatments=("A",))
    q.validate(fig1d)
    with pytest.raises(QueryError):
        Query(outcomes=("Y",), treatments=()).validate(
            fig1d.induced_subgraph({"A", "C", "M"}))
    with pytest.raises(QueryError):
        Query(outcomes=("Y",), treatments=("Y",)).validate(fig1d)


def test_identify_requires_projection(fig1b):
    with pytest.raises(QueryError, match="project"):
        identify(fig1b, Query(outcomes=("Y",), treatments=("A1",)))


# --------------------------------------------------------------- decompose

def test_decompose_fig1d():
    dec = None
    from conftest import load_fig

    g = load_fig("fig1d")
    dec = decompose(g, Query(outcomes=("Y",), treatments=("A",)))
    assert dec.ystar == ("C", "M", "Y")
    assert dec.districts == (("C",), ("M",), ("Y",))
    assert dec.contexts[("C",)] == ()
    assert dec.contexts[("M",)] == ("A", "C")
    assert dec.contexts[("Y",)] == ("C", "M")


def test_decompose_fig1c_full(fig1c):
    dec = decompose(fig1c, Query(outcomes=("Y",), treatments=("A1", "A2")))
    assert dec.ystar == ("Y",)
    assert dec.districts == (("Y",),)
    assert dec.contexts[("Y",)] == ("A1", "A2")


def test_decompose_fig1c_sub(fig1c):
    dec = decompose(fig1c, Query(outcomes=("Y",), treatments=("A2",)))
    assert dec.ystar == ("A1", "W", "Y")
    assert dec.districts == (("A1",), ("W", "Y"))


# -------------------------------------------------------- district kernels

def test_district_kernels_fig1d(fig1d):
    joint = joint_for(fig1d, seed=42)
    ev = Evaluator(joint)
    vals = joint.values  # axes A, C, M, Y

    k_c = identify_district(fig1d, ("C",))
    k_m = identify_district(fig1d, ("M",))
    k_y = identify_district(fig1d, ("Y",))

    for a, c, m, y in itertools.product(range(2), repeat=4):
        env = {"A": a, "C": c, "M": m, "Y": y}
        p_c = vals.sum(axis=(0, 2, 3))[c]
        assert ev.evaluate(k_c, env) == pytest.approx(p_c, abs=1e-12)
        p_m = vals[a, c, m, :].sum() / vals[a, c, :, :].sum()
        assert ev.evaluate(k_m, env) == pytest.approx(p_m, abs=1e-12)
        p_y = sum(
            (vals[t, c, m, y] / vals[t, c, m, :].sum())
            * (vals[t, c, :, :].sum() / vals[:, c, :, :].sum())
            for t in range(2)
        )
        assert ev.evaluate(k_y, env) == pytest.approx(p_y, abs=1e-12)


def test_identify_district_stuck(fig1c):
    res = identify_district(fig1c, ("W", "Y"))
    assert isinstance(res, NotReachable)
    assert res.residual == ("A2",)


def test_identify_district_rejects_disconnected(fig1c):
    with pytest.raises(GraphError, match="not bidirected-connected"):
        identify_district(fig1c, ("A1", "Y"))


def fixture_queries():
    """Every query with one or two outcomes and up to two treatments on the
    (projected) fixtures."""
    for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e"):
        g = load_fig(name)
        g = g.latent_project() if g.hidden else g
        for n_y in (1, 2):
            for ys in itertools.combinations(g.random, n_y):
                rest = [v for v in g.random if v not in ys]
                for n_a in range(3):
                    for a in itertools.combinations(rest, n_a):
                        yield g, Query(outcomes=ys, treatments=a)


def test_kernels_come_out_in_final_form():
    # a childless fixing step is emitted as a plain marginal, not as a
    # quotient for the cancellation pass to undo
    cases = list(fixture_queries())
    rng = pyrandom.Random(8)
    for _ in range(200):
        g = random_admg(rng, rng.randint(2, 6))
        outcomes, treatments = random_query_sets(rng, g.random)
        cases.append((g, Query(outcomes=tuple(outcomes), treatments=tuple(treatments))))
    kernels = 0
    for g, q in cases:
        res = identify(g, q)
        for _, kernel, _ in res.districts if res.identified else ():
            assert simplify(kernel) == kernel
            kernels += 1
    assert kernels > 300


# ------------------------------------------------------------------- hedges

def test_find_hedge_fig1c(fig1c):
    q = Query(outcomes=("Y",), treatments=("A2",))
    w = find_hedge(fig1c, q, ("W", "Y"))
    assert w == HedgeWitness(inner=("W", "Y"), outer=("A2", "W", "Y"), roots=("W", "Y"))
    assert is_hedge(fig1c, q, w)
    assert hedge_violation(fig1c, q, w) is None
    assert w.to_dict() == {
        "inner": ["W", "Y"],
        "outer": ["A2", "W", "Y"],
        "roots": ["W", "Y"],
    }


def test_find_hedge_rejects_intrinsic(fig1c):
    q = Query(outcomes=("Y",), treatments=("A1", "A2"))
    with pytest.raises(GraphError, match="intrinsic"):
        find_hedge(fig1c, q, ("Y",))


@pytest.mark.parametrize("fig, treatment, vertices", [
    ("fig1a", "A2", ("A1", "Y")),  # equal to its reachable closure
    ("fig1c", "A2", ("A1", "Y")),  # its closure is larger
    ("fig1d", "A", ("M", "Y")),    # its closure is larger
], ids=["fig1a", "fig1c", "fig1d"])
def test_find_hedge_rejects_set_equal_to_its_closure(fig, treatment, vertices):
    # a set that is not bidirected-connected is no district, whatever its closure
    q = Query(outcomes=("Y",), treatments=(treatment,))
    with pytest.raises(GraphError, match="not bidirected-connected"):
        find_hedge(load_fig(fig), q, vertices)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` replaces ``fn`` in every ``causalid`` module that
    binds it, so the engine's calls through module globals go through the
    wrapper, and returns the list that each call appends its arguments to."""

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        # the package attribute ``causalid.identify`` is the function, not
        # the module, so modules are looked up by name
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "causalid" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    return install


def test_one_fixing_search_per_district(fig1c, count_calls):
    searches = count_calls(causalid.fixing.find_valid_sequence)
    q = Query(outcomes=("Y",), treatments=("A2",))
    res = identify(fig1c, q)  # districts {A1} and the failing {W, Y}
    assert isinstance(res, NotIdentified)
    assert len(searches) == 2
    searches.clear()
    find_hedge(fig1c, q, ("W", "Y"))
    assert len(searches) == 1
    searches.clear()
    failure_characterizations(fig1c, q)  # a closure and an intrinsic test each
    assert len(searches) == 4


def test_each_fixing_step_is_probed_once(count_calls):
    # on a chain the first target tried is always fixable, so every probe is
    # a step: nothing re-tests a vertex the search has just found fixable
    probes = count_calls(causalid.fixing.is_fixable)
    g = chain(10)
    identify_district(g, ("V9",))
    assert len(probes) == 9
    probes.clear()
    identify(g, Query(outcomes=("V9",), treatments=("V0",)))  # 9 districts of 9 steps
    assert len(probes) == 81


@pytest.fixture
def graph_builds(monkeypatch):
    """The list that every ``MixedGraph`` construction appends to."""
    built = []
    init = MixedGraph.__init__

    def counted(self, *args, **kwargs):
        built.append((args, kwargs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(MixedGraph, "__init__", counted)
    return built


def test_identify_does_not_recheck_the_districts_it_built(graph_builds):
    # the decomposition and the fixing searches ask the input graph by vertex
    # set, so no graph is built, neither a subgraph to check that a district
    # is bidirected-connected nor a CADMG per fixing step
    g = chain(10)
    graph_builds.clear()
    identify(g, Query(outcomes=("V9",), treatments=("V0",)))
    identify_district(g, ("V9",))
    assert graph_builds == []


def test_the_search_and_the_hedge_check_build_no_graph(graph_builds):
    g = chain(10)
    graph_builds.clear()
    assert len(causalid.fixing.find_valid_sequence(g, set(g.random) - {"V9"})) == 9
    assert reachable_closure(g, {"V9"}) == {"V9"}
    # a chain has no bidirected edge, so the outer forest is not connected
    w = HedgeWitness(inner=("V9",), outer=("V8", "V9"), roots=("V9",))
    assert hedge_violation(g, Query(outcomes=("V9",), treatments=("V8",)), w) == (
        "outer-not-bidirected-connected"
    )
    assert graph_builds == []
    g.induced_subgraph({"V0", "V1"})  # the public builders still validate
    assert len(graph_builds) == 1


def test_hedge_violation_reason_codes(fig1c):
    # fig1c: W -> A1 -> Y <- A2, with A2 <-> W <-> Y
    hedge = (("W", "Y"), ("A2", "W", "Y"), ("W", "Y"))
    cases = [
        (hedge, ("A2",), None),
        ((("W", "Y"), ("A2", "W", "Y", "Z"), ("W", "Y")), ("A2",), "vertices-outside-graph"),
        ((("W", "Y"), ("A2", "W", "Y"), ()), ("A2",), "roots-not-inside-inner-forest"),
        ((("W", "Y"), ("A2", "W", "Y"), ("A2",)), ("A2",), "roots-not-inside-inner-forest"),
        ((("A2", "Y"), ("A2", "W", "Y"), ("Y",)), ("A2",), "inner-not-bidirected-connected"),
        # W has no child inside {W, Y}, so it reaches no root but itself
        ((("W", "Y"), ("A2", "W", "Y"), ("Y",)), ("A2",), "inner-not-rooted"),
        ((("Y",), ("A1", "Y"), ("Y",)), ("A1",), "outer-not-bidirected-connected"),
        ((("Y",), ("A2", "W", "Y"), ("Y",)), ("A2",), "outer-not-rooted"),
        # the root Y lies outside the outer forest, and W reaches no other root
        ((("W", "Y"), ("A2", "W"), ("W", "Y")), ("A2",), "outer-not-rooted"),
        ((("W", "Y"), ("W", "Y"), ("W", "Y")), ("A2",), "inner-forest-not-strictly-inside-outer"),
        (hedge, ("W",), "inner-forest-touches-treatments"),
        (hedge, (), "no-treatment-between-forests"),
        # under the fully-intervened query the roots no longer reach the
        # outcome while avoiding every treatment
        (hedge, ("A1", "A2"), "roots-lack-treatment-avoiding-path-to-outcome"),
    ]
    for (inner, outer, roots), treatments, code in cases:
        q = Query(outcomes=("Y",), treatments=treatments)
        w = HedgeWitness(inner=inner, outer=outer, roots=roots)
        assert hedge_violation(fig1c, q, w) == code, (w, treatments)


def test_set_rootedness_equals_a_spanning_in_forest():
    # with every pair of vertices bidirected-linked each vertex set is
    # bidirected-connected, so the inner forest fails as "inner-not-rooted"
    # exactly when no spanning in-forest toward the roots exists
    rng = pyrandom.Random(5)
    pairs = 0
    for _ in range(150):
        g = random_admg(rng, rng.randint(1, 5), p_dir=0.5, p_bid=1.0)
        q = Query(outcomes=(g.random[0],))
        for k in range(1, len(g.random) + 1):
            for f in itertools.combinations(g.random, k):
                for j in range(1, k + 1):
                    for r in itertools.combinations(f, j):
                        w = HedgeWitness(inner=f, outer=f, roots=r)
                        rooted = hedge_violation(g, q, w) != "inner-not-rooted"
                        assert rooted == brute_rooted_forest(g, f, r), (g, f, r)
                        pairs += 1
    assert pairs > 5000


# ----------------------------------------------------------------- identify

def test_identify_front_door(fig1d):
    res = identify(fig1d, Query(outcomes=("Y",), treatments=("A",)))
    assert isinstance(res, Identified)
    assert res.treatment_labels == {"A": "a"}
    assert [d for d, _, _ in res.districts] == [("C",), ("M",), ("Y",)]
    ok, problems = well_formed(res.estimand, allowed_free={"Y", "a"})
    assert ok, problems

    joint = joint_for(fig1d, seed=9)
    ev = Evaluator(joint)
    vals = joint.values  # axes A, C, M, Y
    for a, y in itertools.product(range(2), range(2)):
        want = sum(
            sum(
                (vals[t, c, m, y] / vals[t, c, m, :].sum())
                * (vals[t, c, :, :].sum() / vals[:, c, :, :].sum())
                for t in range(2)
            )
            * (vals[a, c, m, :].sum() / vals[a, c, :, :].sum())
            * vals[:, c, :, :].sum()
            for c in range(2)
            for m in range(2)
        )
        got = ev.evaluate(res.estimand, {"a": a, "Y": y})
        assert got == pytest.approx(want, abs=1e-12)


def test_identify_fig1c_full_query_ratio(fig1b, fig1c):
    # the ratio identity relies on A2 being independent of A1 given W, so the
    # joint must actually come from the hidden-variable model
    from causalid import observed_joint, random_scm

    res = identify(fig1c, Query(outcomes=("Y",), treatments=("A1", "A2")))
    assert isinstance(res, Identified)
    scm = random_scm(fig1b, {v: 2 for v in fig1b.random}, seed=13)
    joint = observed_joint(scm)
    ev = Evaluator(joint)
    vals = joint.values  # axes A1, A2, W, Y
    for a1, a2, y in itertools.product(range(2), repeat=3):
        num = sum(vals[a1, a2, w, y] / vals[a1, :, w, :].sum() * vals[:, :, w, :].sum()
                  for w in range(2))
        den = sum(vals[a1, a2, w, :].sum() / vals[a1, :, w, :].sum() * vals[:, :, w, :].sum()
                  for w in range(2))
        got = ev.evaluate(res.estimand, {"a1": a1, "a2": a2, "Y": y})
        assert got == pytest.approx(num / den, abs=1e-12)


def test_identify_fig1c_sub_query_fails(fig1c):
    res = identify(fig1c, Query(outcomes=("Y",), treatments=("A2",)))
    assert isinstance(res, NotIdentified)
    assert res.failing_district == ("W", "Y")
    assert res.closure == ("A2", "W", "Y")
    assert res.failing_districts == (("W", "Y"),)
    assert is_hedge(fig1c, res.query, res.witness)
    d = res.to_dict()
    assert d["status"] == "not_identified"
    assert d["witness"]["inner"] == ["W", "Y"]


def test_identify_no_treatments_is_marginal(fig1d):
    res = identify(fig1d, Query(outcomes=("Y",)))
    assert isinstance(res, Identified)
    joint = joint_for(fig1d, seed=3)
    ev = Evaluator(joint)
    for y in range(2):
        assert ev.evaluate(res.estimand, {"Y": y}) == pytest.approx(
            joint.values[:, :, :, y].sum(), abs=1e-12)


def test_identify_dag_g_formula(fig1a):
    res = identify(fig1a, Query(outcomes=("Y",), treatments=("A1", "A2")))
    assert isinstance(res, Identified)
    joint = joint_for(fig1a, seed=21)
    ev = Evaluator(joint)
    vals = joint.values  # axes A1, A2, L, Y
    for a1, a2, y in itertools.product(range(2), repeat=3):
        want = sum(
            (vals[a1, a2, l, y] / vals[a1, a2, l, :].sum())
            * (vals[a1, :, l, :].sum() / vals[a1, :, :, :].sum())
            for l in range(2)
        )
        got = ev.evaluate(res.estimand, {"a1": a1, "a2": a2, "Y": y})
        assert got == pytest.approx(want, abs=1e-12)


def test_identify_treatment_label_freshening():
    # an outcome-side vertex shadowing the default treatment label forces a prime
    from causalid import MixedGraph

    g = MixedGraph(random=["B", "b"], directed=[("B", "b")])
    res = identify(g, Query(outcomes=("b",), treatments=("B",)))
    assert isinstance(res, Identified)
    assert res.treatment_labels == {"B": "b'"}
    assert free_text_mentions(res, "b'")


def free_text_mentions(res, token):
    return token in render_text(res.estimand)


def test_treatment_label_collision_keeps_context_names():
    # the treatment A takes the label a', since the vertex a already names
    # itself; each context entry is a vertex name, whatever its label
    from causalid import MixedGraph

    g = MixedGraph(random=["A", "a", "Y"], directed=[("A", "Y"), ("a", "Y")])
    q = Query(outcomes=("Y",), treatments=("A",))
    res = identify(g, q)
    assert res.treatment_labels == {"A": "a'"}
    assert decompose(g, q).contexts[("Y",)] == ("A", "a")
    assert [(d, ctx) for d, _, ctx in res.districts] == [(("Y",), ("A", "a")), (("a",), ())]
    assert res.to_dict()["districts"][0]["context"] == ["A", "a"]


def test_identified_to_dict_shape(fig1d):
    res = identify(fig1d, Query(outcomes=("Y",), treatments=("A",)))
    d = res.to_dict()
    assert d["status"] == "identified"
    assert {x["district"][0] for x in d["districts"]} == {"C", "M", "Y"}
    assert all("kernel" in x and "context" in x for x in d["districts"])


def test_identify_projection_invariance(fig1b, fig1c):
    q = Query(outcomes=("Y",), treatments=("A1", "A2"))
    res_proj = identify(fig1b.latent_project(), q)
    res_c = identify(fig1c, q)
    assert res_proj.estimand == res_c.estimand


# ------------------------------------------- failure characterizations

def test_failure_characterizations_fixtures(fig1c):
    sub = failure_characterizations(fig1c, Query(outcomes=("Y",), treatments=("A2",)))
    assert sub.as_tuple() == (True, True, True)
    full = failure_characterizations(fig1c, Query(outcomes=("Y",), treatments=("A1", "A2")))
    assert full.as_tuple() == (False, False, False)


def test_failure_characterizations_agree_and_match_identify():
    rng = pyrandom.Random(99)
    saw_fail = saw_ok = 0
    for _ in range(150):
        g = random_admg(rng, 5)
        outcomes, treatments = random_query_sets(rng, g.random)
        q = Query(outcomes=tuple(outcomes), treatments=tuple(treatments))
        rep = failure_characterizations(g, q)
        a, b, c = rep.as_tuple()
        assert a == b == c
        res = identify(g, q)
        assert res.identified == (not a)
        if a:
            saw_fail += 1
            assert is_hedge(g, q, res.witness)
            assert res.closure == tuple(sorted(reachable_closure(g, res.failing_district)))
        else:
            saw_ok += 1
    assert saw_fail > 10 and saw_ok > 10


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_chain_estimand_stays_polynomial(n):
    # fixing upstream vertices first wraps the kernel in a quotient that
    # refers to it three times per step, so the tree grows as 3**n; the bound
    # is on tree nodes because shared subtrees keep the DAG small either way
    res = identify(chain(n), Query(outcomes=(f"V{n - 1}",), treatments=("V0",)))
    assert isinstance(res, Identified)
    assert tree_nodes(res.estimand) <= 3 * n * n


# ------------------------------------------- reference kernels by Tian's recursion

def test_tian_recursion_agrees_with_fixing_on_every_golden_district():
    from test_golden_hedges import queries

    stuck = 0
    for g, q in queries():
        for d in decompose(g, q).districts:
            want, got = identify_district(g, d), tian_kernel(g, d)
            assert isinstance(got, NotReachable) == isinstance(want, NotReachable), (d, q)
            if isinstance(want, NotReachable):
                assert got.residual == want.residual, (d, q)
                stuck += 1
    assert stuck > 50


def test_identify_with_tian_kernels_passes_the_oracle(monkeypatch):
    monkeypatch.setattr(sys.modules["causalid.identify"], "_kernel", tian_kernel)
    rng = pyrandom.Random(8)
    verified = 0
    for case in range(100):
        g = random_hidden_dag(rng, n_obs=rng.randint(3, 6), n_hidden=rng.randint(1, 2))
        outcomes, treatments = random_query_sets(rng, sorted(set(g.random) - g.hidden))
        q = Query(outcomes=tuple(outcomes), treatments=tuple(treatments))
        res = identify(g.latent_project(), q)
        if res.identified:
            scm = random_scm(g, {v: rng.choice([2, 3]) for v in g.random}, seed=case)
            assert verify(scm, q, res, tol=1e-9).passed, (case, render_text(res.estimand))
            verified += 1
    assert verified > 50


def test_tian_recursion_gives_the_textbook_front_door(fig1d, monkeypatch):
    monkeypatch.setattr(sys.modules["causalid.identify"], "_kernel", tian_kernel)
    res = identify(fig1d, Query(outcomes=("Y",), treatments=("A",)))
    assert render_text(res.estimand) == (
        "sum_{c,m} p(c) p(m | a, c) (sum_{a'} p(a' | c) p(Y | a', c, m))"
    )


def test_tian_recursion_past_the_first_level_passes_the_oracle(monkeypatch):
    # Y's district {W, X, Y, Z} loses X at the second level and Z with it;
    # the third level sums W out, so the second level's terms are quotients
    g = MixedGraph(
        random=list("UWXYZ"),
        directed=[("W", "Z"), ("Z", "Y"), ("X", "U"), ("U", "Y")],
        bidirected=[("W", "Y"), ("X", "Y"), ("X", "Z")],
    )
    lifted = MixedGraph(
        random=list("UWXYZ") + ["H0", "H1", "H2"],
        hidden=["H0", "H1", "H2"],
        directed=list(g.directed) + [
            ("H0", "W"), ("H0", "Y"), ("H1", "X"), ("H1", "Y"), ("H2", "X"), ("H2", "Z"),
        ],
    )
    assert lifted.latent_project() == g
    monkeypatch.setattr(sys.modules["causalid.identify"], "_kernel", tian_kernel)
    for treatments in (("U",), ("U", "Z")):
        q = Query(outcomes=("Y",), treatments=treatments)
        res = identify(g, q)
        assert "/" in render_text(res.estimand)
        for seed in range(3):
            scm = random_scm(lifted, {v: 2 + seed % 2 for v in lifted.random}, seed=seed)
            assert verify(scm, q, res, tol=1e-9).passed
