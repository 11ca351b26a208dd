import itertools
import random as pyrandom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalid import (
    Const,
    Evaluator,
    Factor,
    GraphError,
    Identified,
    MixedGraph,
    Query,
    Slot,
    ProbTable,
    Var,
    failure_characterizations,
    identify,
    interventional,
    observed_joint,
    random_scm,
    verify,
)
from causalid.oracle import MAX_JOINT_CELLS, POSITIVITY_FLOOR, DiscreteScm
from helpers import brute_table, chain, prob, random_hidden_dag, random_query_sets


def binary_cards(g):
    return {v: 2 for v in g.random}


def with_estimand(res, estimand):
    """``res`` with its estimand replaced, built with the public constructor."""
    return Identified(graph=res.graph, query=res.query, estimand=estimand,
                      districts=res.districts, treatment_labels=res.treatment_labels)


# ----------------------------------------------------------------- generator

def test_random_scm_is_deterministic(fig1b):
    a = random_scm(fig1b, binary_cards(fig1b), seed=5)
    b = random_scm(fig1b, binary_cards(fig1b), seed=5)
    c = random_scm(fig1b, binary_cards(fig1b), seed=6)
    for v in fig1b.random:
        assert np.array_equal(a.cpts[v], b.cpts[v])
    assert any(not np.array_equal(a.cpts[v], c.cpts[v]) for v in fig1b.random)


def test_random_scm_invariants_over_seeds(fig1b, fig1a):
    rng = pyrandom.Random(1)
    for _ in range(20):
        seed = rng.randint(0, 10**6)
        g = rng.choice([fig1a, fig1b])
        cards = {v: rng.choice([2, 3]) for v in g.random}
        scm = random_scm(g, cards, seed=seed)
        for v in g.random:
            cpt = scm.cpts[v]
            assert cpt.shape == tuple(cards[p] for p in sorted(g.parents({v}))) + (cards[v],)
            assert np.allclose(cpt.sum(axis=-1), 1.0, atol=1e-12)
            assert cpt.min() >= POSITIVITY_FLOOR - 1e-15


def test_scm_validation():
    g = MixedGraph(random=["A", "B"], directed=[("A", "B")])
    good = random_scm(g, {"A": 2, "B": 2}, seed=0)
    with pytest.raises(GraphError, match="sum to 1"):
        DiscreteScm(graph=g, cards=good.cards,
                    cpts={"A": np.array([0.6, 0.5]), "B": good.cpts["B"]})
    with pytest.raises(GraphError, match="positivity floor"):
        DiscreteScm(graph=g, cards=good.cards,
                    cpts={"A": np.array([1.0, 0.0]), "B": good.cpts["B"]})
    with pytest.raises(GraphError, match="shape"):
        DiscreteScm(graph=g, cards=good.cards,
                    cpts={"A": good.cpts["B"], "B": good.cpts["B"]})
    with pytest.raises(GraphError, match="cardinality"):
        random_scm(g, {"A": 1, "B": 2}, seed=0)
    admg = MixedGraph(random=["A", "B"], bidirected=[("A", "B")])
    with pytest.raises(GraphError, match="DAG"):
        DiscreteScm(graph=admg, cards=good.cards, cpts=good.cpts)


@pytest.mark.parametrize("cards, message", [
    ({"A": 2}, "missing cardinality for 'B'"),
    ({"A": 2, "B": 1}, "cardinality of 'B' must be at least 2"),
])
def test_one_cardinality_check_for_generator_and_scm(cards, message):
    g = MixedGraph(random=["A", "B"], directed=[("A", "B")])
    good = random_scm(g, {"A": 2, "B": 2}, seed=0)
    with pytest.raises(GraphError, match=message):
        random_scm(g, cards, seed=0)
    with pytest.raises(GraphError, match=message):
        DiscreteScm(graph=g, cards=cards, cpts=good.cpts)


def test_joint_size_guard():
    # 2**24 cells is the limit: 24 binary vertices pass, 25 are refused before
    # anything is drawn; isolated vertices keep every CPT tiny
    assert MAX_JOINT_CELLS == 2**24
    at_limit = MixedGraph(random=[f"V{i}" for i in range(24)])
    random_scm(at_limit, binary_cards(at_limit), seed=0)
    over = MixedGraph(random=[f"V{i}" for i in range(25)])
    with pytest.raises(GraphError, match="33554432 cells, above the oracle's limit"):
        random_scm(over, binary_cards(over), seed=0)
    cpts = {v: np.array([0.5, 0.5]) for v in over.random}
    with pytest.raises(GraphError, match="above the oracle's limit"):
        DiscreteScm(graph=over, cards=binary_cards(over), cpts=cpts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_are_rejected(bad):
    # every comparison with NaN is False, so a NaN passed the sum and sign
    # checks, and verify then reported a deviation of 0
    g = MixedGraph(random=["H", "A", "Y"], hidden=["H"],
                   directed=[("H", "A"), ("H", "Y"), ("A", "Y")])
    good = random_scm(g, binary_cards(g), seed=0)
    cpts = dict(good.cpts)
    cpts["Y"] = good.cpts["Y"].copy()
    cpts["Y"][0, 1] = bad
    with pytest.raises(GraphError, match="CPT for 'Y' has non-finite entries"):
        DiscreteScm(graph=g, cards=good.cards, cpts=cpts)
    with pytest.raises(GraphError, match="probability table has non-finite entries"):
        ProbTable(variables=("A",), cards=(2,), values=np.array([1.0, bad]))


# --------------------------------------------------------------------- joints

def test_observed_joint_chain_matches_hand_computation():
    g = MixedGraph(random=["A", "B"], directed=[("A", "B")])
    scm = random_scm(g, {"A": 2, "B": 3}, seed=7)
    joint = observed_joint(scm)
    assert joint.variables == ("A", "B")
    for a, b in itertools.product(range(2), range(3)):
        assert joint.values[a, b] == pytest.approx(
            scm.cpts["A"][a] * scm.cpts["B"][a, b], abs=1e-15)


def test_observed_joint_sums_out_hidden(fig1b):
    scm = random_scm(fig1b, binary_cards(fig1b), seed=11)
    joint = observed_joint(scm)
    assert joint.variables == ("A1", "A2", "W", "Y")
    assert joint.values.sum() == pytest.approx(1.0, abs=1e-12)
    # marginal consistency: summing the joint matches dropping variables
    m = joint.marginal(("A1", "W"))
    assert np.allclose(m.values, joint.values.sum(axis=(1, 3)), atol=1e-15)


def assert_matches_brute(table, scm, keep, clamp):
    variables, cells = brute_table(scm, keep, clamp)
    assert table.variables == tuple(variables)
    assert table.values.shape == tuple(scm.cards[v] for v in variables)
    for idx, want in cells.items():
        assert abs(float(table.values[idx]) - want) <= 1e-12


def test_tables_match_brute_force_enumeration():
    # every treatment value of 0-2 treatments among vertices with children,
    # on hidden DAGs of 4-9 vertices; the first case has no outcomes
    rng = pyrandom.Random(21)
    for case in range(40):
        g = random_hidden_dag(rng, n_obs=rng.randint(3, 6), n_hidden=rng.randint(1, 3))
        scm = random_scm(g, {v: rng.choice([2, 3]) for v in g.random}, seed=case)
        observed = sorted(scm.observed)
        assert_matches_brute(observed_joint(scm), scm, observed, {})
        with_children = sorted(v for v in observed if g.children({v}))
        treatments = rng.sample(with_children, rng.randint(0, min(2, len(with_children))))
        rest = [v for v in observed if v not in treatments]
        outcomes = [] if case == 0 else rng.sample(rest, rng.randint(1, len(rest)))
        for values in itertools.product(*[range(scm.cards[a]) for a in treatments]):
            clamp = dict(zip(treatments, values))
            got = interventional(scm, clamp, outcomes)
            assert_matches_brute(got, scm, outcomes, clamp)


def test_interventional_on_every_vertex_is_the_empty_table():
    g = MixedGraph(random=["A", "B"], directed=[("A", "B")])
    scm = random_scm(g, {"A": 2, "B": 3}, seed=1)
    got = interventional(scm, {"A": 1, "B": 2}, ())
    assert got.variables == () and got.values.shape == ()
    assert float(got.values) == 1.0


def test_interventional_empty_treatment_is_observed_marginal(fig1b):
    scm = random_scm(fig1b, binary_cards(fig1b), seed=3)
    got = interventional(scm, {}, ("Y", "W"))
    want = observed_joint(scm).marginal(("W", "Y"))
    assert np.allclose(got.values, want.values, atol=1e-14)


def test_interventional_root_treatment_is_conditioning():
    # intervening on a root vertex equals conditioning on it
    g = MixedGraph(random=["A", "B"], directed=[("A", "B")])
    scm = random_scm(g, {"A": 2, "B": 2}, seed=9)
    for a in range(2):
        got = interventional(scm, {"A": a}, ("B",))
        assert np.allclose(got.values, scm.cpts["B"][a], atol=1e-14)


def test_interventional_validates_inputs(fig1b):
    scm = random_scm(fig1b, binary_cards(fig1b), seed=0)
    with pytest.raises(GraphError, match="disjoint"):
        interventional(scm, {"Y": 0}, ("Y",))
    with pytest.raises(GraphError, match="observed"):
        interventional(scm, {"H1": 0}, ("Y",))
    with pytest.raises(GraphError, match="out of range"):
        interventional(scm, {"A1": 5}, ("Y",))


# --------------------------------------------------------------- verification

def test_verify_accepts_correct_estimand(fig1b, fig1c):
    q = Query(outcomes=("Y",), treatments=("A1", "A2"))
    res = identify(fig1c, q)
    scm = random_scm(fig1b, binary_cards(fig1b), seed=17)
    report = verify(scm, q, res)
    assert report.passed
    assert report.max_deviation < 1e-12
    assert report.points == 8
    assert report.to_dict()["passed"] is True


def test_verify_rejects_corrupted_estimand(fig1b, fig1c):
    q = Query(outcomes=("Y",), treatments=("A1", "A2"))
    res = identify(fig1c, q)
    wrong = Factor(outcomes=(Slot("Y", Var("Y")),),
                   given=(Slot("A1", Var("a1")), Slot("A2", Var("a2"))))
    corrupted = with_estimand(res, wrong)
    scm = random_scm(fig1b, binary_cards(fig1b), seed=17)
    report = verify(scm, q, corrupted)
    assert not report.passed
    assert report.max_deviation > 1e-3


def test_verify_rejects_projection_mismatch(fig1a, fig1b):
    q = Query(outcomes=("Y",), treatments=("A1", "A2"))
    res = identify(fig1a, q)
    scm = random_scm(fig1b, binary_cards(fig1b), seed=2)
    with pytest.raises(GraphError, match="projection"):
        verify(scm, q, res)


def test_verify_rejects_a_different_query(fig1b):
    # the estimand of p(Y) must not be scored against the truth of p(Y | do(A1))
    res = identify(fig1b.latent_project(), Query(outcomes=("Y",)))
    scm = random_scm(fig1b, binary_cards(fig1b), seed=2)
    with pytest.raises(GraphError, match=r"answers Query\(outcomes=\('Y',\), treatments=\(\)\)"):
        verify(scm, Query(outcomes=("Y",), treatments=("A1",)), res)


def test_verify_requires_identified_result(fig1b, fig1c):
    q = Query(outcomes=("Y",), treatments=("A2",))
    res = identify(fig1c, q)  # hedge; not identified
    scm = random_scm(fig1b, binary_cards(fig1b), seed=2)
    with pytest.raises(GraphError, match="identified"):
        verify(scm, q, res)


def test_verify_random_hidden_dags_smoke():
    rng = pyrandom.Random(55)
    verified = 0
    for _ in range(30):
        g = random_hidden_dag(rng, n_obs=4, n_hidden=2)
        proj = g.latent_project()
        observed = sorted(set(g.random) - g.hidden)
        y = [observed[0]]
        a = [observed[-1]]
        if y == a:
            continue
        q = Query(outcomes=tuple(y), treatments=tuple(a))
        res = identify(proj, q)
        if not isinstance(res, Identified):
            continue
        scm = random_scm(g, binary_cards(g), seed=rng.randint(0, 10**6))
        assert verify(scm, q, res, tol=1e-9).passed
        verified += 1
    assert verified > 5


def test_a_treatment_label_is_not_captured_by_a_vertex_of_that_name():
    # the kernel of {Y} sums over the vertex a; labelling A's value a too
    # would put the treatment under that sum
    g = MixedGraph(random=["A", "Y", "a"], directed=[("A", "a"), ("A", "Y")])
    q = Query(outcomes=("Y",), treatments=("A",))
    res = identify(g, q)
    assert res.treatment_labels == {"A": "a'"}
    for seed in range(3):
        report = verify(random_scm(g, binary_cards(g), seed=seed), q, res, tol=1e-9)
        assert report.passed, (seed, report.max_deviation)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_identify_agrees_with_the_oracle_on_case_paired_names(seed):
    # vertex names that differ only in case, so treatment labels (A -> a)
    # meet vertex names
    rng = pyrandom.Random(seed)
    observed = rng.sample(["A", "a", "B", "b", "Y", "y"], rng.randint(3, 6))
    g = random_hidden_dag(rng, len(observed), rng.randint(1, 2), observed=observed)
    proj = g.latent_project()
    outcomes, treatments = random_query_sets(rng, observed)
    q = Query(outcomes=tuple(outcomes), treatments=tuple(treatments))
    res = identify(proj, q)
    assert failure_characterizations(proj, q).as_tuple() == (not res.identified,) * 3
    if res.identified:
        report = verify(random_scm(g, binary_cards(g), seed=seed), q, res, tol=1e-9)
        assert report.passed, report.max_deviation


def test_verify_reports_its_worst_point(fig1b, fig1c):
    q = Query(outcomes=("Y",), treatments=("A1", "A2"))
    res = identify(fig1c, q)
    wrong = Factor(outcomes=(Slot("Y", Var("Y")),),
                   given=(Slot("A1", Var("a1")), Slot("A2", Var("a2"))))
    scm = random_scm(fig1b, binary_cards(fig1b), seed=17)
    report = verify(scm, q, with_estimand(res, wrong))
    worst = report.worst
    assert sorted(worst) == ["A1", "A2", "Y"]
    ev = Evaluator(observed_joint(scm))
    truth = interventional(scm, {"A1": worst["A1"], "A2": worst["A2"]}, ("Y",))
    assert report.want == prob(truth, {"Y": worst["Y"]})
    assert report.got == ev.evaluate(wrong, {"a1": worst["A1"], "a2": worst["A2"], "Y": worst["Y"]})
    assert report.max_deviation == abs(report.got - report.want)
    # no other point deviates more
    for a1, a2, y in itertools.product(range(2), repeat=3):
        want = prob(interventional(scm, {"A1": a1, "A2": a2}, ("Y",)), {"Y": y})
        got = ev.evaluate(wrong, {"a1": a1, "a2": a2, "Y": y})
        assert abs(got - want) <= report.max_deviation
    assert report.to_dict()["worst_point"] == {
        "assignment": worst, "got": report.got, "want": report.want}


def test_verify_fails_on_a_nan_deviation(fig1b, fig1c, monkeypatch):
    # one NaN among the points: the maximum must not drop it
    q = Query(outcomes=("Y",), treatments=("A1", "A2"))
    res = identify(fig1c, q)
    scm = random_scm(fig1b, binary_cards(fig1b), seed=17)
    evaluate = Evaluator.evaluate

    def with_a_nan(self, e, binding):
        values = np.array(evaluate(self, e, binding), dtype=float)
        values[(0,) * values.ndim] = np.nan
        return values

    monkeypatch.setattr(Evaluator, "evaluate", with_a_nan)
    report = verify(scm, q, res)
    assert np.isnan(report.max_deviation)
    assert report.worst == {"A1": 0, "A2": 0, "Y": 0}
    assert not report.passed


def test_verify_binary_chain_16():
    g = chain(16)
    q = Query(outcomes=("V15",), treatments=("V0",))
    report = verify(random_scm(g, binary_cards(g), seed=3), q, identify(g, q), tol=1e-9)
    assert report.passed and report.points == 4
