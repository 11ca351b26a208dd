"""End-to-end acceptance gate.

Each test prints exactly one pass/fail line so a log scrape shows the verdict
per criterion. Tolerances are pinned at 1e-9 throughout.
"""

import contextlib
import itertools
import random as pyrandom
import time

import pytest

from causalid import (
    Evaluator,
    Identified,
    MixedGraph,
    NotIdentified,
    Query,
    failure_characterizations,
    find_valid_sequence,
    fix_all,
    identify,
    identify_district,
    is_hedge,
    observed_joint,
    random_scm,
    render_text,
    verify,
)
from conftest import FIXTURES
from helpers import (
    exhaustive_valid_orderings,
    random_admg,
    random_hidden_dag,
    random_positive_joint,
    random_query_sets,
)

TOL = 1e-9

# Exact estimand texts, pinned next to the numeric checks so that a change to
# the fixing order or to kernel synthesis shows up as a text diff.
FRONT_DOOR_TEXT = (
    "sum_{c,m} (sum_{a'} sum_{m'} sum_{y} p(a', c, m', y)) (((sum_{y} p(a, "
    "c, m, y)) / ((sum_{m'} sum_{y} p(a, c, m', y)) / (sum_{a',m'} sum_{y} "
    "p(a', c, m', y)))) / ((sum_{m'} (sum_{y} p(a, c, m', y)) / ((sum_{m} "
    "sum_{y} p(a, c, m, y)) / (sum_{a',m} sum_{y} p(a', c, m, y)))) / "
    "(sum_{c',m'} (sum_{y} p(a, c', m', y)) / ((sum_{m} sum_{y} p(a, c', m,"
    " y)) / (sum_{a',m} sum_{y} p(a', c', m, y)))))) ((sum_{a'} (p(a', c, "
    "m, Y)) / ((sum_{y} p(a', c, m, y)) / (sum_{m',y} p(a', c, m', y)))) / "
    "((sum_{y} sum_{a'} (p(a', c, m, y)) / ((sum_{y'} p(a', c, m, y')) / "
    "(sum_{m',y'} p(a', c, m', y')))) / (sum_{c',y} sum_{a'} (p(a', c', m, "
    "y)) / ((sum_{y'} p(a', c', m, y')) / (sum_{m',y'} p(a', c', m', "
    "y'))))))"
)

G_FORMULA_TEXT = (
    "sum_{l} ((sum_{a2'} sum_{y} p(a1, a2', l, y)) / ((sum_{l'} sum_{a2'} "
    "sum_{y} p(a1, a2', l', y)) / (sum_{a1',l'} sum_{a2'} sum_{y} p(a1', "
    "a2', l', y)))) ((((p(a1, a2, l, Y)) / ((sum_{y} p(a1, a2, l, y)) / "
    "(sum_{a2',y} p(a1, a2', l, y)))) / ((sum_{y} (p(a1, a2, l, y)) / "
    "((sum_{y'} p(a1, a2, l, y')) / (sum_{a2',y'} p(a1, a2', l, y')))) / "
    "(sum_{l',y} (p(a1, a2, l', y)) / ((sum_{y'} p(a1, a2, l', y')) / "
    "(sum_{a2',y'} p(a1, a2', l', y')))))) / ((sum_{y} ((p(a1, a2, l, y)) /"
    " ((sum_{y'} p(a1, a2, l, y')) / (sum_{a2',y'} p(a1, a2', l, y')))) / "
    "((sum_{y'} (p(a1, a2, l, y')) / ((sum_{y} p(a1, a2, l, y)) / "
    "(sum_{a2',y} p(a1, a2', l, y)))) / (sum_{l',y'} (p(a1, a2, l', y')) / "
    "((sum_{y} p(a1, a2, l', y)) / (sum_{a2',y} p(a1, a2', l', y)))))) / "
    "(sum_{a1',y} ((p(a1', a2, l, y)) / ((sum_{y'} p(a1', a2, l, y')) / "
    "(sum_{a2',y'} p(a1', a2', l, y')))) / ((sum_{y'} (p(a1', a2, l, y')) /"
    " ((sum_{y} p(a1', a2, l, y)) / (sum_{a2',y} p(a1', a2', l, y)))) / "
    "(sum_{l',y'} (p(a1', a2, l', y')) / ((sum_{y} p(a1', a2, l', y)) / "
    "(sum_{a2',y} p(a1', a2', l', y))))))))"
)

P_A1_TEXT = "sum_{l} sum_{a2} sum_{y} p(A1, a2, l, y)"


@pytest.fixture
def verdict(capfd):
    """One pass/fail line per criterion, printed past pytest's capture."""

    @contextlib.contextmanager
    def announce(label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"{label}: FAIL")
            raise
        with capfd.disabled():
            print(f"{label}: PASS")

    return announce


def binary_cards(g):
    return {v: 2 for v in g.random}


def test_01_front_door_reproduction(fig1d, verdict):
    with verdict("criterion 1 front-door reproduction"):
        start = time.monotonic()
        res = identify(fig1d, Query(outcomes=("Y",), treatments=("A",)))
        assert isinstance(res, Identified)
        max_dev = 0.0
        for seed in range(100):
            joint = random_positive_joint(seed, tuple(fig1d.random), (2, 2, 2, 2))
            v = joint.values  # axes A, C, M, Y
            ev = Evaluator(joint)
            for a, y in itertools.product(range(2), range(2)):
                want = sum(
                    sum(
                        (v[t, c, m, y] / v[t, c, m, :].sum())
                        * (v[t, c, :, :].sum() / v[:, c, :, :].sum())
                        for t in range(2)
                    )
                    * (v[a, c, m, :].sum() / v[a, c, :, :].sum())
                    * v[:, c, :, :].sum()
                    for c in range(2)
                    for m in range(2)
                )
                got = ev.evaluate(res.estimand, {"a": a, "Y": y})
                max_dev = max(max_dev, abs(got - want))
        elapsed = time.monotonic() - start
        assert max_dev < TOL, max_dev
        assert elapsed < 5.0, elapsed
        assert render_text(res.estimand) == FRONT_DOOR_TEXT


def test_02_per_district_derivations(fig1d, verdict):
    with verdict("criterion 2 per-district derivations"):
        k_c = identify_district(fig1d, ("C",))
        k_m = identify_district(fig1d, ("M",))
        k_y = identify_district(fig1d, ("Y",))
        max_dev = 0.0
        for seed in range(20):
            joint = random_positive_joint(1000 + seed, tuple(fig1d.random), (2, 2, 2, 2))
            v = joint.values
            ev = Evaluator(joint)
            for a, c, m, y in itertools.product(range(2), repeat=4):
                env = {"A": a, "C": c, "M": m, "Y": y}
                p_c = v[:, c, :, :].sum()
                p_m = v[a, c, m, :].sum() / v[a, c, :, :].sum()
                p_y = sum(
                    (v[t, c, m, y] / v[t, c, m, :].sum())
                    * (v[t, c, :, :].sum() / v[:, c, :, :].sum())
                    for t in range(2)
                )
                for kernel, want in ((k_c, p_c), (k_m, p_m), (k_y, p_y)):
                    max_dev = max(max_dev, abs(ev.evaluate(kernel, env) - want))
        assert max_dev < TOL, max_dev


def test_03_counterexample_fixture(fig1b, fig1c, verdict):
    with verdict("criterion 3 counterexample fixture"):
        full = identify(fig1c, Query(outcomes=("Y",), treatments=("A1", "A2")))
        assert isinstance(full, Identified)
        # the identifying ratio holds for joints from the hidden-variable
        # model, so ground truth comes from seeded SCMs on the full DAG
        max_dev = 0.0
        for seed in range(20):
            scm = random_scm(fig1b, binary_cards(fig1b), seed=seed)
            joint = observed_joint(scm)
            v = joint.values  # axes A1, A2, W, Y
            ev = Evaluator(joint)
            for a1, a2, y in itertools.product(range(2), repeat=3):
                num = sum(
                    v[a1, a2, w, y] / v[a1, :, w, :].sum() * v[:, :, w, :].sum()
                    for w in range(2)
                )
                den = sum(
                    v[a1, a2, w, :].sum() / v[a1, :, w, :].sum() * v[:, :, w, :].sum()
                    for w in range(2)
                )
                got = ev.evaluate(full.estimand, {"a1": a1, "a2": a2, "Y": y})
                max_dev = max(max_dev, abs(got - num / den))
        assert max_dev < TOL, max_dev

        sub = identify(fig1c, Query(outcomes=("Y",), treatments=("A2",)))
        assert isinstance(sub, NotIdentified)
        assert sub.witness.inner == ("W", "Y")
        assert sub.witness.outer == ("A2", "W", "Y")
        # roots are the childless vertices of the failing district; W has no
        # child inside {W, Y}, so both vertices are roots (see the decisions
        # ledger for the deliberate deviation on this pin)
        assert sub.witness.roots == ("W", "Y")
        assert is_hedge(fig1c, sub.query, sub.witness)
        # the refutation pin: the same district is harmless under the larger
        # treatment set, so no monotonicity of non-identifiability holds
        assert full.identified and not sub.identified


def test_04_g_formula_fixture(fig1a, verdict):
    with verdict("criterion 4 g-formula fixture"):
        res = identify(fig1a, Query(outcomes=("Y",), treatments=("A1", "A2")))
        assert isinstance(res, Identified)
        max_dev = 0.0
        for seed in range(20):
            joint = random_positive_joint(2000 + seed, tuple(fig1a.random), (2, 2, 2, 2))
            v = joint.values  # axes A1, A2, L, Y
            ev = Evaluator(joint)
            for a1, a2, y in itertools.product(range(2), repeat=3):
                want = sum(
                    (v[a1, a2, l, y] / v[a1, a2, l, :].sum())
                    * (v[a1, :, l, :].sum() / v[a1, :, :, :].sum())
                    for l in range(2)
                )
                got = ev.evaluate(res.estimand, {"a1": a1, "a2": a2, "Y": y})
                max_dev = max(max_dev, abs(got - want))
        assert max_dev < TOL, max_dev
        assert render_text(res.estimand) == G_FORMULA_TEXT
        # with nothing to intervene on, p(A1) is a plain marginal of the joint
        marginal = identify(fig1a, Query(outcomes=("A1",)))
        assert render_text(marginal.estimand) == P_A1_TEXT


def test_05_soundness_sweep(verdict):
    with verdict("criterion 5 soundness sweep"):
        start = time.monotonic()
        rng = pyrandom.Random(2024)
        identified = failed = 0
        max_dev = 0.0
        for trial in range(500):
            g = random_hidden_dag(
                rng, n_obs=rng.randint(3, 6), n_hidden=rng.randint(1, 3)
            )
            proj = g.latent_project()
            observed = sorted(set(g.random) - g.hidden)
            outcomes, treatments = random_query_sets(rng, observed)
            query = Query(outcomes=tuple(outcomes), treatments=tuple(treatments))
            res = identify(proj, query)
            if isinstance(res, NotIdentified):
                failed += 1
                continue
            scm = random_scm(g, binary_cards(g), seed=trial)
            report = verify(scm, query, res, tol=TOL)
            max_dev = max(max_dev, report.max_deviation)
            assert report.passed, (trial, report.max_deviation)
            identified += 1
        elapsed = time.monotonic() - start
        assert identified >= 100 and failed >= 10, (identified, failed)
        assert max_dev < TOL, max_dev
        assert elapsed < 600.0, elapsed


def test_06_failure_equivalence(verdict):
    with verdict("criterion 6 failure-characterization equivalence"):
        rng = pyrandom.Random(31337)
        saw_fail = saw_ok = 0
        for _ in range(1000):
            g = random_admg(rng, rng.randint(2, 6))
            outcomes, treatments = random_query_sets(rng, g.random)
            query = Query(outcomes=tuple(outcomes), treatments=tuple(treatments))
            a, b, c = failure_characterizations(g, query).as_tuple()
            assert a == b == c
            res = identify(g, query)
            assert res.identified == (not a)
            saw_fail += a
            saw_ok += not a
        assert saw_fail >= 50 and saw_ok >= 50, (saw_fail, saw_ok)


def test_07_fixing_calculus_properties(verdict):
    with verdict("criterion 7 fixing-calculus properties"):
        rng = pyrandom.Random(424242)
        invariance_checked = agreement_checked = 0
        for _ in range(300):
            g = random_admg(rng, rng.randint(2, 6))
            targets = rng.sample(list(g.random), rng.randint(1, min(4, len(g.random))))
            orders = exhaustive_valid_orderings(g, targets)
            res = find_valid_sequence(g, targets)
            if orders:
                # greedy agrees with exhaustive search and all orders commute
                assert tuple(res) in orders
                results = {fix_all(g, o) for o in orders}
                assert len(results) == 1
                if len(orders) > 1:
                    invariance_checked += 1
                agreement_checked += 1
            else:
                from causalid import NotReachable

                assert isinstance(res, NotReachable)
        assert invariance_checked >= 30 and agreement_checked >= 100


def test_08_latent_projection_golden(fig1b, verdict):
    with verdict("criterion 8 latent-projection golden file"):
        golden = (FIXTURES / "fig1c.json").read_text()
        assert fig1b.latent_project().to_json() == golden
        assert MixedGraph.from_json(golden) == fig1b.latent_project()
