"""Dense probability tables: marginals and point lookups."""

import itertools
import random as pyrandom

import pytest

from causalid import GraphError
from helpers import prob, random_positive_joint

VARIABLES = ("A", "B", "C")
CARDS = (2, 3, 2)


def test_prob_indexes_a_full_assignment():
    joint = random_positive_joint(11, VARIABLES, CARDS)
    for idx in itertools.product(*map(range, CARDS)):
        assignment = dict(zip(reversed(VARIABLES), reversed(idx)))  # key order is free
        assert prob(joint, assignment) == float(joint.values[idx])


@pytest.mark.parametrize("keep", [("A",), ("C", "A"), ("B", "C")])
def test_prob_of_a_marginal(keep):
    joint = random_positive_joint(12, VARIABLES, CARDS)
    marg = joint.marginal(keep)
    assert marg.variables == tuple(sorted(keep))
    for idx in itertools.product(*(range(joint.card(v)) for v in marg.variables)):
        assignment = dict(zip(marg.variables, idx))
        got = prob(marg, assignment)
        assert got == float(joint.marginal(keep).values[idx])
        brute = sum(
            float(joint.values[full])
            for full in itertools.product(*map(range, CARDS))
            if all(full[VARIABLES.index(v)] == x for v, x in assignment.items())
        )
        assert got == pytest.approx(brute, abs=1e-15)


def test_marginal_matches_brute_force_sums():
    # keep in any order, from nothing to every variable; axes come out sorted
    rng = pyrandom.Random(4)
    for case in range(30):
        n = rng.randint(1, 5)
        variables = rng.sample("ABCDEFG", n)
        cards = tuple(rng.choice([2, 3]) for _ in variables)
        joint = random_positive_joint(case, variables, cards)
        keep = rng.sample(variables, rng.randint(0, n))
        marg = joint.marginal(keep)
        assert marg.variables == tuple(sorted(keep))
        want = {}
        for full in itertools.product(*map(range, cards)):
            key = tuple(full[variables.index(v)] for v in marg.variables)
            want[key] = want.get(key, 0.0) + float(joint.values[full])
        assert marg.values.shape == tuple(joint.card(v) for v in marg.variables)
        for key, p in want.items():
            assert abs(float(marg.values[key]) - p) <= 1e-12


@pytest.mark.parametrize("assignment", [
    {"A": 0, "B": 1},                  # partial: marginalize first
    {"A": 0, "B": 1, "C": 0, "D": 0},  # an unknown variable besides
    {"A": 0, "B": 1, "D": 0},          # an unknown variable instead
])
def test_prob_rejects_any_other_assignment(assignment):
    joint = random_positive_joint(13, VARIABLES, CARDS)
    with pytest.raises(GraphError, match="bind exactly"):
        prob(joint, assignment)
