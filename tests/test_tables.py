"""Dense probability tables: marginals and point lookups."""

import itertools

import pytest

from causalid import GraphError
from helpers import random_positive_joint

VARIABLES = ("A", "B", "C")
CARDS = (2, 3, 2)


def test_prob_indexes_a_full_assignment():
    joint = random_positive_joint(11, VARIABLES, CARDS)
    for idx in itertools.product(*map(range, CARDS)):
        assignment = dict(zip(reversed(VARIABLES), reversed(idx)))  # key order is free
        assert joint.prob(assignment) == float(joint.values[idx])


@pytest.mark.parametrize("keep", [("A",), ("C", "A"), ("B", "C")])
def test_prob_of_a_marginal(keep):
    joint = random_positive_joint(12, VARIABLES, CARDS)
    marg = joint.marginal(keep)
    assert marg.variables == tuple(sorted(keep))
    for idx in itertools.product(*(range(joint.card(v)) for v in marg.variables)):
        assignment = dict(zip(marg.variables, idx))
        got = marg.prob(assignment)
        assert got == float(joint.marginal(keep).values[idx])
        brute = sum(
            float(joint.values[full])
            for full in itertools.product(*map(range, CARDS))
            if all(full[VARIABLES.index(v)] == x for v, x in assignment.items())
        )
        assert got == pytest.approx(brute, abs=1e-15)


@pytest.mark.parametrize("assignment", [
    {"A": 0, "B": 1},                  # partial: marginalize first
    {"A": 0, "B": 1, "C": 0, "D": 0},  # an unknown variable besides
    {"A": 0, "B": 1, "D": 0},          # an unknown variable instead
])
def test_prob_rejects_any_other_assignment(assignment):
    joint = random_positive_joint(13, VARIABLES, CARDS)
    with pytest.raises(GraphError, match="bind exactly"):
        joint.prob(assignment)
