import collections
import itertools
import json
import random as pyrandom
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalid import (
    Const,
    EvaluationError,
    Evaluator,
    ExpressionParseError,
    Factor,
    ProbTable,
    Product,
    Quotient,
    Slot,
    Sum,
    Var,
    evaluate,
    free_vars,
    from_json,
    render_latex,
    render_text,
    simplify,
    substitute,
    to_json,
    well_formed,
)
from causalid.estimand import MAX_DEPTH, _node_to_dict, render_dot
from helpers import ScalarEvaluator, chain, dag_nodes, depth, random_positive_joint


def factor(outs, givs=()):
    """Shorthand: each entry is a vertex name (Var of same name) or a Slot."""
    as_slot = lambda x: x if isinstance(x, Slot) else Slot(x, Var(x.lower()))
    return Factor(outcomes=tuple(as_slot(o) for o in outs),
                  given=tuple(as_slot(g) for g in givs))


FRONT_DOOR = Sum(
    indices=(("c", "C"), ("m", "M")),
    body=Product(terms=(
        Sum(indices=(("a", "A"),),
            body=Product(terms=(
                Factor(outcomes=(Slot("Y", Var("Y")),),
                       given=(Slot("M", Var("m")), Slot("A", Var("a")), Slot("C", Var("c")))),
                Factor(outcomes=(Slot("A", Var("a")),), given=(Slot("C", Var("c")),)),
            ))),
        Factor(outcomes=(Slot("M", Var("m")),),
               given=(Slot("A", Var("a")), Slot("C", Var("c")))),
        Factor(outcomes=(Slot("C", Var("c")),)),
    )),
)


# ----------------------------------------------------------------- structure

def test_free_vars():
    assert free_vars(FRONT_DOOR) == {"Y", "a"}
    assert free_vars(factor(["Y"], ["A"])) == {"y", "a"}
    assert free_vars(Factor(outcomes=(Slot("Y", Const(1)),))) == frozenset()


def test_well_formed_good():
    ok, problems = well_formed(FRONT_DOOR, allowed_free={"Y", "a"})
    assert ok and problems == []


def test_well_formed_dangling_index():
    bad = Sum(indices=(("m", "M"),), body=factor(["Y"]))
    ok, problems = well_formed(bad)
    assert not ok
    assert "dangling index 'm'" in problems[0]


def test_well_formed_duplicate_vertex():
    bad = Factor(outcomes=(Slot("Y", Var("y")), Slot("Y", Var("z"))))
    ok, problems = well_formed(bad)
    assert not ok and "appears twice" in problems[0]


def test_well_formed_empty_outcomes():
    ok, problems = well_formed(Factor(outcomes=()))
    assert not ok and "no outcome" in problems[0]


def test_well_formed_disallowed_free():
    ok, problems = well_formed(factor(["Y"], ["A"]), allowed_free={"y"})
    assert not ok and "'a'" in problems[0]


def test_well_formed_reports_a_shared_node_on_its_first_path():
    # the dangling sum is reached twice: deep under terms[0] first, and
    # directly as terms[1]; depth-first order reports the deep path
    dangling = Sum(indices=(("m", "M"),), body=factor(["Y"]))
    e = Product(terms=(
        Quotient(factor(["A"]), Product(terms=(factor(["C"]), dangling))),
        dangling,
    ))
    want = (False, ["product.terms[0].denominator.terms[1]: dangling index 'm'"])
    assert well_formed(e) == want
    assert well_formed(e, allowed_free=set()) == want
    twice = factor(["Y", Slot("Y", Var("z"))])
    e = Sum(indices=(("y", "Y"),), body=Product(terms=(
        Sum(indices=(("z", "Y"),), body=twice), Quotient(twice, twice))))
    assert well_formed(e) == (
        False, ["sum.body.terms[0].body: vertex 'Y' appears twice in one factor"])


def doubling_chain(levels, step=lambda prev: Product(terms=(prev, prev))):
    """A factor and ``levels`` nodes above it, each reaching the one below
    twice: about ``2**levels`` tree nodes from ``levels + 1`` node objects
    (plus the binders ``step`` adds)."""
    nodes = [factor(["Y", "W"])]
    for _ in range(levels):
        nodes.append(step(nodes[-1]))
    return nodes


def test_walkers_are_linear_in_dag_nodes(monkeypatch):
    import causalid.estimand as est

    calls = []
    slots = est._slots
    monkeypatch.setattr(est, "_slots", lambda node: calls.append(node) or slots(node))

    def per_node(walk, e):
        # the expression stays out of the asserts: its repr is a 2**40 tree
        calls.clear()
        walk(e)
        return collections.Counter(map(id, calls)).values()

    nodes = doubling_chain(40)
    for walk in (free_vars, lambda e: well_formed(e, allowed_free={"y", "w"}), simplify,
                 est.render_dot, est._node_to_dict,
                 lambda e: substitute(e, {"y": Var("z")})):
        counts = per_node(walk, nodes[-1])
        assert max(counts) == 1 and len(counts) >= len(nodes) - 1
    # under the binders, the nodes below are also reached with {w} alone;
    # each (node, mapping) is stepped once
    nodes = doubling_chain(
        40, lambda prev: Product(terms=(prev, Sum(indices=(("y", "Y"),), body=prev))))
    counts = per_node(lambda e: substitute(e, {"y": Var("z"), "w": Var("v")}), nodes[-1])
    assert max(counts) == 2


def test_substitute_shadowing():
    e = Sum(indices=(("m", "M"),),
            body=factor([Slot("Y", Var("y"))], [Slot("M", Var("m"))]))
    out = substitute(e, {"m": Const(0), "y": Var("z")})
    # bound m untouched, free y renamed
    assert out.body.given[0].ref == Var("m")
    assert out.body.outcomes[0].ref == Var("z")


def test_substitute_keeps_shared_subtrees_shared():
    s = factor(["Y"], ["A"])
    out = substitute(Product((s, s)), {"a": Var("x")})
    assert out.terms[0] is out.terms[1]
    assert out.terms[0] == factor(["Y"], [Slot("A", Var("x"))])


def test_identify_keeps_the_running_kernel_shared(fig1d):
    from causalid import Query, identify

    res = identify(fig1d, Query(outcomes=("Y",), treatments=("A",)))
    assert dag_nodes(res.estimand) == 28


def test_simplify_cancellation():
    a, b, c = factor(["A"]), factor(["B"]), factor(["C"])
    assert simplify(Quotient(a, Quotient(a, c))) == c
    assert simplify(Quotient(Quotient(a, b), Quotient(a, c))) == Quotient(c, b)
    assert simplify(Product(terms=(a,))) == a


def test_simplify_temporary_quotients_do_not_share_results():
    # each term rewrites through a temporary Quotient that is freed at once;
    # the second one must not inherit the first one's cached result
    a, b, c = factor(["A"]), factor(["B"]), factor(["C"])
    ab, ac = Quotient(a, b), Quotient(a, c)
    e = Product(terms=(Quotient(ab, ac), Quotient(ac, ab)))
    assert simplify(e) == Product(terms=(Quotient(c, b), Quotient(b, c)))


def test_simplify_preserves_value():
    joint = random_positive_joint(5, ("A", "B", "C"), (2, 3, 2))
    a = factor(["A"], ["B"])
    e = Sum(indices=(("b", "B"),),
            body=Product(terms=(
                Quotient(a, Quotient(a, factor(["C"], ["B"]))),
                factor(["B"]),
            )))
    s = simplify(e)
    assert s != e
    for av, cv in itertools.product(range(2), range(2)):
        binding = {"a": av, "c": cv}
        assert evaluate(e, joint, binding) == pytest.approx(
            evaluate(s, joint, binding), abs=1e-12)


# ---------------------------------------------------------------- evaluation

def test_factor_evaluation_matches_direct():
    joint = random_positive_joint(1, ("A", "B"), (2, 3))
    vals = joint.values  # axes sorted: A, B
    for a, b in itertools.product(range(2), range(3)):
        got = evaluate(factor(["A"], ["B"]), joint, {"a": a, "b": b})
        want = vals[a, b] / vals[:, b].sum()
        assert got == pytest.approx(want, abs=1e-14)


def test_const_slot_evaluation():
    joint = random_positive_joint(2, ("A", "B"), (2, 2))
    e = Factor(outcomes=(Slot("A", Const(1)),), given=(Slot("B", Var("b")),))
    got = evaluate(e, joint, {"b": 0})
    want = joint.values[1, 0] / joint.values[:, 0].sum()
    assert got == pytest.approx(want, abs=1e-14)


def test_marginal_and_sum_agree():
    # schema_version 1 documents may say "marginal" where a sum is meant;
    # they read as the same expression, so they evaluate the same
    joint = random_positive_joint(3, ("A", "C", "M", "Y"), (2, 3, 2, 2))

    def as_marginals(node):
        if isinstance(node, dict):
            node = {k: as_marginals(v) for k, v in node.items()}
            return {**node, "kind": "marginal"} if node.get("kind") == "sum" else node
        return [as_marginals(v) for v in node] if isinstance(node, list) else node

    text = to_json(FRONT_DOOR)
    old = json.dumps(as_marginals(json.loads(text)))
    assert old.count('"marginal"') == 2 and '"sum"' not in old
    assert from_json(old) == from_json(text) == FRONT_DOOR
    ev = Evaluator(joint)
    for a, y in itertools.product(range(2), range(2)):
        assert evaluate(from_json(old), joint, {"a": a, "Y": y}) == ev.evaluate(
            FRONT_DOOR, {"a": a, "Y": y})
    s = Sum(indices=(("b", "B"),), body=factor(["A", "B"]))
    joint = random_positive_joint(3, ("A", "B"), (2, 2))
    for a in range(2):
        assert evaluate(s, joint, {"a": a}) == pytest.approx(
            joint.values[a, :].sum(), abs=1e-15)


def test_marginal_empty_indices_is_identity():
    joint = random_positive_joint(4, ("A",), (3,))
    e = Sum(indices=(), body=factor(["A"]))
    for a in range(3):
        assert evaluate(e, joint, {"a": a}) == pytest.approx(
            joint.values[a], abs=1e-15)


def test_full_marginalization_sums_to_one():
    rng = pyrandom.Random(6)
    for trial in range(10):
        names = tuple(f"V{i}" for i in range(rng.randint(1, 4)))
        cards = tuple(rng.randint(2, 3) for _ in names)
        joint = random_positive_joint(100 + trial, names, cards)
        e = Sum(indices=tuple((v.lower(), v) for v in names), body=factor(names))
        assert evaluate(e, joint, {}) == pytest.approx(1.0, abs=1e-12)


def test_missing_binding_raises():
    joint = random_positive_joint(7, ("A",), (2,))
    with pytest.raises(EvaluationError, match="missing binding"):
        evaluate(factor(["A"]), joint, {})


@pytest.mark.parametrize("value", [-1, 2])
def test_constant_out_of_range_raises(value):
    # Const(-1) used to read p(Y=1) through numpy's negative indexing, and
    # Const(2) raised a bare IndexError
    joint = random_positive_joint(7, ("A", "Y"), (3, 2))
    e = Factor(outcomes=(Slot("Y", Const(value)),), given=(Slot("A", Var("a")),))
    want = rf"Y={value} out of range 0\.\.1 in p\(Y={value} \| a\)"
    with pytest.raises(EvaluationError, match=want):
        evaluate(e, joint, {"a": 0})
    assert evaluate(Factor(outcomes=(Slot("A", Const(2)),)), joint, {}) == pytest.approx(
        joint.values[2].sum(), abs=1e-15)


@pytest.mark.parametrize("value", [-1, 2, np.array([[0], [2]])])
def test_binding_out_of_range_raises(value):
    joint = random_positive_joint(7, ("A", "Y"), (3, 2))
    e = factor(["Y"], ["A"])
    with pytest.raises(EvaluationError, match=r"value of 'y' out of range 0\.\.1"):
        evaluate(e, joint, {"a": 2, "y": value})
    assert evaluate(e, joint, {"a": np.arange(3), "y": 1}).shape == (3,)


P_AV, P_YV = (Factor(outcomes=(Slot(x, Var("v")),)) for x in ("A", "Y"))
CARD_MISMATCHES = {
    # einsum raised a bare ValueError on the diagonal of a 3 x 2 table
    "factor": (3, Factor(outcomes=(Slot("Y", Var("v")),), given=(Slot("A", Var("v")),)),
               "'Y' (card 2) and 'A' (card 3)"),
    # the sum ran over A's three values, not Y's two
    "sum": (3, Sum(indices=(("v", "Y"),), body=P_AV), "'A' (card 3) and 'Y' (card 2)"),
    # numpy broadcast A's one value over Y's two and returned a number
    "product": (1, Product((P_AV, P_YV)), "'A' (card 1) and 'Y' (card 2)"),
    "quotient": (1, Quotient(P_YV, P_AV), "'Y' (card 2) and 'A' (card 1)"),
}


@pytest.mark.parametrize("card_a, e, vertices", CARD_MISMATCHES.values(), ids=CARD_MISMATCHES)
def test_one_variable_over_two_cardinalities_raises(card_a, e, vertices):
    joint = random_positive_joint(7, ("A", "Y"), (card_a, 2))
    with pytest.raises(EvaluationError, match=re.escape(f"variable 'v' ranges over {vertices}")):
        evaluate(e, joint, {"v": 1} if free_vars(e) else {})


def test_zero_denominator_names_subexpression():
    vals = np.array([[0.5, 0.0], [0.5, 0.0]])
    joint = ProbTable(variables=("A", "B"), cards=(2, 2), values=vals)
    with pytest.raises(EvaluationError, match=r"p\(a \| b\)"):
        evaluate(factor(["A"], ["B"]), joint, {"a": 0, "b": 1})


def test_quotient_zero_denominator():
    vals = np.array([1.0, 0.0])
    joint = ProbTable(variables=("A",), cards=(2,), values=vals)
    e = Quotient(factor(["A"]), factor(["A"]))
    with pytest.raises(EvaluationError, match="zero denominator"):
        evaluate(e, joint, {"a": 1})


def test_zero_denominator_in_any_cell_raises():
    # p(B=1) = 0: the table of p(a | b) has a zero denominator at b=1, so it
    # raises even where only b=0 is asked for
    vals = np.array([[0.5, 0.0], [0.5, 0.0]])
    joint = ProbTable(variables=("A", "B"), cards=(2, 2), values=vals)
    with pytest.raises(EvaluationError, match=r"p\(a \| b\)"):
        evaluate(factor(["A"], ["B"]), joint, {"a": 0, "b": 0})
    # a constant slot slices the table first: p(a | B=0) has no zero cell
    at_zero = Factor(outcomes=(Slot("A", Var("a")),), given=(Slot("B", Const(0)),))
    assert evaluate(at_zero, joint, {"a": 1}) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_reads_a_grid_in_one_call():
    joint = random_positive_joint(9, ("A", "B", "C"), (2, 3, 2))
    ev = Evaluator(joint)
    grid = {"a": np.arange(2).reshape(2, 1), "y": np.arange(2).reshape(1, 2)}
    table = ev.evaluate(FRONT_DOOR_ABC, grid)
    assert table.shape == (2, 2)
    for a, y in itertools.product(range(2), range(2)):
        assert table[a, y] == ev.evaluate(FRONT_DOOR_ABC, {"a": a, "y": y})


def golden_estimands():
    """(graph, identified result) for every fixture estimand pinned in
    ``golden_estimands.json`` and every identified query of
    ``golden_hedges.json``."""
    from causalid import identify
    from test_golden_estimands import queries as fixture_queries
    from test_golden_hedges import queries as hedge_queries

    pairs = [(g, q) for _, g, q in fixture_queries()] + list(hedge_queries())
    for g, q in pairs:
        res = identify(g, q)
        if res.identified:
            yield g, res


def test_table_evaluator_matches_the_scalar_reference():
    # every point of every golden estimand, each over its own seeded positive
    # joint; graphs of up to five vertices mix binary and ternary ones
    rng = pyrandom.Random(4)
    checked = 0
    for case, (g, res) in enumerate(golden_estimands()):
        cards = tuple(rng.choice([2, 3]) if len(g.random) <= 5 else 2 for _ in g.random)
        joint = random_positive_joint(case, g.random, cards)
        card = dict(zip(g.random, cards))
        q, labels = res.query, res.treatment_labels
        names = list(q.outcomes) + [labels[a] for a in q.treatments]
        vertices = list(q.outcomes) + list(q.treatments)
        ev, ref = Evaluator(joint), ScalarEvaluator(joint)
        for values in itertools.product(*[range(card[v]) for v in vertices]):
            binding = dict(zip(names, values))
            got = ev.evaluate(res.estimand, binding)
            assert abs(got - ref.evaluate(res.estimand, binding)) <= 1e-12, (q, binding)
            checked += 1
    assert checked > 1000


def test_evaluator_builds_one_table_per_distinct_node():
    rng = pyrandom.Random(5)
    for case, (g, res) in enumerate(golden_estimands()):
        joint = random_positive_joint(case, g.random, [rng.choice([2, 3]) for _ in g.random])
        ev = Evaluator(joint)
        binding = {v: 0 for v in free_vars(res.estimand)}
        ev.evaluate(res.estimand, binding)
        ev.evaluate(res.estimand, binding)
        assert 0 < len(ev._tables) <= dag_nodes(res.estimand)


def test_evaluator_memo_reuse():
    joint = random_positive_joint(8, ("A", "B", "C"), (2, 2, 2))
    ev = Evaluator(joint)
    for a, y in itertools.product(range(2), range(2)):
        one_shot = evaluate(FRONT_DOOR_ABC, joint, {"a": a, "y": y})
        assert ev.evaluate(FRONT_DOOR_ABC, joint_binding := {"a": a, "y": y}) == pytest.approx(
            one_shot, abs=1e-14)


def test_evaluator_memo_survives_freed_nodes():
    # P(A, B) = [[.1, .2], [.3, .4]]: p(A=0) = .3, p(B=0) = .4. Each factor is
    # freed after use, so a new one may take its id; the memo must not answer
    # for the freed one.
    joint = ProbTable(variables=("A", "B"), cards=(2, 2),
                      values=np.array([[0.1, 0.2], [0.3, 0.4]]))
    ev = Evaluator(joint)
    zero = Const(0)
    for _ in range(50):
        fa = Factor(outcomes=(Slot("A", zero),))
        assert ev.evaluate(fa, {}) == pytest.approx(0.3, abs=1e-15)
        del fa
        fb = Factor(outcomes=(Slot("B", zero),))
        assert ev.evaluate(fb, {}) == pytest.approx(0.4, abs=1e-15)
        del fb


# shared-structure variant over vertices A, B(=mediator), C(=outcome proxy)
_inner = Factor(outcomes=(Slot("C", Var("y")),),
                given=(Slot("B", Var("m")), Slot("A", Var("a"))))
FRONT_DOOR_ABC = Sum(
    indices=(("m", "B"),),
    body=Product(terms=(_inner, Quotient(_inner, _inner), factor(["A"]))),
)


# ------------------------------------------------------------------ rendering

def test_render_text_front_door_frozen():
    assert render_text(FRONT_DOOR) == (
        "sum_{c,m} (sum_{a'} p(Y | m, a', c) p(a' | c)) p(m | a, c) p(c)"
    )


def test_render_text_const():
    e = Factor(outcomes=(Slot("Y", Var("y")),), given=(Slot("A", Const(1)),))
    assert render_text(e) == "p(y | A=1)"


def test_render_latex():
    assert render_latex(FRONT_DOOR) == (
        "\\sum_{c, m} \\left( \\sum_{a'} p(Y \\mid m, a', c) p(a' \\mid c) \\right) "
        "p(m \\mid a, c) p(c)"
    )
    q = Quotient(factor(["A"]), factor(["B"]))
    assert render_latex(q) == "\\frac{p(a)}{p(b)}"


def test_render_wrapped_product_terms():
    # a quotient or a sum inside a product is wrapped; a factor is not
    e = Product(terms=(
        Quotient(factor(["A"]), factor(["B"])),
        Sum(indices=(("c", "C"),), body=factor(["C"])),
        factor(["D"], ["A"]),
    ))
    assert render_text(e) == "((p(a)) / (p(b))) (sum_{c} p(c)) p(d | a)"
    assert render_latex(e) == (
        "\\frac{p(a)}{p(b)} \\left( \\sum_{c} p(c) \\right) p(d \\mid a)"
    )


def test_render_binder_freshening_nested():
    inner = Sum(indices=(("a", "A"),), body=factor([Slot("B", Var("b"))], [Slot("A", Var("a"))]))
    outer = Sum(indices=(("a", "A"),),
                body=Product(terms=(factor([Slot("C", Var("c"))], [Slot("A", Var("a"))]), inner)))
    text = render_text(outer)
    assert "sum_{a}" in text and "sum_{a'}" in text


# -------------------------------------------------------------- serialization

def test_json_round_trip():
    assert from_json(to_json(FRONT_DOOR)) == FRONT_DOOR
    e = Factor(outcomes=(Slot("Y", Const(0)),))
    assert from_json(to_json(e)) == e


FACTOR_Y = {"kind": "factor", "outcomes": [{"vertex": "Y", "var": "y"}]}


PARSE_ERRORS = [
    ("{nope", "invalid JSON at line 1"),
    ([], "top level must be an object"),
    ({"expr": FACTOR_Y}, "unsupported schema_version"),
    ({"schema_version": 1, "expr": 5}, "expr: expected an object with a 'kind' key"),
    ({"kind": "wat"}, "expr: unknown node kind 'wat'"),
    ({"kind": "product", "terms": 5}, "expr: 'terms' must be a list"),
    ({"kind": "product", "terms": [{"kind": "wat"}]}, "expr.terms[0]: unknown node kind"),
    ({"kind": "quotient", "numerator": FACTOR_Y}, "expr: quotient missing 'denominator'"),
    ({"kind": "factor", "outcomes": 5}, "expr: 'outcomes' must be a list"),
    ({"kind": "factor", "outcomes": [], "given": {}}, "expr: 'given' must be a list"),
    ({"kind": "factor", "outcomes": ["Y"]}, "expr.outcomes[0]: slot must be an object"),
    ({"kind": "factor", "outcomes": [{"vertex": 5, "var": "a"}]},
     "expr.outcomes[0]: 'vertex' must be a non-empty string"),
    ({"kind": "factor", "outcomes": [{"vertex": "Y"}]}, "expr.outcomes[0]: slot needs 'var' or 'const'"),
    ({"kind": "factor", "outcomes": [{"vertex": "Y", "var": "y", "const": 0}]},
     "expr.outcomes[0]: slot has both 'var' and 'const'"),
    ({"kind": "factor", "outcomes": [{"vertex": "Y", "var": ""}]},
     "expr.outcomes[0]: 'var' must be a non-empty string"),
    ({"kind": "factor", "outcomes": [], "given": [{"vertex": "Y", "const": True}]},
     "expr.given[0]: 'const' must be an integer"),
    ({"kind": "factor", "outcomes": [{"vertex": "Y", "const": -1}]},
     "expr.outcomes[0]: 'const' must be an integer >= 0"),
    ({"schema_version": True, "expr": FACTOR_Y}, "unsupported schema_version: True"),
    ({"schema_version": 1.0, "expr": FACTOR_Y}, "unsupported schema_version: 1.0"),
    ({"kind": "sum", "indices": 5, "body": FACTOR_Y}, "expr: 'indices' must be a list"),
    ({"kind": "sum", "indices": [{"var": "y"}], "body": FACTOR_Y},
     "expr.indices[0]: expected an object with 'var' and 'vertex'"),
    ({"kind": "marginal", "indices": [{"var": 3, "vertex": "Y"}], "body": FACTOR_Y},
     "expr.indices[0]: 'var' must be a non-empty string"),
    ({"kind": "sum", "indices": [{"var": "y", "vertex": ["Y"]}], "body": FACTOR_Y},
     "expr.indices[0]: 'vertex' must be a non-empty string"),
    ({"kind": "marginal", "indices": []}, "expr: marginal missing 'body'"),
]


@pytest.mark.parametrize(
    "expr, prefix", PARSE_ERRORS,
    ids=[re.sub(r"\W+", "-", p).strip("-") for _, p in PARSE_ERRORS],
)
def test_json_parse_errors_carry_paths(expr, prefix):
    # a bare node is wrapped as the document's expression
    if isinstance(expr, dict) and "kind" in expr:
        expr = {"schema_version": 1, "expr": expr}
    text = expr if isinstance(expr, str) else json.dumps(expr)
    with pytest.raises(ExpressionParseError, match="^" + re.escape(prefix)):
        from_json(text)


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_json_nested_too_deeply_is_a_parse_error(depth):
    # depending on the interpreter, the JSON decoder or the walk over the
    # decoded nodes runs out of stack first; either is a parse error
    nested = '{"kind": "sum", "indices": [], "body": ' * depth + json.dumps(FACTOR_Y) + "}" * depth
    for text in ("[" * depth, '{"schema_version": 1, "expr": ' + nested + "}"):
        with pytest.raises(ExpressionParseError, match="nested too deeply"):
            from_json(text)


NESTINGS = {
    "sum": lambda inner: {"kind": "sum", "indices": [], "body": inner},
    "product": lambda inner: {"kind": "product", "terms": [inner]},
    "numerator": lambda inner: {"kind": "quotient", "numerator": inner, "denominator": FACTOR_Y},
    "denominator": lambda inner: {"kind": "quotient", "numerator": FACTOR_Y, "denominator": inner},
}


def readable(e):
    """Every walker a parsed document may meet, run once."""
    for walk in (to_json, render_text, render_latex, render_dot, free_vars, well_formed):
        walk(e)


@pytest.mark.parametrize("nesting", NESTINGS)
def test_json_deeper_than_the_bound_is_a_parse_error(nesting):
    # a document at the bound goes through every walker; one level more is
    # refused before any walker could run out of stack
    node = FACTOR_Y
    for _ in range(MAX_DEPTH - 1):
        node = NESTINGS[nesting](node)
    e = from_json(json.dumps({"schema_version": 1, "expr": node}))
    readable(e)
    assert to_json(from_json(to_json(e))) == to_json(e)
    too_deep = json.dumps({"schema_version": 1, "expr": NESTINGS[nesting](node)})
    with pytest.raises(ExpressionParseError, match=f"nested too deeply: over {MAX_DEPTH} levels"):
        from_json(too_deep)


def test_identify_output_on_a_chain_stays_under_the_bound():
    from causalid import Query, identify

    # p(V(n-1) | do(V0)) on chain(n) is n + 4 levels deep
    res = identify(chain(12), Query(outcomes=("V11",), treatments=("V0",)))
    assert depth(res.estimand) == 16
    assert from_json(to_json(res.estimand)) == res.estimand


def expressions(vertices, names, values=st.integers(0, 2)):
    """Expressions over the drawn vertex names, variable names and constants,
    some with a subtree shared at one depth or at two."""
    refs = st.one_of(st.builds(Var, names), st.builds(Const, values))
    slots = st.lists(st.builds(Slot, vertices, refs), max_size=2).map(tuple)
    return st.recursive(
        st.builds(Factor, slots, slots),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda ts: Product(tuple(ts))),
            st.builds(Quotient, inner, inner),
            st.builds(Sum, st.lists(st.tuples(names, vertices), max_size=2).map(tuple), inner),
            inner.map(lambda e: Quotient(e, e)),
            inner.map(lambda e: Product((e, Quotient(e, e)))),
        ),
        max_leaves=6,
    )


VERTICES = st.sampled_from(["A", "B", "Y"])
NAMES = st.sampled_from(["a", "b", "y", "Y"])
EXPRS = expressions(VERTICES, NAMES)
KEYS = ["kind", "outcomes", "given", "terms", "numerator", "denominator", "body", "indices",
        "var", "vertex", "const", "schema_version", "expr"]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=False),
                    st.sampled_from(["", "Y", "sum", "marginal", "factor", "product", "quotient"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=2)), inner, max_size=4),
    ),
    max_leaves=10,
)


def _places(node, out):
    """Append every (container, key or index) inside ``node``."""
    if isinstance(node, (dict, list)):
        for k, v in list(node.items() if isinstance(node, dict) else enumerate(node)):
            out.append((node, k))
            _places(v, out)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_estimand_json_is_an_expression_or_a_parse_error(data):
    # any exception but an ExpressionParseError fails the property, and an
    # accepted document goes through every walker
    if data.draw(st.booleans()):
        text = json.dumps(data.draw(JSON_VALUES))
    else:
        doc = json.loads(to_json(data.draw(EXPRS)))
        node, key = data.draw(st.sampled_from(_places(doc, [])))
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(st.one_of(SCALARS, JSON_VALUES))
        text = json.dumps(doc)
    try:
        e = from_json(text)
    except ExpressionParseError:
        return
    readable(e)


@settings(max_examples=300, deadline=None)
@given(e=expressions(st.text(), st.text(), st.integers()))
def test_to_json_writes_the_bytes_of_json_dumps(e):
    # names with quotes, backslashes, control characters and non-ASCII, and
    # subtrees shared at one depth or at two, which the writer copies or
    # walks again
    assert to_json(e) == json.dumps({"schema_version": 1, "expr": _node_to_dict(e)}, indent=2)


def test_json_round_trip_fuzz():
    rng = pyrandom.Random(12)

    def rand_expr(depth):
        kind = rng.choice(["factor"] if depth > 3 else ["factor", "product", "quotient", "sum"])
        if kind == "factor":
            return Factor(
                outcomes=(Slot(f"V{rng.randint(0, 3)}",
                               Var(f"x{rng.randint(0, 3)}") if rng.random() < 0.7
                               else Const(rng.randint(0, 2))),),
            )
        if kind == "product":
            return Product(terms=tuple(rand_expr(depth + 1) for _ in range(rng.randint(1, 3))))
        if kind == "quotient":
            return Quotient(rand_expr(depth + 1), rand_expr(depth + 1))
        return Sum(indices=((f"x{rng.randint(0, 3)}", f"V{rng.randint(0, 3)}"),),
                   body=rand_expr(depth + 1))

    for _ in range(50):
        e = rand_expr(0)
        assert from_json(to_json(e)) == e
