import collections
import itertools
import json
import random as pyrandom
import re

import numpy as np
import pytest

from causalid import (
    Const,
    EvaluationError,
    Evaluator,
    ExpressionParseError,
    Factor,
    Marginal,
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
from helpers import ScalarEvaluator, dag_nodes, random_positive_joint


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
    # the dangling marginal is reached twice: deep under terms[0] first, and
    # directly as terms[1]; depth-first order reports the deep path
    dangling = Marginal(indices=(("m", "M"),), body=factor(["Y"]))
    e = Product(terms=(
        Quotient(factor(["A"]), Product(terms=(factor(["C"]), dangling))),
        dangling,
    ))
    want = (False, ["product.terms[0].denominator.terms[1]: dangling index 'm'"])
    assert well_formed(e) == want
    assert well_formed(e, allowed_free=set()) == want
    twice = factor(["Y", Slot("Y", Var("z"))])
    e = Sum(indices=(("y", "Y"),), body=Product(terms=(
        Marginal(indices=(("z", "Y"),), body=twice), Quotient(twice, twice))))
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
        40, lambda prev: Product(terms=(prev, Marginal(indices=(("y", "Y"),), body=prev))))
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
    joint = random_positive_joint(3, ("A", "B"), (2, 2))
    body = factor(["A", "B"])
    s = Sum(indices=(("b", "B"),), body=body)
    m = Marginal(indices=(("b", "B"),), body=body)
    for a in range(2):
        assert evaluate(s, joint, {"a": a}) == pytest.approx(
            evaluate(m, joint, {"a": a}), abs=1e-15)
        assert evaluate(s, joint, {"a": a}) == pytest.approx(
            joint.values[a, :].sum(), abs=1e-15)


def test_marginal_empty_indices_is_identity():
    joint = random_positive_joint(4, ("A",), (3,))
    e = Marginal(indices=(), body=factor(["A"]))
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
