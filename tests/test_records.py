"""The public value types behave as the frozen dataclasses they replaced:
the same ``repr``, equality only within one class, hashes of equal values
equal, no assignment, identity equality for the numpy-backed types, and the
constructor defaults and normalization."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from causalid import (
    Const,
    DiscreteScm,
    Factor,
    FailureReport,
    FixingSequence,
    GraphError,
    HedgeWitness,
    MixedGraph,
    NotReachable,
    ProbTable,
    Product,
    Query,
    Quotient,
    Slot,
    Sum,
    Var,
    VerificationReport,
    from_json,
    identify,
    to_json,
)
from causalid._record import Record
from causalid.identify import Decomposition, decompose

FRONT = MixedGraph(random=["A", "M", "Y"], directed=[("A", "M"), ("M", "Y")],
                   bidirected=[("A", "Y")])
DAG = MixedGraph(random=["A", "Y"], directed=[("A", "Y")])
HEDGE = MixedGraph(random=["A", "Y"], directed=[("A", "Y")], bidirected=[("A", "Y")])
Y_DO_A = Query(outcomes=("Y",), treatments=("A",))


def fa(v="A", name=None):
    return Factor((Slot(v, Var(name or v)),))


# one factory per public record type; each repr was printed by the
# dataclass-based types these replaced
CASES = {
    "Var": (lambda: Var("a"), "Var(name='a')"),
    "Const": (lambda: Const(1), "Const(value=1)"),
    "Slot": (lambda: Slot("A", Var("a")), "Slot(vertex='A', ref=Var(name='a'))"),
    "Factor": (
        lambda: Factor((Slot("Y", Var("Y")),), (Slot("A", Const(0)),)),
        "Factor(outcomes=(Slot(vertex='Y', ref=Var(name='Y')),), "
        "given=(Slot(vertex='A', ref=Const(value=0)),))",
    ),
    "Product": (
        lambda: Product((fa("A"), fa("B"))),
        "Product(terms=(Factor(outcomes=(Slot(vertex='A', ref=Var(name='A')),), given=()), "
        "Factor(outcomes=(Slot(vertex='B', ref=Var(name='B')),), given=())))",
    ),
    "Quotient": (
        lambda: Quotient(fa("A"), fa("B")),
        "Quotient(numerator=Factor(outcomes=(Slot(vertex='A', ref=Var(name='A')),), given=()), "
        "denominator=Factor(outcomes=(Slot(vertex='B', ref=Var(name='B')),), given=()))",
    ),
    "Sum": (
        lambda: Sum((("b", "B"),), fa("B", "b")),
        "Sum(indices=(('b', 'B'),), "
        "body=Factor(outcomes=(Slot(vertex='B', ref=Var(name='b')),), given=()))",
    ),
    "FixingSequence": (
        lambda: FixingSequence(("A", "B"), (frozenset({"A"}), frozenset({"B"}))),
        "FixingSequence(steps=('A', 'B'), descendants=(frozenset({'A'}), frozenset({'B'})))",
    ),
    "NotReachable": (lambda: NotReachable(("A",)), "NotReachable(residual=('A',))"),
    "Query": (
        lambda: Query(outcomes=("Y", "Y"), treatments=("A",)),
        "Query(outcomes=('Y',), treatments=('A',))",
    ),
    "Decomposition": (
        lambda: decompose(FRONT, Y_DO_A),
        "Decomposition(ystar=('M', 'Y'), districts=(('M',), ('Y',)), "
        "contexts={('M',): ('A',), ('Y',): ('M',)})",
    ),
    "HedgeWitness": (
        lambda: HedgeWitness(("Y",), ("A", "Y"), ("Y",)),
        "HedgeWitness(inner=('Y',), outer=('A', 'Y'), roots=('Y',))",
    ),
    "Identified": (
        lambda: identify(DAG, Y_DO_A),
        "Identified(graph=MixedGraph(random=['A', 'Y'], directed=[('A', 'Y')], bidirected=[]), "
        "query=Query(outcomes=('Y',), treatments=('A',)), "
        "estimand=Quotient(numerator=Factor(outcomes=(Slot(vertex='A', ref=Var(name='a')), "
        "Slot(vertex='Y', ref=Var(name='Y'))), given=()), "
        "denominator=Quotient(numerator=Sum(indices=(('Y', 'Y'),), "
        "body=Factor(outcomes=(Slot(vertex='A', ref=Var(name='a')), "
        "Slot(vertex='Y', ref=Var(name='Y'))), given=())), "
        "denominator=Sum(indices=(('A', 'A'), ('Y', 'Y')), "
        "body=Factor(outcomes=(Slot(vertex='A', ref=Var(name='A')), "
        "Slot(vertex='Y', ref=Var(name='Y'))), given=())))), "
        "districts=((('Y',), Quotient(numerator=Factor(outcomes=(Slot(vertex='A', "
        "ref=Var(name='A')), Slot(vertex='Y', ref=Var(name='Y'))), given=()), "
        "denominator=Quotient(numerator=Sum(indices=(('Y', 'Y'),), "
        "body=Factor(outcomes=(Slot(vertex='A', ref=Var(name='A')), "
        "Slot(vertex='Y', ref=Var(name='Y'))), given=())), "
        "denominator=Sum(indices=(('A', 'A'), ('Y', 'Y')), "
        "body=Factor(outcomes=(Slot(vertex='A', ref=Var(name='A')), "
        "Slot(vertex='Y', ref=Var(name='Y'))), given=())))), ('A',)),), "
        "treatment_labels={'A': 'a'})",
    ),
    "NotIdentified": (
        lambda: identify(HEDGE, Y_DO_A),
        "NotIdentified(graph=MixedGraph(random=['A', 'Y'], directed=[('A', 'Y')], "
        "bidirected=[['A', 'Y']]), query=Query(outcomes=('Y',), treatments=('A',)), "
        "witness=HedgeWitness(inner=('Y',), outer=('A', 'Y'), roots=('Y',)), "
        "failing_districts=(('Y',),))",
    ),
    "FailureReport": (
        lambda: FailureReport(True, False, True),
        "FailureReport(hedge_exists=True, some_district_not_intrinsic=False, "
        "some_district_proper_closure=True)",
    ),
    "ProbTable": (
        lambda: ProbTable(("A",), (2,), np.array([0.25, 0.75])),
        "ProbTable(variables=('A',), cards=(2,), values=array([0.25, 0.75]))",
    ),
    "DiscreteScm": (
        lambda: DiscreteScm(MixedGraph(random=["A"]), {"A": 2}, {"A": np.array([0.5, 0.5])}),
        "DiscreteScm(graph=MixedGraph(random=['A'], directed=[], bidirected=[]), "
        "cards={'A': 2}, cpts={'A': array([0.5, 0.5])})",
    ),
    "VerificationReport": (
        lambda: VerificationReport(0.0, 1e-9, 4, {"A": 0, "Y": 1}, 0.5, 0.5),
        "VerificationReport(max_deviation=0.0, tolerance=1e-09, points=4, "
        "worst={'A': 0, 'Y': 1}, got=0.5, want=0.5)",
    ),
}
BY_IDENTITY = {"ProbTable", "DiscreteScm"}
# fields holding a dict, which a value's hash cannot cover
UNHASHABLE = {"Decomposition", "Identified", "VerificationReport"}


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_repr(name):
    make, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = CASES[name][0]()
    field = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == CASES[name][1]


@pytest.mark.parametrize("name", sorted(set(CASES) - BY_IDENTITY))
def test_equal_values_are_equal_with_equal_hashes(name):
    a, b = CASES[name][0](), CASES[name][0]()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(BY_IDENTITY))
def test_numpy_backed_records_compare_by_identity(name):
    a, b = CASES[name][0](), CASES[name][0]()
    assert a != b and a == a
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_and_deepcopy_round_trip(name):
    record = CASES[name][0]()
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record) and repr(copied) == CASES[name][1]


def test_equality_needs_the_same_class_and_fields():
    body = fa("B", "b")
    assert NotReachable(("B",)) != Product(("B",))  # equal field tuples
    assert Sum((("b", "B"),), body) == Sum((("b", "B"),), fa("B", "b"))
    assert Sum((("b", "B"),), body) != Sum((("c", "B"),), body)
    assert Var("a") != Const("a") and Var("a") != "a" and Var("a") != ("a",)
    assert Quotient(fa("A"), fa("B")) != Quotient(fa("B"), fa("A"))
    assert hash(Const(0)) == hash((0,))  # a dataclass hashes its field tuple


def test_defaults_and_normalization():
    assert Factor((Slot("Y", Var("Y")),)).given == ()
    assert Factor(outcomes=(Slot("Y", Var("Y")),)) == Factor((Slot("Y", Var("Y")),), ())
    q = Query(outcomes=["Y", "X", "Y"], treatments=iter(["B", "A", "B"]))
    assert (q.outcomes, q.treatments) == (("X", "Y"), ("A", "B"))
    assert Query(outcomes=("Y",)).treatments == ()
    assert Query(("Y", "X")) == Query(("X", "Y"))
    assert hash(Query(("Y", "X"))) == hash(Query(("X", "Y")))
    assert FixingSequence(("A",)).descendants == ()
    assert list(FixingSequence(("A", "B"))) == ["A", "B"] and len(FixingSequence(())) == 0
    with pytest.raises(GraphError, match="repeated steps"):
        FixingSequence(("A", "A"))
    with pytest.raises(GraphError, match="one descendant set per step"):
        FixingSequence(("A", "B"), (frozenset({"A"}),))
    with pytest.raises(GraphError, match="sums to"):
        ProbTable(("A",), (2,), np.array([0.5, 0.25]))


def test_keyword_and_positional_construction_agree():
    assert Slot(vertex="A", ref=Var(name="a")) == Slot("A", Var("a"))
    assert HedgeWitness(inner=("Y",), outer=("A", "Y"), roots=("Y",)) == CASES["HedgeWitness"][0]()
    assert FailureReport(True, False, True).as_tuple() == (True, False, True)
    d = CASES["Decomposition"][0]()
    assert d == Decomposition(ystar=d.ystar, districts=d.districts, contexts=dict(d.contexts))


def test_constructor_parameters_are_the_fields():
    for name in CASES:
        CASES[name][0]()  # imports the module of every record type
    records = Record.__subclasses__()
    assert {cls.__name__ for cls in records} == set(CASES)
    for cls in records:
        assert tuple(inspect.signature(cls).parameters) == cls._fields


@pytest.mark.parametrize("call", [
    lambda: Slot("A"),
    lambda: Slot("A", Var("a"), vertx="B"),
    lambda: Slot("A", Var("a"), vertex="B"),
    lambda: Slot("A", Var("a"), None),
    lambda: Factor(),
    lambda: Factor((), (), ()),
    lambda: FailureReport(True, False, True, some_district_not_intrinsic=True),
])
def test_generated_constructors_refuse_bad_arguments(call):
    with pytest.raises(TypeError):
        call()


def chain_of_products(depth, leaf):
    e = fa("A", leaf)
    for _ in range(depth):
        e = Product((e, e))
    return e


def test_equality_is_iterative_and_visits_shared_nodes_once():
    # each tree of 2**40 leaves is a DAG of 41 nodes; the two share none
    a, b = chain_of_products(40, "a"), chain_of_products(40, "a")
    assert a == b and not a != b
    assert a != chain_of_products(40, "b")
    e = fa("A")
    for i in range(254):  # 255 nodes on the path from the root
        e = Product((e, fa("B", f"b{i}")))
    assert from_json(to_json(e)) == e
    assert from_json(to_json(e)) != Product((e.terms[0], fa("B", "c")))


def test_equality_compares_leaves_with_eq():
    assert Const(1) == Const(1.0) and hash(Const(1)) == hash(Const(1.0))
    assert Slot("A", Const(True)) == Slot("A", Const(1)) != Slot("A", Var(1))
