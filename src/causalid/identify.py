"""The identification engine.

Given an ADMG and a query p(Y | do(a)), either synthesize a symbolic estimand
over the observed joint or construct a hedge certificate of
non-identifiability. Kernel synthesis fixes one vertex at a time: a childless
vertex is marginalized out of the running kernel, and any other is divided
out as its conditional given its non-descendants, a quotient of marginals.
No simplification pass follows; correctness is certified numerically by the
oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from . import estimand as ex
from ._record import Record
from .errors import GraphError, QueryError
from .fixing import NotReachable, find_valid_sequence, is_intrinsic, reachable_closure
from .graph import MixedGraph


# ---------------------------------------------------------------------- query

class Query(Record):
    """An interventional query p(outcomes | do(treatments))."""

    outcomes: Tuple[str, ...]
    treatments: Tuple[str, ...]

    def __init__(self, outcomes: Iterable[str], treatments: Iterable[str] = ()):
        object.__setattr__(self, "outcomes", tuple(sorted(set(outcomes))))
        object.__setattr__(self, "treatments", tuple(sorted(set(treatments))))

    def validate(self, g: MixedGraph) -> None:
        if not self.outcomes:
            raise QueryError("outcome set must be nonempty")
        overlap = set(self.outcomes) & set(self.treatments)
        if overlap:
            raise QueryError(f"outcome intersects treatment: {sorted(overlap)}")
        observed = set(g.random) - g.hidden
        missing = (set(self.outcomes) | set(self.treatments)) - observed
        if missing:
            raise QueryError(f"query vertices not observed in graph: {sorted(missing)}")


def _require_admg(g: MixedGraph) -> None:
    if g.hidden:
        raise QueryError("identification expects a latent projection; project the hidden DAG first")
    if g.fixed:
        raise QueryError("identification expects an ADMG without fixed vertices")


# -------------------------------------------------------------- decomposition

class Decomposition(Record):
    ystar: Tuple[str, ...]
    districts: Tuple[Tuple[str, ...], ...]
    contexts: Mapping[Tuple[str, ...], Tuple[str, ...]]

    def __init__(self, ystar, districts, contexts):
        object.__setattr__(self, "ystar", ystar)
        object.__setattr__(self, "districts", districts)
        object.__setattr__(self, "contexts", contexts)


def decompose(g: MixedGraph, query: Query) -> Decomposition:
    """Split the query into districts of the relevant ancestral subgraph.

    Each district's context is its sorted parent set outside the district.
    Every context vertex is a treatment or in the relevant ancestral set: a
    parent that is not a treatment reaches the outcome through the district
    while avoiding the treatments.
    """
    _require_admg(g)
    query.validate(g)
    ystar = g.ancestral_avoiding(query.outcomes, query.treatments)
    districts = tuple(g.districts(within=ystar))
    contexts = {d: tuple(sorted(g.parents(d))) for d in districts}
    return Decomposition(ystar=tuple(sorted(ystar)), districts=districts, contexts=contexts)


# ----------------------------------------------------------- kernel synthesis

def _require_connected(g: MixedGraph, d) -> None:
    if len(g.districts(within=d)) != 1:
        raise GraphError(f"district {sorted(d)} is not bidirected-connected")


def _marginalize(e: ex.Expr, vertices) -> ex.Sum:
    return ex.Sum(indices=tuple((v, v) for v in sorted(vertices)), body=e)


def identify_district(g: MixedGraph, district) -> Union[ex.Expr, NotReachable]:
    """Symbolic kernel for one bidirected-connected set, or the stuck point.

    The kernel's free variables are named after the graph's vertices: the
    district members plus every other vertex as context.
    """
    _require_admg(g)
    d = set(district)
    _require_connected(g, d)
    return _kernel(g, d)


def _kernel(g: MixedGraph, d) -> Union[ex.Expr, NotReachable]:
    """``identify_district`` without its input checks, for the districts
    that ``decompose`` has just built."""
    res = find_valid_sequence(g, set(g.random) - d)
    if isinstance(res, NotReachable):
        return res
    kernel: ex.Expr = ex.Factor(outcomes=tuple(ex.Slot(v, ex.Var(v)) for v in g.random))
    for j, desc in zip(res.steps, res.descendants):
        marginal = _marginalize(kernel, desc)
        if desc == {j}:  # j is childless: fixing it is a plain marginal
            kernel = marginal
        else:
            # divide by p(j | everything left that is not a descendant of j),
            # taken within the running kernel as a quotient of its marginals
            conditional = ex.Quotient(_marginalize(kernel, desc - {j}), marginal)
            kernel = ex.Quotient(numerator=kernel, denominator=conditional)
    return kernel


# --------------------------------------------------------------- hedge checks

class HedgeWitness(Record):
    """A hedge as sorted vertex names: the inner C-forest, the outer C-forest
    that strictly contains it, and the roots they share."""

    inner: Tuple[str, ...]
    outer: Tuple[str, ...]
    roots: Tuple[str, ...]

    def __init__(self, inner: Tuple[str, ...], outer: Tuple[str, ...], roots: Tuple[str, ...]):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "roots", roots)

    def to_dict(self) -> dict:
        return {"inner": list(self.inner), "outer": list(self.outer), "roots": list(self.roots)}


def _hedge(g: MixedGraph, d, closure) -> HedgeWitness:
    """The district ``d`` nested inside its reachable ``closure``, rooted at
    the district's childless vertices."""
    d = set(d)
    roots = tuple(sorted(v for v in d if not g.children({v}) & d))
    return HedgeWitness(inner=tuple(sorted(d)), outer=tuple(sorted(closure)), roots=roots)


def find_hedge(g: MixedGraph, query: Query, district) -> HedgeWitness:
    """Constructive witness for a failing district: the district itself nested
    inside its reachable closure, rooted at the district's childless vertices."""
    d = set(district)
    _require_connected(g, d)
    closure = reachable_closure(g, d)
    if closure == d:  # the outer forest must strictly contain the inner one
        raise GraphError(f"{sorted(d)} is its own reachable closure, like an intrinsic set: no hedge")
    return _hedge(g, d, closure)


def hedge_violation(g: MixedGraph, query: Query, witness: HedgeWitness) -> Optional[str]:
    """Reason code for a failed hedge check, or None if the witness is valid."""
    f_in, f_out, roots = set(witness.inner), set(witness.outer), set(witness.roots)
    if not (f_in | f_out) <= set(g.random):
        return "vertices-outside-graph"
    if not roots or not roots <= f_in:
        return "roots-not-inside-inner-forest"
    for name, vs in (("inner", f_in), ("outer", f_out)):
        if len(g.districts(within=vs)) != 1:
            return f"{name}-not-bidirected-connected"
        # a spanning in-forest toward the roots exists exactly when every
        # vertex reaches a root inside the forest
        if not vs <= g.ancestors(roots & vs, within=vs):
            return f"{name}-not-rooted"
    if not f_in < f_out:
        return "inner-forest-not-strictly-inside-outer"
    treatments = set(query.treatments)
    if f_in & treatments:
        return "inner-forest-touches-treatments"
    if not treatments & (f_out - f_in):
        return "no-treatment-between-forests"
    ystar = g.ancestral_avoiding(query.outcomes, query.treatments)
    if not roots <= ystar:
        return "roots-lack-treatment-avoiding-path-to-outcome"
    return None


def is_hedge(g: MixedGraph, query: Query, witness: HedgeWitness) -> bool:
    return hedge_violation(g, query, witness) is None


# ------------------------------------------------------------------- assembly

class Identified(Record):
    graph: MixedGraph
    query: Query
    estimand: ex.Expr
    districts: Tuple[Tuple[Tuple[str, ...], ex.Expr, Tuple[str, ...]], ...]
    treatment_labels: Mapping[str, str]

    def __init__(self, graph, query, estimand, districts, treatment_labels):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "estimand", estimand)
        object.__setattr__(self, "districts", districts)
        object.__setattr__(self, "treatment_labels", treatment_labels)

    @property
    def identified(self) -> bool:
        return True

    def to_dict(self) -> dict:
        return {
            "status": "identified",
            "estimand": ex._node_to_dict(self.estimand),
            "districts": [
                {
                    "district": list(d),
                    "kernel": ex._node_to_dict(kernel),
                    "context": list(ctx),
                }
                for d, kernel, ctx in self.districts
            ],
        }


class NotIdentified(Record):
    graph: MixedGraph
    query: Query
    witness: HedgeWitness
    failing_districts: Tuple[Tuple[str, ...], ...]

    def __init__(self, graph, query, witness, failing_districts):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "failing_districts", failing_districts)

    @property
    def identified(self) -> bool:
        return False

    @property
    def failing_district(self) -> Tuple[str, ...]:
        return self.witness.inner

    @property
    def closure(self) -> Tuple[str, ...]:
        """The reachable closure of ``failing_district``."""
        return self.witness.outer

    def to_dict(self) -> dict:
        return {
            "status": "not_identified",
            "witness": self.witness.to_dict(),
            "failing_district": list(self.failing_district),
            "closure": list(self.closure),
            "failing_districts": [list(d) for d in self.failing_districts],
        }


IdentificationResult = Union[Identified, NotIdentified]


def _treatment_labels(query: Query, taken) -> Dict[str, str]:
    """Each treatment's value is named by its lower-cased name, primed until
    it names no vertex in ``taken`` and no earlier label. ``identify`` passes
    every vertex of the graph: a kernel's marginals bind vertex names from the
    whole graph, and ``substitute`` does not rename binders, so a label that
    names any vertex could be captured by one of them."""
    taken = set(taken)
    labels = {}
    for a in query.treatments:
        label = a.lower()
        while label in taken:
            label += "'"
        taken.add(label)
        labels[a] = label
    return labels


def identify(g: MixedGraph, query: Query) -> IdentificationResult:
    """Run the full identification pipeline for one query."""
    dec = decompose(g, query)
    kernels: Dict[Tuple[str, ...], ex.Expr] = {}
    failing: List[Tuple[Tuple[str, ...], NotReachable]] = []
    for d in dec.districts:
        res = _kernel(g, set(d))
        if isinstance(res, NotReachable):
            failing.append((d, res))
        else:
            kernels[d] = res
    if failing:
        # districts are sorted by least vertex name; the residual of the
        # stuck search is the rest of the district's reachable closure
        worst, stuck = failing[0]
        return NotIdentified(
            graph=g,
            query=query,
            witness=_hedge(g, worst, set(worst) | set(stuck.residual)),
            failing_districts=tuple(d for d, _ in failing),
        )

    ystar = set(dec.ystar)
    labels = _treatment_labels(query, taken=g.random)
    mapping: Dict[str, ex.Ref] = {}
    for v in g.random:
        if v in set(query.treatments):
            mapping[v] = ex.Var(labels[v])
        elif v not in ystar:
            # the kernel's value is constant in vertices outside the relevant
            # ancestral set and the treatments; pin them to an arbitrary level
            mapping[v] = ex.Const(0)
    terms = tuple(ex.substitute(kernels[d], mapping) for d in dec.districts)
    body: ex.Expr = terms[0] if len(terms) == 1 else ex.Product(terms=terms)
    sum_over = ystar - set(query.outcomes)
    expr = _marginalize(body, sum_over) if sum_over else body
    return Identified(
        graph=g,
        query=query,
        estimand=expr,
        districts=tuple((d, kernels[d], dec.contexts[d]) for d in dec.districts),
        treatment_labels=labels,
    )


# -------------------------------------------------- failure characterizations

class FailureReport(Record):
    hedge_exists: bool
    some_district_not_intrinsic: bool
    some_district_proper_closure: bool

    def __init__(self, hedge_exists, some_district_not_intrinsic, some_district_proper_closure):
        object.__setattr__(self, "hedge_exists", hedge_exists)
        object.__setattr__(self, "some_district_not_intrinsic", some_district_not_intrinsic)
        object.__setattr__(self, "some_district_proper_closure", some_district_proper_closure)

    def as_tuple(self) -> Tuple[bool, bool, bool]:
        return (
            self.hedge_exists,
            self.some_district_not_intrinsic,
            self.some_district_proper_closure,
        )


def failure_characterizations(g: MixedGraph, query: Query) -> FailureReport:
    """Three equivalent ways of detecting identification failure.

    The hedge condition is decided constructively: when some district is not
    intrinsic, the certificate built for the first such district is validated
    against the full hedge definition. ``is_intrinsic`` runs its own closure
    search, so the last two flags do not read one computation twice.
    """
    dec = decompose(g, query)
    closures = {d: reachable_closure(g, d) for d in dec.districts}
    not_intrinsic = [d for d in dec.districts if not is_intrinsic(g, d)]
    proper_closure = [d for d in dec.districts if set(d) < closures[d]]
    hedge = False
    if not_intrinsic:
        d = not_intrinsic[0]
        hedge = is_hedge(g, query, _hedge(g, d, closures[d]))
    return FailureReport(
        hedge_exists=hedge,
        some_district_not_intrinsic=bool(not_intrinsic),
        some_district_proper_closure=bool(proper_closure),
    )
