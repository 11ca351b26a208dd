"""Shared brute-force oracles and random-instance generators for the tests.

Everything here is deliberately naive (path enumeration, exhaustive search)
so it stays independent of the library's own algorithms.
"""

import heapq
import itertools
import random as pyrandom

import numpy as np

from causalid import (
    EvaluationError,
    Factor,
    GraphError,
    MixedGraph,
    NotReachable,
    ProbTable,
    Product,
    Quotient,
    Slot,
    Sum,
    Var,
    free_vars,
    render_text,
)


# ------------------------------------------------------- random instances

def random_admg(rng: pyrandom.Random, n: int, p_dir: float = 0.35, p_bid: float = 0.25):
    """Random ADMG on n vertices; directed edges follow a shuffled order."""
    names = [f"V{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    directed, bidirected = [], []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p_dir:
            directed.append((order[i], order[j]))
        if rng.random() < p_bid:
            bidirected.append((order[i], order[j]))
    return MixedGraph(random=names, directed=directed, bidirected=bidirected)


def chain(n: int):
    """V0 -> V1 -> ... -> V(n-1), all observed, no bidirected edges."""
    names = [f"V{i}" for i in range(n)]
    return MixedGraph(random=names, directed=list(zip(names, names[1:])))


def induced_subgraph(g: MixedGraph, vs) -> MixedGraph:
    """The subgraph of ``g`` induced by ``vs``, a subset of its vertices,
    built through the validating constructor."""
    vs = set(vs)
    return MixedGraph(
        random=(v for v in g.random if v in vs),
        fixed=(v for v in g.fixed if v in vs),
        hidden=g.hidden & vs,
        directed=((t, h) for t, h in g.directed if t in vs and h in vs),
        bidirected=(e for e in g.bidirected if e <= vs),
    )


def random_hidden_dag(
    rng: pyrandom.Random, n_obs: int, n_hidden: int, p_dir: float = 0.4, observed=None
):
    """Random DAG over observed and hidden H* vertices. The ``n_obs``
    observed ones are named ``observed``, or V0, V1, ... by default."""
    observed = list(observed) if observed is not None else [f"V{i}" for i in range(n_obs)]
    names = observed + [f"H{i}" for i in range(n_hidden)]
    order = names[:]
    rng.shuffle(order)
    directed = []
    for i, j in itertools.combinations(range(len(order)), 2):
        if rng.random() < p_dir:
            directed.append((order[i], order[j]))
    return MixedGraph(
        random=names,
        hidden=[v for v in names if v.startswith("H")],
        directed=directed,
    )


def random_query_sets(rng: pyrandom.Random, observed, max_outcomes=2, max_treatments=2):
    observed = sorted(observed)
    n_y = rng.randint(1, min(max_outcomes, len(observed)))
    outcomes = rng.sample(observed, n_y)
    rest = [v for v in observed if v not in outcomes]
    n_a = rng.randint(0, min(max_treatments, len(rest)))
    treatments = rng.sample(rest, n_a)
    return sorted(outcomes), sorted(treatments)


def prob(table: ProbTable, assignment) -> float:
    """Probability in ``table`` of an assignment that binds exactly its
    variables; any other assignment raises :class:`GraphError`
    (marginalize first)."""
    if assignment.keys() != set(table.variables):
        raise GraphError(
            f"assignment {sorted(assignment)} must bind exactly {list(table.variables)}")
    return float(table.values[tuple(assignment[v] for v in table.variables)])


def random_positive_joint(seed: int, variables, cards) -> ProbTable:
    """Arbitrary strictly positive joint (not Markov to any particular graph)."""
    variables = tuple(variables)
    cards = tuple(cards)
    rng = np.random.default_rng(seed)
    vals = rng.random(size=cards) + 0.05
    vals /= vals.sum()
    return ProbTable(variables=variables, cards=cards, values=vals)


# ----------------------------------------------------- brute-force oracles

def directed_paths(g: MixedGraph, source: str, sink: str):
    """All simple directed paths from source to sink (lists of vertices)."""
    ch = {v: sorted({h for t, h in g.directed if t == v}) for v in g.vertices}
    out = []

    def walk(path):
        v = path[-1]
        if v == sink:
            out.append(path[:])
            return
        for c in ch[v]:
            if c not in path:
                walk(path + [c])

    walk([source])
    return out


def brute_ancestors(g: MixedGraph, targets):
    targets = set(targets)
    return frozenset(
        v
        for v in g.vertices
        if v in targets or any(directed_paths(g, v, t) for t in targets)
    )


def brute_descendants(g: MixedGraph, sources):
    sources = set(sources)
    return frozenset(
        v
        for v in g.vertices
        if v in sources or any(directed_paths(g, s, v) for s in sources)
    )


def brute_ancestral_avoiding(g: MixedGraph, outcomes, avoid):
    outcomes, avoid = set(outcomes), set(avoid)
    keep = set()
    for v in g.vertices:
        if v in avoid:
            continue
        if v in outcomes:
            keep.add(v)
            continue
        for y in outcomes:
            if any(not (set(p) & avoid) for p in directed_paths(g, v, y)):
                keep.add(v)
                break
    return frozenset(keep)


def brute_districts(g: MixedGraph):
    """Bidirected components among random vertices via naive flood fill."""
    sib = {v: set() for v in g.random}
    for e in g.bidirected:
        u, v = sorted(e)
        sib[u].add(v)
        sib[v].add(u)
    seen, blocks = set(), []
    for v in g.random:
        if v in seen:
            continue
        block, frontier = {v}, [v]
        while frontier:
            for s in sib[frontier.pop()]:
                if s not in block:
                    block.add(s)
                    frontier.append(s)
        seen |= block
        blocks.append(tuple(sorted(block)))
    return sorted(blocks)


def brute_rooted_forest(g: MixedGraph, vertices, roots):
    """Whether G[vertices] has a spanning in-forest toward ``roots``: try every
    choice of one child inside the set for each non-root, and accept a choice
    under which following the chosen children from every vertex reaches a
    root."""
    vs, roots = set(vertices), set(roots)
    non_roots = sorted(vs - roots)
    options = [sorted(h for t, h in g.directed if t == v and h in vs) for v in non_roots]
    for choice in itertools.product(*options):
        pointer = dict(zip(non_roots, choice))

        def reaches_root(v):
            for _ in range(len(vs)):
                if v in roots:
                    return True
                v = pointer[v]
            return v in roots

        if all(reaches_root(v) for v in vs):
            return True
    return False


def exhaustive_valid_orderings(g: MixedGraph, targets):
    """Every permutation of targets that replays as a valid fixing sequence."""
    from causalid import NotFixableError, fix_all

    valid = []
    for perm in itertools.permutations(sorted(targets)):
        try:
            fix_all(g, perm)
        except NotFixableError:
            continue
        valid.append(perm)
    return valid


def brute_table(scm, keep, clamp):
    """The truncated factorization by enumeration: drop each clamped vertex's
    CPT, hold it at its value, multiply the other CPT entries of every
    assignment and add them up by ``keep`` (sorted). Pure Python, no numpy
    arithmetic."""
    g = scm.graph
    keep = sorted(keep)
    free = [v for v in g.random if v not in clamp]
    parents = {v: sorted(g.parents({v})) for v in free}
    out = {}
    for values in itertools.product(*[range(scm.cards[v]) for v in free]):
        x = {**clamp, **dict(zip(free, values))}
        p = 1.0
        for v in free:
            p *= float(scm.cpts[v][tuple(x[u] for u in parents[v] + [v])])
        key = tuple(x[v] for v in keep)
        out[key] = out.get(key, 0.0) + p
    return keep, out


# ------------------------------------------------------ reference kernels

def _sum_out(q, vertices):
    """``q`` with ``vertices`` summed out; a marginal of a plain joint factor
    is the factor over what is left."""
    if not vertices:
        return q
    if isinstance(q, Factor) and not q.given:
        return Factor(outcomes=tuple(s for s in q.outcomes if s.vertex not in vertices))
    return Sum(indices=tuple((v, v) for v in sorted(vertices)), body=q)


def _factor(v, given):
    return Factor(outcomes=(Slot(v, Var(v)),), given=tuple(Slot(u, Var(u)) for u in sorted(given)))


def topological_order(g: MixedGraph):
    """The random vertices of ``g``, each after its parents; among the
    vertices whose parents are all placed, the least name comes first."""
    waiting = {v: len(g.parents({v})) for v in g.random}
    ready = [v for v, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        order.append(heapq.heappop(ready))
        for c in g.children({order[-1]}):
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, c)
    return order


def tian_kernel(g: MixedGraph, district):
    """Reference kernel of a bidirected-connected set D of an ADMG by Tian's
    recursion (Tian & Pearl 2002; Shpitser & Pearl 2006, Fig. 3), built from
    ancestors and districts within vertex sets alone, with no fixing code.
    Free variables are named after vertices, as in ``identify_district``.

    Start from T = V and Q = p(V). At each level A = an_{G[T]}(D). When
    A = D the kernel is Q summed over T - D. Otherwise T' is D's district in
    G[A]; when T' = T the recursion is stuck, with residual T - D (at the
    first level T = V need not be one district, so A = T alone is no
    verdict). Else Q[T'] = prod over v in T' of Q[A](v | pre_A(v)), in one
    topological order of G, computed once and restricted to A. At the first
    level Q[A] is p(A), so each term is p(v | mb(v)): the district T_v of v
    in G[pre_A(v) + v], plus its parents, minus v.
    """
    d = frozenset(district)
    t = frozenset(g.random)
    order = topological_order(g)
    q = Factor(outcomes=tuple(Slot(v, Var(v)) for v in g.random))
    first = True
    while True:
        a = g.ancestors(d, within=t)
        if a == d:
            return _sum_out(q, t - d)
        t_next = g.district_of(min(d), within=a)
        if t_next == t:
            return NotReachable(residual=tuple(sorted(t - d)))
        order_a = [v for v in order if v in a]
        terms = []
        for i, v in enumerate(order_a):
            if v not in t_next:
                continue
            pre = set(order_a[:i])
            if first:
                t_v = g.district_of(v, within=pre | {v})
                terms.append(_factor(v, (t_v - {v}) | g.parents(t_v)))
            else:
                terms.append(Quotient(_sum_out(q, t - pre - {v}), _sum_out(q, t - pre)))
        q = terms[0] if len(terms) == 1 else Product(terms=tuple(terms))
        t, first = t_next, False


def _children(node):
    if isinstance(node, Product):
        return node.terms
    if isinstance(node, Quotient):
        return (node.numerator, node.denominator)
    if isinstance(node, Sum):
        return (node.body,)
    return ()


def tree_nodes(expr) -> int:
    """Nodes of the estimand written out as a tree: a subtree shared by
    several parents counts once per parent. Memoized by ``id``, so the walk
    stays linear in the number of node objects."""
    sizes = {}

    def go(node):
        key = id(node)
        if key not in sizes:
            sizes[key] = 1 + sum(go(k) for k in _children(node))
        return sizes[key]

    return go(expr)


def depth(expr) -> int:
    """Nodes on the longest root-to-leaf path of the estimand, memoized by
    ``id`` as ``tree_nodes`` is."""
    depths = {}

    def go(node):
        key = id(node)
        if key not in depths:
            depths[key] = 1 + max((go(k) for k in _children(node)), default=0)
        return depths[key]

    return go(expr)


def dag_nodes(expr) -> int:
    """Distinct node objects in the estimand: a shared subtree counts once."""
    seen = {}

    def go(node):
        if id(node) not in seen:
            seen[id(node)] = node
            for k in _children(node):
                go(k)

    go(expr)
    return len(seen)


# ------------------------------------------------------ reference evaluator

class ScalarEvaluator:
    """Reference evaluator by recursive enumeration: one Python float per
    (node, free-variable assignment), and a ``Sum`` loops over the full
    product of its ranges. The library's table evaluator is checked against
    it.
    """

    def __init__(self, joint: ProbTable):
        self.joint = joint
        self._cards = joint.card_map()
        self._marginals = {}
        self._free = {}
        self._memo = {}

    def _marginal(self, vs):
        if vs not in self._marginals:
            self._marginals[vs] = self.joint.marginal(vs)
        return self._marginals[vs]

    def evaluate(self, e, binding) -> float:
        missing = free_vars(e, self._free) - set(binding)
        if missing:
            raise EvaluationError(f"missing binding for variables: {sorted(missing)}")
        return self._eval(e, dict(binding))

    def _eval(self, node, env) -> float:
        # ``self._free`` holds every node seen here, so ``id(node)`` stays
        # unique for as long as the memo does
        fv = free_vars(node, self._free)
        key = (id(node), tuple(sorted((v, env[v]) for v in fv)))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        val = self._eval_raw(node, env)
        self._memo[key] = val
        return val

    def _eval_raw(self, node, env) -> float:
        if isinstance(node, Factor):
            # ``evaluate`` has checked that every free variable is bound
            out_assign, giv_assign = (
                {s.vertex: env[s.ref.name] if isinstance(s.ref, Var) else s.ref.value for s in slots}
                for slots in (node.outcomes, node.given)
            )
            all_vs = tuple(sorted(set(out_assign) | set(giv_assign)))
            num = prob(self._marginal(all_vs), {**giv_assign, **out_assign})
            if not node.given:
                return num
            den = prob(self._marginal(tuple(sorted(giv_assign))), giv_assign)
            if den == 0.0:
                raise EvaluationError(
                    f"zero conditioning probability in {render_text(node)}"
                )
            return num / den
        if isinstance(node, Product):
            val = 1.0
            for t in node.terms:
                val *= self._eval(t, env)
            return val
        if isinstance(node, Quotient):
            den = self._eval(node.denominator, env)
            if den == 0.0:
                raise EvaluationError(
                    f"zero denominator in quotient: {render_text(node.denominator)}"
                )
            return self._eval(node.numerator, env) / den
        if isinstance(node, Sum):
            names = [v for v, _ in node.indices]
            for _, vertex in node.indices:
                if vertex not in self._cards:
                    raise EvaluationError(f"unknown vertex in summation: {vertex!r}")
            ranges = [range(self._cards[vertex]) for _, vertex in node.indices]
            total = 0.0
            inner = dict(env)
            for combo in itertools.product(*ranges):
                for name, value in zip(names, combo):
                    inner[name] = value
                total += self._eval(node.body, inner)
            return total
        raise TypeError(f"not an expression node: {node!r}")


def scalar_evaluate(e, joint: ProbTable, binding) -> float:
    """One-shot reference evaluation. For sweeps over bindings, hold a
    :class:`ScalarEvaluator`."""
    return ScalarEvaluator(joint).evaluate(e, binding)
