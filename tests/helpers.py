"""Shared brute-force oracles and random-instance generators for the tests.

Everything here is deliberately naive (path enumeration, exhaustive search)
so it stays independent of the library's own algorithms.
"""

import itertools
import random as pyrandom

import numpy as np

from causalid import (
    Factor,
    Marginal,
    MixedGraph,
    NotReachable,
    ProbTable,
    Product,
    Quotient,
    Slot,
    Sum,
    Var,
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


def random_hidden_dag(rng: pyrandom.Random, n_obs: int, n_hidden: int, p_dir: float = 0.4):
    """Random DAG over observed V* and hidden H* vertices."""
    names = [f"V{i}" for i in range(n_obs)] + [f"H{i}" for i in range(n_hidden)]
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
    return Marginal(indices=tuple((v, v) for v in sorted(vertices)), body=q)


def _factor(v, given):
    return Factor(outcomes=(Slot(v, Var(v)),), given=tuple(Slot(u, Var(u)) for u in sorted(given)))


def tian_kernel(g: MixedGraph, district):
    """Reference kernel of a bidirected-connected set D of an ADMG by Tian's
    recursion (Tian & Pearl 2002; Shpitser & Pearl 2006, Fig. 3), built from
    ancestors and districts alone, with no fixing code. Free variables are
    named after vertices, as in ``identify_district``.

    Start from T = V and Q = p(V). At each level A = an_{G[T]}(D). When
    A = D the kernel is Q summed over T - D. Otherwise T' is D's district in
    G[A]; when T' = T the recursion is stuck, with residual T - D (at the
    first level T = V need not be one district, so A = T alone is no
    verdict). Else Q[T'] = prod over v in T' of Q[A](v | pre_A(v)), in the
    order (number of ancestors in G[A], name). At the first level Q[A] is
    p(A), so each term is p(v | mb(v)): the district T_v of v in
    G[pre_A(v) + v], plus its parents, minus v.
    """
    d = frozenset(district)
    t = frozenset(g.random)
    q = Factor(outcomes=tuple(Slot(v, Var(v)) for v in g.random))
    first = True
    while True:
        a = g.induced_subgraph(t).ancestors(d)
        if a == d:
            return _sum_out(q, t - d)
        g_a = g.induced_subgraph(a)
        t_next = g_a.district_of(min(d))
        if t_next == t:
            return NotReachable(residual=tuple(sorted(t - d)))
        order = sorted(a, key=lambda v: (len(g_a.ancestors({v})), v))
        terms = []
        for i, v in enumerate(order):
            if v not in t_next:
                continue
            pre = set(order[:i])
            if first:
                t_v = g.induced_subgraph(pre | {v}).district_of(v)
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
    if isinstance(node, (Sum, Marginal)):
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
