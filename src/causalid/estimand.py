"""Symbolic expressions over an observed joint distribution.

An estimand is a tree (really a DAG: subtrees are shared freely) built from
four node kinds:

* :class:`Factor` -- a conditional probability of the observed joint, each
  variable slot bound to an index variable or a constant value,
* :class:`Product` -- n-ary product,
* :class:`Quotient` -- numerator over denominator,
* :class:`Sum` -- summation binding index variables; ``from_json`` also
  reads the kind ``marginal`` of older documents as a sum.

Evaluation against a :class:`~causalid.tables.ProbTable` is exact: each node
becomes one dense table over its free variables, computed once however often
the node is shared. A value outside its vertex's range 0..card-1 raises.

Every traversal but ``render_text``, ``render_latex``, ``to_json`` and
``from_json``, which write or read the tree, steps each distinct node once
(``substitute``: once per node and mapping), so it is linear in DAG nodes;
only ``simplify``'s cancellation tests compare subtrees with ``==``, which
walks them as trees.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Tuple, Union

from ._record import Record
from .errors import EvaluationError, ExpressionParseError

if TYPE_CHECKING:  # numpy-backed; imported only for annotations
    import numpy as np

    from .tables import ProbTable

SCHEMA_VERSION = 1
# nodes on one path from the root that ``from_json`` accepts, so that walkers
# that recurse per level fit the default recursion limit (chain(n): n + 4)
MAX_DEPTH = 256


# ----------------------------------------------------------------- node types

class Var(Record):
    """Reference to an index/outcome/treatment variable by name."""

    name: str

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Const(Record):
    """A concrete value plugged directly into a factor slot."""

    value: int

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


Ref = Union[Var, Const]


class Slot(Record):
    """One variable position in a factor: which vertex, bound to what."""

    vertex: str
    ref: Ref

    def __init__(self, vertex: str, ref: Ref):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "ref", ref)


class Factor(Record):
    outcomes: Tuple[Slot, ...]
    given: Tuple[Slot, ...]

    def __init__(self, outcomes: Tuple[Slot, ...], given: Tuple[Slot, ...] = ()):
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "given", given)


class Product(Record):
    terms: Tuple["Expr", ...]

    def __init__(self, terms: Tuple["Expr", ...]):
        object.__setattr__(self, "terms", terms)


class Quotient(Record):
    numerator: "Expr"
    denominator: "Expr"

    def __init__(self, numerator: "Expr", denominator: "Expr"):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)


class Sum(Record):
    indices: Tuple[Tuple[str, str], ...]  # (variable name, vertex) pairs
    body: "Expr"

    def __init__(self, indices: Tuple[Tuple[str, str], ...], body: "Expr"):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "body", body)


Expr = Union[Factor, Product, Quotient, Sum]


# ------------------------------------------------------------ structure utils

def _slots(node) -> Tuple[Tuple[str, Expr], ...]:
    """Each direct sub-expression of ``node`` with its field path, in order:
    ``terms[i]``, ``numerator`` and ``denominator``, or ``body``. A factor
    has none."""
    if isinstance(node, Product):
        return tuple((f"terms[{i}]", t) for i, t in enumerate(node.terms))
    if isinstance(node, Quotient):
        return (("numerator", node.numerator), ("denominator", node.denominator))
    if isinstance(node, Sum):
        return (("body", node.body),)
    if isinstance(node, Factor):
        return ()
    raise TypeError(f"not an expression node: {node!r}")


def _rebuild(node, parts) -> Expr:
    """``node`` of the same kind with ``parts`` as its sub-expressions, in
    ``_slots`` order; a factor is returned as it is."""
    if isinstance(node, Product):
        return Product(terms=tuple(parts))
    if isinstance(node, Quotient):
        return Quotient(*parts)
    if isinstance(node, Sum):
        return Sum(indices=node.indices, body=parts[0])
    return node


def _fold(e: Expr, step, cache: Dict[int, tuple]):
    """``step(node, parts)`` applied bottom-up, where ``parts`` pairs each
    path of ``_slots(node)`` with that sub-expression's result. Each distinct
    node is stepped once: ``cache`` maps ``id(node)`` to ``(node, result)``;
    holding the node keeps its id from being reused by a new node while the
    cache lives."""

    def go(node):
        hit = cache.get(id(node))
        if hit is None:
            parts = [(path, go(child)) for path, child in _slots(node)]
            hit = cache[id(node)] = (node, step(node, parts))
        return hit[1]

    return go(e)


def _free_step(node, parts) -> FrozenSet[str]:
    if isinstance(node, Factor):
        return frozenset(s.ref.name for s in node.outcomes + node.given if isinstance(s.ref, Var))
    out = frozenset().union(*[names for _, names in parts])
    if isinstance(node, Sum):
        out -= {v for v, _ in node.indices}
    return out


def free_vars(e: Expr, _cache: Dict[int, tuple] = None) -> FrozenSet[str]:
    """Names of variables occurring free in the expression. ``_cache`` is a
    ``_fold`` cache that may be shared between calls."""
    return _fold(e, _free_step, {} if _cache is None else _cache)


def well_formed(e: Expr, allowed_free=None):
    """Scope/binding check. Returns ``(ok, problems)``.

    Problems name the path to the first offending node in depth-first order,
    e.g. ``sum.body.terms[1]: dangling index 'm'``.
    """

    def step(node, parts):
        # (free variables, the first problem as a path suffix, or None)
        problem = None
        if isinstance(node, Factor):
            vertices = [s.vertex for s in node.outcomes + node.given]
            if len(set(vertices)) != len(vertices):
                twice = next(v for i, v in enumerate(vertices) if v in vertices[:i])
                problem = f": vertex {twice!r} appears twice in one factor"
            elif not node.outcomes:
                problem = ": factor with no outcome slots"
        elif isinstance(node, Sum):
            [(_, (body_free, _))] = parts
            names = [v for v, _ in node.indices]
            dangling = [name for name in names if name not in body_free]
            if len(set(names)) != len(names):
                problem = ": repeated index variable in one binder"
            elif dangling:
                problem = f": dangling index {dangling[0]!r}"
        if problem is None:
            problem = next((f".{path}{p}" for path, (_, p) in parts if p is not None), None)
        return _free_step(node, [(path, free) for path, (free, _) in parts]), problem

    free, problem = _fold(e, step, {})
    problems = [] if problem is None else [kind_name(e) + problem]
    if not problems and allowed_free is not None:
        extra = free - set(allowed_free)
        if extra:
            problems.append(f"free variables not allowed at root: {sorted(extra)}")
    return (not problems, problems)


def kind_name(e: Expr) -> str:
    return type(e).__name__.lower()


def substitute(e: Expr, mapping: Mapping[str, Ref]) -> Expr:
    """Replace free occurrences of variables; binders shadow as usual.

    Binders are never renamed, so a replacement ``Var`` whose name a binder
    on the way binds is captured by it; callers pick names no binder uses.
    Shared subtrees stay shared: each mapping in the walk is the input's minus
    some names, so the memo is keyed on ``(id(node), frozenset(mapping))``
    and holds the node, as ``_fold`` does."""
    cache: Dict[Tuple[int, FrozenSet[str]], Tuple[Expr, Expr]] = {}

    def sub_slot(s: Slot, mapping) -> Slot:
        if isinstance(s.ref, Var) and s.ref.name in mapping:
            return Slot(s.vertex, mapping[s.ref.name])
        return s

    def go(node, mapping):
        if not mapping:
            return node
        key = (id(node), frozenset(mapping))
        if key not in cache:
            if isinstance(node, Factor):
                out = Factor(outcomes=tuple(sub_slot(s, mapping) for s in node.outcomes),
                             given=tuple(sub_slot(s, mapping) for s in node.given))
            else:
                if isinstance(node, Sum):
                    bound = dict(node.indices)
                    mapping = {k: v for k, v in mapping.items() if k not in bound}
                out = _rebuild(node, [go(child, mapping) for _, child in _slots(node)])
            cache[key] = (node, out)
        return cache[key][1]

    return go(e, dict(mapping))


def simplify(e: Expr) -> Expr:
    """Conservative cleanup: cancel syntactically identical subtrees only.

    Rules (applied bottom-up): ``a / (a / c) -> c``, ``(a/b) / (a/c) -> c/b``,
    and single-term products unwrap. Anything cleverer is left to numeric
    verification; no value is ever changed on positive tables.
    """
    cache: Dict[int, Tuple[Expr, Expr]] = {}

    def step(node, parts) -> Expr:
        out = _rebuild(node, [p for _, p in parts])
        if isinstance(out, Product) and len(out.terms) == 1:
            return out.terms[0]
        if isinstance(out, Quotient) and isinstance(out.denominator, Quotient):
            num, den = out.numerator, out.denominator
            if den.numerator == num:
                return den.denominator
            if isinstance(num, Quotient) and num.numerator == den.numerator:
                # the cache holds this temporary quotient, so its id is not
                # reused by the next one
                return _fold(Quotient(den.denominator, num.denominator), step, cache)
        return out

    return _fold(e, step, cache)


# ------------------------------------------------------------------ evaluator

class Evaluator:
    """Evaluates expressions against one observed joint, one table per node.

    Each node is evaluated once, over all of its free variables at once, as a
    dense array whose axes are those variables in sorted order; a sum over a
    product is one ``einsum`` contraction (variable elimination, Zhang &
    Poole 1994). The arrays are memoized on ``id(node)`` and hold the node,
    as ``_fold`` does, so one instance shares work across bindings and
    across structurally shared subtrees. A denominator that is zero in any
    cell of its table raises, whether or not that cell is asked for.
    """

    def __init__(self, joint: ProbTable):
        self.joint = joint
        self._cards = joint.card_map()
        self._marginals: Dict[Tuple[str, ...], ProbTable] = {}
        self._tables: Dict[int, Tuple[Expr, Tuple[str, ...], np.ndarray]] = {}

    def _marginal(self, vs: Tuple[str, ...]) -> np.ndarray:
        if vs not in self._marginals:
            self._marginals[vs] = self.joint.marginal(vs)
        return self._marginals[vs].values

    def evaluate(self, e: Expr, binding: Mapping[str, int]) -> float:
        """The value of ``e`` where each free variable takes its value in
        ``binding``. A value may also be an integer array: the root's table is
        indexed as numpy indexes, so arrays that broadcast together read a
        whole grid of points in one call."""
        import numpy as np  # the joint is a ProbTable, so numpy is loaded

        names, values = self._table(e)  # ``names`` are the free variables
        missing = set(names) - set(binding)
        if missing:
            raise EvaluationError(f"missing binding for variables: {sorted(missing)}")
        at = tuple(binding[v] for v in names)
        for v, value, card in zip(names, at, values.shape):
            if np.min(value) < 0 or np.max(value) >= card:
                raise EvaluationError(f"value of {v!r} out of range 0..{card - 1}")
        return values[at]

    def _table(self, node) -> Tuple[Tuple[str, ...], np.ndarray]:
        hit = self._tables.get(id(node))
        if hit is None:
            hit = self._tables[id(node)] = (node, *self._table_raw(node))
        return hit[1], hit[2]

    def _table_raw(self, node) -> Tuple[Tuple[str, ...], np.ndarray]:
        if isinstance(node, Factor):
            # slice the marginal at the constants, then divide by the given
            # marginal over the axes left; the vertices are sorted, so each
            # table's axes are a subsequence of the next one's
            slots = node.outcomes + node.given
            at = {s.vertex: s.ref.value for s in slots if isinstance(s.ref, Const)}
            names = {s.vertex: s.ref.name for s in slots if isinstance(s.ref, Var)}
            vertices = tuple(sorted(s.vertex for s in slots))
            values = self._marginal(vertices)
            for v, value in at.items():
                if not 0 <= value < self._cards[v]:
                    raise EvaluationError(
                        f"{v}={value} out of range 0..{self._cards[v] - 1} in {render_text(node)}"
                    )
            values = values[tuple(at.get(v, slice(None)) for v in vertices)]
            free = tuple(v for v in vertices if v in names)
            if node.given:
                given = tuple(sorted(s.vertex for s in node.given))
                den = self._marginal(given)[tuple(at.get(v, slice(None)) for v in given)]
                if not den.all():
                    raise EvaluationError(
                        f"zero conditioning probability in {render_text(node)}"
                    )
                values = values / _spread(den, [v for v in given if v in names], free)
            return _contract([(tuple(names[v] for v in free), values)])
        if isinstance(node, Product):
            return _contract([self._table(t) for t in node.terms])
        if isinstance(node, Quotient):
            den_names, den = self._table(node.denominator)
            if not den.all():
                raise EvaluationError(
                    f"zero denominator in quotient: {render_text(node.denominator)}"
                )
            num_names, num = self._table(node.numerator)
            names = tuple(sorted(set(num_names) | set(den_names)))
            return names, _spread(num, num_names, names) / _spread(den, den_names, names)
        if isinstance(node, Sum):
            for _, vertex in node.indices:
                if vertex not in self._cards:
                    raise EvaluationError(f"unknown vertex in summation: {vertex!r}")
            body = node.body
            terms = body.terms if isinstance(body, Product) else (body,)
            tables = [self._table(t) for t in terms]
            names, values = _contract(tables, {v for v, _ in node.indices})
            used = set().union(*[n for n, _ in tables])
            for v, vertex in node.indices:
                if v not in used:  # the body counts once per value of v
                    values = values * self._cards[vertex]
            return names, values
        raise TypeError(f"not an expression node: {node!r}")


def _spread(values: np.ndarray, names, target) -> np.ndarray:
    """``values``, whose axes are ``names`` (a subsequence of ``target``),
    reshaped to broadcast over ``target``."""
    sizes = iter(values.shape)
    return values.reshape([next(sizes) if v in names else 1 for v in target])


def _contract(tables, summed=frozenset()) -> Tuple[Tuple[str, ...], np.ndarray]:
    """The product of ``(names, values)`` tables with ``summed`` summed out,
    as one ``einsum``; the result's axes are the other names, sorted. A name
    repeated within one table takes that table's diagonal."""
    import numpy as np  # every table comes from a ProbTable, so numpy is loaded

    labels: Dict[str, int] = {}
    operands: list = [] if tables else [1.0, []]
    for names, values in tables:
        operands += [values, [labels.setdefault(v, len(labels)) for v in names]]
    out = tuple(sorted(v for v in labels if v not in summed))
    # a contraction order pays off from three operands on; below that,
    # planning one costs more than the loop it would save
    optimize = "greedy" if len(tables) > 2 else False
    return out, np.einsum(*operands, [labels[v] for v in out], optimize=optimize)


def evaluate(e: Expr, joint: ProbTable, binding: Mapping[str, int]) -> float:
    """One-shot evaluation. For sweeps over bindings, hold an :class:`Evaluator`."""
    return Evaluator(joint).evaluate(e, binding)


# ------------------------------------------------------------------ rendering

def _display_ref(ref: Ref, env: Dict[str, str], vertex: str) -> str:
    if isinstance(ref, Const):
        return f"{vertex}={ref.value}"
    return env.get(ref.name, ref.name)


def _fresh(base: str, used) -> str:
    name = base
    while name in used:
        name += "'"
    return name


# A rendering style: factor bar, quotient format, quotient wrap, sum format,
# index separator, sum wrap. A wrap applies to a quotient or sum in a product.
_TEXT = (" | ", "({num}) / ({den})", "({})", "sum_{{{idx}}} {body}", ",", "({})")
_LATEX = (
    " \\mid ", "\\frac{{{num}}}{{{den}}}", "{}", "\\sum_{{{idx}}} {body}", ", ",
    "\\left( {} \\right)",
)


def _factor_text(node: Factor, env: Dict[str, str], bar: str) -> str:
    outs = ", ".join(_display_ref(s.ref, env, s.vertex) for s in node.outcomes)
    if node.given:
        givs = ", ".join(_display_ref(s.ref, env, s.vertex) for s in node.given)
        return f"p({outs}{bar}{givs})"
    return f"p({outs})"


def _render(e: Expr, style: Tuple[str, ...]) -> str:
    bar, quotient, wrap_quotient, sum_, index_sep, wrap_sum = style

    def go(node, env, wrap: bool) -> str:
        if isinstance(node, Factor):
            return _factor_text(node, env, bar)
        if isinstance(node, Product):
            # a list, not a generator: one stack frame less per level
            return " ".join([go(t, env, not isinstance(t, Factor)) for t in node.terms])
        if isinstance(node, Quotient):
            s = quotient.format(
                num=go(node.numerator, env, False), den=go(node.denominator, env, False)
            )
            return wrap_quotient.format(s) if wrap else s
        if isinstance(node, Sum):
            used = set(env.values())
            inner_env = dict(env)
            shown = []
            for name, _vertex in node.indices:
                disp = _fresh(name.lower(), used)
                used.add(disp)
                inner_env[name] = disp
                shown.append(disp)
            body = go(node.body, inner_env, False)
            s = sum_.format(idx=index_sep.join(shown), body=body)
            return wrap_sum.format(s) if wrap else s
        raise TypeError(f"not an expression node: {node!r}")

    env = {v: v for v in free_vars(e)}
    return go(e, env, False)


def render_text(e: Expr) -> str:
    """Plain-text form, e.g. ``sum_{c,m} (sum_{a'} p(Y|m,a',c) p(a'|c)) p(m|a,c) p(c)``."""
    return _render(e, _TEXT)


def render_latex(e: Expr) -> str:
    """LaTeX math-mode form of the expression."""
    return _render(e, _LATEX)


def render_dot(e: Expr) -> str:
    """The expression as a Graphviz digraph: one node per distinct expression
    node, numbered in depth-first order."""

    def step(node, parts) -> list:
        # [label, children's items, dot id once emitted]
        if isinstance(node, Factor):
            label = _factor_text(node, {}, _TEXT[0]).replace('"', r"\"")
        elif isinstance(node, Sum):
            label = f"{kind_name(node)} over {','.join(name for name, _ in node.indices)}"
        else:
            label = kind_name(node)
        return [label, [item for _, item in parts], None]

    lines = ["digraph estimand {", '  node [shape=box];']
    emitted = []

    def emit(item) -> str:
        label, children, nid = item
        if nid is None:
            nid = item[2] = f"n{len(emitted)}"
            emitted.append(item)
            lines.append(f'  {nid} [label="{label}"];')
            for c in children:
                lines.append(f"  {nid} -> {emit(c)};")
        return nid

    emit(_fold(e, step, {}))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- serialization

def _ref_to_dict(ref: Ref) -> dict:
    if isinstance(ref, Var):
        return {"var": ref.name}
    return {"const": ref.value}


def _slot_to_dict(s: Slot) -> dict:
    return {"vertex": s.vertex, **_ref_to_dict(s.ref)}


def _node_to_dict(e: Expr) -> dict:
    """The JSON object of ``e``. A shared subtree's object is built once and
    shared in turn, so the result's objects must not be edited in place."""

    def step(node, parts) -> dict:
        d = {"kind": kind_name(node)}
        if isinstance(node, Factor):
            d["outcomes"] = [_slot_to_dict(s) for s in node.outcomes]
            d["given"] = [_slot_to_dict(s) for s in node.given]
        elif isinstance(node, Sum):
            d["indices"] = [{"var": v, "vertex": x} for v, x in node.indices]
        if isinstance(node, Product):
            d["terms"] = [part for _, part in parts]
        else:
            d.update(parts)  # "numerator" and "denominator", or "body"
        return d

    return _fold(e, step, {})


def to_json(e: Expr) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, "expr": _node_to_dict(e)}, indent=2)


def _name(value, path: str, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ExpressionParseError(f"{path}: {what} must be a non-empty string")
    return value


def _list(d: dict, key: str, path: str) -> list:
    value = d.get(key, [])
    if not isinstance(value, list):
        raise ExpressionParseError(f"{path}: {key!r} must be a list")
    return value


def _ref_from_dict(d: dict, path: str) -> Ref:
    if "var" in d and "const" in d:
        raise ExpressionParseError(f"{path}: slot has both 'var' and 'const'")
    if "var" in d:
        return Var(_name(d["var"], path, "'var'"))
    if "const" in d:
        if not isinstance(d["const"], int) or isinstance(d["const"], bool) or d["const"] < 0:
            raise ExpressionParseError(f"{path}: 'const' must be an integer >= 0")
        return Const(d["const"])
    raise ExpressionParseError(f"{path}: slot needs 'var' or 'const'")


def _slot_from_dict(d: dict, path: str) -> Slot:
    if not isinstance(d, dict) or "vertex" not in d:
        raise ExpressionParseError(f"{path}: slot must be an object with a 'vertex' key")
    return Slot(vertex=_name(d["vertex"], path, "'vertex'"), ref=_ref_from_dict(d, path))


def _node_from_dict(d: dict, path: str, depth: int = 1):
    if depth > MAX_DEPTH:
        raise ExpressionParseError(f"expression nested too deeply: over {MAX_DEPTH} levels")
    if not isinstance(d, dict) or "kind" not in d:
        raise ExpressionParseError(f"{path}: expected an object with a 'kind' key")
    kind = d["kind"]
    if kind == "factor":
        return Factor(**{
            key: tuple(_slot_from_dict(s, f"{path}.{key}[{i}]")
                       for i, s in enumerate(_list(d, key, path)))
            for key in ("outcomes", "given")
        })
    if kind == "product":
        return Product(
            terms=tuple(
                _node_from_dict(t, f"{path}.terms[{i}]", depth + 1)
                for i, t in enumerate(_list(d, "terms", path))
            )
        )
    if kind == "quotient":
        for key in ("numerator", "denominator"):
            if key not in d:
                raise ExpressionParseError(f"{path}: quotient missing {key!r}")
        return Quotient(
            numerator=_node_from_dict(d["numerator"], f"{path}.numerator", depth + 1),
            denominator=_node_from_dict(d["denominator"], f"{path}.denominator", depth + 1),
        )
    if kind in ("sum", "marginal"):
        indices = []
        for i, idx in enumerate(_list(d, "indices", path)):
            at = f"{path}.indices[{i}]"
            if not isinstance(idx, dict) or "var" not in idx or "vertex" not in idx:
                raise ExpressionParseError(f"{at}: expected an object with 'var' and 'vertex'")
            indices.append((_name(idx["var"], at, "'var'"), _name(idx["vertex"], at, "'vertex'")))
        if "body" not in d:
            raise ExpressionParseError(f"{path}: {kind} missing 'body'")
        body = _node_from_dict(d["body"], f"{path}.body", depth + 1)
        return Sum(indices=tuple(indices), body=body)
    raise ExpressionParseError(f"{path}: unknown node kind {kind!r}")


def from_json(text: str) -> Expr:
    try:
        data = json.loads(text)
        if not isinstance(data, dict) or "expr" not in data:
            raise ExpressionParseError("top level must be an object with an 'expr' key")
        version = data.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:  # not True or 1.0
            raise ExpressionParseError(f"unsupported schema_version: {version!r}")
        return _node_from_dict(data["expr"], "expr")
    except json.JSONDecodeError as exc:
        raise ExpressionParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # in the JSON decoder
        raise ExpressionParseError("expression JSON nested too deeply") from None
