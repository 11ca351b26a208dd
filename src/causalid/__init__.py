"""Causal-effect identification over acyclic directed mixed graphs.

Given a graph and a query p(Y | do(a)), the engine emits either a symbolic
estimand over the observed joint distribution or a hedge certificate of
non-identifiability, and can verify emitted estimands against an exact
discrete SCM oracle.
"""

import importlib

from .errors import (
    CycleError,
    EvaluationError,
    ExpressionParseError,
    GraphError,
    NotFixableError,
    QueryError,
    UnknownVertexError,
)
from .estimand import (
    Const,
    Evaluator,
    Factor,
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
from .fixing import (
    FixingSequence,
    NotReachable,
    find_valid_sequence,
    fix,
    fix_all,
    is_fixable,
    is_intrinsic,
    reachable_closure,
)
from .graph import MixedGraph
from .identify import (
    FailureReport,
    HedgeWitness,
    Identified,
    NotIdentified,
    Query,
    decompose,
    failure_characterizations,
    find_hedge,
    hedge_violation,
    identify,
    identify_district,
    is_hedge,
)

__version__ = "0.1.0"

# numpy-backed names, imported on first use so that identification alone
# never loads numpy
_LAZY = {
    "DiscreteScm": "oracle",
    "VerificationReport": "oracle",
    "interventional": "oracle",
    "observed_joint": "oracle",
    "random_scm": "oracle",
    "verify": "oracle",
    "ProbTable": "tables",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "Const",
    "CycleError",
    "DiscreteScm",
    "EvaluationError",
    "Evaluator",
    "ExpressionParseError",
    "Factor",
    "FailureReport",
    "FixingSequence",
    "GraphError",
    "HedgeWitness",
    "Identified",
    "MixedGraph",
    "NotFixableError",
    "NotIdentified",
    "NotReachable",
    "ProbTable",
    "Product",
    "Query",
    "QueryError",
    "Quotient",
    "Slot",
    "Sum",
    "UnknownVertexError",
    "Var",
    "VerificationReport",
    "decompose",
    "evaluate",
    "failure_characterizations",
    "find_hedge",
    "find_valid_sequence",
    "fix",
    "fix_all",
    "free_vars",
    "from_json",
    "hedge_violation",
    "identify",
    "identify_district",
    "interventional",
    "is_fixable",
    "is_hedge",
    "is_intrinsic",
    "observed_joint",
    "random_scm",
    "reachable_closure",
    "render_latex",
    "render_text",
    "simplify",
    "substitute",
    "to_json",
    "verify",
    "well_formed",
]
