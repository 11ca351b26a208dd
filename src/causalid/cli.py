"""Command-line front end.

Exit codes: 0 success, 1 sound negative result (non-identifiability, or a
verification sweep that found deviations), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import estimand as ex
from .errors import (
    EvaluationError,
    ExpressionParseError,
    GraphError,
    NotFixableError,
    QueryError,
)
from .fixing import fix_all, reachable_closure
from .graph import MixedGraph
from .identify import NotIdentified, Query, identify

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _load_graph(path: str) -> MixedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return MixedGraph.from_json(fh.read())
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _split_names(text: str):
    return [part for part in text.split(",") if part]


def _as_admg(g: MixedGraph):
    """Project hidden-variable inputs so one file format serves every command."""
    if g.hidden:
        print("note: input has hidden vertices; using its latent projection", file=sys.stderr)
        return g.latent_project()
    return g


def _query_from_args(args) -> Query:
    return Query(outcomes=_split_names(args.outcome), treatments=_split_names(args.treatment))


def _non_negative(cast):
    """An argparse type: ``cast`` the text, then reject negatives, NaN and +inf."""

    def parse(text: str):
        value = cast(text)  # argparse reports a ValueError as "invalid <cast> value"
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value

    parse.__name__ = cast.__name__
    return parse


# ----------------------------------------------------------------- subcommands

def cmd_project(args) -> int:
    g = _load_graph(args.graph)
    sys.stdout.write(g.latent_project().to_json())
    return EXIT_OK


def cmd_identify(args) -> int:
    g = _as_admg(_load_graph(args.graph))
    result = identify(g, _query_from_args(args))
    if isinstance(result, NotIdentified):
        print(json.dumps(result.to_dict(), indent=2))
        print(
            "not identified: district {d} has reachable closure {c}; "
            "hedge witness {i} inside {o} with roots {r}".format(
                d=",".join(result.failing_district),
                c=",".join(result.closure),
                i="{" + ",".join(result.witness.inner) + "}",
                o="{" + ",".join(result.witness.outer) + "}",
                r="{" + ",".join(result.witness.roots) + "}",
            ),
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    if args.format == "text":
        print(ex.render_text(result.estimand))
    elif args.format == "latex":
        print(ex.render_latex(result.estimand))
    elif args.format == "dot":
        sys.stdout.write(ex.render_dot(result.estimand))
    else:
        print(json.dumps(result.to_dict(), indent=2))
    return EXIT_OK


def cmd_districts(args) -> int:
    g = _as_admg(_load_graph(args.graph))
    print(json.dumps({"districts": [list(d) for d in g.districts()]}, indent=2))
    return EXIT_OK


def cmd_fix(args) -> int:
    g = _as_admg(_load_graph(args.graph))
    sys.stdout.write(fix_all(g, _split_names(args.sequence)).to_json())
    return EXIT_OK


def cmd_closure(args) -> int:
    g = _as_admg(_load_graph(args.graph))
    closure = reachable_closure(g, _split_names(args.set))
    print(json.dumps({"closure": sorted(closure)}, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .oracle import random_scm, verify  # loads numpy; no other command needs it

    g = _load_graph(args.graph)
    if not g.hidden:
        raise GraphError(
            "verify needs a hidden-variable DAG input: ground truth is computed "
            "on the full DAG, not its projection"
        )
    query = _query_from_args(args)
    projection = g.latent_project()
    result = identify(projection, query)
    if isinstance(result, NotIdentified):
        print(json.dumps(result.to_dict(), indent=2))
        print("not identified; nothing to verify", file=sys.stderr)
        return EXIT_NEGATIVE
    cards = {v: args.cards for v in g.random}
    # the trial with the largest deviation; a NaN deviation ranks above any
    # number and the first one stays
    worst = None
    for trial in range(args.trials):
        seed = args.seed + trial
        report = verify(random_scm(g, cards, seed=seed), query, result, tol=args.tol)
        rank = (math.isnan(report.max_deviation), report.max_deviation)
        if worst is None or rank > worst[0]:
            worst = (rank, seed, report)
    max_dev = 0.0 if worst is None else worst[2].max_deviation
    passed = max_dev <= args.tol
    print(
        json.dumps(
            {
                "trials": args.trials,
                "max_deviation": max_dev,
                "tolerance": args.tol,
                "passed": passed,
                "worst_point": None if worst is None else {
                    "seed": worst[1], **worst[2].to_dict()["worst_point"]
                },
            },
            indent=2,
        )
    )
    return EXIT_OK if passed else EXIT_NEGATIVE


# ----------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalid",
        description="Identify interventional distributions in mixed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="latent-project a hidden-variable DAG")
    p.add_argument("graph")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("identify", help="identify p(outcome | do(treatment))")
    p.add_argument("graph")
    p.add_argument("--treatment", default="", help="comma-separated treatment vertices")
    p.add_argument("--outcome", required=True, help="comma-separated outcome vertices")
    p.add_argument("--format", choices=["text", "latex", "json", "dot"], default="text")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("districts", help="bidirected-connected blocks of the graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_districts)

    p = sub.add_parser("fix", help="replay a fixing sequence")
    p.add_argument("graph")
    p.add_argument("--sequence", required=True, help="comma-separated vertices to fix in order")
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("closure", help="reachable closure of a vertex set")
    p.add_argument("graph")
    p.add_argument("--set", required=True, help="comma-separated vertex set")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("verify", help="check an identified estimand against seeded SCMs")
    p.add_argument("graph")
    p.add_argument("--treatment", default="")
    p.add_argument("--outcome", required=True)
    p.add_argument("--trials", type=_non_negative(int), default=100)
    # argparse casts a string default, so a bad IDENT_SEED is a usage error too
    p.add_argument("--seed", type=_non_negative(int), default=os.environ.get("IDENT_SEED", "0"))
    p.add_argument("--tol", type=_non_negative(float), default=1e-9)
    p.add_argument("--cards", type=int, default=2, help="cardinality used for every vertex")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GraphError, QueryError, NotFixableError, EvaluationError, ExpressionParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
