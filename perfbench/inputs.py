"""Seeded input generators for the benchmark workloads.

Every generator returns plain data: graph JSON dicts in the
``MixedGraph.from_dict`` format plus query vertex lists. This module uses only
the standard library, so generating inputs neither imports ``causalid`` nor
counts towards the measured set-up time.

The graphs and queries of each workload form a fixed suite, drawn once from
``SUITE_SEED`` with the random generators below; the run seed orders the
operations and draws everything else an operation consumes (the SCM
parameters of ``verify-hidden``, the ``--seed`` of the CLI ``verify``). The
suite is fixed because per-input cost is heavy-tailed: with the engine as
first released, the estimand of one 14-vertex graph took 40 s and 430 MB to
serialize while most took milliseconds, so when the graphs were drawn per run
seed, one pass over 104 ``identify-mix`` queries took from 14 s to 63 s
across eight seeds (shared 2-vCPU host). Runs on different seeds would then measure different work and could
not be compared with one another or against a bound.
"""

from __future__ import annotations

import itertools
import random

SUITE_SEED = 0


def _suite_rng(workload: str, *key) -> random.Random:
    return random.Random(f"{workload}:suite{SUITE_SEED}:{key}")


def _run_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:run:{seed}")


def _graph_dict(names, directed=(), bidirected=(), hidden=()):
    return {
        "vertices": list(names),
        "hidden": sorted(hidden),
        "fixed": [],
        "directed": [list(e) for e in directed],
        "bidirected": [sorted(e) for e in bidirected],
    }


def random_admg(rng: random.Random, n: int, p_dir: float, p_bid: float) -> dict:
    """ADMG on V0..V(n-1); directed edges follow a shuffled topological order."""
    names = [f"V{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    directed, bidirected = [], []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p_dir:
            directed.append((order[i], order[j]))
        if rng.random() < p_bid:
            bidirected.append((order[i], order[j]))
    return _graph_dict(names, directed, bidirected)


def random_hidden_dag(rng: random.Random, n_obs: int, n_hidden: int, p_dir: float) -> dict:
    """DAG over observed V* and hidden H* vertices in a shuffled order."""
    names = [f"V{i}" for i in range(n_obs)] + [f"H{i}" for i in range(n_hidden)]
    order = names[:]
    rng.shuffle(order)
    directed = [
        (order[i], order[j])
        for i, j in itertools.combinations(range(len(order)), 2)
        if rng.random() < p_dir
    ]
    return _graph_dict(names, directed, hidden=[v for v in names if v.startswith("H")])


def chain(n: int) -> dict:
    names = [f"V{i}" for i in range(n)]
    return _graph_dict(names, directed=list(zip(names, names[1:])))


def random_query(rng: random.Random, observed, max_outcomes=2, max_treatments=2):
    """(outcomes, treatments): 1..2 outcomes and 0..2 disjoint treatments."""
    observed = sorted(observed)
    outcomes = rng.sample(observed, rng.randint(1, min(max_outcomes, len(observed))))
    rest = [v for v in observed if v not in outcomes]
    treatments = rng.sample(rest, rng.randint(0, min(max_treatments, len(rest))))
    return sorted(outcomes), sorted(treatments)


# ----------------------------------------------------------------- workloads
#
# Each size has its own suite generator, so fewer draws of a size keep a
# prefix of the same graphs.

# Graphs above ten vertices get fewer draws: their cost is heavy-tailed (with
# the engine as first released, single 14-vertex draws took 12 s and 40 s on
# a shared 2-vCPU host), and a run has to cover whole passes.
IDENTIFY_DRAWS = {6: 8, 7: 8, 8: 8, 9: 8, 10: 8, 11: 2, 12: 2, 13: 2, 14: 2}


def identify_mix(seed: int, draws=IDENTIFY_DRAWS, chains=range(4, 9)):
    """Sparse ADMGs (p_dir = 3/n, p_bid = 1.5/n), ``draws[n]`` of each size n,
    plus directed chains V0 -> ... -> V(n-1) queried for p(V(n-1) | do(V0)).

    Returns ``{"graph", "outcomes", "treatments"}`` items in run-seed order.
    """
    items = []
    for n, count in draws.items():
        rng = _suite_rng("identify-mix", n)
        for _ in range(count):
            g = random_admg(rng, n, 3.0 / n, 1.5 / n)
            y, a = random_query(rng, g["vertices"])
            items.append({"graph": g, "outcomes": y, "treatments": a})
    for n in chains:
        items.append({"graph": chain(n), "outcomes": [f"V{n - 1}"], "treatments": ["V0"]})
    _run_rng("identify-mix", seed).shuffle(items)
    return items


def structure_large(seed: int, sizes=range(48, 97, 8), per_size=4):
    """Sparse ADMGs at n = 48..96; half random queries, half bow-arc queries.

    ``p_bid`` alternates between 1.5/n and 3/n. A bow-arc query p(Y | do(A))
    has A -> Y and A <-> Y in the graph, which is a hedge whatever else the
    graph holds, so its known answer is "not identified".
    """
    items = []
    for n in sizes:
        rng = _suite_rng("structure-large", n)
        for k in range(per_size):
            g = random_admg(rng, n, 3.0 / n, (1.5 if k % 2 == 0 else 3.0) / n)
            if k % 4 < 2:
                y, a = random_query(rng, g["vertices"])
                items.append({"graph": g, "outcomes": y, "treatments": a, "bow_arc": False})
                continue
            if not g["directed"]:
                g["directed"].append(sorted(rng.sample(g["vertices"], 2)))
            t, h = rng.choice(g["directed"])
            if sorted((t, h)) not in g["bidirected"]:
                g["bidirected"].append(sorted((t, h)))
            items.append({"graph": g, "outcomes": [h], "treatments": [t], "bow_arc": True})
    _run_rng("structure-large", seed).shuffle(items)
    return items


def verify_hidden(seed: int, sizes=range(5, 9), per_size=4, scm_seeds=3):
    """Hidden-variable DAGs, each with candidate queries and SCM seeds.

    ``n_hidden = max(1, n_obs // 3)`` and ``p_dir = 0.4``. Every second graph
    with ``n_obs <= 6`` is ternary, the rest binary. Whether a query is
    identified is only known after latent projection, so ``queries`` holds
    several candidates and the worker keeps the first identified one.
    """
    items = []
    for n_obs in sizes:
        rng = _suite_rng("verify-hidden", n_obs)
        for k in range(per_size):
            g = random_hidden_dag(rng, n_obs, max(1, n_obs // 3), 0.4)
            observed = [v for v in g["vertices"] if v not in g["hidden"]]
            card = 3 if n_obs <= 6 and k % 2 == 1 else 2
            queries = [random_query(rng, observed) for _ in range(8)]
            items.append({"graph": g, "queries": queries, "card": card})
    run = _run_rng("verify-hidden", seed)
    for item in items:
        item["scm_seeds"] = [run.randrange(1 << 30) for _ in range(scm_seeds)]
    run.shuffle(items)
    return items


# Per fixture: the outcome and treatments of an identified query.
FIXTURE_QUERIES = {
    "fig1a": ("Y", "A1,A2"),
    "fig1b": ("Y", "A1"),
    "fig1c": ("Y", "A1,A2"),
    "fig1d": ("Y", "A"),
    "fig1e": ("Y", "M"),
}


def cli_commands():
    """(argv, expected exit code); graph paths are relative to ``fixtures/``.

    Every subcommand on every fixture it accepts, ``identify`` in all four
    formats, two hedge queries (exit 1) and ``verify`` on the one
    hidden-variable fixture.
    """
    commands = []
    for name, (y, a) in FIXTURE_QUERIES.items():
        path = f"{name}.json"
        for fmt in ("text", "latex", "json", "dot"):
            commands.append((["identify", path, "--outcome", y, "--treatment", a, "--format", fmt], 0))
        commands.append((["districts", path], 0))
        commands.append((["fix", path, "--sequence", y], 0))
        commands.append((["closure", path, "--set", y], 0))
    for name in ("fig1a", "fig1b", "fig1e"):  # latent projection needs a DAG
        commands.append((["project", f"{name}.json"], 0))
    for name in ("fig1b", "fig1c"):
        commands.append((["identify", f"{name}.json", "--outcome", "Y", "--treatment", "A2"], 1))
    for a in ("A1", "A1,A2"):
        commands.append((["verify", "fig1b.json", "--outcome", "Y", "--treatment", a, "--trials", "2"], 0))
    return commands


def cli_fixtures(seed: int):
    """The command list in run-seed order, each ``verify`` with a run-seeded
    ``--seed``."""
    rng = _run_rng("cli-fixtures", seed)
    items = []
    for argv, code in cli_commands():
        if argv[0] == "verify":
            argv = argv + ["--seed", str(rng.randrange(1 << 20))]
        items.append({"argv": argv, "exit": code})
    rng.shuffle(items)
    return items
