"""One workload in one fresh interpreter: a closed loop with one client.

Run by ``run.py``; not meant to be started by hand. The worker loads
``causalid`` from the checkout's ``src`` directory, builds its inputs from the
seed, then runs operations back to back, the next one starting when the
previous one finished, in whole passes over the inputs until the operations
have taken at least ``--seconds`` in total. Every operation's output is
checked. The result is one JSON object on stdout.

With ``--setup-only`` it instead times ``import causalid`` plus parsing every
input graph of the workload, which is the benchmark's set-up cost.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (benchmark module next to this file)

# Sizes used by the benchmark's own smoke check.
TINY = {
    "identify-mix": dict(draws={6: 2, 7: 2}, chains=range(4, 5)),
    "structure-large": dict(sizes=range(12, 17, 4), per_size=4),
    "verify-hidden": dict(sizes=range(4, 5), per_size=2, scm_seeds=1),
    "cli-fixtures": dict(),
}


GENERATORS = {
    "identify-mix": inputs.identify_mix,
    "structure-large": inputs.structure_large,
    "verify-hidden": inputs.verify_hidden,
    "cli-fixtures": inputs.cli_fixtures,
}


def make_inputs(workload: str, seed: int, tiny: bool):
    return GENERATORS[workload](seed, **(TINY[workload] if tiny else {}))


def graph_dicts(workload: str, items):
    if workload == "cli-fixtures":
        return [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    return [item["graph"] for item in items]


def import_causalid():
    """Import the checkout's ``causalid``, never an installed copy."""
    if not (SRC / "causalid" / "__init__.py").is_file():
        raise SystemExit(f"error: no causalid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import causalid

    if Path(causalid.__file__).resolve().parent != (SRC / "causalid").resolve():
        raise SystemExit(f"error: imported causalid from {causalid.__file__}")
    return causalid


# ------------------------------------------------------------- estimand size

def tree_and_dag_nodes(expr):
    """(tree nodes, structurally distinct nodes) of one estimand.

    Both walks are memoized on node identity, so the cost is linear in the
    number of node objects even when the tree is exponentially larger.
    """
    tree = {}
    canon = {}
    table = {}

    def go(node):
        key = id(node)
        if key in tree:
            return
        kind = type(node).__name__
        if kind == "Factor":
            size, sig = 1, (kind, node.outcomes, node.given)
        elif kind == "Product":
            for t in node.terms:
                go(t)
            size = 1 + sum(tree[id(t)] for t in node.terms)
            sig = (kind, tuple(canon[id(t)] for t in node.terms))
        elif kind == "Quotient":
            go(node.numerator)
            go(node.denominator)
            size = 1 + tree[id(node.numerator)] + tree[id(node.denominator)]
            sig = (kind, canon[id(node.numerator)], canon[id(node.denominator)])
        else:
            go(node.body)
            size = 1 + tree[id(node.body)]
            sig = (kind, node.indices, canon[id(node.body)])
        tree[key] = size
        canon[key] = table.setdefault(sig, len(table))

    go(expr)
    return tree[id(expr)], len(table)


# ---------------------------------------------------------------- workloads

class Workload:
    """Prepared inputs; ``run(k)`` is the operation on input ``k``.

    ``check(k, output)`` returns ``(ok, output_bytes, estimand)``, where
    ``estimand`` is the emitted expression to be sized, or None. Checks run
    outside the timed region.
    """

    def __init__(self, cz, items):
        self.cz = cz
        self.items = items

    def __len__(self):
        return len(self.items)


class IdentifyMix(Workload):
    def __init__(self, cz, items):
        super().__init__(cz, items)
        self.cases = [
            (cz.MixedGraph.from_dict(it["graph"]),
             cz.Query(outcomes=it["outcomes"], treatments=it["treatments"]))
            for it in items
        ]
        self.digests = {}

    def run(self, i):
        cz = self.cz
        g, q = self.cases[i]
        result = cz.identify(g, q)
        if isinstance(result, cz.NotIdentified):
            return (result, None, None)
        return (result, cz.render_text(result.estimand), cz.to_json(result.estimand))

    def check(self, i, out):
        """Full check the first time an input is seen; afterwards the output
        must equal the checked one, compared by length and hash."""
        cz = self.cz
        g, q = self.cases[i]
        result, text, js = out
        if text is None:
            return cz.is_hedge(g, q, result.witness), 0, None
        digest = (len(text), hash(text), len(js), hash(js))
        if i in self.digests:
            return self.digests[i] == digest, 0, None
        e = result.estimand
        allowed = set(q.outcomes) | set(result.treatment_labels.values())
        ok = cz.well_formed(e, allowed_free=allowed)[0] and cz.from_json(js) == e
        if ok:
            self.digests[i] = digest
        return ok, len(text.encode()) + len(js.encode()), e


class StructureLarge(Workload):
    def __init__(self, cz, items):
        super().__init__(cz, items)
        self.cases = [
            (cz.MixedGraph.from_dict(it["graph"]),
             cz.Query(outcomes=it["outcomes"], treatments=it["treatments"]),
             it["bow_arc"])
            for it in items
        ]

    def run(self, i):
        cz = self.cz
        g, q, _ = self.cases[i]
        dec = cz.decompose(g, q)
        closures = [(d, cz.reachable_closure(g, d)) for d in dec.districts]
        report = cz.failure_characterizations(g, q)
        hedge = None
        if report.some_district_proper_closure:
            failing = next(d for d, c in closures if set(d) < c)
            witness = cz.find_hedge(g, q, failing)
            hedge = (witness, cz.is_hedge(g, q, witness))
        return closures, report, hedge

    def check(self, i, out):
        cz = self.cz
        g, q, bow_arc = self.cases[i]
        closures, report, hedge = out
        flags = report.as_tuple()
        ok = all(set(d) <= c for d, c in closures) and len(set(flags)) == 1
        ok = ok and (hedge is not None) == flags[0]
        if bow_arc:
            ok = ok and flags[0]
        if hedge is not None:
            witness, is_hedge = hedge
            ok = ok and is_hedge and cz.hedge_violation(g, q, witness) is None
        return ok, 0, None


class VerifyHidden(Workload):
    """One operation per (graph, SCM seed): ``random_scm`` then ``verify``.

    The query for each graph is the first drawn candidate whose latent
    projection identifies it; if none does, the first candidate's outcomes
    without treatments, which is always identified. Identification happens
    here, before the loop.
    """

    def __init__(self, cz, items):
        super().__init__(cz, items)
        self.cases = []
        for it in items:
            g = cz.MixedGraph.from_dict(it["graph"])
            projection = g.latent_project()
            candidates = [(y, a) for y, a in it["queries"]] + [(it["queries"][0][0], [])]
            for y, a in candidates:
                q = cz.Query(outcomes=y, treatments=a)
                result = cz.identify(projection, q)
                if isinstance(result, cz.Identified):
                    break
            cards = {v: it["card"] for v in g.random}
            for seed in it["scm_seeds"]:
                self.cases.append((g, q, result, cards, seed))

    def __len__(self):
        return len(self.cases)

    def run(self, i):
        cz = self.cz
        g, q, result, cards, seed = self.cases[i]
        scm = cz.random_scm(g, cards, seed=seed)
        return cz.verify(scm, q, result, tol=1e-9)

    def check(self, i, report):
        return report.passed, 0, None


class CliFixtures(Workload):
    """One ``python -m causalid.cli`` subprocess per operation.

    The traced run calls ``causalid.cli.main`` in-process instead, since
    wrappers cannot reach into a child interpreter.
    """

    def __init__(self, cz, items, in_process=False):
        super().__init__(cz, items)
        self.in_process = in_process
        if in_process:
            import causalid.cli

            self.cli = causalid.cli
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.env.pop("IDENT_SEED", None)

    def run(self, i):
        command, path, *rest = self.items[i]["argv"]
        argv = [command, str(FIXTURES / path)] + rest
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue().encode()
        proc = subprocess.run(
            [sys.executable, "-m", "causalid.cli"] + argv,
            env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, i, out):
        code, stdout = out
        item = self.items[i]
        ok = code == item["exit"] and bool(stdout)
        argv = item["argv"]
        is_json = argv[0] in ("project", "districts", "fix", "closure", "verify") or (
            argv[0] == "identify" and ("json" in argv or item["exit"] == 1)
        )
        if ok and is_json:
            try:
                json.loads(stdout)
            except ValueError:
                ok = False
        return ok, len(stdout), None


def build(cz, workload, items, trace):
    if workload == "identify-mix":
        return IdentifyMix(cz, items)
    if workload == "structure-large":
        return StructureLarge(cz, items)
    if workload == "verify-hidden":
        return VerifyHidden(cz, items)
    return CliFixtures(cz, items, in_process=trace)


# --------------------------------------------------------------------- loop

def closed_loop(wl, seconds, tracer=None, max_ops=None):
    """Run operations back to back in whole passes over the inputs.

    The loop stops at the end of the first pass by which the operations have
    taken ``seconds`` in total, or after ``max_ops`` operations. Output checks
    and size accounting run between operations and are not part of any
    operation's latency. A full garbage collection before each operation
    makes the collections inside it independent of the operations before it,
    and so of the seeded order.
    """
    latencies, failures = [], 0
    pass_bytes, pass_tree, pass_dag = 0, 0, 0
    busy = 0.0
    i = 0
    while True:
        k = i % len(wl)
        if tracer is not None:
            tracer.start_op(i)
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = wl.run(k)
            error = None
        except Exception as exc:  # a raising operation is a counted failure
            out, error = None, exc
        dt = time.perf_counter() - t0
        latencies.append(dt)
        busy += dt
        ok = False
        if error is None:
            if tracer is not None:
                tracer.enabled = False
            try:
                ok, nbytes, expr = wl.check(k, out)
            except Exception as exc:  # a check that raises fails the operation
                ok, nbytes, expr, error = False, 0, None, exc
            if i < len(wl):
                pass_bytes += nbytes
                if expr is not None:
                    tree, dag = tree_and_dag_nodes(expr)
                    pass_tree += tree
                    pass_dag += dag
            if tracer is not None:
                tracer.enabled = True
        if not ok and failures == 0:
            reason = repr(error) if error else "wrong output"
            print(f"input {k} failed: {reason}", file=sys.stderr)
        del out
        failures += not ok
        i += 1
        if max_ops is not None:
            if i >= max_ops:
                break
        elif busy >= seconds and i % len(wl) == 0:
            break
    return {
        "latencies": latencies,
        "failures": failures,
        "busy_s": busy,
        "output_bytes": pass_bytes,
        "tree_nodes": pass_tree,
        "dag_nodes": pass_dag,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-fixtures" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def setup_only(workload, seed, tiny):
    items = make_inputs(workload, seed, tiny)
    dicts = graph_dicts(workload, items)
    t0 = time.perf_counter()
    cz = import_causalid()
    for d in dicts:
        cz.MixedGraph.from_dict(d)
    return {"setup_s": time.perf_counter() - t0}


def cli_import_only():
    t0 = time.perf_counter()
    import_causalid()
    import causalid.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cli-import-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed, args.tiny)))
        return 0
    if args.cli_import_only:
        print(json.dumps(cli_import_only()))
        return 0

    items = make_inputs(args.workload, args.seed, args.tiny)
    cz = import_causalid()
    wl = build(cz, args.workload, items, bool(args.trace))
    gc.collect()
    gc.freeze()  # the prepared inputs are not garbage; keep them out of collections
    result = {"inputs": len(wl)}
    if not args.trace:
        result.update(closed_loop(wl, args.seconds))
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            # Set-up parsing, as op -1, so graph.from_dict is traced on every
            # workload and not only where operations parse graphs.
            tracer.start_op(-1)
            for d in graph_dicts(args.workload, items):
                cz.MixedGraph.from_dict(d)
            traced = closed_loop(wl, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        # The same operations again without wrappers give the tracing overhead.
        plain = closed_loop(wl, None, max_ops=len(traced["latencies"]))
        result.update(traced)
        result["untraced_busy_s"] = plain["busy_s"]
        result["untraced_failures"] = plain["failures"]
        result["layers"] = tracer.summary()
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    result["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
