#!/usr/bin/env python3
"""causalid benchmark: one seeded workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload identify-mix --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh interpreter (``worker.py``), so set-up
time and peak memory are not affected by earlier workloads or by what this
script imports; this script imports nothing from ``causalid``. Set-up time is
measured separately, in several more fresh interpreters, and reported as
their median.

``structure-large`` runs here like the others but is not listed in
``BENCHMARK.json``: with the engine as first released, one pass over its 28
large graphs takes about 20 s, so a run measures each input once, and over
ten runs on a shared 2-vCPU host the quartile distance of its tail latency
reached 28% of the median.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, which times calls into each module's public
functions. Both print a human-readable report and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is non-zero, with no JSON line, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identify-mix", "structure-large", "verify-hidden", "cli-fixtures")
SETUP_REPEATS = 11
CLI_IMPORT_REPEATS = 5
WORKER_TIMEOUT_S = 150  # the whole run must end within 180 s
PROBE_TIMEOUT_S = 30

# Printed for every workload; the first five are the JSON metrics of --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("failure_rate", "ratio"),
    ("estimand_tree_nodes", "count"),
    ("output_bytes", "bytes"),
)
GATED = ("setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb")

# (metric, unit, tracer name, field): field is "calls", "total_s" or "self_s".
LAYER_SPANS = (
    ("graph.init_calls", "count", "graph.init", "calls"),
    ("graph.init_s", "s", "graph.init", "total_s"),
    ("graph.from_dict_s", "s", "graph.from_dict", "total_s"),
    ("graph.latent_project_s", "s", "graph.latent_project", "total_s"),
    ("graph.descendants_calls", "count", "graph.descendants", "calls"),
    ("graph.district_of_calls", "count", "graph.district_of", "calls"),
    ("fixing.find_valid_sequence_calls", "count", "fixing.find_valid_sequence", "calls"),
    ("fixing.find_valid_sequence_s", "s", "fixing.find_valid_sequence", "total_s"),
    ("fixing.is_fixable_calls", "count", "fixing.is_fixable", "calls"),
    ("fixing.reachable_closure_s", "s", "fixing.reachable_closure", "total_s"),
    ("identify.decompose_s", "s", "identify.decompose", "self_s"),
    ("identify.identify_district_s", "s", "identify.identify_district", "self_s"),
    ("identify.find_hedge_s", "s", "identify.find_hedge", "total_s"),
    ("identify.hedge_violation_s", "s", "identify.hedge_violation", "total_s"),
    ("identify.failure_characterizations_s", "s", "identify.failure_characterizations", "total_s"),
    ("estimand.substitute_s", "s", "estimand.substitute", "total_s"),
    ("estimand.simplify_s", "s", "estimand.simplify", "total_s"),
    ("estimand.render_text_s", "s", "estimand.render_text", "total_s"),
    ("estimand.to_json_s", "s", "estimand.to_json", "total_s"),
    ("estimand.evaluate_calls", "count", "estimand.evaluate", "calls"),
    ("estimand.evaluate_s", "s", "estimand.evaluate", "total_s"),
    ("tables.marginal_calls", "count", "tables.marginal", "calls"),
    ("tables.marginal_s", "s", "tables.marginal", "total_s"),
    ("oracle.random_scm_s", "s", "oracle.random_scm", "total_s"),
    ("oracle.observed_joint_s", "s", "oracle.observed_joint", "total_s"),
    ("oracle.interventional_calls", "count", "oracle.interventional", "calls"),
    ("oracle.interventional_s", "s", "oracle.interventional", "total_s"),
    ("cli.main_s", "s", "cli.main", "total_s"),
)
PER_LAYER = tuple((m, u) for m, u, _, _ in LAYER_SPANS) + (
    ("fixing.fixable_hit_ratio", "ratio"),
    ("estimand.dag_nodes", "count"),
    ("estimand.sharing_ratio", "ratio"),
    ("cli.import_s", "s"),
    ("estimand_tree_nodes", "count"),
    ("output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(*args: str, timeout: float = WORKER_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that has
    at least ten samples beyond it; with fewer than 11 samples, the minimum."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def per_input(latencies, n_inputs):
    """Each input's latency: the median over the passes that ran it.

    Runs cover whole passes, and their number follows the program's speed.
    The tail counts the samples beyond it, so it is taken over one sample per
    input to stay independent of the number of passes.
    """
    return [statistics.median(latencies[k::n_inputs]) for k in range(n_inputs)]


def median_of_runs(n: int, *args: str, key: str) -> float:
    """Median of ``key`` over ``n`` fresh worker interpreters."""
    return statistics.median(run_worker(*args, timeout=PROBE_TIMEOUT_S)[key] for _ in range(n))


def end_to_end(res: dict, setup_s: float):
    lat = res["latencies"]
    n = res["inputs"]
    tail_s, pct, beyond = tail(per_input(lat, n))
    values = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(lat) / res["busy_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failure_rate": res["failures"] / len(lat),
        "estimand_tree_nodes": res["tree_nodes"] or None,
        "output_bytes": res["output_bytes"] or None,
    }
    runs = f"{len(lat)} ops: {len(lat) // n} passes over {n} inputs"
    notes = {
        "op_p50_ms": f"median of {runs}",
        "op_tail_ms": f"p{pct:.1f} of {n} inputs, {beyond} beyond",
        "ops_per_s": f"{res['busy_s']:.2f} s in operations",
        "failure_rate": f"{res['failures']} of {len(lat)} ops failed",
        "estimand_tree_nodes": "one pass",
        "output_bytes": "one pass",
    }
    return values, notes


def per_layer(res: dict, cli_import_s: float):
    layers = res["layers"]
    values = {}
    for metric, _, name, field in LAYER_SPANS:
        values[metric] = layers.get(name, {}).get(field, 0)
    probes = layers.get("fixing.is_fixable", {"calls": 0, "hits": 0})
    values["fixing.fixable_hit_ratio"] = probes["hits"] / probes["calls"] if probes["calls"] else 0.0
    values["estimand.dag_nodes"] = res["dag_nodes"]
    values["estimand.sharing_ratio"] = res["dag_nodes"] / res["tree_nodes"] if res["tree_nodes"] else 0.0
    values["cli.import_s"] = cli_import_s
    values["estimand_tree_nodes"] = res["tree_nodes"]
    values["output_bytes"] = res["output_bytes"]
    traced_rate = len(res["latencies"]) / res["busy_s"]
    plain_rate = len(res["latencies"]) / res["untraced_busy_s"]
    values["trace.overhead_ratio"] = plain_rate / traced_rate - 1.0
    notes = {
        "trace.overhead_ratio": f"untraced {plain_rate:.4g} / traced {traced_rate:.4g} ops_per_s - 1",
        "cli.import_s": "median of fresh interpreters",
        "estimand_tree_nodes": "one pass",
        "output_bytes": "one pass",
    }
    return values, notes


def report(workload, metrics, units, notes, title):
    print(f"== {workload}: {title}")
    for name, unit in units:
        value = metrics.get(name)
        shown = "n/a (this workload emits none)" if value is None else f"{value:.6g} {unit}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {shown}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    args = ap.parse_args(argv)

    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    repeats = 1 if args.tiny else SETUP_REPEATS
    try:
        if not (ROOT / "src" / "causalid" / "__init__.py").is_file():
            raise BenchError(f"no causalid sources under {ROOT / 'src'}")
        setup_s = median_of_runs(repeats, "--setup-only", *common, key="setup_s")
        res = run_worker(*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                         *(["--spans-out", str(spans_path(args))] if args.trace else []))
        if args.trace:
            cli_repeats = 1 if args.tiny else CLI_IMPORT_REPEATS
            cli_import_s = median_of_runs(cli_repeats, "--cli-import-only", *common, key="import_s")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = len(res["latencies"])
    failed = res["failures"]
    if args.trace:
        failed += res["untraced_failures"]
        values, notes = per_layer(res, cli_import_s)
        report(args.workload, values, PER_LAYER, notes,
               f"per-layer metrics (traced run, seed {args.seed})")
        layers = res["layers"]
        print(f"  spans kept {res['spans_kept']}, dropped {res['spans_dropped']}; "
              "calls, total and self time per span:")
        for name in sorted(layers, key=lambda n: -layers[n]["self_s"]):
            row = layers[name]
            print(f"    {name:38s} calls {row['calls']:>9d}  total {row['total_s']:10.4f} s"
                  f"  self {row['self_s']:10.4f} s")
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
    else:
        values, notes = end_to_end(res, setup_s)
        report(args.workload, values, END_TO_END, notes,
               f"end-to-end metrics (seed {args.seed}, closed loop, 1 client)")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END if m in GATED}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def spans_path(args) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    return out / f"spans-{args.workload}-seed{args.seed}.tsv"


if __name__ == "__main__":
    sys.exit(main())
