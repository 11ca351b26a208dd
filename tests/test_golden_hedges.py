"""Hedge witnesses and results on seeded random queries, pinned byte for byte.

``golden_hedges.json`` holds, for 400 seeded queries on random ADMGs with
3 to 8 vertices (half of them with ``p_bid=0.5``), a sha256 of the graph's
canonical JSON, the query, and:

- the ``to_dict()`` of a ``NotIdentified`` result, or a sha256 of the sorted
  JSON of ``Identified.to_dict()``, which covers every kernel and context;
- the three ``failure_characterizations`` flags;
- for each district of the decomposition, ``find_hedge(...).to_dict()`` and
  its ``hedge_violation``, or the text of the ``GraphError`` it raises.

Regenerate it with ``PYTHONPATH=src python tests/test_golden_hedges.py`` only
when an output change is intended, and declare that change.
"""

import hashlib
import json
import pathlib
import random as pyrandom

from causalid import (
    GraphError,
    Query,
    decompose,
    failure_characterizations,
    find_hedge,
    hedge_violation,
    identify,
)
from helpers import random_admg, random_query_sets

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_hedges.json"
QUERIES = 400


def queries():
    rng = pyrandom.Random(13)
    for i in range(QUERIES):
        n = 3 + (i // 2) % 6
        g = random_admg(rng, n, p_bid=0.5 if i % 2 else 0.25)
        outcomes, treatments = random_query_sets(rng, g.random)
        yield g, Query(outcomes=tuple(outcomes), treatments=tuple(treatments))


def records():
    out = []
    for g, q in queries():
        res = identify(g, q)
        rec = {
            "graph_sha256": hashlib.sha256(g.to_json().encode()).hexdigest(),
            "outcomes": list(q.outcomes),
            "treatments": list(q.treatments),
        }
        if res.identified:
            rec["identified_sha256"] = hashlib.sha256(
                json.dumps(res.to_dict(), sort_keys=True).encode()
            ).hexdigest()
        else:
            rec["not_identified"] = res.to_dict()
        rec["flags"] = list(failure_characterizations(g, q).as_tuple())
        hedges = []
        for d in decompose(g, q).districts:
            try:
                w = find_hedge(g, q, d)
            except GraphError as err:
                hedges.append({"district": list(d), "error": str(err)})
            else:
                hedges.append({
                    "district": list(d),
                    "witness": w.to_dict(),
                    "violation": hedge_violation(g, q, w),
                })
        rec["hedges"] = hedges
        out.append(rec)
    return out


def test_hedges_and_results_are_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == QUERIES
    current = records()
    assert len(current) == QUERIES
    for i, (got, want) in enumerate(zip(current, golden)):
        assert got == want, i


if __name__ == "__main__":
    # one query per line keeps the file small and its diffs readable
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records()) + "\n]\n")
