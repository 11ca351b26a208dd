"""Every one-outcome fixture query, pinned byte for byte.

``golden_estimands.json`` holds, for each query p(Y | do(A)) with one outcome
and up to two treatments on the five fixtures (fig1b projected), the
``render_text`` output and a sha256 of ``to_json`` of the estimand, or the
``to_dict()`` of a ``NotIdentified`` result. Regenerate it with
``PYTHONPATH=src python tests/test_golden_estimands.py`` only when an output
change is intended, and declare that change.
"""

import hashlib
import itertools
import json
import pathlib

from causalid import Query, identify, render_text, to_json
from conftest import load_fig

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_estimands.json"


def queries():
    """(fixture name, graph, query) in the file's order."""
    for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e"):
        g = load_fig(name)
        g = g.latent_project() if g.hidden else g
        for y in g.random:
            rest = [v for v in g.random if v != y]
            for n_a in range(3):
                for a in itertools.combinations(rest, n_a):
                    yield name, g, Query(outcomes=(y,), treatments=a)


def records():
    out = []
    for name, g, q in queries():
        res = identify(g, q)
        rec = {"fixture": name, "outcome": q.outcomes[0], "treatments": list(q.treatments)}
        if res.identified:
            rec["text"] = render_text(res.estimand)
            rec["json_sha256"] = hashlib.sha256(to_json(res.estimand).encode()).hexdigest()
        else:
            rec["not_identified"] = res.to_dict()
        out.append(rec)
    return out


def test_fixture_estimands_are_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 124
    assert sum("not_identified" in r for r in golden) == 2
    current = records()
    assert [(r["fixture"], r["outcome"], r["treatments"]) for r in current] == [
        (r["fixture"], r["outcome"], r["treatments"]) for r in golden
    ]
    for got, want in zip(current, golden):
        assert got == want, (want["fixture"], want["outcome"], want["treatments"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1) + "\n")
