import importlib.metadata
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causalid import GraphError, MixedGraph, from_json
from causalid.cli import main
from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURES / f"{name}.json")


# -------------------------------------------------------------------- project

def test_project_is_byte_identical_to_checked_in_projection(capsys):
    code, out, err = run(capsys, "project", fixture("fig1b"))
    assert code == 0
    assert out == (FIXTURES / "fig1c.json").read_text()


def test_project_missing_file(capsys):
    code, out, err = run(capsys, "project", "no-such-file.json")
    assert code == 2
    assert "error:" in err and "no-such-file.json" in err


# ------------------------------------------------------------------- identify

def test_identify_text(capsys):
    code, out, err = run(capsys, "identify", fixture("fig1d"),
                         "--treatment", "A", "--outcome", "Y")
    assert code == 0
    # raw engine output: an outer sum over the mediator and baseline vertices
    # whose free variables are the outcome and the treatment level
    assert out.startswith("sum_{c,m}")
    assert "p(a" in out and "Y" in out
    assert err == ""


def test_identify_latex(capsys):
    code, out, err = run(capsys, "identify", fixture("fig1d"),
                         "--treatment", "A", "--outcome", "Y", "--format", "latex")
    assert code == 0
    assert out.startswith("\\sum_{c, m}") and "\\frac" in out


def test_identify_json_is_parseable(capsys):
    code, out, err = run(capsys, "identify", fixture("fig1d"),
                         "--treatment", "A", "--outcome", "Y", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "identified"
    # the embedded estimand parses back as an expression
    from_json(json.dumps({"schema_version": 1, "expr": data["estimand"]}))


def test_identify_dot(capsys):
    code, out, err = run(capsys, "identify", fixture("fig1d"),
                         "--treatment", "A", "--outcome", "Y", "--format", "dot")
    assert code == 0
    # one graphviz node per distinct expression node, numbered depth-first
    assert out == (pathlib.Path(__file__).parent / "golden_fig1d.dot").read_text()


def test_identify_hedge_exit_one(capsys):
    code, out, err = run(capsys, "identify", fixture("fig1c"),
                         "--treatment", "A2", "--outcome", "Y")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "not_identified"
    assert data["witness"] == {"inner": ["W", "Y"], "outer": ["A2", "W", "Y"],
                               "roots": ["W", "Y"]}
    assert "not identified" in err


def test_identify_auto_projects_hidden_input(capsys):
    code, out, err = run(capsys, "identify", fixture("fig1b"),
                         "--treatment", "A1,A2", "--outcome", "Y")
    assert code == 0
    assert "latent projection" in err


def test_identify_bad_query(capsys):
    code, out, err = run(capsys, "identify", fixture("fig1d"),
                         "--treatment", "Y", "--outcome", "Y")
    assert code == 2
    assert "error:" in err


def test_identify_cyclic_input_names_cycle(tmp_path, capsys):
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps({
        "vertices": ["A", "B"],
        "directed": [["A", "B"], ["B", "A"]],
        "bidirected": [],
    }))
    code, out, err = run(capsys, "identify", str(bad), "--outcome", "A")
    assert code == 2
    assert "cycle" in err


def test_cycle_upstream_of_a_lesser_vertex_is_input_error(tmp_path, capsys):
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps({
        "vertices": ["A", "B", "C"],
        "directed": [["B", "C"], ["C", "B"], ["B", "A"]],
        "bidirected": [],
    }))
    code, out, err = run(capsys, "districts", str(bad))
    assert (code, out, err) == (2, "", "error: cycle detected: B -> C -> B\n")


# ------------------------------------------------------- districts / fix / closure

def test_districts(capsys):
    code, out, err = run(capsys, "districts", fixture("fig1c"))
    assert code == 0
    assert json.loads(out) == {"districts": [["A1"], ["A2", "W", "Y"]]}


def test_malformed_graph_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "g.json"
    for fields in ({"directed": [["A", "B", "C"]]}, {"directed": [5]}, {"bidirected": [7]},
                   {"directed": ["AB"]}, {"bidirected": ["AB"]}, {"vertices": "AB"}):
        path.write_text(json.dumps({"vertices": ["A", "B", "C"], "directed": [],
                                    "bidirected": [], **fields}))
        code, out, err = run(capsys, "districts", str(path))
        assert (code, out) == (2, ""), fields
        assert err.startswith("error: "), fields


def test_deeply_nested_graph_json_is_input_error(capsys, tmp_path):
    # the JSON decoder gives up on this nesting with a RecursionError
    path = tmp_path / "g.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "districts", str(path))
    assert (code, out) == (2, "")
    assert err == "error: invalid graph JSON: nested too deeply\n"


NAME = st.sampled_from(["A", "B", "C", "D"])
JUNK = st.one_of(st.integers(-1, 2), st.none(), st.sampled_from(["", "A B", "A|B", "AB"]),
                 st.lists(NAME, max_size=3))
PAIR = st.tuples(NAME, NAME).filter(lambda e: e[0] != e[1]).map(list)
# well-formed fields, so that validation gets past the field checks, where
# directed edges on four vertices often close a cycle
WELL_FORMED = {
    "vertices": st.one_of(st.just(["A", "B", "C", "D"]), st.lists(NAME, max_size=4)),
    "directed": st.lists(PAIR, max_size=6),
    "bidirected": st.lists(PAIR, max_size=2),
}
OPTIONAL = {"hidden": st.lists(NAME, max_size=2), "fixed": st.lists(NAME, max_size=1)}


def _junk_in(value):
    """``value`` or a copy of it with one piece replaced by junk."""
    item = st.one_of(NAME, JUNK)
    return st.one_of(st.just(value), JUNK, st.lists(item, max_size=3),
                     st.lists(st.one_of(PAIR, st.lists(item, max_size=3), item), max_size=3))


GRAPH_DICTS = st.one_of(
    st.fixed_dictionaries({**WELL_FORMED, "vertices": st.just(["A", "B", "C", "D"]),
                           "directed": st.lists(PAIR, min_size=3, max_size=6)}),
    st.fixed_dictionaries(WELL_FORMED, optional=OPTIONAL),
    st.fixed_dictionaries(WELL_FORMED, optional={**OPTIONAL, "weights": JUNK}).flatmap(
        lambda d: st.sampled_from(sorted(d)).flatmap(
            lambda key: _junk_in(d[key]).map(lambda bad: {**d, key: bad}))),
    st.fixed_dictionaries({}, optional={**WELL_FORMED, **OPTIONAL}),
    JUNK,
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=GRAPH_DICTS)
def test_graph_json_is_a_graph_or_an_input_error(data, tmp_path, capsys):
    # any exception but a GraphError fails the property
    try:
        MixedGraph.from_dict(data)
        rejected = False
    except GraphError:
        rejected = True
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "districts", str(path))
    if rejected:
        assert (code, out) == (2, "") and err.startswith("error: ")
    else:
        assert code == 0 and "districts" in json.loads(out)


def test_fix_outputs_cadmg(capsys):
    code, out, err = run(capsys, "fix", fixture("fig1c"), "--sequence", "A1,W,A2")
    assert code == 0
    g = MixedGraph.from_json(out)
    assert g.random == ("Y",) and g.fixed == ("A1", "A2", "W")


def test_fix_invalid_step(capsys):
    code, out, err = run(capsys, "fix", fixture("fig1c"), "--sequence", "A2")
    assert code == 2
    assert "'A2' not fixable at step 1" in err


def test_closure(capsys):
    code, out, err = run(capsys, "closure", fixture("fig1c"), "--set", "W,Y")
    assert code == 0
    assert json.loads(out) == {"closure": ["A2", "W", "Y"]}


# --------------------------------------------------------------------- verify

def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", fixture("fig1b"),
                         "--treatment", "A1,A2", "--outcome", "Y",
                         "--trials", "5", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["trials"] == 5
    assert data["max_deviation"] < 1e-9


def test_verify_reports_the_worst_trial_and_point(capsys):
    code, out, err = run(capsys, "verify", fixture("fig1b"),
                         "--treatment", "A1,A2", "--outcome", "Y",
                         "--trials", "5", "--seed", "1")
    assert code == 0
    worst = json.loads(out)["worst_point"]
    assert sorted(worst) == ["assignment", "got", "seed", "want"]
    assert 1 <= worst["seed"] <= 5
    assert sorted(worst["assignment"]) == ["A1", "A2", "Y"]
    assert abs(worst["got"] - worst["want"]) == json.loads(out)["max_deviation"]


def test_verify_nan_deviation_fails_the_sweep(capsys, monkeypatch):
    # a NaN in any trial but the last must survive the maximum over trials
    import causalid.oracle

    verify = causalid.oracle.verify
    trials = []

    def nan_in_trial_two(*args, **kwargs):
        report = verify(*args, **kwargs)
        trials.append(report)
        if len(trials) != 2:
            return report
        return causalid.oracle.VerificationReport(
            max_deviation=float("nan"), tolerance=report.tolerance, points=report.points,
            worst=report.worst, got=report.got, want=report.want)

    monkeypatch.setattr(causalid.oracle, "verify", nan_in_trial_two)
    code, out, err = run(capsys, "verify", fixture("fig1b"),
                         "--treatment", "A1,A2", "--outcome", "Y",
                         "--trials", "3", "--seed", "1")
    assert code == 1
    data = json.loads(out)
    assert data["max_deviation"] != data["max_deviation"] and data["passed"] is False
    assert data["worst_point"]["seed"] == 2


def test_verify_zero_trials_is_trivially_green(capsys):
    code, out, err = run(capsys, "verify", fixture("fig1b"),
                         "--treatment", "A1,A2", "--outcome", "Y", "--trials", "0")
    assert code == 0
    assert json.loads(out)["max_deviation"] == 0.0


def test_verify_negative_trials_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", fixture("fig1b"),
                         "--treatment", "A1,A2", "--outcome", "Y", "--trials", "-3")
    assert code == 2
    assert out == ""
    assert "--trials: must be non-negative" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "-1", "argument --tol: must be non-negative, got -1.0"),
    ("--tol", "nan", "argument --tol: must be non-negative, got nan"),
    ("--trials", "x", "argument --trials: invalid int value: 'x'"),
    ("--tol", "inf", "argument --tol: must be finite, got inf"),
    ("--seed", "-1", "argument --seed: must be non-negative, got -1"),
    # an environment variable, not a flag: the default --seed is read from it
    ("IDENT_SEED", "abc", "argument --seed: invalid int value: 'abc'"),
    ("IDENT_SEED", "-2", "argument --seed: must be non-negative, got -2"),
])
def test_verify_bad_number_is_usage_error(capsys, monkeypatch, flag, value, message):
    argv = ["verify", fixture("fig1b"), "--treatment", "A1,A2", "--outcome", "Y", "--trials", "1"]
    if flag.startswith("--"):
        argv += [flag, value]
    else:
        monkeypatch.setenv(flag, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_oversized_joint_is_input_error(capsys):
    # 40**6 cells over fig1b's six vertices would take 30.5 GiB
    code, out, err = run(capsys, "verify", fixture("fig1b"), "--outcome", "Y",
                         "--treatment", "A1", "--trials", "1", "--cards", "40")
    assert code == 2 and out == ""
    assert err.startswith("error: the joint over all 6 vertices has 4096000000 cells")


def test_verify_treatment_named_like_a_vertex(capsys, tmp_path):
    # the treatment A's value must not be labelled a, the name of a vertex
    path = tmp_path / "case_pair.json"
    path.write_text(MixedGraph(
        random=["A", "H", "Y", "a"], hidden=["H"],
        directed=[("A", "a"), ("A", "Y"), ("H", "a"), ("H", "Y")],
    ).to_json())
    code, out, err = run(capsys, "verify", str(path),
                         "--treatment", "A", "--outcome", "Y", "--trials", "5")
    assert code == 0, out
    assert json.loads(out)["max_deviation"] < 1e-9


def test_verify_not_identified(capsys):
    code, out, err = run(capsys, "verify", fixture("fig1b"),
                         "--treatment", "A2", "--outcome", "Y", "--trials", "3")
    assert code == 1
    assert json.loads(out)["status"] == "not_identified"
    assert "nothing to verify" in err


def test_verify_rejects_admg_input(capsys):
    code, out, err = run(capsys, "verify", fixture("fig1c"),
                         "--treatment", "A1,A2", "--outcome", "Y")
    assert code == 2
    assert "hidden-variable" in err


def test_verify_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("IDENT_SEED", "7")
    code, out, err = run(capsys, "verify", fixture("fig1b"),
                         "--treatment", "A1,A2", "--outcome", "Y", "--trials", "1")
    assert code == 0


# ---------------------------------------------------------------------- usage

def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag(capsys):
    assert main(["identify", fixture("fig1d")]) == 2


# ---------------------------------------------------------------- entry point

ROOT = FIXTURES.parent


def src_env():
    """The environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def declared_script():
    """The target of the `causalid` console script declared in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "causalid" in scripts
    return scripts["causalid"]


def is_installed():
    try:
        importlib.metadata.distribution("causalid")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_entry_point_installed():
    # the declared script loads to cli.main and, run the way the generated
    # console script runs it, returns the CLI's exit codes; this needs no install
    ep = importlib.metadata.EntryPoint(
        name="causalid", value=declared_script(), group="console_scripts")
    assert ep.load() is main
    script = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"

    def console(*argv):
        return subprocess.run([sys.executable, "-c", script, *argv],
                              env=src_env(), capture_output=True, text=True, timeout=60)

    proc = console("districts", fixture("fig1c"))
    assert proc.returncode == 0 and proc.stdout
    proc = console("identify", fixture("fig1c"), "--treatment", "A2", "--outcome", "Y")
    assert proc.returncode == 1


@pytest.mark.skipif(not is_installed(), reason="the causalid distribution is not installed")
def test_entry_point_on_path_when_installed():
    installed = importlib.metadata.distribution("causalid").entry_points.select(
        group="console_scripts", name="causalid")
    assert [ep.value for ep in installed] == [declared_script()]
    assert shutil.which("causalid") is not None


# ----------------------------------------------------------- lazy imports

def run_python(code):
    """Run ``code`` in a fresh interpreter that loads the checkout's causalid."""
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# modules a bare interpreter has not loaded, printed after ``statement``
NEW_MODULES = (
    "import sys\nbare = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - bare))\n"
)


def modules_loaded_by(statement):
    return set(run_python(NEW_MODULES.format(statement=statement)).split())


def modules_loaded_by_main(*argv):
    """``cli.main(argv)``'s exit code, and the modules that importing
    ``causalid.cli`` and running it loaded into a fresh interpreter."""
    out = run_python(NEW_MODULES.format(statement=(
        "import contextlib, io\n"
        "from causalid.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "print(code)"
    )))
    code, loaded = out.split("\n", 1)
    return int(code), set(loaded.split())


IMPORTS = ["import causalid", "import causalid.cli"]
GRAPH_COMMANDS = [
    *[("identify", "fig1d", "--treatment", "A", "--outcome", "Y", "--format", fmt)
      for fmt in ("text", "latex", "json", "dot")],
    ("districts", "fig1c"),
    ("fix", "fig1c", "--sequence", "A1,W,A2"),
    ("closure", "fig1c", "--set", "W,Y"),
    ("project", "fig1b"),
]
# each costs milliseconds of start-up: ``dataclasses`` loads ``inspect``, and
# ``inspect`` loads ``ast``, ``dis`` and ``tokenize``
SLOW_TO_IMPORT = {"dataclasses", "inspect"}


@pytest.mark.parametrize("statement", IMPORTS)
def test_import_does_not_load_numpy(statement):
    assert "numpy" not in modules_loaded_by(statement)


@pytest.mark.parametrize("statement", IMPORTS)
def test_import_loads_neither_dataclasses_nor_inspect(statement):
    loaded = modules_loaded_by(statement)
    assert "causalid" in loaded and loaded & SLOW_TO_IMPORT == set()


@pytest.mark.parametrize("argv", GRAPH_COMMANDS, ids=lambda argv: " ".join(argv))
def test_graph_commands_do_not_load_numpy(argv):
    command, name, *rest = argv
    code, loaded = modules_loaded_by_main(command, fixture(name), *rest)
    assert (code, "numpy" in loaded) == (0, False)


@pytest.mark.parametrize("argv", GRAPH_COMMANDS, ids=lambda argv: " ".join(argv))
def test_graph_commands_load_neither_dataclasses_nor_inspect(argv):
    command, name, *rest = argv
    code, loaded = modules_loaded_by_main(command, fixture(name), *rest)
    assert (code, loaded & SLOW_TO_IMPORT) == (0, set())


def test_verify_loads_numpy():
    code, loaded = modules_loaded_by_main(
        "verify", fixture("fig1b"), "--treatment", "A1,A2", "--outcome", "Y", "--trials", "1")
    assert (code, "numpy" in loaded) == (0, True)


def test_star_import_binds_all_names():
    out = run_python(
        "import causalid\n"
        "ns = {}\n"
        "exec('from causalid import *', ns)\n"
        "print(sorted(set(causalid.__all__) - set(ns)))"
    )
    assert out.strip() == "[]"


def test_lazy_names_resolve_like_eager_ones():
    out = run_python(
        "import inspect, causalid, causalid.cli\n"
        "print('random_scm' in dir(causalid))\n"
        "print(causalid.ProbTable is causalid.tables.ProbTable)\n"
        "print(inspect.isfunction(causalid.identify))\n"
        "try:\n"
        "    causalid.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == [
        "True", "True", "True", "module 'causalid' has no attribute 'no_such_name'"]
