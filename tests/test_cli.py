"""Command-line interface: exit codes and JSON report shapes."""
import json
import os
import pathlib

import pytest

from strandkit.cli import main
from strandkit.dsl import parse_document

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"
SCHEMAS = pathlib.Path(__file__).resolve().parents[1] / "src" / "strandkit" / "schemas"

TINY = """
protocol Tiny {
  sorts Name ;
  subsort Name < Msg ;
  op a : -> Name ;
  op s : -> Msg ;
  vars A : Name ;
  strand int.name {
    +(A) ;
  }
}
attack leak {
  knows a ;
}
attack stuck {
  knows s ;
}
"""


# --------------------------------------------------------------- helpers

def schema_check(instance, schema, path="$"):
    """Small JSON Schema checker for the subset the shipped schemas use."""
    errs = []
    t = schema.get("type")
    if t:
        ok = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "string": lambda v: isinstance(v, str),
            "boolean": lambda v: isinstance(v, bool),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "number": lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool),
        }[t](instance)
        if not ok:
            errs.append(f"{path}: expected {t}, got {type(instance).__name__}")
            return errs
    if "enum" in schema and instance not in schema["enum"]:
        errs.append(f"{path}: {instance!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and instance < schema["minimum"]:
        errs.append(f"{path}: {instance} below minimum {schema['minimum']}")
    if isinstance(instance, dict):
        for req in schema.get("required", ()):
            if req not in instance:
                errs.append(f"{path}: missing required key {req}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                errs.extend(schema_check(instance[key], sub, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errs.extend(schema_check(item, schema["items"], f"{path}[{i}]"))
    return errs


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


@pytest.fixture
def tiny(tmp_path):
    p = tmp_path / "tiny.strand"
    p.write_text(TINY)
    return str(p)


# -------------------------------------------------------------- validate

def test_validate_ok_files(capsys):
    rc = main(["validate", str(SPECS / "nsl.strand"), str(SPECS / "nsl_db.strand")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count(": ok") == 2


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.strand"
    bad.write_text("protocol Broken {")
    rc = main(["validate", str(bad)])
    assert rc == 1
    assert "error" in capsys.readouterr().out


def test_validate_missing_file():
    rc = main(["validate", "/nonexistent/nowhere.strand"])
    assert rc == 1


# --------------------------------------------------------------- analyze

def test_analyze_attack_found_exit_and_json(tiny, tmp_path, capsys):
    out = tmp_path / "rep"
    rc = main(["analyze", tiny, "--attack", "leak", "--mode", "basic",
               "--json", "--dot", "--out", str(out)])
    assert rc == 10
    report = json.loads((out / "verdict.json").read_text())
    assert report["verdict"] == "AttackFound"
    assert report["trace_replay"] is True
    schema = load_schema("verdict.schema.json")
    assert schema_check(report, schema) == []
    # every statistic the search reports is one the schema lists
    stats = schema["properties"]["stats"]["properties"]
    assert set(report["stats"]) - set(stats) == set()
    # every memo the search reports is one the schema lists
    memos = schema["properties"]["stats"]["properties"]["memo_entries"]
    assert set(report["stats"]["memo_entries"]) == set(memos["properties"])
    # the grammar's construction is reported field by field
    grammar = schema["properties"]["stats"]["properties"]["grammar"]
    assert set(report["stats"]["grammar"]) == set(grammar["properties"])
    assert report["stats"]["grammar"]["tasks_run"] > 0
    assert (out / "trace.dot").read_text().startswith("digraph")


def test_analyze_secure_finite_exit_zero(tiny, capsys):
    rc = main(["analyze", tiny, "--attack", "stuck", "--mode", "basic"])
    assert rc == 0
    assert "SecureFinite" in capsys.readouterr().out


def test_analyze_inconclusive_exit(tiny, capsys):
    rc = main(["analyze", tiny, "--attack", "leak", "--mode", "basic",
               "--max-depth", "0"])
    assert rc == 20


def test_analyze_abstract_mode_searches_like_sync(tmp_path, capsys):
    """Attack patterns are written with synchronization points; the
    abstract search starts from their abstract view and takes the same
    steps as the sync search."""
    counts = {}
    for mode in ("abstract", "sync"):
        out = tmp_path / mode
        rc = main(["analyze", str(SPECS / "nsl_db.strand"), "--attack", "a1",
                   "--mode", mode, "--max-depth", "6", "--json",
                   "--out", str(out)])
        assert rc == 20
        stats = json.loads((out / "verdict.json").read_text())["stats"]
        counts[mode] = [stats[k] for k in ("states_explored",
                                           "states_enqueued", "subsumed",
                                           "deduped")]
    assert counts["abstract"] == counts["sync"]


def test_analyze_abstract_mode_finds_the_hijack(tmp_path):
    """The abstract search starts from the attack pattern built with
    parameter lists and finds distance hijacking at criterion 03's depth."""
    out = tmp_path / "rep"
    rc = main(["analyze", str(SPECS / "nsl_db.strand"), "--attack", "a1",
               "--mode", "abstract", "--max-depth", "17",
               "--max-states", "100000", "--wall-seconds", "1800",
               "--max-rss-mb", "2048", "--json", "--out", str(out)])
    assert rc == 10
    report = json.loads((out / "verdict.json").read_text())
    assert report["verdict"] == "AttackFound"
    assert report["stats"]["depth"] == 17
    assert report["trace_replay"] is True


def test_analyze_step_budget_is_an_error(tmp_path, capsys):
    # f(X) -> f(X) never reaches a normal form
    loop = tmp_path / "loop.strand"
    loop.write_text("""
protocol Loop {
  op f : Msg -> Msg ;
  op a : -> Msg ;
  vars X : Msg ;
  eq f(X) = f(X) ;
  strand int.f {
    -(X) ; +(f(X)) ;
  }
}
attack leak {
  knows f(a) ;
}
""")
    rc = main(["analyze", str(loop), "--attack", "leak", "--mode", "basic"])
    assert rc == 1
    assert "error: rewrite step budget exhausted" in capsys.readouterr().err


def test_analyze_nesting_rule_is_a_step_budget_error(tmp_path, capsys):
    # f(X) -> f(f(X)) nests deeper at every step: the stack would run out
    # long before the step budget
    loop = tmp_path / "nest.strand"
    loop.write_text("""
protocol Nest {
  op f : Msg -> Msg ;
  op a : -> Msg ;
  vars X : Msg ;
  eq f(X) = f(f(X)) ;
  strand int.f {
    -(X) ; +(f(X)) ;
  }
}
attack leak {
  knows f(a) ;
}
""")
    rc = main(["analyze", str(loop), "--attack", "leak", "--mode", "basic"])
    assert rc == 1
    assert "error: rewrite step budget exhausted" in capsys.readouterr().err


def test_analyze_branch_budget_is_an_error(tmp_path, capsys):
    # four f-atoms against four: the pairing of alien atoms runs past the
    # unifier's branch budget, which is an error, not a step set cut short
    four = tmp_path / "four.strand"
    four.write_text("""
protocol Sum {
  op zero : -> Msg ;
  op * : Msg Msg -> Msg ;
  axiom * assoc comm unit(zero) nilpotent ;
  op f : Msg -> Msg ;
  op a0 : -> Msg ;
  op a1 : -> Msg ;
  op a2 : -> Msg ;
  op a3 : -> Msg ;
  vars X0 X1 X2 X3 : Msg ;
  strand sum {
    -(X0) ; -(X1) ; -(X2) ; -(X3) ; +(f(X0) * f(X1) * f(X2) * f(X3)) ;
  }
}
attack four {
  knows f(a0) * f(a1) * f(a2) * f(a3) ;
}
""")
    rc = main(["analyze", str(four), "--attack", "four", "--mode", "basic"])
    assert rc == 1
    assert "error: unification branch budget exhausted" in \
        capsys.readouterr().err


def test_analyze_unknown_attack_is_usage_error(tiny, capsys):
    rc = main(["analyze", tiny, "--attack", "nope", "--mode", "basic"])
    assert rc == 1


def test_analyze_rejects_mode_mixing_in_sync(tmp_path, capsys):
    # NSL.init hands over one-to-one to DB.resp and one-to-many to DB.init
    src = (SPECS / "nsl_db.strand").read_text().replace(
        "(NSL.resp, DB.init, 1-1)", "(NSL.init, DB.init, 1-*)")
    mixed = tmp_path / "mixed.strand"
    mixed.write_text(src)
    rc = main(["analyze", str(mixed), "--attack", "a1", "--mode", "sync",
               "--max-depth", "1"])
    assert rc == 1
    assert "NSL.init has no single composition mode" in capsys.readouterr().err


# ------------------------------------------------------------- transform

@pytest.mark.parametrize("which", ["synch", "phi"])
def test_transform_round_trips_through_parser(which, tmp_path, capsys):
    out = tmp_path / "t"
    rc = main(["transform", str(SPECS / "nsl_db.strand"), "--which", which,
               "--out", str(out)])
    assert rc == 0
    text = (out / f"{which}.strand").read_text()
    doc = parse_document(text)
    assert doc.protocols and doc.protocols[0].schemas


# --------------------------------------------------------------- compare

def test_compare_equivalent_exit_and_json(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["compare", str(SPECS / "nsl_db.strand"), "--attack", "a1",
               "--depth", "2", "--json", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["equivalent"] is True
    assert len(report["levels"]) == 3
    # each side's wall time, taken in the process that ran it
    assert report["abstract_ms"] > 0 and report["sync_ms"] > 0
    assert schema_check(report, load_schema("compare.schema.json")) == []
    with pytest.raises(ChildProcessError):  # the sync side's child is reaped
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------- oracle

def test_oracle_valid_scenario_hits_attack(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["oracle", str(SPECS / "nsl_db.strand"),
               "--scenario", str(SPECS / "scenarios" / "distance_hijacking.json"),
               "--json", "--out", str(out)])
    assert rc == 10
    report = json.loads((out / "replay.json").read_text())
    assert report["valid"] is True
    assert report["instantiates"] is True
    assert schema_check(report, load_schema("replay.schema.json")) == []


def test_oracle_scenario_fails_on_patched_protocol(capsys):
    rc = main(["oracle", str(SPECS / "nsl_db_fix.strand"),
               "--scenario", str(SPECS / "scenarios" / "distance_hijacking.json")])
    assert rc == 1
    assert "invalid at" in capsys.readouterr().out


@pytest.mark.parametrize("child", [[99], []])
def test_oracle_composition_without_child_is_an_error(child, tmp_path, capsys):
    scenario = json.loads(
        (SPECS / "scenarios" / "distance_hijacking.json").read_text())
    for step in scenario["steps"]:
        step["fire"] = [f[:2] + child if f[0] == "sync_compose" else f
                        for f in step["fire"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    rc = main(["oracle", str(SPECS / "nsl_db.strand"), "--scenario", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "child strand" in err
    assert "Traceback" not in err
