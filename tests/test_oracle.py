"""Concrete forward scenario replay and attack-pattern instantiation."""
import json
import pathlib

import pytest

from strandkit.dsl import attack_state, parse_document
from strandkit.model import KNOWN, Minter
from strandkit.oracle import (
    ScenarioError,
    build_start_state,
    instantiates_pattern,
    load_scenario,
    replay_scenario,
)
from strandkit.semantics import ABSTRACT, SYNC, runtime_spec

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"
SCENARIO = SPECS / "scenarios" / "distance_hijacking.json"


def load(name):
    return parse_document((SPECS / name).read_text())


@pytest.fixture(scope="module")
def nsl_db():
    return load("nsl_db.strand")


@pytest.fixture(scope="module")
def nsl_db_fix():
    return load("nsl_db_fix.strand")


@pytest.fixture(scope="module")
def hijack():
    return load_scenario(SCENARIO.read_text())


def test_scenario_loads(hijack):
    assert hijack.attack == "a0"
    assert [s.label for s in hijack.steps] == ["a", "b", "c", "d"]
    assert len(hijack.strands) == 17


def test_start_state_is_ground_and_seeded(nsl_db, hijack):
    spec = runtime_spec(nsl_db, SYNC)
    st = build_start_state(hijack, spec, Minter())
    assert all(s.bar == 0 for s in st.strands)
    assert st.facts and all(f.kind != KNOWN for f in st.facts)


# the abstract rules that take the place of the sync ones
ABSTRACT_RULES = {"sync_compose": "compose_11", "sync_1many": "compose_1many"}


@pytest.mark.parametrize("mode", [SYNC, ABSTRACT])
def test_hijack_replays_and_instantiates(nsl_db, mode):
    scenario = json.loads(SCENARIO.read_text())
    if mode == ABSTRACT:
        for step in scenario["steps"]:
            step["fire"] = [[ABSTRACT_RULES.get(f[0], f[0]), *f[1:]]
                            for f in step["fire"]]
    spec = runtime_spec(nsl_db, mode)
    res = replay_scenario(load_scenario(json.dumps(scenario)), spec, mode)
    assert res.valid, (res.failed_at, res.reason)
    pattern = attack_state(nsl_db, "a0", spec, Minter())
    assert instantiates_pattern(res.state, pattern, spec)


def test_hijack_fails_on_repaired_protocol(nsl_db_fix, hijack):
    spec = runtime_spec(nsl_db_fix, SYNC)
    res = replay_scenario(hijack, spec, SYNC)
    assert not res.valid
    # the verifier's rapid-exchange check no longer accepts the relayed
    # response: it wants the hash bound to the claimed peer
    assert res.failed_at.startswith("d/")
    assert "h(" in res.reason


def test_empty_scenario_is_valid(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    scen = load_scenario(json.dumps({"name": "empty"}))
    res = replay_scenario(scen, spec, SYNC)
    assert res.valid and res.fired == 0
    assert res.state.strands == () and res.state.facts == ()
    pattern = attack_state(nsl_db, "a0", spec, Minter())
    assert not instantiates_pattern(res.state, pattern, spec)


def test_unbound_variable_rejected(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    scen = load_scenario(json.dumps(
        {"strands": [{"role": "int.enc", "bind": {"A": "a"}}]}))
    with pytest.raises(ScenarioError, match="M"):
        build_start_state(scen, spec, Minter())


def test_out_of_order_firing_reported(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    scen = load_scenario(json.dumps({
        "strands": [{"role": "int.name", "bind": {"A": "a"}},
                    {"role": "int.enc", "bind": {"A": "a", "M": "b"}}],
        "steps": [{"label": "x", "fire": [["recv", 1]]}],
    }))
    res = replay_scenario(scen, spec, SYNC)
    assert not res.valid and "nothing known" in res.reason


def test_misdeclared_send_rule_reported(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    scen = load_scenario(json.dumps({
        "strands": [{"role": "int.name", "bind": {"A": "a"}}],
        "steps": [{"label": "x", "fire": [["recv", 0]]}],
    }))
    res = replay_scenario(scen, spec, SYNC)
    assert not res.valid


@pytest.mark.parametrize("firing", [["sync_compose", 1, 99],
                                    ["sync_compose", 1],
                                    ["sync_1many", 1, -1],
                                    ["recv", 0, 1]])
def test_composition_child_checked(nsl_db, firing):
    spec = runtime_spec(nsl_db, SYNC)
    scen = load_scenario(json.dumps({
        "strands": [{"role": "int.name", "bind": {"A": "a"}},
                    {"role": "int.name", "bind": {"A": "b"}}],
        "steps": [{"label": "x", "fire": [firing]}],
    }))
    with pytest.raises(ScenarioError, match="child strand"):
        build_start_state(scen, spec, Minter())


def test_composition_rule_of_another_mode_refused(nsl_db):
    # compose_11 is the abstract rules' handover; the sync rules have none
    # by that name, so the forward rules refuse the firing
    scenario = json.loads(SCENARIO.read_text())
    for step in scenario["steps"]:
        step["fire"] = [["compose_11", *f[1:]] if f[0] == "sync_compose"
                        else f for f in step["fire"]]
    spec = runtime_spec(nsl_db, SYNC)
    res = replay_scenario(load_scenario(json.dumps(scenario)), spec, SYNC)
    assert not res.valid
    assert res.failed_at == "b/compose_11(1,2)"
    assert "not derivable" in res.reason


def test_pattern_diseqs_block_instantiation(nsl_db, hijack):
    from dataclasses import replace

    from strandkit.terms import Var

    spec = runtime_spec(nsl_db, SYNC)
    res = replay_scenario(hijack, spec, SYNC)
    pattern = attack_state(nsl_db, "a0", spec, Minter())
    # the match binds the initiator's peer C to the intruder; an added
    # disequality C != i must therefore kill the instantiation
    i = spec.signature.make("i")
    blocked = replace(pattern,
                      diseqs=pattern.diseqs + ((Var("C", "Name"), i),))
    assert instantiates_pattern(res.state, pattern, spec)
    assert not instantiates_pattern(res.state, blocked, spec)
