"""End-to-end acceptance checks, one test (one pass/fail line) each.

Budgets are pinned in the constants below; every check is self-contained
and runs against the shipped protocol files and scenario corpus.
"""
import itertools
import json
import pathlib
import random
import time

import pytest

from strandkit.dsl import (
    attack_state,
    parse_document,
    phi_transform,
    print_protocol,
)
from strandkit.model import MODE_ONE_MANY, Minter, item_terms, state_key
from strandkit.oracle import instantiates_pattern, load_scenario, replay_scenario
from strandkit.search import (
    ATTACK_FOUND,
    SECURE_FINITE,
    SearchBudget,
    bisimulation_report,
    level_states,
    reachability_search,
    trace_replay,
)
from strandkit.semantics import (
    ABSTRACT,
    BASIC,
    SYNC,
    backward_successors,
    forward_step,
    runtime_spec,
    trans,
    trans_inv,
)
from strandkit.terms import App, Subst, Var, const, term_key, variables
from strandkit.theory import AxiomDecl, EquationalTheory, eq_modulo, normalize
from strandkit.unify import match_modulo, unify_modulo

from test_properties import (
    ED_TH,
    PROBLEMS,
    XOR_TH,
    ZERO,
    _covered,
    _ground_universe,
    xor,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# pinned wall budgets (seconds)
T_UNIFY = 1.0
T_ORACLE = 5.0
T_HIJACK_SEARCH = 1800.0
T_SECRECY_SEARCH = 600.0
T_COMPARE = 600.0
T_PROPERTIES = 300.0
T_TRANSFORM = 1.0
T_ROUNDTRIP = 900.0


def load(name):
    return parse_document((SPECS / name).read_text())


@pytest.fixture(scope="module")
def nsl_db():
    return load("nsl_db.strand")


@pytest.fixture(scope="module")
def nsl_kd():
    return load("nsl_kd.strand")


@pytest.fixture(scope="module")
def compare_states(nsl_db, nsl_kd):
    """Depth-3 layers of both rule sets for the two composed protocols."""
    out = {}
    for key, doc, attack in (("db", nsl_db, "a1"), ("kd", nsl_kd, "keyleak")):
        sync_spec = runtime_spec(doc, SYNC)
        abs_spec = runtime_spec(doc, ABSTRACT)
        sync_start = attack_state(doc, attack, sync_spec, Minter())
        abs_start = trans_inv(sync_start, sync_spec)
        out[key] = {
            "sync_spec": sync_spec,
            "abs_spec": abs_spec,
            "sync_start": sync_start,
            "abs_start": abs_start,
            "report": bisimulation_report(abs_start, abs_spec,
                                          sync_start, sync_spec, depth=3),
        }
    return out


def test_criterion_01_decryption_unifier_set():
    K, X, Y = Var("K"), Var("X"), Var("Y")
    dK = App("d", (K, X), "Msg")
    t0 = time.monotonic()
    res = unify_modulo(dK, Y, ED_TH)
    elapsed = time.monotonic() - t0
    assert elapsed < T_UNIFY
    unifiers = list(res)
    assert len(unifiers) == 2
    shapes = set()
    for s in unifiers:
        if term_key(s(Y)) == term_key(s(dK)) and \
                isinstance(s(Y), App) and s(Y).op == "d":
            shapes.add("y_to_d")
        img = s(X)
        if isinstance(img, App) and img.op == "e":
            shapes.add("x_to_e")
    assert shapes == {"y_to_d", "x_to_e"}, unifiers


def test_criterion_02_hijack_scenario_oracle(nsl_db):
    scenario = load_scenario(
        (SPECS / "scenarios" / "distance_hijacking.json").read_text())
    t0 = time.monotonic()
    spec = runtime_spec(nsl_db, SYNC)
    res = replay_scenario(scenario, spec, SYNC)
    assert res.valid, res.reason
    pattern = attack_state(nsl_db, "a0", spec, Minter())
    assert instantiates_pattern(res.state, pattern, spec)

    fixed = load("nsl_db_fix.strand")
    fixed_spec = runtime_spec(fixed, SYNC)
    res_fix = replay_scenario(scenario, fixed_spec, SYNC)
    assert not res_fix.valid
    assert time.monotonic() - t0 < T_ORACLE


def test_criterion_03_hijack_backward_search(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    start = attack_state(nsl_db, "a1", spec, Minter())
    # The shortest backward derivation takes 17 steps: 7 strand steps
    # (NSL.init 1; DB.init 3: recv, send_learn, sync_new_parent; NSL.resp 3)
    # and 10 intruder-strand introductions (int.xor 1; n(a, r) out of
    # NSL.init's first message 2; pk(b, n(b, r')) 4; pk(b, n(a, r) ; i) 3).
    # The constraints a != D and C != b forbid the merges that would share
    # any of them, and a demand for the public name i costs a step too.
    budget = SearchBudget(max_depth=17, max_states=100_000,
                          wall_seconds=T_HIJACK_SEARCH, max_rss_mb=2048)
    result = reachability_search(start, spec, SYNC, budget)
    assert result.verdict == ATTACK_FOUND, result.stats
    assert result.stats["depth"] <= 17
    assert result.stats["states_enqueued"] <= 100_000
    assert trace_replay(result, spec, SYNC)


def test_criterion_04_plain_nsl_secrecy_bounded():
    doc = load("nsl.strand")
    spec = runtime_spec(doc, BASIC)
    start = attack_state(doc, "secrecy", spec, Minter())
    budget = SearchBudget(max_depth=10, max_states=100_000,
                          wall_seconds=T_SECRECY_SEARCH * 0.9,
                          max_rss_mb=2048)
    result = reachability_search(start, spec, BASIC, budget)
    assert result.verdict != ATTACK_FOUND, result.stats
    if result.verdict == SECURE_FINITE:
        # the strong verdict is only legitimate on a fully explored frontier
        assert result.stats["complete"]


def test_criterion_05_rule_set_comparison(compare_states, nsl_db):
    for key in ("db", "kd"):
        report = compare_states[key]["report"]
        assert report["equivalent"], (key, report)
        assert all(lv["matched"] for lv in report["levels"])

    # corrupting every 1-1 synchronization to 1-* on the explicit side
    # makes the two rule sets disagree from the first layer where a
    # shared parent becomes possible
    from test_search import corrupt_modes, no_child_left, shared_parent_start
    sync_spec = compare_states["db"]["sync_spec"]
    abs_spec = compare_states["db"]["abs_spec"]
    good_start = shared_parent_start(sync_spec)
    good_report = bisimulation_report(trans_inv(good_start, sync_spec),
                                      abs_spec, good_start, sync_spec,
                                      depth=2)
    bad_sync = corrupt_modes(sync_spec)
    bad_start = shared_parent_start(bad_sync)
    bad_report = bisimulation_report(trans_inv(bad_start, bad_sync),
                                     abs_spec, bad_start, bad_sync, depth=2)
    assert good_report["equivalent"]
    assert not bad_report["equivalent"], bad_report
    first_bad = next(lv for lv in bad_report["levels"] if not lv["matched"])
    assert first_bad["sync_states"] > first_bad["common"]
    no_child_left()


def test_criterion_06_view_translation_bijection(compare_states):
    for key in ("db", "kd"):
        entry = compare_states[key]
        sync_spec = entry["sync_spec"]
        layers = level_states(entry["sync_start"], sync_spec, SYNC, depth=3)
        seen = 0
        for layer in layers:
            for st in layer:
                a = trans_inv(st, sync_spec)
                back = trans(a, sync_spec)
                assert state_key(back) == state_key(st)
                assert state_key(trans_inv(back, sync_spec)) == state_key(a)
                seen += 1
        assert seen > 1


def test_criterion_07_unifier_soundness_and_completeness():
    t0 = time.monotonic()
    for th, t1, t2 in PROBLEMS:
        csu = list(unify_modulo(t1, t2, th))
        for s in csu:
            assert eq_modulo(s(t1), s(t2), th), (s, t1, t2)
        vars_ = sorted(variables(t1) | variables(t2), key=term_key)
        universe = _ground_universe(th)
        if len(universe) ** len(vars_) > 60_000:
            universe = _ground_universe(th, max_depth=2)
        for combo in itertools.product(universe, repeat=len(vars_)):
            sigma = Subst(dict(zip(vars_, combo)), _trusted=True)
            if not eq_modulo(sigma(t1), sigma(t2), th):
                continue
            assert _covered(dict(zip(vars_, combo)), vars_, csu, th), \
                (t1, t2, dict(zip(vars_, combo)))
    assert time.monotonic() - t0 < T_PROPERTIES


def test_criterion_08_xor_normalization_laws():
    rng = random.Random(20240811)
    A_, B_, C_ = const("a", "Msg"), const("b", "Msg"), const("c", "Msg")
    pool = [A_, B_, C_, ZERO, Var("X"), Var("Y"), Var("Z")]

    def rand_term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(pool)
        return xor(rand_term(depth - 1), rand_term(depth - 1))

    for _ in range(1000):
        t = rand_term(4)
        n = normalize(t, XOR_TH)
        assert term_key(normalize(n, XOR_TH)) == term_key(n)
        assert term_key(normalize(xor(t, t), XOR_TH)) == term_key(ZERO)
        assert term_key(normalize(xor(t, ZERO), XOR_TH)) == term_key(n)
        assert term_key(normalize(xor(A_, t), XOR_TH)) == \
            term_key(normalize(xor(t, A_), XOR_TH))


def test_criterion_09_message_compilation_golden(nsl_db, nsl_kd):
    t0 = time.monotonic()
    got_db = print_protocol(phi_transform(nsl_db))
    got_kd = print_protocol(phi_transform(nsl_kd))
    assert got_db == (GOLDEN / "phi_nsl_db.txt").read_text()
    assert got_kd == (GOLDEN / "phi_nsl_kd.txt").read_text()
    assert time.monotonic() - t0 < T_TRANSFORM


def test_criterion_10_backward_steps_forward_ground(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    th, leq = spec.theory, spec.signature.leq
    minter = Minter()
    start = attack_state(nsl_db, "a1", spec, minter)

    def tup(state):
        return App("%tup", tuple(t for s in state.strands
                                 for it in s.items for t in item_terms(it)),
                   "Msg")

    def covers(succ, src):
        # the forward successor must contain an instance of the source:
        # same strand skeleton, and every source fact present (leftover
        # demand facts from strand introduction may remain)
        if [(x.role, x.bar) for x in succ.strands] != \
                [(x.role, x.bar) for x in src.strands]:
            return False
        have = {(f.kind, term_key(normalize(f.payload, th)))
                for f in succ.facts}
        for m in match_modulo(tup(src), tup(succ), th, leq=leq):
            if all((f.kind, term_key(normalize(m(f.payload), th))) in have
                   for f in src.facts):
                return True
        return False

    t0 = time.monotonic()
    frontier = [start]
    checked = 0
    for _ in range(2):
        nxt = []
        for st in frontier:
            for step in backward_successors(st, spec, SYNC, minter):
                assert any(covers(r.successor, st)
                           for r in forward_step(step.predecessor, spec, SYNC)), \
                    step.rule
                checked += 1
                nxt.append(step.predecessor)
        frontier = nxt
    assert checked > 2
    assert time.monotonic() - t0 < T_ROUNDTRIP
