"""Breadth-first backward reachability, tracing and comparison reports."""
import gc
import os
import pathlib
import time

import pytest

from strandkit.dsl import attack_state, parse_document
from strandkit.model import (
    KNOWN,
    IntruderFact,
    Minter,
    SignedMessage,
    StrandInstance,
    SymbolicState,
    instantiate,
    is_initial,
)
from strandkit import search, terms
from strandkit.search import (
    ATTACK_FOUND,
    INCONCLUSIVE,
    SECURE_FINITE,
    SearchBudget,
    _side_by_side,
    _state_instance_of,
    bisimulation_report,
    level_keys,
    level_states,
    reachability_search,
    trace_replay,
    trace_to_dot,
)
from strandkit.semantics import ABSTRACT, BASIC, SYNC, runtime_spec, trans_inv
from strandkit.terms import App, FreshConst, Var
from strandkit.theory import StepBudgetExceeded
from strandkit.unify import Memo

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


def load(name):
    return parse_document((SPECS / name).read_text())


@pytest.fixture(scope="module")
def nsl():
    return load("nsl.strand")


@pytest.fixture(scope="module")
def nsl_db():
    return load("nsl_db.strand")


def test_goal_state_is_attack(nsl):
    spec = runtime_spec(nsl, BASIC)
    start = SymbolicState()  # already initial
    res = reachability_search(start, spec, BASIC, SearchBudget(max_depth=1))
    assert res.verdict == ATTACK_FOUND
    assert res.trace is not None and len(res.trace) == 1


def test_trivial_send_found_and_replayed(nsl):
    spec = runtime_spec(nsl, BASIC)
    sig = spec.signature
    m = sig.make("pk", sig.make("a"), sig.make("b"))
    start = SymbolicState((StrandInstance("x", (SignedMessage("+", m),), 1),))
    res = reachability_search(start, spec, BASIC, SearchBudget(max_depth=2))
    assert res.found
    assert [ts.rule for ts in res.trace][1:] == ["send_silent"]
    assert trace_replay(res, spec, BASIC)


def test_clashing_sends_mint_nothing_and_the_trace_replays(nsl,
                                                           monkeypatch):
    # strand introduction instantiates only the sends that `apart` cannot
    # tell from the fact, so the minter numbers fewer instances; an attack
    # found under those numbers still replays
    from strandkit import semantics
    from strandkit.theory import apart

    spec = runtime_spec(nsl, BASIC)
    sig, th = spec.signature, spec.theory
    m = sig.make("pk", sig.make("a"), sig.make("b"))
    start = SymbolicState(facts=(IntruderFact(KNOWN, m),))
    made = []

    def recorded(schema, minter, bar=0):
        made.append(schema.items[bar].payload)
        return instantiate(schema, minter, bar)

    monkeypatch.setattr(semantics, "instantiate", recorded)
    semantics.backward_successors(start, spec, BASIC, Minter())
    sends = []
    for _, schema in sorted(spec.schemas.items()):
        for it in schema.items:
            if not isinstance(it, SignedMessage):
                break
            if it.polarity == "+":
                sends.append(it.payload)
    assert made == [p for p in sends if not apart(p, m, th)]
    assert 0 < len(made) < len(sends)
    res = reachability_search(start, spec, BASIC, SearchBudget(max_depth=3))
    assert res.found
    assert any(ts.rule.startswith("intro_strand") for ts in res.trace)
    assert trace_replay(res, spec, BASIC)


def test_unsatisfiable_demand_is_secure_finite(nsl):
    # nothing in the initial knowledge and no rule produces a bare fresh
    # nonce of an honest principal faster than the depth bound
    spec = runtime_spec(nsl, BASIC)
    sig = spec.signature
    minter = Minter()
    secret = sig.make("n", sig.make("a"), minter.fresh("r"))
    start = SymbolicState((), (IntruderFact(KNOWN, secret),))
    res = reachability_search(start, spec, BASIC,
                              SearchBudget(max_depth=3, max_states=5000))
    assert not res.found


def test_search_mints_no_value_its_start_holds(nsl):
    """The start's fresh value r!1 comes from a minter of its own, which
    counts from 1 as a search's would.  A strand the search introduces
    must not take r!1 for its own nonce: no NSL.init strand of a's can
    have sent n(a, r!1) to b in one step, nor is any state one step
    back initial."""
    spec = runtime_spec(nsl, BASIC)
    op = spec.signature.make
    nonce = op("n", op("a"), Minter().fresh("r"))
    start = SymbolicState((), (IntruderFact(
        KNOWN, op("pk", op("b"), op(";", nonce, op("a")))),))
    res = reachability_search(start, spec, BASIC, SearchBudget(max_depth=2))
    assert res.verdict == INCONCLUSIVE
    _, first = level_states(start, spec, BASIC, 1)
    assert len(first) == 7 and not any(map(is_initial, first))


def test_depth_budget_gives_inconclusive(nsl):
    doc = nsl
    spec = runtime_spec(doc, BASIC)
    start = attack_state(doc, "secrecy", spec, Minter())
    res = reachability_search(start, spec, BASIC, SearchBudget(max_depth=1))
    assert res.verdict == INCONCLUSIVE
    assert not res.found


def test_lazy_variable_demand_counts_as_satisfied(nsl):
    spec = runtime_spec(nsl, BASIC)
    start = SymbolicState((), (IntruderFact(KNOWN, Var("X", "Msg")),))
    res = reachability_search(start, spec, BASIC, SearchBudget(max_depth=1))
    assert res.found


def test_search_is_deterministic(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    runs = []
    for _ in range(2):
        start = attack_state(nsl_db, "a1", spec, Minter())
        res = reachability_search(start, spec, SYNC,
                                  SearchBudget(max_depth=2, max_states=2000))
        runs.append((res.verdict, res.stats["states_explored"],
                     res.stats["states_enqueued"]))
    assert runs[0] == runs[1]


def test_memo_entries_count_the_searchs_own_memo(nsl, monkeypatch):
    made = []

    def recorded():
        made.append(Memo())
        return made[-1]

    monkeypatch.setattr(search, "Memo", recorded)
    spec = runtime_spec(nsl, BASIC)
    counts = []
    for depth in (2, 1, 2):
        res = reachability_search(attack_state(nsl, "secrecy", spec, Minter()),
                                  spec, BASIC, SearchBudget(max_depth=depth))
        memo = made[-1]
        assert res.stats["memo_entries"] == {
            "unify": len(memo.unify), "variants": len(memo.variants)}
        counts.append(res.stats["memo_entries"])
    # one memo per search, and two searches on one theory share nothing
    assert len(made) == 3
    assert counts[0] == counts[2] and counts[1]["unify"] < counts[0]["unify"]


def test_a_dropped_search_leaves_no_terms_behind():
    """A search's memos go with it: once its result is dropped, the term
    nodes alive are about as many as before it ran."""
    doc = load("nsl.strand")  # a theory no other test has searched in
    spec = runtime_spec(doc, BASIC)

    def run(depth):
        start = attack_state(doc, "secrecy", spec, Minter())
        reachability_search(start, spec, BASIC, SearchBudget(max_depth=depth))

    run(1)  # the theory's rule index and canonical leaves now exist
    gc.collect()
    before = len(terms._interned)
    run(4)
    gc.collect()
    assert len(terms._interned) - before <= 16


def test_trace_to_dot_shape(nsl):
    spec = runtime_spec(nsl, BASIC)
    sig = spec.signature
    m = sig.make("pk", sig.make("a"), sig.make("b"))
    start = SymbolicState((StrandInstance("x", (SignedMessage("+", m),), 1),))
    res = reachability_search(start, spec, BASIC, SearchBudget(max_depth=2))
    dot = trace_to_dot(res)
    assert dot.startswith("digraph") and "send_silent" in dot


def test_level_keys_and_states_agree(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    start = attack_state(nsl_db, "a1", spec, Minter())
    keys = level_keys(start, spec, SYNC, 2)
    states = level_states(start, spec, SYNC, 2)
    assert [len(k) for k in keys[:1]] == [1]
    # every enumerated state's key appears in the level's key set
    from strandkit.model import state_key

    for lvl_states, lvl_keys in zip(states, keys):
        assert {state_key(s) for s in lvl_states} <= lvl_keys


def corrupt_modes(spec):
    """Flip every one-to-one synchronization point to one-to-many."""
    import dataclasses

    from strandkit.model import MODE_ONE_MANY, StrandSchema, SyncPoint

    schemas = {}
    for role, sch in spec.schemas.items():
        items = tuple(
            dataclasses.replace(it, mode=MODE_ONE_MANY)
            if isinstance(it, SyncPoint) else it for it in sch.items)
        schemas[role] = StrandSchema(sch.role, sch.fresh, items)
    triples = [(p, c, MODE_ONE_MANY) for (p, c, m) in spec.triples]
    return dataclasses.replace(spec, schemas=schemas, triples=triples)


def shared_parent_start(spec):
    """One finished parent and two children both just past their input
    handover: the shape that separates one-to-one from one-to-many."""
    minter = Minter()
    parent = instantiate(spec.schemas["NSL.resp"], minter, bar=4)
    c1 = instantiate(spec.schemas["DB.init"], minter, bar=1)
    c2 = instantiate(spec.schemas["DB.init"], minter, bar=1)
    return SymbolicState((parent, c1, c2))


def test_bisimulation_divergence_on_mode_corruption(nsl_db):
    sync_spec = runtime_spec(nsl_db, SYNC)
    abs_spec = runtime_spec(nsl_db, ABSTRACT)
    good_start = shared_parent_start(sync_spec)
    ok = bisimulation_report(trans_inv(good_start, sync_spec), abs_spec,
                             good_start, sync_spec, 2)
    assert ok["equivalent"]
    # under one-to-many the single parent hands over to the second child
    # as well, a state the one-to-one rules cannot reach
    bad_sync = corrupt_modes(sync_spec)
    bad_start = shared_parent_start(bad_sync)
    bad = bisimulation_report(trans_inv(bad_start, bad_sync), abs_spec,
                              bad_start, bad_sync, 2)
    assert not bad["equivalent"]
    first_bad = next(lv for lv in bad["levels"] if not lv["matched"])
    assert first_bad["sync_states"] > first_bad["common"]
    no_child_left()


# ---------------------------------------------- the forked comparison

def no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def compare_problem(fname, attack):
    """The arguments of `bisimulation_report` but the depth, as the CLI
    builds them."""
    doc = load(fname)
    sync_spec = runtime_spec(doc, SYNC)
    abs_spec = runtime_spec(doc, ABSTRACT)
    return (attack_state(doc, attack, abs_spec, Minter()), abs_spec,
            attack_state(doc, attack, sync_spec, Minter()), sync_spec)


@pytest.mark.parametrize("fname,attack", [("nsl_kd.strand", "keyleak"),
                                          ("nsl_db.strand", "a1")])
def test_forked_report_equals_the_in_process_one(monkeypatch, fname, attack):
    problem = compare_problem(fname, attack)
    forked = bisimulation_report(*problem, 2)
    no_child_left()
    # without fork, both sides' level_keys run in this process
    monkeypatch.delattr(os, "fork")
    here = bisimulation_report(*problem, 2)
    for report in (forked, here):
        assert report.pop("abstract_ms") >= 0 and report.pop("sync_ms") >= 0
    assert forked == here
    assert forked["equivalent"]


def test_failed_fork_runs_both_sides_here(monkeypatch):
    def refuse():
        raise OSError("fork refused")

    fds = pathlib.Path("/proc/self/fd")
    before = len(list(fds.iterdir())) if fds.is_dir() else None
    monkeypatch.setattr(os, "fork", refuse)
    assert _side_by_side(os.getpid, os.getpid) == (os.getpid(),) * 2
    if before is not None:  # the pipe is closed again
        assert len(list(fds.iterdir())) == before


def budget_exhausted():
    raise StepBudgetExceeded("rewrite step budget exhausted")


@pytest.mark.parametrize("fail,raised,message", [
    (budget_exhausted, StepBudgetExceeded, "rewrite step budget exhausted"),
    (lambda: os._exit(3), ChildProcessError, "code 3"),
], ids=["raises", "exits"])
def test_sync_side_failure_reaches_the_caller(monkeypatch, fail, raised,
                                              message):
    # patched before the fork, so the child inherits it: only the sync
    # side translates its states to the abstract view
    monkeypatch.setattr(search, "trans_inv", lambda st, spec: fail())
    problem = compare_problem("nsl_db.strand", "a1")
    with pytest.raises(raised, match=message):
        bisimulation_report(*problem, 1)
    no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_abstract_side_failure_kills_the_child(monkeypatch, error):
    level_keys = search.level_keys

    def stalled_or_failing(start, spec, mode, depth, view=None):
        if view is None:
            raise error("abstract side failed")
        time.sleep(60)  # a child left to finish would hold the test here
        return level_keys(start, spec, mode, depth, view)

    monkeypatch.setattr(search, "level_keys", stalled_or_failing)
    problem = compare_problem("nsl_db.strand", "a1")
    t0 = time.monotonic()
    with pytest.raises(error, match="abstract side failed"):
        bisimulation_report(*problem, 1)
    assert time.monotonic() - t0 < 30
    no_child_left()


# ------------------------------------------------------ the state matcher

def _matcher_setup():
    from strandkit.terms import FRESH, MSG, Signature
    from strandkit.theory import AxiomDecl, EquationalTheory, match_ax

    sig = Signature()
    sig.add_subsort("Name", MSG)
    sig.add_subsort(FRESH, MSG)
    zero = App("zero", (), MSG)
    th = EquationalTheory(axioms=(("xor", AxiomDecl(
        assoc=True, comm=True, unit=zero, nilpotent=True)),))
    return th, lambda p, t, b: match_ax(p, t, th, b, sig.leq)


A, B, C = (App(n, (), "Msg") for n in "abc")
X, Y, U, V = (Var(n) for n in "XYUV")
R1, R2, R5, R6 = (FreshConst(i) for i in (1, 2, 5, 6))


def _pair(s, t):
    return App("pair", (s, t), "Msg")


def _state(strands=(), known=(), diseqs=()):
    return SymbolicState(
        tuple(StrandInstance(role, (SignedMessage("+", t),), 1)
              for role, t in strands),
        tuple(IntruderFact(KNOWN, t) for t in known), tuple(diseqs))


# (case, gen, cand, options, whether cand is an instance of gen)
MATCHER_CASES = [
    ("extra strand refused", _state([("A", X)]),
     _state([("A", A), ("B", B)]), {}, False),
    ("extra strand allowed", _state([("A", X)]),
     _state([("A", A), ("B", B)]), {"extra_strands": True}, True),
    ("strands need the same role", _state([("A", X)]), _state([("B", A)]),
     {}, False),
    ("extra fact refused", _state(known=[X]), _state(known=[A, B]), {},
     False),
    ("extra fact allowed", _state(known=[X]), _state(known=[A, B]),
     {"extra_facts": True}, True),
    ("facts map one-to-one", _state(known=[X, Y]), _state(known=[A]),
     {"extra_facts": True}, False),
    ("two fresh values cannot share an image",
     _state(known=[_pair(R1, R2)]), _state(known=[_pair(R5, R5)]), {},
     False),
    ("two fresh values bind two", _state(known=[_pair(R1, R2)]),
     _state(known=[_pair(R5, R6)]), {}, True),
    ("a fresh value binds only a fresh value", _state(known=[R1]),
     _state(known=[A]), {}, False),
    ("a fixed fresh value stays", _state(known=[R1]), _state(known=[R2]),
     {"fixed": frozenset({R1})}, False),
    ("a fixed fresh value matches itself", _state(known=[R1]),
     _state(known=[R1]), {"fixed": frozenset({R1})}, True),
    ("a fixed fresh value is no image", _state(known=[R2]),
     _state(known=[R1]), {"fixed": frozenset({R1})}, False),
    ("a disequality needs a counterpart", _state(known=[_pair(X, Y)],
                                                 diseqs=[(X, Y)]),
     _state(known=[_pair(U, V)]), {}, False),
    ("a disequality maps to one of cand's", _state(known=[_pair(X, Y)],
                                                   diseqs=[(X, Y)]),
     _state(known=[_pair(U, V)], diseqs=[(V, U)]), {}, True),
    ("a disequality holds on ground terms apart",
     _state(known=[_pair(X, Y)], diseqs=[(X, Y)]),
     _state(known=[_pair(A, B)]), {}, True),
    ("a disequality fails on equal ground terms",
     _state(known=[_pair(X, Y)], diseqs=[(X, Y)]),
     _state(known=[_pair(A, A)]), {}, False),
    ("a collector variable absorbs the rest of a sum",
     _state(known=[App("xor", (A, X), "Msg")]),
     _state(known=[App("xor", (A, B, C), "Msg")]), {}, True),
    ("a variable a sum leaves free is bound by a later fact",
     _state(known=[App("xor", (X, Y), "Msg"), Y]), _state(known=[A, B]), {},
     True),
    ("a disequality reads that binding through",
     _state(known=[App("xor", (X, Y), "Msg"), Y], diseqs=[(X, C)]),
     _state(known=[A, B]), {}, True),
    ("a Name variable does not bind a Msg variable",
     _state(known=[Var("N", "Name")]), _state(known=[X]), {}, False),
    ("a Name variable binds a Name", _state(known=[Var("N", "Name")]),
     _state(known=[Var("M", "Name")]), {}, True),
]


@pytest.mark.parametrize("gen, cand, options, want",
                         [case[1:] for case in MATCHER_CASES],
                         ids=[case[0] for case in MATCHER_CASES])
def test_state_matcher_contract(gen, cand, options, want):
    th, match = _matcher_setup()
    assert _state_instance_of(cand, gen, th, match, **options) is want
