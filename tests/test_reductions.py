"""State-space reductions of the backward search.

The distance-hijacking attack on nsl_db takes 17 backward steps; the first
test walks them under the reductions, so a reduction that cuts the attack
path, or a search order that would put it off, fails here in seconds.  The
second compares the reduced search with the unpruned breadth-first levels
of `level_states` on small questions.
"""
import pathlib
from dataclasses import replace

import pytest

from strandkit import unify
from strandkit.dsl import attack_state, parse_document
from strandkit.grammar import _ANY, Grammar
from strandkit.model import (
    KNOWN,
    IntruderFact,
    Minter,
    SignedMessage,
    StrandInstance,
    SymbolicState,
)
from strandkit.search import (
    ATTACK_FOUND,
    INCONCLUSIVE,
    SECURE_FINITE,
    SearchBudget,
    _goal,
    _Node,
    SearchResult,
    TraceStep,
    level_states,
    reachability_search,
    steps_left,
    trace_replay,
    unlearnable,
)
from strandkit.semantics import (
    ABSTRACT,
    BASIC,
    SYNC,
    backward_successors,
    runtime_spec,
)
from strandkit.terms import App, FreshConst, Var

from test_cli import TINY

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"

# The shortest attack on a1, rule by rule (criterion 03 counts them).
HIJACK_RULES = (
    "recv", "int.xor", "send_learn", "sync_new_parent:NSL.resp",
    "recv", "int.enc", "int.left", "int.right", "int.sk", "send_learn",
    "recv", "int.enc", "int.concat", "int.name", "int.left", "int.sk",
    "send_learn",
)


def load(name):
    return parse_document((SPECS / name).read_text())


def _hijack_walk(spec, start, minter, grammar):
    """The states of the shortest attack on a1, found by following
    HIJACK_RULES under the reductions; None if they cut it."""

    def walk(state, rules, uses=None):
        if not rules:
            return []
        for step in backward_successors(state, spec, SYNC, minter,
                                        in_order=True,
                                        xor_splits=grammar.sums_closed,
                                        uses=uses):
            pred = step.predecessor
            if step.rule not in (rules[0], "intro_strand:" + rules[0]):
                continue
            if unlearnable(pred, grammar):
                continue
            # the next step must use a demand the introduction made
            made = frozenset(step.demands) \
                if step.rule.startswith("intro_strand") and step.demands \
                else None
            rest = walk(pred, rules[1:], made)
            if rest is not None:
                return [TraceStep(step.rule, pred)] + rest
        return None

    return walk(start, HIJACK_RULES)


def test_hijack_path_survives_reductions():
    doc = load("nsl_db.strand")
    spec = runtime_spec(doc, SYNC)
    minter = Minter()
    start = attack_state(doc, "a1", spec, minter)
    grammar = Grammar(spec, SYNC, start.strands)
    path = _hijack_walk(spec, start, minter, grammar)
    assert path is not None
    result = SearchResult(ATTACK_FOUND,
                          [TraceStep("attack-pattern", start)] + path)
    assert len(result.trace) - 1 == 17
    assert trace_replay(result, spec, SYNC)
    # the search takes states in the order of depth plus this bound, so
    # it must never exceed the steps the attack still takes
    for depth, step in enumerate(result.trace[:-1]):
        assert steps_left(step.state, grammar) <= 17 - depth


def _hijack_tail(spec, doc, steps_done):
    """The state the shortest attack on a1 reaches after `steps_done`
    backward steps, as the start of a search of its own."""
    minter = Minter()
    start = attack_state(doc, "a1", spec, minter)
    grammar = Grammar(spec, SYNC, start.strands)
    path = _hijack_walk(spec, start, minter, grammar)
    return replace(path[steps_done - 1].state, depth=0)


def _cases():
    db, nsl, tiny = load("nsl_db.strand"), load("nsl.strand"), \
        parse_document(TINY)
    db_spec, nsl_spec = runtime_spec(db, SYNC), runtime_spec(nsl, BASIC)
    tiny_spec = runtime_spec(tiny, BASIC)
    sig = nsl_spec.signature
    sent = sig.make("pk", sig.make("a"), sig.make("b"))
    secret = sig.make("n", sig.make("a"), Minter().fresh("r"))
    return {
        "nsl_db-a1": (db_spec, SYNC, lambda: attack_state(
            db, "a1", db_spec, Minter()), SearchBudget(max_depth=4)),
        # three steps short of an initial state
        "nsl_db-a1-last-steps": (db_spec, SYNC, lambda: _hijack_tail(
            db_spec, db, 14), SearchBudget(max_depth=4)),
        "nsl-secrecy": (nsl_spec, BASIC, lambda: attack_state(
            nsl, "secrecy", nsl_spec, Minter()), SearchBudget(max_depth=4)),
        "trivial-send": (nsl_spec, BASIC, lambda: SymbolicState(
            (StrandInstance("x", (SignedMessage("+", sent),), 1),)),
            SearchBudget(max_depth=2)),
        "initial": (nsl_spec, BASIC, SymbolicState, SearchBudget(max_depth=1)),
        "unsatisfiable": (nsl_spec, BASIC, lambda: SymbolicState(
            (), (IntruderFact(KNOWN, secret),)),
            SearchBudget(max_depth=3, max_states=5000)),
        "lazy-variable": (nsl_spec, BASIC, lambda: SymbolicState(
            (), (IntruderFact(KNOWN, Var("X", "Msg")),)),
            SearchBudget(max_depth=1)),
        # two strands that each end with a send undone silently
        "two-last-sends": (nsl_spec, BASIC, lambda: SymbolicState((
            StrandInstance("x", (SignedMessage("+", sent),), 1),
            StrandInstance("y", (SignedMessage("+", secret),), 1))),
            SearchBudget(max_depth=3)),
        "tiny-leak": (tiny_spec, BASIC, lambda: attack_state(
            tiny, "leak", tiny_spec, Minter()), SearchBudget()),
        "tiny-stuck": (tiny_spec, BASIC, lambda: attack_state(
            tiny, "stuck", tiny_spec, Minter()), SearchBudget()),
    }


CASES = _cases()


def _reference(start, spec, mode, budget):
    """The unpruned verdict within the depth bound, from the levels of
    `level_states`: its reason (None when the verdict is decided), the
    depth of a shallowest attack, and the number of distinct states in
    the levels taken."""
    seen = 0
    for depth, level in enumerate(level_states(start, spec, mode,
                                               budget.max_depth)):
        seen += len(level)
        if any(_goal(st) for st in level):
            return ATTACK_FOUND, None, depth, seen
        if not level:
            return SECURE_FINITE, None, None, seen
    return INCONCLUSIVE, "depth bound reached", None, seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_reductions_keep_verdicts(name):
    spec, mode, start, budget = CASES[name]
    verdict, reason, depth, seen = _reference(start(), spec, mode, budget)
    reduced = reachability_search(start(), spec, mode, budget)
    assert reduced.verdict == verdict, reduced.stats
    assert reduced.stats.get("reason") == reason
    if verdict == ATTACK_FOUND:
        # the reduced search still finds a shortest attack
        assert reduced.stats["depth"] == depth
        assert trace_replay(reduced, spec, mode)
    if verdict == SECURE_FINITE:
        # the levels cannot tell a unifier set cut short; the search can
        assert reduced.stats["incomplete_unifications"] == 0
    assert reduced.stats["states_enqueued"] <= seen


def _renamed(t):
    if isinstance(t, Var):
        return Var(t.name + "'", t.sort)
    if isinstance(t, FreshConst):
        return FreshConst(t.ident + 100, t.hint)
    return App(t.op, tuple(_renamed(a) for a in t.args), t.sort)


def test_focused_node_keys_ignore_renaming():
    """Renamed copies of a state focused on a strand, or on the demands an
    introduction made, are one state to the search's dedup."""
    sig = runtime_spec(load("nsl.strand"), BASIC).signature
    A, X = Var("A", "Name"), Var("X")
    r1, r2 = FreshConst(1), FreshConst(2)
    strands = (
        StrandInstance("x", (SignedMessage("-", X),
                             SignedMessage("+", sig.make("pk", A, X))), 2),
        StrandInstance("y", (SignedMessage("+", sig.make(
            "n", sig.make("a"), r1)),), 1))
    facts = (IntruderFact(KNOWN, sig.make("sk", A, X)),
             IntruderFact(KNOWN, sig.make("n", sig.make("b"), r2)))
    state = SymbolicState(strands, facts)
    copy = SymbolicState(
        tuple(replace(st, items=tuple(
            SignedMessage(it.polarity, _renamed(it.payload))
            for it in st.items)) for st in reversed(strands)),
        tuple(IntruderFact(f.kind, _renamed(f.payload))
              for f in reversed(facts)))
    demands = (facts[0].payload,)

    assert _Node(state, "send_silent", None, focus=0).key == \
        _Node(copy, "send_silent", None, focus=1).key
    assert _Node(state, "intro_strand:x", None, demands=demands).key == \
        _Node(copy, "intro_strand:x", None,
              demands=tuple(map(_renamed, demands))).key
    # what the state is focused on still tells states apart
    assert _Node(state, "send_silent", None, focus=0).key != \
        _Node(copy, "send_silent", None, focus=0).key
    assert _Node(state, "intro_strand:x", None, demands=demands).key != \
        _Node(state, "intro_strand:x", None, demands=(facts[1].payload,)).key


def test_renamed_states_narrow_once(monkeypatch):
    spec = runtime_spec(load("nsl.strand"), BASIC)  # a theory of its own
    grammar = Grammar(spec, BASIC)
    calls = []
    narrow_once = unify._narrow_once

    def counted(*args):
        calls.append(args[0])
        return narrow_once(*args)

    monkeypatch.setattr(unify, "_narrow_once", counted)
    sig = spec.signature
    narrowed = []
    for a, b, r in (("A", "B", 5), ("A2", "B2", 6)):
        nonce = sig.make("n", sig.make("a"), FreshConst(r))
        # pk(A, sk(B, N)) rewrites when A = B: the check splits on variants
        demand = sig.make("pk", Var(a, "Name"),
                          sig.make("sk", Var(b, "Name"), nonce))
        assert grammar.condemns([demand], [], [nonce])
        narrowed.append(len(calls))
    assert narrowed[0] > 0 and narrowed[1] == narrowed[0]


def _exception_count(grammar) -> int:
    return len(grammar._atom_exceptions) + sum(
        len(exceptions) for prods in grammar._productions.values()
        for exceptions in prods.values())


def _build_grammar(fname, attack, mode) -> Grammar:
    doc = load(fname)
    spec = runtime_spec(doc, mode)
    return Grammar(spec, mode,
                   attack_state(doc, attack, spec, Minter()).strands)


GRAMMAR_CASES = [
    ("nsl.strand", "secrecy", BASIC),
    ("nsl_db.strand", "a1", SYNC),
    ("nsl_db.strand", "a1", ABSTRACT),
    ("nsl_db_fix.strand", "a1", SYNC),
    ("nsl_kd.strand", "keyleak", SYNC),
    ("nsl_kd.strand", "keyleak", ABSTRACT),
]


@pytest.mark.parametrize("fname,attack,mode", GRAMMAR_CASES)
def test_grammar_closure_is_closed(monkeypatch, fname, attack, mode):
    # right after the worklist stops, one more naive pass refines every
    # production and the atoms against every send, with memos of its own:
    # a skip rule that stops too early leaves it work to do
    close = Grammar._close
    added = []

    def close_then_pass(self, sources):
        close(self, sources)
        memo, self._memo = self._memo, {}
        before = _exception_count(self)
        for msg, received in sources:
            if self._sums_received(msg, received):
                continue
            for op, prods in self._productions.items():
                gen = self._gens[op]
                cases = self._cases(msg, received, gen)
                for j, exceptions in prods.items():
                    self._refine(exceptions, gen, j, cases)
            if self._xor:
                self._refine_atoms(self._cases(msg, received, _ANY),
                                   received)
        added.append(_exception_count(self) - before)
        self._memo = memo

    monkeypatch.setattr(Grammar, "_close", close_then_pass)
    grammar = _build_grammar(fname, attack, mode)
    assert added == [0]
    # the closure's memos and read sets go with it
    assert grammar._memo is None and grammar._reads is None
    assert grammar.stats["tasks_skipped"] > 0
    assert grammar.stats["exceptions"] > 0


@pytest.mark.parametrize("fname,attack,mode", GRAMMAR_CASES)
def test_apart_decides_only_empty_problems(monkeypatch, fname, attack, mode):
    # `_unifiers` answers a problem whose sides `apart` tells apart with
    # no unifier, without unifying: each such problem of a build must be
    # one that unification finds empty, and completely so
    unifiers = Grammar._unifiers
    decided = []

    def recorded(self, t, e, assumed):
        if self.apart(t, e):
            decided.append((t, e))
        return unifiers(self, t, e, assumed)

    monkeypatch.setattr(Grammar, "_unifiers", recorded)
    grammar = _build_grammar(fname, attack, mode)
    assert decided
    for t, e in decided:
        got = unify.unify_modulo(t, e, grammar.theory, leq=grammar.leq)
        assert not got and got.complete, (t, e)
