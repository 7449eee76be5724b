"""Backward reachability from an attack pattern, shallowest states first.

The search explores predecessors of a symbolic attack state until it finds
an initial state (every bar at the start, nothing already known), proving
the pattern reachable, or exhausts the frontier within the depth bound,
proving it unreachable at that bound.  Visited states are collapsed by a
canonical key invariant under variable/fresh renaming and the structural
axioms.
"""
from __future__ import annotations

import heapq
import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    KNOWN,
    TO_LEARN,
    Minter,
    SignedMessage,
    SymbolicState,
    SyncPoint,
    item_terms,
    state_key,
)
from .semantics import (
    ABSTRACT,
    MODES,
    RuntimeSpec,
    SYNC,
    backward_successors,
    trans_inv,
)
from .terms import FRESH, App, FreshConst, Var, _apply, fresh_constants, \
    is_ground, term_key, term_size, variables
from .theory import canon, canonical_leaf, match_ax, normalize
from .unify import match_modulo, memo_entries


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


ATTACK_FOUND = "AttackFound"
SECURE_FINITE = "SecureFinite"
INCONCLUSIVE = "Inconclusive"


@dataclass
class SearchBudget:
    max_depth: int = 20
    max_states: int = 100_000
    wall_seconds: Optional[float] = None
    # peak resident-set cap in MiB; exceeding it yields Inconclusive instead
    # of letting the OS kill the process mid-search.
    max_rss_mb: Optional[int] = None


def _default_fact_cap(spec: RuntimeSpec) -> int:
    """The cap on the term size of intruder demands: twice the largest
    term in the protocol's own messages.  Dropping an oversized demand
    never fabricates an attack (traces are replayed independently) but
    makes SecureFinite unclaimable, which the search accounts for.
    Instances only rename variables and mint fresh constants, so the
    schemas' own terms have the same sizes."""
    return 2 * max((term_size(t) for schema in spec.schemas.values()
                    for it in schema.items for t in item_terms(it)),
                   default=1)


@dataclass
class TraceStep:
    rule: str
    state: SymbolicState


@dataclass
class SearchResult:
    verdict: str
    trace: Optional[list] = None  # TraceSteps from attack pattern to initial
    stats: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.verdict == ATTACK_FOUND


class _Node:
    __slots__ = ("state", "rule", "parent", "focus", "demands", "uses", "key")

    def __init__(self, state, rule, parent, focus=None, demands=None,
                 key=None):
        self.state = state
        self.rule = rule
        self.parent = parent
        self.focus = focus  # strand whose silent send was just undone
        # the demands the strand introduction just undone made, as a
        # tuple and as a set
        self.demands = demands
        self.uses = None if demands is None else frozenset(demands)
        # a focused state allows fewer steps, so it is kept apart; an
        # unfocused one has the plain key, which the caller may pass in
        self.key = key if key is not None and focus is None and \
            demands is None else state_key(state, focus, demands)


def _goal(state: SymbolicState) -> bool:
    # a leftover demand for a bare variable is satisfiable by any public
    # value the intruder can produce on its own
    return all(s.bar == 0 for s in state.strands) and \
        all(f.kind != KNOWN or isinstance(f.payload, Var)
            for f in state.facts)


def _strand_shape(s) -> tuple:
    return (s.role, s.bar, len(s.items))


def _skeleton(state: SymbolicState) -> tuple:
    """Bucket key shared by a state and all of its instances."""
    return tuple(sorted(_strand_shape(s) for s in state.strands))


def _item_shape(it) -> tuple:
    if isinstance(it, SignedMessage):
        return ("msg", it.polarity)
    if isinstance(it, SyncPoint):
        return ("sync", it.direction, it.parents, it.children, it.mode,
                len(it.payload))
    return ("param", it.direction, len(it.payload))


def _layout(s) -> tuple:
    """What an instance of a strand keeps: role, bar and item shapes."""
    return (s.role, s.bar, tuple(map(_item_shape, s.items)))


def _terms(state: SymbolicState) -> list:
    out = [t for s in state.strands for it in s.items for t in item_terms(it)]
    out += [f.payload for f in state.facts]
    return out + [t for pair in state.diseqs for t in pair]


def _units(strands, facts) -> list:
    """The terms of each strand, then of each fact."""
    return [[t for it in s.items for t in item_terms(it)]
            for s in strands] + [[f.payload] for f in facts]


def _diseq_key(l, r, th) -> frozenset:
    return frozenset((normalize(l, th), normalize(r, th)))


class _Pattern:
    """A state readied once to be the general side of `_state_instance_of`,
    however often it is matched: its facts in matching order, the layout
    or kind of each place, and the terms of each place and of each
    disequality renamed and made canonical.  Its variables become %P0,
    %P1, ... and its fresh values outside `fixed` Fresh-sorted %fresh0,
    %fresh1, ..., canonical leaves that every pattern of the theory
    shares: renamed apart from any candidate's, so that applying a binding
    never takes a variable of the candidate's for one of the pattern's."""

    __slots__ = ("state", "fixed", "keys", "places", "fvars", "diseqs")

    def __init__(self, gen: SymbolicState, th, fixed: frozenset = frozenset()):
        self.state, self.fixed = gen, fixed
        # facts with the most arguments first and bare variables last, as
        # a bare variable matches any fact
        gfacts = sorted(gen.facts, key=lambda f: -len(f.payload.args)
                        if isinstance(f.payload, App) else 0)
        self.keys = [_layout(s) for s in gen.strands] + \
            [f.kind for f in gfacts]
        own = _terms(gen)
        fresh = sorted(fresh_constants(own) - fixed, key=term_key)
        self.fvars = [canonical_leaf(th, "%fresh", i, FRESH)
                      for i in range(len(fresh))]
        ren = {v: canonical_leaf(th, "%P", i, v.sort) for i, v in
               enumerate(sorted(variables(own), key=term_key))}
        ren.update(zip(fresh, self.fvars))

        def prep(ts) -> list:
            return [canon(_apply(ren, t), th) for t in ts]

        self.places = [prep(ts) for ts in _units(gen.strands, gfacts)]
        self.diseqs = [prep(pair) for pair in gen.diseqs]


def _state_instance_of(cand: SymbolicState, gen, th, match,
                       *, extra_strands: bool = False,
                       extra_facts: bool = False,
                       fixed: frozenset = frozenset()) -> bool:
    """True when cand is an instance of gen: some σ maps each strand of gen
    to a distinct strand of cand with the same `_layout`, and each fact of
    gen to a distinct fact of cand of the same kind, term for term.  σ
    takes each disequality of gen to one of cand's or to a ground pair
    that normalizes apart.  The fresh values of gen outside `fixed` stand
    for any fresh values: σ takes them one-to-one to fresh values of cand
    outside `fixed`.  Without `extra_strands` and `extra_facts`, σ covers
    the strands and facts of cand exactly.  gen is a state, or a
    `_Pattern` of one, readied once for many calls with its own `fixed`.

    `match(pattern, subject, binding)` is the term matcher: it yields the
    extensions of a binding (a dict from variables to terms) under which
    pattern matches subject.  Both sides it gets are canonical.

    A True answer is always correct; a False answer may miss an instance
    where the term matcher is incomplete (hard AC matching).  Dropping an
    instance of an explored state preserves every verdict: each backward
    step from the instance lifts to a step from the more general state,
    and a reachable initial state lifts to one at least as general, which
    is still initial.  Extra facts only make a state harder to reach.
    """
    pat = gen if isinstance(gen, _Pattern) else _Pattern(gen, th, fixed)
    gen, fixed, gkeys = pat.state, pat.fixed, pat.keys
    if not extra_strands and len(gen.strands) != len(cand.strands) or \
            not extra_facts and len(gen.facts) != len(cand.facts):
        return False
    slots: dict = {}  # a strand layout or fact kind -> its places in cand
    for j, key in enumerate([_layout(s) for s in cand.strands] +
                            [f.kind for f in cand.facts]):
        slots.setdefault(key, []).append(j)
    if any(len(slots.get(key, ())) < n for key, n in Counter(gkeys).items()):
        return False
    # the terms of each place of cand, made canonical when the search
    # first reaches it, so a call that fails early does not prepare the
    # rest
    cunits = _units(cand.strands, cand.facts)
    subjects = [None] * len(cunits)
    cand_diseqs = {_diseq_key(l, r, th) for (l, r) in cand.diseqs}

    def diseqs_hold(b) -> bool:
        for pair in pat.diseqs:
            l, r = (normalize(_apply(b, t), th) for t in pair)
            if _diseq_key(l, r, th) not in cand_diseqs and not (
                    is_ground(l) and is_ground(r) and l != r):
                return False
        return True

    def fresh_ok(b) -> bool:
        images = [b[v] for v in pat.fvars if v in b]
        return len(set(images)) == len(images) and all(
            isinstance(c, FreshConst) and c not in fixed for c in images)

    def match_all(ps, ss, b, i=0):
        if i == len(ps):
            yield b
            return
        for b2 in match(ps[i], ss[i], b):
            yield from match_all(ps, ss, b2, i + 1)

    def place(i, b, used) -> bool:
        if i == len(gkeys):
            return diseqs_hold(b)
        ps = pat.places[i]
        for j in slots[gkeys[i]]:
            if j in used:
                continue
            if subjects[j] is None:
                subjects[j] = [canon(t, th) for t in cunits[j]]
            for b2 in match_all(ps, subjects[j], b):
                if fresh_ok(b2) and place(i + 1, b2, used | {j}):
                    return True
        return False

    return place(0, {}, frozenset())


def reachability_search(start: SymbolicState, spec: RuntimeSpec, mode: str,
                        budget: Optional[SearchBudget] = None) -> SearchResult:
    """Backward search from `start` for an initial state, shallowest first.

    Sound state-space reductions drop predecessors: states that demand a
    term the intruder cannot know yet (see `grammar`); steps other than a
    pending receive (input priority); after a silent send, steps of other
    strands; after a strand introduction, steps that use none of the
    demands it made; leaf introductions and the silent sends that empty a
    strand before the end; sums explained other than through their atoms
    when every known sum is built from known atoms; and states that are
    instances of a kept state no deeper, even with extra facts.  States
    are then taken in the order of their depth plus a lower bound on the
    steps they still need (`steps_left`), so the first initial state found
    is still a shallowest one, and states that cannot reach one within the
    depth bound wait until the rest is done.  `level_states` is the
    unpruned breadth-first reference the reductions are checked against.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode}")
    budget = budget or SearchBudget()
    minter = Minter(_terms(start))
    t0 = time.monotonic()
    fact_cap = _default_fact_cap(spec)
    stats = {"states_explored": 0, "states_enqueued": 1, "deduped": 0,
             "subsumed": 0, "grammar_pruned": 0, "order_pruned": 0,
             "size_pruned": 0, "incomplete_unifications": 0,
             "max_depth_reached": 0}
    root = _Node(start, "attack-pattern", None)
    th, leq = spec.theory, spec.signature.leq
    if _goal(start):
        return _finish(ATTACK_FOUND, root, stats, t0, th, complete=True)
    from .grammar import Grammar  # only searches need it
    grammar = Grammar(spec, mode, start.strands)
    stats["grammar"] = grammar.stats
    if unlearnable(start, grammar):
        stats["grammar_pruned"] += 1
        return _finish(SECURE_FINITE, None, stats, t0, th, complete=True)
    order = itertools.count()

    def push(node) -> None:
        depth = node.state.depth
        bound = depth + steps_left(node.state, grammar)
        heapq.heappush(frontier, (bound, -depth, next(order), node))

    frontier: list = []
    push(root)
    best = {root.key: 0}  # the least depth each key was reached at

    def subsumes(p, t, b):
        return match_ax(p, t, th, b, leq)

    # the states kept for subsumption, each readied once as a pattern
    kept: dict = {_skeleton(start): [_Pattern(start, th)]}
    truncated = False  # depth or state budget cut off unexplored states
    while frontier:
        if budget.wall_seconds is not None and \
                time.monotonic() - t0 > budget.wall_seconds:
            return _finish(INCONCLUSIVE, None, stats, t0, th, complete=False,
                           reason="wall clock budget exhausted")
        node = heapq.heappop(frontier)[-1]
        state = node.state
        if best[node.key] < state.depth:
            continue  # reached again at a lesser depth since
        if budget.max_rss_mb is not None and \
                stats["states_explored"] % 64 == 0 and \
                _peak_rss_mb() > budget.max_rss_mb:
            return _finish(INCONCLUSIVE, None, stats, t0, th, complete=False,
                           reason="memory budget exhausted")
        if state.depth >= budget.max_depth:
            truncated = True
            continue
        stats["states_explored"] += 1
        steps = backward_successors(state, spec, mode, minter, stats=stats,
                                    max_fact_size=fact_cap,
                                    in_order=True,
                                    xor_splits=grammar.sums_closed,
                                    focus=node.focus, uses=node.uses)
        for step in steps:
            pred = step.predecessor
            focus = _silent_strand(state, step)
            demands = _made_demands(step) if focus is None else node.demands
            child = _Node(pred, step.rule, node, focus, demands, step.key)
            if best.get(child.key, pred.depth + 1) <= pred.depth:
                stats["deduped"] += 1
                continue
            best[child.key] = pred.depth
            if _goal(pred):
                complete = not truncated and \
                    stats["incomplete_unifications"] == 0 and \
                    stats["size_pruned"] == 0
                return _finish(ATTACK_FOUND, child, stats, t0, th,
                               complete=complete)
            if unlearnable(pred, grammar):
                stats["grammar_pruned"] += 1
                continue
            bucket = kept.setdefault(_skeleton(pred), [])
            nf = len(pred.facts)
            if any(len(g.state.facts) <= nf and g.state.depth <= pred.depth
                   and _state_instance_of(pred, g, th, subsumes,
                                          extra_facts=True)
                   for g in bucket):
                stats["subsumed"] += 1
                continue
            if focus is None and demands is None:
                # a focused state explores too little
                bucket.append(_Pattern(pred, th))
            stats["states_enqueued"] += 1
            stats["max_depth_reached"] = max(stats["max_depth_reached"],
                                             pred.depth)
            if stats["states_enqueued"] >= budget.max_states:
                return _finish(INCONCLUSIVE, None, stats, t0, th,
                               complete=False,
                               reason="state budget exhausted")
            push(child)
    if truncated or stats["incomplete_unifications"] > 0:
        return _finish(INCONCLUSIVE, None, stats, t0, th, complete=False,
                       reason="depth bound reached")
    if stats["size_pruned"] > 0:
        return _finish(INCONCLUSIVE, None, stats, t0, th, complete=False,
                       reason="demand size cap pruned states")
    return _finish(SECURE_FINITE, None, stats, t0, th, complete=True)


def steps_left(state: SymbolicState, grammar) -> int:
    """A lower bound on the backward steps from a state that is not
    initial to an initial one.  Each message before a bar takes a step of
    its own, and so does each handover into a child.  Known facts that no
    instance turns into a bare variable or merges with another take a
    step each to be learned; a step that undoes a send the state already
    holds (counted above) learns at most one of them."""
    items, sent = 0, []
    for s in state.strands:
        for it in s.items[:s.bar]:
            if isinstance(it, SignedMessage):
                items += 1
                if it.polarity == "+":
                    sent.append(it.payload)
            elif it.direction == "in":
                items += 1
    facts: list = []
    for f in state.facts:
        t = f.payload
        if f.kind == KNOWN and grammar.rigid(t) and \
                all(grammar.apart(t, u) for u in facts):
            facts.append(t)
    by_sends = sum(1 for t in facts
                   if any(not grammar.apart(m, t) for m in sent))
    return max(1, items + len(facts) - min(len(sent), by_sends))


def _silent_strand(state: SymbolicState, step) -> Optional[int]:
    """The strand whose send the step undid silently, if it did."""
    if step.rule != "send_silent":
        return None
    return next(si for si, (s, p) in
                enumerate(zip(state.strands, step.predecessor.strands))
                if p.bar != s.bar)


def _made_demands(step) -> Optional[tuple]:
    """The demands a strand introduction made, which the next step must
    use; None for other steps."""
    if not step.rule.startswith("intro_strand") or not step.demands:
        return None
    return step.demands


def unlearnable(state: SymbolicState, grammar) -> bool:
    """True when the state demands, or a strand of it has already
    received, a term the intruder cannot know yet according to a
    `grammar.Grammar`: no backward path leads from it to an initial
    state."""
    return grammar.condemns(
        [f.payload for f in state.facts if f.kind == KNOWN],
        [it.payload for s in state.strands for it in s.items[:s.bar]
         if isinstance(it, SignedMessage) and it.polarity == "-"],
        [f.payload for f in state.facts if f.kind == TO_LEARN])


def _finish(verdict, node, stats, t0, theory, complete,
            reason=None) -> SearchResult:
    stats = dict(stats)
    stats["verdict"] = verdict
    stats["memo_entries"] = memo_entries(theory)
    stats["complete"] = complete
    if reason:
        stats["reason"] = reason
    stats["wall_ms"] = int((time.monotonic() - t0) * 1000)
    trace = None
    if node is not None:
        trace = []
        while node is not None:
            trace.append(TraceStep(node.rule, node.state))
            node = node.parent
        trace.reverse()
        stats["depth"] = len(trace) - 1
    return SearchResult(verdict, trace, stats)


def trace_replay(result: SearchResult, spec: RuntimeSpec, mode: str) -> bool:
    """Re-derive every step of a found trace independently.

    Each state in the trace must be producible from its predecessor in the
    trace by a rule of the same name, up to canonical renaming, or be an
    instance of such a state: the reduced search case-splits on the
    variables of a step it takes.  A trace of instances still ends in an
    instance of the attack pattern when run forwards from its initial
    state.
    """
    if not result.found or not result.trace:
        return False
    th, leq = spec.theory, spec.signature.leq

    def modulo(p, t, b):
        return match_modulo(p, t, th, leq, b)

    def arrangement(state):
        return ([_layout(s) for s in state.strands],
                [f.kind for f in state.facts], len(state.diseqs))

    minter = Minter([t for step in result.trace for t in _terms(step.state)])
    for prev, nxt in zip(result.trace, result.trace[1:]):
        steps = backward_successors(prev.state, spec, mode, minter)
        want = state_key(nxt.state)
        # item for item and fact for fact; only the fresh values a step
        # mints anew may be renamed
        fixed = fresh_constants(_terms(prev.state))
        if not any(s.rule == nxt.rule and
                   (s.key == want or
                    arrangement(s.predecessor) == arrangement(nxt.state) and
                    _state_instance_of(nxt.state, s.predecessor, th, modulo,
                                       fixed=fixed))
                   for s in steps):
            return False
    return _goal(result.trace[-1].state)


def trace_to_dot(result: SearchResult) -> str:
    lines = ["digraph trace {", "  node [shape=box, fontname=monospace];"]
    trace = result.trace or []
    for i, step in enumerate(trace):
        label = _state_label(step.state).replace('"', "'")
        lines.append(f'  n{i} [label="{label}"];')
        if i > 0:
            rule = step.rule.replace('"', "'")
            lines.append(f'  n{i - 1} -> n{i} [label="{rule}"];')
    lines.append("}")
    return "\n".join(lines)


def _state_label(state: SymbolicState) -> str:
    parts = [f"depth {state.depth}"]
    for s in state.strands:
        parts.append(repr(s))
    for f in state.facts:
        parts.append(repr(f))
    return "\\n".join(parts)


# ------------------------------------------------------------ comparison

def _levels(start: SymbolicState, spec: RuntimeSpec, mode: str, depth: int,
            view=None):
    """The levels of the backward search tree to `depth`, breadth first:
    yields each level's set of state keys and its states not met before.
    `view` maps each state to the representation it is keyed by."""
    minter = Minter(_terms(start))
    seen = {state_key(start if view is None else view(start))}
    frontier = [start]
    yield set(seen), frontier
    for _ in range(depth):
        keys, nxt = set(), []
        for st in frontier:
            for step in backward_successors(st, spec, mode, minter):
                k = step.key if view is None else \
                    state_key(view(step.predecessor))
                keys.add(k)
                if k not in seen:
                    seen.add(k)
                    nxt.append(step.predecessor)
        yield keys, nxt
        frontier = nxt


def level_keys(start: SymbolicState, spec: RuntimeSpec, mode: str,
               depth: int, view=None) -> list:
    """Per-depth sets of canonical state keys of the backward search tree.

    `view` optionally maps each state to a common representation before
    keying (used to compare the explicit-synchronization rules against the
    abstract composition rules through the view translation).
    """
    return [keys for keys, _ in _levels(start, spec, mode, depth, view)]


def level_states(start: SymbolicState, spec: RuntimeSpec, mode: str,
                 depth: int):
    """Per-depth lists of distinct states of the backward search tree,
    computed one level at a time as they are taken, so a caller may stop
    early.  No state is pruned: this is the reference that the reductions
    of `reachability_search` are checked against."""
    return (states for _, states in _levels(start, spec, mode, depth))


def _side_by_side(here, there) -> tuple:
    """`(here(), there())`, with `there()` computed in a forked child
    process while this process computes `here()`.

    The child pickles `(True, value)`, or `(False, exception)` when
    `there()` raises, into a pipe and ends with `os._exit`, so it never
    flushes this process's buffers or runs its exit handlers; the value
    must pickle, and should be small.  This process reads the pipe to its
    end, then reaps the child, and raises the child's exception again with
    its type and message.  When `here()` raises, an interrupt included,
    the child is killed and reaped first.  Where the platform cannot fork,
    both run here, one after the other.  The package starts no threads,
    so the child is a safe copy of this process, warm memos included.
    """
    import pickle  # only a comparison pays for the import
    import signal

    if not hasattr(os, "fork"):
        return here(), there()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return here(), there()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                out = (True, there())
            except BaseException as exc:  # raised again by the parent
                out = (False, exc)
            with open(w, "wb") as f:
                pickle.dump(out, f)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with open(r, "rb") as f:
        try:
            mine = here()
            data = f.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise ChildProcessError(f"forked search ended with code {code} "
                                "and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return mine, value


def _timed_level_keys(*args, **kwargs) -> tuple:
    """`level_keys` and its wall time in milliseconds."""
    t0 = time.monotonic()
    levels = level_keys(*args, **kwargs)
    return levels, int((time.monotonic() - t0) * 1000)


def bisimulation_report(abs_start: SymbolicState, abs_spec: RuntimeSpec,
                        sync_start: SymbolicState, sync_spec: RuntimeSpec,
                        depth: int) -> dict:
    """Compare the abstract and synchronization rule sets step for step.

    Sync-side states are translated back to the abstract view; the two
    searches match when each depth level reaches exactly the same set of
    canonical states.  The two searches share nothing, so the sync side
    runs in a forked child process (`_side_by_side`) while the caller runs
    the abstract side, and only its level keys, tuples of strings and
    integers, come back.  `abstract_ms` and `sync_ms` give the wall time
    of each side, measured in the process that ran it.
    """
    (a_levels, a_ms), (s_levels, s_ms) = _side_by_side(
        lambda: _timed_level_keys(abs_start, abs_spec, ABSTRACT, depth),
        lambda: _timed_level_keys(sync_start, sync_spec, SYNC, depth,
                                  view=lambda st: trans_inv(st, sync_spec)))
    levels = []
    equivalent = True
    for d in range(depth + 1):
        a, s = a_levels[d], s_levels[d]
        ok = a == s
        equivalent = equivalent and ok
        levels.append({"depth": d, "abstract_states": len(a),
                       "sync_states": len(s),
                       "common": len(a & s), "matched": ok})
    return {"equivalent": equivalent, "depth": depth, "levels": levels,
            "abstract_ms": a_ms, "sync_ms": s_ms}
