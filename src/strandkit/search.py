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
import time
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

from .model import (
    KNOWN,
    TO_LEARN,
    Minter,
    SignedMessage,
    SymbolicState,
    SyncPoint,
    instantiate,
    is_initial,
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
from .terms import FRESH, App, FreshConst, Var, fresh_constants, term_key, \
    term_size
from .theory import canon, normalize
from .theory import memo_entries as theory_memo_entries
from .unify import match_modulo
from .unify import memo_entries as unify_memo_entries

# how many earlier states per structural bucket the subsumption check
# compares against; the matcher is quadratic in bucket size without a cap
_SUBSUME_SCAN_CAP = 48


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
    unify_branch: int = 512
    wall_seconds: Optional[float] = None
    # cap on the term size of intruder demands; None picks a default from
    # the protocol's own message sizes, 0 disables the cap.  Dropping an
    # oversized demand never fabricates an attack (traces are replayed
    # independently) but makes SecureFinite unclaimable, which the search
    # accounts for.
    max_fact_size: Optional[int] = None
    # peak resident-set cap in MiB; exceeding it yields Inconclusive instead
    # of letting the OS kill the process mid-search.
    max_rss_mb: Optional[int] = None


def _default_fact_cap(spec: RuntimeSpec) -> int:
    biggest = 1
    minter = Minter()
    for schema in spec.schemas.values():
        inst = instantiate(schema, minter)
        for it in inst.items:
            for t in item_terms(it):
                biggest = max(biggest, term_size(t))
    return 2 * biggest


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
        # the demands the strand introduction just undone made, and their
        # term keys
        self.demands = demands
        self.uses = None if demands is None else \
            frozenset(term_key(t) for t in demands)
        # a focused state allows fewer steps, so it is kept apart; an
        # unfocused one has the plain key, which the caller may pass in
        self.key = key if key is not None and focus is None and \
            demands is None else state_key(state, focus, demands)


def _goal(state: SymbolicState, lazy_vars: bool) -> bool:
    if not all(s.bar == 0 for s in state.strands):
        return False
    for f in state.facts:
        if f.kind == KNOWN:
            # a leftover demand for a bare variable is satisfiable by any
            # public value the intruder can produce on its own
            if lazy_vars and isinstance(f.payload, Var):
                continue
            return False
    return True


def _strand_shape(s) -> tuple:
    return (s.role, s.bar, len(s.items))


def _skeleton(state: SymbolicState) -> tuple:
    """Bucket key shared by a state and all of its instances."""
    return tuple(sorted(_strand_shape(s) for s in state.strands))


def _item_meta(it) -> tuple:
    if isinstance(it, SignedMessage):
        return ("msg", it.polarity)
    if isinstance(it, SyncPoint):
        return ("sync", it.direction, it.parents, it.children, it.mode)
    return ("param", it.direction)


def _state_instance_of(cand: SymbolicState, gen: SymbolicState, th, leq,
                       extra_facts: bool = False) -> bool:
    """True when cand is an instance of gen, up to fresh renaming.

    A conservative one-sided check: a True answer is always correct, a
    False answer may miss an instance (e.g. through hard AC matching).
    Dropping an instance of an explored state preserves every verdict:
    each backward step from the instance lifts to a step from the more
    general state, and a reachable initial state lifts to one at least as
    general, which is still initial.  With `extra_facts`, cand may carry
    facts beyond the instances of gen's: more demands and more terms still
    to be learned only make a state harder to reach.
    """
    if len(gen.strands) != len(cand.strands):
        return False
    if len(gen.facts) > len(cand.facts) if extra_facts \
            else len(gen.facts) < len(cand.facts):
        return False
    bnd: dict = {}  # Var -> Term and FreshConst -> FreshConst
    fresh_image: set = set()

    def bind(p, t, trail) -> bool:
        bnd[p] = t
        trail.append(p)
        return True

    def undo(trail) -> None:
        while trail:
            p = trail.pop()
            t = bnd.pop(p)
            if isinstance(p, FreshConst):
                fresh_image.discard(t)

    def match(p, t, trail) -> bool:
        if isinstance(p, Var):
            got = bnd.get(p)
            if got is not None:
                return got == t
            if not leq(t.sort, p.sort):
                return False
            return bind(p, t, trail)
        if isinstance(p, FreshConst):
            got = bnd.get(p)
            if got is not None:
                return got == t
            if not isinstance(t, FreshConst) or t in fresh_image:
                return False
            fresh_image.add(t)
            return bind(p, t, trail)
        if not isinstance(t, App) or not isinstance(p, App) or p.op != t.op:
            return False
        ax = th.axiom(p.op)
        if ax is not None and ax.assoc and ax.comm and len(p.args) != len(t.args):
            return _match_ac(p, t, trail)
        if len(p.args) != len(t.args):
            return False
        for pa, ta in zip(p.args, t.args):
            if not match(pa, ta, trail):
                return False
        return True

    def _match_ac(p, t, trail) -> bool:
        # flattened canonical argument lists; at most one collector
        # variable absorbs the leftover arguments
        pargs = [a for a in p.args]
        free = [a for a in pargs if isinstance(a, Var) and a not in bnd]
        if len(free) != 1:
            return False
        var = free[0]
        pargs.remove(var)
        if len(pargs) > len(t.args):
            return False

        def place(i, remaining, inner) -> bool:
            if i == len(pargs):
                if not remaining:
                    unit = th.axiom(p.op).unit
                    return unit is not None and match(var, unit, inner)
                rest = remaining[0] if len(remaining) == 1 else \
                    canon(App(p.op, tuple(remaining), p.sort), th)
                return match(var, rest, inner)
            for j, ta in enumerate(remaining):
                sub: list = []
                if match(pargs[i], ta, sub):
                    if place(i + 1, remaining[:j] + remaining[j + 1:], inner):
                        inner.extend(sub)
                        return True
                undo(sub)
            return False

        inner: list = []
        if place(0, list(t.args), inner):
            trail.extend(inner)
            return True
        undo(inner)
        return False

    def match_terms(p, t, trail) -> bool:
        return match(canon(p, th), canon(t, th), trail)

    def match_strand(gs, cs, trail) -> bool:
        for gi, ci in zip(gs.items, cs.items):
            if _item_meta(gi) != _item_meta(ci):
                return False
            for pt, tt in zip(item_terms(gi), item_terms(ci)):
                if not match_terms(pt, tt, trail):
                    return False
        return True

    groups: dict = {}
    for s in gen.strands:
        groups.setdefault(_strand_shape(s), [[], []])[0].append(s)
    for s in cand.strands:
        entry = groups.get(_strand_shape(s))
        if entry is None:
            return False
        entry[1].append(s)
    group_list = list(groups.values())
    if any(len(gs) != len(cs) for gs, cs in group_list):
        return False

    cand_diseq_keys = {
        tuple(sorted((term_key(normalize(l, th)), term_key(normalize(r, th)))))
        for (l, r) in cand.diseqs
    }

    def apply_bnd(t):
        if isinstance(t, (Var, FreshConst)):
            return bnd.get(t, t)
        if isinstance(t, App) and t.args:
            return App(t.op, tuple(apply_bnd(a) for a in t.args), t.sort)
        return t

    def diseqs_hold() -> bool:
        for (l, r) in gen.diseqs:
            key = tuple(sorted((term_key(normalize(apply_bnd(l), th)),
                                term_key(normalize(apply_bnd(r), th)))))
            if key not in cand_diseq_keys:
                return False
        return True

    gfacts = sorted(gen.facts, key=lambda f: -len(term_key(canon(f.payload, th))))

    def match_facts(i, used) -> bool:
        if i == len(gfacts):
            return (extra_facts or len(used) == len(cand.facts)) and \
                diseqs_hold()
        f = gfacts[i]
        for j, cf in enumerate(cand.facts):
            if cf.kind != f.kind:
                continue
            trail: list = []
            if match_terms(f.payload, cf.payload, trail) and \
                    match_facts(i + 1, used | {j}):
                return True
            undo(trail)
        return False

    def match_groups(k) -> bool:
        if k == len(group_list):
            return match_facts(0, frozenset())
        gs, cs = group_list[k]
        for perm in permutations(cs):
            trail: list = []
            if all(match_strand(g, c, trail) for g, c in zip(gs, perm)) and \
                    match_groups(k + 1):
                return True
            undo(trail)
        return False

    return match_groups(0)


def reachability_search(start: SymbolicState, spec: RuntimeSpec, mode: str,
                        budget: Optional[SearchBudget] = None,
                        lazy_vars: bool = True,
                        reductions: bool = True) -> SearchResult:
    """Backward search from `start` for an initial state, shallowest first.

    Without `reductions` the search is breadth-first.  With them (the
    default) sound state-space reductions drop predecessors: states that
    demand a term the intruder cannot know yet (see `grammar`); steps
    other than a pending receive (input priority); after a silent send,
    steps of other strands; after a strand introduction, steps that use
    none of the demands it made; leaf introductions and the silent sends
    that empty a strand before the end; sums explained other than through
    their atoms when every known sum is built from known atoms; and
    states that are instances of a kept state no deeper, even with extra
    facts.  States are then taken in the order of their depth plus a
    lower bound on the steps they still need (`steps_left`), so the
    first initial state found is still a shallowest one, and states that
    cannot reach one within the depth bound wait until the rest is done.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode}")
    budget = budget or SearchBudget()
    minter = Minter()
    t0 = time.monotonic()
    fact_cap = budget.max_fact_size
    if fact_cap is None:
        fact_cap = _default_fact_cap(spec)
    stats = {"states_explored": 0, "states_enqueued": 1, "deduped": 0,
             "subsumed": 0, "grammar_pruned": 0, "order_pruned": 0,
             "size_pruned": 0, "incomplete_unifications": 0,
             "max_depth_reached": 0}
    root = _Node(start, "attack-pattern", None)

    def finish(*args, **kwargs) -> SearchResult:
        return _finish(*args, theory=spec.theory, **kwargs)

    if _goal(start, lazy_vars):
        return finish(ATTACK_FOUND, root, stats, t0, complete=True)
    grammar = None
    if reductions:
        from .grammar import Grammar  # only searches need it
        grammar = Grammar(spec, mode, start.strands)
    if grammar is not None and unlearnable(start, grammar):
        stats["grammar_pruned"] += 1
        return finish(SECURE_FINITE, None, stats, t0, complete=True)
    splits = grammar is not None and grammar.sums_closed
    order = itertools.count()

    def push(node) -> None:
        depth = node.state.depth
        bound = depth if grammar is None else \
            depth + steps_left(node.state, grammar)
        heapq.heappush(frontier, (bound, -depth, next(order), node))

    frontier: list = []
    push(root)
    best = {root.key: 0}  # the least depth each key was reached at
    th, leq = spec.theory, spec.signature.leq
    kept: dict = {_skeleton(start): [start]}
    truncated = False  # depth or state budget cut off unexplored states
    while frontier:
        if budget.wall_seconds is not None and \
                time.monotonic() - t0 > budget.wall_seconds:
            return finish(INCONCLUSIVE, None, stats, t0, complete=False,
                          reason="wall clock budget exhausted")
        node = heapq.heappop(frontier)[-1]
        state = node.state
        if best[node.key] < state.depth:
            continue  # reached again at a lesser depth since
        if budget.max_rss_mb is not None and \
                stats["states_explored"] % 64 == 0 and \
                _peak_rss_mb() > budget.max_rss_mb:
            return finish(INCONCLUSIVE, None, stats, t0, complete=False,
                          reason="memory budget exhausted")
        if state.depth >= budget.max_depth:
            truncated = True
            continue
        stats["states_explored"] += 1
        steps = backward_successors(state, spec, mode, minter,
                                    unify_branch=budget.unify_branch,
                                    stats=stats, lazy_vars=lazy_vars,
                                    max_fact_size=fact_cap,
                                    in_order=reductions,
                                    xor_splits=splits, focus=node.focus,
                                    uses=node.uses)
        for step in steps:
            pred = step.predecessor
            focus = demands = None
            if reductions:
                focus = _silent_strand(state, step)
                demands = _made_demands(step) if focus is None \
                    else node.demands
            child = _Node(pred, step.rule, node, focus, demands, step.key)
            if best.get(child.key, pred.depth + 1) <= pred.depth:
                stats["deduped"] += 1
                continue
            best[child.key] = pred.depth
            if _goal(pred, lazy_vars):
                complete = not truncated and \
                    stats["incomplete_unifications"] == 0 and \
                    stats["size_pruned"] == 0
                return finish(ATTACK_FOUND, child, stats, t0,
                              complete=complete)
            if grammar is not None and unlearnable(pred, grammar):
                stats["grammar_pruned"] += 1
                continue
            bucket = kept.setdefault(_skeleton(pred), [])
            nf = len(pred.facts)
            # bound the scan so subsumption cost stays linear overall
            if any((len(g.facts) <= nf if reductions else len(g.facts) >= nf)
                   and g.depth <= pred.depth
                   and _state_instance_of(pred, g, th, leq,
                                          extra_facts=reductions)
                   for g in bucket[:_SUBSUME_SCAN_CAP]):
                stats["subsumed"] += 1
                continue
            if focus is None and demands is None:
                bucket.append(pred)  # a focused state explores too little
            stats["states_enqueued"] += 1
            stats["max_depth_reached"] = max(stats["max_depth_reached"],
                                             pred.depth)
            if stats["states_enqueued"] >= budget.max_states:
                return finish(INCONCLUSIVE, None, stats, t0, complete=False,
                              reason="state budget exhausted")
            push(child)
    if truncated or stats["incomplete_unifications"] > 0:
        return finish(INCONCLUSIVE, None, stats, t0, complete=False,
                      reason="depth bound reached")
    if stats["size_pruned"] > 0:
        return finish(INCONCLUSIVE, None, stats, t0, complete=False,
                      reason="demand size cap pruned states")
    return finish(SECURE_FINITE, None, stats, t0, complete=True)


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


def _finish(verdict, node, stats, t0, complete, reason=None,
            theory=None) -> SearchResult:
    stats = dict(stats)
    stats["verdict"] = verdict
    if theory is not None:
        stats["memo_entries"] = {**theory_memo_entries(theory),
                                 **unify_memo_entries(theory)}
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


def trace_replay(result: SearchResult, spec: RuntimeSpec, mode: str,
                 lazy_vars: bool = True) -> bool:
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
    minter = Minter()
    for prev, nxt in zip(result.trace, result.trace[1:]):
        steps = backward_successors(prev.state, spec, mode, minter,
                                    lazy_vars=lazy_vars)
        want = state_key(nxt.state)
        if not any(s.rule == nxt.rule and
                   (s.key == want or
                    _instance_modulo(nxt.state, s.predecessor, prev.state,
                                     spec))
                   for s in steps):
            return False
    return _goal(result.trace[-1].state, lazy_vars)


def _instance_modulo(cand: SymbolicState, gen: SymbolicState,
                     before: SymbolicState, spec: RuntimeSpec) -> bool:
    """cand is an instance of gen modulo the theory, item for item and
    fact for fact; fresh values gen minted anew may be renamed apart."""
    if [(s.role, s.bar, tuple(map(_item_meta, s.items))) for s in gen.strands] != \
            [(s.role, s.bar, tuple(map(_item_meta, s.items))) for s in cand.strands] \
            or [f.kind for f in gen.facts] != [f.kind for f in cand.facts] \
            or len(gen.diseqs) != len(cand.diseqs):
        return False

    def terms(state):
        out = [t for s in state.strands for it in s.items for t in item_terms(it)]
        out += [f.payload for f in state.facts]
        return out + [t for pair in state.diseqs for t in pair]

    old = fresh_constants(tuple(terms(before)))
    new = sorted(fresh_constants(tuple(terms(gen))) - old, key=term_key)
    ren = {c: Var(f"%fresh{k}", FRESH) for k, c in enumerate(new)}
    pattern = App("%tup", tuple(_unfresh(t, ren) for t in terms(gen)), "Msg")
    target = App("%tup", tuple(terms(cand)), "Msg")
    for sg in match_modulo(pattern, target, spec.theory,
                           leq=spec.signature.leq):
        images = [sg(v) for v in ren.values()]
        if all(isinstance(c, FreshConst) and c not in old for c in images) \
                and len(set(images)) == len(images):
            return True
    return False


def _unfresh(t, ren: dict):
    if isinstance(t, FreshConst):
        return ren.get(t, t)
    if isinstance(t, App) and t.args:
        return App(t.op, tuple(_unfresh(a, ren) for a in t.args), t.sort)
    return t


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

def level_keys(start: SymbolicState, spec: RuntimeSpec, mode: str,
               depth: int, view=None, lazy_vars: bool = True) -> list:
    """Per-depth sets of canonical state keys of the backward search tree.

    `view` optionally maps each state to a common representation before
    keying (used to compare the explicit-synchronization rules against the
    abstract composition rules through the view translation).
    """
    minter = Minter()
    conv = view or (lambda st: st)
    levels = [{state_key(conv(start))}]
    frontier = [start]
    seen = {state_key(conv(start))}
    for _ in range(depth):
        nxt = []
        keys = set()
        for st in frontier:
            for step in backward_successors(st, spec, mode, minter,
                                            lazy_vars=lazy_vars):
                k = step.key if view is None else \
                    state_key(conv(step.predecessor))
                keys.add(k)
                if k not in seen:
                    seen.add(k)
                    nxt.append(step.predecessor)
        levels.append(keys)
        frontier = nxt
    return levels


def level_states(start: SymbolicState, spec: RuntimeSpec, mode: str,
                 depth: int, lazy_vars: bool = True) -> list:
    """Per-depth lists of distinct states of the backward search tree."""
    minter = Minter()
    levels = [[start]]
    frontier = [start]
    seen = {state_key(start)}
    for _ in range(depth):
        nxt = []
        for st in frontier:
            for step in backward_successors(st, spec, mode, minter,
                                            lazy_vars=lazy_vars):
                k = step.key
                if k not in seen:
                    seen.add(k)
                    nxt.append(step.predecessor)
        levels.append(nxt)
        frontier = nxt
    return levels


def bisimulation_report(abs_start: SymbolicState, abs_spec: RuntimeSpec,
                        sync_start: SymbolicState, sync_spec: RuntimeSpec,
                        depth: int) -> dict:
    """Compare the abstract and synchronization rule sets step for step.

    Sync-side states are translated back to the abstract view; the two
    searches match when each depth level reaches exactly the same set of
    canonical states.
    """
    a_levels = level_keys(abs_start, abs_spec, ABSTRACT, depth)
    s_levels = level_keys(sync_start, sync_spec, SYNC, depth,
                          view=lambda st: trans_inv(st, sync_spec))
    levels = []
    equivalent = True
    for d in range(depth + 1):
        a, s = a_levels[d], s_levels[d]
        ok = a == s
        equivalent = equivalent and ok
        levels.append({"depth": d, "abstract_states": len(a),
                       "sync_states": len(s),
                       "common": len(a & s), "matched": ok})
    return {"equivalent": equivalent, "depth": depth, "levels": levels}
