"""Transition rules over symbolic states, run backwards and forwards.

Backward search runs the protocol rules in reverse from an attack pattern
toward an initial state.  Receives become intruder-knowledge demands,
sends either pass silently or mark the point where the intruder learned a
message, and composition points pair a finished parent with a just-started
child, either an existing strand or a newly introduced one.

There are three rule sets: `basic` (messages only), `abstract`
(parameter-list handover driven by the composition relation) and `sync`
(explicit synchronization points).  The last two share one set of
composition rules; they differ only in the interface item they hand over
through, their rule names (`_COMPOSE`), which parent may hand over to which
child under which modes (`_handover`) and which parents a new-parent rule
tries (`_parent_roles`).  The `trans`/`trans_inv` pair converts states
between the two views, through `model.sync_point`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from .model import (
    KNOWN,
    MODE_ONE_MANY,
    TO_LEARN,
    IntruderFact,
    Minter,
    ParamList,
    SignedMessage,
    StrandInstance,
    SymbolicState,
    SyncPoint,
    apply_subst_state,
    instantiate,
    parents_of,
    state_key,
    sync_point,
)
from .terms import App, FRESH, IDENTITY, Signature, Subst, Term, _apply, \
    is_ground, term_size, tup
from .terms import Var as VarType
from .theory import EquationalTheory, apart, eq_modulo, normalize
from .unify import Memo, match_modulo, unify_modulo

BASIC = "basic"
ABSTRACT = "abstract"
SYNC = "sync"
MODES = (BASIC, ABSTRACT, SYNC)


@dataclass
class RuntimeSpec:
    """Everything the semantics needs: signature, theory, role schemas and
    the composition relation."""

    name: str
    signature: Signature
    theory: EquationalTheory
    schemas: dict  # role -> StrandSchema
    triples: list = field(default_factory=list)


@dataclass(frozen=True)
class BackwardStep:
    rule: str
    unifier: Subst
    predecessor: SymbolicState
    # with `in_order`, the messages the step demands anew, instantiated
    # and normalized
    demands: tuple = ()
    # state_key(predecessor), or of its view (see backward_successors)
    key: tuple = None


def _retract(state: SymbolicState, si: int) -> SymbolicState:
    strands = list(state.strands)
    strands[si] = strands[si].with_bar(strands[si].bar - 1)
    return replace(state, strands=tuple(strands))


def _with_bars(state: SymbolicState, updates: dict) -> SymbolicState:
    strands = list(state.strands)
    for si, bar in updates.items():
        strands[si] = strands[si].with_bar(bar)
    return replace(state, strands=tuple(strands))


def _add_fact(state: SymbolicState, fact: IntruderFact) -> SymbolicState:
    if fact in state.facts:
        return state
    return replace(state, facts=state.facts + (fact,))


def _flip_fact(state: SymbolicState, fi: int) -> SymbolicState:
    facts = list(state.facts)
    facts[fi] = IntruderFact(TO_LEARN, facts[fi].payload)
    return replace(state, facts=tuple(facts))


def _add_strand(state: SymbolicState, inst: StrandInstance) -> SymbolicState:
    return replace(state, strands=state.strands + (inst,))


def backward_successors(state: SymbolicState, spec: RuntimeSpec, mode: str,
                        minter: Minter,
                        stats: dict = None,
                        max_fact_size: int = 0,
                        in_order: bool = False,
                        xor_splits: bool = False,
                        focus: Optional[int] = None,
                        uses: Optional[frozenset] = None,
                        memo: Optional[Memo] = None,
                        view=None) -> list:
    """All one-step predecessors of a symbolic state, as BackwardSteps.

    The result order is deterministic for a given state: strand order,
    then fact order, then role order of introduced schemas.

    `max_fact_size` (0 = unbounded) drops predecessors whose intruder
    demands grow beyond that term size; dropping makes the step set
    incomplete (recorded in stats["size_pruned"]), never unsound.

    `in_order` undoes steps in an order that loses no initial state:
    - Inputs first: when a strand's last executed item is a receive, only
      that receive is undone.  Every backward path to an initial state
      undoes it at some point, and undoing it first leaves every other
      step possible.
    - Steps that commute with every later one come last of all: a strand
      introduction that demands nothing a later step must explain (a
      leaf) only once every strand is done but for a first send, and a
      silent send that empties its strand only once, in addition, no
      demand is left.  With `focus` on a strand such a send emptied, only
      more such sends follow.

    `focus` restricts the steps to those of one strand, the one whose
    send was just undone silently.  A silent send commutes with every step
    of other strands and with strand introduction, so undoing it right
    before the next step of its own strand loses nothing; one that empties
    its strand has no next step, and `in_order` puts it last of all.

    `xor_splits` explains a ground exclusive-or sum by a summing send only
    through the ways of sharing the sum's atoms among its inputs, instead
    of the most general unifiers, which sum the fact with fresh variables.
    This loses no initial state within the same depth when every sum the
    intruder can know has atoms it knew before (no send builds a sum from
    values it did not receive), as `grammar.Grammar.sums_closed` checks:
    the atoms are then learned anyway and summed directly.

    `uses` (with `in_order`) holds the demands a strand introduction just
    made; only steps that use one of them follow: a step that learns one,
    explains it, merges a receive into it or demands it again, and a
    silent send before such a step.  An introduction commutes with every
    step that uses none of its demands, so it can always be undone right
    before the first step that does.

    Each unification is answered by a clash, then the memo, then the loop
    over variants (`unify`).  Strand introduction tests a send for a
    clash with the fact before it instantiates the schema, and not again
    on the instance.  `memo` holds the unification memos of the search
    that asks.

    Each step's `key` is the `state_key` of its predecessor, or of
    `view(predecessor)` when a `view` is given, and steps of one rule
    with equal keys are given once.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode}")
    th = spec.theory
    leq = spec.signature.leq
    steps: list = []
    seen_keys: set = set()

    def drop() -> None:
        if stats is not None:
            stats["order_pruned"] = stats.get("order_pruned", 0) + 1

    def emit(rule: str, sigma: Subst, pred: SymbolicState,
             fi: Optional[int] = None, added: tuple = ()):
        made = ()
        if in_order:
            if uses is not None and rule != "send_silent" and \
                    not _uses_one(state, th, uses, sigma, fi, added):
                return drop()
            made = tuple(t for t in (normalize(sigma(a), th) for a in added)
                         if not isinstance(t, VarType))
            if rule.startswith("intro_strand") and not made and not end:
                return drop()  # a leaf waits until the end
        pred = apply_subst_state(pred, sigma, th, state.depth + 1)
        if pred is None:
            return
        if max_fact_size and any(
                f.kind == KNOWN and term_size(f.payload) > max_fact_size
                for f in pred.facts):
            if stats is not None:
                stats["size_pruned"] = stats.get("size_pruned", 0) + 1
            return
        pkey = state_key(pred if view is None else view(pred))
        key = (rule.split(":")[0], pkey)
        if key in seen_keys:
            return
        seen_keys.add(key)
        steps.append(BackwardStep(rule, sigma, pred, made, pkey))

    # a demand for a bare variable is trivially satisfiable by public
    # data, so it is never used to drive explanations or merges
    active = [(fi, f) for fi, f in enumerate(state.facts)
              if f.kind == KNOWN and not isinstance(f.payload, VarType)]

    pending = None
    if in_order:
        pending = next((si for si, s in enumerate(state.strands)
                        if s.bar and isinstance(s.items[s.bar - 1], SignedMessage)
                        and s.items[s.bar - 1].polarity == "-"), None)
    # every strand done but for a send that would leave it empty
    end = all(s.bar == 0 or (s.bar == 1 and _is_send(s.items[0]))
              for s in state.strands)
    emptied = in_order and focus is not None and \
        state.strands[focus].bar == 0
    if emptied:
        focus = None  # another emptying send may follow

    # message rules (reversed receive/send)
    for si, s in enumerate(state.strands):
        if s.bar == 0 or pending not in (None, si) or focus not in (None, si):
            continue
        item = s.items[s.bar - 1]
        if not isinstance(item, SignedMessage):
            continue
        m = item.payload
        if item.polarity == "-":
            emit("recv", IDENTITY,
                 _add_fact(_retract(state, si), IntruderFact(KNOWN, m)),
                 added=(m,))
            for fi, f in active:
                for sg in unify_modulo(m, f.payload, th, leq, memo):
                    if not sg.is_identity():
                        emit("recv", sg, _retract(state, si), fi)
            continue
        last = in_order and s.bar == 1  # the send would empty the strand
        if emptied and not last:
            continue
        if not last or (end and not active):
            emit("send_silent", IDENTITY, _retract(state, si))
        if emptied:
            continue
        for fi, f in active:
            for sg in unify_modulo(m, f.payload, th, leq, memo):
                emit("send_learn", sg, _flip_fact(_retract(state, si), fi),
                     fi)

    if pending is not None or emptied:
        return steps

    # composition rules, driven from a child whose bar sits right after
    # its input interface
    if mode in _COMPOSE and not (in_order and uses is not None):
        for ci, c in enumerate(state.strands):
            if c.bar == 1 and focus in (None, ci):
                _compose_rules(state, spec, mode, ci, emit, minter, memo)

    if focus is not None:
        return steps

    # reversed strand introduction: a known fact is explained by a schema's
    # positive message in one step; the strand itself never enters the
    # state, only the demands for the messages it would have received
    # first.  Schemas whose prefix contains an interface item are excluded:
    # they can only run after a composition handover.
    for fi, f in active:
        for role in sorted(spec.schemas):
            schema = spec.schemas[role]
            for idx, it in enumerate(schema.items):
                if not isinstance(it, SignedMessage):
                    break  # interface item before this send
                if it.polarity != "+" or apart(it.payload, f.payload, th):
                    continue  # no instance of this send is the fact
                inst = instantiate(schema, minter, bar=idx)
                demands = [x.payload for x in inst.items[:idx]
                           if x.polarity == "-"]
                split = _atom_splits(inst.items[idx].payload, demands,
                                     f.payload, th) if xor_splits else None
                for sg in split if split is not None else \
                        unify_modulo(inst.items[idx].payload, f.payload, th,
                                     leq, memo, clash_tested=True):
                    pred = _flip_fact(state, fi)
                    for d in demands:
                        pred = _add_fact(pred, IntruderFact(KNOWN, d))
                    emit(f"intro_strand:{role}", sg, pred, fi, tuple(demands))
    return steps


def _is_send(item) -> bool:
    return isinstance(item, SignedMessage) and item.polarity == "+"


def _uses_one(state: SymbolicState, th: EquationalTheory, uses: frozenset,
              sigma: Subst, fi: Optional[int], added: tuple) -> bool:
    """Whether a step that learns, explains or merges into fact `fi` (if
    any) and demands `added` under `sigma` uses a demand in `uses`: it
    acts on that fact, or demands a message that the fact becomes."""
    if fi is not None and state.facts[fi].payload in uses:
        return True
    if not added:
        return False
    mine = {normalize(sigma(f.payload), th) for f in state.facts
            if f.kind == KNOWN and f.payload in uses}
    return any(normalize(sigma(a), th) in mine for a in added)


def _atom_splits(msg: Term, demands: list, fact: Term,
                 th: EquationalTheory):
    """The ways a send that sums the messages it received yields a ground
    sum, each received message a sum of some of the sum's atoms; None when
    msg or fact has another shape."""
    if not (isinstance(msg, App) and msg.op in th.nilpotent
            and isinstance(fact, App) and fact.op == msg.op
            and is_ground(fact)):
        return None
    inputs = list(msg.args)
    if len(set(inputs)) != len(inputs) or set(inputs) != set(demands) or \
            not all(isinstance(v, VarType) for v in inputs):
        return None
    atoms = fact.args
    out = []
    for owner in itertools.product(range(len(inputs)), repeat=len(atoms)):
        parts = [[a for a, o in zip(atoms, owner) if o == k]
                 for k in range(len(inputs))]
        if any(not p for p in parts):
            continue  # an input of zero just passes the sum on
        out.append(Subst({v: p[0] if len(p) == 1 else
                          App(msg.op, tuple(p), fact.sort)
                          for v, p in zip(inputs, parts)}, _trusted=True))
    return out


# ----------------------------------------------------------- composition

class _Rules(NamedTuple):
    """The interface item class a composition mode hands over through, and
    the names of its three rules."""

    kind: type
    compose: str
    one_many: str
    new_parent: str


_COMPOSE = {
    SYNC: _Rules(SyncPoint, "sync_compose", "sync_1many", "sync_new_parent"),
    ABSTRACT: _Rules(ParamList, "compose_11", "compose_1many",
                     "compose_new_parent"),
}


def _interface(mode: str, item, direction: str) -> bool:
    """Whether `item` is an interface of `direction` that `mode` composes
    through."""
    rules = _COMPOSE.get(mode)
    return rules is not None and isinstance(item, rules.kind) and \
        item.direction == direction


def _handover(spec: RuntimeSpec, mode: str, parent_role: str, out_item,
              child_role: str, in_item) -> tuple:
    """The modes under which a `parent_role` strand ending in `out_item`
    may hand over to a `child_role` strand starting with `in_item`; empty
    when it may not.  The sync rules read the synchronization points' own
    roles and mode, the abstract rules the composition relation."""
    if not (_interface(mode, out_item, "out")
            and _interface(mode, in_item, "in")):
        return ()
    if mode == ABSTRACT:
        return tuple(m for (a, c, m) in spec.triples
                     if a == parent_role and c == child_role)
    if parent_role in in_item.parents and child_role in out_item.children \
            and out_item.mode == in_item.mode:
        return (in_item.mode,)
    return ()


def _parent_roles(spec: RuntimeSpec, mode: str, child_role: str,
                  in_item) -> tuple:
    """The roles that may hand over to a `child_role` strand starting with
    `in_item`, in the order the new-parent rule introduces them, which
    fixes the fresh values it mints."""
    if not _interface(mode, in_item, "in"):
        return ()
    if mode == ABSTRACT:
        return tuple(sorted(parents_of(spec.triples, child_role)))
    return in_item.parents


def _compose_rules(state, spec, mode, ci, emit, minter, memo):
    """Undo a handover to strand `ci`, whose bar sits right after its
    input interface: from a parent in the state that hands over once
    (its bar goes back) or to many (it stays), or from a new parent."""
    rules = _COMPOSE[mode]
    th, leq = spec.theory, spec.signature.leq
    c = state.strands[ci]
    head = c.items[0]
    for pi, p in enumerate(state.strands):
        if pi == ci or not p.items:
            continue
        last = p.items[-1]
        modes = _handover(spec, mode, p.role, last, c.role, head)
        if not modes:
            continue
        if p.bar == len(p.items):
            for sg in unify_modulo(tup(last.payload), tup(head.payload),
                                   th, leq, memo):
                emit(rules.compose, sg,
                     _with_bars(state, {pi: len(p.items) - 1, ci: 0}))
        if MODE_ONE_MANY in modes and p.bar == len(p.items) - 1:
            for sg in unify_modulo(tup(last.payload), tup(head.payload),
                                   th, leq, memo):
                emit(rules.one_many, sg, _with_bars(state, {ci: 0}))
    for a in _parent_roles(spec, mode, c.role, head):
        schema = spec.schemas.get(a)
        if schema is None or not schema.items or \
                not _handover(spec, mode, a, schema.items[-1], c.role, head):
            continue
        inst = instantiate(schema, minter, bar=len(schema.items) - 1)
        for sg in unify_modulo(tup(inst.items[-1].payload),
                               tup(head.payload), th, leq, memo):
            emit(f"{rules.new_parent}:{a}", sg,
                 _with_bars(_add_strand(state, inst), {ci: 0}))


# --------------------------------------------------------------- forward

@dataclass(frozen=True)
class ForwardStep:
    """One forward rule firing.  `strands` are the indices, in the state
    fired from, of the strands the rule moves: `(si,)` for a message rule,
    `(parent, child)` for a composition rule and `()` for a strand
    introduction, which moves none."""

    rule: str
    successor: SymbolicState
    strands: tuple


def forward_step(state: SymbolicState, spec: RuntimeSpec, mode: str,
                 rules: tuple = None) -> list:
    """All one-step successors of a (typically ground) state.

    `rules` optionally restricts the computation to the named rule
    families (base rule names, without the `:role` suffix)."""

    def wanted(*names):
        return rules is None or any(n in rules for n in names)

    th = spec.theory
    out: list = []
    known = [(fi, f) for fi, f in enumerate(state.facts) if f.kind == KNOWN]
    to_learn = [(fi, f) for fi, f in enumerate(state.facts) if f.kind == TO_LEARN]

    def advance(si):
        strands = list(state.strands)
        strands[si] = strands[si].with_bar(strands[si].bar + 1)
        return replace(state, strands=tuple(strands))

    for si, s in enumerate(state.strands):
        if s.bar >= len(s.items):
            continue
        item = s.items[s.bar]
        if isinstance(item, SignedMessage):
            if item.polarity == "-":
                if wanted("recv") and any(
                        eq_modulo(f.payload, item.payload, th) for _, f in known):
                    out.append(ForwardStep("recv", advance(si), (si,)))
            else:
                if wanted("send_silent"):
                    out.append(ForwardStep("send_silent", advance(si), (si,)))
                if wanted("send_learn"):
                    for fi, f in to_learn:
                        if eq_modulo(f.payload, item.payload, th):
                            nxt = advance(si)
                            facts = list(nxt.facts)
                            facts[fi] = IntruderFact(KNOWN, facts[fi].payload)
                            out.append(ForwardStep(
                                "send_learn", replace(nxt, facts=tuple(facts)),
                                (si,)))
    # strand introduction read forwards: a pending fact becomes known when
    # some schema's positive message produces it from already-known parts
    if wanted("intro_strand"):
        out.extend(_forward_intro(state, spec))
    named = _COMPOSE.get(mode)
    if named and wanted(named.compose, named.one_many, named.new_parent):
        out.extend(_forward_compose(state, spec, mode))
    return out


def _forward_intro(state: SymbolicState, spec: RuntimeSpec) -> list:
    th = spec.theory
    leq = spec.signature.leq
    known = [f.payload for f in state.facts if f.kind == KNOWN]
    out: list = []
    for fi, f in enumerate(state.facts):
        if f.kind != TO_LEARN:
            continue
        for role in sorted(spec.schemas):
            schema = spec.schemas[role]
            minter = Minter()
            for idx, it in enumerate(schema.items):
                if not isinstance(it, SignedMessage):
                    break  # interface item: runs only after a handover
                if it.polarity != "+":
                    continue
                inst = instantiate(schema, minter, bar=idx)
                # the deduction may be performed by a strand instance whose
                # own fresh values already occur in the state, so they must
                # stay bindable rather than minted anew
                table = {fc: VarType(f"%f{fc.hint}{fc.ident}", FRESH)
                         for fc in inst.fresh_ids}
                payload = _apply(table, inst.items[idx].payload)
                demands = [_apply(table, x.payload) for x in inst.items[:idx]
                           if x.polarity == "-"]
                produced = False
                for sg in match_modulo(payload, f.payload, th, leq=leq):
                    if _demands_met([sg(d) for d in demands], known, th, leq):
                        facts = list(state.facts)
                        facts[fi] = IntruderFact(KNOWN, f.payload)
                        out.append(ForwardStep(
                            f"intro_strand:{role}",
                            replace(state, facts=tuple(facts)), ()))
                        produced = True
                        break
                if produced:
                    break
    return out


def _demands_met(demands: list, known: list, th: EquationalTheory, leq) -> bool:
    """Each demanded message must be producible as a known fact, under a
    consistent instantiation of the leftover schema variables."""
    if not demands:
        return True
    d, rest = demands[0], demands[1:]
    for k in known:
        for sg in match_modulo(d, k, th, leq=leq):
            if _demands_met([sg(r) for r in rest], known, th, leq):
                return True
    return False


def _forward_compose(state: SymbolicState, spec: RuntimeSpec, mode: str) -> list:
    th = spec.theory
    rules = _COMPOSE[mode]
    out: list = []
    for ci, c in enumerate(state.strands):
        if c.bar != 0 or not c.items:
            continue
        head = c.items[0]
        for pi, p in enumerate(state.strands):
            if pi == ci or not p.items or p.bar != len(p.items) - 1:
                continue
            last = p.items[-1]
            modes = _handover(spec, mode, p.role, last, c.role, head)
            if not modes or not _payloads_equal(last.payload, head.payload, th):
                continue
            strands = list(state.strands)
            strands[ci] = strands[ci].with_bar(1)
            strands[pi] = strands[pi].with_bar(len(p.items))
            out.append(ForwardStep(rules.compose,
                                   replace(state, strands=tuple(strands)),
                                   (pi, ci)))
            if MODE_ONE_MANY in modes:
                strands = list(state.strands)
                strands[ci] = strands[ci].with_bar(1)
                out.append(ForwardStep(rules.one_many,
                                       replace(state, strands=tuple(strands)),
                                       (pi, ci)))
            # the generated new-parent rule, run forwards: the parent is
            # consumed by the handover
            strands = [st for sj, st in enumerate(state.strands) if sj != pi]
            cj = ci if ci < pi else ci - 1
            strands[cj] = c.with_bar(1)
            out.append(ForwardStep(f"{rules.new_parent}:{p.role}",
                                   replace(state, strands=tuple(strands)),
                                   (pi, ci)))
    return out


def _payloads_equal(p1: tuple, p2: tuple, th: EquationalTheory) -> bool:
    return len(p1) == len(p2) and all(eq_modulo(a, b, th) for a, b in zip(p1, p2))


# ---------------------------------------------------- state translation

def trans(state: SymbolicState, spec: RuntimeSpec) -> SymbolicState:
    """Abstract view to synchronization view; bar positions are kept."""
    strands = tuple(
        replace(s, items=tuple(sync_point(s.role, it, spec.triples)
                               for it in s.items))
        for s in state.strands)
    return replace(state, strands=strands)


def trans_inv(state: SymbolicState, spec: RuntimeSpec) -> SymbolicState:
    """Synchronization view back to the abstract view."""
    strands = tuple(
        replace(s, items=tuple(
            ParamList(it.direction, it.payload) if isinstance(it, SyncPoint) else it
            for it in s.items))
        for s in state.strands)
    return replace(state, strands=strands)


def runtime_spec(doc, mode: str) -> RuntimeSpec:
    """Squash a parsed document into one RuntimeSpec for the chosen mode.

    - basic: roles as written; parameter lists are inert bookkeeping.
    - abstract: roles as written; parameter lists drive composition via
      the declared composition relation.
    - sync: parameter lists are rewritten to synchronization points.
    """
    from .dsl import merge_protocols, synch_transform

    if mode not in MODES:
        raise ValueError(f"unknown mode {mode}")
    if mode == SYNC:
        merged = synch_transform(doc)
    else:
        merged = merge_protocols(doc, "+".join(p.name for p in doc.protocols))
    return RuntimeSpec(merged.name, merged.signature, merged.theory,
                       dict(merged.schemas), list(doc.triples))
