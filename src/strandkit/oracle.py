"""Forward replay of concrete execution scenarios.

A scenario is a JSON document listing ground strand instances and an
ordered sequence of rule firings.  Replaying it validates every firing
against the forward transition rules and reports the reached state; the
reached state can then be checked against a named attack pattern, i.e.
whether it is a substitution instance of the pattern (possibly with extra
strands and facts).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .dsl import parse_term
from .model import (
    KNOWN,
    TO_LEARN,
    IntruderFact,
    Minter,
    ParamList,
    SignedMessage,
    StrandInstance,
    SymbolicState,
    SyncPoint,
    item_terms,
    items_variables,
    map_item,
    state_key,
)
from .search import _state_instance_of
from .terms import Subst, variables
from .theory import eq_modulo, normalize
from .unify import match_modulo


class ScenarioError(Exception):
    """A scenario file is malformed or does not fit the protocol spec."""


@dataclass(frozen=True)
class Firing:
    rule: str
    strand: int
    partner: int = -1  # child index for composition rules

    def __repr__(self):
        if self.partner >= 0:
            return f"{self.rule}({self.strand},{self.partner})"
        return f"{self.rule}({self.strand})"


@dataclass(frozen=True)
class ScenarioStep:
    label: str
    note: str
    firings: tuple


@dataclass(frozen=True)
class Scenario:
    name: str
    attack: str  # pattern the reached state should instantiate; may be ""
    fresh: tuple  # fresh value names shared across strands
    strands: tuple  # (role, {var name: term text}, {fresh var: fresh name})
    steps: tuple  # ScenarioStep


@dataclass
class ReplayResult:
    valid: bool
    state: SymbolicState
    fired: int
    reason: str = ""
    failed_at: str = ""  # "<step label>/<firing>" when invalid
    instantiates: bool = False

    def as_dict(self) -> dict:
        return {
            "valid": self.valid,
            "fired": self.fired,
            "reason": self.reason,
            "failed_at": self.failed_at,
            "instantiates": self.instantiates,
        }


def load_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    try:
        strands = tuple(
            (s["role"], dict(s.get("bind", {})), dict(s.get("fresh", {})))
            for s in doc.get("strands", ()))
        steps = tuple(
            ScenarioStep(st.get("label", str(i)), st.get("note", ""),
                         tuple(_firing(f) for f in st.get("fire", ())))
            for i, st in enumerate(doc.get("steps", ())))
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"bad scenario structure: {exc}") from exc
    return Scenario(doc.get("name", "scenario"), doc.get("attack", ""),
                    tuple(doc.get("fresh", ())), strands, steps)


def _firing(entry) -> Firing:
    if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
        raise ScenarioError(f"firing must be [rule, strand(, child)]: {entry!r}")
    rule = entry[0]
    if len(entry) == 2:
        return Firing(rule, int(entry[1]))
    return Firing(rule, int(entry[1]), int(entry[2]))


def build_start_state(scenario: Scenario, spec, minter: Minter) -> SymbolicState:
    """Ground strand instances at their start plus the to-be-learned facts
    that the scenario's send_learn firings will flip."""
    th = spec.theory
    fresh_map = {name: minter.fresh(name) for name in scenario.fresh}
    strands = []
    for (role, bind, fresh_assign) in scenario.strands:
        schema = spec.schemas.get(role)
        if schema is None:
            raise ScenarioError(f"unknown role {role}")
        sub: dict = {}
        for v in schema.fresh:
            name = fresh_assign.get(v.name)
            if name is None:
                raise ScenarioError(f"{role}: fresh variable {v.name} unassigned")
            if name not in fresh_map:
                raise ScenarioError(f"{role}: undeclared fresh name {name}")
            sub[v] = fresh_map[name]
        for v in items_variables(schema.items):
            if v in sub:
                continue
            if v.name not in bind:
                raise ScenarioError(f"{role}: variable {v.name} unbound")
            sub[v] = parse_term(bind[v.name], spec.signature, fresh=fresh_map)
        s = Subst(sub, _trusted=True)
        items = tuple(map_item(it, lambda t: normalize(s(t), th))
                      for it in schema.items)
        left = {v for it in items for t in item_terms(it) for v in variables(t)}
        if left:
            names = ", ".join(sorted(v.name for v in left))
            raise ScenarioError(f"{role}: not ground, free variables {names}")
        strands.append(StrandInstance(role, items, 0,
                                      tuple(sub[v] for v in schema.fresh)))
    facts = _seed_facts(scenario, tuple(strands), th)
    return SymbolicState(tuple(strands), facts, (), 0)


def _seed_facts(scenario: Scenario, strands: tuple, th) -> tuple:
    """Every send_learn firing needs a pending fact for its payload; walk
    the firings with simulated bars to collect those payloads."""
    bars = [0] * len(strands)
    facts: dict = {}  # each fact once, in order
    for step in scenario.steps:
        for f in step.firings:
            if f.strand >= len(strands) or f.strand < 0:
                raise ScenarioError(f"firing {f!r}: no strand {f.strand}")
            s = strands[f.strand]
            if f.rule in ("recv", "send_silent", "send_learn"):
                if bars[f.strand] >= len(s.items):
                    raise ScenarioError(f"firing {f!r}: strand already finished")
                item = s.items[bars[f.strand]]
                if f.rule == "send_learn" and isinstance(item, SignedMessage):
                    facts.setdefault(IntruderFact(TO_LEARN, item.payload))
                bars[f.strand] += 1
            elif f.rule in ("sync_compose", "compose_11"):
                bars[f.strand] = len(s.items)
                bars[f.partner] = 1
            elif f.rule in ("sync_1many", "compose_1many"):
                bars[f.partner] = 1
            else:
                raise ScenarioError(f"unknown rule {f.rule!r}")
    return tuple(facts)


def replay_scenario(scenario: Scenario, spec, mode: str,
                    minter: Minter = None) -> ReplayResult:
    """Fire the scenario's rules in order, validating each one."""
    from .semantics import forward_step

    th = spec.theory
    state = build_start_state(scenario, spec, minter or Minter())
    fired = 0
    for step in scenario.steps:
        for f in step.firings:
            where = f"{step.label}/{f!r}"
            try:
                nxt, reason = _fire(state, f, th)
            except ScenarioError as exc:
                return ReplayResult(False, state, fired, str(exc), where)
            if nxt is None:
                return ReplayResult(False, state, fired, reason, where)
            # the firing must also be derivable by the forward rules
            keys = {state_key(r.successor)
                    for r in forward_step(state, spec, mode, rules=(f.rule,))
                    if r.rule.split(":")[0] == f.rule}
            if state_key(nxt) not in keys:
                return ReplayResult(False, state, fired,
                                    f"{f.rule} not derivable here", where)
            state = nxt
            fired += 1
    return ReplayResult(True, state, fired)


def _fire(state: SymbolicState, f: Firing, th):
    """Apply one named firing; (next state, "") or (None, reason)."""
    s = state.strands[f.strand]

    def advance(si, bar=None):
        strands = list(state.strands)
        strands[si] = strands[si].with_bar(
            strands[si].bar + 1 if bar is None else bar)
        return replace(state, strands=tuple(strands))

    if f.rule in ("recv", "send_silent", "send_learn"):
        if s.bar >= len(s.items):
            return None, "strand already finished"
        item = s.items[s.bar]
        if not isinstance(item, SignedMessage):
            return None, "next item is a composition interface, not a message"
        if f.rule == "recv":
            if item.polarity != "-":
                return None, "next item is not a receive"
            if not any(x.kind == KNOWN and eq_modulo(x.payload, item.payload, th)
                       for x in state.facts):
                return None, f"nothing known matches {item.payload!r}"
            return advance(f.strand), ""
        if item.polarity != "+":
            return None, "next item is not a send"
        if f.rule == "send_silent":
            return advance(f.strand), ""
        for fi, x in enumerate(state.facts):
            if x.kind == TO_LEARN and eq_modulo(x.payload, item.payload, th):
                nxt = advance(f.strand)
                facts = list(nxt.facts)
                facts[fi] = IntruderFact(KNOWN, x.payload)
                return replace(nxt, facts=tuple(facts)), ""
        return None, f"no pending fact for {item.payload!r}"

    if f.rule in ("sync_compose", "compose_11", "sync_1many", "compose_1many"):
        p, c = s, state.strands[f.partner]
        if p.bar != len(p.items) - 1 or not p.items:
            return None, "parent is not at its output interface"
        if c.bar != 0 or not c.items:
            return None, "child has already started"
        last, head = p.items[-1], c.items[0]
        ok_shape = (isinstance(last, (SyncPoint, ParamList))
                    and isinstance(head, (SyncPoint, ParamList))
                    and last.direction == "out" and head.direction == "in"
                    and len(last.payload) == len(head.payload))
        if not ok_shape:
            return None, "strands do not expose matching interfaces"
        if not all(eq_modulo(a, b, th)
                   for a, b in zip(last.payload, head.payload)):
            return None, "handover parameters disagree"
        nxt = advance(f.partner, bar=1)
        if f.rule in ("sync_compose", "compose_11"):
            nxt = replace(nxt, strands=tuple(
                st.with_bar(len(st.items)) if i == f.strand else st
                for i, st in enumerate(nxt.strands)))
        return nxt, ""
    return None, f"unknown rule {f.rule!r}"


# ------------------------------------------------ pattern instantiation

def instantiates_pattern(state: SymbolicState, pattern: SymbolicState,
                         spec) -> bool:
    """Is the reached state an instance of the attack pattern?

    Pattern strands and facts must map one-to-one onto state strands of
    the same role, bar and shape and onto state facts of the same kind,
    modulo the theory; distinct pattern fresh values stand for distinct
    fresh values and disequalities must hold.  Extra strands and facts in
    the state are allowed (see `search._state_instance_of`).
    """
    th, leq = spec.theory, spec.signature.leq
    return _state_instance_of(state, pattern, th,
                              lambda p, t, b: match_modulo(p, t, th, leq, b),
                              extra_strands=True, extra_facts=True)
