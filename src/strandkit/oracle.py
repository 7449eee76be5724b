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
from dataclasses import dataclass

from .dsl import parse_term
from .model import (
    TO_LEARN,
    IntruderFact,
    Minter,
    SignedMessage,
    StrandInstance,
    SymbolicState,
    item_terms,
    items_variables,
    map_item,
)
from .search import _state_instance_of
from .semantics import _COMPOSE, forward_step
from .terms import Subst, variables
from .theory import normalize
from .unify import Memo, match_modulo


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
    facts = _seed_facts(scenario, tuple(strands))
    return SymbolicState(tuple(strands), facts, (), 0)


def _seed_facts(scenario: Scenario, strands: tuple) -> tuple:
    """Every send_learn firing needs a pending fact for its payload; walk
    the firings with simulated bars to collect those payloads."""
    compose = {r.compose for r in _COMPOSE.values()}
    one_many = {r.one_many for r in _COMPOSE.values()}
    bars = [0] * len(strands)
    facts: dict = {}  # each fact once, in order
    for step in scenario.steps:
        for f in step.firings:
            if f.strand >= len(strands) or f.strand < 0:
                raise ScenarioError(f"firing {f!r}: no strand {f.strand}")
            s = strands[f.strand]
            if f.rule in ("recv", "send_silent", "send_learn"):
                if f.partner >= 0:
                    raise ScenarioError(
                        f"firing {f!r}: {f.rule} takes no child strand")
                if bars[f.strand] >= len(s.items):
                    raise ScenarioError(f"firing {f!r}: strand already finished")
                item = s.items[bars[f.strand]]
                if f.rule == "send_learn" and isinstance(item, SignedMessage):
                    facts.setdefault(IntruderFact(TO_LEARN, item.payload))
                bars[f.strand] += 1
            elif f.rule in compose or f.rule in one_many:
                if not 0 <= f.partner < len(strands):
                    raise ScenarioError(
                        f"firing {f!r}: {f.rule} needs a child strand, "
                        f"one of 0..{len(strands) - 1}")
                if f.rule in compose:
                    bars[f.strand] = len(s.items)
                bars[f.partner] = 1
            else:
                raise ScenarioError(f"unknown rule {f.rule!r}")
    return tuple(facts)


def replay_scenario(scenario: Scenario, spec, mode: str,
                    minter: Minter = None) -> ReplayResult:
    """Fire the scenario's rules in order through `semantics.forward_step`.

    A firing takes the first successor of its rule that moves its strand,
    and for a composition rule its child; the replay stops, invalid, at
    the first firing the forward rules of `mode` do not allow."""
    state = build_start_state(scenario, spec, minter or Minter())
    fired = 0
    for step in scenario.steps:
        for f in step.firings:
            moved = (f.strand,) if f.partner < 0 else (f.strand, f.partner)
            nxt = next((r.successor
                        for r in forward_step(state, spec, mode, rules=(f.rule,))
                        if r.rule.split(":")[0] == f.rule and r.strands == moved),
                       None)
            if nxt is None:
                return ReplayResult(False, state, fired, _refusal(state, f),
                                    f"{step.label}/{f!r}")
            state = nxt
            fired += 1
    return ReplayResult(True, state, fired)


def _refusal(state: SymbolicState, f: Firing) -> str:
    """Why the forward rules allow no firing f in state."""
    s = state.strands[f.strand]
    if s.bar >= len(s.items):
        return "strand already finished"
    item = s.items[s.bar]
    if isinstance(item, SignedMessage):
        if f.rule == "recv" and item.polarity == "-":
            return f"nothing known matches {item.payload!r}"
        if f.rule == "send_learn" and item.polarity == "+":
            return f"no pending fact for {item.payload!r}"
    return f"{f.rule} not derivable here: next item is {item!r}"


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
    th, leq, memo = spec.theory, spec.signature.leq, Memo()
    return _state_instance_of(state, pattern, th,
                              lambda p, t, b: match_modulo(p, t, th, leq,
                                                           b, memo),
                              extra_strands=True, extra_facts=True)
