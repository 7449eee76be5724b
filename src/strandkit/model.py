"""Strands, intruder knowledge and symbolic protocol states.

A strand is a sequence of items with a bar splitting past from future.
Items are signed messages, parameter lists (the abstract composition view)
or synchronization points (the explicit view).  A symbolic state bundles a
set of partially executed strands with intruder knowledge facts and
disequality constraints.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .terms import (
    FreshConst,
    Subst,
    Term,
    Var,
    fresh_constants,
    leaves,
    skeleton,
    variables,
)
from .theory import EquationalTheory, normalize


class MalformedStrand(Exception):
    """A strand schema violates the structural rules for its form."""


class UnknownComposition(Exception):
    """A parameterized role has no entry in the composition relation."""


MODE_ONE_ONE = "1-1"
MODE_ONE_MANY = "1-*"


@dataclass(frozen=True)
class SignedMessage:
    polarity: str  # '+' or '-'
    payload: Term

    def __post_init__(self):
        if self.polarity not in ("+", "-"):
            raise MalformedStrand(f"bad polarity {self.polarity!r}")

    def __repr__(self):
        return f"{self.polarity}({self.payload!r})"


@dataclass(frozen=True)
class ParamList:
    """Input or output parameters of a composable strand (abstract view)."""

    direction: str  # 'in' or 'out'
    payload: tuple  # tuple of Terms

    def __repr__(self):
        inner = " ; ".join(map(repr, self.payload))
        return f"{self.direction}{{{inner}}}"


@dataclass(frozen=True)
class SyncPoint:
    """An explicit synchronization exchange between protocol roles.

    The parent and children role names, the mode and the payload together
    form a one-way handover; none of it has a message sort, so the intruder
    can neither read nor forge it.
    """

    direction: str  # 'in' or 'out'
    parents: tuple  # role names
    children: tuple  # role names
    mode: str  # '1-1' or '1-*'
    payload: tuple  # tuple of Terms

    def __repr__(self):
        inner = " ; ".join(map(repr, self.payload))
        arrow = f"{' '.join(self.parents)} -> {' '.join(self.children)}"
        return f"{{{arrow} ;; {self.mode} ;; ({inner})}}"


Item = Union[SignedMessage, ParamList, SyncPoint]


# The composition relation is a list of (parent role, child role, mode)
# triples.


def parents_of(triples: list, role: str) -> list:
    """The roles `role` is a child of, one per triple, in triple order."""
    return [a for (a, c, m) in triples if c == role]


def children_of(triples: list, role: str) -> list:
    """The roles `role` is a parent of, one per triple, in triple order."""
    return [c for (a, c, m) in triples if a == role]


def uniform_mode(triples: list, role: str, direction: str) -> str:
    """The one mode of `role`'s handovers in `direction`: an input's ("in")
    comes from the triples naming the role as child, an output's ("out")
    from those naming it as parent."""
    side = 0 if direction == "out" else 1
    modes = {tr[2] for tr in triples if tr[side] == role}
    if len(modes) != 1:
        raise UnknownComposition(f"{role} has no single composition mode")
    return modes.pop()


def sync_point(role: str, item: Item, triples: list) -> Item:
    """The synchronization point a parameter list of `role` becomes: an
    output names every child the relation gives the role, an input every
    parent.  Other items are returned as they are."""
    if not isinstance(item, ParamList):
        return item
    if item.direction == "out":
        parents, children = (role,), tuple(children_of(triples, role))
        if not children:
            raise UnknownComposition(f"{role} has no child in the "
                                     "composition relation")
    else:
        parents, children = tuple(parents_of(triples, role)), (role,)
        if not parents:
            raise UnknownComposition(f"{role} has no parent in the "
                                     "composition relation")
    return SyncPoint(item.direction, parents, children,
                     uniform_mode(triples, role, item.direction),
                     item.payload)


def item_terms(item: Item) -> tuple:
    if isinstance(item, SignedMessage):
        return (item.payload,)
    return tuple(item.payload)


def map_item(item: Item, f: Callable[[Term], Term]) -> Item:
    """item with f applied to each of its terms; item itself when f
    returns every one of them unchanged, so unchanged items stay shared."""
    if isinstance(item, SignedMessage):
        t = f(item.payload)
        return item if t is item.payload else SignedMessage(item.polarity, t)
    payload = tuple([f(t) for t in item.payload])
    if all(map(operator.is_, payload, item.payload)):
        return item
    if isinstance(item, ParamList):
        return ParamList(item.direction, payload)
    return SyncPoint(item.direction, item.parents, item.children, item.mode,
                     payload)


@dataclass(frozen=True)
class StrandSchema:
    """A role template: fresh variables plus an item sequence.

    Composable schemas carry at most one leading 'in' parameter/sync item
    and at most one trailing 'out' item; void schemas carry both and no
    messages at all.
    """

    role: str
    fresh: tuple  # tuple of Var with sort Fresh
    items: tuple  # tuple of Item

    def __post_init__(self):
        ins = [i for i, it in enumerate(self.items)
               if not isinstance(it, SignedMessage) and it.direction == "in"]
        outs = [i for i, it in enumerate(self.items)
                if not isinstance(it, SignedMessage) and it.direction == "out"]
        if len(ins) > 1 or len(outs) > 1:
            raise MalformedStrand(f"{self.role}: multiple parameter interfaces")
        if ins and ins[0] != 0:
            raise MalformedStrand(f"{self.role}: input interface must come first")
        if outs and outs[0] != len(self.items) - 1:
            raise MalformedStrand(f"{self.role}: output interface must come last")
        for v in self.fresh:
            if v.sort != "Fresh":
                raise MalformedStrand(f"{self.role}: fresh variable {v!r} not Fresh")

    @property
    def input_item(self) -> Optional[Item]:
        if self.items and not isinstance(self.items[0], SignedMessage) \
                and self.items[0].direction == "in":
            return self.items[0]
        return None

    @property
    def output_item(self) -> Optional[Item]:
        if self.items and not isinstance(self.items[-1], SignedMessage) \
                and self.items[-1].direction == "out":
            return self.items[-1]
        return None


@dataclass(frozen=True)
class StrandInstance:
    role: str
    items: tuple  # tuple of Item
    bar: int
    fresh_ids: tuple = ()  # FreshConst minted for this instance

    def __post_init__(self):
        if not (0 <= self.bar <= len(self.items)):
            raise MalformedStrand(f"bar {self.bar} outside strand of "
                                  f"length {len(self.items)}")

    @property
    def past(self) -> tuple:
        return self.items[: self.bar]

    @property
    def future(self) -> tuple:
        return self.items[self.bar :]

    def with_bar(self, bar: int) -> "StrandInstance":
        return replace(self, bar=bar)

    def __repr__(self):
        past = ", ".join(map(repr, self.past))
        fut = ", ".join(map(repr, self.future))
        return f"{self.role}[{past} | {fut}]"


KNOWN = "known"
TO_LEARN = "to_be_learned"


@dataclass(frozen=True)
class IntruderFact:
    kind: str  # KNOWN or TO_LEARN
    payload: Term

    def __post_init__(self):
        if self.kind not in (KNOWN, TO_LEARN):
            raise MalformedStrand(f"bad fact kind {self.kind}")

    def __repr__(self):
        return f"{self.kind}({self.payload!r})"


@dataclass(frozen=True)
class SymbolicState:
    strands: tuple = ()  # tuple of StrandInstance
    facts: tuple = ()  # tuple of IntruderFact
    diseqs: tuple = ()  # tuple of (Term, Term)
    depth: int = 0


def is_initial(state: SymbolicState) -> bool:
    """All bars at the start and no fact already known."""
    return all(s.bar == 0 for s in state.strands) and \
        all(f.kind == TO_LEARN for f in state.facts)


class Minter:
    """Mints fresh constants and variable-renaming suffixes for one search.
    Its fresh constants are numbered above those of the terms `held`, so
    that none of them is a value the search starts from."""

    def __init__(self, held=()) -> None:
        top = max((c.ident for c in fresh_constants(held)), default=0)
        self._fresh = itertools.count(top + 1)
        self._suffix = itertools.count(1)

    def fresh(self, hint: str = "r") -> FreshConst:
        return FreshConst(next(self._fresh), hint)

    def suffix(self) -> str:
        return f"i{next(self._suffix)}"


def instantiate(schema: StrandSchema, minter: Minter,
                bar: int = 0) -> StrandInstance:
    """Create a strand instance: mint fresh constants, rename variables.

    Non-fresh variables are renamed with a unique suffix so distinct
    instances never share variables.
    """
    fresh_map = {v: minter.fresh(v.name) for v in schema.fresh}
    suffix = minter.suffix()
    other = {v: Var(f"{v.name}#{suffix}", v.sort)
             for v in items_variables(schema.items) if v not in fresh_map}
    s = Subst({**fresh_map, **other}, _trusted=True)
    items = tuple(map_item(it, s) for it in schema.items)
    return StrandInstance(schema.role, items, bar,
                          tuple(fresh_map[v] for v in schema.fresh))


def items_variables(items) -> set:
    out: set = set()
    for it in items:
        for t in item_terms(it):
            out |= variables(t)
    return out


def apply_subst_state(state: SymbolicState, s: Subst, th: EquationalTheory,
                      depth: Optional[int] = None) -> Optional[SymbolicState]:
    """Apply a substitution and normalize; None if a disequality collapses.

    The result is at `depth` (by default the state's own).  Every strand,
    item and fact the substitution leaves unchanged is the state's own
    object, so a predecessor shares all its step left alone."""

    def norm(t: Term) -> Term:
        return normalize(s(t), th)

    strands = tuple(_map_strand(st, norm) for st in state.strands)
    facts = {}  # each fact once, in order
    for f in state.facts:
        p = norm(f.payload)
        nf = f if p is f.payload else IntruderFact(f.kind, p)
        facts.setdefault(nf, None)
    # a fact cannot be both already-known and still-to-be-learned
    known = {f.payload for f in facts if f.kind == KNOWN}
    if any(f.kind == TO_LEARN and f.payload in known for f in facts):
        return None
    diseqs = []
    for (l, r) in state.diseqs:
        nl, nr = norm(l), norm(r)
        if nl == nr:
            return None
        diseqs.append((nl, nr))
    return SymbolicState(strands, tuple(facts), tuple(diseqs),
                         state.depth if depth is None else depth)


def _map_strand(st: StrandInstance, f: Callable[[Term], Term]):
    items = tuple([map_item(it, f) for it in st.items])
    if all(map(operator.is_, items, st.items)):
        return st
    return replace(st, items=items)


def _item_key(item: Item):
    if isinstance(item, SignedMessage):
        return ("m", item.polarity, skeleton(item.payload))
    if isinstance(item, ParamList):
        return ("p", item.direction, tuple(map(skeleton, item.payload)))
    return ("s", item.direction, item.parents, item.children, item.mode,
            tuple(map(skeleton, item.payload)))


def _strand_key(st: StrandInstance):
    return (st.role, st.bar, tuple(map(_item_key, st.items)))


def state_key(state: SymbolicState, focus: Optional[int] = None,
              marked: Optional[tuple] = None) -> tuple:
    """Canonical dedup key, invariant under the structural axioms (payloads
    are assumed normalized) and under renaming of variables and fresh
    constants.  Depth is not part of the key.

    The key is one flat tuple.  It starts with the numbers of strands,
    facts and disequalities.  Each strand, ordered by skeleton, gives its
    role, bar and item count, then each item's shape: "m" and its polarity,
    "p", its direction and payload length, or "s", its direction, parents,
    children, mode and payload length.  Each term gives its skeleton, then
    the numbers of its leaves, which number the variables and fresh
    constants of the whole state in order of first occurrence; the
    skeleton says how many numbers follow.  Each fact, ordered by kind and
    skeleton, gives its kind and its term.  Each disequality gives the
    encodings of its two sides, sorted, each after its length.

    A strand index `focus` or a tuple of terms `marked` singles out part
    of the state; either makes the key (whole, focus strand, frozenset of
    marked terms), numbered the same way.
    """
    strands = sorted(state.strands, key=_strand_key)
    facts = sorted(state.facts, key=lambda f: (f.kind, skeleton(f.payload)))
    diseqs = sorted(state.diseqs,
                    key=lambda p: tuple(sorted((skeleton(p[0]),
                                                skeleton(p[1])))))
    number: dict = {}

    def put_term(out: list, t: Term) -> list:
        out.append(skeleton(t))
        out += [number.setdefault(x, len(number)) for x in leaves(t)]
        return out

    def put_strand(out: list, st: StrandInstance) -> list:
        out += (st.role, st.bar, len(st.items))
        for it in st.items:
            if isinstance(it, SignedMessage):
                out += ("m", it.polarity)
                put_term(out, it.payload)
                continue
            if isinstance(it, ParamList):
                out += ("p", it.direction, len(it.payload))
            else:
                out += ("s", it.direction, it.parents, it.children, it.mode,
                        len(it.payload))
            for t in it.payload:
                put_term(out, t)
        return out

    out = [len(strands), len(facts), len(diseqs)]
    for st in strands:
        put_strand(out, st)
    for f in facts:
        out.append(f.kind)
        put_term(out, f.payload)
    for (l, r) in diseqs:
        for side in sorted((put_term([], l), put_term([], r))):
            out.append(len(side))
            out += side
    whole = tuple(out)
    if focus is None and marked is None:
        return whole
    fk = None if focus is None else \
        tuple(put_strand([], state.strands[focus]))
    mk = None if marked is None else \
        frozenset(tuple(put_term([], t)) for t in marked)
    return (whole, fk, mk)


def check_wellformed(schema: StrandSchema, signature, th: EquationalTheory) -> list:
    """Diagnostics for a schema: ill-typed payloads, unused fresh variables."""
    problems = []
    used = items_variables(schema.items)
    for v in schema.fresh:
        if v not in used:
            problems.append(f"{schema.role}: fresh variable {v.name} never used")
    for it in schema.items:
        for t in item_terms(it):
            try:
                signature.check_term(t)
            except Exception as exc:  # noqa: BLE001 - diagnostic collection
                problems.append(f"{schema.role}: {exc}")
    return problems
