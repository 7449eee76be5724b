"""Equational theories: structural axioms plus oriented rewrite rules.

Structural axioms (associativity, commutativity, identity, nilpotence) are
compiled away by `canon`, which flattens and sorts argument lists, removes
identity elements and cancels equal pairs under nilpotent operators.  The
oriented rules are applied by `normalize` modulo those canonical forms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice, permutations
from typing import Iterator, Optional, Sequence

from .terms import (
    App,
    FreshConst,
    Subst,
    Term,
    Var,
    _apply,
    term_key,
    variables,
)


class StepBudgetExceeded(Exception):
    """Normalization did not reach a normal form within the step budget."""


class IrregularRule(Exception):
    """A rewrite rule has a variable left side or invents right-side variables."""


@dataclass(frozen=True)
class AxiomDecl:
    assoc: bool = False
    comm: bool = False
    unit: Optional[Term] = None
    nilpotent: bool = False

    def __post_init__(self):
        if self.nilpotent and (not (self.assoc and self.comm) or self.unit is None):
            raise IrregularRule("nilpotent operators need assoc, comm and a unit")


@dataclass(frozen=True)
class EquationalTheory:
    """Oriented rules plus per-operator structural axioms.

    Rules must be regular: a non-variable left side whose variables cover
    the right side.  The canonical-axiom kinds here are regular by
    construction.
    """

    rules: tuple = ()
    axioms: tuple = ()  # tuple of (opname, AxiomDecl)
    step_budget: int = 10000
    # Memos of `canon`, `normalize`, `unify.unify_modulo` and
    # `unify.side_variants`, keyed by hash-consed term nodes.  They are
    # not part of the theory's value.
    _canon_cache: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)
    _norm_cache: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    _unify_cache: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)
    _variant_cache: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)
    # the operators declared nilpotent, derived from the axioms
    nilpotent: frozenset = field(default=frozenset(), init=False,
                                 repr=False, compare=False)
    # how often `match_ax` matched a sum in a way that may lose matchers
    _match_gaps: list = field(default_factory=lambda: [0], init=False,
                              repr=False, compare=False)
    # numbers the suffix each `unify._Renaming.back` gives the variables
    # its renaming did not make
    _back_ids: Iterator = field(default_factory=lambda: count(1),
                                init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nilpotent", frozenset(
            op for op, decl in self.axioms if decl.nilpotent))
        for lhs, rhs in self.rules:
            if isinstance(lhs, Var):
                raise IrregularRule(f"rule left side is a variable: {lhs!r}")
            if not variables(rhs) <= variables(lhs):
                raise IrregularRule(f"rule {lhs!r} -> {rhs!r} invents variables")

    def axiom(self, op: str) -> Optional[AxiomDecl]:
        m = self.__dict__.get("_axiom_map")
        if m is None:
            m = dict(self.axioms)
            object.__setattr__(self, "_axiom_map", m)
        return m.get(op)

    def rule_index(self) -> dict:
        """The rules to try under each head symbol, built once per theory.

        Entries are (lhs, rhs, lhs', rhs') in declaration order; lhs' and
        rhs' have their variables renamed with a `%rule` suffix, apart from
        any subject term, for matching.

        Two canonical applications with different heads unify only when
        one head is nilpotent.  So `index[op]` holds the rules whose
        canonical left side has head `op`, plus the wild rules: those whose
        canonical left side is not an application or has a nilpotent head.
        A nilpotent `op` gets every rule, and `index[None]` holds the wild
        rules alone, for any other head.
        """
        m = self.__dict__.get("_rule_index")
        if m is None:
            entries = []  # (head, entry), head None for a wild rule
            for lhs, rhs in self.rules:
                ren = Subst({v: Var(v.name + "%rule", v.sort)
                             for v in variables(lhs)}, _trusted=True)
                c = canon(lhs, self)
                head = c.op if isinstance(c, App) and \
                    c.op not in self.nilpotent else None
                entries.append((head, (lhs, rhs, ren(lhs), ren(rhs))))
            ops = {None} | {h for h, _ in entries} | self.nilpotent
            m = {op: tuple(e for h, e in entries
                           if h in (op, None) or op in self.nilpotent)
                 for op in ops}
            object.__setattr__(self, "_rule_index", m)
        return m

    def is_ac(self, op: str) -> bool:
        ax = self.axiom(op)
        return ax is not None and ax.assoc and ax.comm

    def merge(self, other: "EquationalTheory") -> "EquationalTheory":
        rules = list(self.rules)
        for r in other.rules:
            if r not in rules:
                rules.append(r)
        axmap = dict(self.axioms)
        for op, decl in other.axioms:
            if op in axmap and axmap[op] != decl:
                raise IrregularRule(f"conflicting axioms for operator {op}")
            axmap[op] = decl
        return EquationalTheory(tuple(rules), tuple(sorted(axmap.items())),
                                max(self.step_budget, other.step_budget))


EMPTY_THEORY = EquationalTheory()

# Entry caps of the memos below.  The shipped benchmark workloads stay
# below both.
CANON_CACHE_CAP = 500_000
NORM_CACHE_CAP = 200_000


def memo_put(cache: dict, key, value, cap: int) -> None:
    """Store value under key in a memo of at most cap entries.  A full memo
    first drops its oldest entries, in insertion order: one, plus one per
    64 of its cap, since finding the oldest entry of a dict costs a scan
    over the slots of those dropped before it.  A hit costs nothing, as no
    order is kept but the dict's own."""
    if len(cache) >= cap and key not in cache:
        for old in list(islice(cache, 1 + cap // 64)):
            del cache[old]
    cache[key] = value


def canon(t: Term, th: EquationalTheory) -> Term:
    """Canonical form modulo the structural axioms (no rule rewriting)."""
    if not isinstance(t, App) or not t.args:
        return t
    cache = th._canon_cache
    hit = cache.get(t)
    if hit is not None:
        return hit
    out = _canon_app(t, th)
    memo_put(cache, t, out, CANON_CACHE_CAP)
    return out


def _canon_app(t: App, th: EquationalTheory) -> Term:
    args = tuple(canon(a, th) for a in t.args)
    ax = th.axiom(t.op)
    if ax is None:
        return App(t.op, args, t.sort)
    if ax.assoc and ax.comm:
        flat = []
        for a in args:
            if isinstance(a, App) and a.op == t.op:
                flat.extend(a.args)
            else:
                flat.append(a)
        if ax.unit is not None:
            unit_key = term_key(ax.unit)
            flat = [a for a in flat if term_key(a) != unit_key]
        if ax.nilpotent:
            flat = sym_diff(flat)
        flat.sort(key=term_key)
        if not flat:
            if ax.unit is None:
                raise IrregularRule(f"{t.op} collapsed to nothing without a unit")
            return ax.unit
        if len(flat) == 1:
            return flat[0]
        return App(t.op, tuple(flat), t.sort)
    if ax.comm:
        args = tuple(sorted(args, key=term_key))
    return App(t.op, args, t.sort)


def sym_diff(atoms: list) -> list:
    """The atoms that occur an odd number of times, in term order: what a
    sum of them leaves under a nilpotent operator."""
    counted: dict = {}
    for t in atoms:
        counted.setdefault(term_key(t), [0, t])[0] += 1
    out = []
    for key in sorted(counted):
        n, t = counted[key]
        out.extend([t] * (n % 2))
    return out


def ac_atoms(t: Term, op: str, th: EquationalTheory) -> list:
    """The flattened argument list of t viewed under an AC operator."""
    t = canon(t, th)
    ax = th.axiom(op)
    if isinstance(t, App) and t.op == op:
        return list(t.args)
    if ax is not None and ax.unit is not None and term_key(t) == term_key(ax.unit):
        return []
    return [t]


def absorber(atoms: list, rest: list, op: str, sort: str,
             th: EquationalTheory, leq) -> Optional[tuple]:
    """(v, s) for the first variable v among `atoms` that occurs in no other
    atom and may take, under `leq`, the sum s of the others and of `rest`:
    v -> s most generally makes the sum of both lists the unit; or None."""
    for i, v in enumerate(atoms):
        if isinstance(v, Var):
            s = ac_combine(atoms[:i] + atoms[i + 1:] + rest, op, th, sort)
            if v not in variables(s) and (leq is None or leq(s.sort, v.sort)):
                return v, s
    return None


def ac_combine(atoms: Sequence[Term], op: str, th: EquationalTheory, sort: str) -> Term:
    ax = th.axiom(op)
    if not atoms:
        if ax is None or ax.unit is None:
            raise IrregularRule(f"cannot build empty {op}")
        return ax.unit
    if len(atoms) == 1:
        return atoms[0]
    return canon(App(op, tuple(atoms), sort), th)


def match_ax(pattern: Term, subject: Term, th: EquationalTheory,
             binding: Optional[dict] = None, leq=None) -> Iterator[dict]:
    """Match pattern against subject modulo the structural axioms.

    Yields extensions of the given binding (dicts from Var to Term).  Both
    sides must be canonical, and the pattern's variables apart from the
    subject's.  AC matching is complete only for small argument lists:
    non-variable pattern arguments are matched injectively and at most one
    pattern variable absorbs the leftovers, which covers every rule shape
    used here.  Sums under a nilpotent operator are matched last in an
    argument list, then by `_match_nilpotent`, which counts the matches
    that may be incomplete.  With a subsort test `leq`, a variable binds
    only a subject whose sort is below its own.
    """
    if binding is None:
        binding = {}
    if isinstance(pattern, Var):
        if pattern in binding:
            if term_key(binding[pattern]) == term_key(subject):
                yield binding
            return
        if leq is None or leq(subject.sort, pattern.sort):
            yield {**binding, pattern: subject}
        return
    if isinstance(pattern, FreshConst):
        if pattern == subject:
            yield binding
        return
    nil = th.nilpotent
    if pattern.op in nil:
        yield from _match_nilpotent(pattern, subject, th, binding, leq)
        return
    if not isinstance(subject, App) or subject.op != pattern.op:
        return
    ax = th.axiom(pattern.op)
    if ax is not None and ax.assoc and ax.comm:
        yield from _match_ac(list(pattern.args), list(subject.args), pattern.op,
                             pattern.sort, th, binding, leq)
        return
    if len(pattern.args) != len(subject.args):
        return
    pats, orders = pattern.args, [subject.args]
    if ax is not None and ax.comm and len(subject.args) == 2:
        orders = [subject.args, subject.args[::-1]]
    if nil:  # sums last, so that their variables are bound by then
        last = [isinstance(p, App) and p.op in nil for p in pats]
        if any(last):
            idx = sorted(range(len(pats)), key=last.__getitem__)
            pats = [pats[i] for i in idx]
            orders = [[o[i] for i in idx] for o in orders]
    for order in orders:
        yield from _match_seq(pats, order, th, binding, leq)


def _match_nilpotent(pattern: App, subject: Term, th: EquationalTheory,
                     binding: dict, leq) -> Iterator[dict]:
    """Match a sum under a nilpotent operator.  The pattern arguments whose
    variables the binding fixes are added to the subject, which cancels
    them.  An `absorber` of the leftovers takes the rest, and the others'
    variables are bound to themselves, fixed for later matches.  Without
    one, the leftovers are matched as under plain AC, where none cancel.
    Either may lose matchers; `th._match_gaps` counts those that could."""
    op, sort = pattern.op, pattern.sort
    fixed, free = [], []
    for a in pattern.args:
        (fixed if variables(a) <= binding.keys() else free).append(a)
    rest = sym_diff([x for t in [subject] + [_apply(binding, a) for a in fixed]
                     for x in ac_atoms(t, op, th)])
    got = absorber(free, rest, op, sort, th, leq)
    if got is None:
        th._match_gaps[0] += len(free) > 1
        yield from _match_ac(free, rest, op, sort, th, binding, leq)
        return
    v, image = got
    pinned = {u: u for a in free for u in variables(a)
              if u != v and u not in binding}
    th._match_gaps[0] += bool(pinned)
    yield {**binding, v: image, **pinned}


def _match_seq(pats, subjs, th, binding, leq) -> Iterator[dict]:
    if not pats:
        yield binding
        return
    for b in match_ax(pats[0], subjs[0], th, binding, leq):
        yield from _match_seq(pats[1:], subjs[1:], th, b, leq)


def _match_ac(pats, subjs, op, sort, th, binding, leq) -> Iterator[dict]:
    if len(pats) > len(subjs):
        return
    if len(pats) == len(subjs):
        seen = set()
        for perm in permutations(range(len(subjs))):
            for b in _match_seq(pats, [subjs[i] for i in perm], th, binding,
                                leq):
                key = tuple(sorted((v.name, term_key(t)) for v, t in b.items()))
                if key not in seen:
                    seen.add(key)
                    yield b
        return
    # Fewer pattern arguments: let one variable argument absorb the rest.
    for vi, pv in enumerate(pats):
        if not isinstance(pv, Var):
            continue
        rest_pats = pats[:vi] + pats[vi + 1 :]
        n_rest = len(rest_pats)
        for chosen in permutations(range(len(subjs)), n_rest):
            chosen_set = set(chosen)
            leftover = [subjs[i] for i in range(len(subjs)) if i not in chosen_set]
            absorbed = ac_combine(leftover, op, th, sort)
            for b0 in match_ax(pv, absorbed, th, binding, leq):
                yield from _match_seq(rest_pats, [subjs[i] for i in chosen], th,
                                      b0, leq)
        return  # one absorber is enough for the rule shapes in scope


class _Budget:
    """A count of steps that allows exactly n: `spend` answers whether a
    step is left and sets `blown` once none is."""

    __slots__ = ("left", "blown")

    def __init__(self, n: int):
        self.left = n
        self.blown = False

    def spend(self) -> bool:
        if self.left <= 0:
            self.blown = True
            return False
        self.left -= 1
        return True


def normalize(t: Term, th: EquationalTheory) -> Term:
    """The normal form of t under the theory's rules, modulo its axioms.

    Raises StepBudgetExceeded after th.step_budget rule applications, which
    flags a non-terminating rule set rather than looping forever.

    Normal forms are memoized per theory: backward search renormalizes the
    same payloads constantly.
    """
    if not isinstance(t, App):
        return t  # rules have non-variable left sides
    cache = th._norm_cache
    got = cache.get(t)
    if got is None:
        budget = _Budget(th.step_budget)
        got = _normalize(canon(t, th), th, budget)
        memo_put(cache, t, got, NORM_CACHE_CAP)
        memo_put(cache, got, got, NORM_CACHE_CAP)
    return got


def memo_entries(th: EquationalTheory) -> dict:
    """Current entry counts of th's canonical-form and normal-form memos."""
    return {"canon": len(th._canon_cache), "normalize": len(th._norm_cache)}


def _normalize(t: Term, th: EquationalTheory, budget: _Budget) -> Term:
    if not isinstance(t, App):
        return t
    args = tuple(_normalize(a, th, budget) for a in t.args)
    t = canon(App(t.op, args, t.sort), th)
    while isinstance(t, App):
        rewritten = _rewrite_root(t, th, budget)
        if rewritten is None:
            # a root canon step (flattening) can expose inner redexes only
            # when arguments changed, and those are already normal
            return t
        t = rewritten
        if isinstance(t, App):
            t = canon(App(t.op, tuple(_normalize(a, th, budget) for a in t.args),
                          t.sort), th)
        else:
            t = canon(t, th)
    return t


def _rewrite_root(t: App, th: EquationalTheory, budget: _Budget) -> Optional[Term]:
    for _, _, lhs_r, rhs_r in th.rule_index().get(t.op, ()):
        if not isinstance(lhs_r, App) or lhs_r.op != t.op:
            continue  # match_ax needs the same head
        for b in match_ax(lhs_r, t, th):
            if not budget.spend():
                raise StepBudgetExceeded("rewrite step budget exhausted")
            return canon(Subst(b, _trusted=True)(rhs_r), th)
    return None


def eq_modulo(t1: Term, t2: Term, th: EquationalTheory) -> bool:
    """Equality modulo the full theory: normalize both sides and compare."""
    return term_key(normalize(t1, th)) == term_key(normalize(t2, th))
