"""Equational theories: exclusive-or axioms plus oriented rewrite rules.

The one structural axiom is exclusive-or: an operator declared
associative, commutative and nilpotent with a unit.  `canon` compiles it
away, flattening and sorting each sum's argument list, removing the unit
and cancelling equal pairs.  Every other operator is free.  The oriented
rules are applied by `normalize` modulo those canonical forms.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count, permutations
from typing import Iterator, Optional, Sequence

from .terms import (
    App,
    FreshConst,
    Subst,
    Term,
    Var,
    _apply,
    is_ground,
    term_key,
    variables,
)


class StepBudgetExceeded(Exception):
    """Normalization, variant narrowing or the unifier's branch search ran
    out of its budget: an error, never a partial answer."""


class IrregularRule(Exception):
    """A rewrite rule has a variable left side or invents right-side variables."""


@dataclass(frozen=True)
class AxiomDecl:
    """The axioms of one operator.  Only exclusive-or is accepted: assoc,
    comm, nilpotent and a unit together."""

    assoc: bool = False
    comm: bool = False
    unit: Optional[Term] = None
    nilpotent: bool = False

    def __post_init__(self):
        if not (self.assoc and self.comm and self.nilpotent) \
                or self.unit is None:
            raise IrregularRule("the only axioms are exclusive-or: "
                                "assoc comm unit(u) nilpotent")


@dataclass(frozen=True)
class EquationalTheory:
    """Oriented rules plus the exclusive-or operators' axioms.

    Rules must be regular: a non-variable left side whose variables cover
    the right side.
    """

    rules: tuple = ()
    axioms: tuple = ()  # tuple of (opname, AxiomDecl)
    step_budget: int = 10000
    # State that is not part of the theory's value.  Canonical and normal
    # forms live on the term nodes, and the memos of unification on each
    # search (`unify.Memo`).
    # (prefix, index, sort) -> the leaf that `canonical_leaf` shares
    _canon_leaves: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)
    # each exclusive-or operator mapped to its unit, from the axioms
    nilpotent: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    # numbers the suffix each `unify._Renaming.back` gives the variables
    # its renaming did not make
    _back_ids: Iterator = field(default_factory=lambda: count(1),
                                init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nilpotent.update((op, decl.unit) for op, decl in self.axioms)
        for lhs, rhs in self.rules:
            if isinstance(lhs, Var):
                raise IrregularRule(f"rule left side is a variable: {lhs!r}")
            if not variables(rhs) <= variables(lhs):
                raise IrregularRule(f"rule {lhs!r} -> {rhs!r} invents variables")

    def rule_index(self) -> dict:
        """The rules to try under each head symbol, built once per theory.

        Entries are (lhs, rhs, lhs', rhs', blocking) in declaration order;
        lhs' and rhs' have their variables renamed with a `%rule` suffix,
        apart from any subject term, for matching.  `blocking` holds the
        (position, head) pairs of lhs's arguments that are applications
        with a head that is not nilpotent: an argument that keeps another
        head never matches there (a sum matches any term, `absorber`).

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
                blocking = tuple((k, a.op) for k, a in enumerate(lhs.args)
                                 if isinstance(a, App) and
                                 a.op not in self.nilpotent) \
                    if isinstance(lhs, App) else ()
                entries.append((head, (lhs, rhs, ren(lhs), ren(rhs),
                                       blocking)))
            ops = {None, *(h for h, _ in entries), *self.nilpotent}
            m = {op: tuple(e for h, e in entries
                           if h in (op, None) or op in self.nilpotent)
                 for op in ops}
            object.__setattr__(self, "_rule_index", m)
        return m

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


def canonical_leaf(th: EquationalTheory, prefix: str, i: int, sort: str):
    """The leaf printed `{prefix}{i}` of the sort, one object per theory:
    the variable of that name, or for the prefix "c!" the fresh constant
    numbered i with hint "c".  The renamings that number leaves take them
    from here, so their renamed copies share leaves, and dicts and
    intern-table lookups compare those by identity."""
    key = (prefix, i, sort)
    table = th._canon_leaves
    got = table.get(key)
    if got is None:
        got = FreshConst(i, "c") if prefix == "c!" else \
            Var(f"{prefix}{i}", sort)
        table[key] = got
    return got


def canon(t: Term, th: EquationalTheory) -> Term:
    """Canonical form modulo the structural axioms (no rule rewriting),
    kept in the node's `_canon` slot for as long as the node lives."""
    if not isinstance(t, App) or not t.args:
        return t
    got = t._canon
    if got is th:
        return t
    if got.__class__ is tuple and got[0] is th:
        return got[1]
    return _keep(t, "_canon", _canon_app(t, th), th)


def _keep(t: App, slot: str, form: Term, th: EquationalTheory) -> Term:
    """Keep form as t's form under th in t's slot and return it.  A form
    node is marked with th alone, so no node refers to itself."""
    if form is t:
        object.__setattr__(t, slot, th)
    else:
        object.__setattr__(t, slot, (th, form))
        if form.__class__ is App:
            object.__setattr__(form, slot, th)
    return form


def _canon_app(t: App, th: EquationalTheory) -> Term:
    args = tuple(canon(a, th) for a in t.args)
    unit = th.nilpotent.get(t.op)
    if unit is None:
        return App(t.op, args, t.sort)
    flat = []
    for a in args:
        if isinstance(a, App) and a.op == t.op:
            flat.extend(a.args)
        elif a != unit:
            flat.append(a)
    flat = sym_diff(flat)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return App(t.op, tuple(flat), t.sort)


def sym_diff(atoms: list) -> list:
    """The atoms that occur an odd number of times, in term order: what a
    sum of them leaves under a nilpotent operator."""
    return sorted((t for t, n in Counter(atoms).items() if n % 2),
                  key=term_key)


def ac_atoms(t: Term, op: str, th: EquationalTheory) -> list:
    """The flattened argument list of t viewed as a sum under the
    exclusive-or operator op."""
    t = canon(t, th)
    if isinstance(t, App) and t.op == op:
        return list(t.args)
    if t == th.nilpotent[op]:
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
    """The canonical sum of the atoms under the exclusive-or operator op."""
    if not atoms:
        return th.nilpotent[op]
    if len(atoms) == 1:
        return atoms[0]
    return canon(App(op, tuple(atoms), sort), th)


def match_ax(pattern: Term, subject: Term, th: EquationalTheory,
             binding: Optional[dict] = None, leq=None) -> Iterator[dict]:
    """Match pattern against subject modulo the exclusive-or axioms.

    Yields extensions of the given binding (dicts from Var to Term).  Both
    sides must be canonical, and the pattern's variables apart from the
    subject's.  Free operators match argument by argument, sums last, so
    that their variables are bound by then.  A sum is matched by
    `_match_nilpotent`, which may lose matchers.
    With a subsort test `leq`, a variable binds only a subject whose sort
    is below its own.
    """
    if binding is None:
        binding = {}
    if isinstance(pattern, Var):
        if pattern in binding:
            if binding[pattern] == subject:
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
    if not isinstance(subject, App) or subject.op != pattern.op or \
            len(pattern.args) != len(subject.args):
        return
    pats, subjs = pattern.args, subject.args
    if nil:
        last = [isinstance(p, App) and p.op in nil for p in pats]
        if any(last):
            idx = sorted(range(len(pats)), key=last.__getitem__)
            pats = [pats[i] for i in idx]
            subjs = [subjs[i] for i in idx]
    yield from _match_seq(pats, subjs, th, binding, leq)


def _match_nilpotent(pattern: App, subject: Term, th: EquationalTheory,
                     binding: dict, leq) -> Iterator[dict]:
    """Match a sum under a nilpotent operator.  The pattern arguments whose
    variables the binding fixes are added to the subject, which cancels
    them.  An `absorber` of the leftovers takes the rest, and the others'
    variables are bound to themselves, fixed for later matches.  Without
    one, the leftovers are matched as under plain AC, where none cancel.
    Either may lose matchers."""
    op, sort = pattern.op, pattern.sort
    fixed, free = [], []
    for a in pattern.args:
        (fixed if variables(a) <= binding.keys() else free).append(a)
    rest = sym_diff([x for t in [subject] + [_apply(binding, a) for a in fixed]
                     for x in ac_atoms(t, op, th)])
    got = absorber(free, rest, op, sort, th, leq)
    if got is None:
        yield from _match_ac(free, rest, op, sort, th, binding, leq)
        return
    v, image = got
    pinned = {u: u for a in free for u in variables(a)
              if u != v and u not in binding}
    yield {**binding, v: image, **pinned}


def _match_seq(pats, subjs, th, binding, leq) -> Iterator[dict]:
    if not pats:
        yield binding
        return
    for b in match_ax(pats[0], subjs[0], th, binding, leq):
        yield from _match_seq(pats[1:], subjs[1:], th, b, leq)


def _match_ac(pats, subjs, op, sort, th, binding, leq) -> Iterator[dict]:
    """Match the pattern atoms against the subject atoms of a sum as if
    none cancelled: `_match_nilpotent`'s fallback.  Equal counts match by
    permutation; with fewer pattern atoms, the first variable among them
    absorbs the leftover subject atoms."""
    if len(pats) > len(subjs):
        return
    if len(pats) == len(subjs):
        seen = set()
        for perm in permutations(range(len(subjs))):
            for b in _match_seq(pats, [subjs[i] for i in perm], th, binding,
                                leq):
                key = frozenset(b.items())
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
    """A count of steps that allows exactly n of `what`: `spend` takes one
    and raises StepBudgetExceeded once none is left."""

    __slots__ = ("left", "what")

    def __init__(self, n: int, what: str):
        self.left, self.what = n, what

    def spend(self) -> None:
        if self.left <= 0:
            raise StepBudgetExceeded(f"{self.what} budget exhausted")
        self.left -= 1


def normalize(t: Term, th: EquationalTheory) -> Term:
    """The normal form of t under the theory's rules, modulo its axioms.

    Raises StepBudgetExceeded after th.step_budget rule applications, or
    when the rewritten term nests too deep for the stack, which flags a
    non-terminating rule set rather than looping forever.

    Backward search renormalizes the same payloads constantly, so the
    normal forms of t and of the subterms met on the way are kept in
    their nodes' `_norm` slots, for as long as the nodes live.
    """
    if not isinstance(t, App):
        return t  # rules have non-variable left sides
    got = t._norm
    if got is th:
        return t
    if got.__class__ is tuple and got[0] is th:
        return got[1]
    try:
        out = _normalize(canon(t, th), th,
                         _Budget(th.step_budget, "rewrite step"))
    except RecursionError:
        # a rule whose right side nests its left side nests the term
        # deeper at every step, and the stack runs out before the budget
        raise StepBudgetExceeded("rewrite step budget exhausted") from None
    return _keep(t, "_norm", out, th)


def _normalize(t: Term, th: EquationalTheory, budget: _Budget) -> Term:
    """The normal form of the canonical t, read from or kept in the
    `_norm` slot of each application met."""
    if not isinstance(t, App):
        return t
    got = t._norm
    if got is th:
        return t
    if got.__class__ is tuple and got[0] is th:
        return got[1]
    start = t
    args = tuple(_normalize(a, th, budget) for a in t.args)
    t = canon(App(t.op, args, t.sort), th)
    while isinstance(t, App):
        rewritten = _rewrite_root(t, th, budget)
        if rewritten is None:
            # a root canon step (flattening) can expose inner redexes only
            # when arguments changed, and those are already normal
            break
        t = rewritten
        if isinstance(t, App):
            t = canon(App(t.op, tuple(_normalize(a, th, budget) for a in t.args),
                          t.sort), th)
        else:
            t = canon(t, th)
    return _keep(start, "_norm", t, th)


def _rewrite_root(t: App, th: EquationalTheory, budget: _Budget) -> Optional[Term]:
    for _, _, lhs_r, rhs_r, _ in th.rule_index().get(t.op, ()):
        if not isinstance(lhs_r, App) or lhs_r.op != t.op:
            continue  # match_ax needs the same head
        for b in match_ax(lhs_r, t, th):
            budget.spend()
            return canon(Subst(b, _trusted=True)(rhs_r), th)
    return None


def eq_modulo(t1: Term, t2: Term, th: EquationalTheory) -> bool:
    """Equality modulo the full theory: normalize both sides and compare."""
    return normalize(t1, th) == normalize(t2, th)


def rigid(t: Term, th: EquationalTheory, assumed=None) -> bool:
    """Every instance keeps t's root and its arguments' instances, so no
    rule rewrites it at the root.  `assumed` holds terms taken to be
    irreducible in every instance.  An answer without `assumed` is kept in
    the node's `_rigid` slot as the pair (theory, answer)."""
    if isinstance(t, FreshConst):
        return True
    if isinstance(t, Var):
        return False
    if assumed:
        return _rigid(t, th, assumed)
    got = t._rigid
    if got is not None and got[0] is th:
        return got[1]
    out = _rigid(t, th, None)
    object.__setattr__(t, "_rigid", (th, out))
    return out


def _rigid(t: App, th: EquationalTheory, assumed) -> bool:
    if is_ground(t) or (assumed and t in assumed):
        return True
    if t.op in th.nilpotent:
        return False
    for _, _, lhs_r, _, blocking in th.rule_index().get(t.op, ()):
        if not isinstance(lhs_r, App) or lhs_r.op != t.op:
            continue  # `normalize` tries it on its own head alone
        if not any(isinstance(t.args[k], FreshConst) or
                   (isinstance(t.args[k], App) and t.args[k].op != h and
                    rigid(t.args[k], th, assumed))
                   for k, h in blocking):
            return False
    return True


def apart(t: Term, u: Term, th: EquationalTheory) -> bool:
    """No instance of t equals an instance of u modulo th: their normal
    forms clash on a symbol both keep in every instance.  A True answer is
    always right, a False one may be too cautious."""
    return _clash(normalize(t, th), normalize(u, th), th)


def _clash(t: Term, u: Term, th: EquationalTheory) -> bool:
    """`apart` on normal forms."""
    if is_ground(t) and is_ground(u):
        return t != u
    if not (rigid(t, th) and rigid(u, th)):
        return False  # a variable, or a root some instance rewrites
    if not (isinstance(t, App) and isinstance(u, App)) or \
            t.op != u.op or len(t.args) != len(u.args):
        return True
    return any(_clash(a, b, th) for a, b in zip(t.args, u.args))
