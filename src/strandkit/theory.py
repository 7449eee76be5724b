"""Equational theories: exclusive-or axioms plus oriented rewrite rules.

The one structural axiom is exclusive-or: an operator declared
associative, commutative and nilpotent with a unit.  `canon` compiles it
away, flattening and sorting each sum's argument list, removing the unit
and cancelling equal pairs.  Every other operator is free.  The oriented
rules are applied by `normalize` modulo those canonical forms.

The one exclusive-or solver, `_solve`, lives here as well: `unify` poses
its unification problems to it, and `match_ax` its matching problems,
since matching is unification in which the subject's variables act as
constants.  Its branch search is bounded by BRANCH_BUDGET per problem.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Optional, Sequence

from .terms import (
    App,
    FreshConst,
    Subst,
    Term,
    Var,
    _apply,
    is_ground,
    least_sort,
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
        head never matches there (a sum may match a term of any head).

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


def absorber(atoms: list, op: str, sort: str, th: EquationalTheory, leq,
             frozen) -> Optional[tuple]:
    """(v, s) for the first variable v among `atoms`, outside `frozen`, that
    occurs in no other atom and may take, under `leq`, the sum s of the
    others: v -> s most generally makes the sum the unit; or None."""
    for i, v in enumerate(atoms):
        if isinstance(v, Var) and v not in frozen:
            s = ac_combine(atoms[:i] + atoms[i + 1:], op, th, sort)
            if v not in variables(s) and leq(s.sort, v.sort):
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
    subject's.  Free operators match argument by argument.  Each sum met
    is put off, and at the end the sums are solved together, with the
    binding applied, by the unifier's own solver (`_solve`), which must
    not bind the variables of the subject or of the binding's images.
    So a variable that occurs both inside and outside a sum is bound by
    the free part first.  A matcher may leave a variable of a sum free:
    M * N matches a with M -> N * a.
    With a subsort test `leq`, a variable binds only a subject whose sort
    is below its own; without one, the sums are solved under `_solve`'s
    default order.
    """
    sums: list = []
    b = _match_free(pattern, subject, th, dict(binding or ()), leq, sums)
    if b is None:
        return
    if not sums:
        yield b
        return
    frozen = variables(subject).union(*map(variables, b.values()))
    yield from _solve(sums, b, th, _Budget(BRANCH_BUDGET,
                                           "unification branch"),
                      leq, frozen)


def _match_free(p: Term, s: Term, th: EquationalTheory, b: dict, leq,
                sums: list) -> Optional[dict]:
    """`match_ax` outside sums: b extended in place so that p matches s,
    with each (sum, subject) pair met appended to `sums`; or None.  No
    sum left, the matcher is unique."""
    if isinstance(p, Var):
        got = b.get(p)
        if got is None:
            if leq is not None and not leq(s.sort, p.sort):
                return None
            b[p] = s
            return b
        return b if got == s else None
    if isinstance(p, FreshConst):
        return b if p == s else None
    if p.op in th.nilpotent:
        sums.append((p, s))
        return b
    if not isinstance(s, App) or s.op != p.op or len(p.args) != len(s.args):
        return None
    for pa, sa in zip(p.args, s.args):
        if _match_free(pa, sa, th, b, leq, sums) is None:
            return None
    return b


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


# branches one unification or matching problem may take; under plain
# exclusive-or, pairing the alien atoms of f(X0) * ... * f(X3) =?
# f(a0) * ... * f(a3) runs past it
BRANCH_BUDGET = 512


def _bind(v: Var, t: Term, subst: dict, th: EquationalTheory) -> Optional[dict]:
    t = canon(_apply(subst, t), th)
    if isinstance(t, Var) and t == v:
        return subst
    if v in variables(t):
        return None
    new = {v: t}
    return {**{w: canon(_apply(new, u), th) for w, u in subst.items()}, v: t}


def _default_leq(s1: str, s2: str) -> bool:
    return s1 == s2 or s2 == "Msg"


def _solve(eqns: list, subst: dict, th: EquationalTheory, budget: _Budget,
           leq=None, frozen=frozenset()) -> list:
    """DFS over unification branches; returns solved substitution dicts.
    Free operators decompose argument by argument; a problem with a sum on
    either side goes to the exclusive-or solver `_solve_atoms`.  The
    variables in `frozen` act as constants: matching freezes the
    subject's, unification none."""
    if leq is None:
        leq = _default_leq
    budget.spend()
    if not eqns:
        return [subst]
    (a, b), rest = eqns[0], eqns[1:]
    a = canon(_apply(subst, a), th)
    b = canon(_apply(subst, b), th)
    if a == b:
        return _solve(rest, subst, th, budget, leq, frozen)
    # Variable cases
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Var) and x not in frozen:
            if leq(least_sort(y), x.sort):
                s2 = _bind(x, y, subst, th)
            elif isinstance(y, Var) and y not in frozen and \
                    leq(x.sort, y.sort):
                s2 = _bind(y, x, subst, th)
            else:
                s2 = None
            return [] if s2 is None else \
                _solve(rest, s2, th, budget, leq, frozen)
    # Sums take the sort of the side that is one, whichever side of the
    # problem that is.
    nil = a if isinstance(a, App) and a.op in th.nilpotent else \
        b if isinstance(b, App) and b.op in th.nilpotent else None
    if nil is not None:
        # each candidate is a list of (left, right) constraints; a Var on
        # the left proposes a binding, anything else is a residual equation
        atoms = sym_diff(ac_atoms(a, nil.op, th) + ac_atoms(b, nil.op, th))
        out: list = []
        for partial in _solve_atoms(atoms, nil.sort, nil.op, th, budget,
                                    leq, frozen):
            s2, new_eqns = subst, []
            for v, t in partial:
                if not isinstance(v, Var):
                    new_eqns.append((v, t))
                    continue
                s2 = _bind(v, t, s2, th) \
                    if leq(least_sort(t), v.sort) else None
                if s2 is None:
                    break
            else:
                out.extend(_solve(new_eqns + rest, s2, th, budget, leq,
                                  frozen))
        return out
    # unequal fresh constants or frozen variables, or a clash of symbols
    if not (isinstance(a, App) and isinstance(b, App)) or a.op != b.op or \
            len(a.args) != len(b.args):
        return []
    return _solve(list(zip(a.args, b.args)) + rest, subst, th, budget, leq,
                  frozen)


def _solve_atoms(atoms: list, sort: str, op: str, th: EquationalTheory,
                 budget: _Budget, leq, frozen) -> list:
    if not atoms:
        return [[]]
    # A top-level variable not occurring elsewhere has a unique most general
    # solution in the Boolean group: bind it to the sum of the rest.
    got = absorber(atoms, op, sort, th, leq, frozen)
    if got is not None:
        return [[got]]
    # Otherwise alien atoms must cancel pairwise.
    if len(atoms) % 2 == 1:
        return []
    budget.spend()
    out = []
    a0, tail = atoms[0], atoms[1:]
    seen_partner = set()
    for j, aj in enumerate(tail):
        if aj in seen_partner:
            continue
        seen_partner.add(aj)
        for s in _solve([(a0, aj)], {}, th, budget, leq, frozen):
            remaining = [_apply(s, t) for k, t in enumerate(tail) if k != j]
            remaining = sym_diff(
                [x for t in remaining for x in ac_atoms(t, op, th)])
            for rest_sol in _solve_atoms(remaining, sort, op, th, budget,
                                         leq, frozen):
                out.append([(v, t) for v, t in s.items()] + rest_sol)
    return out


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
