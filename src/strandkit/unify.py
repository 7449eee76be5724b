"""Unification: syntactic, modulo exclusive-or, and modulo rules.

The combined procedure follows the variant route: narrow each side with
the oriented rules until no new variant appears, once per search and up
to renaming (`side_variants`, memoized in the search's `Memo`), then
unify every pair of variants modulo exclusive-or, together with the
images of the variables the sides share.
Each pair goes to `unify_canonical`, which calls the theory's
exclusive-or solver (`theory._solve`), the one solver of sums.  Its
branch search is bounded by BRANCH_BUDGET per problem and raises
StepBudgetExceeded when that runs out, as the rewrite and variant budgets
do, so an answer is never a set cut short.  Every candidate is verified
by substitute, normalize and compare before it is reported, so soundness
never depends on the solver internals.  Matching modulo the theory
(`match_modulo`) runs `theory.match_ax`, which solves sums with the same
solver and the target's variables frozen, on the variants of the
pattern alone.

A problem is answered, in this order, by a clash of symbols that every
instance keeps (`theory.apart`: no answer, and nothing renamed), by the
memo, or by the loop over pairs of variants.
"""
from __future__ import annotations

import itertools
from typing import Optional

from .terms import (
    App,
    FRESH,
    FreshConst,
    IDENTITY,
    SortClash,
    Subst,
    Term,
    Var,
    _apply,
    term_key,
    tup,
    variables,
)
from .theory import (
    BRANCH_BUDGET,
    EquationalTheory,
    _Budget,
    _default_leq,
    _solve,
    apart,
    canon,
    canonical_leaf,
    eq_modulo,
    match_ax,
    normalize,
)


def unify_canonical(t1: Term, t2: Term, th: EquationalTheory,
                    leq=None, budget: Optional[_Budget] = None) -> list:
    """Unifiers modulo structural axioms only (no rule narrowing): the
    theory's solver with no variable frozen."""
    if budget is None:
        budget = _Budget(BRANCH_BUDGET, "unification branch")
    out = []
    for d in _solve([(t1, t2)], {}, th, budget, leq=leq):
        try:
            out.append(Subst(d))
        except SortClash:
            continue
    return _distinct(out)


def _subst_key(s: Subst):
    return tuple(sorted((v.name, v.sort, term_key(t)) for v, t in s.items()))


def _distinct(substs: list) -> list:
    """The substitutions, each once, in order of first occurrence."""
    return list({frozenset(s.items()): s for s in substs}.values())


def variants(t: Term, th: EquationalTheory) -> list:
    """Variant narrowing: pairs (variant, substitution) up to renaming.

    Each substitution is restricted to the variables of t and its ranges
    are normalized, so a theory with finite variants runs out of new ones
    and narrowing ends by itself.  Every narrowing step is charged to
    th.step_budget; a theory without finite variants raises
    StepBudgetExceeded.  This narrows afresh on every call;
    `side_variants`, memoized in a search's `Memo`, is the entry point
    that unification uses.
    The narrowing variables are numbered per call, so the variants of a
    term do not depend on what ran before.
    """
    base_vars = variables(t)
    nf = normalize(t, th)
    seen = {_pair_key(nf, IDENTITY, base_vars)}
    frontier = [(nf, IDENTITY)]
    out = [(nf, IDENTITY)]
    names = itertools.count(1)
    budget = _Budget(th.step_budget, "variant step")
    while frontier:
        new_frontier = []
        for (u, sigma) in frontier:
            for (u2, sigma2) in _narrow_once(u, sigma, th, names):
                budget.spend()
                sigma2 = Subst({x: normalize(sigma2(x), th) for x in base_vars},
                               _trusted=True)
                key = _pair_key(u2, sigma2, base_vars)
                if key in seen:
                    continue
                seen.add(key)
                new_frontier.append((u2, sigma2))
                out.append((u2, sigma2))
        frontier = new_frontier
    return out


def _pair_key(u, sigma, base_vars):
    # Identify variants up to renaming of the fresh narrowing variables.
    ren: dict = {}

    def k(t):
        if isinstance(t, Var):
            if t in base_vars:
                return (0, t.name, t.sort)
            return (3, ren.setdefault(t, len(ren)), t.sort)
        if isinstance(t, FreshConst):
            return (1, t.ident, t.hint)
        return (2, t.op, len(t.args)) + tuple(k(a) for a in t.args)

    ukey = k(u)
    skey = tuple(sorted((v.name, k(sigma(v))) for v in base_vars))
    return (ukey, skey)


def _narrow_once(u: Term, sigma: Subst, th: EquationalTheory, names):
    """One narrowing step at every position of u; `names` numbers the
    renamed copies of the rules tried."""
    from .terms import positions, replace_at, subterm_at

    index = th.rule_index()
    wild = index[None]
    results = []
    for pos in positions(u):
        sub = subterm_at(u, pos)
        if not isinstance(sub, App):
            continue
        # u is normal, so sub is canonical: the other rules cannot unify
        for lhs, rhs, _, _, _ in index.get(sub.op, wild):
            suffix = f"v{next(names)}"
            ren = {v: Var(f"{v.name}%{suffix}", v.sort) for v in variables(lhs)}
            rs = Subst(ren, _trusted=True)
            lhs_r, rhs_r = rs(lhs), rs(rhs)
            for theta in unify_canonical(sub, lhs_r, th):
                u2 = normalize(theta(replace_at(u, pos, rhs_r)), th)
                sigma2 = sigma.compose(theta)
                results.append((u2, sigma2))
    return results


class Memo:
    """The unifier and variant memos of one search, keyed by renamed
    hash-consed nodes (`_Renaming`).  A search makes one and drops it when
    done, so it holds only what that search asked and needs no cap."""

    __slots__ = ("unify", "variants")

    def __init__(self):
        self.unify: dict = {}
        self.variants: dict = {}


class _Renaming:
    """Renames variables to %W0, %W1, ... and fresh constants to c!0, c!1,
    ... in order of first occurrence, so that renamed copies of a term
    become equal; `back` undoes it.  Closed subterms are left as they
    are.  The new leaves come from the theory's table of canonical leaves
    (`theory.canonical_leaf`), so renamed copies of terms of one theory
    are one hash-consed node over the same leaf objects, and a `Memo`
    keyed by them compares leaves by identity."""

    __slots__ = ("th", "vars", "fresh", "_inv")

    def __init__(self, th: EquationalTheory):
        self.th = th
        self.vars: dict = {}
        self.fresh: dict = {}
        self._inv = None

    def __call__(self, t: Term) -> Term:
        if isinstance(t, App):
            if t.closed:
                return t
            return App(t.op, tuple([a if a.closed else self(a)
                                    for a in t.args]), t.sort)
        if isinstance(t, Var):
            got = self.vars.get(t)
            if got is None:
                got = canonical_leaf(self.th, "%W", len(self.vars), t.sort)
                self.vars[t] = got
            return got
        got = self.fresh.get(t)
        if got is None:
            got = canonical_leaf(self.th, "c!", len(self.fresh), FRESH)
            self.fresh[t] = got
        return got

    def back(self, t: Term) -> Term:
        """The original of a renamed term.  Variables the renaming did not
        make get a suffix of their own, apart from every other renaming's
        `back` in the same theory, whichever memo the answer came from."""
        if self._inv is None:
            self._inv = ({cv: ov for ov, cv in self.vars.items()},
                         {cf: of for of, cf in self.fresh.items()},
                         f"%g{next(self.th._back_ids)}")
        inv_vars, inv_fresh, aux = self._inv
        if isinstance(t, App):
            if t.closed:
                return t
            return App(t.op, tuple([a if a.closed else self.back(a)
                                    for a in t.args]), t.sort)
        if isinstance(t, Var):
            got = inv_vars.get(t)
            if got is not None:
                return got
            return Var(f"{t.name}{aux}", t.sort)
        return inv_fresh.get(t, t)


def side_variants(t: Term, th: EquationalTheory,
                  memo: Optional[Memo] = None) -> list:
    """`variants(t, th)`, memoized up to renaming in `memo` or a fresh one.

    The narrowing variables come back renamed apart from those of every
    other call in the same theory, so the variants of two sides never
    share one.
    """
    if memo is None:
        memo = Memo()
    ren = _Renaming(th)
    c = ren(t)
    hit = memo.variants.get(c)
    if hit is None:
        hit = memo.variants[c] = tuple(variants(c, th))
    back = ren.back
    return [(back(u), Subst({back(v): back(b) for v, b in sigma.items()},
                            _trusted=True))
            for u, sigma in hit]


def unify_modulo(t1: Term, t2: Term, th: EquationalTheory,
                 leq=None, memo: Optional[Memo] = None,
                 clash_tested: bool = False) -> tuple:
    """The verified unifiers modulo th, as a tuple of Subst.  Raises
    StepBudgetExceeded when the axiom solver's branch budget runs out.

    The two terms may share variables.  Unifiers are restricted to the
    variables of the problem, verified by substitute-normalize-compare,
    and minimized by discarding instances of more general unifiers.

    A clash of the sides (`theory.apart`) answers () before any renaming;
    `clash_tested` skips that test where the caller made it already.  The
    answer is the same either way: the test only saves the round trip.
    Other results are memoized in `memo` up to a renaming of variables and
    fresh constants, since backward search poses the same problems over
    and over with freshly renamed strand instances; without a memo the
    call uses a fresh one of its own.
    """
    if not clash_tested and apart(t1, t2, th):
        return ()  # a symbol clash: nothing renamed, nothing memoized
    return _memoized(_unify_modulo_raw, t1, t2, th, leq, memo)


def _memoized(raw, t1: Term, t2: Term, th: EquationalTheory, leq,
              memo: Optional[Memo]) -> tuple:
    """`raw(t1, t2, th, leq, memo)` memoized in `memo`, or a fresh memo, up
    to a renaming of variables and fresh constants."""
    if memo is None:
        memo = Memo()
    ren = _Renaming(th)
    c1, c2 = ren(t1), ren(t2)
    key = (raw, c1, c2, getattr(leq, "__self__", leq))
    hit = memo.unify.get(key)
    if hit is None:
        hit = memo.unify[key] = raw(c1, c2, th, leq, memo)
    if not hit:
        return hit
    # the substitutions bind only variables the renaming made
    back = ren.back
    return tuple(Subst({back(v): back(u) for v, u in s.items()},
                       _trusted=True) for s in hit)


def _unify_modulo_raw(t1: Term, t2: Term, th: EquationalTheory,
                      leq, memo: Optional[Memo] = None) -> tuple:
    """Unify each variant of t1 with each variant of t2 modulo the axioms.

    The normal form of an E-unifier factors through one variant of each
    side, and those two variants agree modulo the axioms on the variables
    the sides share; so unifying (v1, s1(x), ...) with (v2, s2(x), ...),
    x ranging over the shared variables, misses no unifier.
    """
    vars1, vars2 = variables(t1), variables(t2)
    problem_vars = vars1 | vars2
    side1, side2 = side_variants(t1, th, memo), side_variants(t2, th, memo)
    shared = sorted(vars1 & vars2, key=term_key)

    def goal(u, sigma):
        if not shared:
            return u
        return tup((u, *(sigma(x) for x in shared)))

    budget = _Budget(BRANCH_BUDGET, "unification branch")
    found = []
    goals2 = [(goal(u, sigma), sigma) for u, sigma in side2]
    for u1, sigma1 in side1:
        g1 = goal(u1, sigma1)
        for g2, sigma2 in goals2:
            for theta in unify_canonical(g1, g2, th, leq=leq, budget=budget):
                m = {x: theta(sigma2(x)) for x in vars2}
                m.update((x, theta(sigma1(x))) for x in vars1)
                cand = _deflate(Subst(m), problem_vars)
                if eq_modulo(cand(t1), cand(t2), th):
                    found.append(cand)
    minimized = sorted(_minimize(_distinct(found), problem_vars, th),
                       key=_subst_key)
    return tuple(minimized)


def _deflate(s: Subst, problem_vars: set) -> Subst:
    """Swap bindings of problem variables to auxiliary narrowing variables.

    A binding K -> W where W is an auxiliary variable names the same most
    general unifier as W -> K with K left untouched; the latter keeps the
    problem variables visible.  A swap makes no other binding swappable,
    so one pass in binding order does them all.
    """
    m = dict(s)
    for v in list(m):
        t = m[v]
        if isinstance(t, Var) and t not in problem_vars and t.sort == v.sort:
            del m[v]
            m = {k: _apply({t: v}, u) for k, u in m.items()}
    return Subst(m)


def _minimize(substs: list, problem_vars: set, th: EquationalTheory) -> list:
    """Drop unifiers that are instances of another unifier in the set."""
    keep = []
    for i, s in enumerate(substs):
        redundant = False
        for j, g in enumerate(substs):
            if i == j:
                continue
            if _is_instance_of(g, s, problem_vars, th):
                if j > i and _is_instance_of(s, g, problem_vars, th):
                    continue  # equivalent pair: keep the first one
                redundant = True
                break
        if not redundant:
            keep.append(s)
    return keep


def _is_instance_of(general: Subst, specific: Subst, problem_vars: set,
                    th: EquationalTheory) -> bool:
    """True if specific = general . rho (modulo axioms) on the problem vars."""
    pvs = sorted(problem_vars, key=term_key)
    gen = tup(normalize(general(v), th) for v in pvs)
    spe = tup(normalize(specific(v), th) for v in pvs)
    # a match may bind nothing, so count matches, not their truth
    return any(True for _ in match_ax(_apart(gen, th)[0], spe, th,
                                      leq=_default_leq))


def _apart(t: Term, th: EquationalTheory) -> tuple:
    """t made canonical with its variables renamed to %I0, %I1, ..., names
    no other term carries, so that it can be matched as a pattern; and
    the map back to the old names."""
    ren = {v: canonical_leaf(th, "%I", i, v.sort)
           for i, v in enumerate(sorted(variables(t), key=term_key))}
    return canon(_apply(ren, t), th), {w: v for v, w in ren.items()}


def match_modulo(pattern: Term, target: Term, th: EquationalTheory,
                 leq=None, binding: Optional[dict] = None,
                 memo: Optional[Memo] = None) -> tuple:
    """Matchers of pattern against target modulo th: substitutions of the
    pattern's variables under which it equals the target, whose variables
    stay fixed.  Given a `binding` of pattern variables to target terms,
    the images of the bound variables of the pattern are matched as part
    of the target, and each matcher extends the binding.  Memoized like
    `unify_modulo`, after the same clash test."""
    if apart(pattern, target, th):
        return ()
    bound = sorted(variables(pattern) & binding.keys(), key=term_key) \
        if binding else ()
    if bound:
        pattern = tup((pattern, *bound))
        target = tup((target, *(binding[v] for v in bound)))
    got = _memoized(_match_modulo_raw, pattern, target, th, leq, memo)
    if not binding:
        return got
    return tuple(Subst({**s, **binding}, _trusted=True) for s in got)


def _match_modulo_raw(pattern: Term, target: Term, th: EquationalTheory,
                      leq, memo: Optional[Memo] = None) -> tuple:
    """Match each variant of the pattern (`side_variants`), renamed apart
    from the target, against the target's normal form (`theory.match_ax`);
    keep the matchers that normalize and compare equal."""
    pat, back = _apart(pattern, th)
    subject = normalize(target, th)
    fixed = back.keys() | variables(subject)  # others come from narrowing
    out = []
    for u, sigma in side_variants(pat, th, memo):
        for b in match_ax(canon(u, th), subject, th, leq=leq):
            cand = _deflate(Subst({x: normalize(_apply(b, sigma(x)), th)
                                   for x in back}, _trusted=True), fixed)
            if normalize(cand(pat), th) == subject:
                out.append(Subst({back[x]: _apply(back, t)
                                  for x, t in cand.items()}, _trusted=True))
    return tuple(sorted(_distinct(out), key=_subst_key))
