"""Unification: syntactic, modulo structural axioms, and modulo rules.

The combined procedure follows the variant route: narrow each side with
the oriented rules to a bounded depth, once per theory and up to renaming
(`side_variants`), then unify every pair of variants modulo the structural
axioms, together with the images of the variables the sides share.
Exclusive-or subproblems go to a dedicated nilpotent-AC solver.  Every
candidate is verified by substitute, normalize and compare before it is
reported, so soundness never depends on the solver internals.  Matching
modulo the theory (`match_modulo`) runs `theory.match_ax` on the variants
of the pattern alone.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .terms import (
    App,
    FreshConst,
    IDENTITY,
    SortClash,
    Subst,
    Term,
    Var,
    _apply,
    least_sort,
    term_key,
    variables,
)
from .theory import (
    EquationalTheory,
    _Budget,
    absorber,
    ac_atoms,
    canon,
    eq_modulo,
    match_ax,
    memo_put,
    normalize,
    sym_diff,
)

VARIANT_DEPTH = 5
BRANCH_BUDGET = 512


@dataclass(frozen=True)
class UnifierSet:
    """A set of verified unifiers plus a completeness flag.

    `complete` is False when a search bound (variant depth, branch budget)
    was hit, meaning further unifiers may exist.
    """

    unifiers: tuple = ()
    complete: bool = True

    def __iter__(self):
        return iter(self.unifiers)

    def __len__(self):
        return len(self.unifiers)

    def __bool__(self):
        return bool(self.unifiers)


def _bind(v: Var, t: Term, subst: dict, th: EquationalTheory) -> Optional[dict]:
    t = canon(_apply(subst, t), th)
    if isinstance(t, Var) and t == v:
        return subst
    if v in variables(t):
        return None
    new = {v: t}
    out = {}
    for w, u in subst.items():
        out[w] = canon(_apply(new, u), th)
    out[v] = t
    return out


def _solve(eqns: list, subst: dict, th: EquationalTheory, budget: _Budget,
           leq=None) -> list:
    """DFS over unification branches; returns solved substitution dicts."""
    if leq is None:
        leq = _default_leq
    if not budget.spend():
        return []
    if not eqns:
        return [subst]
    (a, b), rest = eqns[0], eqns[1:]
    a = canon(_apply(subst, a), th)
    b = canon(_apply(subst, b), th)
    if term_key(a) == term_key(b):
        return _solve(rest, subst, th, budget, leq)
    out: list = []

    def try_branches(branches):
        for new_subst, new_eqns in branches:
            out.extend(_solve(new_eqns + rest, new_subst, th, budget, leq))

    # Variable cases
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Var):
            if isinstance(y, Var):
                if leq(y.sort, x.sort):
                    s2 = _bind(x, y, subst, th)
                elif leq(x.sort, y.sort):
                    s2 = _bind(y, x, subst, th)
                else:
                    s2 = None
            elif leq(least_sort(y), x.sort):
                s2 = _bind(x, y, subst, th)
            else:
                s2 = None
            if s2 is not None:
                try_branches([(s2, [])])
            return out
    if isinstance(a, FreshConst) or isinstance(b, FreshConst):
        return out  # unequal fresh constants (or constant vs application)
    # Both are applications.
    nil_op = a.op if a.op in th.nilpotent else \
        b.op if b.op in th.nilpotent else None
    if nil_op is not None:
        # each candidate is a list of (left, right) constraints; a Var on
        # the left proposes a binding, anything else is a residual equation
        atoms = sym_diff(ac_atoms(a, nil_op, th) + ac_atoms(b, nil_op, th))
        branches = []
        for partial in _solve_atoms(atoms, a.sort, nil_op, th, budget, leq):
            s2 = dict(subst)
            ok = True
            new_eqns = []
            for v, t in partial:
                if isinstance(v, Var):
                    if not leq(least_sort(t), v.sort):
                        ok = False
                        break
                    s3 = _bind(v, t, s2, th)
                    if s3 is None:
                        ok = False
                        break
                    s2 = s3
                else:
                    new_eqns.append((v, t))
            if ok:
                branches.append((s2, new_eqns))
        try_branches(branches)
        return out
    if a.op != b.op:
        return out
    ax = th.axiom(a.op)
    if ax is not None and ax.assoc and ax.comm:
        # Same AC operator without nilpotence: permutation branches.
        if len(a.args) != len(b.args):
            return out
        for perm in itertools.permutations(range(len(b.args))):
            try_branches([(dict(subst),
                           [(a.args[i], b.args[perm[i]]) for i in range(len(a.args))])])
        return out
    if len(a.args) != len(b.args):
        return out
    orders = [b.args]
    if ax is not None and ax.comm and len(b.args) == 2:
        orders = [b.args, b.args[::-1]]
    for order in orders:
        try_branches([(dict(subst), list(zip(a.args, order)))])
    return out


def _default_leq(s1: str, s2: str) -> bool:
    return s1 == s2 or s2 == "Msg"


def _solve_atoms(atoms: list, sort: str, op: str, th: EquationalTheory,
                 budget: _Budget, leq) -> list:
    if not atoms:
        return [[]]
    # A top-level variable not occurring elsewhere has a unique most general
    # solution in the Boolean group: bind it to the sum of the rest.
    got = absorber(atoms, [], op, sort, th, leq)
    if got is not None:
        return [[got]]
    # Otherwise alien atoms must cancel pairwise.
    if len(atoms) % 2 == 1 or not budget.spend():
        return []
    out = []
    a0, tail = atoms[0], atoms[1:]
    seen_partner = set()
    for j, aj in enumerate(tail):
        pk = term_key(aj)
        if pk in seen_partner:
            continue
        seen_partner.add(pk)
        for s in _solve([(a0, aj)], {}, th, budget, leq=leq):
            remaining = [_apply(s, t) for k, t in enumerate(tail) if k != j]
            remaining = sym_diff(
                [x for t in remaining for x in ac_atoms(t, op, th)])
            for rest_sol in _solve_atoms(remaining, sort, op, th, budget, leq):
                out.append([(v, t) for v, t in s.items()] + rest_sol)
    return out


def unify_canonical(t1: Term, t2: Term, th: EquationalTheory,
                    leq=None, budget: Optional[_Budget] = None) -> list:
    """Unifiers modulo structural axioms only (no rule narrowing)."""
    if budget is None:
        budget = _Budget(BRANCH_BUDGET)
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
    """The substitutions, each `_subst_key` once, in order of first
    occurrence."""
    return list({_subst_key(s): s for s in substs}.values())


def variants(t: Term, th: EquationalTheory, depth: int = VARIANT_DEPTH) -> tuple:
    """Bounded folding variant narrowing: pairs (variant, substitution).

    Returns (variant_list, complete) where complete is False if the depth
    bound cut narrowing short.  This narrows afresh on every call;
    `side_variants` is the memoized entry point that unification uses.
    The narrowing variables are numbered per call, so the variants of a
    term do not depend on what ran before.
    """
    base_vars = variables(t)
    nf = normalize(t, th)
    seen = {(_pair_key(nf, IDENTITY, base_vars)): None}
    frontier = [(nf, IDENTITY)]
    out = [(nf, IDENTITY)]
    names = itertools.count(1)
    for _ in range(depth):
        new_frontier = []
        for (u, sigma) in frontier:
            for (u2, sigma2) in _narrow_once(u, sigma, th, names):
                key = _pair_key(u2, sigma2, base_vars)
                if key in seen:
                    continue
                seen[key] = None
                new_frontier.append((u2, sigma2))
                out.append((u2, sigma2))
        frontier = new_frontier
        if not frontier:
            break
    return out, not frontier


def _pair_key(u, sigma, base_vars):
    # Identify variants up to renaming of the fresh narrowing variables.
    ren: dict = {}

    def k(t):
        if isinstance(t, Var):
            if t in base_vars:
                return (0, t.name, t.sort)
            return (3, ren.setdefault(t, len(ren)), t.sort)
        if isinstance(t, FreshConst):
            return (1, t.ident)
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
        for lhs, rhs, _, _ in index.get(sub.op, wild):
            suffix = f"v{next(names)}"
            ren = {v: Var(f"{v.name}%{suffix}", v.sort) for v in variables(lhs)}
            rs = Subst(ren, _trusted=True)
            lhs_r, rhs_r = rs(lhs), rs(rhs)
            for theta in unify_canonical(sub, lhs_r, th):
                u2 = normalize(theta(replace_at(u, pos, rhs_r)), th)
                sigma2 = sigma.compose(theta)
                results.append((u2, sigma2))
    return results


# entry caps of each theory's unifier and variant memos (see
# `theory.memo_put`)
UNIFY_CACHE_CAP = 100_000
VARIANT_CACHE_CAP = 20_000


def memo_entries(th: EquationalTheory) -> dict:
    """Current entry counts of th's unifier and variant memos."""
    return {"unify": len(th._unify_cache),
            "variants": len(th._variant_cache)}


class _Renaming:
    """Renames variables to %W0, %W1, ... and fresh constants to c0, c1,
    ... in order of first occurrence, so that renamed copies of a term
    become equal; `back` undoes it.  Closed subterms are left as they
    are."""

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
                got = Var(f"%W{len(self.vars)}", t.sort)
                self.vars[t] = got
            return got
        got = self.fresh.get(t)
        if got is None:
            got = FreshConst(len(self.fresh), "c")
            self.fresh[t] = got
        return got

    def back(self, t: Term) -> Term:
        """The original of a renamed term.  Variables the renaming did not
        make get a suffix of their own, apart from every other renaming's
        `back` in the same theory."""
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


def side_variants(t: Term, th: EquationalTheory) -> tuple:
    """`variants(t, th)`, memoized per theory up to renaming.

    The substitutions are restricted to the variables of t, and the
    narrowing variables come back renamed apart from those of every other
    call in the same theory, so the variants of two sides never share one.
    """
    ren = _Renaming(th)
    c = ren(t)
    cache = th._variant_cache
    hit = cache.get(c)
    if hit is None:
        found, complete = variants(c, th)
        base = variables(c)
        hit = (tuple((u, sigma.restrict(base)) for u, sigma in found), complete)
        memo_put(cache, c, hit, VARIANT_CACHE_CAP)
    found, complete = hit
    back = ren.back
    return [(back(u), Subst({back(v): back(b) for v, b in sigma.items()},
                            _trusted=True))
            for u, sigma in found], complete


def unify_modulo(t1: Term, t2: Term, th: EquationalTheory,
                 leq=None) -> UnifierSet:
    """A complete-up-to-bounds set of verified unifiers modulo th.

    The two terms may share variables.  Unifiers are restricted to the
    variables of the problem, verified by substitute-normalize-compare,
    and minimized by discarding instances of more general unifiers.

    Results are memoized per theory up to a renaming of variables and
    fresh constants, since backward search poses the same problems over
    and over with freshly renamed strand instances.
    """
    return _memoized(_unify_modulo_raw, t1, t2, th, leq)


def _memoized(raw, t1: Term, t2: Term, th: EquationalTheory,
              leq) -> UnifierSet:
    """`raw(t1, t2, th, leq)` memoized in th's unifier memo up to a
    renaming of variables and fresh constants."""
    ren = _Renaming(th)
    c1, c2 = ren(t1), ren(t2)
    cache = th._unify_cache
    cache_key = (raw, c1, c2, getattr(leq, "__self__", leq))
    hit = cache.get(cache_key)
    if hit is None:
        hit = raw(c1, c2, th, leq)
        memo_put(cache, cache_key, hit, UNIFY_CACHE_CAP)
    if not hit.unifiers:
        return hit
    # the substitutions bind only variables the renaming made
    back = ren.back
    out = [Subst({back(v): back(u) for v, u in s.items()}, _trusted=True)
           for s in hit.unifiers]
    return UnifierSet(tuple(out), hit.complete)


def _unify_modulo_raw(t1: Term, t2: Term, th: EquationalTheory,
                      leq) -> UnifierSet:
    """Unify each variant of t1 with each variant of t2 modulo the axioms.

    The normal form of an E-unifier factors through one variant of each
    side, and those two variants agree modulo the axioms on the variables
    the sides share; so unifying (v1, s1(x), ...) with (v2, s2(x), ...),
    x ranging over the shared variables, misses no unifier.
    """
    vars1, vars2 = variables(t1), variables(t2)
    problem_vars = vars1 | vars2
    side1, complete1 = side_variants(t1, th)
    side2, complete2 = side_variants(t2, th)
    shared = sorted(vars1 & vars2, key=term_key)

    def goal(u, sigma):
        if not shared:
            return u
        return App("%tup", (u,) + tuple(sigma(x) for x in shared), "Msg")

    budget = _Budget(BRANCH_BUDGET)
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
    complete = complete1 and complete2 and not budget.blown
    minimized = _minimize(_distinct(found), problem_vars, th)
    minimized.sort(key=_subst_key)
    return UnifierSet(tuple(minimized), complete)


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
    gen = App("%tup", tuple(normalize(general(v), th) for v in pvs), "Msg")
    spe = App("%tup", tuple(normalize(specific(v), th) for v in pvs), "Msg")
    # a match may bind nothing, so count matches, not their truth
    return any(True for _ in match_ax(_apart(gen, th)[0], spe, th,
                                      leq=_default_leq))


def _apart(t: Term, th: EquationalTheory) -> tuple:
    """t made canonical with its variables renamed to %I0, %I1, ..., names
    no other term carries, so that it can be matched as a pattern; and
    the map back to the old names."""
    ren = {v: Var(f"%I{i}", v.sort)
           for i, v in enumerate(sorted(variables(t), key=term_key))}
    return canon(_apply(ren, t), th), {w: v for v, w in ren.items()}


def match_modulo(pattern: Term, target: Term, th: EquationalTheory,
                 leq=None, binding: Optional[dict] = None) -> UnifierSet:
    """Matchers of pattern against target modulo th: substitutions of the
    pattern's variables under which it equals the target, whose variables
    stay fixed.  Given a `binding` of pattern variables to target terms,
    the images of the bound variables of the pattern are matched as part
    of the target, and each matcher extends the binding.  Memoized like
    `unify_modulo`."""
    bound = sorted(variables(pattern) & binding.keys(), key=term_key) \
        if binding else ()
    if bound:
        pattern = App("%tup", (pattern, *bound), "Msg")
        target = App("%tup", (target, *(binding[v] for v in bound)), "Msg")
    got = _memoized(_match_modulo_raw, pattern, target, th, leq)
    if not binding:
        return got
    return UnifierSet(tuple(Subst({**s, **binding}, _trusted=True)
                            for s in got), got.complete)


def _match_modulo_raw(pattern: Term, target: Term, th: EquationalTheory,
                      leq) -> UnifierSet:
    """Match each variant of the pattern (`side_variants`), renamed apart
    from the target, against the target's normal form (`theory.match_ax`);
    keep the matchers that normalize and compare equal.  Incomplete where
    the variants are, or where `match_ax` counted a gap."""
    pat, back = _apart(pattern, th)
    subject = normalize(target, th)
    fixed = back.keys() | variables(subject)  # others come from narrowing
    found, complete = side_variants(pat, th)
    gaps, out = th._match_gaps[0], []
    for u, sigma in found:
        for b in match_ax(canon(u, th), subject, th, leq=leq):
            cand = _deflate(Subst({x: normalize(_apply(b, sigma(x)), th)
                                   for x in back}, _trusted=True), fixed)
            if normalize(cand(pat), th) == subject:
                out.append(Subst({back[x]: _apply(back, t)
                                  for x, t in cand.items()}, _trusted=True))
    complete = complete and th._match_gaps[0] == gaps
    return UnifierSet(tuple(sorted(_distinct(out), key=_subst_key)), complete)
