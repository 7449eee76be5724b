import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit import unify
from strandkit.dsl import parse_document
from strandkit.semantics import BASIC, SYNC, runtime_spec
from strandkit.terms import (
    App,
    FreshConst,
    Subst,
    Var,
    _apply,
    const,
    positions,
    leaves,
    replace_at,
    skeleton,
    subterm_at,
    term_key,
    variables,
)
from strandkit.theory import (
    AxiomDecl,
    EquationalTheory,
    StepBudgetExceeded,
    eq_modulo,
    normalize,
)
from strandkit.unify import (
    Memo,
    match_modulo,
    unify_canonical,
    unify_modulo,
    variants,
)

ZERO = const("zero", "Msg")


def xor(*args):
    return App("xor", tuple(args), "Msg")


XOR_TH = EquationalTheory(
    axioms=(("xor", AxiomDecl(assoc=True, comm=True, unit=ZERO, nilpotent=True)),),
)

X, Y, Z, K, M = Var("X"), Var("Y"), Var("Z"), Var("K"), Var("M")


def e(k, m):
    return App("e", (k, m), "Msg")


def d(k, m):
    return App("d", (k, m), "Msg")


ED_TH = EquationalTheory(rules=((d(X, e(X, Z)), Z), (e(X, d(X, Z)), Z)))


def syntactic_unify(t1, t2):
    """The most general syntactic unifier of t1 and t2, or None."""
    got = unify_canonical(t1, t2, EquationalTheory())
    assert len(got) <= 1
    return got[0] if got else None


def test_syntactic_unify_basic():
    s = syntactic_unify(App("f", (X, const("b"))), App("f", (const("a"), Y)))
    assert s is not None
    assert s(X) == const("a") and s(Y) == const("b")


def test_syntactic_unify_occurs_check():
    assert syntactic_unify(X, App("f", (X,))) is None


def test_syntactic_unify_clash():
    assert syntactic_unify(const("a"), const("b")) is None


def test_syntactic_unify_shared_vars():
    s = syntactic_unify(App("f", (X, X)), App("f", (Y, const("a"))))
    assert s is not None
    assert s(X) == const("a") and s(Y) == const("a")


def test_fresh_constants_unify_only_with_themselves():
    f1, f2 = FreshConst(1), FreshConst(2)
    assert syntactic_unify(f1, f2) is None
    assert syntactic_unify(f1, f1) is not None


def test_variants_of_decrypt():
    t = d(K, X)
    vs = variants(t, ED_TH)
    # the identity variant plus the collapse where X is an encryption
    assert len(vs) == 2
    terms = {term_key(v) for v, _ in vs}
    assert term_key(t) in terms


def test_unify_modulo_decrypt_csu():
    got = unify_modulo(d(K, X), Y, ED_TH)
    assert len(got) == 2
    for s in got:
        assert eq_modulo(s(d(K, X)), s(Y), ED_TH)
    shapes = set()
    for s in got:
        if Y in s:
            assert s(Y) == d(K, X)
            shapes.add("y")
        else:
            assert s(X) == e(K, Y)
            shapes.add("x")
    assert shapes == {"x", "y"}


def test_unify_modulo_verifies_all_unifiers():
    t1 = e(K, d(K, X))
    t2 = const("m")
    got = unify_modulo(t1, t2, ED_TH)
    assert got
    for s in got:
        assert eq_modulo(s(t1), s(t2), ED_TH)


def test_xor_unify_single_variable():
    a, b = const("na"), const("nb")
    got = unify_modulo(xor(X, b), xor(a, b), XOR_TH)
    assert len(got) == 1
    (s,) = got
    assert s(X) == a


def test_xor_unify_master_solution():
    a, b = const("na"), const("nb")
    got = unify_modulo(xor(X, Y), xor(a, b), XOR_TH)
    assert len(got) == 1
    (s,) = got
    assert eq_modulo(s(xor(X, Y)), xor(a, b), XOR_TH)


def test_xor_unify_cancellation_to_zero():
    a = const("na")
    got = unify_modulo(xor(X, X), ZERO, XOR_TH)
    assert len(got) == 1
    assert got[0].is_identity()
    got2 = unify_modulo(xor(a, a), ZERO, XOR_TH)
    assert got2 and got2[0].is_identity()


def test_xor_unify_alien_pairing():
    f = lambda t: App("f", (t,), "Msg")
    a = const("a")
    got = unify_modulo(xor(f(X), f(a)), ZERO, XOR_TH)
    assert any(s(X) == a for s in got)


def test_xor_unify_pairs_alien_atoms():
    """No atom of the sum is a variable that could take the rest, so each
    f-atom of one side cancels against one of the other side's: the
    solver pairs them both ways."""
    f = lambda t: App("f", (t,), "Msg")
    a, b = const("a"), const("b")
    got = unify_modulo(xor(f(X), f(Y)), xor(f(a), f(b)), XOR_TH)
    assert len(got) == 2
    assert {frozenset(s.items()) for s in got} == {
        frozenset({X: a, Y: b}.items()), frozenset({X: b, Y: a}.items())}


def test_xor_unify_under_constructor():
    a, b = const("na"), const("nb")
    t1 = App("pk", (const("c", "Name"), xor(X, b)), "Msg")
    t2 = App("pk", (const("c", "Name"), xor(a, b)), "Msg")
    got = unify_modulo(t1, t2, XOR_TH)
    assert any(s(X) == a for s in got)


def test_branch_budget_raises_on_four_alien_pairs():
    """f(X0) * ... * f(X3) =? f(a0) * ... * f(a3) has 24 unifiers, one per
    pairing of the atoms, but pairing them runs past BRANCH_BUDGET: the
    solver raises rather than answer with fewer."""
    f = lambda t: App("f", (t,), "Msg")
    for n, want in ((2, 2), (3, 6)):
        got = unify_modulo(xor(*(f(Var(f"X{i}")) for i in range(n))),
                           xor(*(f(const(f"a{i}")) for i in range(n))),
                           XOR_TH)
        assert len(got) == want
    with pytest.raises(StepBudgetExceeded,
                       match="unification branch budget exhausted"):
        unify_modulo(xor(*(f(Var(f"X{i}")) for i in range(4))),
                     xor(*(f(const(f"a{i}")) for i in range(4))), XOR_TH)


def test_variants_raise_when_the_branch_budget_runs_out(monkeypatch):
    """Narrowing sk(A, X) with sk(A, pk(A, M)) -> M needs more than one
    branch: with a budget of one, variants raises instead of keeping the
    identity variant alone."""
    (th, op), *_ = _spec_theories()
    t = op("sk", Var("A", "Name"), X)
    assert len(variants(t, th)) == 2
    monkeypatch.setattr(unify, "BRANCH_BUDGET", 1)
    with pytest.raises(StepBudgetExceeded,
                       match="unification branch budget exhausted"):
        variants(t, th)


def test_unify_modulo_fails_cleanly():
    got = unify_modulo(const("a"), const("b"), ED_TH)
    assert not got


def test_match_modulo_one_sided():
    pat = App("pk", (X, Y), "Msg")
    target = App("pk", (Var("A", "Msg"), const("m")), "Msg")
    got = match_modulo(pat, target, ED_TH)
    assert got
    s = got[0]
    assert s(pat) == target
    # target variables must not be instantiated
    assert s.keys() <= variables(pat)


def test_match_modulo_respects_theory():
    a = const("a", "Name")
    pat = App("sk", (a, App("pk", (a, X), "Msg")), "Msg")
    target = const("m")
    th = EquationalTheory(
        rules=((App("sk", (Var("A", "Name"), App("pk", (Var("A", "Name"), M), "Msg")), "Msg"), M),)
    )
    got = match_modulo(pat, target, th)
    assert any(eq_modulo(s(pat), target, th) for s in got)


def test_match_modulo_sum_of_variables():
    """M * N matches a with M -> N * a under the nsl_db theory, as the
    exclusive-or intruder strand -(M) ; -(N) ; +(M * N) needs."""
    *_, (th, op) = _spec_theories()
    pat, a = op("*", M, Var("N")), op("a")
    assert any(eq_modulo(s(pat), a, th) for s in match_modulo(pat, a, th))


def test_a_sum_takes_the_sort_of_its_own_side():
    """n(b, r!1) =? A1:Nonce * M under the nsl_db theory has the one
    well-sorted unifier M -> A1 * n(b, r!1), whichever side the sum is
    on: A1 cannot take a sum, which has sort Msg."""
    spec = runtime_spec(parse_document((SPECS / "nsl_db.strand").read_text()),
                        SYNC)
    op, leq = spec.signature.make, spec.signature.leq
    nonce = op("n", op("b"), FreshConst(1))
    total = op("*", Var("A1", "Nonce"), M)
    want = normalize(op("*", Var("A1", "Nonce"), nonce), spec.theory)
    for t1, t2 in ((nonce, total), (total, nonce)):
        got = unify_modulo(t1, t2, spec.theory, leq=leq)
        assert [dict(s) for s in got] == [{M: want}]
        assert all(leq(t.sort, v.sort) for s in got for v, t in s.items())


def _h(*args):
    return App("h", args, "Msg")


@pytest.mark.parametrize("pattern, target", [
    # two leftover arguments of a sum that must cancel
    (xor(_h(X, Y), _h(const("a"), Y)), ZERO),
    (xor(X, Y, _h(X, Y)), _h(const("a"), const("a"))),
    # a variable that a sum leaves free, needed again after it
    (_h(_h(xor(X, Y)), X), _h(_h(const("c")), const("d"))),
])
def test_match_modulo_reports_what_it_may_miss(pattern, target):
    """Each of these has a matcher that `match_ax` does not find: with no
    completeness flag left, `match_modulo` must report a matcher all the
    same, since its empty answer says that there is none."""
    assert any(eq_modulo(s(pattern), target, XOR_TH)
               for s in match_modulo(pattern, target, XOR_TH))


def test_match_modulo_unifies_with_the_target_frozen():
    """Where `match_ax` finds no matcher of a sum, `match_modulo` unifies
    with the target's variables frozen: they come back unbound in the
    matchers, and a sum with no matcher still gets none."""
    a = Var("A")
    got = match_modulo(xor(X, Y, _h(X, Y)), _h(a, a), XOR_TH)
    assert [dict(s) for s in got] == [{X: a, Y: a}]
    assert match_modulo(xor(_h(X), _h(Y)), _h(const("a")), XOR_TH) == ()


def test_unifier_sets_are_deterministic():
    got1 = unify_modulo(d(K, X), Y, ED_TH)
    got2 = unify_modulo(d(K, X), Y, ED_TH)
    assert [repr(s) for s in got1] == [repr(s) for s in got2]


SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


def _narrow_everywhere(u, sigma, th, names):
    """Reference narrowing step: every rule at every position of u."""
    out = []
    for pos in positions(u):
        sub = subterm_at(u, pos)
        if not isinstance(sub, App):
            continue
        for lhs, rhs in th.rules:
            n = next(names)
            rs = Subst({v: Var(f"{v.name}%v{n}", v.sort)
                        for v in variables(lhs)}, _trusted=True)
            for theta in unify.unify_canonical(sub, rs(lhs), th):
                out.append((normalize(theta(replace_at(u, pos, rs(rhs))), th),
                            sigma.compose(theta)))
    return out


def _variant_keys(t, th):
    vs = variants(t, th)
    base = variables(t)
    return {unify._pair_key(u, s, base) for u, s in vs}


def _spec_theories():
    """(theory, term maker) of the nsl, nsl_kd and nsl_db specs."""
    def spec(name, mode=SYNC):
        sp = runtime_spec(parse_document((SPECS / name).read_text()), mode)
        return sp.theory, sp.signature.make

    return spec("nsl.strand", BASIC), spec("nsl_kd.strand"), \
        spec("nsl_db.strand")


def _spec_terms():
    """Terms over the theories of the shipped specs, each with its theory."""
    (nsl, nsl_op), (kd, kd_op), (db, db_op) = _spec_theories()
    A, B = Var("A", "Name"), Var("B", "Name")
    K = Var("K", "Key")
    X, Y = Var("X"), Var("Y")

    def pair(t1, t2):
        return App("%pair", (t1, t2), "Msg")

    na = nsl_op("n", nsl_op("a"), FreshConst(1))
    return {
        "nsl-sk": (nsl, nsl_op("sk", A, X)),
        "nsl-nested": (nsl, nsl_op("pk", A, nsl_op("sk", B, X))),
        "nsl-pair": (nsl, pair(nsl_op("pk", A, X), nsl_op("sk", B, na))),
        "kd-d": (kd, kd_op("d", K, X)),
        "kd-pair": (kd, pair(kd_op("e", K, kd_op("d", K, X)),
                             kd_op("sk", A, Y))),
        # sums, narrowed against the pk/sk left sides at the sum itself
        "db-sum": (db, db_op("*", X, na)),
        "db-pair": (db, pair(db_op("*", X, Y), db_op("pk", A, X))),
        "db-nested": (db, db_op("sk", A, db_op("*", X, na))),
    }


SPEC_TERMS = _spec_terms()


@pytest.mark.parametrize("name", sorted(SPEC_TERMS))
def test_variants_match_narrowing_at_every_position(name, monkeypatch):
    """Narrowing tries a rule only where its left side's head matches, or
    under exclusive-or; trying every rule everywhere adds no variant."""
    th, t = SPEC_TERMS[name]
    got = _variant_keys(t, th)
    monkeypatch.setattr(unify, "_narrow_once", _narrow_everywhere)
    want = _variant_keys(t, th)
    assert got == want
    assert len(want) > 1  # some rule applies


@pytest.mark.parametrize("n", range(1, 9))
def test_variants_of_pk_sk_nests_are_finite(n):
    """sk(A1, pk(A2, sk(A3, ... X))) has 2**n variants: each cancellation
    is in or out.  Narrowing ends by itself, with normalized
    substitutions."""
    (nsl, nsl_op), _, _ = _spec_theories()
    t = X
    for i in range(n):
        t = nsl_op("pk" if i % 2 else "sk", Var(f"A{i}", "Name"), t)
    vs = variants(t, nsl)
    assert len(vs) == 2 ** n
    for u, s in vs:
        assert normalize(s(t), nsl) == u


def test_variants_without_finite_variants_exhaust_the_budget():
    # plus(X, Y) narrows to s(plus(X, Y1)), s(s(plus(X, Y2))), ...
    def plus(a, b):
        return App("plus", (a, b), "Msg")

    def s(a):
        return App("s", (a,), "Msg")

    th = EquationalTheory(rules=((plus(X, s(Y)), s(plus(X, Y))),),
                          step_budget=50)
    with pytest.raises(StepBudgetExceeded):
        variants(plus(X, Y), th)


def test_sum_narrows_against_pk_sk():
    th, t = SPEC_TERMS["db-sum"]
    vs = variants(t, th)
    # X * n(a, r) narrowed with sk(A, pk(A, M)) -> M gives the variant M
    assert any(isinstance(u, Var) for u, _ in vs)


def _pair_narrowing_unifiers(t1, t2, th):
    """Reference unifier set: narrow %pair(t1, t2) as one term, then unify
    the two components of each variant modulo the axioms."""
    problem_vars = variables(t1) | variables(t2)
    found = variants(App("%pair", (t1, t2), "Msg"), th)
    budget = unify._Budget(unify.BRANCH_BUDGET, "unification branch")
    out, seen = [], set()
    for u, sigma in found:
        if not (isinstance(u, App) and u.op == "%pair"):
            continue
        for theta in unify.unify_canonical(*u.args, th, budget=budget):
            composed = sigma.compose(theta)
            cand = unify._deflate(Subst({v: t for v, t in composed.items()
                                         if v in problem_vars},
                                        _trusted=True), problem_vars)
            key = unify._subst_key(cand)
            if eq_modulo(cand(t1), cand(t2), th) and key not in seen:
                seen.add(key)
                out.append(cand)
    return unify._minimize(out, problem_vars, th)


def _unify_problems():
    """Unification problems over the theories of the shipped specs."""
    (nsl, nsl_op), (kd, kd_op), (db, db_op) = _spec_theories()
    A, B = Var("A", "Name"), Var("B", "Name")
    K = Var("K", "Key")
    X, Y = Var("X"), Var("Y")
    na = nsl_op("n", nsl_op("a"), FreshConst(1))
    nb = db_op("n", db_op("b"), FreshConst(2))
    return {
        "nsl-pk-sk": (nsl, nsl_op("pk", A, X), nsl_op("sk", B, Y)),
        "nsl-sk-nonce": (nsl, nsl_op("sk", B, X), na),
        "nsl-shared-name": (nsl, nsl_op("sk", A, X), nsl_op("pk", A, Y)),
        "nsl-shared-msg": (nsl, nsl_op("pk", A, nsl_op("sk", B, X)), X),
        "kd-d-var": (kd, kd_op("d", K, X), Y),
        "kd-e-d-sk": (kd, kd_op("e", K, kd_op("d", K, X)), kd_op("sk", A, Y)),
        "kd-shared-key": (kd, kd_op("d", K, X), kd_op("e", K, Y)),
        # renamed copies of one side, whose variants share a memo entry
        "kd-two-decryptions": (kd, kd_op("d", K, X),
                               kd_op("d", Var("K2", "Key"), Y)),
        # sums narrowed against the pk/sk left sides
        "db-sum-pk": (db, db_op("*", X, na), db_op("pk", A, Y)),
        "db-sk-sum": (db, db_op("sk", A, db_op("*", X, na)), Y),
        "db-sums": (db, db_op("*", X, na), db_op("*", Y, nb)),
        "db-shared-sum": (db, db_op("*", X, Y), db_op("pk", A, X)),
        "db-shared-sk": (db, db_op("sk", A, db_op("*", X, nb)), X),
    }


UNIFY_PROBLEMS = _unify_problems()


@pytest.mark.parametrize("name", sorted(UNIFY_PROBLEMS))
def test_side_variants_match_pair_narrowing(name):
    """Unifying per-side variants gives the unifiers of pair narrowing, up
    to instances: each set covers every unifier of the other one."""
    th, t1, t2 = UNIFY_PROBLEMS[name]
    problem_vars = variables(t1) | variables(t2)
    want = _pair_narrowing_unifiers(t1, t2, th)
    got = unify_modulo(t1, t2, th)
    for general, specific in ((got, want), (want, got)):
        for s in specific:
            assert any(unify._is_instance_of(g, s, problem_vars, th)
                       for g in general), (name, s)
    for s in got:
        assert eq_modulo(s(t1), s(t2), th)


def test_shared_variable_problems_have_unifiers():
    # the differential test above must not pass on empty sets alone
    for name in ("nsl-shared-name", "kd-shared-key", "db-shared-sum"):
        th, t1, t2 = UNIFY_PROBLEMS[name]
        assert variables(t1) & variables(t2)
        assert unify_modulo(t1, t2, th), name


def test_renamed_sides_narrow_once(monkeypatch):
    calls = []

    def counted(t, th):
        calls.append(t)
        return variants(t, th)

    monkeypatch.setattr(unify, "variants", counted)
    th, memo = EquationalTheory(rules=ED_TH.rules), Memo()
    K2, X2 = Var("K2"), Var("X2")
    first = unify.side_variants(d(K, X), th, memo)
    second = unify.side_variants(d(K2, X2), th, memo)
    assert len(calls) == 1
    assert {v for _, s in first for v in s} == {K, X}
    assert {v for _, s in second for v in s} == {K2, X2}
    narrowed = [variables(u) - {K, X, K2, X2} for u, _ in first + second]
    narrowed = [vs for vs in narrowed if vs]
    # each call renames the narrowing variables apart
    assert len(narrowed) == 2 and not set.intersection(*narrowed)
    assert len(memo.variants) == 1
    got = unify_modulo(d(K2, X2), const("m"), th, memo=memo)
    assert len(calls) == 2  # only the new side `m` is narrowed
    assert [s(X2) for s in got] == [e(K2, const("m"))]
    # without a memo, each call narrows afresh in a memo of its own
    unify.side_variants(d(K, X), th)
    unify_modulo(d(K2, X2), const("m"), th)
    assert len(calls) == 5 and len(memo.variants) == 2


def test_renamed_match_problems_narrow_once(monkeypatch):
    calls = []

    def counted(t, th):
        calls.append(t)
        return variants(t, th)

    monkeypatch.setattr(unify, "variants", counted)
    th, memo = EquationalTheory(rules=ED_TH.rules), Memo()
    A, B, A2, B2, K2, X2 = (Var(n) for n in ("A", "B", "A2", "B2", "K2", "X2"))
    first = match_modulo(d(K, X), d(A, e(A, B)), th, memo=memo)
    second = match_modulo(d(K2, X2), d(A2, e(A2, B2)), th, memo=memo)
    assert len(calls) == 1  # only the pattern is narrowed, and only once
    assert len(memo.unify) == len(memo.variants) == 1
    assert first
    ren = Subst({A: A2, B: B2, K: K2, X: X2}, _trusted=True)
    assert [(ren(s(K)), ren(s(X))) for s in first] == \
        [(s(K2), s(X2)) for s in second]


def test_renamed_copies_share_one_canonical_node():
    th = EquationalTheory(rules=ED_TH.rules)
    t = e(Var("K", "Name"), App("h", (X, FreshConst(7, "n"), X), "Msg"))
    u = Subst({Var("K", "Name"): Var("K9", "Name"), X: Var("X9")},
              _trusted=True)(t)
    u = _apply({FreshConst(7, "n"): FreshConst(2)}, u)
    assert u != t and skeleton(u) == skeleton(t)
    one, two = unify._Renaming(th)(t), unify._Renaming(th)(u)
    assert one is two  # one hash-consed node over shared leaves
    assert all(a is b for a, b in zip(leaves(one), leaves(two)))
    # each kind of leaf is drawn from the theory's table once
    assert sorted(th._canon_leaves) == [
        ("%W", 0, "Name"), ("%W", 1, "Msg"), ("c!", 0, "Fresh")]
    assert unify._Renaming(EquationalTheory())(t) is one  # same names


def test_a_memo_hit_adds_no_canonical_leaf():
    th, memo = EquationalTheory(rules=ED_TH.rules), Memo()
    K2, X2, Y2 = Var("K2"), Var("X2"), Var("Y2")
    first = unify_modulo(d(K, X), App("f", (Y, FreshConst(1)), "Msg"), th,
                         memo=memo)
    leaves_after = dict(th._canon_leaves)
    second = unify_modulo(d(K2, X2), App("f", (Y2, FreshConst(5)), "Msg"),
                          th, memo=memo)
    assert len(memo.unify) == 1  # the second call was a memo hit
    assert th._canon_leaves == leaves_after
    assert all(th._canon_leaves[k] is v for k, v in leaves_after.items())
    assert [s(X) for s in first] == [e(K, App("f", (Y, FreshConst(1)),
                                              "Msg"))]
    assert [s(X2) for s in second] == [e(K2, App("f", (Y2, FreshConst(5)),
                                                 "Msg"))]


def _frozen_instance_of(general, specific, problem_vars, th):
    """Reference instance check: freeze the variables of the specific
    tuple to constants, unify modulo the axioms and verify."""
    pvs = sorted(problem_vars, key=term_key)
    gen = App("%tup", tuple(normalize(general(v), th) for v in pvs), "Msg")
    spe = App("%tup", tuple(normalize(specific(v), th) for v in pvs), "Msg")
    freeze = {v: App("%frz%" + v.name, (), v.sort)
              for v in sorted(variables(spe), key=term_key)}
    frozen = Subst(freeze, _trusted=True)(spe)
    return any(eq_modulo(s(gen), frozen, th)
               for s in unify.unify_canonical(gen, frozen, th,
                                              budget=unify._Budget(
                                                  128, "test branch")))


def _compare_counterexample():
    """An instance check from `compare` on nsl_db that needs the sums of
    the general tuple cancelled against the specific one: W2's image
    normalizes to n(a, c0) * n(b, c1) * M, and M is bound to a sum by
    W1's image."""
    *_, (th, op) = _spec_theories()
    W0, W1, W2 = Var("W0", "Name"), Var("W1"), Var("W2")
    A, M = Var("A", "Name"), Var("M")
    na, nb = op("n", op("a"), FreshConst(0, "c")), \
        op("n", op("b"), FreshConst(1, "c"))
    general = Subst({W1: op("sk", W0, M),
                     W2: op("*", op("*", na, nb), op("sk", A, op("pk", A, M)))})
    specific = Subst({W1: op("sk", W0, op("*", op("*", W2, na), nb))})
    return th, general, specific, {W0, W1, W2}


def test_instance_check_cancels_sums():
    th, general, specific, pvs = _compare_counterexample()
    # M and W2 determine each other, so each side is an instance of the
    # other; a matcher without the cancellation misses the first
    for g, s in ((general, specific), (specific, general)):
        assert _frozen_instance_of(g, s, pvs, th)
        assert unify._is_instance_of(g, s, pvs, th)


# the pair's own variable T sorts after the sums' S1 and S2, so the sums
# come first in the tuple and the matcher has to put them last
S1, S2, T = Var("S1"), Var("S2"), Var("T")
V1, V2, W, Q = Var("V1"), Var("V2"), Var("W"), Var("Q")
A_, B_, C_ = const("a"), const("b"), const("c")
XOR_ATOMS = (V1, V2, A_, B_, App("f", (V1,), "Msg"), App("f", (C_,), "Msg"))
XOR_IMAGES = (A_, B_, Q, xor(A_, B_), xor(Q, C_), App("f", (Q,), "Msg"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(XOR_ATOMS), max_size=4, unique=True),
       st.lists(st.sampled_from(XOR_ATOMS), max_size=3, unique=True),
       st.booleans(),
       st.tuples(*[st.sampled_from(XOR_IMAGES)] * 3),
       st.sampled_from((None, A_, C_)))
def test_instance_check_agrees_on_xor_tuples(sum1, sum2, with_w, images,
                                             flip):
    """T's image binds V1 and V2; the sums of S1 and S2 are built from
    them, constants and, once, a variable W of their own.  The specific
    side is an instance of the general one, with one more atom in S1's
    sum when `flip` is set: then it is one only through W.

    The freeze-and-unify reference must find no instance that the
    matcher misses.  It finds fewer: its exclusive-or solver never sets
    a variable that occurs inside another atom to zero, so it misses
    S1 -> W * V1, S2 -> f(V1) * V1 against S1 -> a, S2 -> f(a) * a."""
    general = Subst({T: App("h", (V1, V2), "Msg"),
                     S1: xor(W, *sum1) if with_w else xor(ZERO, *sum1),
                     S2: xor(ZERO, *sum2)})
    rho = Subst(dict(zip((V1, V2, W), images)))
    specific = {p: rho(general(p)) for p in (S1, S2, T)}
    if flip is not None:
        specific[S1] = xor(specific[S1], flip)
    specific = Subst(specific)
    pvs = {S1, S2, T}
    want = flip is None or with_w
    assert unify._is_instance_of(general, specific, pvs, XOR_TH) == want
    assert want or not _frozen_instance_of(general, specific, pvs, XOR_TH)


def test_clash_problems_touch_no_memo():
    # e and d keep their roots here, so no instance of one side is an
    # instance of the other: the clash answers before any renaming
    th, memo = EquationalTheory(rules=ED_TH.rules), Memo()
    m, K2 = const("m"), Var("K2")
    assert unify_modulo(e(K, m), d(K2, m), th, memo=memo) == ()
    assert match_modulo(e(K, m), d(K2, m), th, memo=memo) == ()
    assert unify_modulo(App("f", (X, m), "Msg"), e(K, m), th,
                        memo=memo) == ()
    assert memo.unify == {} and memo.variants == {}
    assert th._canon_leaves == {}
    # a problem without a clash goes through the memo
    assert unify_modulo(e(K, X), d(K2, Y), th, memo=memo)
    assert memo.unify and memo.variants and th._canon_leaves
    # so does a clash the caller says it has tested: the same answer,
    # found the long way
    fresh = Memo()
    assert unify_modulo(e(K, m), d(K2, m), th, memo=fresh,
                        clash_tested=True) == ()
    assert fresh.unify

