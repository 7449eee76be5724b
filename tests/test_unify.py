import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit import theory, unify
from strandkit.dsl import parse_document
from strandkit.semantics import BASIC, SYNC, runtime_spec
from strandkit.terms import (
    App,
    FreshConst,
    Subst,
    Var,
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
    EMPTY_THEORY,
    AxiomDecl,
    EquationalTheory,
    eq_modulo,
    memo_put,
    normalize,
)
from strandkit.unify import (
    UnifierSet,
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
    got = unify_canonical(t1, t2, EMPTY_THEORY)
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
    vs, complete = variants(t, ED_TH)
    assert complete
    # the identity variant plus the collapse where X is an encryption
    assert len(vs) == 2
    terms = {term_key(v) for v, _ in vs}
    assert term_key(t) in terms


def test_unify_modulo_decrypt_csu():
    got = unify_modulo(d(K, X), Y, ED_TH)
    assert got.complete
    assert len(got) == 2
    for s in got:
        assert eq_modulo(s(d(K, X)), s(Y), ED_TH)
    shapes = set()
    for s in got:
        if Y in s.domain():
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
    (s,) = got.unifiers
    assert s(X) == a


def test_xor_unify_master_solution():
    a, b = const("na"), const("nb")
    got = unify_modulo(xor(X, Y), xor(a, b), XOR_TH)
    assert len(got) == 1
    (s,) = got.unifiers
    assert eq_modulo(s(xor(X, Y)), xor(a, b), XOR_TH)


def test_xor_unify_cancellation_to_zero():
    a = const("na")
    got = unify_modulo(xor(X, X), ZERO, XOR_TH)
    assert len(got) == 1
    assert got.unifiers[0].is_identity()
    got2 = unify_modulo(xor(a, a), ZERO, XOR_TH)
    assert got2 and got2.unifiers[0].is_identity()


def test_xor_unify_alien_pairing():
    f = lambda t: App("f", (t,), "Msg")
    a = const("a")
    got = unify_modulo(xor(f(X), f(a)), ZERO, XOR_TH)
    assert any(s(X) == a for s in got)


def test_xor_unify_under_constructor():
    a, b = const("na"), const("nb")
    t1 = App("pk", (const("c", "Name"), xor(X, b)), "Msg")
    t2 = App("pk", (const("c", "Name"), xor(a, b)), "Msg")
    got = unify_modulo(t1, t2, XOR_TH)
    assert any(s(X) == a for s in got)


def test_unify_modulo_fails_cleanly():
    got = unify_modulo(const("a"), const("b"), ED_TH)
    assert not got
    assert got.complete


def test_match_modulo_one_sided():
    pat = App("pk", (X, Y), "Msg")
    target = App("pk", (Var("A", "Msg"), const("m")), "Msg")
    got = match_modulo(pat, target, ED_TH)
    assert got
    s = got.unifiers[0]
    assert s(pat) == target
    # target variables must not be instantiated
    assert all(v in variables(pat) for v in s.domain())


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
    """Each of these has a matcher that `match_ax` does not find: the set
    must then say it is incomplete."""
    got = match_modulo(pattern, target, XOR_TH)
    assert got or not got.complete


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
    vs, complete = variants(t, th, 2)
    base = variables(t)
    return {unify._pair_key(u, s, base) for u, s in vs}, complete


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
    assert len(want[0]) > 1  # some rule applies


def test_sum_narrows_against_pk_sk():
    th, t = SPEC_TERMS["db-sum"]
    vs, _ = variants(t, th, 1)
    # X * n(a, r) narrowed with sk(A, pk(A, M)) -> M gives the variant M
    assert any(isinstance(u, Var) for u, _ in vs)


def _pair_narrowing_unifiers(t1, t2, th):
    """Reference unifier set: narrow %pair(t1, t2) as one term, then unify
    the two components of each variant modulo the axioms."""
    problem_vars = variables(t1) | variables(t2)
    found, complete = variants(App("%pair", (t1, t2), "Msg"), th)
    budget = unify._Budget(unify.BRANCH_BUDGET)
    out, seen = [], set()
    for u, sigma in found:
        if not (isinstance(u, App) and u.op == "%pair"):
            continue
        for theta in unify.unify_canonical(*u.args, th, budget=budget):
            cand = unify._deflate(sigma.compose(theta).restrict(problem_vars),
                                  problem_vars)
            key = unify._subst_key(cand)
            if eq_modulo(cand(t1), cand(t2), th) and key not in seen:
                seen.add(key)
                out.append(cand)
    return (unify._minimize(out, problem_vars, th),
            complete and not budget.blown)


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
    to instances.  Each side gets the whole depth bound, where the pair
    shares it, so the per-side set is complete whenever the pair's is."""
    th, t1, t2 = UNIFY_PROBLEMS[name]
    problem_vars = variables(t1) | variables(t2)
    want, want_complete = _pair_narrowing_unifiers(t1, t2, th)
    got = unify_modulo(t1, t2, th)
    assert got.complete or not want_complete
    # a complete set covers every unifier of the other one
    for general, complete, specific in ((got, got.complete, want),
                                        (want, want_complete, got)):
        if complete:
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

    def counted(t, th, depth=unify.VARIANT_DEPTH):
        calls.append(t)
        return variants(t, th, depth)

    monkeypatch.setattr(unify, "variants", counted)
    th = EquationalTheory(rules=ED_TH.rules)  # a memo of its own
    K2, X2 = Var("K2"), Var("X2")
    first, _ = unify.side_variants(d(K, X), th)
    second, _ = unify.side_variants(d(K2, X2), th)
    assert len(calls) == 1
    assert {v for _, s in first for v in s} == {K, X}
    assert {v for _, s in second for v in s} == {K2, X2}
    narrowed = [variables(u) - {K, X, K2, X2} for u, _ in first + second]
    narrowed = [vs for vs in narrowed if vs]
    # each call renames the narrowing variables apart
    assert len(narrowed) == 2 and not set.intersection(*narrowed)
    assert unify.memo_entries(th)["variants"] == 1
    got = unify_modulo(d(K2, X2), const("m"), th)
    assert len(calls) == 2  # only the new side `m` is narrowed
    assert [s(X2) for s in got] == [e(K2, const("m"))]


def test_renamed_match_problems_narrow_once(monkeypatch):
    calls = []

    def counted(t, th, depth=unify.VARIANT_DEPTH):
        calls.append(t)
        return variants(t, th, depth)

    monkeypatch.setattr(unify, "variants", counted)
    th = EquationalTheory(rules=ED_TH.rules)  # a memo of its own
    A, B, A2, B2, K2, X2 = (Var(n) for n in ("A", "B", "A2", "B2", "K2", "X2"))
    first = match_modulo(d(K, X), d(A, e(A, B)), th)
    second = match_modulo(d(K2, X2), d(A2, e(A2, B2)), th)
    assert len(calls) == 1  # only the pattern is narrowed, and only once
    assert first and first.complete == second.complete
    ren = Subst({A: A2, B: B2, K: K2, X: X2}, _trusted=True)
    assert [(ren(s(K)), ren(s(X))) for s in first] == \
        [(s(K2), s(X2)) for s in second]


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
                                              budget=unify._Budget(128)))


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


def test_a_full_memo_drops_its_oldest_entry():
    cache: dict = {}
    for i in range(10):
        memo_put(cache, i, -i, 4)
        assert len(cache) == min(i + 1, 4)
    assert list(cache) == [6, 7, 8, 9]
    memo_put(cache, 7, -7, 4)  # a key it holds drops nothing
    assert list(cache) == [6, 7, 8, 9]
    assert cache.get(6) == -6  # a hit leaves the order alone
    memo_put(cache, 10, -10, 4)
    assert list(cache) == [7, 8, 9, 10]


def _shape(t):
    """t up to a renaming of its variables and fresh constants."""
    number: dict = {}
    return skeleton(t), tuple(number.setdefault(x, len(number))
                              for x in leaves(t))


CAPS = ((theory, "CANON_CACHE_CAP"), (theory, "NORM_CACHE_CAP"),
        (unify, "UNIFY_CACHE_CAP"), (unify, "VARIANT_CACHE_CAP"))


def _memo_answers(caps: int = 0) -> list:
    a, b = const("a"), const("b")
    problems = [
        (ED_TH.rules, (), d(K, X), Y),
        (ED_TH.rules, (), e(K, d(M, X)), e(K, Z)),
        (ED_TH.rules, (), d(K, e(M, X)), const("m")),
        ((), XOR_TH.axioms, xor(X, Y), xor(a, b)),
        ((), XOR_TH.axioms, xor(X, e(K, Y)), xor(a, e(K, b))),
        ((), XOR_TH.axioms, xor(X, Z), xor(Y, a)),
    ]
    themes = {}
    out = []
    for _ in range(2):  # the second round meets what the memos kept
        for rules, axioms, t1, t2 in problems:
            th = themes.setdefault((rules, axioms), EquationalTheory(
                rules=rules, axioms=axioms))
            got = unify_modulo(t1, t2, th)
            vs = sorted(variables(t1) | variables(t2), key=term_key)
            out.append((got.complete, sorted(
                _shape(App("%tup", tuple(s(v) for v in vs))) for s in got)))
            if caps:
                assert len(th._canon_cache) <= caps
                assert len(th._norm_cache) <= caps
                assert len(th._unify_cache) <= caps
                assert len(th._variant_cache) <= caps
    return out


def test_memos_at_a_small_cap_stay_there_and_answer_the_same(monkeypatch):
    want = _memo_answers()
    for module, name in CAPS:
        monkeypatch.setattr(module, name, 3)
    assert _memo_answers(3) == want
