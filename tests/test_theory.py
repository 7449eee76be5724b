import gc
import weakref

import pytest

from strandkit.terms import App, FreshConst, Subst, Var, const, term_key
from strandkit.theory import (
    AxiomDecl,
    EquationalTheory,
    IrregularRule,
    StepBudgetExceeded,
    canon,
    eq_modulo,
    match_ax,
    normalize,
    rigid,
)

ZERO = const("zero", "Msg")


def xor(*args):
    return App("xor", tuple(args), "Msg")


@pytest.fixture
def xor_theory():
    return EquationalTheory(
        rules=(),
        axioms=(("xor", AxiomDecl(assoc=True, comm=True, unit=ZERO, nilpotent=True)),),
    )


@pytest.fixture
def cancel_theory():
    A, M = Var("A", "Name"), Var("M", "Msg")
    sk = lambda a, m: App("sk", (a, m), "Msg")
    pk = lambda a, m: App("pk", (a, m), "Msg")
    return EquationalTheory(
        rules=((sk(A, pk(A, M)), M), (pk(A, sk(A, M)), M)),
    )


def test_ac_flatten_and_sort(xor_theory):
    a, b, c = const("a"), const("b"), const("c")
    t1 = xor(a, xor(b, c))
    t2 = xor(xor(c, b), a)
    assert canon(t1, xor_theory) == canon(t2, xor_theory)


def test_unit_removed(xor_theory):
    a = const("a")
    assert canon(xor(a, ZERO), xor_theory) == a
    assert canon(xor(ZERO, ZERO), xor_theory) == ZERO


def test_nilpotent_pairs_cancel(xor_theory):
    a, b = const("a"), const("b")
    assert canon(xor(a, a), xor_theory) == ZERO
    assert canon(xor(a, xor(a, b)), xor_theory) == b
    assert canon(xor(a, b, a, b), xor_theory) == ZERO


def test_canonical_form_idempotent(xor_theory):
    a, b = const("a"), const("b")
    t = canon(xor(a, xor(b, xor(a, ZERO))), xor_theory)
    assert canon(t, xor_theory) == t


def test_normalize_cancellation_rules(cancel_theory):
    a = const("a", "Name")
    m = const("m")
    t = App("sk", (a, App("pk", (a, m), "Msg")), "Msg")
    assert normalize(t, cancel_theory) == m
    nested = App("pk", (a, App("sk", (a, App("pk", (a, m), "Msg")), "Msg")), "Msg")
    assert normalize(nested, cancel_theory) == App("pk", (a, m), "Msg")


def test_normalize_under_context(cancel_theory):
    a = const("a", "Name")
    m = const("m")
    red = App("sk", (a, App("pk", (a, m), "Msg")), "Msg")
    t = App("h", (red, red), "Msg")
    assert normalize(t, cancel_theory) == App("h", (m, m), "Msg")


def test_normalize_is_idempotent(cancel_theory):
    a = const("a", "Name")
    t = App("pk", (a, App("sk", (a, Var("M")), "Msg")), "Msg")
    nf = normalize(t, cancel_theory)
    assert normalize(nf, cancel_theory) == nf


@pytest.mark.parametrize("first", ["rules", "bare"])
def test_one_node_keeps_a_form_per_theory(xor_theory, first):
    """A node put in form under two theories, in either order, gives each
    theory its own answer: the forms on a node are tagged by theory."""
    a, k, m = const("a"), const("k"), const("m")
    K, M = Var("K"), Var("M")
    dec = lambda key, x: App("d", (key, App("e", (key, x))))
    ed_theory = EquationalTheory(rules=((dec(K, M), M),))
    bare = EquationalTheory()
    for form, t, th, want in [(canon, xor(a, a), xor_theory, ZERO),
                              (normalize, xor(a, a), xor_theory, ZERO),
                              (normalize, dec(k, m), ed_theory, m)]:
        pairs = [(th, want), (bare, t)]
        if first == "bare":
            pairs.reverse()
        for theory, answer in pairs + pairs:
            assert form(t, theory) is answer
            assert form(t, theory) is answer  # now read from the node


@pytest.mark.parametrize("first", ["rules", "bare"])
def test_one_node_keeps_its_rigidity_per_theory(first):
    """`rigid` keeps its answer on the node, tagged by theory; an answer
    under assumed terms is neither read from the node nor kept on it."""
    K, M, X = Var("K"), Var("M"), Var("X")
    dec = lambda key, x: App("d", (key, x))
    ed_theory = EquationalTheory(rules=((dec(K, App("e", (K, M))), M),))
    t = dec(X, X)  # nothing at the second argument blocks the rule
    pairs = [(ed_theory, False), (EquationalTheory(), True)]
    if first == "bare":
        pairs.reverse()
    for theory, answer in pairs + pairs:
        assert rigid(t, theory) is answer
        assert rigid(t, ed_theory, {t}) is True


def test_forms_die_with_their_nodes(xor_theory, cancel_theory):
    """A term's canonical and normal forms are kept on its node, so once
    the term is gone nothing keeps them: no memo on the theory pins them."""
    a, b, c = const("weak-a"), const("weak-b"), const("weak-c")
    n = const("weak-n", "Name")
    t = xor(xor(a, b), c)
    u = App("sk", (n, App("pk", (n, App("h", (a, b), "Msg")), "Msg")), "Msg")
    forms = [weakref.ref(canon(t, xor_theory)),
             weakref.ref(normalize(u, cancel_theory))]
    assert all(r() is not None for r in forms)
    del t, u
    gc.collect()
    assert [r() for r in forms] == [None, None]


def test_step_budget_flags_nontermination():
    x = Var("X")
    loop = EquationalTheory(
        rules=((App("f", (x,)), App("f", (App("f", (x,)),))),),
        step_budget=50,
    )
    with pytest.raises(StepBudgetExceeded):
        normalize(App("f", (const("c"),)), loop)


def test_irregular_rules_rejected():
    with pytest.raises(IrregularRule):
        EquationalTheory(rules=((Var("X"), const("c")),))
    with pytest.raises(IrregularRule):
        EquationalTheory(rules=((App("f", (Var("X"),)), Var("Y")),))


@pytest.mark.parametrize("decl", [
    dict(assoc=True, comm=True), dict(comm=True), dict(assoc=True),
    dict(unit=ZERO), dict(assoc=True, comm=True, unit=ZERO),
    dict(assoc=True, comm=True, nilpotent=True),
], ids=["AC", "C", "A", "U", "ACU", "AC-nilpotent"])
def test_only_exclusive_or_axioms_are_accepted(decl):
    with pytest.raises(IrregularRule):
        AxiomDecl(**decl)


def test_match_modulo_ac(xor_theory):
    a, b = const("a"), const("b")
    X = Var("X")
    pat = xor(a, X)
    subj = canon(xor(b, a), xor_theory)
    sols = list(match_ax(canon(pat, xor_theory), subj, xor_theory))
    assert any(m[X] == b for m in sols)


def test_match_ax_sort_check(xor_theory):
    leq = lambda s1, s2: s1 == s2 or s2 == "Msg"
    N, a, m = Var("N", "Name"), const("a", "Name"), const("m")
    assert list(match_ax(N, m, xor_theory)) == [{N: m}]
    assert list(match_ax(N, m, xor_theory, leq=leq)) == []
    assert list(match_ax(N, a, xor_theory, leq=leq)) == [{N: a}]
    # the same check on a variable under an AC operator
    pat = canon(xor(const("b"), N), xor_theory)
    assert not list(match_ax(pat, canon(xor(const("b"), m), xor_theory),
                             xor_theory, leq=leq))
    assert list(match_ax(pat, canon(xor(const("b"), a), xor_theory),
                         xor_theory, leq=leq)) == [{N: a}]


def test_match_ax_sum_of_variables(xor_theory):
    """Of two free variable arguments of a sum, one takes the subject plus
    the other, which stays free."""
    M, N, a = Var("M"), Var("N"), const("a")
    pat = canon(xor(M, N), xor_theory)
    (got,) = match_ax(pat, a, xor_theory)
    assert got[M] == canon(xor(N, a), xor_theory)
    assert canon(Subst(got)(pat), xor_theory) == a


def test_budget_allows_exactly_n_steps():
    from strandkit.theory import _Budget

    budget = _Budget(2, "test step")
    budget.spend()
    budget.spend()
    with pytest.raises(StepBudgetExceeded, match="test step budget exhausted"):
        budget.spend()


def test_eq_modulo(cancel_theory):
    a = const("a", "Name")
    m = const("m")
    assert eq_modulo(App("sk", (a, App("pk", (a, m), "Msg")), "Msg"), m, cancel_theory)
    assert not eq_modulo(m, const("m2"), cancel_theory)


def test_fresh_values_that_share_a_number_stay_apart(xor_theory):
    """Two fresh values minted with one number but different hints are
    different values, so their sum does not cancel."""
    b = const("b", "Name")
    t1 = App("n", (b, FreshConst(2, "r")), "Nonce")
    t2 = App("n", (b, FreshConst(2, "rp")), "Nonce")
    assert not eq_modulo(t1, t2, xor_theory)
    assert normalize(xor(t1, t2), xor_theory) != ZERO
