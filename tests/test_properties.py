"""Randomized and exhaustive properties: normalization laws, unifier
soundness and small-universe completeness, and the view-translation
bijection."""
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.dsl import attack_state, parse_document
from strandkit.model import Minter, state_key
from strandkit.search import level_states
from strandkit.semantics import ABSTRACT, SYNC, runtime_spec, trans, trans_inv
from strandkit.terms import (
    App,
    FreshConst,
    Subst,
    Var,
    const,
    term_key,
    variables,
)
from strandkit.theory import AxiomDecl, EquationalTheory, eq_modulo, normalize
from strandkit.unify import unify_modulo

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"

ZERO = const("zero", "Msg")
A_, B_, C_ = const("a", "Msg"), const("b", "Msg"), const("c", "Msg")
X, Y, Z = Var("X"), Var("Y"), Var("Z")

XOR_TH = EquationalTheory(
    axioms=(("xor", AxiomDecl(assoc=True, comm=True, unit=ZERO,
                              nilpotent=True)),))
FREE_TH = EquationalTheory()


def xor(*args):
    t = args[0]
    for a in args[1:]:
        t = App("xor", (t, a), "Msg")
    return t


def e(k, m):
    return App("e", (k, m), "Msg")


def d(k, m):
    return App("d", (k, m), "Msg")


ED_TH = EquationalTheory(rules=((d(X, e(X, Z)), Z), (e(X, d(X, Z)), Z)))

NM = Var("NM", "Msg")
PK_TH = EquationalTheory(rules=(
    (App("sk", (NM, App("pk", (NM, Z), "Msg")), "Msg"), Z),
    (App("pk", (NM, App("sk", (NM, Z), "Msg")), "Msg"), Z),
))


# ------------------------------------------------------ normalization laws

atoms = st.sampled_from([A_, B_, C_, ZERO, X, Y, Z])
xor_terms = st.recursive(
    atoms, lambda kids: st.tuples(kids, kids).map(lambda p: xor(*p)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(xor_terms)
def test_normalize_idempotent(t):
    n = normalize(t, XOR_TH)
    assert term_key(normalize(n, XOR_TH)) == term_key(n)


@settings(max_examples=300, deadline=None)
@given(xor_terms)
def test_self_cancellation(t):
    assert term_key(normalize(xor(t, t), XOR_TH)) == term_key(ZERO)


@settings(max_examples=300, deadline=None)
@given(xor_terms)
def test_identity_removal(t):
    n = normalize(t, XOR_TH)
    assert term_key(normalize(xor(t, ZERO), XOR_TH)) == term_key(n)


# ---------------------------------------------------------- hash-consing

# every operator keeps one result sort, as in a signature
app_terms = st.recursive(
    st.sampled_from([A_, B_, X, Y, FreshConst(1)]),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: App("f", p, "Msg")),
        kids.map(lambda k: App("g", (k,), "Msg"))),
    max_leaves=8)


def _rebuilt(t):
    """t built again from scratch, node by node."""
    if isinstance(t, App):
        return App(t.op, tuple([_rebuilt(a) for a in t.args]), t.sort)
    return t


@settings(max_examples=300, deadline=None)
@given(app_terms, app_terms)
def test_identity_is_structural_equality(a, b):
    assert (a is b) == (term_key(a) == term_key(b))
    assert _rebuilt(a) is a and _rebuilt(b) is b


@settings(max_examples=300, deadline=None)
@given(st.permutations([A_, B_, C_, X, Y]))
def test_ac_permutation_canonical(parts):
    base = normalize(xor(A_, B_, C_, X, Y), XOR_TH)
    assert term_key(normalize(xor(*parts), XOR_TH)) == term_key(base)


def test_thousand_random_xor_terms():
    rng = random.Random(20240811)
    pool = [A_, B_, C_, ZERO, X, Y, Z]

    def rand_term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(pool)
        return xor(rand_term(depth - 1), rand_term(depth - 1))

    for _ in range(1000):
        t = rand_term(4)
        n = normalize(t, XOR_TH)
        assert term_key(normalize(n, XOR_TH)) == term_key(n)
        assert term_key(normalize(xor(t, t), XOR_TH)) == term_key(ZERO)
        assert term_key(normalize(xor(t, ZERO), XOR_TH)) == term_key(n)
        assert term_key(normalize(xor(A_, t), XOR_TH)) == \
            term_key(normalize(xor(t, A_), XOR_TH))


# ------------------------------------- unifier soundness and completeness

def _ground_universe(th, max_depth=3, max_atoms=3):
    """All normalized ground terms over `max_atoms` atoms and the theory's
    constructors, up to the given depth."""
    consts = [A_, B_, C_][:max_atoms]
    if th is XOR_TH:
        consts = consts + [ZERO]
        build = [lambda s, t: xor(s, t)]
    elif th is ED_TH:
        build = [e, d]
    elif th is PK_TH:
        build = [lambda s, t: App("pk", (s, t), "Msg"),
                 lambda s, t: App("sk", (s, t), "Msg")]
    else:
        build = [lambda s, t: App("f", (s, t), "Msg")]
    layer = {term_key(c): c for c in consts}
    universe = dict(layer)
    for _ in range(max_depth - 1):
        nxt = {}
        for f in build:
            for s in layer.values():
                for c in consts:
                    for t in (f(s, c), f(c, s)):
                        n = normalize(t, th)
                        k = term_key(n)
                        if k not in universe:
                            nxt[k] = n
        universe.update(nxt)
        layer = nxt
    return list(universe.values())


PROBLEMS = [
    (FREE_TH, App("f", (X, B_), "Msg"), App("f", (A_, Y), "Msg")),
    (FREE_TH, App("f", (X, X), "Msg"), App("f", (Y, A_), "Msg")),
    (FREE_TH, X, App("f", (A_, Y), "Msg")),
    (ED_TH, d(X, Y), Z),
    (ED_TH, d(A_, e(A_, X)), Y),
    (ED_TH, e(X, Y), e(A_, B_)),
    (PK_TH, App("sk", (NM, App("pk", (NM, X), "Msg")), "Msg"), Y),
    (PK_TH, App("pk", (NM, X), "Msg"), App("pk", (NM, B_), "Msg")),
    (XOR_TH, xor(X, A_), B_),
    (XOR_TH, xor(X, Y), A_),
    (XOR_TH, xor(X, A_), xor(B_, C_)),
    (XOR_TH, xor(X, X), ZERO),
]


@pytest.mark.parametrize("th,t1,t2", PROBLEMS)
def test_unifiers_are_sound(th, t1, t2):
    for s in unify_modulo(t1, t2, th):
        assert eq_modulo(s(t1), s(t2), th), (s, t1, t2)


def _covered(sigma, vars_, csu, th):
    """Is the ground solution an instance of some returned unifier?"""
    from strandkit.unify import match_modulo

    tup = lambda ts: App("%tup", tuple(ts), "Msg")
    target = tup([normalize(sigma[v], th) for v in vars_])
    for u in csu:
        pat = tup([u(v) for v in vars_])
        if match_modulo(pat, target, th):
            return True
    return False


@pytest.mark.parametrize("th,t1,t2", PROBLEMS)
def test_ground_completeness_small_universe(th, t1, t2):
    vars_ = sorted(variables(t1) | variables(t2), key=term_key)
    universe = _ground_universe(th)
    if len(universe) ** len(vars_) > 60_000:
        universe = _ground_universe(th, max_depth=2)
    csu = list(unify_modulo(t1, t2, th))
    checked = solutions = 0
    for combo in itertools.product(universe, repeat=len(vars_)):
        sigma = Subst(dict(zip(vars_, combo)), _trusted=True)
        checked += 1
        if not eq_modulo(sigma(t1), sigma(t2), th):
            continue
        solutions += 1
        assert _covered(dict(zip(vars_, combo)), vars_, csu, th), \
            (t1, t2, dict(zip(vars_, combo)))
    assert checked > 0


# ----------------------------------------------- view translation bijection

def test_trans_bijection_on_searched_states():
    doc = parse_document((SPECS / "nsl_db.strand").read_text())
    sspec = runtime_spec(doc, SYNC)
    start = attack_state(doc, "a1", sspec, Minter())
    states = [s for level in level_states(start, sspec, SYNC, 2)
              for s in level]
    assert states
    for st_ in states:
        back = trans(trans_inv(st_, sspec), sspec)
        assert state_key(back) == state_key(st_)
        assert state_key(trans_inv(back, sspec)) == \
            state_key(trans_inv(st_, sspec))
