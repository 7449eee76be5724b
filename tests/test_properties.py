"""Randomized and exhaustive properties: normalization laws, unifier
soundness and small-universe completeness, and the view-translation
bijection."""
import itertools
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from strandkit.dsl import attack_state, parse_document
from strandkit.model import (
    KNOWN,
    TO_LEARN,
    IntruderFact,
    Minter,
    ParamList,
    SignedMessage,
    StrandInstance,
    SymbolicState,
    item_terms,
    map_item,
    state_key,
)
from strandkit.search import level_states
from strandkit.semantics import ABSTRACT, SYNC, runtime_spec, trans, trans_inv
from strandkit.terms import (
    App,
    FreshConst,
    Subst,
    Var,
    _apply,
    const,
    fresh_constants,
    is_ground,
    skeleton,
    term_key,
    variables,
)
from strandkit.theory import AxiomDecl, EquationalTheory, canon, eq_modulo, \
    match_ax, normalize
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
    st.sampled_from([A_, B_, X, Y, FreshConst(1), FreshConst(1, "n")]),
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


def _leaves_below(t) -> list:
    """Every variable and fresh constant of t, by plain recursion."""
    if isinstance(t, App):
        return [x for a in t.args for x in _leaves_below(a)]
    return [t]


@settings(max_examples=300, deadline=None)
@given(app_terms, st.lists(app_terms, max_size=3))
def test_term_queries_agree_with_recursion(t, ts):
    below = _leaves_below(t)
    assert variables(t) == {x for x in below if isinstance(x, Var)}
    assert fresh_constants(t) == {x for x in below
                                  if isinstance(x, FreshConst)}
    assert is_ground(t) == (not any(isinstance(x, Var) for x in below))
    # tuples and lists of terms, nested too, as the callers pass them
    every = below + [x for u in ts for x in _leaves_below(u)]
    assert variables((t, tuple(ts))) == variables([t] + ts) == \
        {x for x in every if isinstance(x, Var)}
    assert fresh_constants((t, ts)) == {x for x in every
                                        if isinstance(x, FreshConst)}


def _apply_rebuilding(m, t):
    """`_apply` that builds every node again, bound leaves or not."""
    if isinstance(t, App):
        return App(t.op, tuple([_apply_rebuilding(m, a) for a in t.args]),
                   t.sort)
    got = m.get(t)
    if got is None:
        return t
    return _apply_rebuilding(m, got) if isinstance(got, Var) and got in m \
        and got != t else got


# maps of the leaves of app_terms; a binding to a bound variable is
# followed, so X and Y are not bound to each other
leaf_maps = st.dictionaries(
    st.sampled_from([X, Y, FreshConst(1)]), app_terms, max_size=3).filter(
    lambda m: not (m.get(X) == Y and m.get(Y) == X))


@settings(max_examples=300, deadline=None)
@given(app_terms, leaf_maps)
def test_apply_agrees_with_rebuilding(t, m):
    assert _apply(m, t) is _apply_rebuilding(m, t)
    if m.keys().isdisjoint(_leaves_below(t)):
        assert _apply(m, t) is t


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


# Patterns over X, Y, a, b, c under a free h and exclusive-or, matched
# against the ground sums of a, b and c.
MATCH_PATTERNS = st.recursive(
    st.sampled_from([X, Y, A_, B_, C_]),
    lambda kids: st.one_of(st.builds(lambda k: App("h", (k,), "Msg"), kids),
                           st.builds(xor, kids, kids)),
    max_leaves=6)
XOR_UNIVERSE = _ground_universe(XOR_TH)


@seed(29)
@settings(max_examples=300, deadline=None)
@given(MATCH_PATTERNS, st.sampled_from(XOR_UNIVERSE))
def test_match_ax_is_sound_and_misses_no_ground_instance(pattern, subject):
    """Every matcher `match_ax` yields makes the pattern equal the subject;
    and where some instantiation of the pattern over the ground universe
    equals the subject, it yields a matcher."""
    got = list(match_ax(canon(pattern, XOR_TH), subject, XOR_TH))
    for m in got:
        assert eq_modulo(Subst(m)(pattern), subject, XOR_TH), m
    vs = sorted(variables(pattern), key=term_key)
    if any(eq_modulo(Subst(dict(zip(vs, combo)), _trusted=True)(pattern),
                     subject, XOR_TH)
           for combo in itertools.product(XOR_UNIVERSE, repeat=len(vs))):
        assert got


def _h(t):
    return App("h", (t,), "Msg")


@pytest.mark.xfail(strict=True, reason="the exclusive-or solver binds a "
                   "variable only where it occurs in no other atom, and "
                   "pairs the other atoms with the first one alone")
@pytest.mark.parametrize("pattern, subject", [
    # X -> zero, Y -> zero
    (xor(X, xor(_h(X), _h(Y))), ZERO),
    # X -> Y * b, Y -> a * b * c
    (xor(xor(Y, B_), xor(_h(X), _h(xor(Y, B_)))), xor(A_, C_)),
])
def test_match_ax_loses_a_ground_instance(pattern, subject):
    """Ground instances the property above misses on longer runs: each
    needs a variable that occurs inside another atom to take the unit or
    a sum of the rest."""
    assert list(match_ax(canon(pattern, XOR_TH),
                         normalize(subject, XOR_TH), XOR_TH))


# The theories of the shipped specs, untyped: pk/sk, e/d and pk/sk with
# exclusive-or, each with a free operator f that no rule rewrites; and a
# rule with a sum in its left side, which also matches a term that is no
# sum: g(X * Y, c) normalizes g(a, c) to c.
XOR_PK_TH = EquationalTheory(rules=PK_TH.rules, axioms=XOR_TH.axioms)
SUM_LHS_TH = EquationalTheory(rules=((App("g", (xor(X, Y), C_), "Msg"), C_),),
                              axioms=XOR_TH.axioms)
CLASH_THEORIES = [(PK_TH, ("pk", "sk")), (ED_TH, ("e", "d")),
                  (XOR_PK_TH, ("xor", "pk", "sk")),
                  (SUM_LHS_TH, ("xor", "g"))]
CLASH_LEAVES = st.sampled_from([A_, B_, C_, X, Y, FreshConst(1, "r"),
                                FreshConst(2, "r")])


def _clash_terms(ops):
    """Small terms over the operators and f, reducible ones included."""
    return st.recursive(CLASH_LEAVES, lambda kids: st.one_of(
        st.builds(lambda k: App("f", (k,), "Msg"), kids),
        st.builds(lambda op, l, r: App(op, (l, r), "Msg"),
                  st.sampled_from(ops), kids, kids)), max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_apart_sides_have_no_unifier_and_no_matcher(data):
    """`apart` is sound: where it tells two terms apart, unification and
    matching without the clash test find nothing either."""
    from strandkit.theory import apart
    from strandkit.unify import _match_modulo_raw, _unify_modulo_raw

    th, ops = data.draw(st.sampled_from(CLASH_THEORIES))
    t, u = data.draw(_clash_terms(ops)), data.draw(_clash_terms(ops))
    if apart(t, u, th):
        assert _unify_modulo_raw(t, u, th, None) == ()
        assert _match_modulo_raw(t, u, th, None) == ()
        assert _match_modulo_raw(u, t, th, None) == ()


def test_a_sum_in_a_left_side_blocks_nothing():
    # g(X * Y, c) matches g(a, c) with X -> Y * a, so neither a constant
    # nor a fresh one in that place keeps g(_, W) rigid: W -> c unifies
    # g(a, W) with c, and matches it onto c
    from strandkit.theory import apart, rigid
    from strandkit.unify import match_modulo

    r, W = FreshConst(1, "r"), Var("W")
    for t in (A_, r, App("f", (X,), "Msg")):
        assert normalize(App("g", (t, C_), "Msg"), SUM_LHS_TH) == C_
        assert not rigid(App("g", (t, W), "Msg"), SUM_LHS_TH)
        assert not apart(App("g", (t, W), "Msg"), C_, SUM_LHS_TH)
    gaw = App("g", (A_, W), "Msg")
    assert unify_modulo(gaw, C_, SUM_LHS_TH) == (Subst({W: C_}),)
    assert match_modulo(gaw, C_, SUM_LHS_TH) == (Subst({W: C_}),)


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


# ------------------------------------------------------- state keys

KEY_VARS = [Var("X"), Var("Y"), Var("Z"), Var("N", "Nonce")]
KEY_FRESH = [FreshConst(1, "r"), FreshConst(2, "r"), FreshConst(3, "n")]
key_terms = st.recursive(
    st.sampled_from(KEY_VARS + KEY_FRESH + [A_, B_]),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: App("pk", p, "Msg")),
        st.tuples(kids, kids).map(lambda p: App("pair", p, "Msg")),
        kids.map(lambda k: App("h", (k,), "Msg"))),
    max_leaves=5)
key_strands = st.builds(
    lambda role, items, cut: StrandInstance(
        role, tuple(items), round(cut * len(items))),
    st.sampled_from(["A", "B"]),
    st.lists(st.builds(SignedMessage, st.sampled_from("+-"), key_terms),
             min_size=1, max_size=3),
    st.floats(0, 1))
key_states = st.builds(
    lambda strands, facts, diseqs: SymbolicState(
        tuple(strands), tuple(facts), tuple(diseqs)),
    st.lists(key_strands, max_size=3),
    st.lists(st.builds(IntruderFact, st.sampled_from([KNOWN, TO_LEARN]),
                       key_terms), max_size=3),
    st.lists(st.tuples(key_terms, key_terms), max_size=1))


def _state_terms(s):
    return [t for st_ in s.strands for it in st_.items
            for t in item_terms(it)] + [f.payload for f in s.facts] + \
        [t for p in s.diseqs for t in p]


def _state_vars(s):
    return variables(tuple(_state_terms(s)))


def _state_fresh(s):
    return fresh_constants(tuple(_state_terms(s)))


def _map_terms(s, m):
    return SymbolicState(
        tuple(replace(st_, items=tuple(map_item(it, lambda t: _apply(m, t))
                                       for it in st_.items))
              for st_ in s.strands),
        tuple(IntruderFact(f.kind, _apply(m, f.payload)) for f in s.facts),
        tuple((_apply(m, l), _apply(m, r)) for l, r in s.diseqs))


def _shuffled_across_ties(seq, shape, perm):
    """seq reordered by perm, except that elements of equal shape keep
    their order among themselves."""
    classes: dict = {}
    for x in seq:
        classes.setdefault(shape(x), []).append(x)
    return tuple(classes[shape(seq[i])].pop(0) for i in perm)


def _strand_shape(s):
    return (s.role, s.bar, tuple((it.polarity, skeleton(it.payload))
                                 for it in s.items))


@settings(max_examples=300, deadline=None)
@given(key_states, st.permutations(range(10)), st.permutations(range(10)),
       st.randoms(use_true_random=False))
def test_state_key_invariant_under_renaming_and_reordering(state, names,
                                                           idents, rnd):
    # an injective renaming onto names and idents the state does not use
    m = {v: Var(f"V{names[i]}", v.sort) for i, v in enumerate(KEY_VARS)}
    m.update((c, FreshConst(100 + idents[i], "c"))
             for i, c in enumerate(KEY_FRESH))
    renamed = _map_terms(state, m)
    assert state_key(renamed) == state_key(state)
    marked = tuple(f.payload for f in state.facts)
    focus = 0 if state.strands else None
    assert state_key(renamed, focus, tuple(_apply(m, t) for t in marked)) \
        == state_key(state, focus, marked)
    strands, facts = renamed.strands, renamed.facts
    sp = rnd.sample(range(len(strands)), len(strands))
    fp = rnd.sample(range(len(facts)), len(facts))
    reordered = SymbolicState(
        _shuffled_across_ties(strands, _strand_shape, sp),
        _shuffled_across_ties(facts, lambda f: (f.kind, skeleton(f.payload)),
                              fp), renamed.diseqs)
    assert state_key(reordered) == state_key(state)


def _reference_skeleton(t):
    if isinstance(t, Var):
        return (0, "?", t.sort)
    if isinstance(t, FreshConst):
        return (1, "#")
    return (2, t.op, len(t.args)) + tuple(_reference_skeleton(a)
                                          for a in t.args)


class _ReferenceRenamer:
    """Renames variables and fresh constants by first use inside a nested
    tuple copy of each term: the state key as it was first written."""

    def __init__(self):
        self.vars, self.fresh = {}, {}

    def key(self, t):
        if isinstance(t, Var):
            return (0, self.vars.setdefault(t, len(self.vars)), t.sort)
        if isinstance(t, FreshConst):
            return (1, self.fresh.setdefault(t, len(self.fresh)))
        return (2, t.op, len(t.args)) + tuple(self.key(a) for a in t.args)

    def item_key(self, item):
        if isinstance(item, SignedMessage):
            return ("m", item.polarity, self.key(item.payload))
        if isinstance(item, ParamList):
            return ("p", item.direction,
                    tuple(self.key(t) for t in item.payload))
        return ("s", item.direction, item.parents, item.children, item.mode,
                tuple(self.key(t) for t in item.payload))


def _item_shape(item):
    if isinstance(item, SignedMessage):
        return ("m", item.polarity, _reference_skeleton(item.payload))
    if isinstance(item, ParamList):
        return ("p", item.direction,
                tuple(_reference_skeleton(t) for t in item.payload))
    return ("s", item.direction, item.parents, item.children, item.mode,
            tuple(_reference_skeleton(t) for t in item.payload))


def _reference_key(state):
    strands = sorted(state.strands, key=lambda s: (
        s.role, s.bar, tuple(_item_shape(it) for it in s.items)))
    facts = sorted(state.facts,
                   key=lambda f: (f.kind, _reference_skeleton(f.payload)))
    diseqs = sorted(state.diseqs, key=lambda p: tuple(sorted(
        (_reference_skeleton(p[0]), _reference_skeleton(p[1])))))
    ren = _ReferenceRenamer()
    return (tuple((s.role, s.bar, tuple(ren.item_key(it) for it in s.items))
                  for s in strands),
            tuple((f.kind, ren.key(f.payload)) for f in facts),
            tuple(tuple(sorted((ren.key(l), ren.key(r))))
                  for l, r in diseqs))


def _classes(states, key):
    groups: dict = {}
    for i, s in enumerate(states):
        groups.setdefault(key(s), set()).add(i)
    return {frozenset(g) for g in groups.values()}


@pytest.mark.parametrize("fname,attack", [("nsl_kd.strand", "keyleak"),
                                          ("nsl_db.strand", "a1")])
def test_state_key_classes_match_the_reference_renamer(fname, attack):
    # the states `compare` keys: the abstract search's, and the sync
    # search's seen through trans_inv, which meet them level for level
    doc = parse_document((SPECS / fname).read_text())
    sync_spec = runtime_spec(doc, SYNC)
    abs_spec = runtime_spec(doc, ABSTRACT)
    sync_start = attack_state(doc, attack, sync_spec, Minter())
    states = [s for level in level_states(trans_inv(sync_start, sync_spec),
                                          abs_spec, ABSTRACT, 3)
              for s in level]
    states += [trans_inv(s, sync_spec)
               for level in level_states(sync_start, sync_spec, SYNC, 3)
               for s in level]
    # with each, a renamed copy (same class) and a copy with two of its
    # variables made one (same skeleton, other sharing)
    states += [_map_terms(s, {**{v: Var(v.name + "'", v.sort)
                                 for v in _state_vars(s)},
                              **{c: FreshConst(c.ident + 1000, c.hint)
                                 for c in _state_fresh(s)}})
               for s in states]
    for s in list(states):
        vs = sorted(_state_vars(s), key=term_key)
        pair = next(((v, w) for v in vs for w in vs
                     if v != w and v.sort == w.sort), None)
        if pair is not None:
            states.append(_map_terms(s, {pair[1]: pair[0]}))
    classes = _classes(states, state_key)
    assert len(classes) < len(states)  # some states do meet
    assert classes == _classes(states, _reference_key)
