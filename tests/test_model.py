"""Strand instances, symbolic states and their canonical keys."""
import pathlib

import pytest

from strandkit.dsl import parse_document
from strandkit.model import (
    KNOWN,
    TO_LEARN,
    IntruderFact,
    MalformedStrand,
    Minter,
    ParamList,
    SignedMessage,
    StrandInstance,
    StrandSchema,
    SymbolicState,
    SyncPoint,
    apply_subst_state,
    check_wellformed,
    instantiate,
    is_initial,
    items_variables,
    map_item,
    state_key,
)
from strandkit.semantics import BASIC, runtime_spec
from strandkit.terms import FRESH, MSG, App, FreshConst, Subst, Var

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


@pytest.fixture(scope="module")
def spec():
    doc = parse_document((SPECS / "nsl.strand").read_text())
    return runtime_spec(doc, BASIC)


def test_schema_shape_rules():
    v = Var("M", MSG)
    msg = SignedMessage("-", v)
    out = ParamList("out", (v,))
    ins = ParamList("in", (v,))
    with pytest.raises(MalformedStrand):
        StrandSchema("x", (), (msg, ins))  # input not first
    with pytest.raises(MalformedStrand):
        StrandSchema("x", (), (out, msg))  # output not last
    with pytest.raises(MalformedStrand):
        StrandSchema("x", (Var("r", MSG),), (msg,))  # fresh not Fresh-sorted


def test_bar_bounds():
    item = SignedMessage("+", Var("M", MSG))
    with pytest.raises(MalformedStrand):
        StrandInstance("x", (item,), 2)
    s = StrandInstance("x", (item,), 0)
    assert s.future == (item,) and s.past == ()


def test_instantiate_renames_apart(spec):
    minter = Minter()
    schema = spec.schemas["NSL.init"]
    a = instantiate(schema, minter)
    b = instantiate(schema, minter)
    va, vb = items_variables(a.items), items_variables(b.items)
    assert va and vb and not (va & vb)
    assert a.fresh_ids != b.fresh_ids
    # yet both instances canonicalize to the same key
    assert state_key(SymbolicState((a,))) == state_key(SymbolicState((b,)))


def test_state_key_ignores_order_and_naming(spec):
    minter = Minter()
    i1 = instantiate(spec.schemas["NSL.init"], minter)
    i2 = instantiate(spec.schemas["NSL.resp"], minter)
    f = IntruderFact(KNOWN, Var("X", MSG))
    g = IntruderFact(TO_LEARN, Var("Y", MSG))
    s1 = SymbolicState((i1, i2), (f, g))
    s2 = SymbolicState((i2, i1), (g, f))
    assert state_key(s1) == state_key(s2)


def test_state_key_distinguishes_bars(spec):
    minter = Minter()
    i1 = instantiate(spec.schemas["NSL.init"], minter)
    assert state_key(SymbolicState((i1,))) != \
        state_key(SymbolicState((i1.with_bar(1),)))


@pytest.mark.xfail(strict=True, reason="strands that tie on skeleton keep "
                   "the order they are given in, so a fact sharing a "
                   "variable with one of them tells the two orders apart")
def test_state_key_is_canonical_on_skeleton_ties():
    a, x, y = Var("A", MSG), Var("X", MSG), Var("Y", MSG)

    def receive(v):
        return StrandInstance("R", (SignedMessage("-", App("pk", (a, v))),),
                              1)

    knows_x = (IntruderFact(KNOWN, x),)
    assert state_key(SymbolicState((receive(x), receive(y)), knows_x)) == \
        state_key(SymbolicState((receive(y), receive(x)), knows_x))


def _pk(a, b):
    return App("pk", (a, b))


def test_state_key_tells_apart_parameter_lists_split_differently():
    x, y, z = Var("X", MSG), Var("Y", MSG), Var("Z", MSG)

    def strand(*splits):
        return SymbolicState((StrandInstance(
            "R", tuple(ParamList("out", split) for split in splits), 0),))

    keys = {state_key(strand((x, y), (z,))), state_key(strand((x,), (y, z))),
            state_key(strand((x, y, z))), state_key(strand((x,), (y,), (z,)))}
    assert len(keys) == 4
    assert state_key(strand((x, y), (z,))) == state_key(strand((z, x), (y,)))


def test_state_key_tells_a_strand_message_from_a_fact():
    a, b, x, y = (Var(n, MSG) for n in ("A", "B", "X", "Y"))

    def state(sent, known):
        return SymbolicState((StrandInstance("R", (SignedMessage("-", sent),),
                                             1),),
                             (IntruderFact(KNOWN, known),))

    def fact_only(*terms):
        return SymbolicState((), tuple(IntruderFact(KNOWN, t) for t in terms))

    # the same terms swapped between the strand and the fact
    assert state_key(state(_pk(a, x), x)) != state_key(state(x, _pk(a, x)))
    # a renaming meets, other sharing does not
    assert state_key(state(_pk(a, x), x)) == state_key(state(_pk(b, y), y))
    assert state_key(state(_pk(a, x), x)) != state_key(state(_pk(a, x), a))
    assert state_key(state(_pk(a, x), x)) != state_key(state(_pk(a, x), y))
    # polarity and fact kind count
    assert state_key(state(_pk(a, x), x)) != state_key(SymbolicState(
        (StrandInstance("R", (SignedMessage("+", _pk(a, x)),), 1),),
        (IntruderFact(KNOWN, x),)))
    assert state_key(fact_only(x)) != \
        state_key(SymbolicState((), (IntruderFact(TO_LEARN, x),)))
    # a strand of a role named like the fact kind is still a strand
    known_role = SymbolicState((StrandInstance(KNOWN, (), 0),))
    assert state_key(known_role) != state_key(fact_only(x))
    assert state_key(fact_only(_pk(a, x))) != \
        state_key(SymbolicState((StrandInstance(
            KNOWN, (SignedMessage("-", _pk(a, x)),), 0),)))


def test_state_key_of_disequalities_with_swapped_sides():
    a, x, y = App("a", (), "Name"), Var("X", MSG), Var("Y", MSG)
    known_x = (IntruderFact(KNOWN, x),)

    def state(*diseqs):
        return SymbolicState((), known_x, diseqs)

    assert state_key(state((x, a))) == state_key(state((a, x)))
    assert state_key(state((x, y))) == state_key(state((y, x)))
    assert state_key(state((x, a), (y, a))) == \
        state_key(state((a, x), (a, y)))
    # which side the known variable stands on is kept
    assert state_key(state((x, _pk(a, y)))) != \
        state_key(state((y, _pk(a, x))))
    assert state_key(state((x, y))) != state_key(state((y, y)))
    assert state_key(state((x, a))) != \
        state_key(SymbolicState((), known_x + (IntruderFact(KNOWN, a),)))


def test_map_item_returns_an_unchanged_item_itself():
    x, y = Var("X", MSG), Var("Y", MSG)
    items = (SignedMessage("+", _pk(x, y)), ParamList("in", (x, y)),
             SyncPoint("out", ("A",), ("B",), "1-1", (_pk(x, y), y)),
             ParamList("out", ()))
    for it in items:
        assert map_item(it, lambda t: t) is it
        assert map_item(it, Subst({Var("Z", MSG): x})) is it
    moved = map_item(items[2], Subst({y: x}))
    assert moved is not items[2] and moved.payload == (_pk(x, x), x)


def test_apply_subst_state_shares_what_it_leaves_alone(spec):
    th = spec.theory
    x, y, z = Var("X", MSG), Var("Y", MSG), Var("Z", MSG)
    kept = StrandInstance("R", (SignedMessage("-", _pk(x, FreshConst(1))),
                                SignedMessage("+", x)), 1)
    moved = StrandInstance("S", (SignedMessage("-", y),
                                 SignedMessage("+", _pk(x, y))), 1)
    facts = (IntruderFact(KNOWN, _pk(x, x)), IntruderFact(TO_LEARN, y))
    st = SymbolicState((kept, moved), facts, depth=2)
    got = apply_subst_state(st, Subst({y: z}), th, 3)
    assert got.depth == 3
    assert got.strands[0] is kept and got.facts[0] is facts[0]
    assert got.strands[1] is not moved and got.facts[1] is not facts[1]
    assert got.strands[1].items[0].payload == z
    assert apply_subst_state(st, Subst({y: z}), th).depth == 2
    same = apply_subst_state(st, Subst(), th)
    assert all(map(lambda a, b: a is b, same.strands, st.strands))
    assert all(map(lambda a, b: a is b, same.facts, st.facts))


def test_apply_subst_collapsing_diseq_fails(spec):
    th = spec.theory
    sig = spec.signature
    a, b = sig.make("a"), sig.make("b")
    v = Var("C", "Name")
    st = SymbolicState((), (), ((a, v),))
    assert apply_subst_state(st, Subst({v: b}), th) is not None
    assert apply_subst_state(st, Subst({v: a}), th) is None


def test_apply_subst_merges_duplicate_facts(spec):
    th = spec.theory
    v, w = Var("X", MSG), Var("Y", MSG)
    st = SymbolicState((), (IntruderFact(KNOWN, v), IntruderFact(KNOWN, w)))
    got = apply_subst_state(st, Subst({w: v}), th)
    assert len(got.facts) == 1


def test_known_and_pending_same_message_is_inconsistent(spec):
    th = spec.theory
    v = Var("X", MSG)
    st = SymbolicState((), (IntruderFact(KNOWN, v), IntruderFact(TO_LEARN, v)))
    assert apply_subst_state(st, Subst(), th) is None


def test_is_initial(spec):
    minter = Minter()
    inst = instantiate(spec.schemas["NSL.init"], minter)
    pending = IntruderFact(TO_LEARN, Var("X", MSG))
    assert is_initial(SymbolicState((inst,), (pending,)))
    assert not is_initial(SymbolicState((inst.with_bar(1),)))
    assert not is_initial(SymbolicState((), (IntruderFact(KNOWN, Var("X", MSG)),)))


def test_check_wellformed_flags_unused_fresh(spec):
    r = Var("r", FRESH)
    schema = StrandSchema("x", (r,), (SignedMessage("+", Var("M", MSG)),))
    problems = check_wellformed(schema, spec.signature, spec.theory)
    assert any("never used" in p for p in problems)
