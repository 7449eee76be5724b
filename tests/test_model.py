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
    apply_subst_state,
    check_wellformed,
    instantiate,
    is_initial,
    items_variables,
    state_key,
)
from strandkit.semantics import BASIC, runtime_spec
from strandkit.terms import FRESH, MSG, App, Subst, Var

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
    assert StrandSchema("x", (), (ins, msg, out)).form == "both"
    assert StrandSchema("x", (), (ins, out)).form == "void"


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
