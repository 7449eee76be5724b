"""Backward and forward transition rules, and the view translation."""
import dataclasses
import pathlib
from collections import Counter

import pytest

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
    SyncPoint,
    instantiate,
    is_initial,
    state_key,
)
from strandkit.semantics import (
    ABSTRACT,
    BASIC,
    SYNC,
    backward_successors,
    forward_step,
    runtime_spec,
    trans,
    trans_inv,
)
from strandkit.terms import FreshConst, Var

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


def load(name):
    return parse_document((SPECS / name).read_text())


@pytest.fixture(scope="module")
def nsl_db():
    return load("nsl_db.strand")


@pytest.fixture(scope="module")
def nsl_kd():
    return load("nsl_kd.strand")


def mk(sig, op, *args):
    return sig.make(op, *args)


def test_backward_recv_adds_demand(nsl_db):
    spec = runtime_spec(nsl_db, BASIC)
    sig, minter = spec.signature, Minter()
    m = mk(sig, "pk", mk(sig, "a"), mk(sig, "b"))
    st = SymbolicState((StrandInstance("x", (SignedMessage("-", m),), 1),))
    steps = backward_successors(st, spec, BASIC, minter)
    recv = [s for s in steps if s.rule == "recv"]
    assert len(recv) == 1
    pred = recv[0].predecessor
    assert pred.strands[0].bar == 0
    assert pred.facts == (IntruderFact(KNOWN, m),)
    assert pred.depth == 1


def test_backward_recv_merges_with_known_fact(nsl_db):
    spec = runtime_spec(nsl_db, BASIC)
    sig, minter = spec.signature, Minter()
    a = mk(sig, "a")
    pat = mk(sig, "pk", a, Var("M", "Msg"))
    fact = mk(sig, "pk", a, mk(sig, "b"))
    st = SymbolicState(
        (StrandInstance("x", (SignedMessage("-", pat),), 1),),
        (IntruderFact(KNOWN, fact),))
    steps = backward_successors(st, spec, BASIC, minter)
    recs = [s for s in steps if s.rule == "recv"]
    # one branch demands pk(a, M) as a new fact, one merges with pk(a, b)
    assert len(recs) == 2
    merged = [s for s in recs if not s.unifier.is_identity()]
    assert len(merged) == 1
    assert merged[0].predecessor.facts == (IntruderFact(KNOWN, fact),)


def test_backward_send_and_send_learn(nsl_db):
    spec = runtime_spec(nsl_db, BASIC)
    sig, minter = spec.signature, Minter()
    m = mk(sig, "pk", mk(sig, "a"), mk(sig, "b"))
    st = SymbolicState(
        (StrandInstance("x", (SignedMessage("+", m),), 1),),
        (IntruderFact(KNOWN, m),))
    steps = backward_successors(st, spec, BASIC, minter)
    assert any(s.rule == "send_silent" and s.predecessor.facts == st.facts
               for s in steps)
    learns = [s for s in steps if s.rule == "send_learn"]
    assert len(learns) == 1
    assert learns[0].predecessor.facts == (IntruderFact(TO_LEARN, m),)
    assert is_initial(learns[0].predecessor)


def test_backward_intro_explains_fact(nsl_db):
    spec = runtime_spec(nsl_db, BASIC)
    sig, minter = spec.signature, Minter()
    fact = mk(sig, "pk", mk(sig, "a"), mk(sig, "b"))
    st = SymbolicState(facts=(IntruderFact(KNOWN, fact),))
    steps = backward_successors(st, spec, BASIC, minter)
    intro = [s for s in steps if s.rule == "intro_strand:int.enc"]
    # pk(A, M) =? pk(a, b) has two incomparable unifiers modulo the
    # cancellation equations: the plain one and one through sk cancellation
    assert intro
    plain = [s for s in intro
             if any(f.kind == KNOWN and f.payload == mk(sig, "b")
                    for f in s.predecessor.facts)]
    assert len(plain) == 1
    pred = plain[0].predecessor
    # the explaining strand never enters the state; it leaves a demand for
    # the message it would have received, and the fact flips
    assert pred.strands == ()
    assert any(f.kind == TO_LEARN and f.payload == fact for f in pred.facts)


def test_backward_sync_compose_with_existing_parent(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    minter = Minter()
    parent_schema = spec.schemas["NSL.init"]
    child_schema = spec.schemas["DB.resp"]
    from strandkit.model import instantiate

    p = instantiate(parent_schema, minter, bar=len(parent_schema.items))
    c = instantiate(child_schema, minter, bar=1)
    st = SymbolicState((p, c))
    steps = backward_successors(st, spec, SYNC, minter)
    comp = [s for s in steps if s.rule == "sync_compose"]
    assert comp, [s.rule for s in steps]
    pred = comp[0].predecessor
    bars = sorted(s.bar for s in pred.strands)
    assert bars == [0, len(parent_schema.items) - 1]
    # a parent whose synchronization point leaves the child out hands
    # nothing over, though the composition relation relates the two
    assert ("NSL.init", "DB.resp", "1-1") in spec.triples
    out = dataclasses.replace(p.items[-1], children=())
    cut = dataclasses.replace(p, items=p.items[:-1] + (out,))
    steps = backward_successors(SymbolicState((cut, c)), spec, SYNC, minter)
    assert not any(s.rule == "sync_compose" for s in steps)


def test_backward_sync_new_parent(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    minter = Minter()
    child_schema = spec.schemas["DB.init"]
    from strandkit.model import instantiate

    c = instantiate(child_schema, minter, bar=1)
    st = SymbolicState((c,))
    steps = backward_successors(st, spec, SYNC, minter)
    newp = [s for s in steps if s.rule == "sync_new_parent:NSL.resp"]
    assert len(newp) == 1
    pred = newp[0].predecessor
    assert len(pred.strands) == 2
    parent = next(s for s in pred.strands if s.role == "NSL.resp")
    assert parent.bar == len(parent.items) - 1
    child = next(s for s in pred.strands if s.role == "DB.init")
    assert child.bar == 0


def test_backward_no_sync_1many_for_one_to_one(nsl_db):
    spec = runtime_spec(nsl_db, SYNC)
    minter = Minter()
    from strandkit.model import instantiate

    parent_schema = spec.schemas["NSL.init"]
    child_schema = spec.schemas["DB.resp"]
    p = instantiate(parent_schema, minter, bar=len(parent_schema.items) - 1)
    c = instantiate(child_schema, minter, bar=1)
    st = SymbolicState((p, c))
    steps = backward_successors(st, spec, SYNC, minter)
    assert not any(s.rule == "sync_1many" for s in steps)


@pytest.mark.parametrize("parent", ["none", "finished", "waiting"])
@pytest.mark.parametrize("name,child", [
    ("nsl_db", "DB.resp"), ("nsl_db", "DB.init"),
    ("nsl_kd", "KD.init"), ("nsl_kd", "KD.resp")])
def test_backward_abstract_mirrors_sync(request, name, child, parent):
    doc = request.getfixturevalue(name)
    sync_spec = runtime_spec(doc, SYNC)
    abs_spec = runtime_spec(doc, ABSTRACT)
    minter = Minter()
    strands = [instantiate(sync_spec.schemas[child], minter, bar=1)]
    if parent != "none":
        for role in sorted({a for (a, c, m) in doc.triples if c == child}):
            n = len(sync_spec.schemas[role].items)
            strands.append(instantiate(sync_spec.schemas[role], minter,
                                       bar=n if parent == "finished" else n - 1))
    st_sync = SymbolicState(tuple(strands))
    st_abs = trans_inv(st_sync, sync_spec)
    sync_steps = backward_successors(st_sync, sync_spec, SYNC, Minter())
    abs_steps = backward_successors(st_abs, abs_spec, ABSTRACT, Minter())
    abstract_name = {"sync_compose": "compose_11",
                     "sync_1many": "compose_1many",
                     "sync_new_parent": "compose_new_parent"}

    def as_abstract(rule):
        base, colon, role = rule.partition(":")
        return abstract_name.get(base, base) + colon + role

    # every predecessor, rule and state alike, seen through the abstract view
    got = Counter((as_abstract(s.rule),
                   state_key(trans_inv(s.predecessor, sync_spec)))
                  for s in sync_steps)
    assert got == Counter((s.rule, state_key(s.predecessor))
                          for s in abs_steps)
    assert any(s.rule.startswith("compose_new_parent") for s in abs_steps)


def test_trans_roundtrip_on_attack_state(nsl_db):
    sync_spec = runtime_spec(nsl_db, SYNC)
    proto = runtime_spec(nsl_db, ABSTRACT)
    from strandkit.dsl import synch_transform

    st = attack_state(nsl_db, "a0", synch_transform(nsl_db), Minter())
    back = trans(trans_inv(st, sync_spec), sync_spec)
    # parent/child annotations are recomputed from the composition relation,
    # so compare through the canonical key after normalizing annotations
    assert state_key(trans_inv(back, sync_spec)) == state_key(trans_inv(st, sync_spec))
    for s1, s2 in zip(st.strands, back.strands):
        for i1, i2 in zip(s1.items, s2.items):
            if isinstance(i1, SyncPoint):
                assert isinstance(i2, SyncPoint)
                assert i1.payload == i2.payload and i1.mode == i2.mode


def test_forward_recv_needs_known_fact(nsl_db):
    spec = runtime_spec(nsl_db, BASIC)
    sig = spec.signature
    m = mk(sig, "pk", mk(sig, "a"), mk(sig, "b"))
    st = SymbolicState((StrandInstance("x", (SignedMessage("-", m),), 0),))
    assert forward_step(st, spec, BASIC) == []
    st2 = SymbolicState(st.strands, (IntruderFact(KNOWN, m),))
    succs = forward_step(st2, spec, BASIC)
    assert any(r.rule == "recv" and r.successor.strands[0].bar == 1
               for r in succs)


def test_forward_send_learn_flips_fact(nsl_db):
    spec = runtime_spec(nsl_db, BASIC)
    sig = spec.signature
    m = mk(sig, "pk", mk(sig, "a"), mk(sig, "b"))
    st = SymbolicState(
        (StrandInstance("x", (SignedMessage("+", m),), 0),),
        (IntruderFact(TO_LEARN, m),))
    succs = forward_step(st, spec, BASIC)
    learn = [r for r in succs if r.rule == "send_learn"]
    assert learn and learn[0].successor.facts == (IntruderFact(KNOWN, m),)


def test_forward_intro_sums_known_facts(nsl_db):
    """The exclusive-or intruder strand -(M) ; -(N) ; +(M * N) derives a
    nonce from its sum with another and that other, and a sum from two
    sums that share an atom, but nothing from one sum alone."""
    spec = runtime_spec(nsl_db, SYNC)
    sig = spec.signature
    na, nb, ni = (mk(sig, "n", mk(sig, name), FreshConst(k, "c"))
                  for k, name in enumerate("abi"))
    for known, goal, rules in (
            ([mk(sig, "*", na, nb), nb], na, ["intro_strand:int.xor"]),
            ([mk(sig, "*", na, ni), mk(sig, "*", nb, ni)],
             mk(sig, "*", na, nb), ["intro_strand:int.xor"]),
            ([mk(sig, "*", na, nb)], na, [])):
        st = SymbolicState((), tuple(IntruderFact(KNOWN, k) for k in known)
                           + (IntruderFact(TO_LEARN, goal),))
        steps = forward_step(st, spec, SYNC, rules=("intro_strand",))
        assert [s.rule for s in steps] == rules


def test_forward_sync_compose_advances_both(nsl_db):
    from strandkit.model import map_item
    from strandkit.terms import Subst

    for mode, compose, new_parent in (
            (SYNC, "sync_compose", "sync_new_parent"),
            (ABSTRACT, "compose_11", "compose_new_parent")):
        spec = runtime_spec(nsl_db, mode)
        minter = Minter()
        parent_schema = spec.schemas["NSL.init"]
        child_schema = spec.schemas["DB.resp"]
        p = instantiate(parent_schema, minter,
                        bar=len(parent_schema.items) - 1)
        payload = p.items[-1].payload
        c0 = instantiate(child_schema, minter, bar=0)
        binding = Subst(dict(zip(list(c0.items[0].payload), payload)))
        c = StrandInstance(c0.role,
                           tuple(map_item(it, binding) for it in c0.items), 0,
                           c0.fresh_ids)
        st = SymbolicState((p, c))
        succs = forward_step(st, spec, mode)
        comp = [r for r in succs if r.rule == compose]
        assert comp, mode
        bars = sorted(s.bar for s in comp[0].successor.strands)
        assert bars == [1, len(parent_schema.items)]
        newp = [r for r in succs if r.rule.startswith(new_parent)]
        assert newp and len(newp[0].successor.strands) == 1
        assert not any(r.rule.endswith("1many") for r in succs)


def test_backward_then_forward_roundtrip(nsl_db):
    # a forward step taken from any backward predecessor reaches a state
    # with the same canonical key as the one we started from
    spec = runtime_spec(nsl_db, BASIC)
    sig, minter = spec.signature, Minter()
    m = mk(sig, "pk", mk(sig, "a"), mk(sig, "b"))
    st = SymbolicState(
        (StrandInstance("x", (SignedMessage("+", m),), 1),),
        (IntruderFact(KNOWN, m),))
    def covers(succ, src):
        # leftover demand facts from strand introduction may remain: the
        # successor must contain the source state, not equal it
        if [(x.role, x.bar) for x in succ.strands] != \
                [(x.role, x.bar) for x in src.strands]:
            return False
        have = {(f.kind, f.payload) for f in succ.facts}
        return all((f.kind, f.payload) in have for f in src.facts)

    for step in backward_successors(st, spec, BASIC, minter):
        assert any(covers(r.successor, st)
                   for r in forward_step(step.predecessor, spec, BASIC))


def test_runtime_specs_of_one_document_share_one_theory(nsl_db):
    # the merged signature and theory are built once per document, so the
    # specs of every mode share the theory's canonical leaves
    sync, abstract, basic = (runtime_spec(nsl_db, m)
                             for m in (SYNC, ABSTRACT, BASIC))
    assert sync.theory is abstract.theory is basic.theory
    assert sync.signature is abstract.signature is basic.signature
