import pathlib

import pytest

from strandkit.dsl import (
    Document,
    SpecError,
    attack_state,
    parse_document,
    phi_transform,
    print_protocol,
    print_term,
    synch_transform,
    validate_composition,
)
from strandkit.model import (
    Minter,
    ParamList,
    SignedMessage,
    SyncPoint,
    UnknownComposition,
)
from strandkit.terms import App, Var, variables

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


def load(name: str) -> Document:
    return parse_document((SPECS / name).read_text())


@pytest.fixture(scope="module")
def nsl():
    return load("nsl.strand")


@pytest.fixture(scope="module")
def nsl_db():
    return load("nsl_db.strand")


@pytest.fixture(scope="module")
def nsl_kd():
    return load("nsl_kd.strand")


def test_parse_nsl_roles(nsl):
    proto = nsl.protocols[0]
    assert set(proto.schemas) >= {"NSL.init", "NSL.resp", "int.concat"}
    init = proto.schemas["NSL.init"]
    assert len(init.items) == 4
    assert isinstance(init.items[0], SignedMessage)
    assert isinstance(init.items[3], ParamList)


def test_parse_term_shapes(nsl):
    proto = nsl.protocols[0]
    first = proto.schemas["NSL.init"].items[0].payload
    # pk(B, n(A,r) ; A) with right-associated concatenation
    assert first.op == "pk"
    inner = first.args[1]
    assert inner.op == ";"
    assert inner.args[0].op == "n"


def test_parse_errors_carry_position():
    with pytest.raises(SpecError) as exc:
        parse_document("protocol P {\n  bogus ;\n}")
    d = exc.value.diagnostic
    assert d.line == 2 and d.code == "E003"


def test_unknown_identifier_rejected():
    src = """protocol P {
      strand P.x { +(mystery) ; }
    }"""
    with pytest.raises(SpecError) as exc:
        parse_document(src)
    assert exc.value.diagnostic.code == "E009"


@pytest.mark.parametrize("attrs", ["assoc comm", "comm", "assoc",
                                   "unit(e)"])
def test_axioms_other_than_exclusive_or_are_rejected(attrs):
    src = f"""protocol P {{
      op f : Msg Msg -> Msg ;
      op e : -> Msg ;
      axiom f {attrs} ;
    }}"""
    with pytest.raises(SpecError) as exc:
        parse_document(src)
    assert exc.value.diagnostic.code == "E005"


def test_print_parse_roundtrip():
    """Every shipped spec parses, validates and prints back to itself."""
    for path in sorted(SPECS.glob("*.strand")):
        doc = load(path.name)
        assert validate_composition(doc) == [], path.name
        for proto in doc.protocols:
            text = print_protocol(proto)
            reparsed = parse_document(text).protocols[-1]
            assert reparsed.schemas == proto.schemas, proto.name
            assert reparsed.theory.rules == proto.theory.rules
            assert reparsed.theory.axioms == proto.theory.axioms


def test_validate_composition_clean(nsl_db, nsl_kd):
    assert validate_composition(nsl_db) == []
    assert validate_composition(nsl_kd) == []


def test_validate_flags_missing_matcher(nsl_db):
    # corrupt a parameter list length
    import copy

    doc = copy.deepcopy(nsl_db)
    sch = doc.protocols[1].schemas["DB.init"]
    item = sch.items[0]
    doc.protocols[1].schemas["DB.init"] = type(sch)(
        sch.role, sch.fresh, (ParamList("in", item.payload[:2]),) + sch.items[1:])
    diags = validate_composition(doc)
    assert any(d.code == "E025" for d in diags)


def test_validate_flags_mode_mixing(nsl_db):
    import copy

    doc = copy.deepcopy(nsl_db)
    doc.triples = [("NSL.init", "DB.resp", "1-1"), ("NSL.init", "DB.init", "1-*")]
    diags = validate_composition(doc)
    assert any(d.code == "E027" for d in diags)
    # the transforms refuse to pick one of the two modes
    for transform in (synch_transform, phi_transform):
        with pytest.raises(UnknownComposition, match="single composition mode"):
            transform(doc)


CHAIN = """
protocol P {
  sorts Name ;
  subsort Name < Msg ;
  vars A : Name ;
  strand R1 { +(A) ; out (A) ; }
  strand R2 { in (A) ; +(A) ; out (A) ; }
  strand R3 { in (A) ; -(A) ; }
}
composition {
  (R1, R2, 1-1) ;
  (R2, R3, 1-*) ;
}
"""


def test_role_composed_under_one_mode_per_side():
    # R2 is a child under 1-1 and a parent under 1-*: its input takes the
    # mode of the triples naming it as child, its output the mode of those
    # naming it as parent
    doc = parse_document(CHAIN)
    assert validate_composition(doc) == []
    r2 = synch_transform(doc).schemas["R2"].items
    assert (r2[0].direction, r2[0].mode) == ("in", "1-1")
    assert (r2[-1].direction, r2[-1].mode) == ("out", "1-*")
    r3 = synch_transform(doc).schemas["R3"].items
    assert r3[0].mode == "1-*"
    # the one-to-one input receives the parent's tag, the one-to-many
    # output sends its own
    items = phi_transform(doc).schemas["R2"].items
    assert [it.polarity for it in items] == ["+", "-", "+", "+"]


def test_synch_transform_builds_sync_points(nsl_db):
    spec = synch_transform(nsl_db)
    init = spec.schemas["NSL.init"]
    sp = init.items[-1]
    assert isinstance(sp, SyncPoint)
    assert sp.direction == "out"
    assert sp.parents == ("NSL.init",)
    assert sp.children == ("DB.resp",)
    assert sp.mode == "1-1"
    child = spec.schemas["DB.resp"]
    sp_in = child.items[0]
    assert sp_in.parents == ("NSL.init",) and sp_in.children == ("DB.resp",)


def test_synch_transform_one_to_many(nsl_kd):
    spec = synch_transform(nsl_kd)
    sp = spec.schemas["NSL.init"].items[-1]
    assert sp.mode == "1-*"
    assert set(sp.children) == {"KD.init", "KD.resp"}
    sp_in = spec.schemas["KD.init"].items[0]
    assert set(sp_in.parents) == {"NSL.init", "NSL.resp"}


def test_phi_transform_one_to_one(nsl_db):
    spec = phi_transform(nsl_db)
    init = spec.schemas["NSL.init"]
    texts = [print_term(it.payload) for it in init.items]
    # announcement first, then NSL body, then handover receive and send
    assert texts[0] == "NSL.init"
    assert texts[-2].startswith("DB.resp(")
    assert texts[-1].startswith("(NSL.init(")
    assert " . " in texts[-1]
    # 1-1 parent receives the identifier: it is a variable, not minted
    assert init.fresh == nsl_db.protocols[0].schemas["NSL.init"].fresh
    child = spec.schemas["DB.resp"]
    ctexts = [print_term(it.payload) for it in child.items]
    assert ctexts[0].startswith("DB.resp(")
    assert ctexts[1].startswith("(NSL.init(")
    # 1-1 child mints the identifier
    assert len(child.fresh) == len(nsl_db.protocols[1].schemas["DB.resp"].fresh) + 1


def test_phi_transform_one_to_many(nsl_kd):
    spec = phi_transform(nsl_kd)
    init = spec.schemas["NSL.init"]
    texts = [print_term(it.payload) for it in init.items]
    assert texts[0] == "NSL.init"
    assert texts[-1].startswith("(NSL.init(")
    # 1-* parent mints the identifier itself
    assert len(init.fresh) == 2
    child = spec.schemas["KD.init"]
    ctexts = [print_term(it.payload) for it in child.items]
    assert ctexts[0] == "KD.init"
    # several possible parents: the tag is a Role-sorted variable
    recv = child.items[1]
    role_vars = [v for v in variables(recv.payload) if v.sort == "Role"]
    assert role_vars


def test_attack_state_construction(nsl_db):
    spec = synch_transform(nsl_db)
    st = attack_state(nsl_db, "a0", spec, Minter())
    assert len(st.strands) == 2
    s1, s2 = st.strands
    assert s1.role == "NSL.init" and s1.bar == 3
    assert s2.role == "DB.init" and s2.bar == 3
    assert s2.items[0].children == ("DB.init",)
    assert len(st.diseqs) == 2
    # the initiator nonce is one shared fresh constant across both strands
    from strandkit.terms import fresh_constants

    f1 = fresh_constants(tuple(s1.items[0].payload for _ in (0,)))
    f2 = fresh_constants(s2.items[2].payload)
    assert f1 & f2
