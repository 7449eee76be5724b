import pytest

from strandkit.terms import (
    App,
    FreshConst,
    IllTyped,
    InvalidPosition,
    Signature,
    SignatureClash,
    SortClash,
    Subst,
    Var,
    const,
    least_sort,
    positions,
    replace_at,
    subterm_at,
    term_key,
)


@pytest.fixture
def sig():
    s = Signature()
    s.add_sort("Name")
    s.add_sort("Nonce")
    s.add_subsort("Name", "Msg")
    s.add_subsort("Nonce", "Msg")
    s.declare_op("a", [], "Name")
    s.declare_op("n", ["Name", "Fresh"], "Nonce")
    s.declare_op("pk", ["Name", "Msg"], "Msg")
    return s


def test_least_sort_of_application(sig):
    a = sig.make("a")
    t = sig.make("n", a, FreshConst(1))
    assert least_sort(t) == "Nonce"
    assert least_sort(a) == "Name"
    assert least_sort(Var("X", "Msg")) == "Msg"


def test_subsort_is_reflexive_transitive(sig):
    sig.add_subsort("Nonce", "Key")
    sig.add_subsort("Key", "Top")
    assert sig.leq("Nonce", "Nonce")
    assert sig.leq("Nonce", "Top")
    assert not sig.leq("Top", "Nonce")


def test_subsort_cycle_rejected(sig):
    sig.add_subsort("A1", "B1")
    with pytest.raises(SortClash):
        sig.add_subsort("B1", "A1")


def test_make_checks_argument_sorts(sig):
    with pytest.raises(IllTyped):
        sig.make("pk", Var("M", "Msg"), const("a", "Name"))


def test_operator_overloading_by_arity(sig):
    sig.declare_op("tag", [], "Name")
    sig.declare_op("tag", ["Fresh"], "Name")
    assert sig.make("tag").sort == "Name"
    assert sig.make("tag", FreshConst(3)).sort == "Name"


def test_signature_merge_detects_clash(sig):
    other = Signature()
    other.add_sort("Name")
    other.declare_op("a", [], "Msg")
    with pytest.raises(SignatureClash):
        sig.merge(other)


def test_positions_and_subterm_roundtrip(sig):
    t = sig.make("pk", sig.make("a"), sig.make("n", sig.make("a"), FreshConst(1)))
    for p in positions(t):
        sub = subterm_at(t, p)
        assert replace_at(t, p, sub) == t
    assert subterm_at(t, (1, 0)) == sig.make("a")
    with pytest.raises(InvalidPosition):
        subterm_at(t, (5,))


def test_replace_at_disjoint_positions_commute(sig):
    t = sig.make("pk", sig.make("a"), Var("M", "Msg"))
    u, v = const("x"), const("y")
    one = replace_at(replace_at(t, (0,), u), (1,), v)
    two = replace_at(replace_at(t, (1,), v), (0,), u)
    assert one == two


def test_subst_apply_and_compose():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    s1 = Subst({x: App("f", (y,))})
    s2 = Subst({y: z})
    comp = s1.compose(s2)
    t = App("g", (x, y))
    assert comp(t) == s2(s1(t))


def test_subst_rejects_variable_cycle():
    x, y = Var("X"), Var("Y")
    for m in ({x: y, y: x}, {x: App("f", (y,)), y: x}):
        with pytest.raises(SortClash):
            Subst(m)


def test_apply_follows_bound_images_and_maps_fresh_constants():
    from strandkit.terms import _apply

    x, y, c, r = Var("X"), Var("Y"), App("c", ()), FreshConst(3)
    assert _apply({x: y, y: c}, App("f", (x,))) == App("f", (c,))
    assert _apply({r: x}, App("f", (r, c))) == App("f", (x, c))


def test_subst_is_idempotent():
    x, y = Var("X"), Var("Y")
    s = Subst({x: App("f", (y,)), y: App("c", ())})
    assert s(s(Var("X"))) == s(Var("X"))
    assert s(x) == App("f", (App("c", ()),))


def test_subst_rejects_occurs_cycle():
    x = Var("X")
    with pytest.raises(SortClash):
        Subst({x: App("f", (x,))})


def test_fresh_constants_never_substituted():
    f = FreshConst(7)
    s = Subst({Var("X"): const("c")})
    assert s(f) == f


def test_term_key_total_order():
    items = [Var("X"), FreshConst(1), App("f", (Var("X"),)), App("f", ())]
    keys = [term_key(t) for t in items]
    assert len(set(keys)) == 4
    assert sorted(keys)[0] == term_key(Var("X"))


# ------------------------------------------------------------ hash-consing


def test_equal_applications_are_one_node():
    args = (Var("X"), FreshConst(2), const("a", "Name"))
    assert App("f", args, "Msg") is App("f", tuple(list(args)), "Msg")
    assert App("f", args, "Msg") is not App("f", args, "Name")
    assert const("c") is App("c")


def test_application_nodes_are_immutable():
    t = App("f", (Var("X"),))
    with pytest.raises(AttributeError):
        t.op = "g"
    with pytest.raises(AttributeError):
        del t.args


def test_substitution_shares_untouched_subterms():
    inner = App("g", (Var("Y"), const("c")))
    t = App("f", (Var("X"), inner))
    assert Subst({Var("Z"): const("d")})(t) is t
    out = Subst({Var("X"): const("d")})(t)
    assert out is App("f", (const("d"), inner))
    assert out.args[1] is inner


def test_copies_and_pickles_come_back_interned():
    import copy
    import pickle

    t = App("f", (Var("X"), App("g", (FreshConst(3),), "Name")))
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy({"k": [t]})["k"][0] is t


# ------------------------------------------------- variables and fresh values


@pytest.mark.parametrize("leaf, fields", [
    (Var("X", "Name"), ("X", "Name")),
    (Var("%W0"), ("%W0", "Msg")),
    (FreshConst(3, "n"), (3, "n")),
    (FreshConst(0), (0, "r")),
])
def test_leaves_hash_as_their_field_pairs(leaf, fields):
    # the hash of the field pair, as the frozen dataclasses had, so set
    # and dict orders under a given hash seed stay as they were
    assert hash(leaf) == hash(fields)


def test_leaves_with_equal_fields_are_equal():
    assert Var("X", "Name") == Var("X", "Name")
    assert Var("X", "Name") is not Var("X", "Name")
    assert Var("X", "Name") != Var("X", "Msg")
    assert Var("X") != Var("Y")
    assert FreshConst(2, "n") == FreshConst(2, "n")
    assert FreshConst(2, "n") != FreshConst(2, "r")
    assert FreshConst(2) != FreshConst(3)
    assert FreshConst(2).sort == "Fresh"
    # no kind of leaf equals another kind, or a tuple of its fields
    assert Var("X") != const("X")
    assert FreshConst(1) != Var("r!1", "Fresh")
    assert Var("X", "Msg") != ("X", "Msg")
    assert len({Var("X"), Var("X"), FreshConst(1), FreshConst(1)}) == 2


@pytest.mark.parametrize("leaf, name", [(Var("X"), "name"),
                                        (Var("X"), "sort"),
                                        (FreshConst(1), "ident"),
                                        (FreshConst(1), "hint")])
def test_leaves_are_immutable(leaf, name):
    with pytest.raises(AttributeError):
        setattr(leaf, name, "other")
    with pytest.raises(AttributeError):
        leaf.extra = 1
    with pytest.raises(AttributeError):
        delattr(leaf, name)


def test_leaf_copies_and_pickles_are_equal():
    import copy
    import pickle

    for leaf in (Var("X", "Name"), FreshConst(4, "n")):
        for back in (copy.copy(leaf), copy.deepcopy(leaf),
                     pickle.loads(pickle.dumps(leaf))):
            assert back == leaf and hash(back) == hash(leaf)
            assert type(back) is type(leaf)


def test_intern_table_drops_dead_nodes():
    import gc

    from strandkit import terms

    gc.collect()
    before = len(terms._interned)
    t = App("%only-here", (App("%only-here-too", (Var("X"),)),))
    assert len(terms._interned) == before + 2
    del t
    gc.collect()
    assert len(terms._interned) == before
