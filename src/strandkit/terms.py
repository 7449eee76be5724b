"""Order-sorted terms, signatures, positions and substitutions.

Terms come in three shapes: named variables with a sort, fresh constants
(nonce seeds minted once per strand instance, never substituted for), and
operator applications.  Every application carries the result sort computed
when it was built, so least-sort lookup never needs the signature again.
Applications are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): building one returns the live node with the same
operator, arguments and sort if there is one, so equal applications are
the same object and a substitution shares every subterm it leaves alone.
So `==` is the one equality of terms, and sets and dicts of terms need no
other key:
- applications compare by identity and hash by (op, args, sort), computed
  once per node;
- variables compare by name and sort, fresh constants by number and hint,
  each after an identity test, and each hashes by that pair, computed
  once per object.
Variables and fresh constants are not interned.  The renamings that
number leaves (`%W0`, `c!0`, ...) take them from their theory's table of
canonical leaves, so renamed copies share their leaves too and compare by
identity all the way down.  `term_key` only orders terms.
"""
from __future__ import annotations

import weakref
from typing import Iterator, Mapping, Optional, Sequence, Union

MSG = "Msg"
FRESH = "Fresh"


class IllTyped(Exception):
    """A term does not respect the declared operator profiles."""


class SortClash(Exception):
    """A substitution binds a variable to a term of an incompatible sort."""


class InvalidPosition(Exception):
    """A position does not exist in the term it is applied to."""


class SignatureClash(Exception):
    """Two signatures declare the same operator with different profiles."""


class _Leaf:
    """A variable or a fresh constant: two fields, set at construction,
    that decide equality and give the hash, computed once as the hash of
    the pair.  Leaves are not interned: the renamings that number leaves
    (`theory.canonical_leaf`) hand out one shared object per name, so
    their copies compare by identity."""

    __slots__ = ("_hash",)
    closed = False

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"terms are immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"terms are immutable: cannot delete {name}")


class Var(_Leaf):
    """A named variable of a sort, equal to another of the same name and
    sort."""

    __slots__ = ("name", "sort")
    __hash__ = _Leaf.__hash__  # defining __eq__ would unset it

    def __init__(self, name: str, sort: str = MSG) -> None:
        init = object.__setattr__
        init(self, "name", name)
        init(self, "sort", sort)
        init(self, "_hash", hash((name, sort)))

    def __eq__(self, other):
        return self is other or other.__class__ is Var and \
            self.name == other.name and self.sort == other.sort

    def __reduce__(self):
        return (Var, (self.name, self.sort))

    def __repr__(self) -> str:
        return f"{self.name}:{self.sort}"


class FreshConst(_Leaf):
    """A fresh value minted for one strand instance, equal to another of
    the same number and hint.

    Fresh constants behave like free constants: they unify only with
    themselves and with variables, and no substitution ever replaces them.
    """

    __slots__ = ("ident", "hint")
    __hash__ = _Leaf.__hash__
    sort = FRESH

    def __init__(self, ident: int, hint: str = "r") -> None:
        init = object.__setattr__
        init(self, "ident", ident)
        init(self, "hint", hint)
        init(self, "_hash", hash((ident, hint)))

    def __eq__(self, other):
        return self is other or other.__class__ is FreshConst and \
            self.ident == other.ident and self.hint == other.hint

    def __reduce__(self):
        return (FreshConst, (self.ident, self.hint))

    def __repr__(self) -> str:
        return f"{self.hint}!{self.ident}"


class App:
    """An operator application, hash-consed: at most one live node exists
    per distinct (op, args, sort), so equality is identity and the hash is
    computed once.  Nodes are immutable and shared between every term that
    contains them.

    A node is `closed` when no variable or fresh constant occurs in it.
    Its `term_key`, `skeleton` and `leaves` are computed on first use and
    kept; a closed node keeps only the first.  `_canon` and `_norm` keep
    its canonical and normal form under one theory (`theory.canon`,
    `theory.normalize`): the theory alone when the node is its own form,
    else the pair (theory, form).  So a form lives as long as its node."""

    __slots__ = ("op", "args", "sort", "closed", "_hash", "_key", "_skel",
                 "_leaves", "_canon", "_norm", "__weakref__")

    def __new__(cls, op: str, args: tuple = (), sort: str = MSG) -> "App":
        ident = (op, args, sort)
        # the table's own dict, read without the method-call cost of
        # WeakValueDictionary.get; a dead reference reads as a miss
        ref = _interned.data.get(ident)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            init = object.__setattr__
            init(node, "op", op)
            init(node, "args", args)
            init(node, "sort", sort)
            init(node, "closed", all(a.closed for a in args))
            init(node, "_hash", hash(ident))
            init(node, "_key", None)
            init(node, "_skel", None)
            init(node, "_leaves", None)
            init(node, "_canon", None)
            init(node, "_norm", None)
            _interned[ident] = node
        return node

    def __hash__(self) -> int:
        return self._hash

    # equality stays object identity, which interning makes structural

    def __setattr__(self, name, value):
        raise AttributeError(f"App nodes are immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"App nodes are immutable: cannot delete {name}")

    def __reduce__(self):
        # copies and unpickled nodes come back through the intern table
        return (App, (self.op, self.args, self.sort))

    def __repr__(self) -> str:
        if not self.args:
            return self.op
        return f"{self.op}({', '.join(map(repr, self.args))})"


# (op, args, sort) -> its node; an entry goes when the last reference to
# its node does, so the table holds only live terms
_interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

Term = Union[Var, FreshConst, App]
Position = tuple


def const(name: str, sort: str = MSG) -> App:
    return App(name, (), sort)


def least_sort(t: Term) -> str:
    return t.sort


def is_ground(t: Term) -> bool:
    return not any(x.__class__ is Var for x in leaves(t))


def variables(t) -> set:
    """All variables occurring in a term (or tuple or list of terms)."""
    return {x for x in _all_leaves(t) if x.__class__ is Var}


def fresh_constants(t) -> set:
    """All fresh constants occurring in a term (or tuple or list of terms)."""
    return {x for x in _all_leaves(t) if x.__class__ is FreshConst}


def _all_leaves(t):
    """The cached `leaves` of a term, or of each term of a (nested) tuple
    or list, in order."""
    if isinstance(t, (tuple, list)):
        return [x for a in t for x in _all_leaves(a)]
    if isinstance(t, (App, Var, FreshConst)):
        return leaves(t)
    return ()


def positions(t: Term) -> Iterator[Position]:
    """All positions of t, root first, in left-to-right order."""
    yield ()
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            for p in positions(a):
                yield (i,) + p


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if not isinstance(t, App) or i >= len(t.args):
            raise InvalidPosition(f"no position {pos}")
        t = t.args[i]
    return t


def replace_at(t: Term, pos: Position, u: Term) -> Term:
    if not pos:
        return u
    if not isinstance(t, App) or pos[0] >= len(t.args):
        raise InvalidPosition(f"no position {pos}")
    i = pos[0]
    args = t.args[:i] + (replace_at(t.args[i], pos[1:], u),) + t.args[i + 1 :]
    return App(t.op, args, t.sort)


def term_key(t: Term):
    """Total order key: variables < fresh constants < applications.  It
    only orders terms; two terms are equal when `==` says so: identity for
    applications, name and sort for variables, number and hint for fresh
    constants."""
    if isinstance(t, Var):
        return (0, t.name, t.sort)
    if isinstance(t, FreshConst):
        return (1, t.ident, t.hint)
    k = t._key
    if k is None:
        k = (2, t.op, len(t.args)) + tuple(term_key(a) for a in t.args)
        object.__setattr__(t, "_key", k)
    return k


_FRESH_SKELETON = (1, "#")


def skeleton(t: Term):
    """`term_key` with every variable written as (0, "?", sort) and every
    fresh constant as (1, "#"): the shape of t, whatever its leaves."""
    if isinstance(t, App):
        if t.closed:
            return term_key(t)
        k = t._skel
        if k is None:
            k = (2, t.op, len(t.args)) + tuple([skeleton(a) for a in t.args])
            object.__setattr__(t, "_skel", k)
        return k
    if isinstance(t, Var):
        return (0, "?", t.sort)
    return _FRESH_SKELETON


def leaves(t: Term) -> tuple:
    """The variables and fresh constants of t in preorder, each occurrence
    once: with `skeleton(t)` they give t back."""
    if isinstance(t, App):
        if t.closed:
            return ()
        got = t._leaves
        if got is None:
            got = tuple([x for a in t.args for x in leaves(a)])
            object.__setattr__(t, "_leaves", got)
        return got
    return (t,)


def term_size(t: Term) -> int:
    if isinstance(t, App):
        return 1 + sum(term_size(a) for a in t.args)
    return 1


class Signature:
    """Sorts with a subsort partial order, plus operator declarations.

    Operators are keyed by (name, arity) so a role name can serve both as a
    constant announcement and as a unary tag constructor.
    """

    def __init__(self) -> None:
        self.sorts: set = {MSG, FRESH}
        self._direct: dict = {}  # sort -> set of direct supersorts
        self.ops: dict = {}  # (name, arity) -> (argsorts, result)
        self._closure: Optional[dict] = None

    def copy(self) -> "Signature":
        sig = Signature()
        sig.sorts = set(self.sorts)
        sig._direct = {k: set(v) for k, v in self._direct.items()}
        sig.ops = dict(self.ops)
        return sig

    def add_sort(self, s: str) -> None:
        self.sorts.add(s)
        self._closure = None

    def add_subsort(self, sub: str, sup: str) -> None:
        self.sorts.add(sub)
        self.sorts.add(sup)
        self._direct.setdefault(sub, set()).add(sup)
        self._closure = None
        if self.leq(sup, sub) and sub != sup:
            raise SortClash(f"subsort cycle between {sub} and {sup}")

    def supersorts(self, s: str) -> set:
        if self._closure is None:
            self._closure = {}
        if s not in self._closure:
            seen = {s}
            stack = [s]
            while stack:
                cur = stack.pop()
                for sup in self._direct.get(cur, ()):
                    if sup not in seen:
                        seen.add(sup)
                        stack.append(sup)
            self._closure[s] = seen
        return self._closure[s]

    def leq(self, s1: str, s2: str) -> bool:
        return s2 in self.supersorts(s1)

    def declare_op(self, name: str, argsorts: Sequence[str], result: str) -> None:
        key = (name, len(argsorts))
        profile = (tuple(argsorts), result)
        if key in self.ops and self.ops[key] != profile:
            raise SignatureClash(
                f"operator {name}/{len(argsorts)} redeclared with a different profile"
            )
        for s in list(argsorts) + [result]:
            if s not in self.sorts:
                raise IllTyped(f"unknown sort {s} in declaration of {name}")
        self.ops[key] = profile

    def has_op(self, name: str, arity: int) -> bool:
        return (name, arity) in self.ops

    def result_sort(self, name: str, arity: int) -> str:
        return self.ops[(name, arity)][1]

    def make(self, name: str, *args: Term) -> App:
        key = (name, len(args))
        if key not in self.ops:
            raise IllTyped(f"unknown operator {name}/{len(args)}")
        argsorts, result = self.ops[key]
        for a, s in zip(args, argsorts):
            if not self.leq(least_sort(a), s):
                raise IllTyped(
                    f"argument {a!r} of {name} has sort {least_sort(a)}, needs {s}"
                )
        return App(name, tuple(args), result)

    def check_term(self, t: Term) -> None:
        """Raise IllTyped if t uses undeclared operators or breaks profiles.

        Flattened associative applications (arity above the declared 2) are
        accepted: each argument is checked against the binary profile.
        """
        if isinstance(t, (Var, FreshConst)):
            if isinstance(t, Var) and t.sort not in self.sorts:
                raise IllTyped(f"variable {t!r} has unknown sort {t.sort}")
            return
        key = (t.op, len(t.args))
        if key not in self.ops and len(t.args) > 2 and (t.op, 2) in self.ops:
            argsorts, result = self.ops[(t.op, 2)]
            for a in t.args:
                self.check_term(a)
                if not self.leq(least_sort(a), argsorts[0]):
                    raise IllTyped(f"argument {a!r} of flattened {t.op} ill-sorted")
            return
        if key not in self.ops:
            raise IllTyped(f"unknown operator {t.op}/{len(t.args)}")
        argsorts, result = self.ops[key]
        for a, s in zip(t.args, argsorts):
            self.check_term(a)
            if not self.leq(least_sort(a), s):
                raise IllTyped(
                    f"argument {a!r} of {t.op} has sort {least_sort(a)}, needs {s}"
                )
        if t.sort != result:
            raise IllTyped(f"{t!r} carries sort {t.sort}, declared result is {result}")

    def merge(self, other: "Signature") -> "Signature":
        out = self.copy()
        out.sorts |= other.sorts
        for sub, sups in other._direct.items():
            for sup in sups:
                out.add_subsort(sub, sup)
        for (name, arity), profile in other.ops.items():
            out.declare_op(name, profile[0], profile[1])
        return out


class Subst(Mapping):
    """An idempotent, sort-preserving substitution on variables."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Optional[Mapping] = None, _trusted: bool = False):
        m = {v: t for v, t in (mapping or {}).items() if v != t}
        if not _trusted:
            for v, t in m.items():
                if not isinstance(v, Var):
                    raise SortClash(f"substitution domain must be variables, got {v!r}")
            # Make idempotent: substitute the map into its own ranges until no
            # domain variable remains in a range.  A cycle means the map was
            # not a valid idempotent substitution; one through a variable
            # image never ends the recursion of `_apply`.
            try:
                for _ in range(len(m) + 1):
                    dirty = False
                    for v in list(m):
                        new = _apply(m, m[v])
                        if new != m[v]:
                            m[v] = new
                            dirty = True
                    if not dirty:
                        break
                else:
                    raise SortClash("cyclic substitution")
            except RecursionError:
                raise SortClash("cyclic substitution") from None
            for v in list(m):
                if v == m[v]:
                    del m[v]
            for v, t in m.items():
                if v in variables(t):
                    raise SortClash(f"occurs violation binding {v!r}")
        self._map = m

    def __getitem__(self, v):
        return self._map[v]

    def __iter__(self):
        return iter(self._map)

    def __len__(self):
        return len(self._map)

    def __call__(self, t):
        return _apply(self._map, t)

    def __repr__(self) -> str:
        items = sorted(self._map.items(), key=lambda kv: kv[0].name)
        return "{" + ", ".join(f"{v.name} -> {t!r}" for v, t in items) + "}"

    def is_identity(self) -> bool:
        return not self._map

    def compose(self, other: "Subst") -> "Subst":
        """Return the substitution equivalent to applying self, then other."""
        m = {v: other(t) for v, t in self._map.items()}
        for v, t in other._map.items():
            if v not in m:
                m[v] = t
        return Subst(m)


IDENTITY = Subst()


def _apply(m: Mapping, t):
    """t with the map m applied; m maps variables, and fresh constants, to
    terms.  A binding to another bound variable is followed, as the
    triangular maps of `unify._solve` need; a variable bound to itself, as
    `theory.match_ax` leaves a free one, stays as it is."""
    if not m:
        return t
    if isinstance(t, App):
        # a subterm none of whose leaves is bound is returned as it is
        if t.closed or m.keys().isdisjoint(leaves(t)):
            return t
        args = t.args
        new = tuple([_apply(m, a) for a in args])
        # an unchanged term is returned, not rebuilt, so it stays shared
        return t if new == args else App(t.op, new, t.sort)
    if isinstance(t, (Var, FreshConst)):
        got = m.get(t)
        if got is None:
            return t
        return _apply(m, got) if isinstance(got, Var) and got in m and \
            got != t else got
    if isinstance(t, tuple):
        return tuple(_apply(m, a) for a in t)
    return t


def rename_all(obj, suffix: str):
    """Rename every variable of obj by appending a suffix; returns (obj', Subst)."""
    own = variables(obj)
    ren = {v: Var(f"{v.name}#{suffix}", v.sort) for v in own}
    s = Subst(ren, _trusted=True)
    return s(obj), s
