"""The .strand specification language: parser, printer and transforms.

A document holds protocol blocks (sorts, operators, equations, axioms,
variables, strand schemas), an optional composition relation over roles,
and attack-pattern blocks.  Three derived artifacts can be built from a
composed document: the abstract runtime view (parameter lists as-is), the
explicit synchronization view, and the parameter-passing rewrite that
turns parameter handover into ordinary signed messages.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

from .model import (
    MODE_ONE_ONE,
    IntruderFact,
    KNOWN,
    Minter,
    ParamList,
    SignedMessage,
    StrandInstance,
    StrandSchema,
    SymbolicState,
    SyncPoint,
    UnknownComposition,
    check_wellformed,
    children_of,
    item_terms,
    map_item,
    parents_of,
    sync_point,
    uniform_mode,
)
from .terms import (
    App,
    FRESH,
    MSG,
    IllTyped,
    Signature,
    SignatureClash,
    Subst,
    Var,
    const,
    fresh_constants,
    variables,
)
from .theory import AxiomDecl, EquationalTheory, IrregularRule, normalize
from .unify import Memo, unify_modulo

PARAM = "Param"
ROLE = "Role"
CONCAT = ";"
DOT = "."


@dataclass
class Diagnostic:
    line: int
    col: int
    code: str
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.code}: {self.message}"


class SpecError(Exception):
    def __init__(self, line: int, col: int, code: str, message: str):
        super().__init__(f"{line}:{col}: {code}: {message}")
        self.diagnostic = Diagnostic(line, col, code, message)


# ---------------------------------------------------------------- lexing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<mode>1-1|1-\*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*(\.[A-Za-z_][A-Za-z0-9_']*)*)
  | (?P<arrow>->)
  | (?P<neq>!=)
  | (?P<sym>[{}()\[\];,:=+\-*.<|])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'mode', or the symbol itself
    text: str
    line: int
    col: int


def tokenize(src: str) -> list:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise SpecError(line, col, "E001", f"unexpected character {src[i]!r}")
        text = m.group(0)
        kind = m.lastgroup
        if kind == "ident" and "." in text and not _DOTTED_OK.match(text):
            raise SpecError(line, col, "E001", f"bad identifier {text!r}")
        if kind not in ("ws", "comment"):
            if kind in ("sym", "arrow", "neq", "mode"):
                out.append(Token(text if kind == "sym" else kind, text, line, col))
            else:
                out.append(Token("ident", text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    out.append(Token("eof", "", line, col))
    return out


_DOTTED_OK = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*(\.[A-Za-z_][A-Za-z0-9_']*)*$")


# ---------------------------------------------------------------- AST

@dataclass
class ProtocolSpec:
    name: str
    signature: Signature
    theory: EquationalTheory
    vars: dict  # name -> Var
    schemas: dict  # role -> StrandSchema
    role_order: list = field(default_factory=list)


@dataclass
class AttackDef:
    name: str
    fresh_names: list  # shared across the pattern's strands
    strands: list  # (role, past items, future items)
    facts: list  # IntruderFact
    diseqs: list  # (Term, Term)


@dataclass
class Document:
    protocols: list
    triples: list  # (parent role, child role, mode)
    attacks: dict  # name -> AttackDef
    # the protocols' merged signature and theory, built on first use and
    # shared by every spec made from the document, so that they share the
    # theory's canonical leaves and the forms kept on term nodes as well
    _signature: Optional[Signature] = field(default=None, compare=False,
                                            repr=False)
    _theory: Optional[EquationalTheory] = field(default=None, compare=False,
                                                repr=False)

    def signature(self) -> Signature:
        """The signature of all protocols merged (raises SignatureClash)."""
        if self._signature is None:
            self._signature = _merged_signature(self.protocols)
        return self._signature

    def theory(self) -> EquationalTheory:
        """The theory of all protocols merged (raises IrregularRule)."""
        if self._theory is None:
            th = EquationalTheory()
            for proto in self.protocols:
                th = th.merge(proto.theory)
            self._theory = th
        return self._theory


def builtin_signature() -> Signature:
    sig = Signature()
    sig.declare_op(CONCAT, [MSG, MSG], MSG)
    return sig


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, tokens: list):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.next()
        if t.kind != kind:
            raise SpecError(t.line, t.col, "E002",
                            f"expected {what or kind}, got {t.text or 'end of file'!r}")
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)


class _Env:
    """Name resolution context for term parsing."""

    def __init__(self, sig: Signature, vars_: dict, fresh: dict):
        self.sig = sig
        self.vars = vars_  # name -> Var
        self.fresh = fresh  # name -> Var (sort Fresh)


def parse_document(src: str) -> Document:
    p = _Parser(tokenize(src))
    protocols: list = []
    triples: list = []
    attacks: dict = {}
    while not p.at("eof"):
        t = p.peek()
        if p.at("ident", "protocol"):
            protocols.append(_parse_protocol(p, protocols))
        elif p.at("ident", "composition"):
            p.next()
            triples.extend(_parse_composition(p))
        elif p.at("ident", "attack"):
            atk = _parse_attack(p, protocols)
            if atk.name in attacks:
                raise SpecError(t.line, t.col, "E010",
                                f"duplicate attack {atk.name}")
            attacks[atk.name] = atk
        else:
            raise SpecError(t.line, t.col, "E003",
                            f"expected protocol, composition or attack, got {t.text!r}")
    return Document(protocols, triples, attacks)


def _merged_env(protocols: list) -> _Env:
    return _Env(_merged_signature(protocols), _merged_vars(protocols), {})


def _merged_signature(protocols: list) -> Signature:
    sig = builtin_signature()
    for proto in protocols:
        sig = sig.merge(proto.signature)
    return sig


def _merged_vars(protocols: list) -> dict:
    vars_: dict = {}
    for proto in protocols:
        for name, v in proto.vars.items():
            if name in vars_ and vars_[name] != v:
                raise SpecError(0, 0, "E011",
                                f"variable {name} declared with two sorts")
            vars_[name] = v
    return vars_


def _parse_protocol(p: _Parser, previous: list) -> ProtocolSpec:
    p.expect("ident")  # 'protocol'
    name = p.expect("ident", "protocol name").text
    p.expect("{")
    sig = builtin_signature()
    # earlier protocol blocks stay visible so a later block can reuse sorts
    for prev in previous:
        sig = sig.merge(prev.signature)
    vars_: dict = {}
    for prev in previous:
        vars_.update(prev.vars)
    rules: list = []
    axioms: dict = {}
    schemas: dict = {}
    role_order: list = []
    pending_eqs: list = []
    while not p.at("}"):
        t = p.peek()
        kw = t.text
        if kw in ("sorts", "sort"):
            p.next()
            while p.at("ident"):
                sig.add_sort(p.next().text)
            p.expect(";")
        elif kw in ("subsort", "subsorts"):
            p.next()
            subs = []
            while p.at("ident"):
                subs.append(p.next().text)
            p.expect("<")
            sup = p.expect("ident", "supersort").text
            for s in subs:
                sig.add_subsort(s, sup)
            p.expect(";")
        elif kw == "op":
            p.next()
            opname = _parse_opname(p)
            p.expect(":")
            argsorts = []
            while p.at("ident"):
                argsorts.append(p.next().text)
            p.expect("arrow", "->")
            result = p.expect("ident", "result sort").text
            try:
                sig.declare_op(opname, argsorts, result)
            except (SignatureClash, IllTyped) as exc:
                raise SpecError(t.line, t.col, "E004", str(exc)) from exc
            p.expect(";")
        elif kw in ("var", "vars"):
            p.next()
            names = []
            while p.at("ident"):
                names.append(p.next().text)
            p.expect(":")
            sort = p.expect("ident", "sort").text
            for n in names:
                if n in vars_ and vars_[n].sort != sort:
                    raise SpecError(t.line, t.col, "E011",
                                    f"variable {n} redeclared with sort {sort}")
                vars_[n] = Var(n, sort)
            p.expect(";")
        elif kw == "eq":
            p.next()
            env = _Env(sig, vars_, {})
            lhs = _parse_term(p, env)
            p.expect("=")
            rhs = _parse_term(p, env)
            p.expect(";")
            pending_eqs.append((t, lhs, rhs))
        elif kw == "axiom":
            p.next()
            opname = _parse_opname(p)
            decl = {"assoc": False, "comm": False, "unit": None, "nilpotent": False}
            while not p.at(";"):
                attr = p.expect("ident", "axiom attribute").text
                if attr in ("assoc", "comm", "nilpotent"):
                    decl[attr] = True
                elif attr == "unit":
                    p.expect("(")
                    decl["unit"] = _parse_term(p, _Env(sig, vars_, {}))
                    p.expect(")")
                else:
                    raise SpecError(t.line, t.col, "E005",
                                    f"unknown axiom attribute {attr}")
            p.expect(";")
            try:
                axioms[opname] = AxiomDecl(**decl)
            except IrregularRule as exc:
                raise SpecError(t.line, t.col, "E005", str(exc)) from exc
        elif kw == "strand":
            p.next()
            role = p.expect("ident", "role name").text
            fresh_vars = []
            if p.at("ident", "fresh"):
                p.next()
                p.expect("(")
                while not p.at(")"):
                    fresh_vars.append(Var(p.expect("ident").text, FRESH))
                    if p.at(","):
                        p.next()
                p.expect(")")
            env = _Env(sig, vars_, {v.name: v for v in fresh_vars})
            p.expect("{")
            items = []
            while not p.at("}"):
                items.append(_parse_item(p, env))
                if p.at(";"):
                    p.next()
            p.expect("}")
            if role in schemas:
                raise SpecError(t.line, t.col, "E006", f"duplicate role {role}")
            fixed = []
            for it in items:
                if isinstance(it, SyncPoint):
                    if it.direction == "in" and not it.children:
                        it = replace(it, children=(role,))
                    elif it.direction == "out" and not it.parents:
                        it = replace(it, parents=(role,))
                fixed.append(it)
            schemas[role] = StrandSchema(role, tuple(fresh_vars), tuple(fixed))
            role_order.append(role)
        else:
            raise SpecError(t.line, t.col, "E003",
                            f"unexpected keyword {kw!r} in protocol block")
    p.expect("}")
    for (t, lhs, rhs) in pending_eqs:
        try:
            EquationalTheory(rules=((lhs, rhs),))
        except IrregularRule as exc:
            raise SpecError(t.line, t.col, "E007", str(exc)) from exc
        rules.append((lhs, rhs))
    theory = EquationalTheory(tuple(rules), tuple(sorted(axioms.items())))
    return ProtocolSpec(name, sig, theory, vars_, schemas, role_order)


def _parse_opname(p: _Parser) -> str:
    t = p.next()
    if t.kind in ("ident",) or t.text in ("*", ".", ";"):
        return t.text
    raise SpecError(t.line, t.col, "E004", f"bad operator name {t.text!r}")


def _parse_item(p: _Parser, env: _Env):
    t = p.peek()
    if t.text in ("+", "-"):
        p.next()
        p.expect("(")
        payload = _parse_term(p, env, allow_semi=True)
        p.expect(")")
        return SignedMessage(t.text, payload)
    if t.text in ("in", "out"):
        p.next()
        roles: list = []
        mode = None
        if p.at("ident", "from") or p.at("ident", "to"):
            p.next()
            while p.at("ident") and p.peek().text != "mode":
                roles.append(p.next().text)
            p.expect("ident", "mode")
            mode = p.expect("mode", "1-1 or 1-*").text
        p.expect("(")
        payload = [_parse_term(p, env)]
        while p.at(";"):
            p.next()
            payload.append(_parse_term(p, env))
        p.expect(")")
        if mode is None:
            return ParamList(t.text, tuple(payload))
        if t.text == "in":
            return SyncPoint("in", tuple(roles), (), mode, tuple(payload))
        return SyncPoint("out", (), tuple(roles), mode, tuple(payload))
    raise SpecError(t.line, t.col, "E008", f"expected strand item, got {t.text!r}")


def _parse_term(p: _Parser, env: _Env, allow_semi: bool = False):
    left = _parse_concat(p, env, allow_semi)
    if p.at("."):
        parts = [left]
        while p.at("."):
            p.next()
            parts.append(_parse_concat(p, env, allow_semi))
        return _fold_right(parts, DOT, p, env)
    return left


def _parse_concat(p: _Parser, env: _Env, allow_semi: bool):
    left = _parse_xor(p, env)
    if allow_semi and p.at(";"):
        parts = [left]
        while p.at(";"):
            p.next()
            parts.append(_parse_xor(p, env))
        return _fold_right(parts, CONCAT, p, env)
    return left


def _parse_xor(p: _Parser, env: _Env):
    left = _parse_primary(p, env)
    if p.at("*"):
        parts = [left]
        while p.at("*"):
            p.next()
            parts.append(_parse_primary(p, env))
        return _fold_left_ac(parts, "*", p, env)
    return left


def _fold_right(parts: list, op: str, p: _Parser, env: _Env):
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = _mk(op, (part, out), p, env)
    return out


def _fold_left_ac(parts: list, op: str, p: _Parser, env: _Env):
    out = parts[0]
    for part in parts[1:]:
        out = _mk(op, (out, part), p, env)
    return out


def _mk(op: str, args: tuple, p: _Parser, env: _Env):
    try:
        return env.sig.make(op, *args)
    except IllTyped as exc:
        t = p.peek()
        raise SpecError(t.line, t.col, "E009", str(exc)) from exc


def _parse_primary(p: _Parser, env: _Env):
    t = p.peek()
    if t.kind == "(":
        p.next()
        inner = _parse_term(p, env, allow_semi=True)
        p.expect(")")
        return inner
    name_tok = p.expect("ident", "a term")
    name = name_tok.text
    if p.at("("):
        p.next()
        args = []
        if not p.at(")"):
            args.append(_parse_term(p, env, allow_semi=True))
            while p.at(","):
                p.next()
                args.append(_parse_term(p, env, allow_semi=True))
        p.expect(")")
        return _mk(name, tuple(args), p, env)
    if name in env.fresh:
        return env.fresh[name]
    if name in env.vars:
        return env.vars[name]
    if env.sig.has_op(name, 0):
        return const(name, env.sig.result_sort(name, 0))
    raise SpecError(name_tok.line, name_tok.col, "E009",
                    f"unknown identifier {name!r}")


def parse_term(src: str, sig: Signature, vars_: Optional[dict] = None,
               fresh: Optional[dict] = None):
    """Parse a single term against a signature.

    `vars_` maps names to variables and `fresh` maps names to the terms
    standing in for fresh values (usually minted fresh constants).
    """
    p = _Parser(tokenize(src))
    env = _Env(sig, dict(vars_ or {}), dict(fresh or {}))
    t = _parse_term(p, env, allow_semi=True)
    tok = p.peek()
    if tok.kind != "eof":
        raise SpecError(tok.line, tok.col, "E003",
                        f"trailing input after term: {tok.text!r}")
    return t


def _parse_composition(p: _Parser) -> list:
    p.expect("{")
    triples = []
    while not p.at("}"):
        p.expect("(")
        parent = p.expect("ident", "parent role").text
        p.expect(",")
        child = p.expect("ident", "child role").text
        p.expect(",")
        mode = p.expect("mode", "1-1 or 1-*").text
        p.expect(")")
        triples.append((parent, child, mode))
        if p.at(";"):
            p.next()
    p.expect("}")
    return triples


def _parse_attack(p: _Parser, protocols: list) -> AttackDef:
    p.expect("ident")  # 'attack'
    name = p.expect("ident", "attack name").text
    p.expect("{")
    base = _merged_env(protocols)
    vars_ = dict(base.vars)
    fresh: dict = {}
    strands: list = []
    facts: list = []
    diseqs: list = []
    while not p.at("}"):
        t = p.peek()
        kw = t.text
        env = _Env(base.sig, vars_, fresh)
        if kw in ("var", "vars"):
            p.next()
            names = []
            while p.at("ident"):
                names.append(p.next().text)
            p.expect(":")
            sort = p.expect("ident").text
            for n in names:
                vars_[n] = Var(n, sort)
            p.expect(";")
        elif kw == "fresh":
            p.next()
            while p.at("ident"):
                n = p.next().text
                fresh[n] = Var(n, FRESH)
            p.expect(";")
        elif kw == "strand":
            p.next()
            role = p.expect("ident", "role name").text
            p.expect("ident", "past")
            past = _parse_item_list(p, env)
            p.expect("ident", "future")
            future = _parse_item_list(p, env)
            p.expect(";")
            strands.append((role, tuple(past), tuple(future)))
        elif kw == "knows":
            p.next()
            facts.append(IntruderFact(KNOWN, _parse_term(p, env)))
            p.expect(";")
        elif kw == "constraint":
            p.next()
            lhs = _parse_term(p, env)
            p.expect("neq", "!=")
            rhs = _parse_term(p, env)
            diseqs.append((lhs, rhs))
            p.expect(";")
        else:
            raise SpecError(t.line, t.col, "E003",
                            f"unexpected keyword {kw!r} in attack block")
    p.expect("}")
    return AttackDef(name, sorted(fresh), strands, facts, diseqs)


def _parse_item_list(p: _Parser, env: _Env) -> list:
    p.expect("(")
    items = []
    while not p.at(")"):
        items.append(_parse_item(p, env))
        if p.at(";"):
            p.next()
    p.expect(")")
    return items


# ---------------------------------------------------------------- printing

def print_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if not isinstance(t, App):
        return repr(t)
    if t.op in (CONCAT, DOT) and len(t.args) == 2:
        parts = []
        cur = t
        while isinstance(cur, App) and cur.op == t.op and len(cur.args) == 2:
            parts.append(cur.args[0])
            cur = cur.args[1]
        parts.append(cur)
        sep = f" {t.op} "
        return "(" + sep.join(print_term(a) for a in parts) + ")"
    if t.op == "*" and len(t.args) >= 2:
        return "(" + " * ".join(print_term(a) for a in t.args) + ")"
    if not t.args:
        return t.op
    return f"{t.op}({', '.join(print_term(a) for a in t.args)})"


def print_item(item) -> str:
    if isinstance(item, SignedMessage):
        body = print_term(item.payload)
        if body.startswith("(") and body.endswith(")"):
            return f"{item.polarity}{body}"
        return f"{item.polarity}({body})"
    payload = " ; ".join(print_term(t) for t in item.payload)
    if isinstance(item, ParamList):
        return f"{item.direction} ({payload})"
    if item.direction == "in":
        return f"in from {' '.join(item.parents)} mode {item.mode} ({payload})"
    return f"out to {' '.join(item.children)} mode {item.mode} ({payload})"


def print_protocol(spec: ProtocolSpec, base: Optional[Signature] = None) -> str:
    """Deterministic rendering of a protocol; parsing it back reproduces
    the same structure."""
    if base is None:
        base = builtin_signature()
    lines = [f"protocol {spec.name} {{"]
    for s in sorted(spec.signature.sorts - base.sorts):
        lines.append(f"  sorts {s} ;")
    subs = []
    for s in sorted(spec.signature.sorts):
        for sup in sorted(spec.signature.supersorts(s)):
            if sup != s and sup in spec.signature._direct.get(s, ()):
                subs.append(f"  subsort {s} < {sup} ;")
    lines.extend(sorted(subs))
    for (opname, arity), (argsorts, result) in sorted(spec.signature.ops.items()):
        if base.has_op(opname, arity):
            continue
        args = " ".join(argsorts)
        args = args + " " if args else ""
        lines.append(f"  op {opname} : {args}-> {result} ;")
    for opname, decl in sorted(spec.theory.axioms):
        lines.append(f"  axiom {opname} assoc comm unit({print_term(decl.unit)})"
                     " nilpotent ;")
    used = set()
    for sch in spec.schemas.values():
        for it in sch.items:
            for t in item_terms(it):
                used |= variables(t)
    by_sort: dict = {}
    for v in sorted(spec.vars.values(), key=lambda v: v.name):
        if v in used:
            by_sort.setdefault(v.sort, []).append(v.name)
    for sort in sorted(by_sort):
        lines.append(f"  vars {' '.join(by_sort[sort])} : {sort} ;")
    for lhs, rhs in spec.theory.rules:
        lines.append(f"  eq {print_term(lhs)} = {print_term(rhs)} ;")
    for role in spec.role_order:
        sch = spec.schemas[role]
        head = f"  strand {role}"
        if sch.fresh:
            head += f" fresh({', '.join(v.name for v in sch.fresh)})"
        lines.append(head + " {")
        for it in sch.items:
            lines.append(f"    {print_item(it)} ;")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- composition checks

def validate_composition(doc: Document) -> list:
    """Diagnostics for a composed document; empty means valid."""
    diags: list = []

    def diag(code, msg):
        diags.append(Diagnostic(0, 0, code, msg))

    try:
        sig = doc.signature()
        _merged_vars(doc.protocols)
    except (SignatureClash, SpecError) as exc:
        diag("E020", f"signature clash: {exc}")
        return diags
    try:
        th = doc.theory()
    except IrregularRule as exc:
        diag("E021", f"theory clash: {exc}")
        return diags
    schemas: dict = {}
    for proto in doc.protocols:
        for role, sch in proto.schemas.items():
            if role in schemas:
                diag("E022", f"role {role} defined in two protocols")
            schemas[role] = sch
    memo = Memo()
    for (parent, child, mode) in doc.triples:
        if parent not in schemas:
            diag("E023", f"unknown parent role {parent}")
            continue
        if child not in schemas:
            diag("E023", f"unknown child role {child}")
            continue
        out_item = schemas[parent].output_item
        in_item = schemas[child].input_item
        if out_item is None:
            diag("E024", f"parent {parent} has no output parameters")
            continue
        if in_item is None:
            diag("E024", f"child {child} has no input parameters")
            continue
        if len(out_item.payload) != len(in_item.payload):
            diag("E025", f"{parent} -> {child}: parameter lists differ in length")
            continue
        # at least one matcher must make the child's inputs an instance
        # of what the parent provides
        from .terms import rename_all

        out_t = App("%tup", tuple(out_item.payload), MSG)
        in_t = App("%tup", tuple(in_item.payload), MSG)
        in_t, _ = rename_all(in_t, "c")
        if not unify_modulo(out_t, in_t, th, sig.leq, memo):
            diag("E026", f"{parent} -> {child}: no parameter matcher exists")
    for side, idx in (("parent", 0), ("child", 1)):
        modes: dict = {}
        for tr in doc.triples:
            modes.setdefault(tr[idx], set()).add(tr[2])
        for role, ms in modes.items():
            if len(ms) > 1:
                diag("E027", f"role {role} is composed under two different modes")
    triple_parents = {tr[0] for tr in doc.triples}
    triple_children = {tr[1] for tr in doc.triples}
    # with no composition at all, parameter interfaces are inert
    # bookkeeping rather than dangling handovers
    for role, sch in (schemas.items() if doc.triples else ()):
        if sch.output_item is not None and isinstance(sch.output_item, ParamList) \
                and role not in triple_parents:
            diag("E028", f"role {role} outputs parameters but is never a parent")
        if sch.input_item is not None and isinstance(sch.input_item, ParamList) \
                and role not in triple_children:
            diag("E028", f"role {role} expects parameters but is never a child")
    for proto in doc.protocols:
        for sch in proto.schemas.values():
            diags.extend(Diagnostic(0, 0, "E029", msg)
                         for msg in check_wellformed(sch, sig, th))
    return diags


def merge_protocols(doc: Document, name: str) -> ProtocolSpec:
    sig = doc.signature()
    vars_: dict = {}
    schemas: dict = {}
    order: list = []
    for proto in doc.protocols:
        vars_.update(proto.vars)
        for role in proto.role_order:
            if role in schemas:
                raise SpecError(0, 0, "E022", f"role {role} defined twice")
            schemas[role] = proto.schemas[role]
            order.append(role)
    return ProtocolSpec(name, sig, doc.theory(), vars_, schemas, order)


def synch_transform(doc: Document) -> ProtocolSpec:
    """Replace parameter lists by explicit synchronization points.

    A parent's output names every child role it may hand over to; a
    child's input names every possible parent.  Modes come from the
    composition relation, which must give each role one mode as parent
    and one as child.
    """
    merged = merge_protocols(doc, "_".join(p.name for p in doc.protocols) + "_sync")
    schemas: dict = {}
    for role, sch in merged.schemas.items():
        items = tuple(sync_point(role, it, doc.triples) for it in sch.items)
        schemas[role] = StrandSchema(role, sch.fresh, items)
    return ProtocolSpec(merged.name, merged.signature, merged.theory,
                        merged.vars, schemas, merged.role_order)


def phi_transform(doc: Document) -> ProtocolSpec:
    """Compile composition into ordinary message exchanges.

    Parameter handover becomes signed messages of sort Param built with a
    dot concatenation, tagged by role announcements carrying a fresh
    composition identifier.  The new sorts sit outside Msg's constructor
    set, so the intruder can relay but never forge a handover.
    """
    merged = merge_protocols(doc, "_".join(p.name for p in doc.protocols) + "_pt")
    sig = merged.signature.copy()
    sig.add_sort(PARAM)
    sig.add_sort(ROLE)
    sig.add_subsort(MSG, PARAM)
    sig.add_subsort(ROLE, PARAM)
    sig.declare_op(DOT, [PARAM, PARAM], PARAM)
    for role in merged.schemas:
        sig.declare_op(role, [], ROLE)
        sig.declare_op(role, [FRESH], ROLE)
    vars_ = dict(merged.vars)

    def dotted(tag, payload):
        # right-associated chain: tag . p1 . p2 ... pn
        terms = [tag] + list(payload)
        acc = terms[-1]
        for t in reversed(terms[:-1]):
            acc = App(DOT, (t, acc), PARAM)
        return acc

    schemas: dict = {}
    for role in merged.role_order:
        sch = merged.schemas[role]
        fresh = list(sch.fresh)
        pre: list = []
        post: list = []
        body = [it for it in sch.items if isinstance(it, SignedMessage)]
        in_item = sch.input_item
        out_item = sch.output_item
        announce = True
        if in_item is not None:
            parents = parents_of(doc.triples, role)
            if not parents:
                raise UnknownComposition(f"{role} has no parent in the "
                                         "composition relation")
            mode = uniform_mode(doc.triples, role, "in")
            if mode == MODE_ONE_ONE:
                if len(parents) != 1:
                    raise UnknownComposition(
                        f"{role}: one-to-one input with several possible "
                        "parents is not supported")
                rc = _fresh_var(fresh, vars_, "rc")
                fresh.append(rc)
                tag_self = sig.make(role, rc)
                tag_parent = sig.make(parents[0], rc)
                pre.append(SignedMessage("+", tag_self))
                pre.append(SignedMessage("-", dotted(tag_parent, in_item.payload)))
                announce = False
            else:
                if len(parents) == 1:
                    rv = _fresh_msg_var(vars_, "RF", FRESH)
                    tag = sig.make(parents[0], rv)
                else:
                    tag = _fresh_msg_var(vars_, "RO", ROLE)
                pre.append(SignedMessage("-", dotted(tag, in_item.payload)))
        if out_item is not None:
            children = children_of(doc.triples, role)
            if not children:
                raise UnknownComposition(f"{role} has no child in the "
                                         "composition relation")
            mode = uniform_mode(doc.triples, role, "out")
            if mode == MODE_ONE_ONE:
                # the child mints the identifier; the parent receives it
                if len(children) != 1:
                    raise UnknownComposition(
                        f"{role}: one-to-one output with several possible "
                        "children is not supported")
                rc = _fresh_msg_var(vars_, "rc", FRESH)
                post.append(SignedMessage("-", sig.make(children[0], rc)))
            else:
                rc = _fresh_var(fresh, vars_, "rc")
                fresh.append(rc)
            tag_self = sig.make(role, rc)
            post.append(SignedMessage("+", dotted(tag_self, out_item.payload)))
        items = list(pre) + body + post
        if announce:
            items.insert(0, SignedMessage("+", sig.make(role)))
        schemas[role] = StrandSchema(role, tuple(fresh), tuple(items))
    name = merged.name
    return ProtocolSpec(name, sig, merged.theory, vars_, schemas,
                        merged.role_order)


def _fresh_var(existing: list, vars_: dict, base: str) -> Var:
    names = {v.name for v in existing}
    name = base
    k = 1
    while name in names or name in vars_:
        k += 1
        name = f"{base}{k}"
    return Var(name, FRESH)


def _fresh_msg_var(vars_: dict, base: str, sort: str) -> Var:
    name = base
    k = 1
    while name in vars_ and vars_[name].sort != sort:
        k += 1
        name = f"{base}{k}"
    vars_[name] = Var(name, sort)
    return vars_[name]


# ---------------------------------------------------------- attack states

def attack_state(doc: Document, attack_name: str, spec: ProtocolSpec,
                 minter: Minter) -> SymbolicState:
    """Build the symbolic pattern state an analysis starts from, with
    parameter lists where the role's schema in spec has them."""
    if attack_name not in doc.attacks:
        raise KeyError(f"no attack named {attack_name}")
    atk = doc.attacks[attack_name]
    th = spec.theory
    fresh_map = {Var(n, FRESH): minter.fresh(n) for n in atk.fresh_names}
    s = Subst(fresh_map, _trusted=True)
    strands = []
    for (role, past, future) in atk.strands:
        if role not in spec.schemas:
            raise SpecError(0, 0, "E030", f"attack strand role {role} unknown")
        params = {it.direction for it in spec.schemas[role].items
                  if isinstance(it, ParamList)}
        items = []
        for it in past + future:
            it = map_item(it, lambda t: normalize(s(t), th))
            if isinstance(it, SyncPoint):
                # the parsed form omits the strand's own role
                if it.direction in params:
                    it = ParamList(it.direction, it.payload)
                elif it.direction == "in" and not it.children:
                    it = replace(it, children=(role,))
                elif it.direction == "out" and not it.parents:
                    it = replace(it, parents=(role,))
            items.append(it)
        items = tuple(items)
        own = tuple(sorted({f for f in fresh_map.values()
                            if any(f in fresh_constants(t) for it in items
                                   for t in item_terms(it))},
                           key=lambda f: f.ident))
        strands.append(StrandInstance(role, items, len(past), own))
    facts = tuple(IntruderFact(f.kind, normalize(s(f.payload), th))
                  for f in atk.facts)
    diseqs = tuple((normalize(s(l), th), normalize(s(r), th))
                   for (l, r) in atk.diseqs)
    return SymbolicState(tuple(strands), facts, diseqs, 0)
