"""Grammars of terms the intruder cannot know yet (Maude-NPA style).

The language of a state is built on its `to_be_learned` facts, terms the
intruder does not know at that point.  A term is in the language along a
derivation path that leads from its root down to one of those facts:

- through argument `j` of a free operator `f` (production `(f, j)`), when
  the term is rigid, that is, no instance of it is rewritten at its root;
- through an atom of an exclusive-or sum whose atoms are rigid, distinct
  and not variables.

Each production and the atoms of sums carry exceptions, a pattern with the
paths it applies to (one path, a path and all its extensions, or only the
strict extensions): a term unifying with the pattern is not in the language
along those paths.  A term a production puts into the language must also
avoid the atom exceptions, so that it stays a witness inside any sum.

Productions are seeded from the signature, one per argument of every free
operator, and refined against every send of every role, honest and
intruder alike, a child role taking the parameters each parent hands over.
Wherever a send can produce a term of a production, or an atom of a sum,
along some path without having received a term of the language first, the
produced shape becomes an exception for that path.  A send that only sums
messages it received needs none: every atom of its result is an atom of one
of them.

Each exception list is kept minimal: an exception an entry of its list
already covers (a more general pattern on a superset of its paths) is not
added, and a new exception drops the entries it covers.  A dropped entry
changes no answer: a term unifying with it unifies with the new entry by
a more general unifier, on a superset of its paths.  Each list carries a
version, bumped on every change.

Refinement is a worklist over tasks, one per (production, send) pair and
one per send for the atoms, taken round by round in a fixed order until a
round adds nothing.  A task records the exception lists it read (the
production lists and the atom list its derivations consulted, and its own
list) and their versions when it ended.  A task whose last run added
nothing is skipped until one of those lists has changed: run again, it
would read the same lists and add nothing again.  The cases of a send,
the ways its irreducible instances produce a term of a generator, are
computed once per (generator, send), and matching and unification
problems that recur on them are memoized for the closure only.

At the fixpoint the language is closed: the intruder learns one of its
terms only by having known another before.  A backward path to an initial
state can always be taken so that no term is learned twice, and along such
a path a state that demands a term of the language, or holds a strand that
already received one, has a predecessor that does too; an initial state
has none.  So such a state can be dropped, and so can one where an atom
of the sum of two of its demands lies in the language, since that atom is
an atom of one of them.  Membership is stable under instantiation, so
this holds for every instance of a symbolic state; where a term could be
rewritten in an instance, the check is made on each variant instead.
"""
from __future__ import annotations

import time

from .model import SignedMessage, map_item
from .semantics import _interface, _parent_roles
from .terms import (
    App,
    FRESH,
    Subst,
    Var,
    _apply,
    is_ground,
    term_key,
    tup,
    variables,
)
from .theory import _Budget, canon, normalize, rigid
from .unify import (
    Memo,
    match_modulo,
    side_variants,
    unify_canonical,
    unify_modulo,
)

# path step into an atom of an exclusive-or sum
ATOM = -1
# refinement rounds before the closure raises StepBudgetExceeded
_MAX_ROUNDS = 20
# the generator of the atoms of sums: any message
_ANY = Var("%S", "Msg")
# the paths an exception covers: its own, that and every extension of it,
# or the strict extensions only
EXACT, OPEN, BELOW = 0, 1, 2


class Grammar:
    """Closed languages of unknown terms for a backward search in one
    runtime spec and rule mode from a state holding `extra_strands`, its
    unifications memoized in the search's `memo` or in one of its own."""

    def __init__(self, spec, mode: str, extra_strands=(), memo=None):
        t0 = time.perf_counter()
        th = spec.theory
        self.theory = th
        self.leq = spec.signature.leq
        self.memo = Memo() if memo is None else memo
        self._xor = th.nilpotent
        # sorts a sum can have: a variable of another sort is never a sum
        self._sum_sorts = {res for (op, _), (_, res) in spec.signature.ops.items()
                           if op in self._xor}
        # the exclusive-or operator, when there is exactly one
        self.xor_op = next(iter(self._xor)) if len(self._xor) == 1 else None
        self.xor_sort = next(iter(self._sum_sorts), None)
        self._gens: dict = {}
        # op -> {position: [(pattern, path, mode)]}
        self._productions: dict = {}
        for (op, arity), (argsorts, result) in sorted(spec.signature.ops.items()):
            if arity == 0 or op in self._xor:
                continue
            self._gens[op] = App(op, tuple(Var(f"%G{k}", s) for k, s in
                                           enumerate(argsorts)), result)
            self._productions[op] = {j: _Exceptions() for j, s in
                                     enumerate(argsorts) if s != FRESH}
        self._atom_exceptions = _Exceptions()
        self._renamed = 0
        # while the grammar is built: the keys of the exception lists the
        # running task read, and memoized matching and unification results
        self._reads = None
        self._memo: dict = {}
        self.stats = {"tasks_run": 0, "tasks_skipped": 0,
                      "exceptions_dropped": 0}
        self._close(self._sources(spec, mode, extra_strands))
        # a production that lost its most general term along every path
        for op, prods in self._productions.items():
            for j in [j for j, exc in prods.items()
                      if all(self._covered(exc, self._gens[op], (j,), mode)
                             for mode in (EXACT, BELOW))]:
                del prods[j]
        self._memo = None
        self.stats["exceptions"] = len(self._atom_exceptions) + sum(
            len(exc) for prods in self._productions.values()
            for exc in prods.values())
        self.stats["ms"] = round((time.perf_counter() - t0) * 1000, 1)

    @property
    def sums_closed(self) -> bool:
        """Every atom of every sum the intruder can know is a term it knew
        before: only sends that sum their inputs build sums."""
        return bool(self._xor) and not self._atom_exceptions

    # ------------------------------------------------------------ membership

    def member(self, t, base: frozenset, assumed: set = None) -> bool:
        """True when every instance of t lies in the language built on
        `base`, terms the intruder does not know.  `assumed` holds terms
        taken to be irreducible in every instance considered."""
        return any(not excl
                   for _, excl, _ in self._derivations(t, base, assumed))

    def _never_sum(self, v) -> bool:
        return not any(self.leq(s, v.sort) for s in self._sum_sorts)

    def condemns(self, known, received, to_learn) -> bool:
        """True when no instance of a state with these demands, messages
        its strands received and terms still to be learned can be reached
        from an initial state: in every one, some demand or received
        message lies in the language."""
        if self._condemned(known, received, to_learn, None):
            return True
        # a term that an instance rewrites can leave the language; split
        # on the irreducible forms of all instances instead
        parts = list(known) + list(received) + list(to_learn)
        if all(rigid(t, self.theory) for t in parts
               if not isinstance(t, Var)) \
                or any(self._open_sum(t) for t in parts):
            return False  # nothing to split on, or too costly to split
        k, r = len(known), len(received)
        for v, _ in side_variants(tup(parts), self.theory, self.memo):
            if not (isinstance(v, App) and v.op == "%tup"):
                return False
            assumed: set = set()
            _subterms(v, assumed)
            assumed.remove(v)
            args = v.args
            if not self._condemned(args[:k], args[k:k + r], args[k + r:],
                                   assumed):
                return False
        return True

    def _condemned(self, known, received, to_learn, assumed) -> bool:
        base = frozenset(to_learn)
        if any(self.member(t, base, assumed) for t in received) or \
                any(self.member(t, base, assumed) for t in known
                    if not isinstance(t, Var)):
            return True
        if self.xor_op is None:
            return False
        # an atom of the sum of two demands is an atom of one of them, so
        # such an atom in the language condemns the state as well
        for i, d in enumerate(known):
            for e in known[i + 1:]:
                both = normalize(App(self.xor_op, (d, e), self.xor_sort),
                                 self.theory)
                if self._sum_witness(both, base, assumed):
                    return True
        return False

    def _open_sum(self, t) -> bool:
        """t has a sum with variables, whose variants multiply."""
        if not isinstance(t, App) or not t.args:
            return False
        if t.op in self._xor and not is_ground(t):
            return True
        return any(self._open_sum(a) for a in t.args)

    def _sum_witness(self, t, base, assumed) -> bool:
        """True when every instance of t has an atom, not t itself, that
        lies in the language built on `base`."""
        if isinstance(t, App) and t.op in self._xor:
            return any(not excl for _, excl, _ in
                       self._sum_derivations(t, base, assumed, frozenset()))
        return isinstance(t, App) and self.member(t, base, assumed) and \
            not self._hits(t, self._atom_exceptions, (), False, assumed)

    def _atomic(self, t) -> bool:
        """t is a sum in no instance."""
        t = normalize(t, self.theory)
        if isinstance(t, Var):
            return self._never_sum(t)
        return not (isinstance(t, App) and t.op in self._xor)

    def _excluded(self, t, base, assumed, deep=frozenset()):
        """(substitution, rest) pairs whose instances of t may leave the
        language: those every derivation path excludes.  [] when every
        instance of t is in the language, None when t is not in it at all.
        A path ending at a term of `deep` goes on inside that term's
        instances; `rest` then limits the pair to the continuations in
        (path, mode), or is None for all of them."""
        out = None
        for _, excl, _ in self._derivations(t, base, assumed, deep):
            if not excl:
                return []
            out = excl if out is None else self._meet(out, excl)
        return out

    def _meet(self, left, right) -> list:
        """Most general common instances of an exclusion in left and one in
        right."""
        out = []
        for a, ra in left:
            for b, rb in right:
                if ra is None or rb is not None and _includes(*rb, *ra):
                    rest = rb
                elif rb is None or _includes(*ra, *rb):
                    rest = ra
                else:
                    continue  # no continuation in both
                dom = sorted(set(a) | set(b), key=term_key)
                us = unify_modulo(tup([a(v) for v in dom]),
                                  tup([b(v) for v in dom]),
                                  self.theory, self.leq, self.memo)
                out += [(Subst({v: sg(a(v)) for v in dom}, _trusted=True),
                         rest) for sg in us]
        return out

    def _derivations(self, t, base, assumed, deep=frozenset()):
        """(path, exclusions, deep) for each path along which t is in the
        language, except for the instances of the exclusions."""
        if t in base:
            yield (), [], t in deep
        if not isinstance(t, App) or not t.args:
            return
        if t.op in self._xor:
            yield from self._sum_derivations(t, base, assumed, deep)
            return
        prods = self._productions.get(t.op)
        if not prods or not rigid(t, self.theory, assumed):
            return
        for j, exceptions in prods.items():
            for path, excl, dp in self._derivations(t.args[j], base, assumed,
                                                    deep):
                if self._reads is not None:
                    self._reads.update(((t.op, j), None))
                path = (j,) + path
                yield path, excl + self._hits(
                    t, exceptions + self._atom_exceptions, path, dp,
                    assumed), dp

    def _sum_derivations(self, s, base, assumed, deep):
        atoms = s.args
        if not all(self._never_sum(a) if isinstance(a, Var) else
                   rigid(a, self.theory, assumed) and
                   not (isinstance(a, App) and a.op in self._xor)
                   for a in atoms):
            return
        cancel = []  # instances in which two atoms cancel out
        for i, a in enumerate(atoms):
            for b in atoms[i + 1:]:
                cancel += [(sg, None) for sg in self._unifiers(a, b, assumed)]
        for a in atoms:
            for path, excl, dp in self._derivations(a, base, assumed, deep):
                if self._reads is not None:
                    self._reads.add(None)
                yield (ATOM,) + path, cancel + excl + self._hits(
                    a, self._atom_exceptions, path, dp, assumed), dp

    def _hits(self, t, exceptions, path, deep, assumed):
        """Exclusions from the exceptions that apply to the path or, when
        the path goes on deeper, to some strict extension of it."""
        out = []
        for e, epath, mode in exceptions:
            rest = None
            if deep:
                if mode == EXACT or path[:len(epath)] != epath:
                    if len(epath) <= len(path) or epath[:len(path)] != path:
                        continue
                    rest = (epath[len(path):], mode)
            elif not _applies(epath, mode, path):
                continue
            out += [(sg, rest) for sg in self._unifiers(t, e, assumed)]
        return out

    def _unifiers(self, t, e, assumed):
        """Unifiers of t and e that keep every assumed term irreducible (a
        reducible term stays so in all instances)."""
        if self._memo is not None:
            key = (t, e, frozenset(assumed or ()))
            if key in self._memo:
                return self._memo[key]
        th = self.theory
        got = [sg for sg in unify_modulo(t, e, th, self.leq, self.memo)
               if not assumed or all(normalize(sg(a), th) == canon(sg(a), th)
                                     for a in assumed)]
        # a unifier with variables of its own is not shared: two callers
        # holding it would share those variables
        if self._memo is not None and variables(
                [sg[v] for sg in got for v in sg]) <= variables((t, e)):
            self._memo[key] = got
        return got

    def _matches(self, pattern, t) -> bool:
        """t is an instance of pattern by a matcher `match_modulo` finds;
        asked only while the grammar is built."""
        key = (pattern, t)
        if key not in self._memo:
            self._memo[key] = bool(match_modulo(pattern, t, self.theory,
                                                self.leq, memo=self.memo))
        return self._memo[key]

    # --------------------------------------------------------------- sources

    def _sources(self, spec, mode, extra_strands) -> list:
        """Every send a backward search can use, with the messages received
        before it on its strand: the strands it starts from, the parents
        the composition rules can add to them, and the sends that strand
        introduction can explain a demand with, each once: a parent with no
        parent of its own gives its sends both as a prefix and handed
        over."""
        item_lists = [s.items for s in extra_strands]
        for role in sorted(spec.schemas):
            prefix = []
            for it in spec.schemas[role].items:
                if not isinstance(it, SignedMessage):
                    break  # what follows runs only after a handover
                prefix.append(it)
            item_lists.append(prefix)
        for role in sorted(self._parents(spec, mode, extra_strands)):
            item_lists += self._handed_over(spec, mode, spec.schemas[role])
        out = []
        for items in item_lists:
            received = []
            for it in items:
                if not isinstance(it, SignedMessage):
                    continue
                if it.polarity == "-":
                    received.append(it.payload)
                else:
                    out.append((normalize(it.payload, self.theory),
                                tuple(received)))
        return list(dict.fromkeys(out))  # each once, in order

    @staticmethod
    def _parents(spec, mode, extra_strands) -> set:
        """Roles the composition rules can add as parents of the strands
        a search starts from, and of those parents in turn."""
        found: set = set()
        todo = [s.role for s in extra_strands]
        while todo:
            role = todo.pop()
            schema = spec.schemas.get(role)
            head = schema.items[0] if schema and schema.items else None
            for a in _parent_roles(spec, mode, role, head):
                if a in spec.schemas and a not in found:
                    found.add(a)
                    todo.append(a)
        return found

    def _handed_over(self, spec, mode, schema) -> list:
        """The schema's items, with a child's input parameters bound to
        each parent's output in turn (left unbound when that is unknown)."""
        head = schema.items[0] if schema.items else None
        out = []
        for a in sorted(set(_parent_roles(spec, mode, schema.role, head))):
            parent = spec.schemas.get(a)
            last = parent.items[-1] if parent and parent.items else None
            if not _interface(mode, last, "out") or \
                    len(last.payload) != len(head.payload):
                return [schema.items]
            given = tup(last.payload)
            given = _apply({v: Var(f"{v.name}%P", v.sort)
                            for v in variables(given)}, given)
            for sg in unify_modulo(given, tup(head.payload), self.theory,
                                   self.leq, self.memo):
                out.append(tuple(map_item(it, lambda t, sg=sg:
                                          normalize(sg(t), self.theory))
                                 for it in schema.items))
        return out or [schema.items]

    # ------------------------------------------------------------ refinement

    def _close(self, sources) -> None:
        """Refine every production, and the atoms of sums, against every
        send until a round adds nothing, skipping each task that cannot
        add anything (see the module docstring).  Raises
        StepBudgetExceeded when _MAX_ROUNDS rounds all add something."""
        sends = [(msg, received) for msg, received in sources
                 if not self._sums_received(msg, received)]
        # (key of the target list, generator, position) per target
        targets = [((op, j), self._gens[op], j)
                   for op, prods in self._productions.items() for j in prods]
        if self._xor:
            targets.append((None, _ANY, None))
        tasks = [(key, gen, j, send) for key, gen, j in targets
                 for send in sends]
        cases: dict = {}
        # per task, the versions of the lists its last run read, or None
        # when that run added an exception
        seen: list = [None] * len(tasks)
        rounds = _Budget(_MAX_ROUNDS, "grammar closure round")
        changed = True
        while changed:
            rounds.spend()
            changed = False
            for i, (key, gen, j, (msg, received)) in enumerate(tasks):
                if seen[i] is not None and all(
                        self._list(r).version == n
                        for r, n in seen[i].items()):
                    self.stats["tasks_skipped"] += 1
                    continue
                self.stats["tasks_run"] += 1
                if (gen, msg, received) not in cases:
                    cases[gen, msg, received] = self._cases(msg, received,
                                                            gen)
                got = cases[gen, msg, received]
                self._reads = {key}
                if key is None:
                    added = self._refine_atoms(got, received)
                else:
                    added = self._refine(self._list(key), gen, j, got)
                seen[i] = None if added else \
                    {r: self._list(r).version for r in self._reads}
                changed |= added
        self._reads = None

    def _list(self, key) -> list:
        """The exception list of production key = (operator, position),
        or of the atoms for None."""
        return self._atom_exceptions if key is None else \
            self._productions[key[0]][key[1]]

    def _refine(self, exceptions, gen, j, cases) -> bool:
        """Except each way a send produces a term of production (gen's
        operator, j) without having received a term of the language;
        `cases` are the send's `_cases` for gen."""
        changed = False
        for tau, t, demands, assumed in cases:
            hole = normalize(tau(gen.args[j]), self.theory)
            for path, nodes, mode in self._paths(hole):
                changed |= self._except_unless(
                    exceptions, t, (j,) + path, mode, demands,
                    [t] + nodes, assumed)
        return changed

    def _refine_atoms(self, cases, received) -> bool:
        """Except each atom of a sum a send can produce without having
        received a term of the language; `cases` are the send's `_cases`
        for any message, `received` what it received before."""
        got = {normalize(d, self.theory) for d in received}
        changed = False
        for _, s, demands, assumed in cases:
            if isinstance(s, Var) and self._never_sum(s):
                continue
            if isinstance(s, Var):
                # only the instances that are sums matter here
                atoms, keep = [s], lambda sg, s=s: not self._atomic(sg(s))
            elif isinstance(s, App) and s.op in self._xor:
                atoms, keep = [a for a in s.args if a not in got], None
            else:
                continue  # not a sum in any irreducible instance
            for a in atoms:
                for path, nodes, mode in self._paths(a):
                    changed |= self._except_unless(
                        self._atom_exceptions, a, path, mode, demands,
                        [s] + nodes, assumed, keep)
        return changed

    def _paths(self, t, path=()):
        """(path, nodes on it, mode) for every derivation path into t; at a
        variable the path either ends there or goes on inside its
        instances (mode BELOW)."""
        yield path, [t], EXACT
        if isinstance(t, Var):
            yield path, [t], BELOW
        if not isinstance(t, App) or not t.args:
            return
        if t.op in self._xor:
            steps = [(ATOM, a) for a in t.args]
        else:
            steps = [(j, t.args[j]) for j in self._productions.get(t.op, ())]
        for step, arg in steps:
            for sub, nodes, mode in self._paths(arg, path + (step,)):
                yield sub, [t] + nodes, mode

    def _sums_received(self, msg, received) -> bool:
        """msg is a sum of distinct variables, each received as such."""
        if not (isinstance(msg, App) and msg.op in self._xor):
            return False
        got = {normalize(d, self.theory) for d in received}
        return all(isinstance(a, Var) for a in msg.args) and \
            len(set(msg.args)) == len(msg.args) and set(msg.args) <= got

    def _cases(self, msg, received, target):
        """(unifier, produced term, demands, assumed) for every way an
        irreducible instance of msg is an instance of target."""
        th = self.theory
        out = []
        msg_vars = variables(msg)
        for mv, theta in side_variants(msg, th, self.memo):
            for tau in unify_canonical(mv, target, th, leq=self.leq):
                ranges = [tau(theta(x)) for x in msg_vars] + [tau(target)]
                # a reducible binding has no irreducible instance at all
                if any(normalize(r, th) != canon(r, th) for r in ranges):
                    continue
                assumed: set = set()
                for r in ranges:
                    _subterms(canon(r, th), assumed)
                demands = [normalize(tau(theta(d)), th) for d in received]
                out.append((tau, canon(tau(target), th), demands,
                            frozenset(assumed)))
        return out

    def _except_unless(self, exceptions, t, path, mode, demands, nodes,
                       assumed, keep=None) -> bool:
        """Except t along the paths, or only those of its instances under
        which no demand is known to be in the language.  `nodes` are the
        terms on the path, all in the language, the last one its end;
        `keep` tells which exclusions are instances the case covers."""
        if self._covered(exceptions, t, path, mode):
            return False
        base = frozenset(nodes)
        deep = frozenset((nodes[-1],)) if mode == BELOW else frozenset()
        best = None
        for d in demands:
            got = self._excluded(d, base, assumed, deep)
            if got is not None and (best is None or len(got) < len(best)):
                best = got
        if best is None:
            return self._except(exceptions, t, path, mode)
        changed = False
        for sg, rest in best:
            if keep is not None and not keep(sg):
                continue
            where = (path, mode) if rest is None else (path + rest[0], rest[1])
            changed |= self._except(exceptions, normalize(sg(t), self.theory),
                                    *where)
        return changed

    def _covered(self, exceptions, t, path, mode) -> bool:
        return any(_includes(epath, emode, path, mode) and self._matches(e, t)
                   for e, epath, emode in exceptions)

    def _except(self, exceptions, t, path, mode) -> bool:
        """Add an exception, its variables renamed away from any state's,
        in place of the entries it covers."""
        if self._covered(exceptions, t, path, mode):
            return False
        self._renamed += 1
        tag = f"%E{self._renamed}"
        e = _apply({v: Var(f"{v.name}{tag}", v.sort) for v in variables(t)}, t)
        self._drop(exceptions, e, path, mode)
        exceptions.append((e, path, mode))
        exceptions.version += 1
        return True

    def _drop(self, exceptions, e, path, mode) -> None:
        """Remove from the list every entry that (e, path, mode) covers."""
        kept = [(f, fpath, fmode) for f, fpath, fmode in exceptions
                if not (_includes(path, mode, fpath, fmode) and
                        self._matches(e, f))]
        self.stats["exceptions_dropped"] += len(exceptions) - len(kept)
        exceptions[:] = kept


class _Exceptions(list):
    """An exception list: (pattern, path, mode) entries, and the version
    the closure's skip rule compares, bumped on every change."""
    version = 0


def _applies(epath, mode, path) -> bool:
    """The paths of (epath, mode) include the path."""
    if mode == EXACT:
        return path == epath
    return path[:len(epath)] == epath and (mode == OPEN or path != epath)


def _includes(epath, emode, path, mode) -> bool:
    """The paths of (epath, emode) include all those of (path, mode)."""
    if mode == EXACT:
        return _applies(epath, emode, path)
    if emode == EXACT or path[:len(epath)] != epath:
        return False
    return emode == OPEN or mode == BELOW or path != epath


def _subterms(t, out: set) -> None:
    if isinstance(t, App) and t.args:
        out.add(t)
        for a in t.args:
            _subterms(a, out)
