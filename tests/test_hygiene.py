"""Source hygiene checks that need no linter."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "strandkit"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(path: pathlib.Path) -> list:
    """Names bound by an import in the module and never read in it.  A name
    the module lists in `__all__` counts as read; `from __future__`
    imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\nfrom typing import List, Optional\n"
                   "x: Optional[int] = None\n")
    assert _unused_imports(mod) == [(1, "os"), (2, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


# top-level functions, and methods of top-level classes, that only tests
# call, each kept as a reference the tests check the program against
TEST_ONLY = {
    "is_initial": "the initial-state condition, checked against the "
                  "predecessors backward_successors builds",
    "level_states": "the unpruned breadth-first search the reductions of "
                    "reachability_search are checked against",
    "trans": "the sync view of an abstract state, the inverse that the "
             "round-trip tests check trans_inv against",
}


def _unread_functions(paths) -> list:
    """Top-level functions of the modules, and methods and properties of
    their top-level classes but for dunders, whose name none of them
    reads: a name, an attribute or a name imported from a module counts
    as a read.  A method is listed as `Class.method`."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, funcs):
                defined.append((path.name, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{m.name}", m.name)
                            for m in node.body if isinstance(m, funcs)
                            and not m.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted((mod, name) for mod, name, short in defined
                  if short not in read)


def test_scan_finds_an_unread_function(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
                 "def called():\n    pass\n\n\nclass C:\n"
                 "    def method(self):\n        pass\n\n"
                 "    def __len__(self):\n        return 0\n\n"
                 "    @property\n    def size(self):\n        return 0\n\n"
                 "    @property\n    def shape(self):\n        return 0\n\n"
                 "    def read(self):\n"
                 "        return self.size\n")
    b.write_text("import a\nfrom a import used\n\nx = a.called\n"
                 "y = a.C().read()\n")
    assert _unread_functions([a, b]) == [
        ("a.py", "C.method"), ("a.py", "C.shape"), ("a.py", "unused")]


def test_only_reference_functions_go_unread():
    unread = _unread_functions(MODULES)
    assert sorted(name for _, name in unread) == sorted(TEST_ONLY), unread


# module-level mutable state allowed in the package, each with its reason
MODULE_STATE = {
    ("terms.py", "_interned"): "the hash-consing table, which must be one "
                               "per process for equal nodes to be one node",
}
_MUTABLE_CALLS = {"dict", "set", "list", "count", "defaultdict", "deque",
                  "Counter", "OrderedDict", "WeakValueDictionary",
                  "WeakKeyDictionary", "WeakSet"}


def _module_state(path: pathlib.Path) -> list:
    """Module-level names, not written ALL-CAPS, bound to a mutable
    container or a counter: a list, dict or set display or comprehension,
    or a call of a container type or `itertools.count`; and module-level
    names of any case bound to an `EquationalTheory(...)`, which holds
    state of its own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        func = value.func if isinstance(value, ast.Call) else None
        called = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        theory = called == "EquationalTheory"
        if not (theory or called in _MUTABLE_CALLS or isinstance(
                value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                        ast.DictComp, ast.SetComp))):
            continue
        out += [(node.lineno, t.id) for t in targets
                if isinstance(t, ast.Name) and (theory or not t.id.isupper())]
    return out


def test_scan_finds_module_state(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import itertools\nimport weakref\n\n"
                   "_box = [0]\ncache: dict = {}\nseen = set()\n"
                   "_ids = itertools.count()\n"
                   "_table = weakref.WeakValueDictionary()\n"
                   "TABLE = {'a': 1}\n_CAP = dict(a=1)\nname = 'x'\n"
                   "pair = (1, 2)\nEMPTY = EquationalTheory()\n"
                   "th = theory.EquationalTheory(rules=())\n\n\n"
                   "def f():\n    local = []\n    return local\n")
    assert _module_state(mod) == [(4, "_box"), (5, "cache"), (6, "seen"),
                                  (7, "_ids"), (8, "_table"), (13, "EMPTY"),
                                  (14, "th")]


def test_no_module_state_but_the_allowed():
    found = {(path.name, name) for path in MODULES
             for _, name in _module_state(path)}
    assert found == set(MODULE_STATE), found


# where the package may start a process, each with its reason, by module
# and top-level function
PROCESSES = {
    ("search.py", "_side_by_side"): "runs one side of a rule-set "
                                    "comparison in a forked child; one "
                                    "place owns the process, so one place "
                                    "reaps it",
}
_PROCESS_MODULES = {"subprocess", "multiprocessing"}


def _process_uses(path: pathlib.Path) -> list:
    """Uses of `os.fork`, `subprocess` or `multiprocessing`, by line and
    enclosing top-level definition (None at module level): an import of
    either module or of `fork` from `os`, or an attribute or name by those
    names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def used(node) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] in _PROCESS_MODULES
                       for a in node.names)
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            return root in _PROCESS_MODULES or root == "os" and any(
                a.name == "fork" for a in node.names)
        if isinstance(node, ast.Attribute):
            return node.attr == "fork" and isinstance(node.value, ast.Name) \
                and node.value.id == "os" or node.attr in _PROCESS_MODULES
        return isinstance(node, ast.Name) and node.id in _PROCESS_MODULES

    out = set()
    for top in tree.body:
        name = getattr(top, "name", None)  # a def or class, else None
        out |= {(node.lineno, name) for node in ast.walk(top) if used(node)}
    return sorted(out, key=lambda u: u[0])


def test_scan_finds_process_uses(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\nimport subprocess\n\n\n"
                   "def f():\n    return os.fork()\n\n\n"
                   "def g():\n    import multiprocessing.pool\n"
                   "    from os import fork, getpid\n"
                   "    return getpid()\n\n\n"
                   "def h(x):\n    return x.fork, os.getpid()\n\n\n"
                   "class C:\n    def run(self):\n"
                   "        return subprocess.run\n")
    assert _process_uses(mod) == [(2, None), (6, "f"), (10, "g"),
                                  (11, "g"), (21, "C")]


def test_no_process_but_the_allowed():
    found = {(path.name, name) for path in MODULES
             for _, name in _process_uses(path)}
    assert found == set(PROCESSES), found


# The fields of `EquationalTheory` that are not part of its value: state
# that lives as long as the theory, each with the reason it is there.
THEORY_STATE = {
    "_canon_leaves": "one shared leaf per name, so that renamed copies "
                     "compare by identity; as many as the widest renaming",
    "nilpotent": "each exclusive-or operator's unit, read from the axioms "
                 "once",
    "_back_ids": "the suffixes `_Renaming.back` numbers variables with, "
                 "so that they stay apart within the theory",
}


def test_no_theory_state_but_the_allowed():
    """A new memo or counter on the theory must give its reason here;
    canonical and normal forms live on the term nodes instead, and the
    memos of unification on each search (`MEMO_OWNERS`)."""
    import dataclasses

    from strandkit.theory import EquationalTheory

    found = {f.name for f in dataclasses.fields(EquationalTheory)
             if not f.compare}
    assert found == set(THEORY_STATE), found


# the functions that may make a `unify.Memo`, by module and qualified
# name, each with the reason it owns one: a memo lives as long as the call
# that made it, so it holds only what that call asked
MEMO_OWNERS = {
    ("search.py", "reachability_search"): "one search, its grammar "
                                          "included",
    ("search.py", "_levels"): "one breadth-first search to a depth",
    ("search.py", "trace_replay"): "one replay of a found trace",
    ("grammar.py", "Grammar.__init__"): "a grammar built without a search",
    ("oracle.py", "instantiates_pattern"): "one pattern check",
    ("dsl.py", "validate_composition"): "one validation of a document",
    ("unify.py", "side_variants"): "one call given no memo",
    ("unify.py", "_memoized"): "one call given no memo",
}


def _memo_makers(path: pathlib.Path) -> list:
    """Calls of `Memo(...)`, by line and the function whose body makes
    them, named `Class.method` for a method and by the outermost function
    for a nested one; None at module level, in a class body and in a
    default argument value, which are evaluated once."""
    out = []

    def visit(node, owner, prefix=""):
        if isinstance(node, ast.Call) and "Memo" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            out.append((node.lineno, owner))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in [node.args, *node.decorator_list]:
                visit(child, owner, prefix)
            inner = owner or f"{prefix}{node.name}"
            for child in node.body:
                visit(child, inner)
        elif isinstance(node, ast.ClassDef) and owner is None:
            for child in node.body:
                visit(child, None, f"{prefix}{node.name}.")
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, owner, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sorted(out, key=lambda m: m[0])


def test_scan_finds_memo_makers(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from strandkit import unify\n"
                   "from strandkit.unify import Memo\n\n"
                   "SHARED = Memo()\n\n\n"
                   "def f(memo=Memo()):\n"
                   "    def g():\n        return unify.Memo()\n"
                   "    return memo, g, Memo\n\n\n"
                   "class C:\n    memo = Memo()\n\n"
                   "    def __init__(self):\n        self.memo = Memo()\n")
    assert _memo_makers(mod) == [(4, None), (7, None), (9, "f"),
                                 (14, None), (17, "C.__init__")]


def test_no_memo_but_the_allowed():
    found = {(path.name, name) for path in MODULES
             for _, name in _memo_makers(path)}
    assert found == set(MEMO_OWNERS), found


@pytest.mark.parametrize("make", [
    lambda terms: terms.App("f", (terms.Var("X"),)),
    lambda terms: terms.Var("X"),
    lambda terms: terms.FreshConst(1),
], ids=["App", "Var", "FreshConst"])
def test_term_classes_keep_slots(make):
    """Every live term is one of these objects, and the hot paths hash and
    compare them by the fields in their slots: a per-instance `__dict__`
    would cost memory and speed on every term."""
    from strandkit import terms

    t = make(terms)
    assert "__slots__" in vars(type(t))
    assert not hasattr(t, "__dict__")


# the comparisons that decide equality or membership
_EQUALITY_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _key_comparisons(path: pathlib.Path) -> list:
    """Lines where a `term_key(...)` call is an operand of `==`, `!=`,
    `in` or `not in`.  Terms are equal when `==` says so, and `term_key`
    only orders them."""
    def is_key(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return isinstance(func, ast.Name) and func.id == "term_key" or \
            isinstance(func, ast.Attribute) and func.attr == "term_key"

    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left] + node.comparators
        if any(isinstance(op, _EQUALITY_OPS) and
               (is_key(sides[i]) or is_key(sides[i + 1]))
               for i, op in enumerate(node.ops)):
            out.append(node.lineno)
    return out


def test_scan_finds_a_key_comparison(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from strandkit import terms\n"
                   "from strandkit.terms import term_key\n\n\n"
                   "def f(a, b, seen):\n"
                   "    x = term_key(a) == term_key(b)\n"
                   "    y = terms.term_key(a) != b\n"
                   "    z = term_key(a) in seen\n"
                   "    w = a not in {term_key(b): 1} or b in seen\n"
                   "    v = term_key(a) < term_key(b) and a == b\n"
                   "    u = 0 < len(term_key(a)) != 3\n"
                   "    return sorted(seen, key=term_key), x, y, z, w, v, u\n")
    assert _key_comparisons(mod) == [6, 7, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_term_keys_only_order(path):
    assert _key_comparisons(path) == []


# functions that must have one definition in the package: the rigid-clash
# test that unification, strand introduction, the grammar and the search
# bound all ask, and the rigidity test under it
ONE_HOME = {"apart": "theory.py", "rigid": "theory.py"}


def _definitions(path: pathlib.Path, names) -> list:
    """Lines and names of the functions and methods, at any depth, whose
    name is one of `names`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in names)


def test_scan_finds_definitions(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("def apart(t, u):\n    return t != u\n\n\n"
                   "class G:\n    def apart(self, t, u):\n"
                   "        def rigid(t):\n            return True\n"
                   "        return rigid(t)\n\n    def _apart(self):\n"
                   "        pass\n")
    assert _definitions(mod, ONE_HOME) == [(1, "apart"), (6, "apart"),
                                           (7, "rigid")]


def test_apartness_is_defined_once():
    found = sorted((path.name, name) for path in MODULES
                   for _, name in _definitions(path, ONE_HOME))
    assert found == sorted((m, n) for n, m in ONE_HOME.items()), found
