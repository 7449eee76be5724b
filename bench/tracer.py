"""Spans around calls into strandkit's layers, recorded from outside the package.

`Tracer.install` replaces each layer function listed in LAYERS by a timing
wrapper under every name that binds it in a loaded `strandkit.*` module.
`from .unify import unify_modulo` gives `semantics` its own binding of the
function, so patching only the defining module would miss the calls that
matter; the wrapper is therefore installed wherever the very same function
object is bound.  A listed function that no longer exists is reported as
absent instead of failing the run.

Spans are kept in memory in flat arrays (name id, parent span, start, end)
and reduced once at the end: a span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (layer name, defining module, function name)
LAYERS = (
    ("semantics.backward_successors", "semantics", "backward_successors"),
    ("semantics.trans_inv", "semantics", "trans_inv"),
    ("unify.unify_modulo", "unify", "unify_modulo"),
    ("unify.unify_modulo_raw", "unify", "_unify_modulo_raw"),
    ("unify.unify_canonical", "unify", "unify_canonical"),
    ("unify.variants", "unify", "variants"),
    ("unify.minimize", "unify", "_minimize"),
    ("theory.normalize", "theory", "normalize"),
    ("model.state_key", "model", "state_key"),
    ("model.apply_subst_state", "model", "apply_subst_state"),
    ("search.subsume", "search", "_state_instance_of"),
    ("search.level_keys", "search", "level_keys"),
)

ROOT = "query"


def _steps_out(counters: dict, out) -> None:
    counters["semantics.steps_out"] += len(out)


def _unifiers_out(counters: dict, out) -> None:
    counters["unify.unifiers_out"] += len(out)
    if not getattr(out, "complete", True):
        counters["unify.incomplete"] += 1


def _subsume_hit(counters: dict, out) -> None:
    if out:
        counters["search.subsume.hits"] += 1


# result counters, read from what a wrapped call returns
HOOKS = {
    "semantics.backward_successors": _steps_out,
    "unify.unify_modulo": _unifiers_out,
    "search.subsume": _subsume_hit,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list = [ROOT]
        self.absent: list = []
        self.wrapped: dict = {}  # layer -> list of "module.attr" bindings
        self.counters = dict.fromkeys(
            ("semantics.steps_out", "unify.unifiers_out", "unify.incomplete",
             "search.subsume.hits"), 0)
        self._active: list = [0]  # open spans per name
        self._name = array("H")
        self._parent = array("q")
        self._outer = bytearray()  # 1 unless nested in a span of its name
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("strandkit.") and m is not None]
        for layer, modname, attr in LAYERS:
            orig = getattr(sys.modules.get(f"strandkit.{modname}"), attr, None)
            if not callable(orig):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(layer, orig)
            sites = []
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        sites.append(f"{mod.__name__[len('strandkit.'):]}.{name}")
            self.wrapped[layer] = sorted(sites)

    def _enter(self, nid: int) -> int:
        idx = len(self._t0)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._outer.append(self._active[nid] == 0)
        self._t1.append(0.0)
        self._active[nid] += 1
        self._stack.append(idx)
        self._t0.append(time.perf_counter())
        return idx

    def _exit(self, nid: int, idx: int) -> None:
        self._t1[idx] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    def _wrap(self, layer: str, fn):
        nid = len(self.names)
        self.names.append(layer)
        self._active.append(0)
        hook = HOOKS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(nid, idx)
            if hook is not None:
                hook(self.counters, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """The span that the layer spans of one query nest under."""
        idx = self._enter(0)
        try:
            yield
        finally:
            self._exit(0, idx)

    def summary(self) -> dict:
        """Per layer: calls, inclusive seconds (outermost spans) and self
        seconds (duration minus direct children)."""
        n = len(self._t0)
        dur = [self._t1[i] - self._t0[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self._name[i]]]
            rec["calls"] += 1
            if self._outer[i]:
                rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return {"layers": out, "counters": dict(self.counters),
                "absent": list(self.absent), "wrapped": self.wrapped,
                "spans": n}

