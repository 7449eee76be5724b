"""One benchmark repetition, run in a fresh interpreter by bench/run.py.

    python3 bench/worker.py --workload hijack [--trace] [--setup-only]

Imports strandkit from src/ of the repository that holds this file, builds
the workload's query from the shipped specs through the public API, runs it
once, checks the answer and prints one JSON record as its last line of
output.  PYTHONHASHSEED comes
from the caller; it is the only run-to-run variation in this code (set and
dict order over term objects).
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The three fixed questions; bench/NOTES.md says why each was chosen.
SEARCHES = {
    # (spec file, attack, mode, depth bound)
    "hijack": ("nsl_db.strand", "a1", "sync", 4),
    "secrecy": ("nsl.strand", "secrecy", "basic", 4),
}
COMPARE_SPECS = (("nsl_kd.strand", "keyleak"), ("nsl_db.strand", "a1"))
COMPARE_DEPTH = 3
WORKLOADS = tuple(SEARCHES) + ("compare",)

# Module-level memos and counters of the package, by (module, name).  A
# name that a later version removes is reported as None.
MEMOS = (("theory", "_norm_cache"), ("theory", "_rule_cache"),
         ("unify", "_unify_cache"))
COUNTERS = (("unify", "_variant_counter"), ("unify", "_aux_counter"))


def _memo_sizes(theories) -> dict:
    out = {}
    for modname, attr in MEMOS:
        memo = getattr(sys.modules[f"strandkit.{modname}"], attr, None)
        out[f"{modname}.{attr}"] = None if memo is None else len(memo)
    for modname, attr in COUNTERS:
        box = getattr(sys.modules[f"strandkit.{modname}"], attr, None)
        out[f"{modname}.{attr}"] = None if box is None else box[0]
    # the canon cache lives on each theory object, created on first use
    out["theory._canon_cache"] = sum(
        len(th.__dict__.get("_canon_cache", ())) for th in theories)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))

    import strandkit
    if Path(strandkit.__file__).resolve().parent != src / "strandkit":
        raise SystemExit(f"strandkit imported from {strandkit.__file__}, "
                         f"not from {src}")
    from strandkit.dsl import attack_state, parse_document
    from strandkit.model import Minter
    from strandkit.search import (ATTACK_FOUND, SearchBudget,
                                  bisimulation_report, reachability_search,
                                  trace_replay)
    from strandkit.semantics import runtime_spec, trans_inv

    rec = {"workload": args.workload, "errors": []}
    setup_layers = dict.fromkeys(
        ("dsl.parse_document.s", "semantics.runtime_spec.s",
         "dsl.attack_state.s"), 0.0)

    def timed(layer, fn, *a):
        t0 = time.perf_counter()
        out = fn(*a)
        setup_layers[layer] += time.perf_counter() - t0
        return out

    def load(name):
        text = (root / "specs" / name).read_text(encoding="utf-8")
        return timed("dsl.parse_document.s", parse_document, text)

    theories: list = []
    memos = {"start": _memo_sizes(theories)}

    # ---- set-up: everything up to a ready query
    if args.workload in SEARCHES:
        fname, attack, mode, depth = SEARCHES[args.workload]
        doc = load(fname)
        spec = timed("semantics.runtime_spec.s", runtime_spec, doc, mode)
        start = timed("dsl.attack_state.s", attack_state, doc, attack, spec,
                      Minter())
        theories.append(spec.theory)
        # exhaustive to the depth bound: no state, wall or memory budget
        budget = SearchBudget(max_depth=depth, max_states=sys.maxsize)

        def query():
            return reachability_search(start, spec, mode, budget)
    else:
        problems = []
        for fname, attack in COMPARE_SPECS:
            doc = load(fname)
            sync_spec = timed("semantics.runtime_spec.s", runtime_spec, doc,
                              "sync")
            abs_spec = timed("semantics.runtime_spec.s", runtime_spec, doc,
                             "abstract")
            sync_start = timed("dsl.attack_state.s", attack_state, doc,
                               attack, sync_spec, Minter())
            problems.append((trans_inv(sync_start, sync_spec), abs_spec,
                             sync_start, sync_spec))
            theories += [sync_spec.theory, abs_spec.theory]

        def query():
            return [bisimulation_report(*p, COMPARE_DEPTH) for p in problems]
    theories = list({id(th): th for th in theories}.values())
    rec["setup_s"] = time.perf_counter() - T_START
    rec["setup_layers"] = setup_layers
    if args.setup_only:
        print(json.dumps(rec))
        return 0

    # ---- the query, timed from call to result
    memos["query"] = _memo_sizes(theories)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        with tracer.root():
            t0 = time.perf_counter()
            result = query()
            rec["verdict_s"] = time.perf_counter() - t0
        rec["trace"] = tracer.summary()
    else:
        t0 = time.perf_counter()
        result = query()
        rec["verdict_s"] = time.perf_counter() - t0
    rec["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    memos["end"] = _memo_sizes(theories)
    rec["memos"] = memos

    # ---- checks on the answer
    errors = rec["errors"]
    if args.workload in SEARCHES:
        stats = result.stats
        rec["verdict"] = result.verdict
        rec["stats"] = stats
        rec["counts"] = {
            "expansions": stats["states_explored"],
            "enqueued": stats["states_enqueued"],
            "deduped": stats["deduped"],
            "subsumed": stats["subsumed"],
            "size_pruned": stats["size_pruned"],
            "max_depth": stats["max_depth_reached"],
        }
        if result.verdict == ATTACK_FOUND:
            if args.workload == "secrecy":
                errors.append("secrecy search reported an attack")
            elif not trace_replay(result, spec, mode):
                errors.append("attack trace does not replay")
        # otherwise the fixed question is answered only by a search that
        # went all the way down to the depth bound
        elif stats.get("reason") != "depth bound reached" or \
                stats["max_depth_reached"] != depth:
            errors.append(f"search stopped short of depth {depth}: "
                          f"{stats.get('reason', result.verdict)}, "
                          f"max depth {stats['max_depth_reached']}")
    else:
        rec["verdict"] = ["equivalent" if r["equivalent"] else "divergent"
                          for r in result]
        rec["stats"] = result
        rec["counts"] = {
            "levels": [[(lv["abstract_states"], lv["sync_states"])
                        for lv in r["levels"]] for r in result]}
        for (fname, _), r in zip(COMPARE_SPECS, result):
            if not r["equivalent"]:
                errors.append(f"{fname}: rule sets diverge")
            levels = r["levels"]
            if len(levels) != COMPARE_DEPTH + 1 or \
                    any(lv["abstract_states"] == 0 for lv in levels):
                errors.append(f"{fname}: empty or missing levels")
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
