"""Fixed-work benchmark of strandkit's backward search and rule-set comparison.

    python3 bench/run.py --workload hijack --seed 1 --seconds 30 --trace 0

Each repetition answers one fixed question (bench/worker.py, bench/NOTES.md)
in a fresh single-threaded worker interpreter; workers run one at a time, a
closed loop with one client.  The seed becomes the worker's PYTHONHASHSEED.

--trace 0 prints the end-to-end metrics: `verdict_s` (call to result of the
query), `setup_s` (worker start to a ready query) and `peak_rss_mb`.  Ten
set-up-only workers add samples to `setup_s`.

--trace 1 alternates untraced and traced workers and prints the per-layer
metrics from the traced ones (bench/tracer.py), plus the tracing overhead.

Every repetition's answer is checked; a failed check, crash or timeout is a
failed operation.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170  # a whole run, whatever --seconds says

# what each repetition's line of output keeps of its record
KEPT = ("verdict_s", "setup_s", "peak_rss_mb", "verdict", "counts", "stats",
        "memos")

# metric names and units, as BENCHMARK.json declares them
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in METRICS["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in METRICS["per_layer"]}


def run_worker(workload: str, seed: int, deadline: float, *flags: str):
    """One worker process; returns (record or None, error or None)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "run time limit reached"
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    # cached bytecode, as an installed package has: set-up then measures
    # imports and spec building, not compiling the sources
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(WORKER), "--workload", workload, *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, f"timeout after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    try:
        rec = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no result record"
    if rec["errors"]:
        return rec, "; ".join(rec["errors"])
    return rec, None


def tail_percentile(values: list):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, unit: str, values: list) -> str:
    line = f"{name}: median {statistics.median(values):.4f} {unit}"
    tail = tail_percentile(values)
    if tail is None:
        line += ", no percentile with 10 samples beyond it"
    else:
        line += f", p{tail[0]:.0f} {tail[1]:.4f} {unit}"
    return line + f", n={len(values)}"


def search_counts(rec: dict, layers: dict) -> dict:
    """The search's exact counts; for compare, counted from its levels."""
    counts = rec["counts"]
    if "levels" not in counts:
        return counts
    states = sum(a + s for levels in counts["levels"] for a, s in levels)
    roots = sum(a + s for levels in counts["levels"] for a, s in levels[:1])
    return {
        "expansions": layers["semantics.backward_successors"]["calls"],
        "enqueued": states,
        # successors that added no new key to their level
        "deduped": rec["trace"]["counters"]["semantics.steps_out"]
        - (states - roots),
        "subsumed": 0,
        "size_pruned": 0,
        "max_depth": max(len(levels) - 1 for levels in counts["levels"]),
    }


def layer_metrics(rec: dict, verdict_s: float) -> dict:
    """Per-layer metrics of one traced record; `verdict_s` is untraced."""
    tr = rec["trace"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}  # for an absent layer
    layers = {name: tr["layers"].get(name, zero) for name, _, _ in LAYERS}
    counters = tr["counters"]
    end = rec["memos"]["end"]
    counts = search_counts(rec, layers)
    unify_calls = layers["unify.unify_modulo"]["calls"]
    subsume_calls = layers["search.subsume"]["calls"]
    out = {}
    for name in ("semantics.backward_successors", "semantics.trans_inv",
                 "unify.unify_modulo", "unify.unify_canonical",
                 "unify.variants", "theory.normalize", "model.state_key",
                 "search.subsume"):
        out[f"{name}.calls"] = layers[name]["calls"]
    for name in ("semantics.trans_inv", "unify.unify_modulo",
                 "unify.variants", "unify.minimize", "theory.normalize",
                 "model.state_key", "model.apply_subst_state",
                 "search.subsume", "search.level_keys"):
        out[f"{name}.s"] = layers[name]["s"]
    out["semantics.backward_successors.self_s"] = \
        layers["semantics.backward_successors"]["self_s"]
    out["semantics.steps_out"] = counters["semantics.steps_out"]
    out["unify.unifiers_out"] = counters["unify.unifiers_out"]
    out["unify.incomplete"] = counters["unify.incomplete"]
    out["unify.memo_hit_rate"] = \
        1.0 - layers["unify.unify_modulo_raw"]["calls"] / unify_calls \
        if unify_calls else 0.0
    out["unify.memo.entries"] = end["unify._unify_cache"] or 0
    out["theory.norm_cache.entries"] = end["theory._norm_cache"] or 0
    out["theory.canon_cache.entries"] = end["theory._canon_cache"] or 0
    for key, value in counts.items():
        out[f"search.{key}"] = value
    out["search.expansions_per_s"] = counts["expansions"] / verdict_s
    out["search.subsume.hit_rate"] = \
        counters["search.subsume.hits"] / subsume_calls \
        if subsume_calls else 0.0
    return out


def print_layer_shares(rec: dict) -> None:
    tr = rec["trace"]
    total = rec["verdict_s"]
    print(f"traced verdict_s {total:.4f} s, {tr['spans']} spans")
    for name, agg in tr["layers"].items():
        print(f"  {name:32s} calls {agg['calls']:8d}  incl {agg['s']:8.4f} s"
              f"  self {agg['self_s']:8.4f} s"
              f"  self share {100 * agg['self_s'] / total:5.1f}%")
    for layer, sites in tr["wrapped"].items():
        print(f"  {layer} wrapped at {', '.join(sites)}")
    if tr["absent"]:
        print(f"  absent (not traced): {', '.join(tr['absent'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "strandkit" / "__init__.py").is_file() or \
            not (ROOT / "specs").is_dir():
        print(f"error: no strandkit sources and specs under {ROOT}",
              file=sys.stderr)
        return 2
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    attempted = failed = 0
    full: list = []    # (kind, record) of each query repetition that passed
    setups: list = []  # setup_s of every worker that passed

    def worker(kind: str, *flags: str):
        nonlocal attempted, failed
        attempted += 1
        rec, err = run_worker(args.workload, args.seed, deadline, *flags)
        # the same question with the same seed must be answered the same way
        if err is None and full and "counts" in rec and \
                rec["counts"] != full[0][1]["counts"]:
            err = "exact counts differ from the first repetition's"
        kept = {k: rec[k] for k in KEPT if k in rec} if rec else {}
        print(f"{kind} {attempted}: {'ok' if err is None else 'FAILED: ' + err}"
              f" {json.dumps(kept)}")
        if err is not None:
            failed += 1
            return
        setups.append(rec["setup_s"])
        if "verdict_s" in rec:
            full.append((kind, rec))

    # the first worker compiles bytecode; its numbers are not kept
    worker("warm-up", "--setup-only")
    setups.clear()
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES):
            worker("setup", "--setup-only")
    while True:
        worker("untraced")
        if args.trace:
            worker("traced", "--trace")
        if time.monotonic() - t_start >= args.seconds or \
                time.monotonic() >= deadline:
            break

    untraced = [rec for kind, rec in full if kind == "untraced"]
    traced = [rec for kind, rec in full if kind == "traced"]
    if full:
        print(f"exact counts of all {len(full)} repetitions that passed: "
              f"{json.dumps(full[0][1]['counts'])}")
    metrics: dict = {}
    if untraced:
        verdict_s = statistics.median(r["verdict_s"] for r in untraced)
        samples = {"verdict_s": [r["verdict_s"] for r in untraced],
                   "setup_s": setups,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
        for name, unit in END_TO_END.items():
            print(describe(name, unit, samples[name]))
        if args.trace == 0:
            metrics = {name: {"value": statistics.median(samples[name]),
                              "unit": unit}
                       for name, unit in END_TO_END.items()}
        elif traced:
            print_layer_shares(traced[0])
            per_rec = [layer_metrics(r, verdict_s) for r in traced]
            # median_low keeps each value a measured sample (counts stay ints)
            values = {name: statistics.median_low(m[name] for m in per_rec)
                      for name in per_rec[0]}
            # set-up layers are timed without wrappers in every worker
            for name in untraced[0]["setup_layers"]:
                values[name] = statistics.median(
                    r["setup_layers"][name] for r in untraced + traced)
            values["trace.overhead_pct"] = 100.0 * (statistics.median(
                r["verdict_s"] for r in traced) - verdict_s) / verdict_s
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
