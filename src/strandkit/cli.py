"""Command-line front end.

Subcommands: validate, analyze, transform, compare, oracle.  Exit codes:
0 ok/secure/equivalent, 10 attack found, 20 inconclusive or divergent,
1 usage or validation error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .dsl import (
    SpecError,
    attack_state,
    parse_document,
    phi_transform,
    print_protocol,
    synch_transform,
    validate_composition,
)
from .model import Minter, UnknownComposition
from .oracle import (
    ScenarioError,
    instantiates_pattern,
    load_scenario,
    replay_scenario,
)
from .search import (
    ATTACK_FOUND,
    SECURE_FINITE,
    SearchBudget,
    bisimulation_report,
    reachability_search,
    trace_replay,
    trace_to_dot,
)
from .semantics import ABSTRACT, MODES, SYNC, runtime_spec
from .theory import StepBudgetExceeded

EXIT_OK = 0
EXIT_ATTACK = 10
EXIT_INCONCLUSIVE = 20
EXIT_USAGE = 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ScenarioError, UnknownComposition, KeyError,
            StepBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="strandkit",
        description="Symbolic analysis of sequentially composed protocols")
    sub = p.add_subparsers(required=True)

    v = sub.add_parser("validate", help="parse and validate protocol files")
    v.add_argument("files", nargs="+")
    v.set_defaults(func=cmd_validate)

    a = sub.add_parser("analyze", help="backward search from an attack pattern")
    a.add_argument("file")
    a.add_argument("--attack", required=True)
    _common_flags(a)
    a.add_argument("--max-depth", type=int, default=20)
    a.add_argument("--max-states", type=int, default=100_000)
    a.add_argument("--wall-seconds", type=float, default=None)
    a.add_argument("--max-rss-mb", type=int, default=None)
    a.set_defaults(func=cmd_analyze)

    t = sub.add_parser("transform", help="print a transformed specification")
    t.add_argument("file")
    t.add_argument("--which", choices=("synch", "phi"), required=True)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_transform)

    c = sub.add_parser("compare",
                       help="layer-by-layer comparison of the abstract and "
                            "synchronization rule sets")
    c.add_argument("file")
    c.add_argument("--attack", required=True)
    c.add_argument("--depth", type=int, default=3)
    c.add_argument("--json", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compare)

    o = sub.add_parser("oracle", help="replay a concrete forward scenario")
    o.add_argument("file")
    o.add_argument("--scenario", required=True)
    _common_flags(o)
    o.set_defaults(func=cmd_oracle)
    return p


def _common_flags(sp) -> None:
    sp.add_argument("--mode", choices=MODES, default=SYNC)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--dot", action="store_true")
    sp.add_argument("--out", default=None)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_out(args, name: str, text: str) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.files:
        try:
            doc = parse_document(_read(path))
            diags = validate_composition(doc)
        except (SpecError, OSError) as exc:
            print(f"{path}: error: {exc}")
            status = EXIT_USAGE
            continue
        if diags:
            for d in diags:
                print(f"{path}: {d.code}: {d.message}")
            status = EXIT_USAGE
        else:
            print(f"{path}: ok")
    return status


def cmd_analyze(args) -> int:
    doc = parse_document(_read(args.file))
    spec = runtime_spec(doc, args.mode)
    start = attack_state(doc, args.attack, spec, Minter())
    budget = SearchBudget(max_depth=args.max_depth, max_states=args.max_states,
                          wall_seconds=args.wall_seconds,
                          max_rss_mb=args.max_rss_mb)
    result = reachability_search(start, spec, args.mode, budget)
    report = {
        "file": args.file,
        "attack": args.attack,
        "mode": args.mode,
        "verdict": result.verdict,
        "stats": result.stats,
    }
    if result.found:
        report["trace"] = [{"rule": ts.rule, "state": repr(ts.state)}
                           for ts in result.trace]
        report["trace_replay"] = trace_replay(result, spec, args.mode)
    if args.json:
        _write_out(args, "verdict.json", json.dumps(report, indent=2))
    else:
        print(f"{args.file} [{args.attack}, {args.mode}]: {result.verdict}")
        for k in ("states_explored", "depth", "wall_ms"):
            if k in result.stats:
                print(f"  {k}: {result.stats[k]}")
        if result.found:
            for ts in result.trace:
                print(f"  {ts.rule}")
        if args.out:
            _write_out(args, "verdict.json", json.dumps(report, indent=2))
    if args.dot and result.found:
        _write_out(args, "trace.dot", trace_to_dot(result))
    if result.verdict == ATTACK_FOUND:
        return EXIT_ATTACK
    if result.verdict == SECURE_FINITE:
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def cmd_transform(args) -> int:
    doc = parse_document(_read(args.file))
    diags = validate_composition(doc)
    if diags:
        for d in diags:
            print(f"{args.file}: {d.code}: {d.message}", file=sys.stderr)
        return EXIT_USAGE
    merged = synch_transform(doc) if args.which == "synch" else phi_transform(doc)
    text = print_protocol(merged)
    if args.out:
        _write_out(args, f"{args.which}.strand", text)
    else:
        print(text)
    return EXIT_OK


def cmd_compare(args) -> int:
    doc = parse_document(_read(args.file))
    sync_spec = runtime_spec(doc, SYNC)
    abs_spec = runtime_spec(doc, ABSTRACT)
    sync_start = attack_state(doc, args.attack, sync_spec, Minter())
    abs_start = attack_state(doc, args.attack, abs_spec, Minter())
    report = bisimulation_report(abs_start, abs_spec, sync_start, sync_spec,
                                 args.depth)
    if args.json or args.out:
        _write_out(args, "compare.json", json.dumps(report, indent=2))
    if not args.json:
        verdict = "equivalent" if report["equivalent"] else "divergent"
        print(f"{args.file} [{args.attack}, depth {args.depth}]: {verdict}")
        for lv in report["levels"]:
            print(f"  depth {lv['depth']}: abstract {lv['abstract_states']}"
                  f" sync {lv['sync_states']} common {lv['common']}")
    return EXIT_OK if report["equivalent"] else EXIT_INCONCLUSIVE


def cmd_oracle(args) -> int:
    doc = parse_document(_read(args.file))
    spec = runtime_spec(doc, args.mode)
    scenario = load_scenario(_read(args.scenario))
    result = replay_scenario(scenario, spec, args.mode)
    if result.valid and scenario.attack:
        pattern = attack_state(doc, scenario.attack, spec, Minter())
        result.instantiates = instantiates_pattern(result.state, pattern, spec)
    report = {"file": args.file, "scenario": scenario.name,
              "attack": scenario.attack, **result.as_dict()}
    if args.json:
        _write_out(args, "replay.json", json.dumps(report, indent=2))
    else:
        if result.valid:
            print(f"{scenario.name}: valid, {result.fired} firings")
            if scenario.attack:
                word = "instantiates" if result.instantiates else \
                    "does not instantiate"
                print(f"  {word} attack {scenario.attack}")
        else:
            print(f"{scenario.name}: invalid at {result.failed_at}: "
                  f"{result.reason}")
        if args.out:
            _write_out(args, "replay.json", json.dumps(report, indent=2))
    if not result.valid:
        return EXIT_USAGE
    return EXIT_ATTACK if result.instantiates else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
