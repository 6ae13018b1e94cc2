"""Command line front end.

Commands: automaton, series, genfun, oracle, verify.  Exit codes: 0 ok,
1 verification mismatch, 2 invalid input, 3 budget exceeded or out of
memory, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cfc_automaton, fsa, genfun, lexnf, oracle
from .core import CoxeterSystem, parse_system
from .errors import BudgetError, InputError, InternalError


def _load_system(source: str) -> CoxeterSystem:
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            text = source  # preset name, handled by the parser
    return parse_system(text)


def _build_stage(system: CoxeterSystem, args) -> fsa.Dfa:
    if args.stage == "lexnf":
        return lexnf.build(system, state_budget=args.state_budget)
    return cfc_automaton.build(system, args.stage, args.state_budget)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_automaton(args) -> int:
    system = _load_system(args.system)
    a = _build_stage(system, args)
    if args.stats:
        trimmed = fsa.trim(a)
        print(f"states {a.num_states}")
        print(f"trimmed {trimmed.num_states}")
        print(f"minimized {fsa.minimize(trimmed).num_states}")
    if args.dot:
        _write_or_print(a.to_dot(keep_dead=args.keep_sink), args.dot)
    if args.out or not (args.stats or args.dot):
        _write_or_print(a.to_json(), args.out)
    return 0


def cmd_series(args) -> int:
    system = _load_system(args.system)
    args.stage = "cfc" if args.per_expression else "pipeline"
    a = fsa.minimize(fsa.trim(_build_stage(system, args)))
    coeffs = genfun.count_by_length(a, args.max_len)
    doc = {"coeffs": [str(c) for c in coeffs]}
    _write_or_print(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_genfun(args) -> int:
    system = _load_system(args.system)
    args.stage = "cfc" if args.per_expression else "pipeline"
    coeffs, gf = genfun.counted_genfun(_build_stage(system, args))
    doc = {"coeffs": [str(c) for c in coeffs]}
    doc.update(gf.to_json_dict())
    print(gf)
    if args.out:
        _write_or_print(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    system = _load_system(args.system)
    report = oracle.count_elements(
        system,
        args.max_len,
        kind="fc" if args.stage == "fc" else "cfc",
        budget=args.class_budget,
        witnesses=args.witnesses,
    )
    doc = report.to_json_dict()
    _write_or_print(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def verify(
    system: CoxeterSystem,
    dfa: fsa.Dfa,
    max_len: int,
    class_budget: int = oracle.DEFAULT_CLASS_BUDGET,
) -> tuple[int, int, int, fsa.Word, str] | None:
    """Compare the per-length counts of dfa, which should accept one word
    per CFC element, with the brute-force counts up to max_len.

    Returns None when every length agrees, and otherwise (length,
    automaton count, oracle count, witness, side) for the shortest length
    that does not: the witness is the least word of that length accepted
    by exactly one side, and side says which ("automaton only" or "oracle
    only")."""
    # trimmed, the machine has one dead state, so the witness search below
    # walks only prefixes of accepted words instead of every word
    a = fsa.trim(dfa)
    got = genfun.count_by_length(a, max_len)
    report = oracle.count_elements(
        system, max_len, kind="cfc", budget=class_budget, witnesses=True
    )
    want = report.counts()
    for k in range(max_len + 1):
        if got[k] == want[k]:
            continue
        assert report.witnesses is not None
        machine = {
            w for w in fsa.accepted_words(a, k) if len(w) == k
        }
        hand = set(report.witnesses.get(k, []))
        diff = sorted(machine ^ hand)
        witness = diff[0] if diff else ()
        side = "automaton only" if witness in machine else "oracle only"
        return k, got[k], want[k], witness, side
    return None


def cmd_verify(args) -> int:
    system = _load_system(args.system)
    args.stage = "pipeline"
    mismatch = verify(system, _build_stage(system, args), args.max_len,
                      args.class_budget)
    if mismatch is None:
        print(f"ok: lengths 0..{args.max_len} agree")
        return 0
    k, got, want, witness, side = mismatch
    word = ",".join(system.names[g] for g in witness)
    print(f"mismatch at length {k}: automaton {got} vs oracle {want}")
    print(f"witness [{word}] ({side})")
    return 1


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _common(sub: argparse.ArgumentParser, max_len: bool = False) -> None:
    sub.add_argument("--system", required=True,
                     help="preset name, JSON document, or path to a JSON file")
    if max_len:
        sub.add_argument("--max-len", type=_nonneg, required=True, dest="max_len")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--state-budget", type=int, dest="state_budget",
                     default=cfc_automaton.DEFAULT_STATE_BUDGET)
    sub.add_argument("--class-budget", type=int, dest="class_budget",
                     default=oracle.DEFAULT_CLASS_BUDGET)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcgf",
        description="Automata and generating functions for cyclically fully "
                    "commutative elements of Coxeter groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("automaton", help="build an automaton, emit JSON/DOT")
    _common(p)
    p.add_argument("--stage", choices=["cfc", "fc", "lexnf", "pipeline"],
                   default="cfc")
    p.add_argument("--stats", action="store_true",
                   help="print raw, trimmed, and minimized state counts")
    p.add_argument("--dot", help="write DOT rendering to this path")
    p.add_argument("--keep-sink", action="store_true", dest="keep_sink",
                   help="include the sink state in the DOT rendering")
    p.set_defaults(func=cmd_automaton)

    p = subs.add_parser("series", help="per-length counts")
    _common(p, max_len=True)
    p.add_argument("--per-expression", action="store_true",
                   dest="per_expression",
                   help="count reduced expressions instead of elements")
    p.set_defaults(func=cmd_series)

    p = subs.add_parser("genfun", help="rational generating function")
    _common(p)
    p.add_argument("--per-expression", action="store_true",
                   dest="per_expression",
                   help="count reduced expressions instead of elements")
    p.set_defaults(func=cmd_genfun)

    p = subs.add_parser("oracle", help="brute-force counts (ground truth)")
    _common(p, max_len=True)
    p.add_argument("--stage", choices=["cfc", "fc"], default="cfc")
    p.add_argument("--witnesses", action="store_true",
                   help="include accepted words per length")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("verify", help="compare the pipeline against the oracle")
    _common(p, max_len=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; a smaller --state-budget stops sooner",
              file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
