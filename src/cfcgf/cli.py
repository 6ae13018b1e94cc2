"""Command line front end.

Commands: automaton, series, genfun, oracle, verify.  Exit codes: 0 ok,
1 verification mismatch, 2 a stdout that cannot be written, 3 out of
memory, and otherwise the `exit_code` of the package error raised.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cfc_automaton, fsa, genfun, oracle
from .core import PRESET_RE, CoxeterSystem, parse_system
from .errors import CfcError, InputError


def _load_system(source: str) -> CoxeterSystem:
    """The system --system gives: a preset name, a JSON document, or the
    path of a file that holds one.  A preset name always names the
    preset; a file named like one is read when given as ./A3."""
    if source.lstrip().startswith("{") or PRESET_RE.match(source.strip()):
        return parse_system(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"--system {source!r} is neither a preset name "
                         f"nor a readable file: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"system file {source!r} is not UTF-8: {e}") from None
    return parse_system(text)


def _write_or_print(pieces, out: str | None) -> None:
    """Write a text, given in pieces, to the file out, or to stdout
    without one."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as e:
            raise InputError(f"cannot write {out!r}: {e.strerror}") from None
    else:
        sys.stdout.writelines(pieces)


def _write_json(doc: dict, out: str | None) -> None:
    """Write doc as indented JSON with sorted keys to out, or to stdout."""
    _write_or_print([json.dumps(doc, indent=2, sort_keys=True), "\n"], out)


def cmd_automaton(args) -> int:
    system = _load_system(args.system)
    a = cfc_automaton.build(system, args.stage, args.state_budget)
    if args.stats:
        raw, trimmed, minimized = fsa.state_counts(a)
        print(f"states {raw}\ntrimmed {trimmed}\nminimized {minimized}")
    if args.dot:
        _write_or_print(a.to_dot(system.names), args.dot)
    if args.out or not (args.stats or args.dot):
        _write_or_print(a.json_pieces(system.names), args.out)
    return 0


def cmd_series(args) -> int:
    system = _load_system(args.system)
    a = cfc_automaton.build(system, args.stage, args.state_budget)
    coeffs = genfun.counted_genfun(a, args.max_len)[0]
    _write_json({"coeffs": [str(c) for c in coeffs]}, args.out)
    return 0


def cmd_genfun(args) -> int:
    system = _load_system(args.system)
    coeffs, gf = genfun.counted_genfun(
        cfc_automaton.build(system, args.stage, args.state_budget)
    )
    print(gf)
    if args.out:
        _write_json({"coeffs": [str(c) for c in coeffs], **gf.to_json_dict()},
                    args.out)
    return 0


def cmd_oracle(args) -> int:
    system = _load_system(args.system)
    report = oracle.count_elements(
        system,
        args.max_len,
        kind=args.stage,
        budget=args.class_budget,
        witnesses=args.witnesses,
    )
    _write_json(report.to_json_dict(), args.out)
    return 0


def verify(
    system: CoxeterSystem,
    dfa: fsa.Dfa,
    max_len: int,
    class_budget: int = oracle.DEFAULT_CLASS_BUDGET,
) -> tuple[int, int, int, fsa.Word, str] | None:
    """Compare the words of length at most max_len that dfa accepts, one
    per CFC element if it is right, with the brute-force representatives.

    Returns None when they agree, and otherwise (length, automaton count,
    oracle count, witness, side): the witness is the shortest, then least,
    word accepted by exactly one side, side says which ("automaton only"
    or "oracle only"), and the counts, which may be equal, are those of
    the witness's length."""
    report = oracle.count_elements(
        system, max_len, kind="cfc", budget=class_budget, witnesses=True
    )
    assert report.witnesses is not None
    words = {w for ws in report.witnesses.values() for w in ws}
    prefixes = {w[:i] for w in words for i in range(len(w) + 1)}

    def step(p: fsa.Word, c: int) -> fsa.Word | None:
        return p + (c,) if p + (c,) in prefixes else None

    # the prefix trie of words: one state per prefix, the rest in the sink
    trie = fsa.explore((), step, words.__contains__, system.rank,
                       len(prefixes) + 1)
    witness = fsa.difference_witness(dfa, trie)
    if witness is None or len(witness) > max_len:
        return None
    k = len(witness)
    side = "oracle only" if witness in words else "automaton only"
    got = genfun.counted_genfun(dfa, k)[0][k]
    return k, got, report.counts()[k], witness, side


def cmd_verify(args) -> int:
    system = _load_system(args.system)
    a = cfc_automaton.build(system, "pipeline", args.state_budget)
    mismatch = verify(system, a, args.max_len, args.class_budget)
    if mismatch is None:
        print(f"ok: lengths 0..{args.max_len} agree")
        return 0
    k, got, want, witness, side = mismatch
    word = ",".join(system.names[g] for g in witness)
    print(f"mismatch at length {k}: automaton {got} vs oracle {want}")
    print(f"witness [{word}] ({side})")
    return 1


def _int_at_least(low: int):
    """An argparse type for integers of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return parse


def _common(
    sub: argparse.ArgumentParser,
    max_len: bool = False,
    out: bool = True,
    state_budget: bool = True,
    class_budget: bool = False,
) -> None:
    """Attach --system and those of the shared options the command reads."""
    sub.add_argument("--system", required=True,
                     help="preset name, JSON document, or path to a JSON file")
    if max_len:
        sub.add_argument("--max-len", type=_int_at_least(0), required=True,
                         dest="max_len")
    if out:
        sub.add_argument("--out", help="output path (default: stdout)")
    if state_budget:
        sub.add_argument("--state-budget", type=_int_at_least(1),
                         dest="state_budget", default=fsa.DEFAULT_STATE_BUDGET)
    if class_budget:
        sub.add_argument("--class-budget", type=_int_at_least(1),
                         dest="class_budget", default=oracle.DEFAULT_CLASS_BUDGET)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer drops a failed write: let main report it
        print(self.format_help(), end="", file=file, flush=True)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfcgf",
        description="Automata and generating functions for cyclically fully "
                    "commutative elements of Coxeter groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("automaton", help="build an automaton, emit JSON/DOT")
    _common(p)
    p.add_argument("--stage", choices=cfc_automaton.MODES, default="cfc")
    p.add_argument("--stats", action="store_true",
                   help="print raw, trimmed, and minimized state counts")
    p.add_argument("--dot", help="write DOT rendering to this path")
    p.set_defaults(func=cmd_automaton)

    p = subs.add_parser("series", help="per-length counts")
    _common(p, max_len=True)
    p.add_argument("--per-expression", action="store_const", const="cfc",
                   default="pipeline", dest="stage",
                   help="count reduced expressions instead of elements")
    p.set_defaults(func=cmd_series)

    p = subs.add_parser("genfun", help="rational generating function")
    _common(p)
    p.add_argument("--per-expression", action="store_const", const="cfc",
                   default="pipeline", dest="stage",
                   help="count reduced expressions instead of elements")
    p.set_defaults(func=cmd_genfun)

    p = subs.add_parser("oracle", help="brute-force counts (ground truth)")
    _common(p, max_len=True, state_budget=False, class_budget=True)
    p.add_argument("--stage", choices=["cfc", "fc"], default="cfc")
    p.add_argument("--witnesses", action="store_true",
                   help="include accepted words per length")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("verify", help="compare the pipeline against the oracle")
    _common(p, max_len=True, out=False, class_budget=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # counts and coefficients can pass the 4,300 digits that int -> str
    # allows by default on Python 3.10.7 and later
    getattr(sys, "set_int_max_str_digits", lambda limit: None)(0)
    # a stream whose descriptor was closed at start-up is None: give it one
    # open for reading only, so that writing there fails like any bad stream
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.open(os.devnull, os.O_RDONLY), "w"))
    args = None
    try:
        args = make_parser().parse_args(argv)  # --help writes stdout here
        code = args.func(args)
        sys.stdout.flush()  # a stdout that cannot be written fails here, not at exit
        return code
    except CfcError as exc:
        code, message = exc.exit_code, str(exc)
    except MemoryError:
        # name only the options that bound this command's work
        shrink = " or ".join(f"--{name.replace('_', '-')}" for name in
                             ("state_budget", "class_budget", "max_len")
                             if hasattr(args, name))
        code, message = 3, f"out of memory; a smaller {shrink} stops sooner"
    except OSError as exc:
        # commands report their files' errors as InputError: this is stdout's
        code, message = 2, f"cannot write stdout: {exc.strerror}"
    # flush what stdout holds, then the error line; a stream that cannot be
    # written is pointed at os.devnull, so the flush at exit cannot fail again
    for stream, text in ((sys.stdout, ""), (sys.stderr, f"error: {message}\n")):
        try:
            stream.write(text)
            stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
