"""Run one `cfcgf` command with a span around every call into a layer.

    python perfbench/traced_cli.py SPANS_JSON SPAWN_NS -- <cfcgf arguments>

The package's public functions are wrapped from outside, then
`cfcgf.cli.main` runs as usual, so the calls happen in the order the
command makes them.  Spans stay in memory and are written to SPANS_JSON
when the command ends, however it ends.  SPAWN_NS is the parent's
CLOCK_MONOTONIC reading just before it started this process; the
`cli.import` span runs from there to the end of `import cfcgf.cli`.
Times are CLOCK_MONOTONIC nanoseconds, so they compare across processes.
Memory per span is the rise in the process's peak RSS while it was open:
tracemalloc was tried and slows `genfun.count_by_length` about tenfold.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.open: list[int] = []
        self.products = []  # intersect results, trimmed after the command

    def wrap(self, owner, attr: str, name: str, counts=None):
        """Replace owner.attr by a traced version; a function the package
        no longer has is left out, and its layer reads zero."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.open[-1] if self.open else None,
                    "start": now(), "peak_kb": peak_kb(), "error": None}
            self.spans.append(span)
            self.open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = now()
                span["peak_kb"] = peak_kb() - span["peak_kb"]
                self.open.pop()
            if counts is not None:
                try:
                    span.update(counts(result, *args, **kwargs))
                except (AttributeError, IndexError, TypeError):
                    span["counts_failed"] = True  # a changed signature
            return result

        setattr(owner, attr, traced)

    def install(self):
        from cfcgf import cfc_automaton, cli, fsa, genfun, lexnf, oracle

        def states(a, *args, **kwargs):
            return {"states": a.num_states}

        def product(a, *args, **kwargs):
            self.products.append(a)
            return {"states": a.num_states}

        def counted(seq, a, *args, **kwargs):
            return {"terms": len(seq),
                    "cells": len(seq) * a.num_states * a.alphabet_size}

        def classified(report, *args, **kwargs):
            # every frontier word is extended by every generator
            frontier = report.fc_counts[:-1]
            return {"words": sum(frontier) * report.system.rank}

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "parse_system", "core.parse_system")
        self.wrap(cfc_automaton, "build", "cfc_automaton.build", states)
        self.wrap(lexnf, "build", "lexnf.build", states)
        self.wrap(fsa, "intersect", "fsa.intersect", product)
        self.wrap(fsa, "trim", "fsa.trim", states)
        self.wrap(fsa, "minimize", "fsa.minimize", states)
        self.wrap(fsa.Dfa, "to_json", "fsa.to_json")
        self.wrap(fsa, "accepted_words", "fsa.accepted_words",
                  lambda words, *a, **k: {"words": len(words)})
        self.wrap(genfun, "count_by_length", "genfun.count_by_length", counted)
        self.wrap(genfun, "find_recurrence", "genfun.find_recurrence",
                  lambda rec, *a, **k: {"order": len(rec)})
        self.wrap(genfun, "to_rational", "genfun.to_rational")
        self.wrap(oracle, "count_elements", "oracle.count_elements", classified)


def main() -> int:
    spans_path, spawn_ns, dashes, *argv = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON SPAWN_NS -- ARGS...")
    import cfcgf.cli
    from cfcgf import fsa
    plain_trim = fsa.trim
    tracer = Tracer()
    tracer.install()
    tracer.spans.append({"name": "cli.import", "parent": None,
                         "start": int(spawn_ns), "end": now(),
                         "peak_kb": 0, "error": None})
    failure = None
    code = 1
    try:
        code = cfcgf.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # keep only the text, so the frames (and the memory they hold) go
        failure = traceback.format_exc()
    # extra counts, taken after the spans closed and outside them
    products = [[a.num_states, plain_trim(a).num_states] for a in tracer.products]
    tracer.products.clear()
    doc = {"spans": tracer.spans, "products": products}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if failure is not None:
        sys.stderr.write(failure)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
