"""Job lists, seeded inputs and answer checks for the cfcgf benchmark.

A job is one `cfcgf` invocation.  Its answer is checked against the frozen
brute-force references in `references.json` with code written here; the
only package code used is `cfcgf.core` (to rebuild the renamed system)
and `cfcgf.oracle` (the independent ground truth, for printed witnesses).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cfcgf import oracle
from cfcgf.core import INF, parse_system, preset_system

REFERENCES = Path(__file__).resolve().parent / "references.json"

TRIANGLES = {
    "tri-4-inf-2": [[1, 4, 2], [4, 1, "inf"], [2, "inf", 1]],
    "tri-inf": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]],
}

# Systems per workload.  The genfun list leaves out tA6 and tA7: at the
# seed `genfun` on tA6 alone takes more than two minutes.
GENFUN_SYSTEMS = ["tA3", "tA4", "tA5", "A6", "A7", "B5", "B6", "D5", "D6",
                  "tri-4-inf-2", "tri-inf"]
BUILD_SYSTEMS = ["tA6", "tA7", "A8", "A9", "B7", "D7"]
VERIFY_JOBS = [("tA3", 10), ("B5", 10), ("A6", 10), ("tri-4-inf-2", 11),
               ("tA5", 11)]

# Jobs that fail at the seed through known defects of the program (see
# ROADMAP.md and `known_defect` in references.json), with the kind of
# failure each shows.  They stay in the job lists and count as failed, so
# their fixes show in `failed` and `ok_share`.  A run's `correct` turns
# false when any job fails in a way not listed here.
KNOWN_FAILURES = {
    "genfun tA5": "wrong answer",
    "genfun tri-4-inf-2": "wrong answer",
    "verify tA5 @11": "out of memory",
}


def base_matrix(name: str) -> list[list]:
    """Coxeter matrix of a job system, with "inf" for infinite labels."""
    if name in TRIANGLES:
        return [row[:] for row in TRIANGLES[name]]
    return [["inf" if v == INF else v for v in row]
            for row in preset_system(name).matrix]


@dataclass(frozen=True)
class Job:
    key: str            # stable label, e.g. "genfun tA5"
    system: str         # reference key
    argv: tuple         # cfcgf arguments; "{out}" stands for the output file
    doc: str            # the --system value the program receives
    names: tuple        # generator names in the received system
    max_len: int | None = None
    stage: str | None = None


def relabeled(name: str, rng: random.Random | None) -> tuple[str, tuple]:
    """--system value and generator names.  Without rng: the preset name
    (or the triangle document) as is.  With rng: an explicit matrix
    document over the same matrix, its generators named by a random
    permutation of s0..s<n-1>.  Names only ride along for display, so the
    program does the same work for every seed."""
    m = base_matrix(name)
    n = len(m)
    if rng is None:
        doc = name if name not in TRIANGLES else json.dumps({"matrix": m})
        return doc, tuple(str(i) for i in range(n))
    names = [f"s{i}" for i in range(n)]
    rng.shuffle(names)
    return json.dumps({"generators": names, "matrix": m}), tuple(names)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for a seed: seed 0 keeps preset names and
    the listed order; any other seed renames the generators of every
    system and shuffles the order."""
    rng = random.Random(seed) if seed else None
    if workload == "genfun":
        specs = [(s, ("genfun",), None, None) for s in GENFUN_SYSTEMS]
    elif workload == "build":
        specs = [(s, ("automaton", "--stage", st, "--stats"), None, st)
                 for s in BUILD_SYSTEMS for st in ("pipeline", "fc")]
    elif workload == "verify":
        specs = [(s, ("verify", "--max-len", str(n)), n, None)
                 for s, n in VERIFY_JOBS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    for system, head, max_len, stage in specs:
        doc, names = relabeled(system, rng)
        argv = head + ("--system", doc)
        if workload != "verify":
            argv += ("--out", "{out}")
        key = " ".join([workload, system] + ([stage] if stage else [])
                       + ([f"@{max_len}"] if max_len is not None else []))
        jobs.append(Job(key, system, argv, doc, names, max_len, stage))
    if rng is not None:
        rng.shuffle(jobs)
    return jobs


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["systems"]


# ---------------------------------------------------------------------------
# Answer checks.  Each returns None when the answer is right, else a reason.

def series_of_quotient(num: list[int], den: list[int], terms: int) -> list:
    """Power-series division num/den to `terms` coefficients."""
    if not den or den[0] == 0:
        raise ValueError("denominator has no constant term")
    out: list = []
    for k in range(terms):
        acc = Fraction(num[k] if k < len(num) else 0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / den[0])
    return out


def count_dfa_by_length(doc: dict, max_len: int) -> list[int]:
    """Accepted words per length of an emitted automaton document, walking
    only states from which a final state is reachable."""
    delta = doc["delta"]
    finals = set(doc["finals"])
    back: list[list[int]] = [[] for _ in delta]
    for q, row in enumerate(delta):
        for r in row:
            back[r].append(q)
    live = set(finals)
    stack = list(finals)
    while stack:
        for p in back[stack.pop()]:
            if p not in live:
                live.add(p)
                stack.append(p)
    vec = {doc["initial"]: 1} if doc["initial"] in live else {}
    out = []
    for k in range(max_len + 1):
        out.append(sum(c for q, c in vec.items() if q in finals))
        nxt: dict[int, int] = {}
        for q, c in vec.items():
            for r in delta[q]:
                if r in live:
                    nxt[r] = nxt.get(r, 0) + c
        vec = nxt
    return out


def check_genfun(job: Job, ref: dict, stdout: str, out_text: str) -> str | None:
    if not re.search(r"^\(", stdout, re.M):
        return "no P/Q line on stdout"
    doc = json.loads(out_text)
    num = [int(c) for c in doc["num"]]
    den = [int(c) for c in doc["den"]]
    coeffs = [int(c) for c in doc["coeffs"]]
    want = ref["cfc_elements"]
    got = series_of_quotient(num, den, len(want))
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"P/Q gives {g} at length {k}, brute force {w}"
    for k, (g, w) in enumerate(zip(coeffs, want)):
        if g != w:
            return f"coeffs gives {g} at length {k}, brute force {w}"
    if series_of_quotient(num, den, len(coeffs)) != coeffs:
        return "P/Q does not re-expand to the emitted coeffs"
    return None


_STATES = re.compile(r"^states (\d+)$", re.M)


def check_build(job: Job, ref: dict, stdout: str, out_text: str) -> str | None:
    stats = _STATES.search(stdout)
    if not stats:
        return "no states line on stdout"
    doc = json.loads(out_text)
    if int(stats.group(1)) != len(doc["delta"]):
        return "--stats state count differs from the emitted automaton"
    want = ref["cfc_elements"] if job.stage == "pipeline" else ref["fc_words"]
    got = count_dfa_by_length(doc, len(want) - 1)
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"automaton accepts {g} words of length {k}, brute force {w}"
    return None


_OK = re.compile(r"^ok: lengths 0\.\.(\d+) agree$", re.M)
_MISMATCH = re.compile(
    r"^mismatch at length (\d+): automaton (\d+) vs oracle (\d+)\n"
    r"witness \[([^\]]*)\] \((automaton only|oracle only)\)$", re.M)


def check_verify(job: Job, ref: dict, stdout: str, exit_code: int) -> str | None:
    """An ok verdict must cover the requested lengths.  A mismatch must
    quote the brute-force count and print a word on which the automaton
    and the brute force really disagree, re-checked with cfcgf.oracle."""
    ok = _OK.search(stdout)
    if ok:
        if exit_code != 0 or int(ok.group(1)) != job.max_len:
            return "ok verdict with the wrong exit code or range"
        return None
    bad = _MISMATCH.search(stdout)
    if not bad or exit_code != 1:
        return "no verdict line"
    k, machine, brute = (int(bad.group(i)) for i in (1, 2, 3))
    want = ref["cfc_elements"]
    if k < len(want) and brute != want[k]:
        return f"oracle count {brute} at length {k}, reference {want[k]}"
    if machine == brute:
        return "mismatch reported between equal counts"
    system = parse_system(job.doc)
    letters = bad.group(4).split(",") if bad.group(4) else []
    if any(x not in job.names for x in letters):
        return "witness uses unknown generators"
    word = tuple(job.names.index(x) for x in letters)
    if len(word) != k:
        return "witness has the wrong length"
    counted = (oracle.is_cfc(system, word)
               and min(oracle.commutation_class(system, word)) == word)
    if counted != (bad.group(5) == "oracle only"):
        return "witness is not a disagreement"
    return None
