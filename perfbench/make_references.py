"""Regenerate perfbench/references.json from the brute-force oracle.

    python3 perfbench/make_references.py [SYSTEM ...]

Uses only `cfcgf.oracle` (and `cfcgf.core` to name the systems), the
package's independent ground truth.  For every benchmark system it records,
per length up to the depth in LENGTHS: CFC elements, FC elements, and FC
words (the sum of commutation-class sizes over the FC representatives,
which is what the `--stage fc` automaton accepts).  With system names only
those entries are recomputed and the rest of the file is kept.  The depths
are chosen so every system takes at most a few minutes on one core; the
ones that reach a known defect are noted in KNOWN_DEFECTS.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cfcgf import oracle  # noqa: E402
from cfcgf.core import parse_system  # noqa: E402
from workloads import REFERENCES, TRIANGLES  # noqa: E402

# name -> (depth of the CFC counts, depth of the FC counts).  The FC pass
# skips the cyclic test, so it reaches further on the large build systems.
LENGTHS = {
    "tA3": (14, 14), "tA4": (12, 12), "tA5": (11, 11),
    "A6": (13, 13), "A7": (7, 7), "B5": (16, 16), "B6": (11, 11),
    "D5": (11, 11), "D6": (16, 16), "tri-4-inf-2": (15, 15), "tri-inf": (13, 13),
    "tA6": (8, 9), "tA7": (5, 8), "A8": (5, 8), "A9": (5, 8),
    "B7": (6, 8), "D7": (6, 8),
}

KNOWN_DEFECTS = {
    "tA5": "length 11: the shipped pipeline counts 6, brute force 0; "
           "genfun's x^11 numerator coefficient is -90 instead of -96",
    "tri-4-inf-2": "length 9: the pipeline counts 23, brute force 24 "
                   "(and 48 against 50 at length 11)",
    "tA6": "length 13: the pipeline counts 14, brute force 0; brute force "
           "to length 13 takes more than 10 minutes, so this reference "
           "stops short of the defect and the build workload cannot see it",
}


def reference(name: str, cfc_len: int, fc_len: int) -> dict:
    text = json.dumps({"matrix": TRIANGLES[name]}) if name in TRIANGLES else name
    system = parse_system(text)
    start = time.perf_counter()
    cfc = oracle.count_elements(system, cfc_len, kind="cfc")
    fc = oracle.count_elements(system, fc_len, kind="fc", witnesses=True)
    fc_words = [sum(len(oracle.commutation_class(system, w)) for w in fc.witnesses[k])
                for k in range(fc_len + 1)]
    entry = {
        "cfc_elements": cfc.counts(),
        "fc_elements": fc.counts(),
        "fc_words": fc_words,
        "seconds": round(time.perf_counter() - start, 1),
    }
    if name in KNOWN_DEFECTS:
        entry["known_defect"] = KNOWN_DEFECTS[name]
    return entry


def main(names: list[str]) -> int:
    doc = {"systems": {}}
    if names and REFERENCES.exists():
        doc = json.loads(REFERENCES.read_text())
    for name in names or list(LENGTHS):
        entry = reference(name, *LENGTHS[name])
        print(f"{name}: CFC to length {LENGTHS[name][0]}, FC to "
              f"{LENGTHS[name][1]}, in {entry['seconds']} s", flush=True)
        doc["systems"][name] = entry
    doc["systems"] = dict(sorted(doc["systems"].items()))
    doc["generated_with"] = f"python {sys.version.split()[0]}"
    REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
