"""Record the expected per-degree counts of every verify triple.

    python3 perfbench/make_reference.py

For d = 4 and 5, every triple alpha <= beta <= gamma in I(d) is checked with
verify_main_theorem at the benchmark's max_degree, and its passed flag and
per-degree (total, n_initial, n_chains, n_standard) are written to
perfbench/reference/verify_d<d>.json.  The verify workloads compare their
answers with these files, so regenerate them only from a commit whose
answers are trusted.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import MAX_DEGREE, all_triples, report_summary, triple_key  # noqa: E402


def _check(job):
    from obrsk import IdElement, verify_main_theorem

    d, a, b, g = job
    report = verify_main_theorem(IdElement(a, d), IdElement(b, d), IdElement(g, d), MAX_DEGREE)
    return report_summary(report)


def write_reference(path, d, triples):
    """One triple per line, so that a changed answer shows as one changed line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(triples.items())]
    head = json.dumps({"d": d, "max_degree": MAX_DEGREE})[:-1]
    path.write_text(head + ', "triples": {\n' + ",\n".join(lines) + "\n}}\n")


def main():
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        for d in (4, 5):
            elements = all_triples(d)
            jobs = [(d, a.entries, b.entries, g.entries) for a, b, g in elements]
            results = pool.map(_check, jobs, chunksize=4)
            triples = {triple_key(*t): res for t, res in zip(elements, results)}
            out = HERE / "reference" / f"verify_d{d}.json"
            write_reference(out, d, triples)
            print(f"wrote {len(triples)} triples to {out.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
