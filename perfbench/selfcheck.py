"""Checks that the benchmark's own checks and counters are not vacuous.

    python3 perfbench/selfcheck.py

1. A corrupted expectation must be counted as failed: one verify_d4 triple
   with a wrong reference entry, and certify_pairs with a wrong count.
2. A traced verify_d4 pass must count what the seed commit does: 7,474
   pfaffian_generator calls, 15,270 obrsk calls, 9,296 is_quotient_monomial
   calls and 19,166 rows offered to elimination.  A wrapper patched into the
   wrong namespace reads zero here.
3. The traced passes must show the seed commit's profile in shape: on
   verify_d5 slice construction plus rank_with take more than 3/4 of the
   timed phase, on certify_pairs enumeration more than 9/10, and on
   verify_d4 the monomial predicate, its obrsk calls included, between 1/4
   and 1/2.

Parts 2 and 3 describe the seed commit; a change that removes work on
purpose moves them and says so.  Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import run_pass  # noqa: E402
from workloads import CertifyWorkload, VerifyWorkload, triple_key, verify_d4  # noqa: E402

SEED_COUNTS = {
    "ideal.pfaffian_calls": 7474,
    "correspondence.obrsk_calls": 15270,
    "grassmannian.predicate_calls": 9296,
    "ideal.slice_rows": 19166,
}


def main():
    results = []

    def check(name, ok, detail):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    full = verify_d4(0)
    triples = full.triples[:6]
    clean = VerifyWorkload(triples, full.reference).run()
    check("verify reference, control", clean.failed == 0, f"{clean.failed}/{clean.attempted} failed")
    corrupted = copy.deepcopy(full.reference)
    corrupted[triple_key(*triples[2])]["degrees"][0][1] += 1
    bad = VerifyWorkload(triples, corrupted).run()
    check("verify reference, corrupted", bad.failed == 1, f"{bad.failed}/{bad.attempted} failed")

    certify = CertifyWorkload(0)
    certify.expected["negative"] += 1
    bad = certify.run()
    check("certify counts, corrupted", bad.failed == 1, f"{bad.failed}/{bad.attempted} failed")

    d4 = run_pass("verify_d4", 0, traced=True)["layers"]
    for name, want in SEED_COUNTS.items():
        check(f"verify_d4 {name}", d4[name] == want, f"{d4[name]} (seed {want})")

    d5 = run_pass("verify_d5", 0, traced=True)["layers"]
    elimination = d5["ideal.slice_share"] + d5["ideal.rank_with_share"]
    check("verify_d5 elimination share", elimination > 0.75, f"{elimination:.3f} > 0.75")
    pairs = run_pass("certify_pairs", 0, traced=True)["layers"]
    check("certify_pairs enumeration share", pairs["enumeration.enum_share"] > 0.9,
          f"{pairs['enumeration.enum_share']:.3f} > 0.9")
    predicate = d4["grassmannian.predicate_total_share"]
    check("verify_d4 predicate share", 0.25 <= predicate <= 0.5, f"0.25 <= {predicate:.3f} <= 0.5")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
