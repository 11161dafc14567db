"""The benchmark's recorded answers, checked outside the benchmark.

perfbench/reference/verify_d<d>.json holds, for every triple of I(4) and
I(5), the passed flag and the per-degree (total, n_initial, n_chains,
n_standard) of verify_main_theorem at the recorded max_degree.  The files
are only read here.
"""

import json
from pathlib import Path

import pytest

from obrsk.grassmannian import IdElement
from obrsk.ideal import verify_main_theorem

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("d, n_triples", [(4, 112), (5, 672)])
def test_reports_match_recorded_answers(d, n_triples):
    recorded = json.loads((REFERENCE / f"verify_d{d}.json").read_text())
    assert recorded["d"] == d and len(recorded["triples"]) == n_triples
    for key, want in recorded["triples"].items():
        alpha, beta, gamma = (IdElement(tuple(map(int, part.split(","))), d) for part in key.split("|"))
        report = verify_main_theorem(alpha, beta, gamma, recorded["max_degree"])
        got = [[r.total, r.n_initial, r.n_chains, r.n_standard] for r in report.degrees]
        assert (report.passed, got) == (want["passed"], want["degrees"]), key
