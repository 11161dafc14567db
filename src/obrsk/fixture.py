"""A frozen worked example of the correspondence, with every intermediate.

The pair below is negative of width 5; applying the correspondence column by
column produces the five recorded intermediate bitableaux, the last of which
is the image.  `replay` re-runs the computation and reports any mismatch, and
also checks that the inverse map recovers the pair exactly.
"""

from __future__ import annotations

from .arrays import SkewPair
from .correspondence import obrsk_negative_steps, robrsk
from .tableaux import NotchedBitableau

FIXTURE_PAIR = SkewPair(
    (17, 17, 14, 10, 9),
    (4, 3, 3, 7, 4),
    (25, 22, 26, 26, 25),
    (20, 19, 15, 12, 12),
)

FIXTURE_STEPS = (
    NotchedBitableau(((4, 12),), ((17, 25),)),
    NotchedBitableau(((3, 12), (4, 12)), ((17, 26), (17, 25))),
    NotchedBitableau(((3, 12), (3, 12), (4, 15)), ((17, 26), (17, 26), (14, 25))),
    NotchedBitableau(
        ((3, 7, 12, 19), (3, 12), (4, 15)),
        ((10, 17, 22, 26), (17, 26), (14, 25)),
    ),
    NotchedBitableau(
        ((3, 4, 12, 19), (3, 7, 12, 20), (4, 15)),
        ((10, 17, 25, 26), (9, 17, 22, 26), (14, 25)),
    ),
)

FIXTURE_BITABLEAU = FIXTURE_STEPS[-1]


def replay(verbose=False):
    """Re-run the worked example.  Returns True iff every intermediate and the
    round trip through the inverse map match the frozen values exactly."""
    ok = True
    for i, bit in enumerate(obrsk_negative_steps(FIXTURE_PAIR), start=1):
        expected = FIXTURE_STEPS[i - 1]
        match = bit == expected
        ok = ok and match
        if verbose or not match:
            status = "ok" if match else "MISMATCH"
            print(f"step {i}: {status}")
            print(f"  P^({i}) = {list(bit.P)}")
            print(f"  Q^({i}) = {list(bit.Q)}")
            if not match:
                print(f"  expected P^({i}) = {list(expected.P)}")
                print(f"  expected Q^({i}) = {list(expected.Q)}")
    back = robrsk(FIXTURE_BITABLEAU)
    match = back == FIXTURE_PAIR
    ok = ok and match
    if verbose or not match:
        print(f"inverse round trip: {'ok' if match else 'MISMATCH'}")
        if not match:
            print(f"  recovered {back}")
    return ok
