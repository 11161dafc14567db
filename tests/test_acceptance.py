"""End-to-end acceptance checks, one per criterion, each printing a verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL lines
as they are produced; without -s they still appear for failing checks.
"""

import itertools
import time
from collections import Counter
from functools import lru_cache

from obrsk.arrays import psi_inv
from obrsk.cli import ideal_main
from obrsk.correspondence import obrsk, robrsk
from obrsk.enumeration import enumerate_negative_bitableaux, enumerate_negative_pairs, enumerate_nonvanishing_pairs
from obrsk.fixture import replay
from obrsk.grassmannian import IdElement, enumerate_id, id_leq, is_quotient_monomial, roots_of
from obrsk.ideal import pfaffian_generator
from obrsk.polynomials import TermOrder
from obrsk.tableaux import (
    SignKind,
    classify_sign,
    validate_skew_symmetric,
)
from oracles import (
    L_involution,
    determinant,
    diff_leq,
    enumerate_bound_sets,
    iota,
    order_disagreements,
    pair_up_down_sets,
    pfaffian_matrix,
    plane_diff,
    psi,
    split_parts,
    up_down,
)


def report(n, name, ok, elapsed):
    print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]")
    assert ok, f"acceptance criterion {n} ({name}) failed"


def test_criterion_1_worked_example_replay():
    t0 = time.perf_counter()
    ok = replay(verbose=False)
    elapsed = time.perf_counter() - t0
    report(1, "worked example replay", ok and elapsed < 1.0, elapsed)


def test_criterion_2_negative_bijection_exhaustive():
    # entries up to 6, width up to 2: the correspondence is a degree-preserving
    # bijection onto the independently enumerated codomain
    t0 = time.perf_counter()
    ok = True
    pairs = enumerate_negative_pairs(6, 2)
    bitableaux = enumerate_negative_bitableaux(6, 4)
    images = set()
    for p in pairs:
        image = obrsk(p)
        ok = ok and validate_skew_symmetric(image)
        ok = ok and classify_sign(image).kind is SignKind.NEGATIVE
        ok = ok and image.degree == p.degree
        ok = ok and robrsk(image) == p
        images.add(image)
    ok = ok and len(pairs) == len(bitableaux) == 157
    ok = ok and Counter(p.degree for p in pairs) == Counter(b.degree for b in bitableaux)
    ok = ok and images == set(bitableaux)
    elapsed = time.perf_counter() - t0
    report(2, "negative bijection, entries <= 6", ok and elapsed < 120, elapsed)


def test_criterion_3_involutions():
    t0 = time.perf_counter()
    ok = True
    for p in enumerate_nonvanishing_pairs(6, 2):
        ok = ok and L_involution(L_involution(p)) == p
        ok = ok and psi_inv(*psi(p)) == p
        neg, pos = split_parts(p)
        image = obrsk(p)
        ok = ok and iota(iota(image)) == image
        n = classify_sign(image).negative_rows
        ok = ok and sum(map(len, image.P[:n])) == neg.degree
        ok = ok and sum(map(len, image.P[n:])) == pos.degree
    elapsed = time.perf_counter() - t0
    report(3, "involutions and splitting", ok and elapsed < 120, elapsed)


def test_criterion_4_boundedness_preservation():
    # whenever every dual pair of chains inside psi(p) respects the bounds
    # (T, W), the image bitableau is bounded by (T, W) as well
    t0 = time.perf_counter()

    @lru_cache(maxsize=None)
    def leq(x, y):
        return diff_leq(plane_diff(x), plane_diff(y))

    t_sets = enumerate_bound_sets(6, 2, -1)
    w_sets = enumerate_bound_sets(6, 2, +1)
    checked = 0
    violations = 0
    for p in enumerate_negative_pairs(6, 2) + [
        q for q in enumerate_nonvanishing_pairs(5, 2)
    ]:
        u1, u2 = psi(p)
        ups, downs = pair_up_down_sets(u1, u2)
        ups = tuple(set(ups))
        downs = tuple(set(downs))
        image = obrsk(p)
        up_img, down_img = up_down(image)
        for t in t_sets:
            if not all(leq(t, up) for up in ups):
                continue
            for w in w_sets:
                if not all(leq(down, w) for down in downs):
                    continue
                checked += 1
                if not (leq(t, up_img) and leq(down_img, w)):
                    violations += 1
    ok = violations == 0 and checked > 100_000
    elapsed = time.perf_counter() - t0
    report(4, f"boundedness preserved ({checked} checks)", ok and elapsed < 300, elapsed)


def test_criterion_5_main_theorem(capsys):
    t0 = time.perf_counter()
    ok = True
    ok = ok and ideal_main(["verify-main", "--d", "2", "--all-triples", "--max-degree", "4"]) == 0
    ok = ok and ideal_main(["verify-main", "--d", "3", "--all-triples", "--max-degree", "4"]) == 0
    ok = (
        ok
        and ideal_main(
            [
                "verify-main", "--d", "4", "--alpha", "1,2,5,6", "--beta", "2,4,6,8",
                "--gamma", "3,4,7,8", "--max-degree", "3",
            ]
        )
        == 0
    )
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(5, "initial ideal = chain monomials", ok and elapsed < 600, elapsed)


def test_criterion_6_predicate_routes_agree():
    # is_quotient_monomial computes both the chain-membership route and the
    # boundedness route and raises if they ever disagree
    t0 = time.perf_counter()
    ok = True
    for beta in enumerate_id(3):
        roots = roots_of(beta)
        for alpha in enumerate_id(3):
            if not id_leq(alpha, beta):
                continue
            for gamma in enumerate_id(3):
                if not id_leq(beta, gamma):
                    continue
                for k in range(4):
                    for u in itertools.combinations_with_replacement(roots, k):
                        is_quotient_monomial(u, alpha, beta, gamma)
    elapsed = time.perf_counter() - t0
    report(6, "monomial predicate routes agree", ok and elapsed < 120, elapsed)


def test_criterion_7_term_orders_well_formed():
    # every pair of each built order against the paper's case rules: a
    # relation that agrees with a list on every pair is a strict total order
    t0 = time.perf_counter()
    ok = True
    for d in (2, 3, 4, 5):
        for beta in enumerate_id(d):
            order = TermOrder(beta)
            ok = ok and order.nvars == len(set(order.variables)) and not order_disagreements(order.variables)
    elapsed = time.perf_counter() - t0
    report(7, "term orders total and transitive, d <= 5", ok and elapsed < 30, elapsed)


def test_criterion_8_pfaffian_certificates():
    # Pf(A)^2 = det(A) exactly, for every pair in I(3) and a d = 4 case: the
    # shipped f(theta) squared against the Leibniz determinant of the matrix
    # read off the paper's patch rule
    t0 = time.perf_counter()
    ok = True
    cases = [(theta, beta) for beta in enumerate_id(3) for theta in enumerate_id(3)]
    cases.append((IdElement((1, 3, 5, 7), 4), IdElement((2, 4, 6, 8), 4)))
    for theta, beta in cases:
        if theta.entries == beta.entries:
            continue
        pf = pfaffian_generator(theta, beta)
        ok = ok and pf * pf == determinant(pfaffian_matrix(theta, beta))
    elapsed = time.perf_counter() - t0
    report(8, "Pfaffian squared equals determinant", ok and elapsed < 60, elapsed)
