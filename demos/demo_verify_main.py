"""Degreewise verification that the initial ideal matches the chain monomials.

Picks a triple alpha <= beta <= gamma in I(4), prints the Pfaffian
generators of the ideal, the Hilbert-style dimension counts, and the
degree-by-degree comparison of initial monomials against the combinatorial
prediction.

Run:  python3 demos/demo_verify_main.py
"""

from obrsk import (
    IdElement,
    generators,
    hilbert_counts,
    term_order,
    verify_main_theorem,
)


def main():
    d = 4
    alpha = IdElement((1, 2, 5, 6), d)
    beta = IdElement((2, 4, 6, 8), d)
    gamma = IdElement((3, 4, 7, 8), d)

    print(f"alpha = {alpha.entries}, beta = {beta.entries}, gamma = {gamma.entries}")
    print("variables, greatest first:", list(term_order(beta).variables))
    print()

    print("generators (theta outside the interval):")
    for theta, poly in generators(alpha, beta, gamma):
        print(f"  f{theta.entries} = {poly}")
    print()

    print("dimension counts:")
    for m, total, dim, quot in hilbert_counts(alpha, beta, gamma, 4):
        print(f"  degree {m}: total {total}, ideal {dim}, quotient {quot}")
    print()

    report = verify_main_theorem(alpha, beta, gamma, 4)
    for r in report.degrees:
        status = "ok" if r.passed else "MISMATCH"
        print(
            f"degree {r.m}: {status}  initial {r.n_initial} = chains {r.n_chains}, "
            f"standard {r.n_standard} spanning the quotient"
        )
    print("overall:", "PASS" if report.passed else "FAIL")


if __name__ == "__main__":
    main()
