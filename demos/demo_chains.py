"""Chains on the grid of an element of I(d) and the elements they select.

For a chosen beta, lists the roots of its grid, enumerates the chains among
them, and for each chain prints the smaller (resp. larger) element of I(d)
cut out by its negative (resp. positive) part.

Run:  python3 demos/demo_chains.py
"""

from obrsk import (
    IdElement,
    enumerate_extended_chains,
    enumerate_id,
    roots_of,
    split_chain,
    w_of_chain,
)


def describe(beta):
    roots = roots_of(beta)
    print(f"beta = {beta.entries}, d = {beta.d}")
    print("roots of the grid:", list(roots))
    for chain in enumerate_extended_chains(roots):
        neg, pos = split_chain(chain, beta)
        parts = []
        if neg:
            w = w_of_chain(neg, beta)
            parts.append(f"w(C-) = {w.entries}")
        if pos:
            w = w_of_chain(pos, beta)
            parts.append(f"w(C+) = {w.entries}")
        print(f"  chain {list(chain)}: " + ", ".join(parts))
    print()


def main():
    for d in (2, 3):
        print(f"== I({d}) has {len(enumerate_id(d))} elements ==")
        for beta in enumerate_id(d):
            describe(beta)
    # one bigger grid for flavour
    describe(IdElement((2, 4, 6, 8), 4))


if __name__ == "__main__":
    main()
