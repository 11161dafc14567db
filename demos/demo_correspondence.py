"""Walk through the bounded insertion correspondence on the worked example.

Builds the five-column negative skew pair step by step, printing every
intermediate bitableau, then inverts the result and checks the round trip.

Run:  python3 demos/demo_correspondence.py
"""

from obrsk import classify_sign, obrsk_negative_steps, robrsk, validate_skew_pair
from obrsk.fixture import FIXTURE_PAIR


def show(bit, label):
    print(f"{label}:")
    width = max(bit.shape, default=0) * 4
    for prow, qrow in zip(bit.P, bit.Q):
        left = " ".join(f"{x:3d}" for x in prow)
        right = " ".join(f"{x:3d}" for x in qrow)
        print(f"  {left:<{width}}  |  {right}")
    print()


def main():
    pair = FIXTURE_PAIR
    print("pi1 (b over a):")
    print("  ", pair.b)
    print("  ", pair.a)
    print("pi2 (c over d):")
    print("  ", pair.c)
    print("  ", pair.d)
    print("violations:", validate_skew_pair(pair) or "none")
    print()

    final = None
    for i, bit in enumerate(obrsk_negative_steps(pair), start=1):
        show(bit, f"after column {i}")
        final = bit

    cls = classify_sign(final)
    print("sign of the image:", cls.kind.name)
    print("degree preserved:", final.degree == pair.degree)
    print("round trip:", robrsk(final) == pair)


if __name__ == "__main__":
    main()
