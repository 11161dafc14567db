"""Command line front ends.

Four entry points share this module:

    obrsk apply|invert      the correspondence on JSON pairs / bitableaux
    og chains|wchain        chain combinatorics on the grid of beta
    ideal generators|hilbert|verify-main
    fixture replay          the frozen worked example

Exit codes: 0 success, 2 invalid input, 3 a verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from multiprocessing import Pool

from .arrays import SkewPair, TwoRowArray, is_negative_pair
from .correspondence import obrsk, obrsk_inverse, obrsk_negative_steps
from .errors import ObrskError, ValidationError
from .grassmannian import (
    ChainSign,
    IdElement,
    enumerate_extended_chains,
    enumerate_id,
    id_leq,
    roots_of,
    split_chain,
    w_of_chain,
)
from .ideal import generators, hilbert_counts, verify_main_theorem
from .polynomials import TermOrder
from .tableaux import NotchedBitableau, NotchedTableau
from . import fixture

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAILED = 3


# -- JSON shapes -------------------------------------------------------------


def pair_to_json(p):
    return {
        "pi1": {"b": list(p.b), "a": list(p.a)},
        "pi2": {"c": list(p.c), "d": list(p.d)},
    }


def pair_from_json(doc):
    try:
        return SkewPair(
            TwoRowArray(tuple(doc["pi1"]["b"]), tuple(doc["pi1"]["a"])),
            TwoRowArray(tuple(doc["pi2"]["c"]), tuple(doc["pi2"]["d"])),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed pair document: {exc}")


def bitableau_to_json(b):
    return {"P": [list(r) for r in b.P.rows], "Q": [list(r) for r in b.Q.rows]}


def bitableau_from_json(doc):
    try:
        return NotchedBitableau(NotchedTableau(doc["P"]), NotchedTableau(doc["Q"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed bitableau document: {exc}")


def _read_doc(path):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read input: {exc}")


def _parse_id(text, d):
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}")
    return IdElement(entries, d)


def _parse_chain(text):
    try:
        points = []
        for part in text.replace(";", " ").split():
            r, c = part.split(",")
            points.append((int(r), int(c)))
        return tuple(points)
    except ValueError:
        raise ValidationError(f"expected points like '1,3 2,5', got {text!r}")


# -- obrsk -------------------------------------------------------------------


def obrsk_main(argv=None):
    parser = argparse.ArgumentParser(prog="obrsk", description="The bounded insertion correspondence.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_apply = sub.add_parser("apply", help="map a skew pair to its bitableau")
    p_apply.add_argument("--input", default=None, help="JSON pair file (default stdin)")
    p_apply.add_argument("--trace", action="store_true", help="emit every intermediate bitableau")
    p_invert = sub.add_parser("invert", help="map a bitableau back to its skew pair")
    p_invert.add_argument("--input", default=None, help="JSON bitableau file (default stdin)")
    args = parser.parse_args(argv)
    try:
        if args.command == "apply":
            pair = pair_from_json(_read_doc(args.input))
            out = bitableau_to_json(obrsk(pair))
            if args.trace:
                if not is_negative_pair(pair):
                    raise ValidationError("--trace is only available for negative pairs")
                trace = []
                for i, bit in enumerate(obrsk_negative_steps(pair), start=1):
                    trace.append(
                        {
                            f"P^({i})": [list(r) for r in bit.P.rows],
                            f"Q^({i})": [list(r) for r in bit.Q.rows],
                        }
                    )
                out["trace"] = trace
            print(json.dumps(out, indent=2))
        else:
            bit = bitableau_from_json(_read_doc(args.input))
            print(json.dumps(pair_to_json(obrsk_inverse(bit)), indent=2))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ObrskError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


# -- og ----------------------------------------------------------------------


def og_main(argv=None):
    parser = argparse.ArgumentParser(prog="og", description="Grid and chain combinatorics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_chains = sub.add_parser("chains", help="list the chains among the roots of beta")
    p_chains.add_argument("--d", type=int, required=True)
    p_chains.add_argument("--beta", required=True, help="comma-separated element of I(d)")
    p_w = sub.add_parser("wchain", help="the I(d) element attached to a sign-pure chain")
    p_w.add_argument("--d", type=int, required=True)
    p_w.add_argument("--beta", required=True)
    p_w.add_argument("--chain", required=True, help="points like '1,3 2,5'")
    p_w.add_argument("--sign", choices=["minus", "plus"], required=True)
    args = parser.parse_args(argv)
    try:
        beta = _parse_id(args.beta, args.d)
        if args.command == "chains":
            roots = roots_of(beta)
            doc = {
                "beta": list(beta.entries),
                "roots": [list(p) for p in roots],
                "chains": [],
            }
            for chain in enumerate_extended_chains(roots):
                neg, pos = split_chain(chain, beta)
                entry = {"points": [list(p) for p in chain]}
                if neg:
                    entry["w_minus"] = list(w_of_chain(neg, beta, ChainSign.MINUS).entries)
                if pos:
                    entry["w_plus"] = list(w_of_chain(pos, beta, ChainSign.PLUS).entries)
                doc["chains"].append(entry)
            print(json.dumps(doc, indent=2))
        else:
            chain = _parse_chain(args.chain)
            sign = ChainSign.MINUS if args.sign == "minus" else ChainSign.PLUS
            w = w_of_chain(chain, beta, sign)
            print(",".join(str(x) for x in w.entries))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ObrskError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


# -- ideal -------------------------------------------------------------------


def _verify_triple(job):
    d, a_entries, b_entries, g_entries, max_degree = job
    alpha = IdElement(a_entries, d)
    beta = IdElement(b_entries, d)
    gamma = IdElement(g_entries, d)
    report = verify_main_theorem(alpha, beta, gamma, max_degree)
    lines = []
    for r in report.degrees:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"  degree {r.m}: {status} (total {r.total}, initial {r.n_initial}, "
            f"chains {r.n_chains}, standard {r.n_standard})"
        )
    return report.passed, f"triple {alpha} <= {beta} <= {gamma}", lines


def ideal_main(argv=None):
    parser = argparse.ArgumentParser(prog="ideal", description="Pfaffian ideals and the degreewise main check.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_triple_args(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--alpha")
        p.add_argument("--beta")
        p.add_argument("--gamma")

    p_gen = sub.add_parser("generators", help="print the Pfaffian generators")
    add_triple_args(p_gen)
    p_hil = sub.add_parser("hilbert", help="quotient dimensions by degree")
    add_triple_args(p_hil)
    p_hil.add_argument("--max-degree", type=int, default=4)
    p_ver = sub.add_parser("verify-main", help="check initial ideal = chain monomials degreewise")
    add_triple_args(p_ver)
    p_ver.add_argument("--all-triples", action="store_true")
    p_ver.add_argument("--max-degree", type=int, default=3)
    p_ver.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        # verify-main must check at least one degree, or its PASS says nothing
        least_degree = {"hilbert": 0, "verify-main": 1}.get(args.command)
        if least_degree is not None and args.max_degree < least_degree:
            raise ValidationError(f"--max-degree must be at least {least_degree}, got {args.max_degree}")
        if args.command in ("generators", "hilbert") or not getattr(args, "all_triples", False):
            if not (args.alpha and args.beta and args.gamma):
                raise ValidationError("--alpha, --beta and --gamma are required without --all-triples")
            alpha = _parse_id(args.alpha, args.d)
            beta = _parse_id(args.beta, args.d)
            gamma = _parse_id(args.gamma, args.d)
            if not (id_leq(alpha, beta) and id_leq(beta, gamma)):
                raise ValidationError("need alpha <= beta <= gamma")
        if args.command == "generators":
            order = TermOrder(beta)
            for theta, poly in generators(alpha, beta, gamma, order):
                print(f"f({theta}) = {poly}")
            return EXIT_OK
        if args.command == "hilbert":
            for m, total, dim, quot in hilbert_counts(alpha, beta, gamma, args.max_degree):
                print(f"degree {m}: total {total}, ideal {dim}, quotient {quot}")
            return EXIT_OK
        # verify-main
        if args.all_triples:
            elements = enumerate_id(args.d)
            jobs = [
                (args.d, a.entries, b.entries, g.entries, args.max_degree)
                for b in elements
                for a in elements
                if id_leq(a, b)
                for g in elements
                if id_leq(b, g)
            ]
        else:
            jobs = [(args.d, alpha.entries, beta.entries, gamma.entries, args.max_degree)]
        if args.jobs > 1:
            with Pool(args.jobs) as pool:
                results = pool.map(_verify_triple, jobs)
        else:
            results = [_verify_triple(job) for job in jobs]
        all_ok = True
        for passed, header, lines in results:
            print(f"{'PASS' if passed else 'FAIL'} {header}")
            for line in lines:
                print(line)
            all_ok = all_ok and passed
        print(f"{'PASS' if all_ok else 'FAIL'}: {len(results)} triple(s) checked")
        return EXIT_OK if all_ok else EXIT_FAILED
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ObrskError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILED


# -- fixture -----------------------------------------------------------------


def fixture_main(argv=None):
    parser = argparse.ArgumentParser(prog="fixture", description="Replay the frozen worked example.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_replay = sub.add_parser("replay", help="recompute every recorded intermediate")
    p_replay.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    ok = fixture.replay(verbose=not args.quiet)
    print("PASS: worked example reproduced exactly" if ok else "FAIL: worked example mismatch")
    return EXIT_OK if ok else EXIT_FAILED


def main(argv=None):  # pragma: no cover - convenience dispatcher
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: obrsk|og|ideal|fixture ...", file=sys.stderr)
        return EXIT_INVALID
    prog, rest = argv[0], argv[1:]
    return {"obrsk": obrsk_main, "og": og_main, "ideal": ideal_main, "fixture": fixture_main}[prog](rest)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
