"""Command line front ends.

Four entry points share this module:

    obrsk apply|invert      the correspondence on JSON pairs / bitableaux
    og chains|wchain        chain combinatorics on the grid of beta
    ideal generators|hilbert|verify-main
    fixture replay          the frozen worked example

Exit codes: 0 success, 2 invalid input, 3 a verification failed.  The
library checks every input, so the JSON readers only find the rows.  A
command's output goes to stdout when it has finished; if the reader has
closed the pipe by then, the exit code is still the command's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from multiprocessing import Pool

from .arrays import SkewPair
from .correspondence import obrsk, obrsk_inverse, obrsk_negative_steps
from .errors import ObrskError, ValidationError
from .grassmannian import (
    IdElement,
    enumerate_extended_chains,
    enumerate_id,
    id_leq,
    roots_of,
    split_chain,
    w_of_chain,
)
from .ideal import generators, hilbert_counts, slice_size, verify_main_theorem
from .tableaux import NotchedBitableau
from . import fixture

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAILED = 3

# The largest --d accepted.  I(d) has 2^(d-1) elements and listing the
# triples for --all-triples takes time growing like 8^d: about 1 s for the
# 183,040 triples at d = 8, and each further d multiplies both by 7 to 8.
MAX_D = 8

# The largest degree slice accepted, in monomials: every beta has d(d-1)/2
# roots, so --max-degree m asks for slice_size(d(d-1)/2, m) of them.  One
# x86-64 core with Python 3.11 checks the d = 5 triple 1,2,3,4,5 <=
# 1,2,3,4,5 <= 2,3,4,6,10 up to m = 9, whose last slice has 48,620
# monomials, in 1.1 s at a peak of 58 MiB; time and memory grow a little
# faster than the slice.  The products of Pfaffians (per beta) and the slice
# columns (per degree) are memoised for every later triple, so --all-triples
# holds more than one triple's worth: its peak is 28 MiB at d = 5, m <= 4
# and 41 MiB at d = 6, m <= 3, against 20 and 26 MiB when every triple
# rebuilt them.
MAX_SLICE_MONOMIALS = 50_000

# The largest --max-degree accepted.  Where beta has one root or none every
# slice has at most one monomial, so MAX_SLICE_MONOMIALS never binds, but
# the multichains and their products (kept per beta) still grow with the
# degree.  On the core above, at m = 2,000, verify-main --d 2 --all-triples
# takes 1.8 s at a peak of 52 MiB, and the d = 1 runs and hilbert 0.2 s at
# 19 MiB; at m = 4,000 the d = 2 run takes 7.8 s at 149 MiB.
MAX_DEGREE = 2_000

# The largest --jobs accepted: each worker is a full interpreter of about
# 20 MiB before it checks anything, so 16 of them hold about 320 MiB, and
# each keeps its own memos of the triples it is handed.
MAX_JOBS = 16


# -- JSON shapes -------------------------------------------------------------


def pair_to_json(p):
    return {
        "pi1": {"b": list(p.b), "a": list(p.a)},
        "pi2": {"c": list(p.c), "d": list(p.d)},
    }


def pair_from_json(doc):
    try:
        return SkewPair(doc["pi1"]["b"], doc["pi1"]["a"], doc["pi2"]["c"], doc["pi2"]["d"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed pair document: {exc}")


def bitableau_to_json(b):
    return {"P": [list(r) for r in b.P], "Q": [list(r) for r in b.Q]}


def bitableau_from_json(doc):
    try:
        return NotchedBitableau(doc["P"], doc["Q"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed bitableau document: {exc}")


def _read_doc(path):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    # ValueError: bad JSON, bytes that are not UTF-8, an integer past the
    # digit limit; RecursionError: nesting past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read input: {exc}")


def _check_d(d):
    if not 1 <= d <= MAX_D:
        raise ValidationError(f"--d must be in 1..{MAX_D}, got {d}")


def _exit_code(command, args):
    """Run command(args) and return its exit code; a ValidationError gives
    EXIT_INVALID and any other ObrskError EXIT_FAILED, with the message on
    stderr.

    The command prints into a buffer, which goes to stdout when it is done,
    so its exit code stands even if the reader has closed the pipe by then
    (`| head -1`): the rest of the output is dropped, with no traceback."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            for name, value in vars(args).items():
                # argparse turns "--opt=--" into an empty list; no option takes one
                if isinstance(value, list):
                    raise ValidationError(f"--{name.replace('_', '-')} needs a value, got {value!r}")
            code = command(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INVALID
    except ObrskError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        code = EXIT_FAILED
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered, and the interpreter's flush at exit, go to
        # os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


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
    return _exit_code(_obrsk_command, parser.parse_args(argv))


def _obrsk_command(args):
    if args.command == "apply":
        pair = pair_from_json(_read_doc(args.input))
        out = bitableau_to_json(obrsk(pair))
        if args.trace:
            trace = []
            for i, bit in enumerate(obrsk_negative_steps(pair), start=1):
                trace.append(
                    {
                        f"P^({i})": [list(r) for r in bit.P],
                        f"Q^({i})": [list(r) for r in bit.Q],
                    }
                )
            out["trace"] = trace
        print(json.dumps(out, indent=2))
    else:
        bit = bitableau_from_json(_read_doc(args.input))
        print(json.dumps(pair_to_json(obrsk_inverse(bit)), indent=2))
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
    return _exit_code(_og_command, parser.parse_args(argv))


def _og_command(args):
    _check_d(args.d)
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
                entry["w_minus"] = list(w_of_chain(neg, beta).entries)
            if pos:
                entry["w_plus"] = list(w_of_chain(pos, beta).entries)
            doc["chains"].append(entry)
        print(json.dumps(doc, indent=2))
    else:
        w = w_of_chain(_parse_chain(args.chain), beta)
        print(",".join(str(x) for x in w.entries))
    return EXIT_OK


# -- ideal -------------------------------------------------------------------


def _verify_triple(job):
    alpha, beta, gamma, max_degree = job
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
    return _exit_code(_ideal_command, parser.parse_args(argv))


def _ideal_command(args):
    _check_d(args.d)
    # verify-main must check at least one degree, or its PASS says nothing
    least_degree = {"hilbert": 0, "verify-main": 1}.get(args.command)
    if least_degree is not None and not least_degree <= args.max_degree <= MAX_DEGREE:
        raise ValidationError(f"--max-degree must be in {least_degree}..{MAX_DEGREE}, got {args.max_degree}")
    if args.command == "verify-main" and not 1 <= args.jobs <= MAX_JOBS:
        raise ValidationError(f"--jobs must be in 1..{MAX_JOBS}, got {args.jobs}")
    all_triples = getattr(args, "all_triples", False)  # verify-main only
    if all_triples:
        named = [f"--{name}" for name in ("alpha", "beta", "gamma") if getattr(args, name) is not None]
        if named:
            raise ValidationError(f"--all-triples checks every triple, so it takes no {', '.join(named)}")
    else:
        if not (args.alpha and args.beta and args.gamma):
            raise ValidationError("--alpha, --beta and --gamma are required without --all-triples")
        alpha = _parse_id(args.alpha, args.d)
        beta = _parse_id(args.beta, args.d)
        gamma = _parse_id(args.gamma, args.d)
    if args.command == "generators":
        for theta, poly in generators(alpha, beta, gamma):
            print(f"f({theta}) = {poly}")
        return EXIT_OK
    # refuse before any slice is built
    largest = slice_size(args.d * (args.d - 1) // 2, args.max_degree)
    if largest > MAX_SLICE_MONOMIALS:
        raise ValidationError(
            f"--max-degree {args.max_degree} needs a slice of {largest} monomials, more than {MAX_SLICE_MONOMIALS}"
        )
    if args.command == "hilbert":
        for m, total, dim, quot in hilbert_counts(alpha, beta, gamma, args.max_degree):
            print(f"degree {m}: total {total}, ideal {dim}, quotient {quot}")
        return EXIT_OK
    # verify-main
    if all_triples:
        elements = enumerate_id(args.d)
        jobs = [
            (a, b, g, args.max_degree)
            for b in elements
            for a in elements
            if id_leq(a, b)
            for g in elements
            if id_leq(b, g)
        ]
    else:
        jobs = [(alpha, beta, gamma, args.max_degree)]
    # one job runs in this process, and no worker starts without a job
    processes = min(args.jobs, len(jobs))
    if processes > 1:
        with Pool(processes) as pool:
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


# -- fixture -----------------------------------------------------------------


def fixture_main(argv=None):
    parser = argparse.ArgumentParser(prog="fixture", description="Replay the frozen worked example.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_replay = sub.add_parser("replay", help="recompute every recorded intermediate")
    p_replay.add_argument("--quiet", action="store_true")
    return _exit_code(_fixture_command, parser.parse_args(argv))


def _fixture_command(args):
    ok = fixture.replay(verbose=not args.quiet)
    print("PASS: worked example reproduced exactly" if ok else "FAIL: worked example mismatch")
    return EXIT_OK if ok else EXIT_FAILED


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    mains = {"obrsk": obrsk_main, "og": og_main, "ideal": ideal_main, "fixture": fixture_main}
    if not argv or argv[0] not in mains:
        print("usage: obrsk|og|ideal|fixture ...", file=sys.stderr)
        return EXIT_INVALID
    return mains[argv[0]](argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
