"""A committed mutation suite: one-place text changes to the package, each of
which a named tier-1 test must catch.

Run it from the root of a checkout (it takes a minute or two):

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named mutants only

Each mutant is applied to a copy of src, tests and pyproject.toml in a
temporary directory, never to the checkout, and `pytest -x -q` runs the
mutant's killing test there.  First the killing tests run on the unchanged
copy, which they must pass; then each mutant runs, and a table gives its
name, its result (killed, survived, or error when pytest could not run the
test) and its time.  The exit code is 0 exactly when every mutant is killed.

pytest does not collect this file.  tests/test_mutants.py checks that each
anchor occurs exactly once in its file and that each killing test exists, so
the list cannot silently rot when the code it mutates changes.  A mutant that
survives is answered with a test that kills it, not by deleting the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the root of the checkout
    anchor: str  # text that occurs exactly once in the file
    replacement: str
    killer: str  # pytest node id of the test expected to kill it


MUTANTS = (
    # the three verdicts of the main check
    Mutant(
        "counts always match",
        "src/obrsk/ideal.py",
        "counts = len(std) == slice_m.total - slice_m.dim",
        "counts = True",
        "tests/test_cli.py::test_main_check_fails_on_a_missing_standard_monomial",
    ),
    Mutant(
        "standard products always independent",
        "src/obrsk/ideal.py",
        "independent = slice_m.rank_with(std_polys) == slice_m.dim + len(std)",
        "independent = True",
        "tests/test_cli.py::test_main_check_fails_on_dependent_standard_products",
    ),
    Mutant(
        "initial ideal always matches the chains",
        "src/obrsk/ideal.py",
        "initial_matches_chains=initial == chains,",
        "initial_matches_chains=True,",
        "tests/test_cli.py::test_verify_main_exits_3_when_a_degree_fails",
    ),
    # the Pfaffian generators
    Mutant(
        "matching sign not alternated",
        "src/obrsk/ideal.py",
        "sign if pos % 2 else -sign",
        "sign",
        "tests/test_ideal.py::test_pfaffian_squared_is_determinant",
    ),
    Mutant(
        "different d let through",
        "src/obrsk/ideal.py",
        'if theta.d != beta.d:\n        raise DimensionMismatch(f"theta in I({theta.d}) against beta in I({beta.d})")\n    ',
        "",
        "tests/test_ideal.py::test_pfaffian_rejects_odd_size",
    ),
    # the chain side and the degree slices
    Mutant(
        "minimality filter dropped",
        "src/obrsk/grassmannian.py",
        "if not any(kept <= chain for kept in minimal):",
        "if True:",
        "tests/test_grassmannian.py::test_defining_chains_are_sign_pure_and_minimal",
    ),
    Mutant(
        "rank_with ignores the standard rows",
        "src/obrsk/ideal.py",
        "_rref(self.rows + self._clear(map(self.vector_of, polys)))",
        "_rref(self.rows)",
        "tests/test_acceptance.py::test_criterion_5_main_theorem",
    ),
    Mutant(
        "one-term generators not cleared",
        "src/obrsk/ideal.py",
        "self.cleared.update(_shifted_columns(g.terms[0][0], m))",
        "pass",
        "tests/test_acceptance.py::test_criterion_5_main_theorem",
    ),
    # what the chain side takes from its inputs, and the certificates for it
    Mutant(
        "sign split flipped",
        "src/obrsk/grassmannian.py",
        "(neg if p[0] < p[1] else pos).append(p)",
        "(neg if p[0] > p[1] else pos).append(p)",
        "tests/test_grassmannian.py::test_roots_are_the_root_positions_of_the_paper_grid_through_d8",
    ),
    Mutant(
        "phi without the middle swap at odd d",
        "src/obrsk/grassmannian.py",
        "return _middle_swap(c, d), _middle_swap(r, d)",
        "return c, r",
        "tests/test_grassmannian.py::test_phi_maps_the_roots_of_beta_onto_those_of_its_mirror_through_d8",
    ),
    Mutant(
        "phi without the transpose",
        "src/obrsk/grassmannian.py",
        "return _middle_swap(c, d), _middle_swap(r, d)",
        "return _middle_swap(r, d), _middle_swap(c, d)",
        "tests/test_grassmannian.py::test_phi_maps_the_roots_of_beta_onto_those_of_its_mirror_through_d8",
    ),
    Mutant(
        "counting-order operands swapped",
        "src/obrsk/grassmannian.py",
        "rows_leq(limit, operand)",
        "rows_leq(operand, limit)",
        "tests/test_grassmannian.py::test_quotient_routes_agree_d3",
    ),
    Mutant(
        "half bound rows the other way round",
        "src/obrsk/grassmannian.py",
        "return tuple(sorted(aset - bset)), tuple(sorted(bset - aset))",
        "return tuple(sorted(bset - aset)), tuple(sorted(aset - bset))",
        "tests/test_grassmannian.py::test_half_bounds_through_d8_are_signed_plane_sets",
    ),
    # the correspondence and the checks of its codomain
    Mutant(
        "prefix conflict mask not carried",
        "src/obrsk/enumeration.py",
        "prefix_conflicts | row_conflicts",
        "row_conflicts",
        "tests/test_enumeration.py::test_bitableau_search_returns_only_valid_bitableaux_of_its_kind",
    ),
    Mutant(
        "row differences not compared",
        "src/obrsk/enumeration.py",
        "if last is not None and not rows_leq(last, row):",
        "if False:",
        "tests/test_enumeration.py::test_bitableau_search_returns_only_valid_bitableaux_of_its_kind",
    ),
    Mutant(
        "rows compared where their difference rises",
        "src/obrsk/tableaux.py",
        "{*q1, *p2}",
        "{*q2, *p1}",
        "tests/test_tableaux.py::test_semistandard_equals_the_row_differences_on_every_two_row_bitableau",
    ),
    Mutant(
        "row signs swapped",
        "src/obrsk/tableaux.py",
        "if all(map(lt, prow, qrow)):\n        return -1\n    if all(map(gt, prow, qrow)):",
        "if all(map(gt, prow, qrow)):\n        return -1\n    if all(map(lt, prow, qrow)):",
        "tests/test_tableaux.py::test_row_sign_equals_the_sorted_entries_definition",
    ),
    Mutant(
        "pair-search prefix conflicts not carried",
        "src/obrsk/enumeration.py",
        "prefix_conflicts | col_conflicts",
        "col_conflicts",
        "tests/test_enumeration.py::test_pair_search_returns_only_valid_pairs_of_its_kind",
    ),
    Mutant(
        "dual column conditions not checked",
        "src/obrsk/enumeration.py",
        "if not dual_column_violations(col1, (c, d), 0, 0):",
        "if True:",
        "tests/test_enumeration.py::test_pair_search_returns_only_valid_pairs_of_its_kind",
    ),
    Mutant(
        "vanishing column let through",
        "src/obrsk/correspondence.py",
        'if any(a == b for a, b, _, _ in steps):\n        raise VanishingColumn("a column with equal entries has no sign")\n    ',
        "",
        "tests/test_correspondence.py::test_obrsk_refuses_a_vanishing_column",
    ),
    Mutant(
        "positive steps in pair order",
        "src/obrsk/correspondence.py",
        "sorted(steps, reverse=True)",
        "steps",
        "tests/test_correspondence.py::test_obrsk_is_the_paper_composition_on_every_small_nonvanishing_pair",
    ),
    Mutant(
        "positive block not flipped",
        "src/obrsk/correspondence.py",
        "prows += reversed(pos_q)\n    qrows += reversed(pos_p)",
        "prows += pos_p\n    qrows += pos_q",
        "tests/test_correspondence.py::test_obrsk_is_the_paper_composition_on_every_small_nonvanishing_pair",
    ),
    Mutant(
        "forward step bumps past an equal entry",
        "src/obrsk/correspondence.py",
        "i = bisect.bisect_left(prow, x)",
        "i = bisect.bisect_right(prow, x)",
        "tests/test_correspondence.py::test_forward_step_redoes_every_reverse_step_of_small_negative_bitableaux",
    ),
    Mutant(
        "reverse step starts in the top row that holds the bound",
        "src/obrsk/correspondence.py",
        "s = max(i for i, row in enumerate(qrows) if b in row)",
        "s = min(i for i, row in enumerate(qrows) if b in row)",
        "tests/test_correspondence.py::test_reverse_step_undoes_every_forward_step_of_small_negative_pairs",
    ),
    Mutant(
        "sign_split miscounts negative rows",
        "src/obrsk/tableaux.py",
        "n_neg = signs.count(-1)",
        "n_neg = signs.count(-1) - 1",
        "tests/test_tableaux.py::test_sign_split_counts_the_negative_rows_on_every_even_bitableau",
    ),
    Mutant(
        "semistandard check lets 0 through",
        "src/obrsk/tableaux.py",
        "(not row or row[0] >= 1)",
        "(not row or row[0] >= 0)",
        "tests/test_correspondence.py::test_codomain_checks_refuse_an_entry_that_is_not_a_positive_int",
    ),
    # the domain's entry check and what the two constructors refuse
    Mutant(
        "pair entries not checked",
        "src/obrsk/arrays.py",
        "if type(x) is not int or x < 1",
        "if False",
        "tests/test_correspondence.py::test_domain_checks_refuse_an_entry_that_is_not_a_positive_int",
    ),
    Mutant(
        "pair rows of unequal length let through",
        "src/obrsk/arrays.py",
        "for top, bottom in ((b, a), (c, d)):\n"
        "            if len(top) != len(bottom):\n"
        '                raise LengthMismatch(f"rows of length {len(top)} and {len(bottom)}")\n'
        "        if len(b) != len(c):\n"
        '            raise LengthMismatch(f"pi1 width {len(b)} != pi2 width {len(c)}")',
        "pass",
        "tests/test_arrays.py::test_width_mismatch",
    ),
    # each input checked once, in the library
    Mutant(
        "w_of_chain reads every chain as negative",
        "src/obrsk/grassmannian.py",
        "neg, pos = split_chain(chain, beta)",
        "neg, pos = tuple(map(tuple, chain)), ()",
        "tests/test_grassmannian.py::test_w_of_chain_d3_positive",
    ),
    Mutant(
        "negative steps not validated",
        "src/obrsk/correspondence.py",
        "steps = _column_steps(p)\n"
        "    if not all(a < b for a, b, _, _ in steps):\n"
        '        raise NotNegative("the steps of the correspondence are only available for negative pairs")',
        "steps = list(zip(p.a, p.b, reversed(p.c), reversed(p.d)))",
        "tests/test_correspondence.py::test_negative_steps_refuse_an_invalid_pair_and_a_column_that_is_not_negative",
    ),
    Mutant(
        "incomparable entries raise TypeError",
        "src/obrsk/tableaux.py",
        "try:\n"
        "            if any(map(ge, row, row[1:])):\n"
        "                return False\n"
        "        except TypeError:\n"
        "            # entries of two types that do not compare: not all ints, so the\n"
        "            # check below refuses the row\n"
        "            pass",
        "if any(map(ge, row, row[1:])):\n            return False",
        "tests/test_correspondence.py::test_codomain_checks_refuse_an_entry_that_is_not_a_positive_int",
    ),
    Mutant(
        "bitableau shapes not compared",
        "src/obrsk/tableaux.py",
        'if shape != q_shape:\n            raise ShapeMismatch(f"shapes differ: {shape} vs {q_shape}")',
        "pass",
        "tests/test_tableaux.py::test_shape_mismatch_rejected",
    ),
)


def run_pytest(tree, killer):
    """pytest's exit code for `pytest -x -q killer` in the tree, and the
    seconds it took."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", killer],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode, time.perf_counter() - start


def copy_tree(target):
    for part in COPIED:
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, target / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target / part)


def run_mutant(mutant):
    """(result, seconds) for one mutant, in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.anchor) != 1:
            return "error: anchor not found once", 0.0
        path.write_text(text.replace(mutant.anchor, mutant.replacement))
        code, seconds = run_pytest(tree, mutant.killer)
    # pytest exits 1 when a test failed and 0 when all passed; anything
    # else means the test did not run
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit {code}"), seconds


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        for killer in dict.fromkeys(m.killer for m in chosen):
            code, _ = run_pytest(tree, killer)
            if code != 0:
                print(f"{killer} fails on the unchanged tree (pytest exit {code})", file=sys.stderr)
                return 2
    width = max(len(m.name) for m in chosen)
    print(f"{'mutant':<{width}}  {'result':<8}  {'seconds':>7}  killing test")
    total, survivors = 0.0, 0
    for mutant in chosen:
        result, seconds = run_mutant(mutant)
        total += seconds
        survivors += result != "killed"
        print(f"{mutant.name:<{width}}  {result:<8}  {seconds:7.1f}  {mutant.killer}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed in {total:.1f} s of pytest")
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
