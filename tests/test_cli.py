import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from obrsk import cli, fixture, ideal
from obrsk.cli import (
    EXIT_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    MAX_D,
    MAX_DEGREE,
    MAX_JOBS,
    MAX_SLICE_MONOMIALS,
    bitableau_from_json,
    bitableau_to_json,
    fixture_main,
    ideal_main,
    obrsk_main,
    og_main,
    pair_from_json,
    pair_to_json,
)
from obrsk.errors import VerificationError
from obrsk.fixture import FIXTURE_BITABLEAU, FIXTURE_PAIR
from obrsk.grassmannian import (
    IdElement,
    enumerate_extended_chains,
    enumerate_id,
    roots_of,
    split_chain,
    w_of_chain,
)
from oracles import iota

ROOT = Path(__file__).resolve().parent.parent


def run_json(capsys, main, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_pair_json_roundtrip():
    doc = pair_to_json(FIXTURE_PAIR)
    assert doc["pi1"]["b"] == [17, 17, 14, 10, 9]
    assert pair_from_json(doc) == FIXTURE_PAIR


def test_bitableau_json_roundtrip():
    doc = bitableau_to_json(FIXTURE_BITABLEAU)
    assert bitableau_from_json(doc) == FIXTURE_BITABLEAU


def test_apply_fixture(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", pair_to_json(FIXTURE_PAIR))
    code, doc = run_json(capsys, obrsk_main, ["apply", "--input", path])
    assert code == EXIT_OK
    assert doc["P"] == [list(r) for r in FIXTURE_BITABLEAU.P]
    assert doc["Q"] == [list(r) for r in FIXTURE_BITABLEAU.Q]


def test_apply_trace(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", pair_to_json(FIXTURE_PAIR))
    code, doc = run_json(capsys, obrsk_main, ["apply", "--trace", "--input", path])
    assert code == EXIT_OK
    assert len(doc["trace"]) == 5
    assert doc["trace"][0]["P^(1)"] == [[4, 12]]
    assert doc["trace"][0]["Q^(1)"] == [[17, 25]]
    assert doc["trace"][4]["P^(5)"] == doc["P"]


def test_apply_trace_refuses_a_pair_with_a_positive_column(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", {"pi1": {"b": [2], "a": [3]}, "pi2": {"c": [3], "d": [4]}})
    assert obrsk_main(["apply", "--trace", "--input", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "only available for negative pairs" in captured.err


@pytest.mark.parametrize("input_args", [["--input", "-"], []])
def test_apply_reads_the_pair_from_stdin(capsys, monkeypatch, input_args):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(pair_to_json(FIXTURE_PAIR))))
    code, doc = run_json(capsys, obrsk_main, ["apply", *input_args])
    assert code == EXIT_OK
    assert doc == bitableau_to_json(FIXTURE_BITABLEAU)


def test_invert_fixture(tmp_path, capsys):
    path = write_json(tmp_path, "bit.json", bitableau_to_json(FIXTURE_BITABLEAU))
    code, doc = run_json(capsys, obrsk_main, ["invert", "--input", path])
    assert code == EXIT_OK
    assert pair_from_json(doc) == FIXTURE_PAIR


def test_apply_invalid_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert obrsk_main(["apply", "--input", str(path)]) == EXIT_INVALID
    path.write_text(json.dumps({"pi1": {"b": [1]}}))
    assert obrsk_main(["apply", "--input", str(path)]) == EXIT_INVALID
    capsys.readouterr()


def _refused_as_unreadable(capsys, argv):
    assert obrsk_main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read input: ")


@pytest.mark.parametrize("on_stdin", [False, True])
def test_apply_refuses_json_nested_too_deep(tmp_path, capsys, monkeypatch, on_stdin):
    text = "[" * 200_000
    if on_stdin:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        _refused_as_unreadable(capsys, ["apply"])
    else:
        path = tmp_path / "deep.json"
        path.write_text(text)
        _refused_as_unreadable(capsys, ["apply", "--input", str(path)])


def test_apply_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff\xfe{"pi1": {}}')
    _refused_as_unreadable(capsys, ["apply", "--input", str(path)])


def test_apply_refuses_an_integer_too_long_to_convert(tmp_path, capsys):
    doc = '{"pi1": {"b": [%s], "a": [1]}, "pi2": {"c": [3], "d": [2]}}' % ("9" * 5_000)
    path = tmp_path / "long.json"
    path.write_text(doc)
    _refused_as_unreadable(capsys, ["apply", "--input", str(path)])


ENTRY_REFUSALS = [
    ("apply", {"pi1": {"b": [3], "a": [1]}, "pi2": {"c": [4.5], "d": [2]}}, "c_1 = 4.5 not a positive integer"),
    ("apply", {"pi1": {"b": [3], "a": [4.5]}, "pi2": {"c": [4], "d": [2]}}, "a_1 = 4.5 not a positive integer"),
    ("apply", {"pi1": {"b": [3], "a": [-3]}, "pi2": {"c": [4], "d": [2]}}, "a_1 = -3 not a positive integer"),
    ("apply", {"pi1": {"b": [3], "a": [True]}, "pi2": {"c": [4], "d": [2]}}, "a_1 = True not a positive integer"),
    ("apply", {"pi1": {"b": [3], "a": ["x"]}, "pi2": {"c": [4], "d": [2]}}, "a_1 = 'x' not a positive integer"),
    ("invert", {"P": [[1, 2.5]], "Q": [[3, 4]]}, "multiset entries must be positive integers, got 2.5"),
]


@pytest.mark.parametrize(
    "command, doc, message",
    ENTRY_REFUSALS,
    ids=[f"{command}-doc{i}" for i, (command, _, _) in enumerate(ENTRY_REFUSALS)],
)
def test_rejects_entries_that_are_not_positive_integers(tmp_path, capsys, command, doc, message):
    # the library's own checks refuse the entry: validate_skew_pair for a
    # pair, validate_semistandard for a bitableau
    path = write_json(tmp_path, "doc.json", doc)
    assert obrsk_main([command, "--input", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


json_scalars = st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=2)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)
rows = st.lists(st.integers(1, 9), max_size=4) | st.lists(json_scalars, max_size=3) | json_values
# equal widths and strictly increasing rows get past the shape checks into
# the correspondence itself
equal_width_rows = st.integers(0, 4).flatmap(
    lambda t: st.lists(st.lists(st.integers(1, 9), min_size=t, max_size=t), min_size=4, max_size=4)
)


def strict_tableau(shape):
    return st.tuples(*(st.sets(st.integers(1, 9), min_size=k, max_size=k).map(sorted) for k in shape))


strict_bitableaux = st.lists(st.sampled_from([2, 4]), max_size=2).flatmap(
    lambda shape: st.fixed_dictionaries({"P": strict_tableau(shape), "Q": strict_tableau(shape)})
)
json_docs = (
    json_values
    | st.fixed_dictionaries(
        {
            "pi1": st.fixed_dictionaries({"b": rows, "a": rows}),
            "pi2": st.fixed_dictionaries({"c": rows, "d": rows}),
        }
    )
    | equal_width_rows.map(lambda r: {"pi1": {"b": r[0], "a": r[1]}, "pi2": {"c": r[2], "d": r[3]}})
    | st.fixed_dictionaries({"P": st.lists(rows, max_size=3), "Q": st.lists(rows, max_size=3)})
    | strict_bitableaux
)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["apply", "invert"]), doc=json_docs)
def test_obrsk_exit_codes_on_random_json(tmp_path_factory, command, doc):
    # any JSON document either maps or is refused as invalid input; an
    # exception escaping obrsk_main fails the test
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = obrsk_main([command, "--input", str(path)])
    assert code in (EXIT_OK, EXIT_INVALID)


def test_invert_vanishing_is_invalid(tmp_path, capsys):
    # a skew-symmetric bitableau without a sign is outside the domain
    path = write_json(tmp_path, "bit.json", {"P": [[3, 4]], "Q": [[3, 4]]})
    assert obrsk_main(["invert", "--input", str(path)]) == EXIT_INVALID
    capsys.readouterr()


def test_invert_outside_the_image_is_invalid(tmp_path, capsys):
    # a negative skew-symmetric bitableau that no negative pair maps to
    path = write_json(tmp_path, "bit.json", {"P": [[1, 2, 3, 4], [1, 3]], "Q": [[2, 3, 4, 5], [3, 5]]})
    assert obrsk_main(["invert", "--input", str(path)]) == EXIT_INVALID
    assert "no entry <= 1 below the bound 3 in row 1" in capsys.readouterr().err


def test_og_chains(capsys):
    code, doc = run_json(capsys, og_main, ["chains", "--d", "2", "--beta", "3,4"])
    assert code == EXIT_OK
    assert doc["beta"] == [3, 4]
    assert doc["roots"] == [[1, 3]]
    assert doc["chains"] == [{"points": [[1, 3]], "w_minus": [1, 2]}]


@pytest.mark.parametrize("d, beta", [(3, "1,2,3"), (4, "2,4,6,8")])
def test_og_chains_lists_every_chain_with_the_w_of_each_part(capsys, d, beta):
    # 1,2,3 has positive roots only; 2,4,6,8 has chains of both signs
    code, doc = run_json(capsys, og_main, ["chains", "--d", str(d), "--beta", beta])
    assert code == EXIT_OK
    v = IdElement(tuple(map(int, beta.split(","))), d)
    assert [tuple(map(tuple, c["points"])) for c in doc["chains"]] == list(enumerate_extended_chains(roots_of(v)))
    for entry in doc["chains"]:
        neg, pos = split_chain(entry["points"], v)
        expected = {}
        if neg:
            expected["w_minus"] = list(w_of_chain(neg, v).entries)
        if pos:
            expected["w_plus"] = list(w_of_chain(pos, v).entries)
        assert {k: w for k, w in entry.items() if k != "points"} == expected
    assert any("w_plus" in entry for entry in doc["chains"])
    if d == 4:
        assert any("w_plus" in entry and "w_minus" in entry for entry in doc["chains"])


def test_og_wchain(capsys):
    code = og_main(["wchain", "--d", "2", "--beta", "3,4", "--chain", "1,3"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "1,2"


def test_og_wchain_matches_og_chains(capsys):
    # og wchain reads the sign off the points: every sign-pure part of every
    # chain og chains lists gives the w listed for it, with d <= 4
    parts = 0
    for d in range(1, 5):
        for beta in enumerate_id(d):
            text = ",".join(map(str, beta.entries))
            code, doc = run_json(capsys, og_main, ["chains", "--d", str(d), "--beta", text])
            assert code == EXIT_OK
            for entry in doc["chains"]:
                for key, negative in (("w_minus", True), ("w_plus", False)):
                    part = [f"{r},{c}" for r, c in entry["points"] if (r < c) == negative]
                    assert bool(part) == (key in entry)
                    if part:
                        code = og_main(["wchain", "--d", str(d), "--beta", text, "--chain", " ".join(part)])
                        assert code == EXIT_OK
                        assert capsys.readouterr().out == ",".join(map(str, entry[key])) + "\n"
                        parts += 1
    assert parts == 156


def test_og_wchain_positive(capsys):
    code = og_main(["wchain", "--d", "3", "--beta", "1,2,3", "--chain", "4,1"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "2,4,6"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--d", "2", "--beta", "3,4", "--chain", "1,2"], "not a root"),
        (["--d", "2", "--beta", "3,4", "--chain", "9,9"], "not a root"),
        # 2,3 is a negative root and 5,1 a positive one
        (["--d", "5", "--beta", "1,3,4,6,9", "--chain", "2,3 5,1"], "not a sign-pure chain"),
    ],
)
def test_og_wchain_rejects_chains_outside_the_sign(capsys, argv, message):
    assert og_main(["wchain", *argv]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "main, argv, option",
    [
        (obrsk_main, ["apply", "--input=--"], "--input"),
        (og_main, ["chains", "--d", "2", "--beta=--"], "--beta"),
        (og_main, ["wchain", "--d", "2", "--beta", "3,4", "--chain=--"], "--chain"),
        (ideal_main, ["hilbert", "--d", "2", "--alpha", "3,4", "--beta", "3,4", "--gamma=--"], "--gamma"),
        (ideal_main, ["verify-main", "--d", "2", "--alpha=--", "--beta", "3,4", "--gamma", "3,4"], "--alpha"),
    ],
)
def test_option_given_as_double_dash_is_refused(capsys, main, argv, option):
    # argparse parses "--opt=--" to an empty list instead of a string
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} needs a value" in captured.err


@st.composite
def wchain_argv(draw):
    d = draw(st.integers(1, 3))
    beta = draw(st.sampled_from(enumerate_id(d)))
    near = st.tuples(st.integers(-1, 2 * d + 1), st.integers(-1, 2 * d + 1))
    roots = roots_of(beta)
    point = st.sampled_from(roots) | near if roots else near
    points = st.lists(point, max_size=4).map(lambda pts: " ".join(f"{r},{c}" for r, c in pts))
    chain = draw(points | st.text("0123456789,; -x", max_size=8))
    return ["wchain", "--d", str(d), "--beta", ",".join(map(str, beta.entries)), f"--chain={chain}"]


@settings(max_examples=300, deadline=None)
@given(argv=wchain_argv())
def test_og_wchain_exit_codes_on_random_chains(argv):
    # any chain text either gives its element of I(d) or is refused as
    # invalid input; an exception escaping og_main fails the test
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = og_main(argv)
    assert code in (EXIT_OK, EXIT_INVALID)


def test_og_invalid_beta(capsys):
    assert og_main(["chains", "--d", "2", "--beta", "1,4"]) == EXIT_INVALID
    assert og_main(["chains", "--d", "2", "--beta", "x"]) == EXIT_INVALID
    capsys.readouterr()


def test_ideal_generators(capsys):
    code = ideal_main(
        ["generators", "--d", "2", "--alpha", "3,4", "--beta", "3,4", "--gamma", "3,4"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "X1,3" in out


def test_ideal_hilbert(capsys):
    code = ideal_main(
        [
            "hilbert", "--d", "2", "--alpha", "1,2", "--beta", "3,4", "--gamma", "3,4",
            "--max-degree", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "degree 2: total 1, ideal 0, quotient 1" in out


def test_ideal_verify_main_single(capsys):
    code = ideal_main(
        [
            "verify-main", "--d", "2", "--alpha", "1,2", "--beta", "3,4", "--gamma", "3,4",
            "--max-degree", "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.strip().endswith("PASS: 1 triple(s) checked")


def test_ideal_verify_main_all_triples(capsys):
    code = ideal_main(["verify-main", "--d", "2", "--all-triples", "--max-degree", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS: 4 triple(s) checked" in out
    assert "FAIL" not in out


def test_verify_main_jobs_prints_what_one_process_prints(capsys):
    argv = ["verify-main", "--d", "3", "--all-triples", "--max-degree", "3"]
    assert ideal_main(argv + ["--jobs", "1"]) == EXIT_OK
    serial = capsys.readouterr().out
    assert ideal_main(argv + ["--jobs", "2"]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert serial.strip().endswith("PASS: 20 triple(s) checked")


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_verify_main_runs_one_triple_in_process(capsys, monkeypatch):
    monkeypatch.setattr(cli, "Pool", no_pool)
    argv = ["verify-main", "--d", "3", "--alpha", "1,2,3", "--beta", "1,4,5", "--gamma", "3,5,6", "--max-degree", "3"]
    assert ideal_main(argv + ["--jobs", "1"]) == EXIT_OK
    serial = capsys.readouterr().out
    assert ideal_main(argv + ["--jobs", "2"]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert serial.strip().endswith("PASS: 1 triple(s) checked")
    # an out-of-order triple is refused in this process too
    triple = ["--d", "2", "--alpha", "3,4", "--beta", "1,2", "--gamma", "3,4"]
    assert ideal_main(["verify-main", "--jobs", "2"] + triple) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: need alpha <= beta <= gamma" in captured.err


@pytest.mark.parametrize(
    "options, named",
    [
        (["--alpha", "9,9", "--beta", "x"], "--alpha, --beta"),
        (["--gamma", "3,4"], "--gamma"),
        (["--alpha", "1,2", "--beta", "3,4", "--gamma", "3,4"], "--alpha, --beta, --gamma"),
    ],
)
def test_verify_main_refuses_all_triples_with_a_triple(capsys, monkeypatch, options, named):
    # the triple options would otherwise be ignored without a word
    def no_check(*args, **kwargs):
        raise AssertionError("a triple was checked")

    monkeypatch.setattr(cli, "verify_main_theorem", no_check)
    assert ideal_main(["verify-main", "--d", "2", "--all-triples", *options]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--all-triples" in captured.err and named in captured.err


@pytest.mark.parametrize("command", ["generators", "hilbert", "verify-main"])
@pytest.mark.parametrize("missing", ["--alpha", "--beta", "--gamma"])
def test_ideal_requires_the_whole_triple(capsys, command, missing):
    triple = {"--alpha": "1,2", "--beta": "3,4", "--gamma": "3,4"}
    del triple[missing]
    argv = [command, "--d", "2", *(x for option in triple.items() for x in option)]
    assert ideal_main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha, --beta and --gamma are required" in captured.err


def test_verify_main_exits_3_when_a_degree_fails(capsys, monkeypatch):
    original = ideal.chains_monomials_degree

    def one_chain_monomial_short(alpha, beta, gamma, m):
        chains = set(original(alpha, beta, gamma, m))
        if chains:
            chains.remove(min(chains))
        return chains

    monkeypatch.setattr(ideal, "chains_monomials_degree", one_chain_monomial_short)
    argv = ["verify-main", "--d", "3", "--alpha", "1,2,3", "--beta", "1,2,3", "--gamma", "2,4,6"]
    assert ideal_main(argv) == EXIT_FAILED
    out = capsys.readouterr().out
    assert out.startswith("FAIL triple 1,2,3 <= 1,2,3 <= 2,4,6\n  degree 1: FAIL (total 3, initial 1, chains 0,")
    assert out.strip().endswith("FAIL: 1 triple(s) checked")


@pytest.mark.parametrize("fails", [False, True], ids=["passing", "failing"])
def test_a_closed_pipe_keeps_the_verdict_of_verify_main(monkeypatch, capsys, fails):
    # stdout is a pipe whose reader has gone, so writing to it raises
    # BrokenPipeError; the exit code is still the verdict, and what the
    # stream still holds goes to os.devnull
    if fails:
        original = ideal.chains_monomials_degree

        def one_chain_monomial_short(alpha, beta, gamma, m):
            chains = set(original(alpha, beta, gamma, m))
            chains.discard(min(chains, default=None))
            return chains

        monkeypatch.setattr(ideal, "chains_monomials_degree", one_chain_monomial_short)
    read_end, write_end = os.pipe()
    os.close(read_end)
    closed = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", closed)
    with pytest.raises(BrokenPipeError):
        print("x", file=closed, flush=True)
    argv = ["verify-main", "--d", "3", "--alpha", "1,2,3", "--beta", "1,2,3", "--gamma", "2,4,6"]
    assert ideal_main(argv) == (EXIT_FAILED if fails else EXIT_OK)
    assert capsys.readouterr().err == ""
    print("dropped", file=closed)
    closed.close()


VERDICT_TRIPLE = tuple(IdElement(e, 3) for e in ((1, 2, 3), (1, 4, 5), (2, 4, 6)))


def verdicts_and_cli_statuses(capsys):
    """On VERDICT_TRIPLE up to degree 3: the verdicts (initial_matches_chains,
    counts_match, standard_independent) of each degree of the main check,
    then the exit code of ideal verify-main and the status of each degree
    line it prints."""
    report = ideal.verify_main_theorem(*VERDICT_TRIPLE, 3)
    verdicts = [(r.initial_matches_chains, r.counts_match, r.standard_independent) for r in report.degrees]
    options = (x for name, v in zip(("--alpha", "--beta", "--gamma"), VERDICT_TRIPLE) for x in (name, str(v)))
    code = ideal_main(["verify-main", "--d", "3", *options, "--max-degree", "3"])
    statuses = re.findall(r"^  degree \d+: (\w+)", capsys.readouterr().out, re.M)
    return verdicts, code, statuses


def test_main_check_fails_on_a_missing_standard_monomial(capsys, monkeypatch, package_caches):
    # one degree-2 multichain short: the counts no longer add up, while the
    # rest stay independent of the ideal and the initial ideal is untouched
    original = ideal._multichain_levels

    def one_short(alpha, beta, gamma):
        for m, level in enumerate(original(alpha, beta, gamma)):
            yield level[1:] if m == 2 else level

    monkeypatch.setattr(ideal, "_multichain_levels", one_short)
    assert verdicts_and_cli_statuses(capsys) == (
        [(True, True, True), (True, False, True), (True, True, True)],
        EXIT_FAILED,
        ["ok", "FAIL", "ok"],
    )


def test_main_check_fails_on_dependent_standard_products(capsys, monkeypatch, package_caches):
    # the second degree-2 product made 3 times the first: the counts still
    # add up, but the products are dependent, and so are the degree-3
    # products built on it
    original = ideal.standard_poly
    low, high = VERDICT_TRIPLE[0], VERDICT_TRIPLE[2]

    def dependent(thetas, beta):
        return 3 * original((low, low), beta) if thetas == (low, high) else original(thetas, beta)

    monkeypatch.setattr(ideal, "standard_poly", dependent)
    assert verdicts_and_cli_statuses(capsys) == (
        [(True, True, True), (True, True, False), (True, True, False)],
        EXIT_FAILED,
        ["ok", "FAIL", "FAIL"],
    )


def test_verification_error_in_a_command_exits_3(capsys, monkeypatch):
    def failing_generators(alpha, beta, gamma):
        raise VerificationError("chain-membership routes disagree")

    monkeypatch.setattr(cli, "generators", failing_generators)
    assert ideal_main(["generators", "--d", "2", "--alpha", "1,2", "--beta", "3,4", "--gamma", "3,4"]) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: chain-membership routes disagree\n"


def test_ideal_requires_ordered_triple(capsys):
    # the library refuses the triple, and the CLI maps that refusal to exit 2
    triple = ["--d", "2", "--alpha", "3,4", "--beta", "1,2", "--gamma", "3,4"]
    for command in (["verify-main"], ["generators"], ["hilbert"], ["verify-main", "--jobs", "2"]):
        assert ideal_main(command + triple) == EXIT_INVALID, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert "error: need alpha <= beta <= gamma" in captured.err, command


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-main", "--d", "2", "--alpha", "1,2", "--beta", "3,4", "--gamma", "3,4", "--max-degree", "0"],
        ["verify-main", "--d", "2", "--all-triples", "--max-degree", "0"],
        ["hilbert", "--d", "2", "--alpha", "1,2", "--beta", "3,4", "--gamma", "3,4", "--max-degree", "-3"],
    ],
)
def test_ideal_rejects_max_degree_below_range(capsys, argv):
    # a vacuous PASS or an empty table would hide that nothing was checked
    assert ideal_main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree" in captured.err


D5_TRIPLE = ["--d", "5", "--alpha", "1,2,3,4,5", "--beta", "1,2,3,4,5", "--gamma", "2,3,4,6,10"]


@pytest.mark.parametrize(
    "argv",
    [
        # beta has 10 roots: degree 10 asks for C(19, 10) = 92,378 monomials
        ["verify-main", *D5_TRIPLE, "--max-degree", "10"],
        ["hilbert", *D5_TRIPLE, "--max-degree", "30"],
        ["verify-main", "--d", "5", "--all-triples", "--max-degree", "30"],
        ["verify-main", "--d", "8", "--all-triples", "--max-degree", "5"],
    ],
)
def test_ideal_rejects_max_degree_above_the_slice_cap(capsys, monkeypatch, argv):
    # were the check missing, no degree slice may be built from this test
    def no_slice(*args, **kwargs):
        raise AssertionError("a degree slice was built")

    monkeypatch.setattr(ideal, "DegreeSlice", no_slice)
    assert ideal_main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree" in captured.err and str(MAX_SLICE_MONOMIALS) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-main", "--d", "1", "--all-triples"],
        ["verify-main", "--d", "2", "--all-triples"],
        ["hilbert", "--d", "1", "--alpha", "1", "--beta", "1", "--gamma", "1"],
        ["hilbert", "--d", "2", "--alpha", "1,2", "--beta", "3,4", "--gamma", "3,4"],
    ],
)
def test_ideal_rejects_max_degree_above_the_degree_cap(capsys, monkeypatch, argv):
    # beta has at most one root here, so no slice exceeds
    # MAX_SLICE_MONOMIALS; were the check missing, no slice may be built
    def no_slice(*args, **kwargs):
        raise AssertionError("a degree slice was built")

    monkeypatch.setattr(ideal, "DegreeSlice", no_slice)
    assert ideal_main(argv + ["--max-degree", str(MAX_DEGREE + 1)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree" in captured.err and str(MAX_DEGREE) in captured.err


@pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1])
def test_verify_main_rejects_jobs_outside_range(capsys, monkeypatch, jobs):
    # were the check missing, no pool of processes may start from this test
    monkeypatch.setattr(cli, "Pool", no_pool)
    assert ideal_main(["verify-main", "--d", "2", "--all-triples", "--jobs", str(jobs)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err


@pytest.mark.parametrize("d", [0, MAX_D + 1])
@pytest.mark.parametrize(
    "main, argv",
    [
        (ideal_main, ["verify-main", "--all-triples"]),
        (ideal_main, ["hilbert", "--alpha", "1", "--beta", "1", "--gamma", "1"]),
        (og_main, ["chains", "--beta", "1"]),
    ],
)
def test_rejects_d_outside_range(capsys, main, argv, d):
    # d = 0 would pass vacuously; a large d would list 8^d triples first
    assert main(argv + ["--d", str(d)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--d" in captured.err


def test_fixture_replay(capsys):
    assert fixture_main(["replay"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert fixture_main(["replay", "--quiet"]) == EXIT_OK
    capsys.readouterr()


def test_fixture_replay_exits_3_on_a_mismatch(capsys, monkeypatch):
    steps = list(fixture.FIXTURE_STEPS)
    steps[1] = steps[0]
    monkeypatch.setattr(fixture, "FIXTURE_STEPS", tuple(steps))
    assert fixture_main(["replay", "--quiet"]) == EXIT_FAILED
    out = capsys.readouterr().out
    assert "step 2: MISMATCH" in out
    assert out.strip().endswith("FAIL: worked example mismatch")


def test_fixture_replay_exits_2_when_the_inverse_map_refuses_its_input(capsys, monkeypatch):
    # iota of the frozen image is positive, so the inverse map refuses it;
    # replay goes through the one CLI error path, not a traceback
    monkeypatch.setattr(fixture, "FIXTURE_BITABLEAU", iota(FIXTURE_BITABLEAU))
    assert cli.main(["fixture", "replay", "--quiet"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bitableau is positive, not negative\n"


@pytest.mark.parametrize("argv", [["foo"], []])
def test_dispatcher_refuses_an_unknown_or_missing_program(capsys, argv):
    assert cli.main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage: obrsk|og|ideal|fixture ...\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["obrsk", "--help"],
        ["og", "--help"],
        ["ideal", "--help"],
        ["fixture", "--help"],
    ],
)
def test_installed_scripts_smoke(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "obrsk.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()
