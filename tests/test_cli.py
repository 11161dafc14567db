import json
import subprocess
import sys

import pytest

from obrsk.cli import (
    EXIT_INVALID,
    EXIT_OK,
    bitableau_from_json,
    bitableau_to_json,
    fixture_main,
    ideal_main,
    obrsk_main,
    og_main,
    pair_from_json,
    pair_to_json,
)
from obrsk.fixture import FIXTURE_BITABLEAU, FIXTURE_PAIR


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
    assert doc["P"] == [list(r) for r in FIXTURE_BITABLEAU.P.rows]
    assert doc["Q"] == [list(r) for r in FIXTURE_BITABLEAU.Q.rows]


def test_apply_trace(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", pair_to_json(FIXTURE_PAIR))
    code, doc = run_json(capsys, obrsk_main, ["apply", "--trace", "--input", path])
    assert code == EXIT_OK
    assert len(doc["trace"]) == 5
    assert doc["trace"][0]["P^(1)"] == [[4, 12]]
    assert doc["trace"][0]["Q^(1)"] == [[17, 25]]
    assert doc["trace"][4]["P^(5)"] == doc["P"]


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


def test_invert_vanishing_is_invalid(tmp_path, capsys):
    # a skew-symmetric bitableau without a sign is outside the domain
    path = write_json(tmp_path, "bit.json", {"P": [[3, 4]], "Q": [[3, 4]]})
    assert obrsk_main(["invert", "--input", str(path)]) == EXIT_INVALID
    capsys.readouterr()


def test_og_chains(capsys):
    code, doc = run_json(capsys, og_main, ["chains", "--d", "2", "--beta", "3,4"])
    assert code == EXIT_OK
    assert doc["beta"] == [3, 4]
    assert doc["roots"] == [[1, 3]]
    assert doc["chains"] == [{"points": [[1, 3]], "w_minus": [1, 2]}]


def test_og_wchain(capsys):
    code = og_main(["wchain", "--d", "2", "--beta", "3,4", "--chain", "1,3", "--sign", "minus"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "1,2"


def test_og_wchain_positive(capsys):
    code = og_main(["wchain", "--d", "3", "--beta", "1,2,3", "--chain", "4,1", "--sign", "plus"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "2,4,6"


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


def test_ideal_requires_ordered_triple(capsys):
    code = ideal_main(
        ["verify-main", "--d", "2", "--alpha", "3,4", "--beta", "1,2", "--gamma", "3,4"]
    )
    assert code == EXIT_INVALID
    capsys.readouterr()


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


def test_fixture_replay(capsys):
    assert fixture_main(["replay"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert fixture_main(["replay", "--quiet"]) == EXIT_OK
    capsys.readouterr()


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
    proc = subprocess.run(
        [sys.executable, "-m", "obrsk.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()
