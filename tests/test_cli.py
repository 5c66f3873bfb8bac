import json
from pathlib import Path

import pytest

from superchar import charring
from superchar.cli import main


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "char_verma_b21": "char --type verma --borel 2,1 --m 2 --n 2 --coords 7,2/2,7 --depth 5",
    "char_narrow": "char --type narrow --m 2 --n 2 --coords 7,2/2,7 --depth 6",
    "char_simple_td": "char --type simple-td --m 2 --n 2 --coords 7,2/2,7 --depth 6",
    "char_kac": "char --type kac --m 2 --n 1 --coords 3,0/3 --depth 6",
    "char_even_simple": "char --type even-simple --m 2 --n 1 --coords 3,0/3 --depth 6",
    "euler": "euler --m 2 --n 2 --coords 7,2/2,7 --depth 6",
    "image_21": "image --m 2 --n 1 --coords 3,0/3 --depth 3",
    "image_22": "image --m 2 --n 2 --coords 7,2/2,7 --depth 2",
    "sweep": "sweep --m 2 --n 2 --trials 2 --depth 4 --seed 3",
    "suite": "suite",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_narrow_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "char",
            "--type",
            "narrow",
            "--m",
            "2",
            "--n",
            "1",
            "--coords",
            "3,0/3",
            "--depth",
            "8",
            "--format",
            "json",
        ],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["depth"] == 8
    top_terms = [t for t in obj["terms"] if t["weight"] == obj["top"]]
    assert top_terms and top_terms[0]["coeff"] == "1"


def test_borels_line_count(capsys):
    code, out, _ = run(capsys, ["borels", "--m", "2", "--n", "2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_euler_pass_exit_zero(capsys):
    code, out, _ = run(
        capsys, ["euler", "--m", "1", "--n", "1", "--coords", "0/0", "--depth", "4"]
    )
    assert code == 0
    assert "pass" in out


def test_euler_json_and_text_agree(capsys):
    args = ["euler", "--m", "2", "--n", "1", "--coords", "3,0/3", "--depth", "6"]
    code_text, out_text, _ = run(capsys, args)
    code_json, out_json, _ = run(capsys, args + ["--format", "json"])
    assert code_text == code_json == 0
    assert json.loads(out_json)["pass"] is ("pass" in out_text)


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "--m", "2", "--n", "1", "--coords", "3,0/3"])  # missing --type
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run(capsys, ["euler", "--m", "2", "--n", "1", "--coords", "bad"])
    assert code == 2 and err.startswith("error: cannot parse weight blocks")


def test_precondition_error_reported(capsys):
    # non-dominant weight: reported to stderr, usage exit
    code, out, err = run(
        capsys, ["euler", "--m", "2", "--n", "1", "--coords", "0,3/3", "--depth", "4"]
    )
    assert code == 2
    assert "error" in err


def test_sweep_seed_determinism(capsys):
    args = ["sweep", "--m", "2", "--n", "1", "--trials", "2", "--seed", "7",
            "--depth", "4", "--format", "json"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2
    assert json.loads(out1)["pass"] is True


def test_image_command(capsys):
    code, out, _ = run(
        capsys,
        ["image", "--m", "1", "--n", "1", "--coords", "2/2", "--depth", "1"],
    )
    assert code == 0 and "pass" in out


def test_diagram_and_atyp_and_generic(capsys):
    code, out, _ = run(
        capsys, ["diagram", "--m", "2", "--n", "1", "--coords", "3,0/3"]
    )
    assert code == 0 and "legend" in out
    code, out, _ = run(
        capsys,
        ["atyp", "--m", "2", "--n", "1", "--coords", "3,0/3", "--format", "json"],
    )
    assert code == 0 and json.loads(out)["atypicality"] == 1
    code, out, _ = run(
        capsys, ["generic", "--m", "2", "--n", "1", "--coords", "2,1/5"]
    )
    assert code == 0 and "False" in out


def test_roots_command(capsys):
    code, out, _ = run(
        capsys, ["roots", "--m", "2", "--n", "1", "--borel", "1", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rho"] == [0, -1, 1]
    assert obj["rho_b"] == [0, 0, 0]


def test_suite_runs(capsys):
    code, out, _ = run(capsys, ["suite", "--depth", "5", "--seed", "0"])
    assert code == 0
    assert "suite: PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--m", "1", "--n", "1", "--trials", "-2"],
        ["sweep", "--m", "1", "--n", "1", "--trials", "0"],
        ["sweep", "--m", "1", "--n", "1", "--depth", "-1"],
        ["euler", "--m", "1", "--n", "1", "--coords", "0/0", "--depth", "-1"],
        ["suite", "--depth", "-1"],
    ],
)
def test_counts_validated_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_enumeration_bound_exit_three(capsys, monkeypatch):
    code, out, err = run(capsys, ["borels", "--m", "9", "--n", "9"])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", "5")
    code, out, err = run(
        capsys, ["image", "--m", "2", "--n", "1", "--coords", "3,0/3", "--depth", "3"]
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_max_cells_env_validated(capsys, monkeypatch, value):
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", value)
    code, out, err = run(
        capsys, ["image", "--m", "2", "--n", "1", "--coords", "3,0/3", "--depth", "2"]
    )
    assert (code, out) == (2, "")
    assert err == f"error: SUPERCHAR_MAX_CELLS must be a positive integer, got {value!r}\n"


def test_consistency_error_exit_four(capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise charring.ConsistencyError("narrow character: quotient and product forms disagree")

    monkeypatch.setattr(charring, "char_narrow", disagree)
    code, out, err = run(
        capsys, ["char", "--type", "narrow", "--m", "2", "--n", "1", "--coords", "3,0/3"]
    )
    assert (code, out) == (4, "")
    assert err == "error: narrow character: quotient and product forms disagree\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_json_matches_golden(capsys, name):
    code, out, _ = run(capsys, GOLDEN_COMMANDS[name].split() + ["--format", "json"])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
