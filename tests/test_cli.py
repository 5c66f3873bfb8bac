import json
from pathlib import Path

import pytest

from superchar import bggcheck, charring
from superchar.cli import main


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "atyp_22_b1": "atyp --m 2 --n 2 --coords 5,2/2,5 --borel 1",
    "char_verma_b21": "char --type verma --borel 2,1 --m 2 --n 2 --coords 7,2/2,7 --depth 5",
    "char_narrow": "char --type narrow --m 2 --n 2 --coords 7,2/2,7 --depth 6",
    "char_simple_td": "char --type simple-td --m 2 --n 2 --coords 7,2/2,7 --depth 6",
    "char_kac": "char --type kac --m 2 --n 1 --coords 3,0/3 --depth 6",
    "char_even_simple": "char --type even-simple --m 2 --n 1 --coords 3,0/3 --depth 6",
    "diagram_33": "diagram --m 3 --n 3 --coords 16,8,0/0,8,16",
    "euler": "euler --m 2 --n 2 --coords 7,2/2,7 --depth 6",
    "image_21": "image --m 2 --n 1 --coords 3,0/3 --depth 3",
    "image_22": "image --m 2 --n 2 --coords 7,2/2,7 --depth 2",
    "roots_21": "roots --m 2 --n 1 --borel 1",
    "roots_32": "roots --m 3 --n 2 --borel 2,1",
    "sweep": "sweep --m 2 --n 2 --trials 2 --depth 4 --seed 3",
    "sweep_33": "sweep --m 3 --n 3 --trials 2 --depth 4 --seed 1",  # the bench sweep's shape
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


def test_euler_walks_only_the_weyl_window(capsys):
    # gl(6|6) has 518,400 Weyl elements, over the enumeration bound; the window is small
    args = ["--m", "6", "--n", "6", "--coords", "77,70,63,56,49,42/0,7,14,21,28,35"]
    code, out, err = run(capsys, ["euler", *args, "--depth", "4"])
    assert (code, err) == (0, "") and "pass" in out
    # a singular weight is refused as a precondition (exit 2) before its window is walked
    singular = ["--m", "6", "--n", "6", "--coords", "5,5,5,5,5,5/5,5,5,5,5,5"]
    code, _, err = run(capsys, ["euler", *singular, "--depth", "8"])
    assert code == 2 and "not g_-1-generic" in err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["atyp", "--m", "2", "--n", "1", "--coords", "3,0/3", "--coeffs", "0,0/0"],
         "pass either --coords or --coeffs, not both"),
        (["char", "--type", "kac", "--borel", "1", "--m", "2", "--n", "1", "--coords", "3,0/3"],
         "--borel applies only to --type verma, not --type kac"),
        (["atyp", "--m", "2", "--n", "2"], "a weight is required: pass --coords or --coeffs"),
        (["atyp", "--m", "2", "--n", "2", "--coords", "5,2/2,5", "--borel", "x"],
         "cannot parse Borel partition 'x': invalid literal for int() with base 10: 'x'"),
        (["atyp", "--m", "2", "--n", "2", "--coords", "5,2/2,5", "--borel", "3"],
         "cannot parse Borel partition '3': partition (3,) does not fit the 2x2 box"),
        (["atyp", "--m", "2", "--n", "2", "--coords", "5,2/2"],
         "weight '5,2/2' does not match gl(2|2)"),
        (["roots", "--m", "2", "--n", "2", "--borel", "1,0,1"],
         "cannot parse Borel partition '1,0,1': malformed partition (1, 0, 1): "
         "parts must be positive"),
        (["roots", "--m", "2", "--n", "2", "--borel", "0,1"],
         "cannot parse Borel partition '0,1': malformed partition (0, 1): parts must be positive"),
        (["roots", "--m", "2", "--n", "2", "--borel", "1,,1"],
         "cannot parse Borel partition '1,,1': invalid literal for int() with base 10: ''"),
        (["char", "--type", "kac", "--m", "2", "--n", "1", "--coords", "3,,0/3"],
         "cannot parse weight blocks '3,,0/3': invalid literal for int() with base 10: ''"),
        (["char", "--type", "kac", "--m", "2", "--n", "1", "--coeffs", "3,0/3,"],
         "cannot parse weight blocks '3,0/3,': invalid literal for int() with base 10: ''"),
    ],
    ids=["coords_and_coeffs", "borel_without_verma", "missing_weight", "borel_unparsable",
         "borel_outside_box", "wrong_block_length", "borel_inner_zero", "borel_leading_zero",
         "borel_empty_entry", "coords_empty_entry", "coeffs_trailing_comma"],
)
def test_conflicting_input_exit_two(capsys, argv, message):
    # conflicting, missing or malformed input: one error line, usage exit
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_borel_trailing_zeros_dropped(capsys):
    # the only zeros a partition may carry are trailing ones
    assert run(capsys, ["roots", "--m", "2", "--n", "2", "--borel", "1,0"]) == run(
        capsys, ["roots", "--m", "2", "--n", "2", "--borel", "1"]
    )


def test_warning_is_one_line(capsys):
    # a non-generic narrow character is still served; the warning is one line
    argv = ["char", "--type", "narrow", "--m", "2", "--n", "2", "--coords", "0,-1/-1,0",
            "--depth", "1"]
    assert run(capsys, argv) == (
        0,
        "top (0,0|0,0) depth 1\n  (0,0|0,0): 1\n  (-1,1|0,0): 1\n  (0,0|-1,1): 1\n",
        "warning: (0,0|0,0) is not g_-1-generic; the narrow character formula is unproven here\n",
    )


def test_coeffs_input(capsys):
    argv = ["char", "--type", "kac", "--m", "2", "--n", "1", "--coeffs", "3,1/0", "--depth", "2"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.startswith("top (3,1|0) depth 2\n")


def test_precondition_error_reported(capsys):
    # non-dominant weight: reported to stderr, usage exit
    code, out, err = run(
        capsys, ["euler", "--m", "2", "--n", "1", "--coords", "0,3/3", "--depth", "4"]
    )
    assert code == 2
    assert "error" in err


def test_image_refuses_non_generic_weight(capsys):
    # the trivial gl(2|2) weight: `euler` and `image` both refuse it
    weight = ["--m", "2", "--n", "2", "--coords", "0,-1/-1,0", "--depth", "4"]
    for command in ("euler", "image"):
        assert run(capsys, [command, *weight]) == (2, "", "error: (0,0|0,0) is not g_-1-generic\n")


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
    # the JSON bytes of the same commands are goldens
    code, out, _ = run(capsys, GOLDEN_COMMANDS["roots_21"].split())
    assert code == 0
    assert out == (
        "gl(2|1) partition:[1] seq:εδε\n"
        "simple roots: e1-d1 (odd), d1-e2 (odd)\n"
        "rho = (0,-1|1), rho_b = (0,0|0), ber = (1,1|-1)\n"
    )
    code, out, _ = run(capsys, GOLDEN_COMMANDS["roots_32"].split())
    assert code == 0
    assert out == (
        "gl(3|2) partition:[2,1] seq:εδεδε\n"
        "simple roots: e1-d1 (odd), d1-e2 (odd), e2-d2 (odd), d2-e3 (odd)\n"
        "rho = (0,-1,-2|2,1), rho_b = (0,0,0|0,0), ber = (1,1,1|-1,-1)\n"
    )


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


GL45 = ["--m", "4", "--n", "5", "--coords", "40,30,20,10/0,10,20,30,40"]


def test_gl45_genericity_uses_the_gap_criterion(capsys):
    """2^20 odd subsets: only the explicit brute mode hits the bound."""
    code, out, err = run(capsys, ["char", "--type", "narrow", *GL45, "--depth", "2"])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, ["generic", *GL45])
    assert (code, err) == (0, "") and "True" in out
    code, out, err = run(capsys, ["generic", *GL45, "--mode", "brute"])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        main(["generic", *GL45, "--mode", "auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_max_cells_env_validated(capsys, monkeypatch, value):
    """A bad SUPERCHAR_MAX_CELLS exits 2 before the command does any work,
    including commands that build no PBW window."""
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", value)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before SUPERCHAR_MAX_CELLS was checked")

    # the names the image and char commands reach first
    monkeypatch.setattr(bggcheck, "narrow_image_dims", no_work)
    monkeypatch.setattr(charring, "char_narrow", no_work)
    for argv in (
        ["image", "--m", "2", "--n", "1", "--coords", "3,0/3", "--depth", "2"],
        ["char", "--type", "narrow", "--m", "2", "--n", "1", "--coords", "3,0/3"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: SUPERCHAR_MAX_CELLS must be a positive integer, got {value!r}\n"


def test_image_verification_failure_exits_one(capsys, monkeypatch):
    real = bggcheck.narrow_image_dims
    monkeypatch.setattr(bggcheck, "narrow_image_dims", lambda lam, depth: {**real(lam, depth), lam: 2})
    argv = ["image", "--m", "2", "--n", "1", "--coords", "3,0/3", "--depth", "2"]
    code, out, _ = run(capsys, argv)
    assert code == 1 and out.startswith("narrow image ranks vs character at depth 2: FAIL\n")
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1 and json.loads(out)["pass"] is False


def test_suite_verification_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(bggcheck.SUITE, "pbw_oracle", lambda depth, seed: (False, "forced"))
    code, out, _ = run(capsys, ["suite", "--depth", "4"])
    assert code == 1 and "\nFAIL pbw_oracle: forced\n" in out and out.endswith("\nsuite: FAIL\n")


def test_euler_failure_exits_one(capsys, monkeypatch):
    """With the closed side doubled, `euler` reports a verification
    failure; with every monomial doubled, `char --type simple-td` meets an
    internal inconsistency at its top coefficient."""
    simple = bggcheck.char_simple_td
    monkeypatch.setattr(bggcheck, "char_simple_td", lambda lam, depth: simple(lam, depth).scale(2))
    weight = ["--m", "2", "--n", "1", "--coords", "3,0/3", "--depth", "4"]
    code, out, err = run(capsys, ["euler", *weight])
    assert (code, err) == (1, "")
    assert out.startswith("euler identity at depth 4: FAIL\n")
    assert "\nfirst discrepancy at " in out
    code, out, _ = run(capsys, ["euler", *weight, "--format", "json"])
    obj = json.loads(out)
    assert code == 1 and obj["pass"] is False
    assert set(obj["details"]["first_discrepancy"]) == {"weight", "lhs", "rhs"}
    monkeypatch.setattr(
        charring, "monomial", lambda lam, depth: charring.FormalChar(lam.profile, lam, depth, {lam: 2})
    )
    code, out, err = run(capsys, ["char", "--type", "simple-td", *weight])
    assert (code, out) == (4, "")
    assert err == "error: simple character is not normalized at its top weight\n"


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
