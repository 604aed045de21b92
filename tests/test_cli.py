from __future__ import annotations

import contextlib
import io

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cosetcodes import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_mindet_small_box(capsys):
    rc, out, _ = run(capsys, "mindet", "--box", "1")
    assert rc == 0
    assert out == "1/5\nwitness\t(-1-i, -1-i, -1-i, i)\n"


def test_mindet_float_flag(capsys):
    rc, out, _ = run(capsys, "mindet", "--box", "1", "--float")
    assert rc == 0
    assert out.splitlines()[0] == "0.2"


def test_mindet_jobs_output_identical(capsys):
    rc1, out1, _ = run(capsys, "mindet", "--box", "1", "--jobs", "1")
    rc2, out2, _ = run(capsys, "mindet", "--box", "1", "--jobs", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_mindet_coset_restricted(capsys):
    rc, out, _ = run(
        capsys, "mindet", "--box", "1", "--coset", "[[1,0],[0,1]]", "--ideal", "1pi"
    )
    assert rc == 0
    assert out.splitlines()[0] == "1/5"


@pytest.mark.parametrize("literal", ["[[1,0], [0,1]]", " [[1, 0],\t[0, 1]] "])
def test_mindet_coset_spaced_literal(capsys, literal):
    _, expected, _ = run(
        capsys, "mindet", "--box", "1", "--coset", "[[1,0],[0,1]]", "--ideal", "1pi"
    )
    rc, out, _ = run(capsys, "mindet", "--box", "1", "--coset", literal, "--ideal", "1pi")
    assert rc == 0
    assert out == expected


@pytest.mark.parametrize("box", ["0", "-1"])
def test_mindet_rejects_an_empty_box(capsys, box):
    rc, out, err = run(capsys, "mindet", "--box", box)
    assert rc == 2
    assert out == ""
    assert err == "error: box must be at least 1\n"


def test_mindet_refuses_a_box_over_the_enumeration_limit(capsys):
    rc, out, err = run(capsys, "mindet", "--box", "16")
    assert rc == 2
    assert out == ""
    assert err == (
        "error: box 16 has 1185921 half-codewords, over the enumeration limit 1048576\n"
    )


def test_mindet_empty_coset(capsys):
    rc, _, err = run(
        capsys, "mindet", "--box", "1", "--coset", "[[0,0],[0,0]]", "--ideal", "2"
    )
    assert rc == 2
    assert err == "error: no nonzero codeword matches the requested coset in the box\n"


def test_mindet_coset_needs_ideal(capsys):
    rc, _, err = run(capsys, "mindet", "--box", "1", "--coset", "[[1,0],[0,1]]")
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("bounds", "--which", "hamming"), "4/5"),
        (("bounds", "--which", "gv", "--q", "4", "--L", "6", "--d", "4"), "2048/347"),
        (
            ("bounds", "--which", "redundancy", "--bits", "28", "--L", "16", "--n", "4"),
            "7/16",
        ),
        (("bounds", "--which", "rate_m4", "--ks", "13,14,15,15", "--L", "16"), "57/64"),
        (
            (
                "bounds",
                "--which",
                "multilevel_m4",
                "--ds",
                "4,3,2,2",
                "--delta",
                "1/1125",
            ),
            "16/1125",
        ),
        (("bounds", "--which", "bachoc", "--delta", "1/5", "--d", "2"), "2/5"),
    ],
)
def test_bounds_values(capsys, argv, expected):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == expected + "\n"


def test_bounds_verbose_line(capsys):
    """The --verbose line of every bound: its name, its CLI parameters in
    call order as given (booleans lower-cased), and its value."""
    cases = [
        ((), "hamming\tn=2 a_norm_sq=2 delta=1/5 d=2\t4/5"),
        ((), "bachoc\tdelta=1/5 d=2\t2/5"),
        ((), "hamming_m2f2i\tdelta=1/5 d=2\t4/5"),
        (("--ds", "1,2,3,4", "--duplicate-d3"),
         "multilevel_m4\tds=1,2,3,4 delta=1/5 duplicate_d3=true\t1/5"),
        (("--ds", "2,3"), "multilevel_m2f2i\tds=2,3\t4"),
        (("--bits", "8", "--L", "3"), "redundancy\tbits=8 L=3 n=2\t4/3"),
        (("--L", "4", "--k", "2"), "rate_m2f2i\tL=4 k=2\t1/2"),
        (("--ks", "1,2,3,4", "--L", "5"), "rate_m4\tks=1,2,3,4 L=5\t1/2"),
        (("--L", "5", "--d", "3"), "gv\tq=4 L=5 d=3\t512/53"),
    ]
    for extra, line in cases:
        which = line.split("\t")[0]
        rc, out, _ = run(capsys, "bounds", "--which", which, "--verbose", *extra)
        assert rc == 0
        assert out == line + "\n"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("weights", "--kind", "hamming", "--word", "w,0,w+1", "--ring", "f4"), "2"),
        (("weights", "--kind", "lee", "--word", "1,1", "--ring", "f4i"), "4"),
        (
            (
                "weights",
                "--kind",
                "bachoc",
                "--word",
                "[[1,0],[0,1]];[[0,0],[0,0]];[[1,1],[1,1]]",
            ),
            "3",
        ),
    ],
)
def test_weights(capsys, argv, expected):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == expected + "\n"


def test_encode(capsys):
    rc, out, _ = run(capsys, "encode", "--code", "dualrep", "--msg", "1,w,w+1")
    assert rc == 0
    assert out == "0,1,w,w+1\n"


@pytest.mark.parametrize("command", [("mindist",), ("encode", "--msg", "1")])
def test_missing_code_file_exit_2(capsys, tmp_path, command):
    missing = str(tmp_path / "missing")
    rc, out, err = run(capsys, *command, "--code-file", missing)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and missing in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("header", ["f4 -1 0", "f4 2 -1"])
def test_negative_code_file_header_exit_2(capsys, tmp_path, header):
    path = tmp_path / "code.txt"
    path.write_text(header + "\n")
    rc, out, err = run(capsys, "mindist", "--code-file", str(path))
    assert rc == 2
    assert out == ""
    assert err == f"error: header L and k must not be negative, got '{header}'\n"


@pytest.mark.parametrize(
    "code,least", [("repetition", 1), ("parity", 2), ("matrix_parity", 2)]
)
def test_mindist_length_zero_is_refused(capsys, code, least):
    """--L 0 is a length, not a request for the default one."""
    rc, out, err = run(capsys, "mindist", "--code", code, "--L", "0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and f"L >= {least}, got 0" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("mindist", "--code", "parity", "--ring", "f2", "--L", "100000"),
        ("encode", "--code", "parity", "--ring", "f2", "--L", "100000", "--msg", "1"),
    ],
    ids=["mindist", "encode"],
)
def test_long_parity_code_is_refused(capsys, argv):
    """A parity code too long to enumerate is refused before its generator
    is built: one error line, no traceback."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == (
        "error: a parity-check code of length 100000 has 9999900000 generator "
        "entries, over the enumeration limit 1048576\n"
    )


def test_encode_wrong_length(capsys):
    rc, _, err = run(capsys, "encode", "--code", "dualrep", "--msg", "1,w")
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("mindist", "--code", "dualrep"), "2"),
        (("mindist", "--code", "dualrep", "--transform", "pairs", "--weight", "bachoc"), "2"),
        (("mindist", "--code", "dualrep", "--transform", "pairs", "--weight", "hamming"), "1"),
        (("mindist", "--code", "hexacode"), "4"),
        (("mindist", "--code", "rs16_13", "--certified"), "4"),
        (("mindist", "--code", "rs16_14", "--certified"), "3"),
    ],
)
def test_mindist(capsys, argv, expected):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == expected + "\n"


def test_enumerate_streams_lexicographically(capsys):
    rc, out, _ = run(capsys, "enumerate", "--ring", "f2", "--n", "2")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0] == "[[0,0],[0,0]]"
    assert lines[1] == "[[0,0],[0,1]]"
    assert lines[-1] == "[[1,1],[1,1]]"


def test_iso_element_images(capsys):
    rc, out, _ = run(capsys, "iso", "--which", "f8m3", "--element", "w; 1; 0")
    assert rc == 0
    assert out == "[[1,1,0],[0,0,0],[1,0,1]]\n"
    rc, out, _ = run(capsys, "iso", "--which", "m2f2_f4j", "--element", "w; 1")
    assert rc == 0
    assert out == "[[0,0],[0,1]]\n"
    rc, out, _ = run(capsys, "iso", "--which", "m2f2i_f4ij", "--element", "1+iw; i")
    assert rc == 0
    assert out == "[[1,0],[0,1+i]]\n"


def test_iso_check_pass_and_relation_report(capsys):
    rc, out, _ = run(capsys, "iso", "--which", "m2f2_f4j", "--check")
    assert rc == 0
    assert out == "m2f2_f4j: pass\n"
    rc, out, _ = run(capsys, "iso", "--which", "f16m4", "--check")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "f16m4: pass"
    assert any("w^4 + w^2 + 1 = 0: FAIL" in line for line in lines)
    assert any("w^4 + w + 1 = 0: pass" in line for line in lines)


def test_verify_single_claim_tsv(capsys):
    rc, out, _ = run(capsys, "verify", "--claim", "counts")
    assert rc == 0
    line = out.splitlines()[0]
    fields = line.split("\t")
    assert fields[0] == "counts" and fields[1] == "pass"


def test_verify_plain_format(capsys):
    rc, out, _ = run(capsys, "verify", "--claim", "norm_f4i", "--format", "plain")
    assert rc == 0
    assert out.splitlines()[0].startswith("norm_f4i: pass")


def test_verify_jobs_byte_identical(capsys):
    rc1, out1, _ = run(capsys, "verify", "--claim", "golden_mindet", "--jobs", "1")
    rc2, out2, _ = run(capsys, "verify", "--claim", "golden_mindet", "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--claim", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-subcommand"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, _, err = run(capsys, "bounds", "--which", "hamming", "--delta", "0")
    assert rc == 2 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--code", "repetition", "--transform", "lift"),
        ("--code", "repetition", "--ring", "f2", "--transform", "pairs"),
        ("--code", "parity", "--ring", "f8", "--transform", "lift"),
    ],
    ids=["lift-m2f2", "pairs-f2", "lift-f8"],
)
def test_mindist_transform_needs_a_quadratic_alphabet(capsys, argv):
    rc, out, err = run(capsys, "mindist", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "f4 or f4i" in err
    assert err.count("\n") == 1


# CLI fuzzing: per subcommand, each flag with the values it may take.  Every
# valid draw stays small (no verify and no iso --check; mindet at box 1 or
# the default 2, larger boxes refused; lengths up to 3; matrix enumeration
# over f2 and f2i up to 2x2), so a draw runs in milliseconds.
_CODES = ["repetition", "parity", "matrix_parity", "dualrep", "hexacode",
          "inner_pair", "rs16_13", "nosuch"]
_RINGS = ["f2", "f2i", "f4", "f4i", "f8", "f16", "f16alt", "nosuch"]
_FUZZ_FLAGS = {
    "mindet": {
        "--box": ["-1", "0", "1", "16", "x"],
        "--coset": ["[[1,0],[0,1]]", "[[1+i,0],[0,1]]", "[[1,0]]", "[[2]]", "junk"],
        "--ideal": ["1pi", "2", "3"],
        "--jobs": ["1", "2", "x"],
        "--float": None,
    },
    "mindist": {
        "--code": _CODES,
        "--code-file": ["no-such-code-file.txt", "."],
        "--weight": ["hamming", "bachoc", "lee", "x"],
        "--transform": ["none", "lift", "pairs", "x"],
        "--certified": None,
        "--L": ["-1", "0", "1", "2", "3", "x"],
        "--ring": _RINGS,
    },
    "weights": {
        "--kind": ["hamming", "bachoc", "lee", "x"],
        "--word": ["1,w", "1+i,i", "[[1,0],[0,1]];[[1,1],[0,0]]", "[[1,0]]", "", ",", "zz"],
        "--ring": _RINGS,
    },
    "bounds": {
        "--which": ["hamming", "bachoc", "hamming_m2f2i", "multilevel_m4",
                    "multilevel_m2f2i", "redundancy", "rate_m2f2i", "rate_m4", "gv", "x"],
        "--n": ["-1", "0", "2", "x"],
        "--a-norm-sq": ["2", "0", "-1", "1/0", "x"],
        "--delta": ["1/5", "0", "-1", "1/0", "x"],
        "--d": ["-1", "0", "2", "9"],
        "--ds": ["1,2,3,4", "1,2", "0,0", "x", ""],
        "--ks": ["1,2,3,4", "1,2", "x"],
        "--bits": ["-1", "0", "8"],
        "--L": ["-1", "0", "1", "2", "3"],
        "--k": ["-1", "0", "1"],
        "--q": ["-1", "0", "1", "4"],
        "--duplicate-d3": None,
        "--float": None,
        "--verbose": None,
    },
    "encode": {
        "--code": _CODES,
        "--code-file": ["no-such-code-file.txt", "."],
        "--msg": ["1", "1,w,w+1", "[[1,0],[0,1]]", "[[1,0],[0,1]];[[0,0],[0,1]]", "", "zz"],
        "--L": ["-1", "0", "1", "2", "3", "x"],
        "--ring": _RINGS,
    },
    "enumerate": {
        "--ring": ["f2", "f2i", "nosuch"],
        "--n": ["-1", "0", "1", "2", "x"],
        "--invertible": None,
    },
    "iso": {
        "--which": ["f8m3", "f16m4", "m2f2_f4j", "m2f2i_f4ij", "x"],
        "--element": ["w; 1; 0", "1; w; w^2; w^3", "w; 1", "1+iw; i", "1;2;3;4;5", "", "zz"],
    },
}
_STRAYS = ["--bogus", "x", "-h", "--box"]


@st.composite
def _cli_argv(draw):
    """A subcommand with each of its flags present or not, then maybe one
    stray token at any position (which can also leave a flag without its
    value)."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS) + ["bogus"]))
    argv = [command]
    for flag, values in _FUZZ_FLAGS.get(command, {}).items():
        if draw(st.booleans()):
            argv.append(flag)
            if values:
                argv.append(draw(st.sampled_from(values)))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_STRAYS)))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_cli_argv())
@example(argv=["mindist", "--code", "repetition", "--transform", "lift"])
@example(argv=["mindist", "--code", "repetition", "--ring", "f2", "--transform", "pairs"])
@example(argv=["mindist", "--code", "parity", "--ring", "f8", "--transform", "lift"])
@example(argv=["mindist", "--code", "repetition", "--ring", "f2", "--weight", "bachoc"])
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
