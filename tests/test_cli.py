from __future__ import annotations

import pytest

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
    rc, out, _ = run(capsys, "bounds", "--which", "hamming", "--verbose")
    assert rc == 0
    assert out == "hamming\tn=2 a_norm_sq=2 delta=1/5 d=2\t4/5\n"


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
