from __future__ import annotations

import contextlib
import io
import pathlib
import re
import shlex

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, seed, settings
from test_verify import VERIFY_ALL_TSV

from cosetcodes import cli, verify


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
    call order as given (booleans lower-cased), and its value, exact or
    under --float a decimal."""
    cases = [
        ((), "hamming\tn=2 a_norm_sq=2 delta=1/5 d=2\t4/5"),
        (("--float",), "hamming\tn=2 a_norm_sq=2 delta=1/5 d=2\t0.8"),
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
        (("weights", "--kind", "lee", "--word", "1,i"), "4"),  # f4i by default
        # ',' and ';' outside brackets separate symbols alike
        (("weights", "--kind", "hamming", "--word", "1;w", "--ring", "f4"), "2"),
        (("weights", "--kind", "bachoc", "--word", "[[1,0],[0,1]],[[1,1],[0,0]]"), "3"),
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


# argv, the one error line; a --code-file argument is the
# file's text, written to a temporary file before the run
_REFUSALS = {
    "fraction": (("bounds", "--which", "hamming", "--delta", "1/0"), "not a fraction: '1/0'"),
    "fraction-nan": (("bounds", "--which", "hamming", "--delta", "nan"), "not a fraction: 'nan'"),
    "fraction-inf": (("bounds", "--which", "hamming", "--delta", "inf"), "not a fraction: 'inf'"),
    "certified": (("mindist", "--code", "hexacode", "--certified"),
                  "--certified applies to the reed-solomon codes"),
    "no-ds": (("bounds", "--which", "multilevel_m4"), "this bound needs a comma list of 4 integers"),
    "bad-ds": (("bounds", "--which", "multilevel_m4", "--ds", "1,x,3,4"),
               "not an integer list: '1,x,3,4'"),
    "short-ks": (("bounds", "--which", "rate_m4", "--ks", "1,2,3"), "expected 4 integers, got 3"),
    "rate-L0": (("bounds", "--which", "rate_m4", "--ks", "0,0,0,0", "--L", "0"), "L must be >= 1"),
    "pair-element": (("iso", "--which", "m2f2_f4j", "--element", "w"),
                     "pair models need --element 'x; y'"),
    "bare-verify": (("verify",), "give --all or --claim ID"),
    "empty-element": (("weights", "--kind", "hamming", "--word", "1,,w", "--ring", "f4"),
                      "empty element string"),
    "open-paren": (("weights", "--kind", "hamming", "--word", "(1+w", "--ring", "f4"),
                   "unbalanced parentheses in '(1+w'"),
    "close-paren": (("weights", "--kind", "hamming", "--word", "1+w)", "--ring", "f4"),
                    "unbalanced parentheses in '1+w)'"),
    "empty-file": (("mindist", "--code-file", ""), "empty code file"),
    "missing-row": (("mindist", "--code-file", "f4 2 2\n1,0\n"), "expected 2 generator rows, found 1"),
    "header-not-int": (("mindist", "--code-file", "f4 x 1\n"),
                       "header L and k must be integers, got 'f4 x 1'"),
    "matrix-1x1": (("encode", "--code", "matrix_parity", "--msg", "[[1]]"),
                   "not a 2x2 matrix over f2: '[[1]]'"),
    "matrix-3x3": (("encode", "--code", "repetition", "--msg", "[[1,0,1],[0,1,0],[1,1,1]]"),
                   "not a 2x2 matrix over f2: '[[1,0,1],[0,1,0],[1,1,1]]'"),
    "coset-1x1": (("mindet", "--box", "1", "--coset", "[[1]]", "--ideal", "1pi"),
                  "not a 2x2 matrix over f2: '[[1]]'"),
    "coset-3x3": (("mindet", "--box", "1", "--coset", "[[1,0,i],[0,1,0],[1,1,1]]", "--ideal", "2"),
                  "not a 2x2 matrix over f2i: '[[1,0,i],[0,1,0],[1,1,1]]'"),
    "matrix-ragged": (("encode", "--code", "repetition", "--msg", "[[1,0],[0]]"),
                      "matrix literal is not square: '[[1,0],[0]]'"),
    "word-ragged": (("weights", "--kind", "bachoc", "--word", "[[1,0],[0]]"),
                    "matrix literal is not square: '[[1,0],[0]]'"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusals_print_one_error_line(capsys, tmp_path, case):
    """Exit 2, nothing on stdout and exactly the one error line on stderr."""
    argv, message = _REFUSALS[case]
    if "--code-file" in argv:
        path = tmp_path / "code.txt"
        path.write_text(argv[2])
        argv = (*argv[:2], str(path))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("which,element", [("f16m4", "w; 1; 0; w^3+1"), ("f8m3", "w^2; 1+w; w")])
def test_iso_cyclic_element_images(capsys, which, element):
    """--element of a cyclic model prints the library image of the parsed element."""
    from cosetcodes.cyclic import CyclicElement, iso_f8_to_m3, iso_f16_to_m4
    from cosetcodes.rings import F8, F16_ALT

    ring, iso = {"f8m3": (F8, iso_f8_to_m3), "f16m4": (F16_ALT, iso_f16_to_m4)}[which]
    rc, out, err = run(capsys, "iso", "--which", which, "--element", element)
    assert (rc, out, err) == (0, f"{iso(CyclicElement.parse(ring, element))}\n", "")


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
        # 4^12 messages: the 5 592 405 words after head 1, weighed in lane blocks
        (("mindist", "--code", "parity", "--L", "13", "--ring", "f4"), "2"),
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


def test_enumerate_invertible_lists_gl2_f2(capsys):
    rc, out, _ = run(capsys, "enumerate", "--ring", "f2", "--n", "2", "--invertible")
    assert rc == 0
    assert out.splitlines() == [
        "[[0,1],[1,0]]", "[[0,1],[1,1]]", "[[1,0],[0,1]]",
        "[[1,0],[1,1]]", "[[1,1],[0,1]]", "[[1,1],[1,0]]",
    ]


def test_encode_matrix_message(capsys):
    rc, out, _ = run(
        capsys, "encode", "--code", "matrix_parity", "--L", "3",
        "--msg", "[[1,0],[0,1]];[[0,1],[1,0]]",
    )
    assert rc == 0
    assert out == "[[1,0],[0,1]],[[0,1],[1,0]],[[1,1],[1,1]]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("weights", "--kind", "bachoc", "--word", ";"),
        ("weights", "--kind", "bachoc", "--word", "[[1,0],[0,1]];;[[1,1],[0,0]]"),
        ("encode", "--code", "repetition", "--msg", "[[1,0],[0,1]];"),
    ],
    ids=["bachoc-only-separator", "bachoc-empty-middle", "encode-trailing-separator"],
)
def test_empty_matrix_chunk_is_refused(capsys, argv):
    """An empty ';' chunk of a matrix word is a malformed symbol, refused
    like an empty ring symbol, not dropped."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: matrix literal must look like [[...],[...]]: ''\n"


# Every named code, with the lengths and rings it takes.
_ENCODE_CASES = st.one_of(
    st.tuples(st.sampled_from(["dualrep", "hexacode", "rs16_13", "rs16_14", "inner_pair"]),
              st.none(), st.none()),
    st.tuples(st.just("matrix_parity"), st.integers(2, 4), st.none()),
    st.tuples(st.sampled_from(["repetition", "parity"]), st.integers(2, 4),
              st.sampled_from([None, "f2", "f2i", "f4", "f4i", "f8", "f16", "f16alt"])),
)


def _main(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@seed(20261020)
@settings(max_examples=120, deadline=None, database=None)
@given(case=_ENCODE_CASES, data=st.data())
def test_encode_output_is_a_word_weights_reads(case, data):
    """`weights` of `encode`'s stdout is the library weight of the
    codeword: Bachoc over M2(F2), Hamming over a ring."""
    from cosetcodes.outer_codes import MatrixSpace, WeightKind, named_code, word_weight

    name, L, ring = case
    code = named_code(name, L=L, ring_name=ring)
    alphabet = code.alphabet
    message = [alphabet.element(data.draw(st.integers(0, alphabet.size - 1)))
               for _ in range(code.k)]
    separator = data.draw(st.sampled_from([",", ";", ", ", " ; "]))
    flags = [*(("--L", str(L)) if L else ()), *(("--ring", ring) if ring else ())]
    rc, word = _main("encode", "--code", name, *flags, "--msg", separator.join(map(str, message)))
    assert rc == 0
    if isinstance(alphabet, MatrixSpace):
        kind, flags = WeightKind.BACHOC, []
    else:
        kind, flags = WeightKind.HAMMING, ["--ring", alphabet.name]
    weight = word_weight(code.encode(message), kind)
    assert _main("weights", "--kind", kind.value, *flags, "--word", word.strip()) == (0, f"{weight}\n")


def test_weight_choices_are_the_weight_kinds():
    """--weight lists its choices literally, so that building the parser
    imports no outer_codes; they must stay the WeightKind values."""
    from cosetcodes.outer_codes import WeightKind

    mindist = cli.build_parser()._subparsers._group_actions[0].choices["mindist"]
    (weight,) = [a for a in mindist._actions if a.dest == "weight"]
    assert weight.choices == [k.value for k in WeightKind]


def test_unknown_claim_message_lists_every_claim(capsys):
    """--claim is validated by argparse against verify.CLAIMS, read only
    when a claim is given; the refusal names all sixteen claims."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--claim", "nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(verify.CLAIMS) == 16
    listed = ", ".join(repr(name) for name in sorted(verify.CLAIMS))
    assert err.endswith(f"argument --claim: invalid choice: 'nosuch' (choose from {listed})\n")


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
    assert run(capsys, "iso", "--which", "m2f2_f4j", "--element", "w, 1") == (0, "[[0,0],[0,1]]\n", "")


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
    for flag, value in (("--n", "-1"), ("--a-norm-sq", "0")):
        rc, out, err = run(capsys, "bounds", "--which", "hamming", flag, value)
        assert rc == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--code", "rs16_13", "--weight", "lee"),
        ("--code", "rs16_13", "--weight", "bachoc"),
        ("--code", "rs16_13", "--transform", "pairs"),
        ("--code", "rs16_14", "--transform", "lift", "--weight", "hamming"),
    ],
    ids=["lee", "bachoc", "pairs", "lift"],
)
def test_mindist_certified_refuses_transform_and_weight(capsys, argv):
    """The minor certificate gives the Hamming distance of the RS code
    itself, so a transform or another weight is refused, not dropped."""
    rc, out, err = run(capsys, "mindist", *argv, "--certified")
    assert rc == 2
    assert out == ""
    assert err == (
        "error: --certified takes no --transform or --weight: "
        "it certifies the code's own hamming distance\n"
    )


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("mindist", "--code", "hexacode", "--L", "9"), "L"),
        (("mindist", "--code", "hexacode", "--ring", "f16"), "ring"),
        (("mindist", "--code", "rs16_13", "--certified", "--ring", "f16"), "ring"),
        (("mindist", "--code", "matrix_parity", "--ring", "f4"), "ring"),
        (("encode", "--code", "dualrep", "--L", "4", "--msg", "1,w,w+1"), "L"),
        (("encode", "--code", "matrix_parity", "--ring", "f2", "--msg", "1"), "ring"),
    ],
)
def test_unused_code_parameters_are_refused(capsys, argv, flag):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: code {argv[2]} takes no --{flag}\n"


@pytest.mark.parametrize(
    "extra", [("--code", "hexacode"), ("--L", "9"), ("--ring", "f16")], ids=["code", "L", "ring"]
)
@pytest.mark.parametrize("command", [("mindist",), ("encode", "--msg", "1")])
def test_code_file_refuses_named_code_flags(capsys, tmp_path, command, extra):
    path = tmp_path / "code.txt"
    path.write_text("f4 2 1\n1 1\n")
    rc, out, err = run(capsys, *command, "--code-file", str(path), *extra)
    assert rc == 2
    assert out == ""
    assert err == "error: --code-file takes no --code, --L or --ring\n"


def test_empty_ring_is_refused_not_defaulted(capsys):
    """An empty --ring names no ring; only a missing one means M2(F2)
    (or, for weights, f4i)."""
    rc, out, err = run(capsys, "mindist", "--code", "repetition", "--ring", "")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: unknown ring ''; known: ") and err.count("\n") == 1
    rc, out, err = run(capsys, "weights", "--kind", "lee", "--word", "1", "--ring", "")
    assert (rc, out) == (2, "")
    assert err.startswith("error: unknown ring ''; known: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("weights", "--kind", "bachoc", "--word", "[[1,0],[0,1]]", "--ring", "f16"),
         "--kind bachoc takes no --ring: its words are over M2(F2)"),
        (("weights", "--kind", "bachoc", "--word", "[[1,0],[0,1]]", "--ring", ""),
         "--kind bachoc takes no --ring: its words are over M2(F2)"),
        (("bounds", "--which", "bachoc", "--n", "7", "--q", "9"),
         "--which bachoc takes no --n, --q"),
        (("bounds", "--which", "hamming", "--float", "--verbose", "--duplicate-d3"),
         "--which hamming takes no --duplicate-d3"),
        (("bounds", "--which", "multilevel_m2f2i", "--ds", "2,3", "--delta", "1/5"),
         "--which multilevel_m2f2i takes no --delta"),
        (("bounds", "--which", "gv", "--a-norm-sq", "2", "--ks", "1,2,3,4", "--k", "0"),
         "--which gv takes no --a-norm-sq, --ks, --k"),
        (("iso", "--which", "f8m3", "--element", "1;0;0", "--check"),
         "give --element or --check, not both"),
        (("verify", "--all", "--claim", "counts"), "give --all or --claim ID, not both"),
    ],
    ids=["weights-ring", "weights-empty-ring", "bounds-n-q", "bounds-flag",
         "bounds-delta", "bounds-three", "iso", "verify"],
)
def test_flags_a_command_does_not_take_are_refused(capsys, argv, message):
    """A flag that would be dropped silently is refused with one line."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_bounds_flags_at_their_defaults_are_still_taken(capsys):
    """Each bound takes its own flags: given at their defaults, they print
    the same --verbose line as when they are left out."""
    for which, (_, params) in cli._BOUNDS.items():
        lists = {"ds": "1,2,3,4" if which == "multilevel_m4" else "2,3", "ks": "1,2,2,2"}
        base = ["bounds", "--which", which, "--verbose"]
        base += [f"--{name}={lists[name]}" for name in params if name in lists]
        at_defaults = [
            f"--{name.replace('_', '-')}={cli._BOUND_DEFAULTS[name]}"
            for name in params
            if name not in lists and name != "duplicate_d3"
        ]
        bare = run(capsys, *base)
        assert bare[0] == 0 and run(capsys, *base, *at_defaults) == bare, which


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
        "--word": ["1,w", "1+i,i", "[[1,0],[0,1]];[[1,1],[0,0]]", "[[1,0]]", "", ",", "zz",
                   "[[1,0],[0,1]],[[1,1],[0,0]]", "1;w"],
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
        "--msg": ["1", "1,w,w+1", "[[1,0],[0,1]]", "[[1,0],[0,1]];[[0,0],[0,1]]", "", "zz",
                  "[[1,0],[0,1]],[[1,1],[0,0]]", "1;w"],
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
        "--element": ["w; 1; 0", "1; w; w^2; w^3", "w; 1", "1+iw; i", "1;2;3;4;5", "", "zz",
                      "w, 1"],
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


def _readme_examples():
    """(command, documented stdout) for every `$ cosetcodes ...` line in the
    README's text blocks; the output runs to the next command or the end of
    the block, trailing blank lines dropped."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", readme, re.M | re.S):
        for chunk in re.split(r"^\$ cosetcodes ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.rstrip("\n") + "\n"))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_lists_every_example():
    assert len(README_EXAMPLES) == 16


@pytest.mark.parametrize("command,expected", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_cli_example(claim_result, monkeypatch, capsys, command, expected):
    """The documented stdout, byte for byte.  Claims come from the session's
    cached reports, and `verify --all` is the pinned text of test_verify."""
    argv = shlex.split(command, comments=True)
    if argv == ["verify", "--all"]:
        assert expected == VERIFY_ALL_TSV
        return
    monkeypatch.setattr(verify, "run_claim", claim_result)
    assert run(capsys, *argv)[:2] == (0, expected)
