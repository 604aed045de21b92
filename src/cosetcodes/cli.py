"""Command-line front end: one subcommand per module surface.

All numeric output is exact (fractions as ``p/q``) unless ``--float`` is
given, and identical invocations produce byte-identical output — nothing
nondeterministic (timings, worker counts, hash order) ever reaches stdout.

Each handler imports the modules it uses when it runs, and building the
parser imports none, so a command compiles only its own layers:
``cosetcodes mindet`` loads rings, matrices, cyclic and golden, and only
``verify`` and ``iso --check`` load the certification oracles.

Exit codes: 0 success, 1 a certification claim failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a fraction: {text!r}") from None


def _parse_word(alphabet, text: str) -> list:
    """The symbols of a word over ``alphabet`` (a ring or a matrix space):
    a ``,`` or ``;`` outside brackets separates them, and each, stripped,
    is read by ``alphabet.parse``, which refuses an empty one.  ``encode``
    prints words in this grammar."""
    symbols, depth, start = [], 0, 0
    for at, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if depth == 0 and ch in ",;":
            symbols.append(alphabet.parse(text[start:at].strip()))
            start = at + 1
    symbols.append(alphabet.parse(text[start:].strip()))
    return symbols


def _print_value(value, as_float: bool) -> None:
    print(float(value) if as_float else value)


# ----------------------------------------------------------------------
# subcommand handlers

def _cmd_mindet(args) -> int:
    from .golden import _IDEALS, min_abs_det_sq
    from .matrices import RingMatrix

    coset = None
    if args.coset is not None:
        if args.ideal is None:
            raise UsageError("--coset needs --ideal 1pi|2")
        # over the subring of the ideal's pair ring: F2 for 1pi, F2[i] for 2
        coset = RingMatrix._parse_n(_IDEALS[args.ideal].ring.subring, 2, args.coset)
    elif args.ideal is not None:
        raise UsageError("--ideal needs --coset")
    value, witness = min_abs_det_sq(args.box, coset=coset, ideal=args.ideal)
    _print_value(value, args.float)
    print(f"witness\t{witness}")
    return 0


def _load_cli_code(args):
    from .outer_codes import load_code, named_code

    if args.code_file:
        if args.code is not None or args.L is not None or args.ring is not None:
            raise UsageError("--code-file takes no --code, --L or --ring")
        with open(args.code_file, "r", encoding="utf-8") as fh:
            return load_code(fh.read())
    if not args.code:
        raise UsageError("give --code NAME or --code-file PATH")
    return named_code(args.code, L=args.L, ring_name=args.ring)


def _cmd_mindist(args) -> int:
    from .outer_codes import (
        WeightKind,
        lift_code,
        min_distance,
        pushforward_pairs,
        rs_distance_certificate,
    )

    code = _load_cli_code(args)
    if args.certified:
        if not code.name.startswith("rs["):
            raise UsageError("--certified applies to the reed-solomon codes")
        if args.transform != "none" or args.weight != "hamming":
            raise UsageError(
                "--certified takes no --transform or --weight: "
                "it certifies the code's own hamming distance"
            )
        print(rs_distance_certificate(code))
        return 0
    if args.transform == "lift":
        code = lift_code(code)
    elif args.transform == "pairs":
        code = pushforward_pairs(code)
    kind = WeightKind(args.weight)
    print(min_distance(code, kind))
    return 0


def _cmd_weights(args) -> int:
    from .outer_codes import MatrixSpace, WeightKind, word_weight
    from .rings import F2, get_ring

    if args.kind == "bachoc":
        if args.ring is not None:
            raise UsageError("--kind bachoc takes no --ring: its words are over M2(F2)")
        alphabet = MatrixSpace(F2, 2)
    else:
        alphabet = get_ring("f4i" if args.ring is None else args.ring)
    print(word_weight(_parse_word(alphabet, args.word), WeightKind(args.kind)))
    return 0


# --which name -> (function name in ``bounds``, its CLI parameters in call order)
_BOUNDS = {
    "hamming": ("hamming_bound", ("n", "a_norm_sq", "delta", "d")),
    "bachoc": ("bachoc_bound", ("delta", "d")),
    "hamming_m2f2i": ("hamming_bound_m2f2i", ("delta", "d")),
    "multilevel_m4": ("multilevel_bound_m4", ("ds", "delta", "duplicate_d3")),
    "multilevel_m2f2i": ("multilevel_min_m2f2i", ("ds",)),
    "redundancy": ("normalized_redundancy", ("bits", "L", "n")),
    "rate_m2f2i": ("rate_m2f2i", ("L", "k")),
    "rate_m4": ("multilevel_rate_m4", ("ks", "L")),
    "gv": ("gv_bound", ("q", "L", "d")),
}

# Every bound parameter with the value it takes when its flag is absent.
# The parser leaves absent flags at None, so a flag the chosen bound does
# not take can be refused instead of dropped.
_BOUND_DEFAULTS = {
    "n": 2, "a_norm_sq": "2", "delta": "1/5", "d": 2, "ds": None, "ks": None,
    "bits": 0, "L": 2, "k": 0, "q": 4, "duplicate_d3": False,
}


def _cmd_bounds(args) -> int:
    from . import bounds

    function_name, params = _BOUNDS[args.which]
    flagged = {
        name: v for name in _BOUND_DEFAULTS if (v := getattr(args, name)) is not None
    }
    stray = ["--" + name.replace("_", "-") for name in flagged if name not in params]
    if stray:
        raise UsageError(f"--which {args.which} takes no {', '.join(stray)}")
    given = [flagged.get(name, _BOUND_DEFAULTS[name]) for name in params]
    values = []
    for name, v in zip(params, given):
        if name in ("a_norm_sq", "delta"):
            values.append(_parse_fraction(v))
        elif name == "ds":  # one positional distance per level
            values += _parse_int_list(v, 2 if args.which == "multilevel_m2f2i" else 4)
        elif name == "ks":
            values.append(_parse_int_list(v, 4))
        else:
            values.append(v)
    value = getattr(bounds, function_name)(*values)
    if args.float:
        value = float(value)
    if args.verbose:
        inputs = " ".join(
            f"{name}={str(v).lower() if isinstance(v, bool) else v}"
            for name, v in zip(params, given)
        )
        value = f"{args.which}\t{inputs}\t{value}"
    print(value)
    return 0


def _parse_int_list(text: str | None, count: int) -> list[int]:
    if not text:
        raise UsageError(f"this bound needs a comma list of {count} integers")
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"not an integer list: {text!r}") from None
    if len(values) != count:
        raise UsageError(f"expected {count} integers, got {len(values)}")
    return values


def _cmd_encode(args) -> int:
    code = _load_cli_code(args)
    message = _parse_word(code.alphabet, args.msg)
    if len(message) != code.k:
        raise UsageError(f"{code.name} needs a {code.k}-symbol message")
    print(",".join(str(x) for x in code.encode(message)))
    return 0


def _cmd_enumerate(args) -> int:
    from .matrices import all_matrices
    from .rings import get_ring

    ring = get_ring(args.ring)
    for m in all_matrices(ring, args.n):
        if args.invertible and not m.is_invertible:
            continue
        print(m)
    return 0


_ISO_CLAIMS = {
    "f8m3": "iso_f8m3",
    "f16m4": "iso_f16m4",
    "m2f2_f4j": "iso_m2f2_f4j",
    "m2f2i_f4ij": "iso_m2f2i_f4ij",
}


def _cmd_iso(args) -> int:
    if args.check:
        if args.element is not None:
            raise UsageError("give --element or --check, not both")
        from . import verify

        report = verify.run_claim(_ISO_CLAIMS[args.which])
        print(f"{args.which}: {'pass' if report.passed else 'fail'}")
        for line in report.details:
            print(f"  {line}")
        if not report.passed:
            print(f"  witness: {report.witness}")
        return 0 if report.passed else 1
    if args.element is None:
        raise UsageError("give --element or --check")
    from .cyclic import CyclicElement, iso_f16_to_m4, iso_f8_to_m3, pair_to_matrix
    from .rings import F4, F4I, F8, F16_ALT

    if args.which == "f8m3":
        image = iso_f8_to_m3(CyclicElement.parse(F8, args.element))
    elif args.which == "f16m4":
        image = iso_f16_to_m4(CyclicElement.parse(F16_ALT, args.element))
    else:
        pair = _parse_word(F4 if args.which == "m2f2_f4j" else F4I, args.element)
        if len(pair) != 2:
            raise UsageError("pair models need --element 'x; y'")
        image = pair_to_matrix(*pair)
    print(image)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    if args.claim and args.all:
        raise UsageError("give --all or --claim ID, not both")
    if args.claim:
        reports = [verify.run_claim(args.claim)]
    elif args.all:
        reports = verify.run_all()
    else:
        raise UsageError("give --all or --claim ID")
    for report in reports:
        if args.format == "tsv":
            print(report.tsv_line())
        else:
            status = "pass" if report.passed else "FAIL"
            print(f"{report.claim}: {status}  [{report.space}]")
            if report.witness != "-":
                print(f"  witness: {report.witness}")
            for line in report.details:
                print(f"  {line}")
    return 0 if all(r.passed for r in reports) else 1


# ----------------------------------------------------------------------
# parser

class _Claims:
    """The claim ids of ``verify.CLAIMS`` in sorted order, as argparse
    choices; ``verify`` is imported only when they are iterated or tested."""

    def __iter__(self):
        from .verify import CLAIMS

        return iter(sorted(CLAIMS))

    def __contains__(self, claim) -> bool:
        from .verify import CLAIMS

        return claim in CLAIMS


_WORD_HELP = "symbols separated by ',' or ';' outside brackets; encode prints this form"

# The box scans run in one process; --jobs stays accepted so that existing
# invocations keep working.
_JOBS_HELP = "ignored; kept for compatibility (the scans run in one process)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetcodes",
        description="Exact arithmetic for coset space-time codes over small rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mindet", help="minimum |det|^2 of the golden code over a box")
    p.add_argument("--box", type=int, default=2, help="coordinates range over [-box, box]")
    p.add_argument("--coset", help="restrict to one projection class (matrix literal)")
    p.add_argument(
        "--ideal", choices=["1pi", "2"],
        help="ideal for --coset, whose matrix is over f2 for 1pi and over f2i for 2",
    )
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--float", action="store_true")
    p.set_defaults(handler=_cmd_mindet)

    p = sub.add_parser("mindist", help="minimum distance of a named or custom code")
    p.add_argument("--code", help="named code (dualrep, hexacode, rs16_13, ...)")
    p.add_argument("--code-file", help="path to a 'ring L k' generator file")
    p.add_argument("--weight", choices=["hamming", "bachoc", "lee"], default="hamming")
    p.add_argument("--transform", choices=["none", "lift", "pairs"], default="none")
    p.add_argument("--certified", action="store_true", help="use the RS minor certificate")
    p.add_argument("--L", type=int)
    p.add_argument("--ring")
    p.set_defaults(handler=_cmd_mindist)

    p = sub.add_parser("weights", help="weight of one word")
    p.add_argument("--kind", choices=["hamming", "bachoc", "lee"], required=True)
    p.add_argument("--word", required=True, help=_WORD_HELP)
    p.add_argument("--ring")
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("bounds", help="evaluate one determinant/rate bound exactly")
    p.add_argument("--which", required=True, choices=list(_BOUNDS))
    p.add_argument("--n", type=int)
    p.add_argument("--a-norm-sq", dest="a_norm_sq")
    p.add_argument("--delta")
    p.add_argument("--d", type=int)
    p.add_argument("--ds", help="comma list of level distances")
    p.add_argument("--ks", help="comma list of level dimensions")
    p.add_argument("--bits", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int)
    p.add_argument(
        "--duplicate-d3", action="store_true", default=None,
        help="repeat d3 in the final multilevel term",
    )
    p.add_argument("--float", action="store_true")
    p.add_argument("--verbose", action="store_true", help="print name and inputs too")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("encode", help="encode a message with a named code")
    p.add_argument("--code")
    p.add_argument("--code-file")
    p.add_argument("--msg", required=True, help=_WORD_HELP)
    p.add_argument("--L", type=int)
    p.add_argument("--ring")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("enumerate", help="stream a matrix space, one per line")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--invertible", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("iso", help="apply or certify one of the matrix models")
    p.add_argument("--which", choices=sorted(_ISO_CLAIMS), required=True)
    p.add_argument("--element", help="'x0; x1; ...' algebra element, or an 'x; y' (or 'x, y') pair")
    p.add_argument("--check", action="store_true", help="run the exhaustive certification")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("verify", help="run the brute-force certification claims")
    p.add_argument("--all", action="store_true")
    # metavar: argparse formats it inside add_argument, which would
    # otherwise iterate the choices and import verify for every command.
    p.add_argument("--claim", choices=_Claims(), metavar="CLAIM", help="one of: %(choices)s")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--format", choices=["tsv", "plain"], default="tsv")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
