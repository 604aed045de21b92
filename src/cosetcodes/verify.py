"""Brute-force certification oracles for every countable claim in the package.

Each oracle exhausts a finite search space (or a stated box of an infinite
one), re-deriving the claimed fact through two independent routes wherever
one exists — e.g. "multiply in the algebra, then map" against "map, then
multiply matrices", or integer determinant scans against ring-table
classifications.  Results come back as :class:`OracleReport` records; the
report never hides a failure inside an average, and informational findings
(documented anomalies that are part of the certified behavior) are carried
in ``details`` with explicit witnesses.

The TSV surface is one line per claim:  ``claim<TAB>pass|fail<TAB>witness``.

Each claim is a body under ``@_claim``, registered in ``CLAIMS``.  The
algebra claims scan every pair on packed ints, and the Golden box claims
compare the library's factorized searches with :func:`brute_box_scan`, one
pass over every nonzero codeword of the box whose determinant identity
``golden_mindet`` proves on a grid; notes above each part say how.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, ne, xor
from typing import Callable, Iterable, Iterator, Sequence

from . import bounds, golden, outer_codes
from .cyclic import (
    CyclicElement,
    F16_E_IMAGE,
    F16_W_IMAGE,
    iso_f16_to_m4,
    iso_f8_to_m3,
    from_f_basis,
    matrix_to_pair,
    pair_to_matrix,
    regular_representation,
    to_f_basis,
    twisted_pair_mul,
)
from .golden import (
    GaussianInt,
    GoldenCodeword,
    GoldenInt,
    abs_det_sq,
    det_sq_times5,
    golden_pair_mul,
    min_abs_det_sq,
    scan_det_floors,
)
from .matrices import RingMatrix, all_matrices, count_invertible, matrix_space_size
from .outer_codes import (
    MappedCode,
    LinearCode,
    WeightKind,
    dual_repetition_code,
    hexacode,
    inner_parity_pair_code,
    lee_weight,
    lift_code,
    matrix_parity_code,
    min_distance,
    pushforward_pairs,
    reed_solomon_code,
    rs_distance_certificate,
)
from .rings import F2, F2I, F4, F4I, F8, F16_ALT, quadratic_conj, quadratic_norm


@dataclass
class OracleReport:
    """Outcome of one exhaustive certification."""

    claim: str
    space: str
    passed: bool
    witness: str = "-"
    details: tuple[str, ...] = field(default=())
    elapsed: float = 0.0

    def tsv_line(self) -> str:
        return f"{self.claim}\t{'pass' if self.passed else 'fail'}\t{self.witness}"


# A claim is a body ``certify_x(failures, details)`` under ``@_claim(name,
# space)``.  The body appends one message to ``failures`` per check that does
# not hold and one line to ``details`` per informational finding, and may
# return the witness a passing report shows.  The decorator registers the
# claim in ``CLAIMS`` in definition order and turns the body into a
# zero-argument function that times it and builds its report: a failing
# claim's witness is its first failure, and the later ones follow the details
# as ``FAILURE:`` lines.  A scan that stops at its first counterexample is a
# generator of failure messages handed to ``_first_failure``, or a lane scan
# (``_map_failures``, ``_product_failure``) that stops at its first failing row.

# Every claim, in definition order; filled by @_claim.
CLAIMS: dict[str, Callable[[], OracleReport]] = {}

_Body = Callable[[list[str], list[str]], str | None]


def _claim(name: str, space: str) -> Callable[[_Body], Callable[[], OracleReport]]:
    """Register ``body(failures, details)`` as the claim ``name`` over
    ``space``; the registered function runs the body and reports on it."""
    def register(body: _Body) -> Callable[[], OracleReport]:
        def certify() -> OracleReport:
            started = time.perf_counter()
            failures: list[str] = []
            details: list[str] = []
            witness = body(failures, details) or "-"
            return OracleReport(
                claim=name,
                space=space,
                passed=not failures,
                witness=failures[0] if failures else witness,
                details=tuple(details) + tuple(f"FAILURE: {f}" for f in failures[1:]),
                elapsed=time.perf_counter() - started,
            )

        CLAIMS[name] = certify
        return certify

    return register


def _first_failure(failures: list[str], messages: Iterable[str]) -> None:
    """Record the first message of a failure scan; the scan stops there."""
    failures.extend(itertools.islice(messages, 1))


def _first_difference(got: list, want: list) -> int:
    """The first index where two lists of one length differ; they must
    differ somewhere."""
    return list(map(ne, got, want)).index(True)


# ----------------------------------------------------------------------
# packed matrix helpers (oracle-local, independent of RingMatrix)
#
# The algebra claims ``regular_rep``, ``iso_f8m3`` and the two pair models
# scan every pair (x, y), x outer and y inner, on ints: an element is its
# index in ``itertools.product`` order, which packs its coefficient masks, and
# a matrix is one int of packed rows, row 0 and column 0 highest.  The scans
# build small tables from the live ``ring._mul`` (rebuilt on every call, never
# cached): per-scalar row tables give image(x)image(y), and the index of x*y
# comes from ``_cyclic_products`` or, in the pair models, ``twisted_pair_mul``.
# Each pair gets its own product and its own matrix product, compared on
# their own; no pair is inferred from others by linearity, and the first
# failing pair in scan order is the one reported.
#
# All four take one row (one x, every y) at a time on lanes: lane y of one
# int holds y's value, in a width of bytes that the largest value the row
# can hold decides, so one XOR or shift acts on the whole row in C.  A lane
# table holds y's own entries, never another pair's.  Lanes do not mix under
# XOR, so when a row differs from its target, the lowest set bit of the
# difference lies in the first failing lane: the witness is the one a pair
# loop finds.  A ring map scans additivity first, then products.
#
# ``projection_compat`` and ``f_basis`` also take one row at a time, as
# lists of objects compared in C, and search a row for its first failure
# only when the row fails.  ``projection_compat`` checks a table of pair
# labelings (projection, relabeling, failure locus) in one loop: a row's
# products are projected once per ideal, and each labeling compares them
# with its row of twisted products.  A deterministic library function is
# called once per distinct operand (a twisted product once per distinct
# pair of labels) and its value looked up for every pair that has that
# operand; a lookup reads the function's own value, so, as above, nothing
# is inferred from other pairs.

# array type codes by item size
_LANE_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _lane_width(bound: int) -> int:
    """Bytes per lane for values in range(bound), computed from the bound:
    the least array item size that holds them."""
    for width in sorted(_LANE_CODES):
        if bound <= 256**width:
            return width
    raise ValueError("lane values must fit in 64 bits")


def _lanes(values: Iterable[int], width: int) -> int:
    """Pack: value k in lane k of one int, little-endian on every host."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _unpack_lanes(packed: int, count: int, width: int) -> array:
    """The first ``count`` lanes of a nonnegative int, as an array whose
    items are byte-swapped on a big-endian host, so every host reads the
    same values."""
    items = array(_LANE_CODES[width])
    items.frombytes(packed.to_bytes(count * width, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _product_failure(products, labels: list, base, rows: list, images: list[int]) -> tuple | None:
    """The first (x, y), x outer, with image(x*y) != image(x)image(y), or
    None.  ``products`` gives, for each x in turn, the index of x*y for
    every y; labels[i] names element i, image i is images[i], and rows[i]
    holds its n packed rows of entries over ``base``."""
    n, d = len(rows[0]), base.dim
    width = _lane_width(1 << n * n * d)
    table = [v.to_bytes(width, "little") for v in images]
    # term[k][a]: lane y holds a times row k of image(y); row r of
    # image(x)image(y) is the XOR over k of term[k][entry (r, k) of image(x)]
    term = [
        [_lanes(map(t.__getitem__, col), width) for t in _scalar_rows(base, n)]
        for col in zip(*rows)
    ]
    entries = list(itertools.product(range(base.size), repeat=n))
    for x, rx, xy in zip(labels, rows, products):
        got = 0
        for row in rx:
            got <<= n * d
            for a, t in zip(entries[row], term):
                got ^= t[a]
        # lane y: the image of x*y
        want = int.from_bytes(b"".join(itemgetter(*xy)(table)), "little")
        if got != want:
            diff = got ^ want
            return x, labels[((diff & -diff).bit_length() - 1) // (8 * width)]
    return None


def _map_failures(failures: list[str], labels: list, packed: list[int], products, base, rows):
    """Additivity of i -> packed[i] on all pairs (the index of a sum is the
    XOR of the indices), then, if no check has failed so far, products as
    in ``_product_failure``."""
    count = len(packed)
    # XORs of values below 2^k stay below 2^k
    width = _lane_width(1 << max(packed).bit_length())
    bits = 8 * width
    lanes, ones = _lanes(packed, width), _lanes([1] * count, width)
    # keep[b]: full lanes at the indices with bit b clear
    keep = [
        _lanes([0 if i >> b & 1 else (1 << bits) - 1 for i in range(count)], width)
        for b in range((count - 1).bit_length())
    ]
    for ix, px in enumerate(packed):
        # lane iy: packed[ix ^ iy], by one swap of lane blocks 2^b wide for
        # each set bit b of ix
        got = lanes
        for b in range(ix.bit_length()):
            if ix >> b & 1:
                got = (got & keep[b]) << (bits << b) | (got >> (bits << b)) & keep[b]
        diff = got ^ lanes ^ px * ones
        if diff:
            iy = ((diff & -diff).bit_length() - 1) // bits
            failures.append(f"additivity fails at {labels[ix]}, {labels[iy]}")
            break
    if not failures:
        failure = _product_failure(products, labels, base, rows, packed)
        if failure:
            failures.append("multiplicativity fails at %s, %s" % failure)


def _pack(masks: Iterable[int], bits: int) -> int:
    """The masks side by side in one int, ``bits`` bits each, first highest:
    a coefficient tuple packs to its index in ``itertools.product`` order."""
    out = 0
    for m in masks:
        out = out << bits | m
    return out


def _scalar_rows(ring, n: int) -> list[list[int]]:
    """smul[a][v]: a times each of the n entries packed in v, packed again."""
    elems = list(itertools.product(range(ring.size), repeat=n))
    return [[_pack(map(row.__getitem__, e), ring.dim) for e in elems] for row in ring._mul]


def _cyclic_products(ring, sig: list[list[int]], x: Sequence[int]) -> list[int]:
    """Index of x*y for every y, in product order (gamma = 1), from the
    sigma tables ``sig`` of ``ring``.

    Coefficient s of x*y is the sum over k of sigma^k(x_{s-k}) * y_k, so the
    index is the XOR over k of ``term[y_k]``, where ``term[b]`` packs those
    products for y_k = b; the sums over y_0..y_k are shared by every y with
    that prefix.  Oracle-local: written independently of
    CyclicElement.__mul__ on purpose."""
    n = len(x)
    out = [0]
    for k in range(n):
        term = [0] * ring.size
        for s in range(n):
            term = [t << ring.dim | v for t, v in zip(term, ring._mul[sig[k][x[(s - k) % n]]])]
        out = [p ^ t for p in out for t in term]
    return out


def _sigma_tables(ring, n: int) -> list[list[int]]:
    """sig[k][mask] = mask of sigma^k(element), sigma = squaring."""
    mul = ring._mul
    sig = [list(range(ring.size))]
    for _ in range(1, n):
        sig.append([mul[m][m] for m in sig[-1]])
    return sig


# ----------------------------------------------------------------------
# brute-force Golden box scan (oracle-local: the library searches over
# half-codeword norms, this pass visits every codeword of the box)
#
# Both routes score a codeword through 5*det X = (2+i)(N_ab - i*N_cd), where
# N_ab and N_cd are the norms of its halves (a, b) and (c, d).  The oracle
# proves that identity instead of sharing it: both sides are Z[i]-valued
# polynomials of degree <= 2 in each integer coordinate, and such a
# polynomial is zero once it vanishes on the 3^8 points of {-1, 0, 1}^8.
# ``golden_mindet`` compares ``det_numerator``, the full symbolic 2x2
# expansion, with the norm form there, once per run.
#
# The pass tabulates each of the (2*box+1)^4 halves once as a left half
# (a, b) and once as a right half (c, d): its norm and the full-coordinate
# key of the codeword that pads it with zeros (``golden._key_mod``, never
# the library's half keys).  It then visits every pair, left half outer and
# right half inner, which is lexicographic codeword order, and gives each
# codeword its own m and its own key.
#
# A nonzero left half with norm p + q*i scores every right half at once, on
# lanes: lane j of (p^2 + q^2)*ones + 2p*lanes_s - 2q*lanes_r + lanes_rs is
# m_j = (p + s_j)^2 + (q - r_j)^2, where lane j of ones, lanes_r, lanes_s and
# lanes_rs holds 1, r_j, s_j and r_j^2 + s_j^2 of right half j with norm
# r_j + s_j*i.  Every m_j is an exact int below 256**width, the width
# computed from the largest norm parts, so the lanes decode uniquely.  The
# right halves sit in key order, stably, so each key's lanes form one slice
# in scan order: the slice's length is the key's count, its ``min`` the
# key's least m and its first index of that m the first minimizer.  The
# zero left half (which skips the zero codeword) and, while fewer than five
# violations are recorded, any left half with a codeword below its floor
# take the codeword loop, so the violations are the first five in
# lexicographic order.

_Minimizer = tuple[int, tuple[int, ...]]


def _ideal_key_and_floors(ideal: str) -> tuple[Callable, Callable[[], list[int]]]:
    """The full-coordinate residue key function and the floor table builder
    of ideal "1pi" or "2", looked up in golden at call time."""
    if ideal == "1pi":
        return functools.partial(golden._key_mod, depth=1), golden.floor_table_mod_1pi
    if ideal == "2":
        return functools.partial(golden._key_mod, depth=2), golden.floor_table_mod_2
    raise ValueError("ideal must be '1pi' or '2'")


def brute_box_scan(
    ideal: str, box: int
) -> tuple[int, list[tuple[int, ...]], list[int], list[_Minimizer | None]]:
    """One pass over the nonzero codewords of the box for ideal "1pi" or "2".

    Returns what ``scan_det_floors`` returns (codewords checked, the first
    five floor violations in lexicographic order, class sizes for floors
    4/2/1), then per residue key the lexicographic-first (m, coords) that
    minimizes m = 5*|det|^2 in that coset, or None for a coset with no
    nonzero codeword in the box."""
    keyfn, floors = _ideal_key_and_floors(ideal)
    if box < 1:
        raise ValueError("box must be at least 1")
    table = floors()
    norm = golden.norm_ints
    pad = (0,) * 4
    halves = list(itertools.product(range(-box, box + 1), repeat=4))
    left = [(h, *norm(*h), keyfn(h + pad)) for h in halves]
    right = [(h, *norm(*h), keyfn(pad + h)) for h in halves]
    zero = halves.index(pad)
    nonzero_right = right[:zero] + right[zero + 1:]
    violations: list[tuple[int, ...]] = []
    key_counts = [0] * len(table)
    best: list[_Minimizer | None] = [None] * len(table)

    # lane j of a row holds the m of the codeword with right half grouped[j]
    grouped = sorted(right, key=itemgetter(3))
    halves_r, rs, ss, keys = zip(*grouped)
    spans = [(kr, keys.index(kr), keys.index(kr) + keys.count(kr)) for kr in sorted(set(keys))]
    # m = (p + s)^2 + (q - r)^2 <= 2(max|r| + max|s|)^2: p and r range over
    # the real parts of the half norms, q and s over the imaginary parts
    width = _lane_width(2 * (max(map(abs, rs)) + max(map(abs, ss))) ** 2 + 1)
    bits = 8 * width
    # each lane int is the plain sum of v_j * 2^(bits*j), signs and all
    ones = lanes_r = lanes_s = lanes_rs = 0
    for r, s in zip(rs[::-1], ss[::-1]):
        ones = ones << bits | 1
        lanes_r = (lanes_r << bits) + r
        lanes_s = (lanes_s << bits) + s
        lanes_rs = (lanes_rs << bits) + r * r + s * s
    for hl, p, q, kl in left:
        row = (p * p + q * q) * ones + 2 * p * lanes_s - 2 * q * lanes_r + lanes_rs
        ms = _unpack_lanes(row, len(keys), width)
        lows = [min(ms[i:j]) for _, i, j in spans]
        if any(hl) and (
            len(violations) == 5
            or all(low >= table[kl | kr] for (kr, _, _), low in zip(spans, lows))
        ):
            for (kr, i, j), low in zip(spans, lows):
                key = kl | kr
                key_counts[key] += j - i
                if best[key] is None or low < best[key][0]:
                    best[key] = (low, hl + halves_r[ms.index(low, i, j)])
            continue
        for hr, r, s, kr in right if any(hl) else nonzero_right:
            zr, zi = p + s, q - r  # N_ab - i*N_cd
            m = zr * zr + zi * zi
            key = kl | kr
            key_counts[key] += 1
            if m < table[key] and len(violations) < 5:
                violations.append(hl + hr)
            b = best[key]
            if b is None or m < b[0]:
                best[key] = (m, hl + hr)
    counts = [0, 0, 0]
    for floor, count in zip(table, key_counts):
        counts[(4, 2, 1).index(floor)] += count
    return sum(key_counts), violations, counts, best


# ----------------------------------------------------------------------
# claims

@_claim("counts", "matrix spaces up to 2^16 elements; f4i")
def certify_counts(failures: list[str], details: list[str]) -> None:
    """Cardinalities and unit counts of the quotient alphabets."""
    for ring, n, want in ((F2, 2, 2**4), (F4, 3, 4**9), (F2, 4, 2**16)):
        got = matrix_space_size(ring, n)
        if got != want:
            failures.append(f"|M{n}({ring.name})| = {got}, expected {want}")
    # enumerate the two spaces that are small enough to stream
    if sum(1 for _ in all_matrices(F2, 2)) != 16:
        failures.append("enumeration of M2(f2) missed elements")
    if count_invertible(F2, 2) != 6:
        failures.append("M2(f2) invertible count != 6")
    inv_m2f2i = count_invertible(F2I, 2)
    if inv_m2f2i != 96:
        failures.append(f"M2(f2i) invertible count = {inv_m2f2i}, expected 96")
    details.append("M2(f2i): 96 invertible of 256")

    non_units = [x for x in F4I if not x.is_unit]
    if len(non_units) != 4:
        failures.append(f"f4i has {len(non_units)} non-units, expected 4")
    one_plus_i = F4I.parse("1+i")
    if set(non_units) != {a * one_plus_i for a in F4I}:
        failures.append("f4i non-units are not exactly the multiples of (1+i)")
    details.append("f4i non-units: " + ", ".join(sorted(str(x) for x in non_units)))


@_claim("regular_rep", "all 16^2 (n=2/f4) and 512^2 (n=3/f8) products")
def certify_regular_rep(failures: list[str], details: list[str]) -> None:
    """rep(x*y) = rep(x)*rep(y) and injectivity, exhausted for the degree-2
    algebra over F4 (16^2 pairs) and the degree-3 algebra over F8 (512^2)."""
    for ring, n in ((F4, 2), (F8, 3)):
        d = ring.dim
        sig = _sigma_tables(ring, n)
        elems = list(itertools.product(range(ring.size), repeat=n))
        # rows[i]: the rows of rep(elems[i]), each packed like an element;
        # entry (r, c) is sigma^c(x_{r-c}); reps[i] packs the rows in turn
        rows = [
            [_pack([sig[c][x[(r - c) % n]] for c in range(n)], d) for r in range(n)]
            for x in elems
        ]
        reps = [_pack(rs, n * d) for rs in rows]
        if len(set(reps)) != len(elems):
            failures.append(f"regular rep over {ring.name} is not injective")

        # spot-check the mask-level rep against the object-level one
        _first_failure(failures, (
            f"mask/object rep mismatch at {x} over {ring.name}"
            for x in elems[:: max(1, len(elems) // 16)]
            if _pack(regular_representation(
                CyclicElement(ring, [ring.elements[m] for m in x])
            ).masks, d) != reps[_pack(x, d)]
        ))

        # a build of its own, so the rows and the x*y route share no table
        products = map(functools.partial(_cyclic_products, ring, _sigma_tables(ring, n)), elems)
        failure = _product_failure(products, elems, ring, rows, reps)
        if failure:
            failures.append(f"rep(x*y) != rep(x)rep(y) at {failure} over {ring.name}")


@_claim("iso_f8m3", "512 images; 512x512 additivity and multiplicativity")
def certify_iso_f8m3(failures: list[str], details: list[str]) -> None:
    """The degree-3 map into M3(F2): bijective onto its image, additive and
    multiplicative on all 512 x 512 pairs, identity preserved."""
    elems = list(itertools.product(range(8), repeat=3))
    packed = [
        _pack(iso_f8_to_m3(CyclicElement(F8, [F8.elements[m] for m in x])).masks, 1)
        for x in elems
    ]
    rows = [(v >> 6, v >> 3 & 7, v & 7) for v in packed]

    if len(set(packed)) != 512:
        failures.append("f8m3 images are not distinct (not injective)")
    if rows[64] != (0b100, 0b010, 0b001):  # 64 is the index of (1, 0, 0)
        failures.append("f8m3 does not send 1 to the identity")

    # the map is linear over F2: the index of a coefficient-wise XOR is
    # ix ^ iy; image(x)image(y) against image(x*y), on image(y)'s bit rows
    products = map(functools.partial(_cyclic_products, F8, _sigma_tables(F8, 3)), elems)
    _map_failures(failures, elems, packed, products, F2, rows)
    details.append("generator relation e^3 = 1 and twist verified implicitly")


@_claim("iso_f16m4", "4x4 generator relations; 2^16 images")
def certify_iso_f16m4(failures: list[str], details: list[str]) -> None:
    """Per-relation certificate for the degree-4 tables.

    Structural relations (these must hold): E^4 = identity, the twist
    W*E = E*W^2, additive bijectivity of the extended map on all 2^16
    elements.  The defining-polynomial relation W^4 + W^2 + 1 = 0 of the
    coefficient ring F16_ALT does NOT hold for the tabulated generator image
    (W satisfies x^4 + x + 1 instead); both statuses are reported."""
    ident = RingMatrix.identity(F2, 4)
    e4 = F16_E_IMAGE**4
    if e4 == ident:
        details.append("relation e^4 = 1: pass")
    else:
        failures.append(f"E^4 = {e4}, expected identity")

    twist_l = F16_W_IMAGE * F16_E_IMAGE
    twist_r = F16_E_IMAGE * (F16_W_IMAGE**2)
    if twist_l == twist_r:
        details.append("relation w*e = e*w^2: pass")
    else:
        failures.append("twist W*E != E*W^2")

    w4 = F16_W_IMAGE**4
    poly_alt = w4 + F16_W_IMAGE**2 + ident
    details.append(
        "relation w^4 + w^2 + 1 = 0: "
        + ("pass" if poly_alt.is_zero else f"FAIL (residue {poly_alt})")
    )
    poly_true = w4 + F16_W_IMAGE + ident
    details.append(
        "observed minimal relation w^4 + w + 1 = 0: "
        + ("pass" if poly_true.is_zero else "fail")
    )

    # additive bijectivity via the 16 basis images (linearity of the map):
    # the extension hits 2^rank matrices.  Rank by XOR-basis insertion: a row
    # reduced by each kept row in turn lacks their leading bits, so it is 0
    # exactly when it lies in their span.
    basis = [
        _pack(iso_f16_to_m4(CyclicElement(
            F16_ALT,
            [F16_ALT.elements[1 << k] if jj == j else F16_ALT.zero for jj in range(4)],
        )).masks, 1)
        for j in range(4)
        for k in range(4)
    ]
    kept: list[int] = []
    for row in basis:
        for k in kept:
            row = min(row, row ^ k)
        if row:
            kept.append(row)
    hits = 1 << len(kept)
    if hits != 1 << 16:
        failures.append(f"extended map hits only {hits} of 65536 matrices")
    else:
        details.append("additive extension is a bijection onto M4(F2)")

    # the linear reconstruction, the XOR of the basis images picked out by
    # the bits of the mask, must agree with the object-path map
    sample = [(m * 2654435761) % (1 << 16) for m in range(64)]
    _first_failure(failures, (
        f"linearity reconstruction differs at mask {mask}"
        for mask in sample
        if functools.reduce(xor, (b for k, b in enumerate(basis) if mask >> k & 1), 0)
        != _pack(iso_f16_to_m4(CyclicElement(
            F16_ALT, [F16_ALT.elements[(mask >> (4 * j)) & 15] for j in range(4)]
        )).masks, 1)
    ))


def _pair_model(
    ring, base, symbol: str, failures: list[str], details: list[str]
) -> None:
    """A pair model ``symbol`` from ring-pairs onto M2(base): bijection,
    identity, additivity and multiplicativity against the twisted product,
    on all pairs of pairs."""
    pairs = list(itertools.product(ring, repeat=2))
    images = list(itertools.starmap(pair_to_matrix, pairs))

    if len(set(images)) != len(pairs):
        failures.append(f"{symbol} is not a bijection onto M2({base.name})")
    if images[ring.one.mask * ring.size] != RingMatrix.identity(base, 2):
        failures.append(f"{symbol}(1, 0) is not the identity matrix")
    _first_failure(failures, (
        f"{symbol} inverse fails at {p}"
        for p, m in zip(pairs, images)
        if matrix_to_pair(m, ring) != p
    ))

    # on ints: pair (x, y) has index x.mask * ring.size + y.mask, so the
    # index of a sum is the XOR of the indices
    size = ring.size
    packed = [_pack(m.masks, base.dim) for m in images]
    products = (
        [r0.mask * size + r1.mask for r0, r1 in map(functools.partial(twisted_pair_mul, p), pairs)]
        for p in pairs
    )
    rows = [divmod(v, 1 << 2 * base.dim) for v in packed]
    _map_failures(failures, pairs, packed, products, base, rows)


# The F4-pair model phi onto M2(F2), all 16^2 pairs, and the F4[i]-pair
# model psi onto M2(F2[i]), all 256^2 pairs.
certify_iso_m2f2_f4j = _claim("iso_m2f2_f4j", "16 images; 256 pair products")(
    functools.partial(_pair_model, F4, F2, "phi")
)
certify_iso_m2f2i_f4ij = _claim("iso_m2f2i_f4ij", "256 images; 65536 pair products")(
    functools.partial(_pair_model, F4I, F2I, "psi")
)


@_claim("f_basis", "65536 round trips; 4096 singular checks")
def certify_f_basis(failures: list[str], details: list[str]) -> None:
    """The nilpotent basis f = 1 + e of the degree-4 algebra:
    (image of f)^4 = 0, the coefficient transform is an involution on all
    16^4 elements, e rewrites to (1, 1, 0, 0), and every element with
    leading f-coefficient 0 has a singular image."""
    f_img = RingMatrix.identity(F2, 4) + F16_E_IMAGE
    if not (f_img**4).is_zero:
        failures.append("(I + E)^4 != 0")
    else:
        details.append("(I + E)^4 = 0: the f generator is nilpotent of index <= 4")

    e_elem = CyclicElement(
        F16_ALT, [F16_ALT.zero, F16_ALT.one, F16_ALT.zero, F16_ALT.zero]
    )
    if to_f_basis(e_elem) != (F16_ALT.one, F16_ALT.one, F16_ALT.zero, F16_ALT.zero):
        failures.append("e does not rewrite to 1 + f")

    # x, in product order, has index k = its packed masks; images[k] is the
    # index of to_f_basis(x), so the transform is an involution at x exactly
    # when images[images[k]] == k.  The first failure is the least failing k,
    # the round trip first on one k.  Each x is built from its mask tuple
    # with ``CyclicElement._of``: the claim is about the transform, not the
    # checked constructor, which test_cyclic covers.
    masks = range(F16_ALT.size)
    new = functools.partial(CyclicElement._of, F16_ALT)
    back = functools.partial(from_f_basis, F16_ALT)
    images = array("H")
    round_trip = 1 << 16  # no failure: past the last index
    for x0, x1 in itertools.product(masks, repeat=2):
        xs = list(map(new, itertools.product((x0,), (x1,), masks, masks)))
        ys = list(map(to_f_basis, xs))
        # from_f_basis checks each y's coefficients before they are packed
        rebuilt = list(map(back, ys))
        if rebuilt != xs:
            round_trip = min(round_trip, len(images) + _first_difference(rebuilt, xs))
        images.extend(a.mask << 12 | b.mask << 8 | c.mask << 4 | d.mask for a, b, c, d in ys)
    twice = array("H", map(images.__getitem__, images))
    ks = array("H", range(len(images)))
    k = min(round_trip, _first_difference(twice, ks) if twice != ks else round_trip)
    if k < len(ks):
        x = new((k >> 12, k >> 8 & 15, k >> 4 & 15, k & 15))
        check = "round trip fails" if k == round_trip else "transform is not an involution"
        failures.append(f"f-basis {check} at ({x})")
    if not failures:
        tails = list(itertools.product(F16_ALT.elements, repeat=3))
        _first_failure(failures, (
            f"element with zero leading f-coefficient has invertible image: {tail}"
            for tail in tails
            if not iso_f16_to_m4(from_f_basis(F16_ALT, (F16_ALT.zero,) + tail)).det().is_zero
        ))
        if not failures:
            details.append(f"all {len(tails)} elements with y0 = 0 map to singular matrices")


@_claim("norm_f4i", "16 norms; 256 products")
def certify_norm_f4i(failures: list[str], details: list[str]) -> None:
    """The relative norm on F4[i]: multiplicative on all 256 pairs, zero
    exactly on the four non-units, and its range is {0, 1, i} — the
    non-unit 1+i is never a norm."""
    norms = {x: quadratic_norm(x) for x in F4I}

    values = set(n.mask for n in norms.values())
    if values != {0, 1, 2}:  # masks of 0, 1, i in F2I
        failures.append(
            "norm range is {%s}" % ", ".join(sorted(str(F2I.elements[v]) for v in values))
        )

    def locus_failures() -> Iterator[str]:
        for x, n in norms.items():
            if n.is_zero != (not x.is_unit):
                yield f"norm-zero locus mismatch at {x}"
            # dual route: the norm is x times its conjugate, inside F4[i]
            if x * quadratic_conj(x) != F4I.from_w_components(n, F2I.zero):
                yield f"norm differs from x*conj(x) at {x}"

    _first_failure(failures, locus_failures())
    _first_failure(failures, (
        f"norm not multiplicative at {x}, {y}"
        for x in F4I
        for y in F4I
        if norms[x * y] != norms[x] * norms[y]
    ))
    details.append("range is {0, 1, i}; 1+i is not a norm")


@_claim("isometry_weights", "16 phi pairs; 256 psi pairs; lee table")
def certify_isometry_weights(failures: list[str], details: list[str]) -> None:
    """Weight bridges: the 2x2 matrix weight of phi equals the F4 Hamming
    weight on all 16 pairs; psi sends exactly the one-unit pairs to
    invertible matrices (96 of 256); the Lee table on norm pairs."""
    for x in F4:
        for y in F4:
            wb = outer_codes.bachoc_weight(pair_to_matrix(x, y))
            wh = (not x.is_zero) + (not y.is_zero)
            if wb != wh:
                failures.append(f"isometry fails at ({x}, {y}): {wb} != {wh}")

    invertible_pairs = 0
    for x in F4I:
        for y in F4I:
            det = pair_to_matrix(x, y).det()
            one_unit = x.is_unit != y.is_unit
            if det.is_unit != one_unit:
                failures.append(
                    f"psi invertibility mismatch at ({x}, {y}): "
                    f"matrix {'unit' if det.is_unit else 'non-unit'}"
                )
            if det.is_unit:
                invertible_pairs += 1
            # determinant identity det(psi) = N(x) + N(y)
            if det != quadratic_norm(x) + quadratic_norm(y):
                failures.append(f"det(psi) != N+N at ({x}, {y})")
    if invertible_pairs != 96:
        failures.append(f"{invertible_pairs} invertible psi images, expected 96")
    else:
        details.append("96 of 256 psi images invertible (one-unit pairs)")

    # the Lee table on norm pairs, each realized with concrete elements:
    # norm(1)=1, norm(1+iw)=i, norm(0)=0
    realize = {"0": F4I.zero, "1": F4I.one, "i": F4I.parse("1+iw")}
    for nx, ny, want in (
        ("1", "1", 4), ("1", "i", 2), ("0", "1", 1), ("0", "i", 1), ("0", "0", 0)
    ):
        got = lee_weight(realize[nx], realize[ny])
        if got != want:
            failures.append(f"lee weight on norm pair ({nx},{ny}) = {got}, want {want}")


@_claim("inner_pair_lee", "64 members of the inner parity pair-code")
def certify_inner_pair_lee(failures: list[str], details: list[str]) -> None:
    """Lee-weight spectrum of the 64-member inner parity pair-code.

    Certified facts: no member has weight 1 (the code removes exactly the
    one-unit pairs, which is its design goal); every member with invertible
    components has weight 2 or 4; the remaining members — both components
    multiples of (1+i) — have weight 0 and are exactly the 16 such pairs.
    The historical floor "every nonzero member has weight >= 2" is false and
    its counterexample is reported here, not suppressed."""
    code = inner_parity_pair_code()

    members = set(code.codewords())
    if len(members) != 64:
        failures.append(f"{len(members)} distinct members, expected 64")

    weight_count: dict[int, int] = {}
    zero_weight_nonzero: list[str] = []
    for x, y in sorted(members, key=lambda p: (p[0].mask, p[1].mask)):
        if not code.check_parity((x, y)):
            failures.append(f"member ({x}, {y}) fails the (1+i) parity")
        w = lee_weight(x, y)
        weight_count[w] = weight_count.get(w, 0) + 1
        nonzero = not (x.is_zero and y.is_zero)
        if w == 1:
            failures.append(f"member ({x}, {y}) has lee weight 1")
        if nonzero and w == 0:
            zero_weight_nonzero.append(f"({x}, {y})")
        if x.is_unit and y.is_unit and w < 2:
            failures.append(f"unit-component member ({x}, {y}) has weight {w} < 2")
        if x.is_unit != y.is_unit:
            failures.append(f"member ({x}, {y}) mixes a unit with a non-unit")

    spectrum = ", ".join(f"{w}:{c}" for w, c in sorted(weight_count.items()))
    details.append(f"weight spectrum (weight:count) = {spectrum}")
    if zero_weight_nonzero:
        details.append(
            f"a uniform floor of 2 fails for {len(zero_weight_nonzero)} "
            f"non-unit members, first {zero_weight_nonzero[0]}; these project "
            "to the 4*delta determinant class, so the two-level bound stands"
        )


@_claim("code_distances", "exhaustive distances; RS minors")
def certify_code_distances(failures: list[str], details: list[str]) -> None:
    """Distances of the named codes and their matrix-alphabet images, all by
    search exhaustive over unit orbits (``min_distance``) except
    Reed-Solomon (certified by minors)."""
    def expect(label: str, got: int, want: int) -> None:
        if got != want:
            failures.append(f"{label} = {got}, expected {want}")

    dual = dual_repetition_code()
    hexa = hexacode()
    expect("d_H(dualrep)", min_distance(dual), 2)
    expect("d_H(hexacode)", min_distance(hexa), 4)
    expect("d_H(lift dualrep)", min_distance(lift_code(dual)), 2)
    expect("d_H(lift hexacode)", min_distance(lift_code(hexa)), 4)
    pf_dual = pushforward_pairs(dual)
    pf_hexa = pushforward_pairs(hexa)
    expect("d_B(pairs dualrep)", min_distance(pf_dual, WeightKind.BACHOC), 2)
    expect("d_H(pairs dualrep)", min_distance(pf_dual), 1)
    expect("d_B(pairs hexacode)", min_distance(pf_hexa, WeightKind.BACHOC), 4)
    expect("d_H(pairs hexacode)", min_distance(pf_hexa), 2)

    # image of the weight-2 dual-repetition codeword (0,0,1,1): (zero, all-ones)
    zero2 = RingMatrix.zeros(F2, 2)
    ones2 = RingMatrix.from_masks(F2, [[1, 1], [1, 1]])
    word = (F4.zero, F4.zero, F4.one, F4.one)
    if not dual.contains(word):
        failures.append("(0,0,1,1) is not a dual-repetition codeword")
    img = (pair_to_matrix(word[0], word[1]), pair_to_matrix(word[2], word[3]))
    if img[0] != zero2 or img[1] != ones2:
        failures.append("image of (0,0,1,1) is not (zero, all-ones)")
    else:
        details.append("(0,0,1,1) -> (zero matrix, all-ones): hamming 1, matrix weight 2")

    # hexacode words with y1 = y2 = 0: (0,0,y,wy,wy,y) and its matrix triple
    for y_mask in (1, 2, 3):
        y = F4.elements[y_mask]
        cw = hexa.encode((F4.zero, F4.zero, y))
        w = F4.gen_w
        if cw != (F4.zero, F4.zero, y, w * y, w * y, y):
            failures.append(f"hexacode single-message word has unexpected form at y={y}")
            continue
        y1, y2 = F4.w_components(y)
        m2 = pair_to_matrix(cw[2], cw[3])
        m3 = pair_to_matrix(cw[4], cw[5])
        want2 = RingMatrix(F2, [[y2, F2.zero], [y1 + y2, F2.zero]])
        want3 = RingMatrix(F2, [[F2.zero, y2], [F2.zero, y1 + y2]])
        if m2 != want2 or m3 != want3:
            failures.append(f"matrix triple mismatch for y={y}")
        elif outer_codes.bachoc_word_weight(
            (pair_to_matrix(cw[0], cw[1]), m2, m3)
        ) != 4:
            failures.append(f"matrix triple weight != 4 for y={y}")

    # the six one-sided unit pairs cover GL2(F2) exactly
    gl2 = {m for m in all_matrices(F2, 2) if m.is_invertible}
    sided = {pair_to_matrix(a, F4.zero) for a in F4 if not a.is_zero}
    sided |= {pair_to_matrix(F4.zero, b) for b in F4 if not b.is_zero}
    if sided != gl2:
        failures.append("one-sided unit pairs do not cover GL2(F2)")
    else:
        details.append("six one-sided unit pairs = GL2(F2)")

    for k, want_d in ((13, 4), (14, 3)):
        rs = reed_solomon_code(k)
        try:
            got = rs_distance_certificate(rs)
        except ArithmeticError as exc:
            failures.append(str(exc))
        else:
            expect(f"certified d(rs[16,{k}])", got, want_d)
    details.append("rs distances certified via Vandermonde minors (560 + 120)")

    # matrix parity at L=2 is the repetition code over M2(F2)
    mp = matrix_parity_code(2)
    words = set(mp.codewords())
    if words != {(m, m) for m in all_matrices(F2, 2)}:
        failures.append("matrix parity at L=2 is not the repetition code")


@_claim("projection_compat", "625 coordinate pairs; 65536 golden-pair products")
def certify_projection_compat(failures: list[str], details: list[str]) -> None:
    """Compatibility of the coordinate projections with the ring structure.

    Additivity and ideal-membership hold for both ideals.  The algebra
    writes x = x0 + e*x1 (e left), the pair model keeps j right, so the
    plain coordinate pair is NOT multiplicative even mod (1+i) — reported
    with a witness, never silently patched.  Conjugating the second slot
    (x0 + e*x1 = x0 + conj(x1)*e) repairs it exactly mod (1+i); mod 2 even
    the conjugated labeling fails, precisely when both second slots are
    units (e^2 = i in the algebra, j^2 = 1 in the model, i != 1 mod 2).
    The claim asserts exactly this three-way split."""
    # the library's half keys, read at call time as the scans read them, on a
    # +/-2 window of g = x + y*i: membership of g in either slot of a half;
    # then, over the halves (g, h), the two facts the minimum search enumerates
    # by, slot separability and sign symmetry; then additivity on the halves
    # (g, h) + (h, g) = (g + h, g + h)
    window = list(itertools.product(range(-2, 3), repeat=2))
    keys = (("mod-(1+i)", golden._IDEALS["1pi"].half_key), ("mod-2", golden._IDEALS["2"].half_key))

    def window_failures() -> Iterator[str]:
        for x, y in window:
            # g divisible by (1+i) iff g*(1-i)/2 is integral; by 2 iff both parts even
            for (label, key), div in zip(keys, ((x + y) % 2 == 0, x % 2 == 0 and y % 2 == 0)):
                if (key((x, y, 0, 0)) == 0) != div or (key((0, 0, x, y)) == 0) != div:
                    yield f"{label} membership mismatch at {GaussianInt(x, y)}"
        pairs = list(itertools.product(window, repeat=2))
        for (x, y), (u, v) in pairs:
            for label, key in keys:
                half = key((x, y, u, v))
                if half != key((x, y, 0, 0)) ^ key((0, 0, u, v)):
                    yield (f"{label} slot separability fails at "
                           f"{GaussianInt(x, y)}, {GaussianInt(u, v)}")
                if key((-x, -y, -u, -v)) != half:
                    yield f"{label} sign symmetry fails at {GaussianInt(x, y)}, {GaussianInt(u, v)}"
        for (x, y), (u, v) in pairs:
            for label, key in keys:
                if key((x, y, u, v)) ^ key((u, v, x, y)) != key((x + u, y + v) * 2):
                    yield f"{label} additivity fails at {GaussianInt(x, y)}, {GaussianInt(u, v)}"

    _first_failure(failures, window_failures())

    # pair-level multiplicativity, one x (a row of 256 products) at a time.
    # A labeling reads x as its projection, relabeled or not; row x compares
    # the projections of the products x *_golden y with the twisted products
    # of the labels of x and y, read back through the relabeling (conjugation
    # is an involution, so one map serves both ways).  Row x must differ at y
    # exactly when locus(label of x) and locus(label of y); a labeling
    # without a locus is only counted.  Failures are ordered by (x, y,
    # labeling), and every labeling counts all 65536 products.
    project1, project2 = golden.project_pair_mod_1pi, golden.project_pair_mod_2

    def conjugated(ring) -> Callable:
        conj = list(map(quadratic_conj, ring))  # by mask: a ring iterates in mask order
        return lambda p: (p[0], conj[p[1].mask])

    # (projection, relabeling or None, locus or None, failure text)
    labelings = (
        (project1, None, None, None),
        (project1, conjugated(F4), lambda p: False, "conjugated mod-(1+i) multiplicativity fails"),
        (project2, conjugated(F4I), lambda p: p[1].is_unit,
         "mod-2 failure locus breaks the both-units rule"),
    )
    elements = [GoldenCodeword.from_ints(b) for b in itertools.product(range(2), repeat=8)]
    plain = {project: list(map(project, elements)) for project in (project1, project2)}
    no_marks = [False] * len(elements)
    # per labeling, besides its projection and relabeling: its distinct
    # labels, the slot of each element's label among them, the locus marks
    # and the rows kept for repeated labels
    scans = []
    for project, relabel, locus, _ in labelings:
        labels = list(map(relabel, plain[project])) if relabel else plain[project]
        slot: dict = {}
        slots = [slot.setdefault(p, len(slot)) for p in labels]
        marks = list(map(locus, labels)) if locus else None
        scans.append((project, relabel, list(slot), slots, marks, {}))
    counts = [0] * len(labelings)
    firsts: list = [None] * len(labelings)
    found: dict = {}

    for ix, x in enumerate(elements):
        products = list(map(functools.partial(golden_pair_mul, x), elements))
        got = {project: list(map(project, products)) for project in plain}
        for k, (project, relabel, distinct, slots, marks, kept) in enumerate(scans):
            row = kept.get(slots[ix])
            if row is None:
                # each distinct twisted product of the row once; the row is
                # kept while the labeling's labels repeat (the 16 F4 pairs)
                label = distinct[slots[ix]]
                twisted = list(map(functools.partial(twisted_pair_mul, label), distinct))
                if relabel:
                    twisted = list(map(relabel, twisted))
                row = list(map(twisted.__getitem__, slots))
                if len(distinct) < len(slots):
                    kept[slots[ix]] = row
            differs = list(map(ne, got[project], row))
            count = differs.count(True)
            if count:
                counts[k] += count
                if firsts[k] is None:
                    firsts[k] = (x, elements[differs.index(True)])
            if marks is not None and k not in found:
                want = marks if marks[ix] else no_marks
                if differs != want:
                    found[k] = (ix, _first_difference(differs, want))

    def at(x: GoldenCodeword, y: GoldenCodeword, sep: str) -> str:
        return f"x=({x.x0()}{sep}{x.x1()}), y=({y.x0()}{sep}{y.x1()})"

    for (ix, iy), k in sorted((xy, k) for k, xy in found.items()):
        failures.append(f"{labelings[k][3]} at {at(elements[ix], elements[iy], ',')}")
    plain_count, conj_count, mod2_count = counts
    if not plain_count:
        failures.append(
            "plain-pair labeling unexpectedly multiplicative mod (1+i) — "
            "the left/right twist should break it"
        )
    else:
        repairs = "; conjugating the second slot repairs all 65536" if not conj_count else ""
        details.append(
            f"plain pair (x0bar, x1bar) is not multiplicative mod (1+i) "
            f"(expected, e sits left of x1): {plain_count} of 65536 "
            f"products differ, first at {at(*firsts[0], ', ')}{repairs}"
        )
    if not mod2_count:
        failures.append(
            "mod-2 multiplicativity unexpectedly holds — the e^2 = i twist "
            "should break it"
        )
    else:
        details.append(
            f"mod-2 multiplicativity fails exactly when both second slots "
            f"are units (expected, e^2 = i vs j^2 = 1): {mod2_count} "
            f"of 65536 products differ, first at {at(*firsts[2], ', ')}"
        )


@_claim("golden_mindet", "5^8 - 1 nonzero codewords")
def certify_golden_mindet(failures: list[str], details: list[str]) -> str:
    """The norm identity holds (grid proof), the minimum |det|^2 over the +/-2
    box is exactly 1/5, the witness attains it (integer route vs symbolic
    route), and the brute pass finds the same value and witness."""
    identity = "identity 5*det X = (2+i)(N(a+b*theta) - i*N(c+d*theta))"
    norm = golden.norm_ints
    misses = []
    for coords in itertools.product((-1, 0, 1), repeat=8):
        z = golden.det_numerator(GoldenCodeword.from_ints(coords))
        p, q = norm(*coords[:4])
        r, s = norm(*coords[4:])
        x, y = p + s, q - r  # N_ab - i*N_cd
        if (z.re, z.im) != (2 * x - y, x + 2 * y):  # (2+i)(x + y*i)
            misses.append(coords)
    if misses:
        failures.append(f"{identity} fails on {len(misses)} of 6561 points, first {misses[0]}")
    else:
        details.append(f"{identity} holds on all 6561 points of {{-1,0,1}}^8, so everywhere")
    value, witness = min_abs_det_sq(2)
    if value != Fraction(1, 5):
        failures.append(f"min |det|^2 over box 2 is {value}, expected 1/5")
    if abs_det_sq(witness) != value:
        failures.append(f"witness {witness} does not attain the minimum")
    m, coords = min(filter(None, brute_box_scan("1pi", 2)[3]))
    brute = (Fraction(m, 5), GoldenCodeword.from_ints(coords))
    if brute != (value, witness):
        failures.append(
            f"factorized search gives {value} at {witness}, "
            f"brute loop {brute[0]} at {brute[1]}"
        )
    return str(witness)


def _floor_scan(ideal: str, failures: list[str], details: list[str]) -> None:
    """The library's box-2 floor scan for one ideal: the failures are its
    violations, then any disagreement with the brute loop."""
    scan = scan_det_floors(ideal, 2)
    checked, violations, counts = scan
    failures.extend(f"floor violated at {v}" for v in violations)
    brute = brute_box_scan(ideal, 2)[:3]
    if scan != brute:
        failures.append(f"factorized floor scan {scan} disagrees with the brute loop {brute}")
    details.append(
        f"checked {checked} codewords; class sizes (floor 4/2/1) = "
        f"{counts[0]}/{counts[1]}/{counts[2]}"
    )


# The brute pass visits all (2*2+1)^8 - 1 nonzero codewords of the box.
_FLOOR_SPACE = "390624 nonzero codewords in the +/-2 box"

# Determinant floors for the ideal (1+i) over the +/-2 box: projection
# zero -> 4/5, nonzero non-unit -> 2/5, unit -> 1/5.
certify_det_floors_1pi = _claim("det_floors_1pi", _FLOOR_SPACE)(
    functools.partial(_floor_scan, "1pi")
)


@_claim("det_floors_2", _FLOOR_SPACE)
def certify_det_floors_2(failures: list[str], details: list[str]) -> None:
    """Determinant floors for the ideal (2) over the +/-2 box, classified by
    the unit class of u = N(x0) + i*N(x1); also reports the counterexample
    that rules out the naive equal-norms grouping."""
    _floor_scan("2", failures, details)

    # defect of the naive grouping (equal norms -> 4, distinct nonzero -> 2,
    # one zero -> 1), exhibited on a tiny codeword
    cw = (1, 0, 0, 0, 1, 0, 0, 0)  # (a,b,c,d) = (1,0,1,0); norm pair (1,1)
    n0, n1 = golden.mod2_norm_pair(GoldenCodeword.from_ints(cw))
    floor = 4 if n0 == n1 else 2 if not (n0.is_zero or n1.is_zero) else 1
    m = det_sq_times5(cw)
    if m < floor:
        details.append(
            f"equal-norms grouping fails: codeword (1, 0, 1, 0) has "
            f"|det|^2 = {Fraction(m, 5)} < {Fraction(floor, 5)}"
        )
    else:
        failures.append("expected counterexample to the equal-norms grouping vanished")


# ----------------------------------------------------------------------
# tuple-level brute force for coset codes
#
# Delta = det(sum_i X_i X_i^dagger) needs only the Gram entries of each block.
# ``_representative_table`` scores every representative codeword once: its
# m = 5*|det X|^2 and the entries (0,0), (0,1), (1,1) of the Hermitian
# 5*X X^dagger, multiplied out from the symbolic ``matrix_times_sqrt5`` with
# explicit conjugates, never through the library's norm kernels.  A tuple
# then costs three sums and one 2x2 Hermitian determinant.

def _eq2_holds(u: int, ms: Sequence[int]) -> bool:
    """delta >= (sum_i |det X_i|)^2 with u = 25*delta and |det X_i|^2 = m_i / 5,
    exactly, for the one or two blocks of a tuple: one block must give
    equality, two are decided by the squaring trick on nonnegative integers."""
    if len(ms) == 1:
        return u == 5 * ms[0]
    m1, m2 = ms
    t = u - 5 * (m1 + m2)
    return t >= 0 and t * t >= 100 * m1 * m2


def _hermitian_det(s00: Iterable[int], s11: Iterable[int], s01: Iterable[int]) -> int:
    """s00*s11 - s01*conj(s01), an int, for entries u + v*theta given as
    (u.re, u.im, v.re, v.im)."""
    # with theta^2 = theta + 1, (A + B*theta)(C + D*theta) = AC + BD + (AD +
    # BC + BD)*theta, and (E + F*theta)(conj E + conj F*theta) = |E|^2 + |F|^2
    # + (2 Re(E conj F) + |F|^2)*theta is real
    (ar, ai, br, bi), (cr, ci, dr, di), (er, ei, fr, fi) = s00, s11, s01
    bd_im = br * di + bi * dr
    if ar * ci + ai * cr + bd_im or ar * di + ai * dr + br * ci + bi * cr + bd_im:
        raise ArithmeticError("hermitian determinant came out non-real")
    ff = fr * fr + fi * fi
    if ar * dr - ai * di + br * cr - bi * ci + br * dr - bi * di != 2 * (er * fr + ei * fi) + ff:
        raise ArithmeticError("hermitian determinant came out irrational")
    return ar * cr - ai * ci + br * dr - bi * di - (er * er + ei * ei + ff)


# The representatives 0, 1, i, 1+i of a Gaussian coordinate, as (re, im).
DEFAULT_REPRESENTATIVES = ((0, 0), (1, 0), (0, 1), (1, 1))


# brute_delta_min refuses to examine more tuples than this.
DELTA_MIN_TUPLE_LIMIT = 2_000_000

_Rep = tuple[GoldenCodeword, int, GoldenInt, GoldenInt, GoldenInt]


def _representative_table(ideal: str) -> dict[int, list[_Rep]]:
    """The 256 codewords with coordinates in ``DEFAULT_REPRESENTATIVES``, each
    as (codeword, m, g00, g01, g11), grouped by residue key in product order."""
    keyfn = _ideal_key_and_floors(ideal)[0]
    table: dict[int, list[_Rep]] = {}
    for pairs in itertools.product(DEFAULT_REPRESENTATIVES, repeat=4):
        coords = sum(pairs, ())
        cw = GoldenCodeword.from_ints(coords)
        (m00, m01), (m10, m11) = cw.matrix_times_sqrt5()
        c00, c01, c10, c11 = (e.complex_conj() for e in (m00, m01, m10, m11))
        table.setdefault(keyfn(coords), []).append((
            cw, det_sq_times5(coords),
            m00 * c00 + m01 * c01, m00 * c10 + m01 * c11, m10 * c10 + m11 * c11,
        ))
    return table


def brute_delta_min(
    code: LinearCode | MappedCode, ideal: str
) -> tuple[Fraction, tuple[GoldenCodeword, ...], bool]:
    """Exact minimum of det(sum X_i X_i^dagger) over nonzero tuples whose
    blockwise projections form a codeword of ``code``.

    ``code`` has length L = 1 or 2 and lives over 2x2 matrices (M2(F2) for
    ideal "1pi", M2(F2[i]) for ideal "2"); inner coordinates range over
    ``DEFAULT_REPRESENTATIVES`` per Gaussian coordinate.  Returns (minimum,
    first witness tuple in enumeration order, and whether the per-tuple
    superadditivity cross-check ``_eq2_holds`` held on every tuple).
    """
    if code.L not in (1, 2):
        raise ValueError("the exact cross-check is implemented for L <= 2")
    table = _representative_table(ideal)
    # each Gram entry u + v*theta as the ints (u.re, u.im, v.re, v.im)
    for reps in table.values():
        reps[:] = [(cw, m, *map(GoldenInt._ints, gram)) for cw, m, *gram in reps]
    best = best_witness = None
    eq2_all = True
    examined = 0
    # Delta is rational.  For 2x2 A_i = X_i X_i^dagger, det(sum A_i) =
    # sum det A_i + sum_{i<j} tr(adj(A_i) A_j), with det A_i = m_i / 5 and
    # tr(adj(A_i) A_j) = ||adj(X_i) X_j||_F^2.  Since sigma(alpha) = alphabar,
    # adj(X_i) again has the codeword shape [[x, y], [i*sigma(y), sigma(x)]]
    # over Q(i, theta), hence so does adj(X_i) X_j, and its squared Frobenius
    # norm is w + sigma(w) for a real w in Q(theta): a rational.  So the
    # Gram determinant 25*Delta = u + v*theta has v = 0, and best is the int u.
    for outer in code.codewords():
        # {0, 1, i, 1+i} is a full residue system mod 2, so every key of
        # either ideal has representatives; the zero outer word's tuples
        # include nonzero ones, so ``best`` is always set
        for tup in itertools.product(*(table[golden._coset_key(m, ideal)] for m in outer)):
            words, ms, g00, g01, g11 = zip(*tup)
            if all(cw.is_zero for cw in words):
                continue
            examined += 1
            if examined > DELTA_MIN_TUPLE_LIMIT:
                raise ValueError(f"brute force exceeded {DELTA_MIN_TUPLE_LIMIT} tuples")
            u = _hermitian_det(*(map(sum, zip(*g)) for g in (g00, g11, g01)))
            if not _eq2_holds(u, ms):
                eq2_all = False
            if best is None or u < best:
                best, best_witness = u, words
    return Fraction(best, 25), best_witness, eq2_all


@_claim("delta_min_rep2", "4096 mod-(1+i) tuples and 256 mod-(2) tuples over the box")
def certify_delta_min_rep2(failures: list[str], details: list[str]) -> str:
    """The L = 2 repetition coset code mod (1+i) over the small representative
    box {0, 1, i, 1+i}: brute-force minimum of det(X1 X1* + X2 X2*) is exactly
    4/5 = min(|1+i|^4, d^2) * delta at d = 2, delta = 1/5, and every tuple
    satisfies the sum-of-|det| superadditivity check.  The mod-(2) analogue
    over the same box (where it holds one representative per residue) gives
    the same minimum against min(16, d^2) * delta."""
    code_1pi = outer_codes.repetition_code(2, outer_codes.MatrixSpace(F2, 2))
    value, witness, eq2_ok = brute_delta_min(code_1pi, "1pi")
    if value != Fraction(4, 5):
        failures.append(f"mod-(1+i) delta_min = {value}, expected 4/5")
    if not eq2_ok:
        failures.append("superadditivity cross-check failed on some mod-(1+i) tuple")
    bound = bounds.hamming_bound(2, 2, Fraction(1, 5), 2)
    if value < bound:
        failures.append(f"mod-(1+i) delta_min {value} below the bound {bound}")
    elif value == bound:
        details.append(f"mod-(1+i): meets the determinant bound {bound} with equality")

    code_2 = outer_codes.repetition_code(2, outer_codes.MatrixSpace(F2I, 2))
    value2, _, eq2_ok2 = brute_delta_min(code_2, "2")
    bound2 = bounds.hamming_bound_m2f2i(Fraction(1, 5), 2)
    if value2 != bound2:
        failures.append(f"mod-(2) delta_min = {value2}, expected {bound2}")
    if not eq2_ok2:
        failures.append("superadditivity cross-check failed on some mod-(2) tuple")
    details.append(f"mod-(2) analogue: delta_min = {value2} = min(16, 4) * 1/5")

    return "(" + "; ".join(str(cw) for cw in witness) + ")"


# ----------------------------------------------------------------------
# running claims


def run_claim(name: str) -> OracleReport:
    try:
        fn = CLAIMS[name]
    except KeyError:
        raise ValueError(
            f"unknown claim {name!r}; known: {', '.join(sorted(CLAIMS))}"
        ) from None
    return fn()


def run_all() -> list[OracleReport]:
    return [run_claim(name) for name in CLAIMS]
