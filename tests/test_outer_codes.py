from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from cosetcodes import outer_codes
from cosetcodes.cyclic import multiplication_matrix, pair_to_matrix
from cosetcodes.matrices import RingMatrix
from cosetcodes.outer_codes import (
    LinearCode,
    MappedCode,
    MatrixSpace,
    WeightKind,
    bachoc_weight,
    dual_repetition_code,
    hexacode,
    inner_parity_pair_code,
    lee_weight,
    lee_word_weight,
    lift_code,
    load_code,
    matrix_parity_code,
    min_distance,
    named_code,
    parity_check_code,
    pushforward_pairs,
    reed_solomon_code,
    repetition_code,
    rs_distance_certificate,
    word_weight,
)
from cosetcodes.rings import F2, F2I, F4, F4I, F8, F16, RING_BY_NAME, QuotientRing, quadratic_norm


def test_repetition_and_parity_basics():
    rep = repetition_code(3, F4)
    words = list(rep.codewords())
    assert len(words) == 4
    assert all(len(set(w)) == 1 for w in words)
    assert min_distance(rep) == 3

    par = parity_check_code(4, F4)
    words = list(par.codewords())
    assert len(words) == 64
    for w in words:
        s = F4.zero
        for x in w:
            s = s + x
        assert s.is_zero
    assert min_distance(par) == 2


def test_dual_repetition_is_4_3_2():
    code = dual_repetition_code()
    assert (code.L, code.k) == (4, 3)
    words = set(code.codewords())
    assert len(words) == 64
    assert min_distance(code) == 2
    # checksum-first layout
    assert code.encode([F4.one, F4.gen_w, F4.one + F4.gen_w]) == (
        F4.zero,
        F4.one,
        F4.gen_w,
        F4.one + F4.gen_w,
    )
    assert code.contains((F4.zero, F4.one, F4.one, F4.zero))
    assert not code.contains((F4.one, F4.one, F4.one, F4.zero))


def test_hexacode_is_6_3_4():
    code = hexacode()
    assert (code.L, code.k) == (6, 3)
    assert len(set(code.codewords())) == 64
    assert min_distance(code) == 4


def test_lift_preserves_hamming_distance():
    for base in (dual_repetition_code(), hexacode()):
        lifted = lift_code(base)
        assert lifted.message_space_size == base.message_space_size
        assert min_distance(lifted) == min_distance(base)


def test_pushforward_pairs_drops_hamming_but_keeps_bachoc():
    """Pairing coordinates halves the length: the [4,3,2] code keeps its
    weight 2 in the matrix (Bachoc) metric but a codeword like
    (0,0,1,1) -> (zero matrix, all-ones matrix) has Hamming weight 1."""
    pairs = pushforward_pairs(dual_repetition_code())
    assert min_distance(pairs, WeightKind.BACHOC) == 2
    assert min_distance(pairs, WeightKind.HAMMING) == 1
    image = (
        pair_to_matrix(F4.zero, F4.zero),
        pair_to_matrix(F4.one, F4.one),
    )
    assert image[0].is_zero
    assert all(e == F2.one for e in image[1].entries)
    assert image in set(pairs.codewords())

    hex_pairs = pushforward_pairs(hexacode())
    assert min_distance(hex_pairs, WeightKind.BACHOC) == 4
    assert min_distance(hex_pairs, WeightKind.HAMMING) == 2


def test_bachoc_weight_values():
    assert bachoc_weight(RingMatrix.zeros(F2, 2)) == 0
    assert bachoc_weight(RingMatrix.identity(F2, 2)) == 1
    assert bachoc_weight(RingMatrix.parse(F2, "[[1,1],[1,1]]")) == 2
    word = [
        RingMatrix.zeros(F2, 2),
        RingMatrix.identity(F2, 2),
        RingMatrix.parse(F2, "[[1,0],[0,0]]"),
    ]
    assert word_weight(word, WeightKind.BACHOC) == 3
    assert word_weight(word, WeightKind.HAMMING) == 2


@pytest.mark.parametrize(
    "symbol", [F2.one, RingMatrix.identity(F2, 3)], ids=["f2-element", "3x3"]
)
def test_bachoc_weight_rejects_other_symbols(symbol):
    with pytest.raises(ValueError, match="2x2 matrices over f2"):
        bachoc_weight(symbol)


def test_lee_weight_values():
    one = F4I.one
    i_elt = F4I.parse("i")
    one_plus_i = F4I.parse("1+i")
    assert lee_weight(F4I.zero, F4I.zero) == 0
    assert lee_weight(one, F4I.zero) == 1
    assert lee_weight(one, one) == 4
    assert lee_weight(i_elt, F4I.zero) == 1  # N(i) = i*i = 1
    norm_i = F4I.parse("1+iw")  # N(1+iw) = 1 + i + i^2 = i
    assert lee_weight(one, norm_i) == 2  # |1 + i|^2
    # both norms vanish on multiples of 1+i: the weight can be 0 on a
    # nonzero pair
    assert lee_weight(one_plus_i, one_plus_i) == 0
    assert lee_word_weight((one, i_elt)) == 4  # N(i) = 1, so same as (1, 1)
    assert lee_word_weight((one, norm_i, i_elt, F4I.zero)) == 2 + 1
    with pytest.raises(ValueError):
        lee_word_weight((one,))


def test_inner_parity_pair_code_spectrum():
    code = inner_parity_pair_code()
    # 256 messages collapse 4-to-1 onto 64 distinct members
    words = set(code.codewords())
    assert len(words) == 64
    spectrum: dict[int, int] = {}
    for w in words:
        wl = lee_word_weight(w)
        spectrum[wl] = spectrum.get(wl, 0) + 1
    assert spectrum == {0: 16, 2: 24, 4: 24}
    # no member has weight 1, but the floor of 2 fails on 15 nonzero members
    assert min_distance(code, WeightKind.LEE) == 0


def test_reed_solomon_certificates():
    rs13 = reed_solomon_code(13)
    rs14 = reed_solomon_code(14)
    assert rs_distance_certificate(rs13) == 4
    assert rs_distance_certificate(rs14) == 3
    with pytest.raises(ValueError):
        next(rs13.codewords())  # 16^13 messages, over the enumeration limit
    msg = [F16.element(m % 16) for m in range(3, 16)]
    word = rs13.encode(msg)
    assert len(word) == 16
    assert rs13.check_parity(word)
    bad = list(word)
    bad[0] = bad[0] + F16.one
    assert not rs13.check_parity(bad)


@pytest.mark.parametrize(
    "code,message",
    [
        (hexacode(), "hexacode[6,3,4]: needs L - k = 3 parity rows, 0 stored"),
        (repetition_code(3, F4), "repetition[3]: needs L - k = 2 parity rows, 0 stored"),
    ],
    ids=["hexacode", "repetition"],
)
def test_rs_certificate_refuses_a_code_without_its_parity_rows(code, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        rs_distance_certificate(code)


def test_rs_certificate_failure_paths():
    """A stored parity row that does not check G, then two equal parity
    rows, which make every set of three columns dependent; r = 0 needs no
    minor."""
    rs13 = reed_solomon_code(13)
    p0, p1, p2 = rs13.parity_rows
    power14 = tuple(p**14 for p in F16.elements)
    unchecked = dataclasses.replace(rs13, parity_rows=(p0, p1, power14))
    with pytest.raises(ArithmeticError, match=re.escape("rs[16,13]: stored parity rows do not check G")):
        rs_distance_certificate(unchecked)
    repeated = dataclasses.replace(rs13, parity_rows=(p0, p0, p2))
    with pytest.raises(ArithmeticError, match=re.escape("parity columns (0, 1, 2) of rs[16,13] are dependent")):
        rs_distance_certificate(repeated)
    assert rs_distance_certificate(reed_solomon_code(16)) == 1


def test_matrix_parity_code_is_repetition_at_length_2():
    mp = matrix_parity_code(2)
    words = set(mp.codewords())
    assert words == {(m, m) for m in MatrixSpace(F2, 2)}


def test_named_code_registry():
    assert named_code("dualrep").name == "dualrep[4,3,2]"
    assert named_code("hexacode").L == 6
    assert named_code("rs16_13").k == 13
    assert named_code("repetition", L=3, ring_name="f4").L == 3
    assert named_code("matrix_parity", L=3).L == 3
    known = "dualrep, hexacode, rs16_13, rs16_14, inner_pair, repetition, parity, matrix_parity"
    with pytest.raises(ValueError, match=f"^unknown code 'nosuch'; known: {known}$"):
        named_code("nosuch")


@pytest.mark.parametrize(
    "name,L,ring_name,flag",
    [
        ("hexacode", 9, None, "L"),
        ("hexacode", None, "f16", "ring"),
        ("rs16_13", 16, None, "L"),
        ("inner_pair", None, "f4i", "ring"),
        ("matrix_parity", 3, "f4", "ring"),
    ],
)
def test_named_code_refuses_a_parameter_it_does_not_take(name, L, ring_name, flag):
    with pytest.raises(ValueError, match=f"^code {name} takes no --{flag}$"):
        named_code(name, L=L, ring_name=ring_name)


def test_dump_load_round_trip():
    for code, text in (
        (dual_repetition_code(), "f4 4 3\n1 1 0 0\n1 0 1 0\n1 0 0 1\n"),
        (hexacode(), "f4 6 3\n1 0 0 1 w w\n0 1 0 w 1 w\n0 0 1 w w 1\n"),
    ):
        back = load_code(text, name=code.name)
        assert back.L == code.L and back.k == code.k
        assert set(back.codewords()) == set(code.codewords())
    with pytest.raises(ValueError):
        load_code("f4 4\n1 1 1 1\n")
    with pytest.raises(ValueError):
        load_code("f4 4 1\n1 1 1\n")


@pytest.mark.parametrize("header", ["f4 -1 0", "f4 2 -1"])
def test_load_code_refuses_a_negative_header(header):
    with pytest.raises(ValueError, match=f"^header L and k must not be negative, got '{header}'$"):
        load_code(header + "\n")


def test_reed_solomon_code_has_length_16():
    assert [reed_solomon_code(k).L for k in (1, 16)] == [16, 16]
    for k in (0, 17):
        with pytest.raises(ValueError, match="need 1 <= k <= 16"):
            reed_solomon_code(k)


def test_weight_kind_names():
    assert WeightKind("hamming") is WeightKind.HAMMING
    assert WeightKind("bachoc") is WeightKind.BACHOC
    assert WeightKind("lee") is WeightKind.LEE


# ----------------------------------------------------------------------
# the packed enumeration against the object route (encode, word by word)


def _permute_pairs(code, seed):
    """The code with its coordinate pairs permuted as blocks."""
    blocks = list(range(code.L // 2))
    random.Random(seed).shuffle(blocks)
    order = [2 * b + k for b in blocks for k in (0, 1)]

    def permute(rows):
        return tuple(tuple(row[j] for j in order) for row in rows)

    return dataclasses.replace(
        code, rows=permute(code.rows), parity_rows=permute(code.parity_rows)
    )


def _small_codes():
    """Named codes with at most 2^16 messages (lengths kept small enough for
    the object route), a pair-permuted copy, two long repetition codes and
    three codes with no nonzero word, one of them with no generator row."""
    codes = [dual_repetition_code(), hexacode(), inner_parity_pair_code()]
    codes += [reed_solomon_code(k) for k in (1, 2, 3)]
    for alphabet in [*RING_BY_NAME.values(), MatrixSpace(F2, 2), MatrixSpace(F2I, 2)]:
        codes.append(repetition_code(3, alphabet))
        codes.append(parity_check_code(3 if alphabet.size <= 16 else 2, alphabet))
    codes.append(_permute_pairs(parity_check_code(4, F4I), seed=11))
    # over 64 symbols (or 64 pairs), where unpacking halves the word first
    codes += [repetition_code(131, F16), repetition_code(130, F4I)]
    for ring, L in ((F4I, 3), (F4, 2)):
        codes.append(LinearCode(ring, L, 1, ((ring.zero,) * L,), name=f"zero[{L}]"))
    codes.append(LinearCode(F4, 2, 0, (), name="empty[2]"))
    return codes


SMALL_CODES = _small_codes()
CODE_IDS = [f"{c.name}-{c.alphabet.name}" for c in SMALL_CODES]


def _object_words(code):
    return [code.encode(m) for m in itertools.product(code.alphabet, repeat=code.k)]


def _lift_words(words):
    return [tuple(multiplication_matrix(x) for x in w) for w in words]


def _pair_words(words):
    return [
        tuple(pair_to_matrix(w[j], w[j + 1]) for j in range(0, len(w), 2))
        for w in words
    ]


def _brute_min_distance(words, kind):
    weights = [
        word_weight(w, kind) for w in words if not all(x.is_zero for x in w)
    ]
    if not weights:
        raise ValueError("code has no nonzero codeword")
    return min(weights)


@pytest.mark.parametrize("code", SMALL_CODES, ids=CODE_IDS)
def test_packed_route_matches_object_route(code):
    """codewords() equals encode over itertools.product, for the code and
    for each transform it admits, and min_distance equals the brute minimum
    of the weight over those words for every weight kind; where the brute
    minimum raises, min_distance raises the same type with the same
    message."""
    words = _object_words(code)
    assert list(code.codewords()) == words
    variants = [(code, words)]
    if code.alphabet in (F4, F4I):
        variants.append((lift_code(code), _lift_words(words)))
        if code.L % 2 == 0:
            variants.append((pushforward_pairs(code), _pair_words(words)))
    for variant, mapped in variants:
        assert list(variant.codewords()) == mapped
        for kind in WeightKind:
            try:
                want = _brute_min_distance(mapped, kind)
            except ValueError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    min_distance(variant, kind)
            else:
                assert min_distance(variant, kind) == want, (variant, kind)


def test_generator_size_is_refused_before_building():
    """k*L generator entries over the enumeration limit (2^20) are refused
    before any row is allocated."""
    with pytest.raises(ValueError, match="1049600 generator entries"):
        parity_check_code(1025, F2)
    assert parity_check_code(1024, F2).k == 1023
    with pytest.raises(ValueError, match="over the enumeration limit"):
        repetition_code(2**20 + 1, F2)


def test_scaled_rows_take_one_product_per_basis_symbol(monkeypatch):
    """The row tables are read from the products of the 4 one-bit symbols
    of M2(F2) with each other: dim^2 = 16 matrix products per search,
    whatever the length, not one per generator entry and alphabet symbol."""
    calls = 0
    product = RingMatrix.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return product(self, other)

    monkeypatch.setattr(RingMatrix, "__mul__", counted)
    for L in (50, 2000):
        calls = 0
        assert min_distance(repetition_code(L, MatrixSpace(F2, 2))) == L
        assert calls == 16, L


def _object_scaled_rows(code, per, pad):
    """scaled[i][a] by the object route: _pack(a * g) of every symbol a and
    entry g, symbol j at bit (j // per) * (per * dim + pad) + (j % per) * dim."""
    dim = code.alphabet.dim
    shifts = [(j // per) * (per * dim + pad) + (j % per) * dim for j in range(code.L)]
    return [
        [sum(outer_codes._pack(a * g) << s for g, s in zip(row, shifts)) for a in code.alphabet]
        for row in code.rows
    ]


def _scaled_rows_cases():
    """54 drawn codes, one per alphabet (all seven rings, M2(F2) and
    M2(F2[i])), per in {1, 2} and pad in {0, 1, 3}, plus one long row."""
    rng = random.Random(29)
    cases = []
    for alphabet in PROPERTY_ALPHABETS:
        for per, pad in itertools.product((1, 2), (0, 1, 3)):
            L = per * rng.randint(1, 3 if alphabet.size > 16 else 5)
            cases.append((_drawn_code(alphabet, L, rng.randint(1, 2), rng.randrange(1 << 16)), per, pad))
    cases.append((_drawn_code(F16, 300, 1, seed=7), 2, 1))
    return cases


def test_scaled_rows_match_the_object_route():
    cases = _scaled_rows_cases()
    assert len(cases) == 55
    for code, per, pad in cases:
        want = _object_scaled_rows(code, per, pad)
        assert outer_codes._scaled_rows(code, per, pad) == want, (code, per, pad)


@pytest.mark.parametrize("ring", [F2, F2I], ids=lambda r: r.name)
def test_matrix_space_element_is_the_enumeration_index(ring):
    space = MatrixSpace(ring, 2)
    for index, m in enumerate(space):
        assert space.element(index) == m
        assert outer_codes._pack(m) == index


@pytest.mark.parametrize("index", [-1, 16])
def test_matrix_space_element_refuses_indices_out_of_range(index):
    with pytest.raises(ValueError, match=f"index {index} is not an element of m2f2"):
        MatrixSpace(F2, 2).element(index)


def test_scaled_rows_do_not_enumerate_the_alphabet(monkeypatch):
    """The row tables need only the dim one-bit symbols, not all 256
    matrices of M2(F2[i])."""
    code = repetition_code(2, MatrixSpace(F2I, 2))
    symbols = list(code.alphabet)
    want = [[outer_codes._pack(a) * (1 + (1 << 8)) for a in symbols]]

    def refuse(self):
        raise AssertionError("the alphabet was enumerated")

    monkeypatch.setattr(MatrixSpace, "__iter__", refuse)
    assert outer_codes._scaled_rows(code) == want


# ----------------------------------------------------------------------
# min_distance over unit orbits


def _recorded_blocks(monkeypatch):
    """(word count, least weight) of every block min_distance weighs."""
    blocks = []
    least_weight = outer_codes._least_weight

    def recorded(lanes, count, *args):
        blocks.append((count, least_weight(lanes, count, *args)))
        return blocks[-1][1]

    monkeypatch.setattr(outer_codes, "_least_weight", recorded)
    return blocks


@pytest.mark.parametrize(
    "code,kind,words",
    [
        # all 15 units of F16 keep Hamming weight: 16^3 + 16^2 + 16 + 1
        (reed_solomon_code(4), WeightKind.HAMMING, 4369),
        # all 3 units of F4 keep the Bachoc weight of a pair: (4^7 - 1) / 3
        (pushforward_pairs(parity_check_code(8, F4)), WeightKind.BACHOC, 5461),
        # all 12 units of F4[i] keep Lee weight; representatives 1 and 1+i:
        # 2 * (16^2 + 16 + 1)
        (parity_check_code(4, F4I), WeightKind.LEE, 546),
        # a matrix alphabet keeps U = {1}: every nonzero message, 16^2 - 1
        (parity_check_code(3, MatrixSpace(F2, 2)), WeightKind.HAMMING, 255),
    ],
    ids=["rs16_4", "pairs-parity8-f4", "lee-parity4-f4i", "parity3-m2f2"],
)
def test_min_distance_visits_one_message_per_unit_orbit(monkeypatch, code, kind, words):
    """Counted as the words of the lane blocks that are weighed."""
    blocks = _recorded_blocks(monkeypatch)
    min_distance(code, kind)
    assert sum(count for count, _ in blocks) == words


@pytest.mark.parametrize(
    "code,kind,tested,blocks,words",
    [
        # F16* is cyclic and x generates it: one unit test
        (reed_solomon_code(4), WeightKind.HAMMING, 1, 1, 4369),
        (pushforward_pairs(parity_check_code(8, F4)), WeightKind.BACHOC, 1, 1, 5461),
        (lift_code(parity_check_code(8, F4)), WeightKind.HAMMING, 1, 1, 5461),
        # the units of F4[i] are C3 x C2 x C2, spanned by the tested i, w, w+i
        (parity_check_code(4, F4I), WeightKind.LEE, 3, 1, 546),
    ],
    ids=["rs16_4", "pairs-parity8-f4", "lift-parity8-f4", "lee-parity4-f4i"],
)
def test_benchmark_searches_build_each_lane_run_once(monkeypatch, code, kind, tested, blocks, words):
    """The four searches of the benchmark's codes workload: one run of
    byte lanes per unit tested, one lane block per search whose low bytes
    serve every first row, and the visited words unchanged."""
    lanes = outer_codes._lanes
    kept_units = outer_codes._kept_units
    calls = {"units": 0, "lanes": 0}
    active = "lanes"

    def counted_lanes(tables, size):
        calls[active] += 1
        return lanes(tables, size)

    def counted_units(*args):
        nonlocal active
        active = "units"
        try:
            return kept_units(*args)
        finally:
            active = "lanes"

    monkeypatch.setattr(outer_codes, "_lanes", counted_lanes)
    monkeypatch.setattr(outer_codes, "_kept_units", counted_units)
    weighed = _recorded_blocks(monkeypatch)
    min_distance(code, kind)
    assert calls == {"units": tested, "lanes": blocks}
    assert sum(count for count, _ in weighed) == words


def test_unit_orbits_keep_only_weight_preserving_units():
    """One F4 symbol x maps to pair_to_matrix(x, x) at x = 1 and to
    pair_to_matrix(x, 0) elsewhere: Bachoc weight 2 at 1, 1 at w and w^2,
    so no unit but 1 keeps the weight.  A scaling check that is dropped or
    loosened lets U be all of F4's units; the one orbit {1, w, w^2} is then
    visited at 1 alone, and the distance would read 2 instead of 1."""
    code = MappedCode(
        base=repetition_code(1, F4),
        alphabet=MatrixSpace(F2, 2),
        block=1,
        symbol_map=lambda x: pair_to_matrix(x, x if x == F4.one else F4.zero),
        name="planted",
    )
    weights = sorted(
        word_weight(w, WeightKind.BACHOC) for w in code.codewords() if word_weight(w, WeightKind.HAMMING)
    )
    assert weights == [1, 1, 2]
    assert min_distance(code, WeightKind.BACHOC) == 1
    assert min_distance(code, WeightKind.HAMMING) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reed_solomon_distance_is_17_minus_k(k):
    assert min_distance(reed_solomon_code(k)) == 17 - k


def test_benchmark_code_distances_match_the_codeword_minimum():
    """The four searches of the codes benchmark workload, on pair-permuted
    codes as there, equal the minimum of the public weight functions over
    every nonzero word of codewords(), each weighed by word_weight."""
    parity_f4 = _permute_pairs(parity_check_code(8, F4), seed=19)
    jobs = [
        (_permute_pairs(reed_solomon_code(4), seed=19), WeightKind.HAMMING),
        (pushforward_pairs(parity_f4), WeightKind.BACHOC),
        (lift_code(parity_f4), WeightKind.HAMMING),
        (_permute_pairs(parity_check_code(4, F4I), seed=19), WeightKind.LEE),
    ]
    for code, kind in jobs:
        want = min(word_weight(w, kind) for w in code.codewords() if word_weight(w, WeightKind.HAMMING))
        assert min_distance(code, kind) == want, (code, kind)


# ----------------------------------------------------------------------
# weighing packed words: byte tables, spread fields and wide blocks


def test_lee_weight_reads_the_lifted_norms():
    """On all 256 pairs, lee_weight is |lift N(x) + lift N(y)|^2 with each
    relative norm lifted from F2[i] into Z[i] (1 -> 1, i -> i)."""
    lift = {F2I.parse(s): z for s, z in (("0", 0), ("1", 1), ("i", 1j), ("1+i", 1 + 1j))}
    for x in F4I:
        for y in F4I:
            z = lift[quadratic_norm(x)] + lift[quadratic_norm(y)]
            assert lee_weight(x, y) == z.real**2 + z.imag**2, (x, y)


@pytest.mark.parametrize("pair", ["matrix-first", "matrix-second"])
def test_lee_weight_refuses_matrices_over_f4i(pair):
    m = MatrixSpace(F4I, 2).one
    x, y = (m, F4I.one) if pair == "matrix-first" else (F4I.one, m)
    with pytest.raises(ValueError, match="^lee weight is defined on pairs over f4i$"):
        lee_weight(x, y)


def _first_nonzero_then_last(a, b, c):
    """A 3-symbol f4 block to M2(F2): the pair image of (first nonzero
    symbol, c).  The pair map is a bijection, so only zero maps to zero."""
    return pair_to_matrix(a if a else b if b else c, c)


def _sparse_top_code(ring, L, top):
    """All-ones row plus a row whose ``top`` nonzero symbols end the word:
    the minimum-weight words sit in the word's highest bytes."""
    tail = [ring.element(1 + j % (ring.size - 1)) for j in range(top)]
    return LinearCode(
        ring, L, 2, ((ring.one,) * L, (ring.zero,) * (L - top) + tuple(tail)), name=f"top{top}"
    )


def _fold_to_m2f2i(*symbols):
    """A block of symbols (five f4 symbols make 10 bits) to one of the 255
    nonzero matrices of M2(F2[i]), or zero: only the zero block maps to
    zero."""
    v = sum(x.mask << x.ring.dim * j for j, x in enumerate(symbols))
    return MatrixSpace(F2I, 2).element(v and 1 + (v - 1) % 255)


def _wide(base):
    """base in 10-bit blocks of five f4 symbols, wider than a byte: weighed
    one word at a time, field by field."""
    return MappedCode(base, MatrixSpace(F2I, 2), 5, _fold_to_m2f2i, name=f"wide({base.name})")


def _drawn_code(ring, L, k, seed):
    rng = random.Random(seed)
    rows = tuple(tuple(ring.element(rng.randrange(ring.size)) for _ in range(L)) for _ in range(k))
    return LinearCode(ring, L, k, rows, name=f"drawn[{L},{k}]")


LAYOUT_CODES = [
    # 3-bit f8 symbols, spread to 4-bit fields
    repetition_code(5, F8),
    parity_check_code(4, F8),
    LinearCode(F8, 5, 2, ((F8.one, F8.zero, F8.gen_w, F8.one, F8.zero),
                          (F8.zero, F8.gen_w, F8.one, F8.one, F8.gen_w)), name="f8[5,2]"),
    # 6-bit blocks of three f4 symbols, spread to bytes
    MappedCode(parity_check_code(6, F4), MatrixSpace(F2, 2), 3, _first_nonzero_then_last, name="triples"),
    # 16-bit M2(F4[i]) symbols and 10-bit mapped blocks, weighed block by block
    repetition_code(2, MatrixSpace(F4I, 2)),
    _wide(repetition_code(10, F4)),
    _wide(_drawn_code(F4, 10, 4, seed=3)),
    # long words with the minimum at the top: 1-, 3- and 4-bit symbols
    _sparse_top_code(F2, 200, 3),
    _sparse_top_code(F8, 131, 2),
    _sparse_top_code(F16, 70, 3),
]


@pytest.mark.parametrize("code", LAYOUT_CODES, ids=lambda c: f"{c.name}-{c.alphabet.name}")
def test_min_distance_is_the_codeword_minimum_on_every_layout(code):
    words = list(code.codewords())
    for kind in WeightKind:
        try:
            want = _brute_min_distance(words, kind)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                min_distance(code, kind)
        else:
            assert min_distance(code, kind) == want, kind


def test_sparse_top_codes_have_their_minimum_at_the_top():
    for code, top in zip(LAYOUT_CODES[-3:], (3, 2, 3)):
        assert min_distance(code) == top


@pytest.mark.parametrize("block", [4, 5])
def test_mapped_code_blocks_must_tile_the_length(block):
    code = MappedCode(parity_check_code(6, F4), MatrixSpace(F2, 2), block, pair_to_matrix)
    message = f"^blocks of {block} symbols do not tile length 6$"
    with pytest.raises(ValueError, match=message):
        min_distance(code)
    with pytest.raises(ValueError, match=message):
        next(code.codewords())


@pytest.mark.parametrize(
    "code",
    [
        *(transform(parity_check_code(4, ring)) for ring in (F4, F4I) for transform in (lift_code, pushforward_pairs)),
        MappedCode(repetition_code(3, F4), MatrixSpace(F2I, 2), 3, _fold_to_m2f2i, name="f4-triples"),
    ],
    ids=lambda c: f"{c.name}-{c.base.alphabet.name}",
)
def test_symbol_images_match_the_unpack_route(code):
    """The image of every packed block, from itertools.product of the
    symbols read backwards, equals the symbol map of the block's fields
    as _unpack reads them, lowest first."""
    base, width, images = code._symbol_images()
    symbols = list(base.alphabet)
    dim = base.alphabet.dim
    assert width == dim * code.block
    assert images == [
        code.symbol_map(*outer_codes._unpack(v, dim, code.block, symbols)) for v in range(1 << width)
    ]


def _recorded_units(monkeypatch, kept_units=outer_codes._kept_units):
    """The unit sets U that min_distance keeps, as sets of unit masks (the
    entry u * 1 of each multiplication-table row), or None for U = {1} of a
    matrix alphabet."""
    kept = []

    def recorded(alphabet, table, bits):
        rows = kept_units(alphabet, table, bits)
        kept.append(None if rows == [range(alphabet.size)] else {row[1] for row in rows})
        return rows

    monkeypatch.setattr(outer_codes, "_kept_units", recorded)
    return kept


def _brute_units(code, kind):
    """The units u of the base ring for which every block (a Lee pair of
    mapped blocks, else one mapped block) weighs as much as u times it,
    through the public u * x, the symbol map and word_weight."""
    base = code.base if isinstance(code, MappedCode) else code
    if not isinstance(base.alphabet, QuotientRing):
        return None
    block, symbol_map = (code.block, code.symbol_map) if isinstance(code, MappedCode) else (1, None)
    count = block * (2 if kind is WeightKind.LEE else 1)

    def weigh(symbols):
        if symbol_map is not None:
            symbols = [symbol_map(*symbols[j : j + block]) for j in range(0, count, block)]
        return word_weight(symbols, kind)

    blocks = [(b, weigh(b)) for b in itertools.product(base.alphabet, repeat=count)]
    return {
        u.mask for u in base.alphabet.units if all(weigh([u * x for x in b]) == w for b, w in blocks)
    }


def _low_then_high(lo, hi):
    """Two f4 symbols to M2(F2): pair_to_matrix(hi, hi) at hi = 1,
    pair_to_matrix(hi, 0) at hi = w, w^2, and pair_to_matrix(lo, 0) where
    hi is 0.  The Bachoc weight reads lo only as zero or not, so scaling lo
    alone keeps it, but scaling hi moves the weight 2 at hi = 1 to 1."""
    if hi.is_zero:
        return pair_to_matrix(lo, F4.zero)
    return pair_to_matrix(hi, hi if hi == F4.one else F4.zero)


def _named_variants():
    """Every named code (repetition and parity also over each ring) with
    each transform it admits; rs16_13 and rs16_14 are refused by
    min_distance, so they drop out of the kind loop."""
    codes = [named_code(name) for name in ("dualrep", "hexacode", "rs16_13", "rs16_14", "inner_pair")]
    codes += [named_code(name) for name in ("repetition", "parity", "matrix_parity")]
    codes += [named_code(name, ring_name=r) for name in ("repetition", "parity") for r in RING_BY_NAME]
    variants = []
    for code in codes:
        variants.append((f"{code.name}-{code.alphabet.name}", code))
        if code.alphabet in (F4, F4I):
            variants.append((f"lift-{code.name}-{code.alphabet.name}", lift_code(code)))
            if code.L % 2 == 0:
                variants.append((f"pairs-{code.name}-{code.alphabet.name}", pushforward_pairs(code)))
    return variants


def _top_decides(*symbols):
    """Five f4 symbols (a 10-bit block) to M2(F2) as _low_then_high of
    (the first nonzero of the low four, the top one): the top symbol lies
    above the byte of low fields, and scaling it alone can move the weight."""
    return _low_then_high(next((x for x in symbols[:-1] if x), F4.zero), symbols[-1])


UNIT_CODES = _named_variants() + [
    (c.name, c)
    for c in (
        MappedCode(repetition_code(2, F4), MatrixSpace(F2, 2), 2, _low_then_high, name="low-high"),
        LAYOUT_CODES[3],
        _wide(repetition_code(10, F4)),
        MappedCode(repetition_code(5, F4), MatrixSpace(F2, 2), 5, _top_decides, name="top-decides"),
        MappedCode(repetition_code(3, F8), MatrixSpace(F2I, 2), 3, _fold_to_m2f2i, name="f8-triples"),
    )
]


@pytest.mark.parametrize("code", [c for _, c in UNIT_CODES], ids=[n for n, _ in UNIT_CODES])
def test_kept_units_are_the_brute_force_unit_set(monkeypatch, code):
    """For every kind min_distance accepts on the code, the U it keeps is
    the set of units that keep every block's weight: every named code with
    each transform, and hand-built blocks of 4, 6, 9 and 10 bits, the last
    two wider than a byte."""
    kept = _recorded_units(monkeypatch)
    for kind in WeightKind:
        kept.clear()
        try:
            min_distance(code, kind)
        except ValueError:
            assert not kept  # refused before U is formed
            continue
        assert kept == [_brute_units(code, kind)], kind


def test_kept_units_read_every_field_of_a_block(monkeypatch):
    """A unit check whose action reads only the low field of a two-field
    block (planted here as a one-field block width) keeps w and w^2 of F4,
    which change the Bachoc weight of (0, 1); the search then visits only
    message 1, and the distance would read 2 instead of 1."""
    code = MappedCode(repetition_code(2, F4), MatrixSpace(F2, 2), 2, _low_then_high, name="planted")
    assert sorted(
        word_weight(w, WeightKind.BACHOC) for w in code.codewords() if word_weight(w, WeightKind.HAMMING)
    ) == [1, 1, 2]
    assert _brute_units(code, WeightKind.BACHOC) == {1}
    kept_units = outer_codes._kept_units
    kept = _recorded_units(monkeypatch)
    assert min_distance(code, WeightKind.BACHOC) == 1
    assert kept == [{1}]

    def low_field_only(alphabet, table, bits):
        return kept_units(alphabet, table, alphabet.dim)

    kept = _recorded_units(monkeypatch, low_field_only)
    assert min_distance(code, WeightKind.BACHOC) == 2
    assert kept == [{1, 2, 3}]


def _tested_units(monkeypatch):
    """The unit masks that _kept_units tests, in order: each test builds
    one run of byte lanes whose lowest field is the unit's row, u * 1 at
    index 1."""
    tested = []
    lanes = outer_codes._lanes

    def recorded(tables, size):
        tested.append(tables[-1][1])
        return lanes(tables, size)

    monkeypatch.setattr(outer_codes, "_lanes", recorded)
    return tested


def _subgroup(ring, *generators):
    """The masks of the unit subgroup that generators span, by closure
    under the public product."""
    group = {ring.one}
    while True:
        grown = group | {g * h for g in generators for h in group}
        if grown == group:
            return {h.mask for h in group}
        group = grown


def _orbit_table(ring, subgroup, fields):
    """A weight table of ``fields``-symbol blocks (lowest symbol in the low
    bits) that is kept by exactly the units in ``subgroup``: a symbol
    weighs the least mask of its orbit under the subgroup, and a block the
    weight of its top symbol times 16 plus that of its lowest (a middle
    symbol is not read)."""
    orbit = [min(ring._mul[h][x] for h in subgroup) for x in range(ring.size)]
    top, mask = ring.dim * (fields - 1), ring.size - 1
    return [orbit[v >> top] * 16 * (fields > 1) + orbit[v & mask] for v in range(1 << ring.dim * fields)]


def _brute_kept(ring, table, fields):
    """The units u with table[u * v] == table[v] for every block v, through
    the public u * x of each symbol."""
    def pack(block):
        return sum(x.mask << ring.dim * j for j, x in enumerate(block))

    blocks = [(pack(b), b) for b in itertools.product(ring, repeat=fields)]
    return {u.mask for u in ring.units if all(table[pack([u * x for x in b])] == table[v] for v, b in blocks)}


_X16, _I, _W = F16.elements[2], F4I.gen_i, F4I.gen_w
SUBGROUPS = [  # (name, ring, generators, order of the subgroup, units tested)
    ("f16-order5", F16, (_X16**3,), 5, 7),
    ("f16-order3", F16, (_X16**5,), 3, 5),
    ("f16-order1", F16, (), 1, 14),
    ("f4i-order2", F4I, (_I,), 2, 6),
    ("f4i-order3", F4I, (_W,), 3, 4),
    ("f4i-order4", F4I, (_I, F4I.one + _W * (F4I.one + _I)), 4, 6),
    ("f4i-order6", F4I, (_I, _W), 6, 3),
    ("f4i-order1", F4I, (), 1, 11),
]


@pytest.mark.parametrize("fields", [1, 2, 3])
@pytest.mark.parametrize("ring,generators,order,tests", [s[1:] for s in SUBGROUPS], ids=[s[0] for s in SUBGROUPS])
def test_kept_units_decide_proper_subgroups_by_cosets(monkeypatch, ring, generators, order, tests, fields):
    """Weight tables whose U is a proper subgroup H of the unit group, in
    blocks of one, two and three symbols (the last wider than a byte): U
    is the per-unit set and its rows come in ``ring.units`` order.  No
    unit is tested once it is decided: in the group spanned by the units
    kept so far, or in its coset m H for a unit m that failed."""
    subgroup = _subgroup(ring, *generators)
    assert len(subgroup) == order
    table = _orbit_table(ring, subgroup, fields)
    assert _brute_kept(ring, table, fields) == subgroup
    tested = _tested_units(monkeypatch)
    rows = outer_codes._kept_units(ring, table, ring.dim * fields)
    assert rows == [ring._mul[u.mask] for u in ring.units if u.mask in subgroup]
    for n, u in enumerate(tested):
        before = [ring.elements[m] for m in tested[:n]]
        known = _subgroup(ring, *[m for m in before if m.mask in subgroup])
        ruled_out = {(m * ring.elements[h]).mask for m in before if m.mask not in subgroup for h in known}
        assert u not in known | ruled_out, (tested, n)
    assert len(tested) == tests


PROPERTY_ALPHABETS = [*RING_BY_NAME.values(), MatrixSpace(F2, 2), MatrixSpace(F2I, 2)]


@st.composite
def _random_codes(draw):
    """Random generator rows over one alphabet, at most 4096 messages."""
    alphabet = draw(st.sampled_from(PROPERTY_ALPHABETS))
    k = draw(st.integers(0, int(math.log(4096, alphabet.size) + 1e-9)))
    L = draw(st.integers(1, 6))
    index = st.integers(0, alphabet.size - 1)
    rows = draw(st.lists(st.lists(index, min_size=L, max_size=L), min_size=k, max_size=k))
    rows = tuple(tuple(map(alphabet.element, row)) for row in rows)
    return LinearCode(alphabet, L, k, rows, name="drawn")


@seed(20240)
@settings(max_examples=200, deadline=None, database=None)
@given(_random_codes())
def test_min_distance_is_the_codeword_minimum_on_random_codes(code):
    """For every transform the code admits and every weight kind."""
    variants = [code]
    if code.alphabet in (F4, F4I):
        variants.append(lift_code(code))
        if code.L % 2 == 0:
            variants.append(pushforward_pairs(code))
    for variant in variants:
        words = list(variant.codewords())
        for kind in WeightKind:
            try:
                want = _brute_min_distance(words, kind)
            except ValueError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    min_distance(variant, kind)
            else:
                assert min_distance(variant, kind) == want, (variant, kind)


@pytest.mark.parametrize(
    "name, ring_name",
    [("parity", "f4i"), ("repetition", "f4i"), ("inner_pair", None)],
)
def test_lee_weight_gives_no_distance_on_f4i_linear_codes(name, ring_name):
    """For a codeword c, (1+i)c is a codeword whose coordinates all have
    norm N(1+i)N(x) = 0, so Lee weight 0; where (1+i)c = 0, every coordinate
    of c is a multiple of 1+i, and c has Lee weight 0 itself.  So some
    nonzero codeword weighs 0 and the Lee distance is 0."""
    code = named_code(name, ring_name=ring_name) if ring_name else named_code(name)
    one_plus_i = F4I.parse("1+i")
    zero = (F4I.zero,) * code.L
    words = set(code.codewords())
    for c in words:
        scaled = tuple(one_plus_i * x for x in c)
        assert scaled in words
        assert lee_word_weight(scaled) == 0
        if scaled == zero:
            assert lee_word_weight(c) == 0
    assert any(c != zero and lee_word_weight(c) == 0 for c in words)
    assert min_distance(code, WeightKind.LEE) == 0


# ----------------------------------------------------------------------
# lane blocks: many words weighed per call


def test_min_distance_spans_several_lane_blocks(monkeypatch):
    """RS[16,5] is MDS, so d = 16 - 5 + 1 = 12.  Its first row's words come
    in 16 blocks of 4096, one per prefix over the first two rows."""
    blocks = _recorded_blocks(monkeypatch)
    assert min_distance(reed_solomon_code(5)) == 12
    assert [count for count, _ in blocks] == [4096] * 17 + [256, 16, 1]


def _doubled_inner_pair():
    """inner_pair with its row (0, 1+i) twice: after a head h(0, 1+i), the
    lanes add a(0, 1+i), and the word is zero wherever (h + a)(1+i) = 0."""
    code = inner_parity_pair_code()
    return dataclasses.replace(code, k=3, rows=code.rows + code.rows[1:], name="inner-pair2")


def test_lane_blocks_skip_zero_words(monkeypatch):
    """Zero words inside a lane block weigh 0 but are no distance.  A route
    that drops the zero-word check (planted here by counting every byte as
    nonzero) reads 0."""
    code = _doubled_inner_pair()
    want = _brute_min_distance(list(code.codewords()), WeightKind.HAMMING)
    assert want == min_distance(code) == 1
    assert min_distance(inner_parity_pair_code()) == 1
    monkeypatch.setattr(outer_codes, "_NONZERO", bytes([1]) * 256)
    assert min_distance(code) == 0


def test_lane_blocks_keep_nonzero_words_of_lee_weight_zero(monkeypatch):
    """Nonzero words whose coordinates are multiples of 1+i weigh 0 under
    Lee; a lane block that holds them reads 0."""
    blocks = _recorded_blocks(monkeypatch)
    code = parity_check_code(4, F4I)
    assert _brute_min_distance(list(code.codewords()), WeightKind.LEE) == 0
    assert min_distance(code, WeightKind.LEE) == 0
    assert any(count > 1 and least == 0 for count, least in blocks)


def test_lane_blocks_weigh_spread_f8_fields(monkeypatch):
    """3-bit f8 symbols in 4-bit fields: a parity code has d = 2."""
    blocks = _recorded_blocks(monkeypatch)
    assert min_distance(parity_check_code(6, F8)) == 2
    assert max(count for count, _ in blocks) == 4096


def _heavy_code(L):
    """Rows all-ones and all-ones but the last over f16: the words after
    head 1 weigh L, except (0, ..., 0, 1), which weighs 1."""
    one = (F16.one,) * L
    return LinearCode(F16, L, 2, (one, one[:-1] + (F16.zero,)), name=f"heavy{L}")


@pytest.mark.parametrize("L", [255, 256])
def test_lane_sums_stop_below_256(monkeypatch, L):
    """A lane sum must fit in its byte: words of weight 255 share a block,
    words that may weigh 256 are weighed one at a time (a sum of 256 would
    read 0 and carry into the next lane)."""
    assert min_distance(repetition_code(L, F16)) == L
    blocks = _recorded_blocks(monkeypatch)
    code = _heavy_code(L)
    assert min_distance(code) == 1 == _brute_min_distance(list(code.codewords()), WeightKind.HAMMING)
    assert max(count for count, _ in blocks) == (16 if L == 255 else 1)


def test_wide_parity_image_has_distance_1():
    """The [10,9] parity code's image in 10-bit blocks reads 1: the word
    (1, 1, 0, ..., 0) has a zero second block, and every nonzero word has a
    nonzero block (the brute minimum over its 4^9 words takes ~1 s)."""
    code = _wide(parity_check_code(10, F4))
    witness = code.base.encode([F4.one, F4.one] + [F4.zero] * 7)
    folded = [_fold_to_m2f2i(*witness[:5]), _fold_to_m2f2i(*witness[5:])]
    assert word_weight(folded, WeightKind.HAMMING) == 1
    assert min_distance(code) == 1
