from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from cosetcodes import outer_codes
from cosetcodes.cyclic import multiplication_matrix, pair_to_matrix
from cosetcodes.matrices import RingMatrix
from cosetcodes.outer_codes import (
    LinearCode,
    MatrixSpace,
    WeightKind,
    bachoc_weight,
    bachoc_word_weight,
    dual_repetition_code,
    dump_code,
    hamming_weight,
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
from cosetcodes.rings import F2, F2I, F4, F4I, F16, RING_BY_NAME


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
    assert bachoc_word_weight(word) == 3
    assert hamming_weight(word) == 2


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


def test_matrix_parity_code_is_repetition_at_length_2():
    mp = matrix_parity_code(2)
    words = set(mp.codewords())
    assert words == {(m, m) for m in MatrixSpace(F2, 2)}


def test_named_code_registry():
    assert named_code("dualrep").name == "dualrep[4,3,2]"
    assert named_code("hexacode").L == 6
    assert named_code("rs16_13").k == 13
    assert named_code("repetition", L=3, ring_name="f4").L == 3
    with pytest.raises(ValueError):
        named_code("nosuch")


def test_dump_load_round_trip():
    for code in (dual_repetition_code(), hexacode()):
        text = dump_code(code)
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
    """A row table is the XOR span of the products by the 4 one-bit symbols
    of M2(F2), so the search makes 4 matrix products per generator entry,
    not one per alphabet symbol (16)."""
    calls = 0
    product = RingMatrix.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return product(self, other)

    monkeypatch.setattr(RingMatrix, "__mul__", counted)
    assert min_distance(repetition_code(50, MatrixSpace(F2, 2))) == 50
    assert calls <= 4 * 50


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
