"""Outer codes over the finite rings and their matrix-alphabet images.

A :class:`LinearCode` is given by ``k`` generator rows of length ``L`` over a
ring alphabet; codewords are all message combinations ``sum m_i * row_i``.
Over the non-field rings the generated module need not be free, so the
codeword iterator may visit a word more than once — harmless for minimum
weights, which is all it feeds.

Two wrappers move a code into a matrix alphabet:

* :func:`lift_code` replaces each symbol x by its multiplication matrix M_x
  (same length, weight-preserving: M_x = 0 iff x = 0);
* :func:`pushforward_pairs` replaces consecutive symbol pairs by their 2x2
  image under the twisted pair model, halving the length.

Weights:

* Hamming — number of nonzero symbols;
* Bachoc — per 2x2 binary matrix: 0 for zero, 1 for invertible, 2 for the
  rest; designed so that the pushforward of the pair model is an isometry
  from F4-Hamming weight;
* Lee — per consecutive pair over F4[i]: |lift(N(x)) + lift(N(y))|^2 with the
  relative norms lifted from F2[i] = {0,1,i,1+i} into Z[i].  Values realized
  on norm pairs: one unit and one non-unit gives 1, two units give 2 or 4,
  two non-units give 0.

Named codes used by the certification suite: the [4,3,2] dual-repetition and
[6,3,4] hexacode over F4 with fixed generator rows, repetition and
single-parity codes over arbitrary alphabets, extended Reed-Solomon codes of
length 16 over the genuine field F16 (distance certified by parity-check
column independence, not assumed), and the two-symbol inner parity code over
F4[i] whose 64 members satisfy x + y in (1+i)F4[i].

Enumeration works on packed words.  A symbol packs into ``alphabet.dim``
bits (its F2-dimension: ``ring.dim``, or ``n*n*ring.dim`` for M_n(ring)) as
its index in the alphabet's enumeration order, and symbol j of a word sits at
bits ``dim*j``; every alphabet here has characteristic 2, so adding words is
XOR of their packings.  Each call first tabulates ``scaled[i][a]``, the
packed word ``a * row_i``, with the public ring or matrix product; a codeword
is then the XOR of one entry per row, visited in ``itertools.product``
message order.  :func:`min_distance` scores a packed word by table lookups,
one per block: one symbol for Hamming and Bachoc weights, a pair for Lee,
and the map's block for a :class:`MappedCode` (one symbol for the lift, a
pair for the pushforward).  Each table is filled by running the public map
and weight functions once per block value, so the weights keep a single
definition.  ``codewords()`` unpacks the same words into symbol tuples.
:meth:`LinearCode.encode` keeps the object route, one multiply-add per
symbol, so that tests can check the packed route against it.  Tables live
only inside one call.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .cyclic import multiplication_matrix, pair_to_matrix
from .matrices import ENUMERATION_LIMIT, RingMatrix
from .rings import F2, F4, F4I, F16, QuotientRing, RingElement, get_ring, quadratic_norm

# Message spaces larger than this are refused by the exhaustive searches.
MESSAGE_SPACE_LIMIT = 2**24


class MatrixSpace:
    """The alphabet M_n(ring), quacking enough like a ring for code use."""

    def __init__(self, ring: QuotientRing, n: int):
        self.ring = ring
        self.n = n
        self.name = f"m{n}{ring.name}"
        self.zero = RingMatrix.zeros(ring, n)
        self.one = RingMatrix.identity(ring, n)
        self.dim = n * n * ring.dim
        self.size = ring.size ** (n * n)

    def __iter__(self) -> Iterator[RingMatrix]:
        from .matrices import all_matrices

        return all_matrices(self.ring, self.n)

    def element(self, index: int) -> RingMatrix:
        """The matrix at ``index`` in enumeration order, whose entry masks
        are the big-endian ``ring.dim``-bit digits of index."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} is not an element of {self.name}")
        width, n = self.ring.dim, self.n
        digits = [
            index >> width * (n * n - 1 - t) & ((1 << width) - 1) for t in range(n * n)
        ]
        return RingMatrix.from_masks(self.ring, [digits[r * n : (r + 1) * n] for r in range(n)])

    def __repr__(self) -> str:
        return f"<matrix alphabet {self.name}, {self.size} elements>"


Alphabet = QuotientRing | MatrixSpace
Symbol = RingElement | RingMatrix


@dataclass(frozen=True)
class LinearCode:
    """A length-L code spanned by k generator rows over one alphabet."""

    alphabet: Alphabet
    L: int
    k: int
    rows: tuple[tuple[Symbol, ...], ...]
    name: str = ""
    parity_rows: tuple[tuple[Symbol, ...], ...] = field(default=())

    def __post_init__(self):
        if len(self.rows) != self.k:
            raise ValueError(f"expected {self.k} generator rows, got {len(self.rows)}")
        for row in self.rows + self.parity_rows:
            if len(row) != self.L:
                raise ValueError("generator/parity row length does not match L")

    @property
    def message_space_size(self) -> int:
        return self.alphabet.size ** self.k

    def encode(self, message: Sequence[Symbol]) -> tuple[Symbol, ...]:
        if len(message) != self.k:
            raise ValueError(f"message must have {self.k} symbols")
        word = [self.alphabet.zero] * self.L
        for m, row in zip(message, self.rows):
            for j, g in enumerate(row):
                word[j] = word[j] + m * g
        return tuple(word)

    def codewords(self) -> Iterator[tuple[Symbol, ...]]:
        """All encodings of all messages (may repeat words over non-fields)."""
        return _codewords(self)

    def _symbol_images(self) -> tuple[LinearCode, int, list[Symbol]]:
        return self, self.alphabet.dim, list(self.alphabet)

    def contains(self, word: Sequence[Symbol]) -> bool:
        word = tuple(word)
        return any(cw == word for cw in self.codewords())

    def check_parity(self, word: Sequence[Symbol]) -> bool:
        """True iff word * H^T = 0 for the stored parity rows."""
        for h in self.parity_rows:
            acc = self.alphabet.zero
            for x, hj in zip(word, h):
                acc = acc + x * hj
            if not acc.is_zero:
                return False
        return True

    def __repr__(self) -> str:
        label = self.name or "code"
        return f"<{label}: [{self.L},{self.k}] over {self.alphabet.name}>"


@dataclass(frozen=True)
class MappedCode:
    """A code whose blocks of ``block`` consecutive symbols each map to one
    symbol of a matrix alphabet.  ``symbol_map`` takes the ``block`` symbols
    as arguments and sends only the zero block to zero."""

    base: LinearCode
    alphabet: Alphabet
    block: int
    symbol_map: Callable[..., Symbol]
    name: str = ""

    @property
    def L(self) -> int:
        return self.base.L // self.block

    @property
    def message_space_size(self) -> int:
        return self.base.message_space_size

    def codewords(self) -> Iterator[tuple[Symbol, ...]]:
        return _codewords(self)

    def _symbol_images(self) -> tuple[LinearCode, int, list[Symbol]]:
        """(base code, bits per block, the image of every packed block)."""
        base, width, symbols = self.base._symbol_images()
        images = [
            self.symbol_map(*_unpack(v, width, self.block, symbols))
            for v in range(1 << (width * self.block))
        ]
        return base, width * self.block, images

    def __repr__(self) -> str:
        return f"<{self.name or 'mapped code'}: length {self.L} over {self.alphabet.name}>"


def _pair_target(code: LinearCode) -> MatrixSpace:
    """M2 over the base ring of a code over a quadratic extension (f4, f4i)."""
    if code.alphabet is not F4 and code.alphabet is not F4I:
        raise ValueError(
            f"lift and pairs need a code over f4 or f4i, not {code.alphabet.name}"
        )
    return MatrixSpace(code.alphabet.subring, 2)


def lift_code(code: LinearCode) -> MappedCode:
    """Componentwise x -> M_x (multiplication matrix); length preserved."""
    return MappedCode(
        base=code,
        alphabet=_pair_target(code),
        block=1,
        symbol_map=multiplication_matrix,
        name=f"lift({code.name})" if code.name else "lifted code",
    )


def pushforward_pairs(code: LinearCode) -> MappedCode:
    """Consecutive pairs (c_1,c_2),(c_3,c_4),... -> 2x2 matrices; L halves."""
    target = _pair_target(code)
    if code.L % 2:
        raise ValueError("pair pushforward needs even length")
    return MappedCode(
        base=code,
        alphabet=target,
        block=2,
        symbol_map=pair_to_matrix,
        name=f"pairs({code.name})" if code.name else "pair pushforward",
    )


# ----------------------------------------------------------------------
# packed enumeration

def _pack(x: Symbol) -> int:
    """The index of x in its alphabet's enumeration order: a ring element's
    mask, or a matrix's entry masks read as big-endian digits."""
    if isinstance(x, RingElement):
        return x.mask
    width = x.ring.dim
    packed = 0
    for m in x.masks:
        packed = (packed << width) | m
    return packed


def _unpack(word: int, width: int, count: int, table: Sequence) -> list:
    """The table entries of the first ``count`` width-bit fields of word,
    lowest first.  A shift copies the whole int, so a long word is halved
    first; peeling its fields one by one would be quadratic in its length."""
    if count > 64:
        half = count // 2
        low = word & ((1 << half * width) - 1)
        high = word >> half * width
        return _unpack(low, width, half, table) + _unpack(high, width, count - half, table)
    mask = (1 << width) - 1
    return [table[(word >> s) & mask] for s in range(0, width * count, width)]


def _scaled_rows(code: LinearCode) -> list[list[int]]:
    """scaled[i][a]: the packed word a * row_i, for every alphabet symbol a.

    Packing is F2-linear and a -> a * g is additive, so each table is the
    XOR span of the products by the ``dim`` one-bit symbols, built in index
    order.  A product is read from a binary string so that packing stays
    linear in the length."""
    dim = code.alphabet.dim
    fmt = f"0{dim}b"
    symbols = [code.alphabet.element(1 << bit) for bit in range(dim)]
    scaled = []
    for row in code.rows:
        table = [0]
        for a in symbols:
            v = int("0" + "".join(format(_pack(a * g), fmt) for g in reversed(row)), 2)
            table += [t ^ v for t in table]
        scaled.append(table)
    return scaled


def _packed_words(scaled: list[list[int]]) -> Iterator[int]:
    """Every codeword, one entry of each row table XORed, in message order."""
    *head, last = scaled or [[0]]  # k = 0: the empty message, the zero word
    for parts in itertools.product(*head):
        prefix = functools.reduce(operator.xor, parts, 0)
        for s in last:
            yield prefix ^ s


def _codewords(code: LinearCode | MappedCode) -> Iterator[tuple[Symbol, ...]]:
    base, width, images = code._symbol_images()
    if base.message_space_size > MESSAGE_SPACE_LIMIT:
        raise ValueError(
            f"message space of {base.name or 'code'} has "
            f"{base.message_space_size} elements, over the limit"
        )
    for word in _packed_words(_scaled_rows(base)):
        yield tuple(_unpack(word, width, code.L, images))


# ----------------------------------------------------------------------
# weights

class WeightKind(Enum):
    HAMMING = "hamming"
    BACHOC = "bachoc"
    LEE = "lee"


def hamming_weight(word: Iterable[Symbol]) -> int:
    return sum(1 for x in word if not x.is_zero)


def bachoc_weight(m: RingMatrix) -> int:
    """0 for the zero matrix, 1 for invertible, 2 for nonzero singular.

    Defined on 2x2 matrices over F2 (the pair-model alphabet)."""
    if not isinstance(m, RingMatrix) or m.ring is not F2 or m.n != 2:
        raise ValueError("bachoc weight is defined on 2x2 matrices over f2")
    if m.is_zero:
        return 0
    if m.is_invertible:
        return 1
    return 2


def bachoc_word_weight(word: Iterable[RingMatrix]) -> int:
    return sum(bachoc_weight(m) for m in word)


_NORM_LIFT = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}  # F2I mask -> Z[i]


def lee_weight(x: RingElement, y: RingElement) -> int:
    """|lift(N(x)) + lift(N(y))|^2 for a pair over F4[i]."""
    if x.ring is not F4I or y.ring is not F4I:
        raise ValueError("lee weight is defined on pairs over f4i")
    nx = quadratic_norm(x)
    ny = quadratic_norm(y)
    xr, xi = _NORM_LIFT[nx.mask]
    yr, yi = _NORM_LIFT[ny.mask]
    return (xr + yr) ** 2 + (xi + yi) ** 2


def lee_word_weight(word: Sequence[RingElement]) -> int:
    if len(word) % 2:
        raise ValueError("lee weight needs an even-length word")
    return sum(lee_weight(word[2 * j], word[2 * j + 1]) for j in range(len(word) // 2))


def word_weight(word: Sequence[Symbol], kind: WeightKind) -> int:
    if kind is WeightKind.HAMMING:
        return hamming_weight(word)
    if kind is WeightKind.BACHOC:
        return bachoc_word_weight(word)
    return lee_word_weight(word)


def min_distance(code: LinearCode | MappedCode, kind: WeightKind = WeightKind.HAMMING) -> int:
    """Minimum weight over nonzero codewords (= distance, by linearity)."""
    if code.message_space_size > MESSAGE_SPACE_LIMIT:
        raise ValueError("message space too large for exhaustive distance search")
    base, width, images = code._symbol_images()
    scaled = _scaled_rows(base)
    if not any(map(any, scaled)):
        raise ValueError("code has no nonzero codeword")
    # Weights are undefined by alphabet or length, never by value: the zero
    # word raises the weight's own error wherever kind does not apply.
    word_weight((code.alphabet.zero,) * code.L, kind)
    group = 2 if kind is WeightKind.LEE else 1
    table = [
        word_weight(_unpack(v, width, group, images), kind)
        for v in range(1 << (width * group))
    ]
    blocks = code.L // group
    return min(
        sum(_unpack(word, width * group, blocks, table))
        for word in _packed_words(scaled)
        if word
    )


# ----------------------------------------------------------------------
# named codes

def _rows(ring: QuotientRing, entries: Sequence[Sequence[str]]) -> tuple[tuple[RingElement, ...], ...]:
    return tuple(tuple(ring.parse(e) for e in row) for row in entries)


def _check_generator_size(kind: str, L: int, k: int) -> None:
    """Refuse a k x L generator over the enumeration limit before building it."""
    if k * L > ENUMERATION_LIMIT:
        raise ValueError(
            f"a {kind} code of length {L} has {k * L} generator entries, "
            f"over the enumeration limit {ENUMERATION_LIMIT}"
        )


def repetition_code(L: int, alphabet: Alphabet) -> LinearCode:
    if L < 1:
        raise ValueError(f"a repetition code needs length L >= 1, got {L}")
    _check_generator_size("repetition", L, 1)
    return LinearCode(
        alphabet=alphabet,
        L=L,
        k=1,
        rows=(tuple(alphabet.one for _ in range(L)),),
        name=f"repetition[{L}]",
    )


def parity_check_code(L: int, alphabet: Alphabet) -> LinearCode:
    """[L, L-1, 2]: codewords (x_1, ..., x_{L-1}, x_1 + ... + x_{L-1})."""
    if L < 2:
        raise ValueError(f"a parity-check code needs length L >= 2, got {L}")
    _check_generator_size("parity-check", L, L - 1)
    rows = []
    for r in range(L - 1):
        row = [alphabet.zero] * L
        row[r] = alphabet.one
        row[L - 1] = alphabet.one
        rows.append(tuple(row))
    parity = (tuple(alphabet.one for _ in range(L)),)
    return LinearCode(
        alphabet=alphabet,
        L=L,
        k=L - 1,
        rows=tuple(rows),
        parity_rows=parity,
        name=f"parity[{L}]",
    )


def dual_repetition_code() -> LinearCode:
    """The [4,3,2] code over F4: (x1+x2+x3, x1, x2, x3)."""
    ring = F4
    rows = _rows(
        ring,
        [
            ["1", "1", "0", "0"],
            ["1", "0", "1", "0"],
            ["1", "0", "0", "1"],
        ],
    )
    return LinearCode(alphabet=ring, L=4, k=3, rows=rows, name="dualrep[4,3,2]")


def hexacode() -> LinearCode:
    """The [6,3,4] hexacode over F4 with its standard generator."""
    ring = F4
    rows = _rows(
        ring,
        [
            ["1", "0", "0", "1", "w", "w"],
            ["0", "1", "0", "w", "1", "w"],
            ["0", "0", "1", "w", "w", "1"],
        ],
    )
    return LinearCode(alphabet=ring, L=6, k=3, rows=rows, name="hexacode[6,3,4]")


def matrix_parity_code(L: int) -> LinearCode:
    """Single-parity code over the alphabet M2(F2); for L = 2 this is the
    repetition code {(X, X)}."""
    return parity_check_code(L, MatrixSpace(F2, 2))


def reed_solomon_code(k: int) -> LinearCode:
    """Extended Reed-Solomon [16, k, 17-k] over F16.

    Evaluation code of polynomials of degree < k at all 16 points of F16, in
    the ring's enumeration order.  Parity rows are the Vandermonde power rows
    used by the distance certificate.
    """
    if not 1 <= k <= 16:
        raise ValueError("need 1 <= k <= 16")
    points = F16.elements
    rows = tuple(tuple(p**deg for p in points) for deg in range(k))
    parity = tuple(tuple(p**m for p in points) for m in range(16 - k))
    return LinearCode(
        alphabet=F16, L=16, k=k, rows=rows, parity_rows=parity, name=f"rs[16,{k}]"
    )


def rs_distance_certificate(code: LinearCode) -> int:
    """Certify d = L - k + 1 for an extended RS evaluation code.

    First verifies G * H^T = 0 (H really is a parity check), then that every
    set of (L - k) parity-check columns is linearly independent (Vandermonde
    minors are invertible), which forces every nonzero codeword to have
    weight > L - k; with the Singleton bound d <= L - k + 1 this pins d
    exactly.  Returns the certified distance.
    """
    r = code.L - code.k
    if r == 0:
        return 1
    if not all(code.check_parity(g) for g in code.rows):
        raise ArithmeticError(f"{code.name}: stored parity rows do not check G")
    cols = [tuple(code.parity_rows[m][j] for m in range(r)) for j in range(code.L)]
    for subset in itertools.combinations(range(code.L), r):
        minor = RingMatrix(
            code.alphabet, [[cols[j][m] for j in subset] for m in range(r)]
        )
        if not minor.is_invertible:
            raise ArithmeticError(
                f"parity columns {subset} of {code.name} are dependent"
            )
    return r + 1


def inner_parity_pair_code() -> LinearCode:
    """The 64-member pair code over F4[i] with parity (1+i)(x + y) = 0.

    Generator [[1, 1], [0, 1+i]]: members are (m1, m1 + m2*(1+i)); as m2
    runs over F4[i] the offset runs over the four multiples of (1+i), so the
    256 messages cover each of the 64 distinct members four times.
    """
    ring = F4I
    one_plus_i = ring.parse("1+i")
    rows = (
        (ring.one, ring.one),
        (ring.zero, one_plus_i),
    )
    parity = ((one_plus_i, one_plus_i),)
    return LinearCode(
        alphabet=ring, L=2, k=2, rows=rows, parity_rows=parity, name="inner-parity[2]"
    )


def named_code(name: str, L: int | None = None, ring_name: str | None = None) -> LinearCode:
    """CLI registry.  Parameterized names take --L / --ring where sensible."""
    if name == "dualrep":
        return dual_repetition_code()
    if name == "hexacode":
        return hexacode()
    if name == "rs16_13":
        return reed_solomon_code(13)
    if name == "rs16_14":
        return reed_solomon_code(14)
    if name == "inner_pair":
        return inner_parity_pair_code()
    if name == "repetition":
        alphabet = get_ring(ring_name) if ring_name else MatrixSpace(F2, 2)
        return repetition_code(2 if L is None else L, alphabet)
    if name == "parity":
        alphabet = get_ring(ring_name) if ring_name else MatrixSpace(F2, 2)
        return parity_check_code(4 if L is None else L, alphabet)
    if name == "matrix_parity":
        return matrix_parity_code(2 if L is None else L)
    raise ValueError(
        f"unknown code {name!r}; known: dualrep, hexacode, rs16_13, rs16_14, "
        "inner_pair, repetition, parity, matrix_parity"
    )


# ----------------------------------------------------------------------
# code files ("ring L k" header, then k generator rows)

def load_code(text: str, name: str = "") -> LinearCode:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty code file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'ring L k', got {lines[0]!r}")
    ring = get_ring(header[0])
    L, k = int(header[1]), int(header[2])
    if L < 0 or k < 0:
        raise ValueError(f"header L and k must not be negative, got {lines[0]!r}")
    if len(lines) != 1 + k:
        raise ValueError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        symbols = ln.split()
        if len(symbols) != L:
            raise ValueError(f"row {ln!r} does not have {L} symbols")
        rows.append(tuple(ring.parse(s) for s in symbols))
    return LinearCode(
        alphabet=ring, L=L, k=k, rows=tuple(rows), name=name or "custom"
    )


def dump_code(code: LinearCode) -> str:
    if not isinstance(code.alphabet, QuotientRing):
        raise ValueError("only ring-alphabet codes have a file form")
    lines = [f"{code.alphabet.name} {code.L} {code.k}"]
    for row in code.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
