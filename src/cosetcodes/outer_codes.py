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

Enumeration works on packed words.  A symbol packs into ``alphabet.dim``
bits (``ring.dim``, or ``n*n*ring.dim`` for M_n(ring)) as its index in the
alphabet's enumeration order, symbol j of a word at bits ``dim*j``; every
alphabet has characteristic 2, so adding words is XOR.  Each call first
tabulates ``scaled[i][a]``, the packed word ``a * row_i``; a codeword is the
XOR of one entry per row.  g -> pack(a * g) is F2-linear, so the public
ring or matrix products of the one-bit symbols with each other, dim * dim
of them, fix every table: a row is packed once and each entry is an XOR
of shifted bit slices of it.  ``codewords()`` visits every message in
``itertools.product`` order and unpacks each word.  :func:`min_distance`
visits one nonzero message per orbit of the units that keep the weight.
Each weight kind has one block weight (a symbol's Hamming weight,
:func:`bachoc_weight`, :func:`lee_weight` on a pair) that weighs words
and, through the public map, fills the search's table of block weights
(a block is a symbol, a Lee pair or a map's block), so the weights keep a
single definition.  The units that keep the weight form a group, so they
are decided by cosets: a unit is tested only while neither it nor its
coset of the known subgroup is decided, its action on every block built as
byte lanes and checked against that table with ``bytes.translate``.  Each
search builds one lane block of the words of its last rows; the block of
any later rows is its low bytes.
:meth:`LinearCode.encode` keeps the object route so that tests can check
the packed route against it.  Tables live only inside one call.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .cyclic import multiplication_matrix, pair_to_matrix
from .matrices import ENUMERATION_LIMIT, RingMatrix, all_matrices
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
        return all_matrices(self.ring, self.n)

    def parse(self, text: str) -> RingMatrix:
        return RingMatrix._parse_n(self.ring, self.n, text)

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
        if base.L % self.block:
            raise ValueError(f"blocks of {self.block} symbols do not tile length {base.L}")
        images = [*itertools.starmap(self.symbol_map, _blocks(symbols, self.block))]
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


def _blocks(symbols: Sequence, count: int) -> Iterator[tuple]:
    """The ``count``-symbol blocks in packed order, each lowest symbol
    first: product varies its last symbol fastest, so each is read
    backwards."""
    return map(operator.itemgetter(slice(None, None, -1)), itertools.product(symbols, repeat=count))


def _scaled_rows(code: LinearCode, per: int = 1, pad: int = 0) -> list[list[int]]:
    """scaled[i][a]: the packed word a * row_i, for every alphabet symbol a,
    with ``pad`` zero bits on top of each block of ``per`` symbols.

    Packing is F2-linear and a -> a * g is additive, so each table is the
    XOR span of the words of the ``dim`` one-bit symbols a, built in index
    order.  g -> pack(a * g) is F2-linear too, fixed by the products a * e_t
    with the one-bit symbols e_t: a's word is the XOR of
    ``(P >> t & ones) << s`` over the bits s of pack(a * e_t), with P the
    row packed once (from a binary string, linear in the length) and
    ``ones`` 1 at every symbol's bit 0."""
    dim = code.alphabet.dim
    fmts = [f"0{dim + pad}b", *[f"0{dim}b"] * (per - 1)]  # a block's top symbol first

    def packed(masks: Sequence[int]) -> int:
        return int("0" + "".join(map(format, reversed(masks), itertools.cycle(fmts))), 2)

    basis = [code.alphabet.element(1 << bit) for bit in range(dim)]
    taps = []  # per one-bit symbol a, the (t, s) for which pack(a * e_t) has bit s
    for a in basis:
        images = [_pack(a * e) for e in basis]
        taps.append([(t, s) for t, image in enumerate(images) for s in range(dim) if image >> s & 1])
    ones = packed([1] * code.L)
    scaled = []
    for row in code.rows:
        p = packed([*map(_pack, row)])
        slices = [p >> t & ones for t in range(dim)]
        table = [0]
        for pairs in taps:
            v = functools.reduce(operator.xor, [slices[t] << s for t, s in pairs], 0)
            table += [w ^ v for w in table]
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


def _symbol_weight(x: Symbol) -> int:
    """A symbol's Hamming weight."""
    return 0 if x.is_zero else 1


def hamming_weight(word: Iterable[Symbol]) -> int:
    return word_weight(tuple(word), WeightKind.HAMMING)


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
    return word_weight(tuple(word), WeightKind.BACHOC)


_NORM_LIFT = ((0, 0), (1, 0), (0, 1), (1, 1))  # F2I mask -> Z[i]
# F4I mask -> lift(N(x)), read by lee_weight
_LIFTED_NORMS = [_NORM_LIFT[quadratic_norm(x).mask] for x in F4I.elements]


def lee_weight(x: RingElement, y: RingElement) -> int:
    """|lift(N(x)) + lift(N(y))|^2 for a pair over F4[i]."""
    if not (
        isinstance(x, RingElement) and x.ring is F4I and isinstance(y, RingElement) and y.ring is F4I
    ):
        raise ValueError("lee weight is defined on pairs over f4i")
    xr, xi = _LIFTED_NORMS[x.mask]
    yr, yi = _LIFTED_NORMS[y.mask]
    return (xr + yr) ** 2 + (xi + yi) ** 2


def lee_word_weight(word: Sequence[RingElement]) -> int:
    return word_weight(word, WeightKind.LEE)


# Each kind's block size (in symbols) and block weight: the one definition
# that words and min_distance's block tables are weighed by.
_BLOCK_WEIGHTS: dict[WeightKind, tuple[int, Callable[..., int]]] = {
    WeightKind.HAMMING: (1, _symbol_weight),
    WeightKind.BACHOC: (1, bachoc_weight),
    WeightKind.LEE: (2, lee_weight),
}


def word_weight(word: Sequence[Symbol], kind: WeightKind) -> int:
    """The sum of kind's block weight over the word's consecutive blocks."""
    group, weight = _BLOCK_WEIGHTS[kind]
    if len(word) % group:  # only Lee has blocks of more than one symbol: pairs
        raise ValueError(f"{kind.value} weight needs an even-length word")
    return sum(map(weight, *(word[s::group] for s in range(group))))


def min_distance(code: LinearCode | MappedCode, kind: WeightKind = WeightKind.HAMMING) -> int:
    """Minimum weight over nonzero codewords (= distance, by linearity).

    Exhaustive over unit orbits: a message is visited iff its first nonzero
    symbol is the least of its orbit under U, the units that keep every
    block's weight.  A nonzero message m has u in U taking that symbol to
    the least, so u*m is visited; its codeword u*c is nonzero iff c is, and
    has the weight of c.

    Blocks of at most 8 bits, spread if they do not tile a byte (3-bit f8
    symbols), are weighed a byte at a time by a 256-entry table, many words
    per call as lanes of one int.

    LEE gives 0 on every F4[i]-linear code: (1+i)c is a codeword whose
    coordinates have norm 0, and if (1+i)c = 0, c has only such coordinates."""
    if code.message_space_size > MESSAGE_SPACE_LIMIT:
        raise ValueError("message space too large for exhaustive distance search")
    base, width, images = code._symbol_images()
    group, weight = _BLOCK_WEIGHTS[kind]
    bits = width * group
    # A block fills a field of 1, 2, 4 or 8 bits; a wider one keeps its width.
    field = bits if bits > 8 else 1 << (bits - 1).bit_length()
    scaled = _scaled_rows(base, bits // base.alphabet.dim, field - bits)
    if not any(map(any, scaled)):
        raise ValueError("code has no nonzero codeword")
    # Weights are undefined by alphabet or length, never by value: the zero
    # word raises the weight's own error wherever kind does not apply.
    word_weight((code.alphabet.zero,) * code.L, kind)
    table = [*itertools.starmap(weight, _blocks(images, group))]  # table[v]: block v's weight
    blocks = code.L // group
    units = _kept_units(base.alphabet, table, bits)
    reps = sorted({*map(min, zip(*units))} - {0})  # the least of each orbit
    size = (blocks * field + 7) // 8
    # The words of the last rows, at most 2^12, are weighed as one block of
    # lanes while every lane sum fits in a byte; heavier words and wide
    # blocks are weighed one word at a time.
    dim = base.alphabet.dim
    depth = 12 // dim if field <= 8 and max(blocks * max(table), size) < 256 else 0
    if field <= 8:  # the weight of the fields packed in each byte; a spread
        # field repeats the table, whose first copy alone is read (top bits 0)
        table *= 1 << field - bits
        while len(table) < 256:  # t[a << field | b] = t[a] + t[b], squared up
            table = [a + b for a in table for b in table]
        table = bytes(table)
    # The words of the last ``depth`` rows (never row 0) make one lane
    # block.  Message order puts the zero entry of each earlier row first,
    # so the block of any later rows is its low bytes.
    base_row = max(1, len(scaled) - depth)
    lanes, ones = _lanes(scaled[base_row:], size)
    least = math.inf
    for i, row in enumerate(scaled):
        # first nonzero symbol at row i: a representative, then any tail;
        # the rows from ``split`` make the lanes, the rows before a prefix
        split = max(i + 1, base_row)
        count = 1 << dim * (len(scaled) - split)
        # the low bytes, replacing the wider block; the mask is not kept
        lanes, ones = [v & (1 << 8 * count * size) - 1 for v in (lanes, ones)]
        for prefix in _packed_words([[*map(row.__getitem__, reps)], *scaled[i + 1 : split]]):
            least = min(least, _least_weight(lanes ^ prefix * ones, count, size, table, field))
    return least


def _kept_units(alphabet: Alphabet, table: list[int], bits: int) -> list[Sequence[int]]:
    """U, as rows of the multiplication table in ``alphabet.units`` order:
    the units u of a ring alphabet whose action act_u, u times each
    ring.dim-bit symbol field of a ``bits``-bit block, keeps the block
    weights, table[act_u(v)] == table[v] for every block v.  The actions
    compose (act_uv = act_u act_v), so U is a subgroup of the unit group,
    which is commutative, and units are decided by cosets.  H, the units
    known to be in U, starts as {1}; a tested unit m that keeps the table
    grows H to <H, m>, the union of the m^k H, and one that does not puts
    its whole coset m H outside U (m h in U would give m in U).  No decided
    unit is tested again.  A matrix alphabet keeps U = {1}."""
    if not isinstance(alphabet, QuotientRing):
        return [range(alphabet.size)]
    # act_u(v) is the XOR of one ``row << shift`` entry per field, so on the
    # low fields that fit a byte it is a run of byte lanes.  For each value h
    # of the high fields (none in a block of at most 8 bits), the weights at
    # act_u(h, l) for every l are one translate of that run by the table's
    # slice at act_u(h).
    dim, mul = alphabet.dim, alphabet._mul
    low = min(bits, 8 // dim * dim)
    weights, n = bytes(table), 1 << low
    kept, out = {1}, set()  # H, and a union of cosets of H outside U
    for u in alphabet.units:
        if u.mask in kept or u.mask in out:
            continue
        row = mul[u.mask]
        fields = [[m << shift for m in row] for shift in range(bits - dim, -1, -dim)]  # top first
        split = len(fields) - low // dim
        acts = _lanes(fields[split:], 1)[0].to_bytes(n, "little")
        highs = map(sum, itertools.product(*fields[:split]))  # fields hold disjoint bits
        if all(
            acts.translate(weights[a : a + n].ljust(256, b"\0")) == weights[h : h + n]
            for h, a in zip(range(0, len(weights), n), highs)
        ):
            power, grown = u.mask, set(kept)
            while power not in kept:
                grown.update(mul[power][h] for h in kept)
                power = row[power]
            kept = grown
            out = {mul[m][h] for m in out for h in kept}
        else:
            out.update(row[h] for h in kept)
    return [mul[u.mask] for u in alphabet.units if u.mask in kept]


_NONZERO = bytes(map(bool, range(256)))  # 1 for each nonzero byte


def _lanes(tables: list[list[int]], size: int) -> tuple[int, int]:
    """Every XOR of one entry per table as size-byte lanes, and 1 in each."""
    # Lanes in message order, grown a table at a time from the last: one
    # XOR of the block so far per table entry, never one step per word.
    lanes, ones, width = 0, 1, size
    for table in reversed(tables):
        pieces = ((lanes ^ t * ones).to_bytes(width, "little") for t in table)
        lanes = int.from_bytes(b"".join(pieces), "little")
        ones = int.from_bytes(ones.to_bytes(width, "little") * len(table), "little")
        width *= len(table)
    return lanes, ones


def _lane_sums(raw: bytes, table: bytes, size: int) -> bytes:
    """The sum of table[b] over the bytes b of each size-byte lane."""
    # Times 0x0101...01, byte p holds the sum of the ``size`` bytes up to p:
    # a whole lane at its top byte.  No such sum may reach 256 (a carry).
    total = int.from_bytes(raw.translate(table), "little") * int.from_bytes(b"\1" * size, "little")
    return total.to_bytes(len(raw) + size, "little")[size - 1 : len(raw) : size]


def _least_weight(
    lanes: int, count: int, size: int, table: bytes | list[int], field: int
) -> int | float:
    """The least weight of a nonzero word in the lanes, or inf."""
    # table weighs a byte, or a field if fields are wider than 8 bits
    if count == 1:  # one word of any weight, also 256 or more
        if not lanes:
            return math.inf
        if field > 8:
            return sum(_unpack(lanes, field, 8 * size // field, table))
        return sum(lanes.to_bytes(size, "little").translate(table))
    raw = lanes.to_bytes(count * size, "little")
    weights = _lane_sums(raw, table, size)
    # Every kind weighs the zero word 0: where as many words weigh 0 as
    # have no nonzero byte, those are zero words, and the least is above 0.
    start = 0
    if 0 in weights and weights.count(0) == _lane_sums(raw, _NONZERO, size).count(0):
        start = 1
    for w in range(start, 256):  # a byte search each, not a loop over words
        if w in weights:
            return w
    return math.inf


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
    if len(code.parity_rows) < r:
        raise ValueError(
            f"{code.name}: needs L - k = {r} parity rows, {len(code.parity_rows)} stored"
        )
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
    """CLI registry.  ``repetition`` and ``parity`` take L and a ring name,
    ``matrix_parity`` takes L, the fixed codes take neither; a parameter
    that the named code does not take is refused."""
    fixed = {
        "dualrep": dual_repetition_code,
        "hexacode": hexacode,
        "rs16_13": functools.partial(reed_solomon_code, 13),
        "rs16_14": functools.partial(reed_solomon_code, 14),
        "inner_pair": inner_parity_pair_code,
    }
    takes = {"repetition": ("L", "ring"), "parity": ("L", "ring"), "matrix_parity": ("L",)}
    if name not in fixed and name not in takes:
        raise ValueError(f"unknown code {name!r}; known: {', '.join([*fixed, *takes])}")
    for flag, value in (("L", L), ("ring", ring_name)):
        if value is not None and flag not in takes.get(name, ()):
            raise ValueError(f"code {name} takes no --{flag}")
    if name in fixed:
        return fixed[name]()
    if name == "matrix_parity":
        return matrix_parity_code(2 if L is None else L)
    alphabet = MatrixSpace(F2, 2) if ring_name is None else get_ring(ring_name)
    if name == "repetition":
        return repetition_code(2 if L is None else L, alphabet)
    return parity_check_code(4 if L is None else L, alphabet)


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
    try:
        L, k = int(header[1]), int(header[2])
    except ValueError:
        raise ValueError(f"header L and k must be integers, got {lines[0]!r}") from None
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
