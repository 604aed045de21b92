"""Cyclic algebras over the small fields and their explicit matrix models.

An element of the degree-n cyclic algebra with trivial twist (gamma = 1) is
x = x_0 + e*x_1 + ... + e^(n-1)*x_{n-1} with coefficients in F_{2^n}, subject
to the relations

    e^n = 1,        l * e = e * sigma(l)    (sigma = squaring).

Multiplication collects coefficients of e^m:

    (x * y)_m = sum over j+k = m (mod n) of sigma^k(x_j) * y_k,

and the left-regular representation sends x to the n x n matrix over the field
with entry (r, c) = sigma^c(x_{r-c}) for r >= c and sigma^c(x_{n-c+r}) above
the diagonal.  Both are implemented verbatim so they can be checked against
each other by exhaustion.

Two literal matrix models over F2 share one construction.  Each is fixed by
its two generator images, E for e and W for w, and sends
x = sum e^j x_j to sum E^j * (sum over the set bits k of x_j of W^k):

* degree 3 over F8 -> 3x3 binary matrices.  W satisfies w^3+w+1, the
  modulus of F8, so the map is a genuine ring isomorphism onto its image
  (certified exhaustively by the verify module);
* degree 4 over F16_ALT -> 4x4 binary matrices.  Here W is the companion
  matrix of x^4+x+1, which is irreducible, so the extended map is an
  additive bijection; but W does NOT satisfy the reducible polynomial
  w^4+w^2+1 that defines F16_ALT, so the map cannot be (and is not)
  multiplicative on field parts.  The verify module reports each relation
  separately rather than averaging them into one verdict.

The quadratic models phi/psi ("pair_to_matrix") send a pair over a quadratic
extension to a 2x2 matrix over the base ring using the twist j^2 = 1:

    (a + b*w, c + d*w)  ->  [[a+d, b+c], [b+c+d, a+b+d]].

The f-basis change rewrites a degree-4 element in powers of the nilpotent
f = 1 + e (f^4 = 0); the transition matrix is Pascal's triangle mod 2 and is
its own inverse.

Everything here computes on element masks: a CyclicElement keeps its
coefficients as masks, sigma and products read the ring's multiplication
table ``ring._mul``, the pair maps split a mask into its two subring halves,
and the twisted pair product reads the relative conjugation from a mask
table built once from ``rings.quadratic_conj``.  Element objects are checked
where they come in (the constructors, the pair maps' arguments) and rebuilt
where they go out (``coeffs``, ``to_f_basis``, ``matrix_to_pair``,
``twisted_pair_mul``), so the benchmark's ``rings.*_calls`` counters do not
see these inner loops.  The literal models read a table built at import
whose entry [j][c] is the RingMatrix product E^j * image(c); a call XORs n
entries.  An entry multiplies the summed image of c, not a sum of basis
entries, so the verify module's XOR-of-basis-images reconstruction of the
degree-4 map stays a second route.
"""

from __future__ import annotations

from operator import getitem, xor
from typing import Sequence

from .matrices import RingMatrix
from .rings import (
    F2,
    F2I,
    F4,
    F4I,
    F8,
    F16_ALT,
    QuotientRing,
    RingElement,
    quadratic_conj,
)


def _sigma_powers(ring: QuotientRing, x: int, count: int) -> list[int]:
    """Masks of x, sigma(x), ..., sigma^(count-1)(x) with sigma as plain
    squaring; well defined on every ring here, an automorphism only on the
    genuine fields (on F16_ALT and the F2[i]-rings it is not injective)."""
    mul = ring._mul
    out = [x]
    for _ in range(count - 1):
        x = mul[x][x]
        out.append(x)
    return out


def _coefficient_masks(ring: QuotientRing, coeffs: Sequence[RingElement]) -> tuple[int, ...]:
    """The masks of ring.w_deg coefficients, each checked to lie in ring."""
    coeffs = tuple(coeffs)
    if len(coeffs) != ring.w_deg:
        raise ValueError(
            f"need {ring.w_deg} coefficients for degree-{ring.w_deg} algebra "
            f"over {ring.name}, got {len(coeffs)}"
        )
    masks = []
    for c in coeffs:
        if not isinstance(c, RingElement) or c.ring is not ring:
            raise ValueError(f"coefficient {c!r} not in {ring.name}")
        masks.append(c.mask)
    return tuple(masks)


class CyclicElement:
    """x_0 + e*x_1 + ... + e^(n-1)*x_{n-1} with coefficients in one ring.

    The coefficients are kept as element masks, ``masks``; ``coeffs``
    rebuilds the element objects on demand.
    """

    __slots__ = ("ring", "masks")

    def __init__(self, ring: QuotientRing, coeffs: Sequence[RingElement]):
        self.ring = ring
        self.masks = _coefficient_masks(ring, coeffs)

    @classmethod
    def _of(cls, ring: QuotientRing, masks: tuple[int, ...]) -> "CyclicElement":
        """Wrap coefficient masks that are already known to be valid."""
        x = object.__new__(cls)
        x.ring = ring
        x.masks = masks
        return x

    @property
    def coeffs(self) -> tuple[RingElement, ...]:
        elements = self.ring.elements
        return tuple(elements[m] for m in self.masks)

    @property
    def n(self) -> int:
        return len(self.masks)

    def _coerce(self, other: "CyclicElement") -> "CyclicElement":
        if not isinstance(other, CyclicElement):
            raise TypeError(f"cannot combine CyclicElement with {type(other).__name__}")
        if other.ring is not self.ring:
            raise ValueError("elements of different algebras")
        return other

    def __add__(self, other: "CyclicElement") -> "CyclicElement":
        other = self._coerce(other)
        return CyclicElement._of(
            self.ring, tuple(a ^ b for a, b in zip(self.masks, other.masks))
        )

    __sub__ = __add__

    def __mul__(self, other: "CyclicElement") -> "CyclicElement":
        """(x * y)_m = sum over j+k = m (mod n) of sigma^k(x_j) * y_k."""
        other = self._coerce(other)
        ring = self.ring
        mul = ring._mul
        n = self.n
        out = [0] * n
        for j, xj in enumerate(self.masks):
            if not xj:
                continue
            for k, (sx, yk) in enumerate(zip(_sigma_powers(ring, xj, n), other.masks)):
                out[(j + k) % n] ^= mul[sx][yk]
        return CyclicElement._of(ring, tuple(out))

    @property
    def is_zero(self) -> bool:
        return not any(self.masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclicElement)
            and other.ring is self.ring
            and other.masks == self.masks
        )

    def __hash__(self) -> int:
        return hash((self.ring.name, self.masks))

    def __str__(self) -> str:
        return "; ".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"CyclicElement({self.ring.name}, {self})"

    @classmethod
    def parse(cls, ring: QuotientRing, text: str) -> "CyclicElement":
        """Parse "x0; x1; ..." (missing trailing coefficients read as 0)."""
        parts = [p.strip() for p in text.split(";")]
        if len(parts) > ring.w_deg:
            raise ValueError(f"too many coefficients in {text!r}")
        coeffs = [ring.parse(p) if p else ring.zero for p in parts]
        coeffs += [ring.zero] * (ring.w_deg - len(coeffs))
        return cls(ring, coeffs)


def regular_representation(x: CyclicElement) -> RingMatrix:
    """Left-regular representation of x as an n x n matrix over its field:
    entry (r, c) is sigma^c(x_{r-c mod n})."""
    n = x.n
    powers = [_sigma_powers(x.ring, m, n) for m in x.masks]
    return RingMatrix._of(
        x.ring, n, tuple(powers[(r - c) % n][c] for r in range(n) for c in range(n))
    )


# ----------------------------------------------------------------------
# literal models over F2: x = sum e^j x_j  ->  sum E^j * (sum over set bits k
# of x_j of W^k), fixed by the generator images E (of e) and W (of w)


def _powers(m: RingMatrix) -> tuple[RingMatrix, ...]:
    """I, M, ..., M^(n-1) for an n x n matrix M."""
    out = [RingMatrix.identity(m.ring, m.n)]
    for _ in range(m.n - 1):
        out.append(out[-1] * m)
    return tuple(out)


def _image_table(e_image: RingMatrix, w_image: RingMatrix) -> list[list[tuple]]:
    """table[j][c]: the masks of E^j * image(c), image(c) the sum of W^k over
    the set bits k of c."""
    images = [RingMatrix.zeros(F2, e_image.n)]
    for w_k in _powers(w_image):
        images += [m + w_k for m in images]
    return [[(e_j * m).masks for m in images] for e_j in _powers(e_image)]


def _literal_image(x: CyclicElement, table: list[list[tuple]]) -> RingMatrix:
    """The XOR over j of table[j][x_j]."""
    terms = map(getitem, table, x.masks)
    acc = next(terms)
    for term in terms:
        acc = tuple(map(xor, acc, term))
    return RingMatrix._of(F2, len(table), acc)


# degree 3 over F8 -> M3(F2): E^3 = I, and W is the companion matrix of
# w^3+w+1, the modulus of F8.
F8_E_IMAGE = RingMatrix.from_masks(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 1]])
F8_W_IMAGE = RingMatrix.from_masks(F2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
_F8_TABLE = _image_table(F8_E_IMAGE, F8_W_IMAGE)


def iso_f8_to_m3(x: CyclicElement) -> RingMatrix:
    """Sum of E^j * image(x_j); a ring isomorphism onto its image."""
    if x.ring is not F8:
        raise ValueError("iso_f8_to_m3 expects a degree-3 element over f8")
    return _literal_image(x, _F8_TABLE)


# degree 4 over F16_ALT -> M4(F2): E^4 = I, and W is the companion matrix of
# x^4+x+1, which is not the modulus of F16_ALT (see the module docstring).
F16_E_IMAGE = RingMatrix.from_masks(
    F2, [[1, 0, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
)
F16_W_IMAGE = RingMatrix.from_masks(
    F2, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]]
)
_F16_TABLE = _image_table(F16_E_IMAGE, F16_W_IMAGE)


def iso_f16_to_m4(x: CyclicElement) -> RingMatrix:
    """Sum of E^j * image(x_j); an additive bijection onto M4(F2).

    Not multiplicative on field parts (W4 satisfies x^4+x+1, not the
    reducible defining polynomial of F16_ALT); see the verify module's
    per-relation report before trusting any ring-level identity here.
    """
    if x.ring is not F16_ALT:
        raise ValueError("iso_f16_to_m4 expects a degree-4 element over f16alt")
    return _literal_image(x, _F16_TABLE)


# ----------------------------------------------------------------------
# quadratic pair models (phi over F4 -> M2(F2), psi over F4[i] -> M2(F2[i]))

_PAIR_TARGET = {F4: F2, F4I: F2I}

# sigma of the pair algebra, the relative conjugation, as a table on masks
_CONJ_MASKS = {ring: [quadratic_conj(x).mask for x in ring] for ring in _PAIR_TARGET}


def _split(ring: QuotientRing, m: int) -> tuple[int, int]:
    """Masks (a, b) of the subring components of x = a + b*w."""
    span = ring._i_span
    return m & ((1 << span) - 1), m >> span


def pair_to_matrix(x: RingElement, y: RingElement) -> RingMatrix:
    """(a+bw, c+dw) -> [[a+d, b+c], [b+c+d, a+b+d]] over the base ring."""
    ring = x.ring
    if y.ring is not ring or ring not in _PAIR_TARGET:
        raise ValueError("pair_to_matrix expects two elements of f4 or f4i")
    a, b = _split(ring, x.mask)
    c, d = _split(ring, y.mask)
    return RingMatrix._of(_PAIR_TARGET[ring], 2, (a ^ d, b ^ c, b ^ c ^ d, a ^ b ^ d))


def matrix_to_pair(m: RingMatrix, ring: QuotientRing) -> tuple[RingElement, RingElement]:
    """Inverse of pair_to_matrix; ring is the quadratic extension (f4 or f4i)."""
    if (
        not isinstance(m, RingMatrix)
        or ring not in _PAIR_TARGET
        or m.ring is not _PAIR_TARGET[ring]
        or m.n != 2
    ):
        raise ValueError("matrix_to_pair expects a 2x2 matrix over the base ring")
    y11, y12, y21, y22 = m.masks
    span = ring._i_span
    x = (y11 ^ y12 ^ y21) | (y11 ^ y22) << span
    y = (y11 ^ y12 ^ y22) | (y12 ^ y21) << span
    return ring.elements[x], ring.elements[y]


def twisted_pair_mul(
    x: tuple[RingElement, RingElement], y: tuple[RingElement, RingElement]
) -> tuple[RingElement, RingElement]:
    """Product in the rank-2 algebra with j^2 = 1, l*j = j*sigma(l):

        (a + b j)(c + d j) = (ac + b*sigma(d)) + (ad + b*sigma(c)) j.

    sigma is the relative conjugation of the quadratic extension (squaring
    on F4, but NOT squaring on F4[i], where sigma must fix i).  This is the
    algebra structure that pair_to_matrix transports to 2x2 matrices;
    exhaustive multiplicativity is certified in verify.
    """
    a, b = x
    c, d = y
    ring = getattr(a, "ring", None)
    if ring not in _PAIR_TARGET:
        raise ValueError("twisted_pair_mul expects pairs over f4 or f4i")
    # one test of all four elements; the loop only names a bad one
    if not (
        type(a) is type(b) is type(c) is type(d) is RingElement
        and ring is b.ring is c.ring is d.ring
    ):
        for e in (a, b, c, d):
            if not isinstance(e, RingElement) or e.ring is not ring:
                raise ValueError(f"element {e!r} does not belong to {ring.name}")
    am, bm = ring._mul[a.mask], ring._mul[b.mask]
    conj = _CONJ_MASKS[ring]
    return (
        ring.elements[am[c.mask] ^ bm[conj[d.mask]]],
        ring.elements[am[d.mask] ^ bm[conj[c.mask]]],
    )


def multiplication_matrix(x: RingElement) -> RingMatrix:
    """Multiplication-by-x matrix [[a, b], [b, a+b]] on the basis (1, w).

    For x = a + b*w in a quadratic extension with w^2 = w + 1; zero exactly
    when x is zero, invertible exactly when x is a unit.
    """
    ring = x.ring
    if ring not in _PAIR_TARGET:
        raise ValueError("multiplication_matrix expects an element of f4 or f4i")
    return pair_to_matrix(x, ring.zero)


# ----------------------------------------------------------------------
# f-basis (powers of the nilpotent f = 1 + e) for the degree-4 algebra

def _pascal_apply(masks: Sequence[int]) -> tuple[int, ...]:
    # Pascal's triangle mod 2 for n = 4; self-inverse over F2.
    x0, x1, x2, x3 = masks
    return (x0 ^ x1 ^ x2 ^ x3, x1 ^ x3, x2 ^ x3, x3)


def to_f_basis(x: CyclicElement) -> tuple[RingElement, ...]:
    """Coefficients (y_0..y_3) of x in powers of f = 1 + e:

        y_0 = x_0+x_1+x_2+x_3,  y_1 = x_1+x_3,  y_2 = x_2+x_3,  y_3 = x_3.
    """
    if x.n != 4:
        raise ValueError("f-basis is defined for the degree-4 algebra")
    elements = x.ring.elements
    y0, y1, y2, y3 = _pascal_apply(x.masks)
    return (elements[y0], elements[y1], elements[y2], elements[y3])


def from_f_basis(ring: QuotientRing, coeffs: Sequence[RingElement]) -> CyclicElement:
    """Rebuild x from f-basis coefficients (the transform is an involution)."""
    if len(coeffs) != 4:
        raise ValueError("f-basis needs exactly 4 coefficients")
    return CyclicElement._of(ring, _pascal_apply(_coefficient_masks(ring, coeffs)))

