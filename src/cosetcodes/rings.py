"""Exact arithmetic for the small finite rings used throughout this package.

Everything lives in characteristic 2 and has at most 16 elements:

    F2      = {0, 1}
    F4      = F2[w]/(w^2+w+1)           field
    F8      = F2[w]/(w^3+w+1)           field
    F16     = F2[w]/(w^4+w+1)           field
    F16_ALT = F2[w]/(w^4+w^2+1)         NOT a field: w^4+w^2+1 = (w^2+w+1)^2
    F2I     = F2[i]/(i^2+1)             local ring; i^2 = 1, so (1+i)^2 = 0
    F4I     = F2I[w]/(w^2+w+1) = F4[i]  16 elements, 12 units

An element is a bit vector over the monomial basis (1, i, w, iw, w^2, ...),
packed into a small integer mask.  Addition is XOR of masks; multiplication
goes through a table built once per ring by reducing monomial products with
i^2 = 1 and the defining polynomial of w.  All elements are interned, so
identity comparison works and hash-based containers are cheap.

The distinction between F16 and F16_ALT matters: the reducible modulus makes
F16_ALT a local ring with zero divisors (w^2+w+1 squares to zero), and the
squaring map is not injective on it.  Code that needs a genuine field of 16
elements (Reed-Solomon evaluation, Frobenius orbits) must use F16; code that
needs the alternate coefficient representation uses F16_ALT.  They are never
interchangeable.
"""

from __future__ import annotations

import re
from typing import Iterator


class RingElement:
    """An interned element of a :class:`QuotientRing`.

    Supports ``+ - * **``, equality, hashing, and ``str`` round-trips through
    ``ring.parse``.  Arithmetic between elements of different rings raises
    ``ValueError`` (mixing representations silently is exactly the bug class
    this package exists to rule out).
    """

    __slots__ = ("ring", "mask", "_hash")

    def __init__(self, ring: QuotientRing, mask: int):
        self.ring = ring
        self.mask = mask
        # elements are interned, so the hash is computed once
        self._hash = hash((ring.name, mask))

    def _coerce(self, other: object) -> "RingElement":
        if not isinstance(other, RingElement):
            raise TypeError(f"cannot combine RingElement with {type(other).__name__}")
        if other.ring is not self.ring:
            raise ValueError(
                f"elements of different rings: {self.ring.name} vs {other.ring.name}"
            )
        return other

    def __add__(self, other: "RingElement") -> "RingElement":
        other = self._coerce(other)
        return self.ring.elements[self.mask ^ other.mask]

    # Characteristic 2: subtraction and negation are free.
    __sub__ = __add__

    def __neg__(self) -> "RingElement":
        return self

    def __mul__(self, other: "RingElement") -> "RingElement":
        other = self._coerce(other)
        return self.ring.elements[self.ring._mul[self.mask][other.mask]]

    def __pow__(self, exponent: int) -> "RingElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.ring.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "RingElement":
        inv = self.ring._inv[self.mask]
        if inv is None:
            raise ValueError(f"{self} is not a unit of {self.ring.name}")
        return self.ring.elements[inv]

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_unit(self) -> bool:
        return self.ring._inv[self.mask] is not None

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and other.ring is self.ring
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.ring.format_element(self)

    def __repr__(self) -> str:
        return f"{self.ring.name}:{self}"


class QuotientRing:
    """A finite characteristic-2 ring F2[i,w]/(i^2+1, m(w)).

    Parameters
    ----------
    name:
        Registry/CLI identifier ("f2", "f4i", ...).
    w_deg:
        Degree of the defining polynomial of ``w`` (1 means "no w at all").
    w_tail_bits:
        Bitmask of m(w) - w^deg, i.e. the low-degree tail that w^deg reduces
        to (bit k = coefficient of w^k).  Ignored when ``w_deg == 1``.
    with_i:
        Whether the ring contains the square root of 1 written ``i``.
    subring:
        The coefficient ring of the w-expansion (F2 or F2I) for quadratic
        extensions; used by :func:`w_components`.
    """

    def __init__(
        self,
        name: str,
        *,
        w_deg: int = 1,
        w_tail_bits: int = 0,
        with_i: bool = False,
        subring: "QuotientRing | None" = None,
    ):
        self.name = name
        self.w_deg = w_deg
        self.with_i = with_i
        self.subring = subring
        self._i_span = 2 if with_i else 1
        self.dim = w_deg * self._i_span
        self.size = 1 << self.dim
        if self.size > 16:
            raise ValueError("rings larger than 16 elements are out of scope")

        # w^p reduced to a bitmask over w^0..w^(deg-1), for p up to 2(deg-1).
        self._w_red = self._build_w_reduction(w_tail_bits)
        self._mul = self._build_mul_table()
        self.elements: tuple[RingElement, ...] = tuple(
            RingElement(self, m) for m in range(self.size)
        )
        self.zero = self.elements[0]
        self.one = self.elements[self._monomial_bit(0, 0)]
        self.gen_i = self.elements[self._monomial_bit(1, 0)] if with_i else None
        self.gen_w = self.elements[self._monomial_bit(0, 1)] if w_deg > 1 else None
        self._inv = self._build_inverse_table()
        self.units: tuple[RingElement, ...] = tuple(
            e for e in self.elements if self._inv[e.mask] is not None
        )
        self.is_field = len(self.units) == self.size - 1

    # ------------------------------------------------------------------
    # construction helpers

    def _monomial_bit(self, i_exp: int, w_exp: int) -> int:
        return 1 << (w_exp * self._i_span + i_exp)

    def _build_w_reduction(self, tail_bits: int) -> list[int]:
        deg = self.w_deg
        red = [1 << p for p in range(deg)]
        # Reduce each w^p for p >= deg by repeatedly rewriting the top term.
        for p in range(deg, 2 * deg - 1):
            poly = 1 << p
            while poly >> deg:
                top = poly.bit_length() - 1
                poly ^= 1 << top
                poly ^= tail_bits << (top - deg)
            red.append(poly)
        return red

    def _mul_monomials(self, a: int, b: int) -> int:
        """Product of basis monomials a, b (indices), as an element mask."""
        ia, wa = a % self._i_span, a // self._i_span
        ib, wb = b % self._i_span, b // self._i_span
        i_exp = (ia + ib) % 2  # i^2 = 1
        mask = 0
        w_bits = self._w_red[wa + wb] if self.w_deg > 1 else 1
        for w_exp in range(self.w_deg):
            if (w_bits >> w_exp) & 1:
                mask ^= self._monomial_bit(i_exp, w_exp)
        return mask

    def _build_mul_table(self) -> list[list[int]]:
        mono = [
            [self._mul_monomials(a, b) for b in range(self.dim)]
            for a in range(self.dim)
        ]
        table = []
        for x in range(self.size):
            row = []
            for y in range(self.size):
                acc = 0
                for a in range(self.dim):
                    if (x >> a) & 1:
                        for b in range(self.dim):
                            if (y >> b) & 1:
                                acc ^= mono[a][b]
                row.append(acc)
            table.append(row)
        return table

    def _build_inverse_table(self) -> list[int | None]:
        one = self.one.mask
        inv: list[int | None] = [None] * self.size
        for x in range(self.size):
            for y in range(self.size):
                if self._mul[x][y] == one:
                    inv[x] = y
                    break
        return inv

    # ------------------------------------------------------------------
    # element access

    def element(self, mask: int) -> RingElement:
        if not 0 <= mask < self.size:
            raise ValueError(f"mask {mask} is not an element of {self.name}")
        return self.elements[mask]

    def __iter__(self) -> Iterator[RingElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        kind = "field" if self.is_field else "ring"
        return f"<{kind} {self.name}, {self.size} elements>"

    # ------------------------------------------------------------------
    # quadratic-extension structure

    def w_components(self, x: RingElement) -> tuple[RingElement, RingElement]:
        """Split x = a + b*w into subring components (a, b); w_deg must be 2."""
        if self.w_deg != 2 or self.subring is None:
            raise ValueError(f"{self.name} is not a quadratic extension")
        span = self._i_span
        a = x.mask & ((1 << span) - 1)
        b = (x.mask >> span) & ((1 << span) - 1)
        return self.subring.elements[a], self.subring.elements[b]

    def from_w_components(self, a: RingElement, b: RingElement) -> RingElement:
        if self.w_deg != 2 or self.subring is None:
            raise ValueError(f"{self.name} is not a quadratic extension")
        if a.ring is not self.subring or b.ring is not self.subring:
            raise ValueError("components must live in the coefficient subring")
        return self.elements[a.mask | (b.mask << self._i_span)]

    # ------------------------------------------------------------------
    # printing and parsing

    def _coeff_str(self, coeff_bits: int) -> str:
        # coeff_bits: bit 0 = 1-part, bit 1 = i-part (absent without i)
        return {1: "1", 2: "i", 3: "1+i"}[coeff_bits]

    def format_element(self, x: RingElement) -> str:
        if x.mask == 0:
            return "0"
        span = self._i_span
        terms = []
        for w_exp in range(self.w_deg - 1, -1, -1):
            coeff = (x.mask >> (w_exp * span)) & ((1 << span) - 1)
            if not coeff:
                continue
            c = self._coeff_str(coeff)
            if w_exp == 0:
                terms.append(c)
            else:
                prefix = "" if c == "1" else ("i" if c == "i" else "(1+i)")
                suffix = "w" if w_exp == 1 else f"w^{w_exp}"
                terms.append(prefix + suffix)
        return "+".join(terms)

    _TERM_RE = re.compile(r"^(?:\(([^()]*)\)|([01]))?(i)?(?:(w)(?:\^(\d+))?)?$")

    def parse(self, text: str) -> RingElement:
        """Parse the grammar produced by ``format_element`` ("w^2+1", "(1+i)w")."""
        s = text.replace(" ", "").replace("*", "").replace("-", "+")
        if not s:
            raise ValueError("empty element string")
        terms, depth, cur = [], 0, ""
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ValueError(f"unbalanced parentheses in {text!r}")
            if ch == "+" and depth == 0:
                terms.append(cur)
                cur = ""
            else:
                cur += ch
        if depth:
            raise ValueError(f"unbalanced parentheses in {text!r}")
        terms.append(cur)
        acc = self.zero
        for term in terms:
            acc = acc + self._parse_term(term, text)
        return acc

    def _parse_term(self, term: str, original: str) -> RingElement:
        m = self._TERM_RE.match(term)
        if not m or not term:
            raise ValueError(f"cannot parse {term!r} in {original!r} over {self.name}")
        paren, digit, i_flag, w_flag, w_exp = m.groups()
        value = self.one
        if paren is not None:
            value = value * self.parse(paren)
        elif digit is not None:
            value = self.zero if digit == "0" else self.one
        if i_flag:
            if self.gen_i is None:
                raise ValueError(f"{self.name} has no element 'i'")
            value = value * self.gen_i
        if w_flag:
            if self.gen_w is None:
                raise ValueError(f"{self.name} has no element 'w'")
            value = value * self.gen_w ** (int(w_exp) if w_exp else 1)
        return value


# ----------------------------------------------------------------------
# the fixed menagerie

F2 = QuotientRing("f2")
F4 = QuotientRing("f4", w_deg=2, w_tail_bits=0b11, subring=F2)
F8 = QuotientRing("f8", w_deg=3, w_tail_bits=0b011)
F16 = QuotientRing("f16", w_deg=4, w_tail_bits=0b0011)
F16_ALT = QuotientRing("f16alt", w_deg=4, w_tail_bits=0b0101)
F2I = QuotientRing("f2i", with_i=True)
F4I = QuotientRing("f4i", w_deg=2, w_tail_bits=0b11, with_i=True, subring=F2I)

RING_BY_NAME: dict[str, QuotientRing] = {
    r.name: r for r in (F2, F4, F8, F16, F16_ALT, F2I, F4I)
}


def get_ring(name: str) -> QuotientRing:
    try:
        return RING_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown ring {name!r}; known: {', '.join(sorted(RING_BY_NAME))}"
        ) from None


# ----------------------------------------------------------------------
# maps

def frobenius(x: RingElement) -> RingElement:
    """x -> x^2, the field automorphism generating Gal(F_{2^n}/F2).

    Restricted to actual fields: on F16_ALT or F2[i]-type rings squaring is
    still well defined but is not an automorphism, and silently treating it
    as one hides real bugs.  Use ``x * x`` directly if that is what you mean.
    """
    if not x.ring.is_field:
        raise ValueError(f"frobenius needs a field, {x.ring.name} is not one")
    return x * x


def quadratic_norm(x: RingElement) -> RingElement:
    """Relative norm a^2 + a*b + b^2 of x = a + b*w down to the subring.

    Defined for the quadratic extensions F4/F2 and F4[i]/F2[i].  In both
    cases the norm is multiplicative and kills exactly the non-units:
    on F4[i] the image is {0, 1, i} (never 1+i), with 0 hit precisely by
    the four multiples of (1+i).  Equals x * quadratic_conj(x), embedded.
    """
    a, b = x.ring.w_components(x)
    return a * a + a * b + b * b


def quadratic_conj(x: RingElement) -> RingElement:
    """The conjugation a + b*w -> (a+b) + b*w of a quadratic extension,
    fixing the coefficient subring pointwise.

    On F4 this is plain squaring.  On F4[i] it is NOT: squaring sends i to
    i^2 = 1, while the relative conjugation must fix i — anything twisted by
    "sigma" over F4[i] (the pair algebra, the norm) means this map.
    """
    a, b = x.ring.w_components(x)
    return x.ring.from_w_components(a + b, b)
