"""The golden space-time code over Z[i, theta], with exact determinants.

A codeword is parameterized by four Gaussian integers (a, b, c, d) and is the
2x2 complex matrix

    X = (1/sqrt5) * [[ alpha*(a + b*theta),       alpha*(c + d*theta)      ],
                     [ i*alphabar*(c + d*thetabar), alphabar*(a + b*thetabar)]]

with theta = (1+sqrt5)/2, thetabar = 1 - theta, alpha = 1 + i - i*theta and
alphabar = 1 + i*theta.  Writing N(u + v*theta) = u^2 + uv - v^2 (a Gaussian
integer), the determinant collapses to

    5 * det(X) = (2+i) * (N(a + b*theta) - i * N(c + d*theta)),

because alpha*alphabar = 2 + i.  Everything here manipulates that identity
with exact integer arithmetic; |det(X)|^2 is always |z|^2 / 5 for the
Gaussian integer z = N_ab - i*N_cd.  The box scans therefore never visit the
(2B+1)^8 codewords: they search for close pairs among the norms of the
(2B+1)^4 half-codewords (a, b) and (c, d), in one process, with the same
lexicographic-first witness a full loop would report.  The brute loop lives
on in the verify module as the independent oracle.

Cosets come from reducing the coordinates modulo the ideals (1+i) and (2) of
Z[i].  The reductions land in F4-pairs and F4[i]-pairs respectively, and the
2x2 model of :func:`cosetcodes.cyclic.pair_to_matrix` turns them into
matrices whose invertibility class dictates an exact floor on |det|^2:

    ideal (1+i):  zero matrix -> 4/5,  nonzero non-unit -> 2/5,  unit -> 1/5
    ideal (2):    classify u = N(x0bar) + i*N(x1bar) in F2[i];
                  u = 0 -> 4/5,  u nonzero non-unit -> 2/5,  u unit -> 1/5

Each coset has one residue key, x0bar.mask | x1bar.mask << ring.dim for its
pair over F4 or F4[i].  It is also the word of coordinate parities: mod (1+i)
bit k is the parity of re + im of the k-th of (a, b, c, d), mod 2 bit k is
the parity of the k-th of the eight integer coordinates.  The floor tables
are indexed by it, and the verify oracle keys every codeword of its box by it.

The i-twist in u is forced by the algebra: the codeword algebra has e^2 = i
while the 2x2 pair model uses j^2 = 1, and reducing the determinant identity
mod 2 gives det(X) = i*N(x0bar) + N(x1bar) up to units — NOT the pair-model
determinant N(x0bar) + N(x1bar).  Grouping the norm pairs by u is exactly
what makes the floors true; grouping by bare norm equality does not (the
codeword (1,0,1,0) has norm pair (1,1) and |det|^2 = 2/5).  The verify
module checks the u grouping exhaustively over a box and reports that
counterexample to the other.

``GaussianInt``, ``GoldenInt`` and ``GoldenCodeword`` are the public types.
A codeword is also the algebra element x0 + e*x1 with x0 = a + b*theta,
x1 = c + d*theta and e^2 = i, and ``golden_pair_mul`` multiplies codewords
as such.  It shares one int kernel with ``GoldenInt.__mul__``, and the pair
projections read each half's residue key, the mask of its reduction,
straight from the coordinates.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .cyclic import matrix_to_pair, pair_to_matrix
from .matrices import ENUMERATION_LIMIT, RingMatrix
from .rings import F2, F2I, F4, F4I, RingElement, quadratic_norm


# ----------------------------------------------------------------------
# Gaussian integers and golden integers

class GaussianInt:
    """Exact element of Z[i]."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = re
        self.im = im

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def abs_sq(self) -> int:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaussianInt)
            and other.re == self.re
            and other.im == self.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im > 0:
            imag = "i" if self.im == 1 else f"{self.im}i"
            return f"{self.re}+{imag}" if self.re else imag
        imag = "-i" if self.im == -1 else f"{self.im}i"
        return f"{self.re}{imag}" if self.re else imag

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"


GI_I = GaussianInt(0, 1)


# An element u + v*theta of Z[i, theta] as the ints (u.re, u.im, v.re, v.im),
# and a half-codeword (a, b) as the ints (a.re, a.im, b.re, b.im).
_GoldenInts = tuple[int, int, int, int]
_Half = tuple[int, int, int, int]


def _golden_mul(x: _GoldenInts, y: _GoldenInts) -> _GoldenInts:
    """(u1 + v1 t)(u2 + v2 t) = u1u2 + v1v2 + (u1v2 + v1u2 + v1v2) t."""
    ar, ai, br, bi = x
    cr, ci, dr, di = y
    vvr, vvi = br * dr - bi * di, br * di + bi * dr
    return (
        ar * cr - ai * ci + vvr,
        ar * ci + ai * cr + vvi,
        ar * dr - ai * di + br * cr - bi * ci + vvr,
        ar * di + ai * dr + br * ci + bi * cr + vvi,
    )


def _golden_sigma(x: _GoldenInts) -> _GoldenInts:
    """theta -> 1 - theta: u + v*theta -> (u + v) - v*theta."""
    ur, ui, vr, vi = x
    return (ur + vr, ui + vi, -vr, -vi)


class GoldenInt:
    """Exact element u + v*theta of Z[i, theta], theta^2 = theta + 1."""

    __slots__ = ("u", "v")

    def __init__(self, u: GaussianInt, v: GaussianInt):
        self.u = u
        self.v = v

    @classmethod
    def _of(cls, x: _GoldenInts) -> "GoldenInt":
        ur, ui, vr, vi = x
        return cls(GaussianInt(ur, ui), GaussianInt(vr, vi))

    def _ints(self) -> _GoldenInts:
        return (self.u.re, self.u.im, self.v.re, self.v.im)

    def __add__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.u - other.u, self.v - other.v)

    def __mul__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt._of(_golden_mul(self._ints(), other._ints()))

    def galois_conj(self) -> "GoldenInt":
        """theta -> 1 - theta."""
        return GoldenInt(self.u + self.v, -self.v)

    def complex_conj(self) -> "GoldenInt":
        """i -> -i on both coefficients (theta is real)."""
        return GoldenInt(self.u.conj(), self.v.conj())

    @property
    def is_zero(self) -> bool:
        return self.u.is_zero and self.v.is_zero

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GoldenInt) and other.u == self.u and other.v == self.v
        )

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __str__(self) -> str:
        return f"({self.u})+({self.v})t"

    def __repr__(self) -> str:
        return f"GoldenInt({self.u!r}, {self.v!r})"


def golden_norm(x: GoldenInt) -> GaussianInt:
    """N(u + v*theta) = x * galois_conj(x) = u^2 + uv - v^2, in Z[i]."""
    return x.u * x.u + x.u * x.v - x.v * x.v


ALPHA = GoldenInt(GaussianInt(1, 1), GaussianInt(0, -1))     # 1 + i - i*theta
ALPHA_BAR = GoldenInt(GaussianInt(1, 0), GaussianInt(0, 1))  # 1 + i*theta


def _gi_times_golden(s: GaussianInt, x: GoldenInt) -> GoldenInt:
    return GoldenInt(s * x.u, s * x.v)


# ----------------------------------------------------------------------
# codewords

@dataclass(frozen=True)
class GoldenCodeword:
    """The coordinate tuple (a, b, c, d) of one codeword."""

    a: GaussianInt
    b: GaussianInt
    c: GaussianInt
    d: GaussianInt

    @classmethod
    def from_ints(cls, coords: Sequence[int]) -> "GoldenCodeword":
        ar, ai, br, bi, cr, ci, dr, di = coords
        return cls(
            GaussianInt(ar, ai),
            GaussianInt(br, bi),
            GaussianInt(cr, ci),
            GaussianInt(dr, di),
        )

    def coords(self) -> tuple[GaussianInt, GaussianInt, GaussianInt, GaussianInt]:
        return (self.a, self.b, self.c, self.d)

    @property
    def is_zero(self) -> bool:
        return all(g.is_zero for g in self.coords())

    def x0(self) -> GoldenInt:
        return GoldenInt(self.a, self.b)

    def x1(self) -> GoldenInt:
        return GoldenInt(self.c, self.d)

    def matrix_times_sqrt5(self) -> tuple[tuple[GoldenInt, GoldenInt], tuple[GoldenInt, GoldenInt]]:
        """The 2x2 codeword matrix without the 1/sqrt5 normalization."""
        x0, x1 = self.x0(), self.x1()
        top = (ALPHA * x0, ALPHA * x1)
        bottom = (
            _gi_times_golden(GI_I, ALPHA_BAR * x1.galois_conj()),
            ALPHA_BAR * x0.galois_conj(),
        )
        return (top, bottom)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.coords()) + ")"


def det_numerator(cw: GoldenCodeword) -> GaussianInt:
    """5 * det(X) as a Gaussian integer, from the full symbolic 2x2 expansion.

    The theta-component of the expansion must vanish identically; if it ever
    does not, the codeword parameterization is broken and we raise rather
    than return a truncated value.
    """
    (m00, m01), (m10, m11) = cw.matrix_times_sqrt5()
    det = m00 * m11 - m01 * m10
    if not det.v.is_zero:
        raise ArithmeticError(
            f"determinant of {cw} has a nonvanishing theta-component {det.v}"
        )
    return det.u


def abs_det_sq(cw: GoldenCodeword) -> Fraction:
    """|det(X)|^2 as an exact rational (the 1/sqrt5 scaling included)."""
    z = det_numerator(cw)
    return Fraction(z.abs_sq(), 25)


def det_complex(cw: GoldenCodeword) -> complex:
    """Floating-point determinant of the normalized codeword matrix.

    Independent numeric route used by tests to cross-check the symbolic
    identity to ~1e-12; never used for decisions.
    """
    sqrt5 = 5.0 ** 0.5
    theta = (1.0 + sqrt5) / 2.0
    theta_bar = 1.0 - theta

    def ev(x: GoldenInt, t: float) -> complex:
        return complex(x.u.re, x.u.im) + complex(x.v.re, x.v.im) * t

    x0, x1 = cw.x0(), cw.x1()
    a0, a0c = ev(x0, theta), ev(x0, theta_bar)
    a1, a1c = ev(x1, theta), ev(x1, theta_bar)
    alpha = 1 + 1j - 1j * theta
    alpha_bar = 1 + 1j * theta
    m00 = alpha * a0 / sqrt5
    m01 = alpha * a1 / sqrt5
    m10 = 1j * alpha_bar * a1c / sqrt5
    m11 = alpha_bar * a0c / sqrt5
    return m00 * m11 - m01 * m10


# ----------------------------------------------------------------------
# fast integer path (shared by the scans)

def norm_ints(ar: int, ai: int, br: int, bi: int) -> tuple[int, int]:
    """Real/imaginary parts of N((ar+ai*i) + (br+bi*i)*theta)."""
    nr = ar * ar - ai * ai + ar * br - ai * bi - (br * br - bi * bi)
    ni = 2 * ar * ai + ar * bi + ai * br - 2 * br * bi
    return nr, ni


def det_sq_times5(coords: Sequence[int]) -> int:
    """m such that |det(X)|^2 = m / 5, straight from the 8 integer coords."""
    ar, ai, br, bi, cr, ci, dr, di = coords
    nar, nai = norm_ints(ar, ai, br, bi)
    ncr, nci = norm_ints(cr, ci, dr, di)
    zr = nar + nci  # z = N_ab - i*N_cd
    zi = nai - ncr
    return zr * zr + zi * zi


# ----------------------------------------------------------------------
# coset projections

class ProjectionClass(Enum):
    ZERO = "zero"
    NON_UNIT = "nonzero-nonunit"
    UNIT = "unit"


def reduce_mod_1pi(g: GaussianInt) -> RingElement:
    """Z[i] -> Z[i]/(1+i) = F2; the residue is (re + im) mod 2."""
    return F2.elements[(g.re + g.im) & 1]


def reduce_mod_2(g: GaussianInt) -> RingElement:
    """Z[i] -> Z[i]/(2) = F2[i], coordinatewise parity."""
    return F2I.elements[(g.re & 1) | ((g.im & 1) << 1)]


def _halves(cw: GoldenCodeword) -> tuple[_Half, _Half]:
    """The integer coordinates of the halves (a, b) and (c, d)."""
    a, b, c, d = cw.a, cw.b, cw.c, cw.d
    return (a.re, a.im, b.re, b.im), (c.re, c.im, d.re, d.im)


# The residue key of a half is the mask of its reduction: mod (1+i) bit 0 is
# the parity of re + im of its first Gaussian coordinate and bit 1 that of
# its second (F4 = F2 + F2*w), mod 2 the four bits are the parities of its
# integer coordinates (F4[i] = F2[i] + F2[i]*w).

def _half_key_1pi(h: Sequence[int]) -> int:
    ar, ai, br, bi = h
    return ((ar + ai) & 1) | ((br + bi) & 1) << 1


def _half_key_2(h: Sequence[int]) -> int:
    ar, ai, br, bi = h
    return (ar & 1) | (ai & 1) << 1 | (br & 1) << 2 | (bi & 1) << 3


def project_pair_mod_1pi(cw: GoldenCodeword) -> tuple[RingElement, RingElement]:
    """(x0, x1) reduced coordinatewise into F4 = F2[w] (theta -> w).

    This is the plain coordinate labeling.  The algebra writes x = x0 + e*x1
    with e on the LEFT while the finite pair model keeps j on the right, so
    the labeling that is actually multiplicative mod (1+i) conjugates the
    second slot: x0 + e*x1 = x0 + conj(x1)*e.  Both labelings induce the
    same coset partition (conjugation permutes F4 coordinatewise); the
    multiplicative version and its mod-2 failure are certified in verify.
    """
    left, right = _halves(cw)
    return F4.elements[_half_key_1pi(left)], F4.elements[_half_key_1pi(right)]


def project_pair_mod_2(cw: GoldenCodeword) -> tuple[RingElement, RingElement]:
    """(x0, x1) reduced coordinatewise into F4[i] (theta -> w).

    Plain coordinate labeling; see project_pair_mod_1pi for the left/right
    twist caveat.  Mod 2 no relabeling makes the projection multiplicative
    (e^2 = i in the algebra but j^2 = 1 in the pair model, and i is not 1
    mod 2); the exact failure locus is certified in verify.
    """
    left, right = _halves(cw)
    return F4I.elements[_half_key_2(left)], F4I.elements[_half_key_2(right)]


def project_mod_1pi(cw: GoldenCodeword) -> RingMatrix:
    return pair_to_matrix(*project_pair_mod_1pi(cw))


def project_mod_2(cw: GoldenCodeword) -> RingMatrix:
    return pair_to_matrix(*project_pair_mod_2(cw))


def classify_projection(m: RingMatrix) -> ProjectionClass:
    if m.is_zero:
        return ProjectionClass.ZERO
    if m.is_invertible:
        return ProjectionClass.UNIT
    return ProjectionClass.NON_UNIT


def mod2_norm_pair(cw: GoldenCodeword) -> tuple[RingElement, RingElement]:
    """(N(x0bar), N(x1bar)) in F2[i] for the mod-2 reduction."""
    x0, x1 = project_pair_mod_2(cw)
    return quadratic_norm(x0), quadratic_norm(x1)


def _mod2_pair_class(n0: RingElement, n1: RingElement) -> ProjectionClass:
    """Unit class of u = n0 + i*n1 for the norms n0, n1 in F2[i] of a pair."""
    u = n0 + F2I.gen_i * n1
    if u.is_zero:
        return ProjectionClass.ZERO
    if u.is_unit:
        return ProjectionClass.UNIT
    return ProjectionClass.NON_UNIT


def mod2_det_class(cw: GoldenCodeword) -> ProjectionClass:
    """Unit class of u = N(x0bar) + i*N(x1bar), i.e. of det(X) mod 2.

    This is the classification under which the three determinant floors of
    the ideal-(2) case are exact (see the module docstring for why the bare
    norm-equality grouping is not determinant-compatible).
    """
    return _mod2_pair_class(*mod2_norm_pair(cw))


# Floors on m = 5*|det|^2 keyed by class, for both ideals.
FLOOR_BY_CLASS = {
    ProjectionClass.ZERO: 4,
    ProjectionClass.NON_UNIT: 2,
    ProjectionClass.UNIT: 1,
}


def _key_mod_1pi(coords: Sequence[int]) -> int:
    ar, ai, br, bi, cr, ci, dr, di = coords
    return (
        ((ar + ai) & 1)
        | ((br + bi) & 1) << 1
        | ((cr + ci) & 1) << 2
        | ((dr + di) & 1) << 3
    )


def _key_mod_2(coords: Sequence[int]) -> int:
    ar, ai, br, bi, cr, ci, dr, di = coords
    return (
        (ar & 1)
        | (ai & 1) << 1
        | (br & 1) << 2
        | (bi & 1) << 3
        | (cr & 1) << 4
        | (ci & 1) << 5
        | (dr & 1) << 6
        | (di & 1) << 7
    )


# The floor tables list the pairs in residue-key order: x1 outer, x0 inner.

def floor_table_mod_1pi() -> list[int]:
    """floor on m = 5*|det|^2, indexed by the 4-bit mod-(1+i) residue key."""
    return [
        FLOOR_BY_CLASS[classify_projection(pair_to_matrix(x0, x1))]
        for x1 in F4
        for x0 in F4
    ]


def floor_table_mod_2() -> list[int]:
    """floor on m, indexed by the 8-bit coordinate-parity key, via the
    determinant-compatible norm classification."""
    norms = [quadratic_norm(x) for x in F4I]
    return [FLOOR_BY_CLASS[_mod2_pair_class(n0, n1)] for n1 in norms for n0 in norms]


# ----------------------------------------------------------------------
# the algebra product of codewords (e^2 = i)

def golden_pair_mul(x: GoldenCodeword, y: GoldenCodeword) -> GoldenCodeword:
    """Multiply two codewords as algebra elements x0 + e x1, with e^2 = i
    and l e = e sigma(l):

        x y = (x0 y0 + i sigma(x1) y1) + e (sigma(x0) y1 + x1 y0).
    """
    (x0, x1), (y0, y1) = _halves(x), _halves(y)
    p0, p1, p2, p3 = _golden_mul(x0, y0)
    q0, q1, q2, q3 = _golden_mul(_golden_sigma(x1), y1)
    r0, r1, r2, r3 = _golden_mul(_golden_sigma(x0), y1)
    s0, s1, s2, s3 = _golden_mul(x1, y0)
    return GoldenCodeword(  # (p + i*q) + e (r + s)
        GaussianInt(p0 - q1, p1 + q0),
        GaussianInt(p2 - q3, p3 + q2),
        GaussianInt(r0 + s0, r1 + s1),
        GaussianInt(r2 + s2, r3 + s3),
    )


# ----------------------------------------------------------------------
# box scans, factorized over half-codeword norms
#
# A codeword splits into the halves L = (a, b) and R = (c, d).  Writing
# N(a + b*theta) = p + q*i and N(c + d*theta) = r + s*i,
#
#     m = 5*|det|^2 = |N_L - i*N_R|^2 = (r - q)^2 + (s + p)^2,
#
# the squared distance from N_R to the point (q, -p).  A box scan is thus a
# closest-point search over the distinct half norms, not a loop over the
# (2B+1)^8 codewords: the (2B+1)^4 halves share few norms (87 among 625 at
# box 2, 289 among 2401 at box 3).  Both scans group the halves by norm and
# probe the targets of each distinct left norm once.  Both residue keys split
# the same way: the left half gives the low bits of the codeword key, the
# right half the high bits.  A norm is zero only at the zero half, so the one
# pair every scan leaves out, the zero codeword, is the pair of two zero norms.

def _check_box(box: int) -> None:
    """Reject an empty box and one whose (2*box+1)^4 halves exceed the
    enumeration limit; box 15 is the largest that passes."""
    if box < 1:
        raise ValueError("box must be at least 1")
    halves = (2 * box + 1) ** 4
    if halves > ENUMERATION_LIMIT:
        raise ValueError(
            f"box {box} has {halves} half-codewords, "
            f"over the enumeration limit {ENUMERATION_LIMIT}"
        )


# ideal -> (half-key function, key bits per half)
_HALF_KEYS = {"1pi": (_half_key_1pi, 2), "2": (_half_key_2, 4)}

_Norm = tuple[int, int]


def _box_halves(box: int) -> list[tuple[_Half, _Norm]]:
    """All (2*box+1)^4 halves in lexicographic order, each with its norm."""
    return [(h, norm_ints(*h)) for h in itertools.product(range(-box, box + 1), repeat=4)]


def _first_halves(halves: Iterable[tuple[_Half, _Norm]]) -> dict[_Norm, _Half]:
    """The first half of each norm; the norms keep the order of their first
    halves."""
    first: dict[_Norm, _Half] = {}
    for h, n in halves:
        first.setdefault(n, h)
    return first


def _offset_shells() -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(t, every (dx, dy) with dx^2 + dy^2 = t) for t = 0, 1, 2, 4, 5, 8, ..."""
    for t in itertools.count():
        k = math.isqrt(t)
        span = range(-k, k + 1)
        if shell := [(dx, dy) for dx in span for dy in span if dx * dx + dy * dy == t]:
            yield t, shell


def _coset_key(coset: RingMatrix, ideal: str) -> int:
    """The residue key of the codewords that project onto ``coset``."""
    ring = F4 if ideal == "1pi" else F4I
    x0, x1 = matrix_to_pair(coset, ring)
    return x0.mask | x1.mask << ring.dim


def min_abs_det_sq(
    box: int = 2,
    *,
    coset: RingMatrix | None = None,
    ideal: str | None = None,
) -> tuple[Fraction, GoldenCodeword]:
    """Exact minimum of |det(X)|^2 over the nonzero codewords of the box.

    With ``coset``/``ideal`` the scan is restricted to codewords whose
    projection (mod (1+i) or mod 2, per ``ideal`` in {"1pi", "2"}) equals the
    given 2x2 matrix.  The witness is the first minimizer in lexicographic
    coordinate order.

    The search grows the distance t = 0, 1, 2, 4, ... shell by shell until
    some distinct left norm has a right norm at distance t from its target.
    """
    if coset is not None:
        if ideal not in _HALF_KEYS:
            raise ValueError("ideal must be '1pi' or '2' when a coset is given")
        key = _coset_key(coset, ideal)
    elif ideal is not None:
        raise ValueError("ideal given without a coset matrix")
    _check_box(box)

    halves = _box_halves(box)
    if coset is None:
        left = right = _first_halves(halves)
    else:
        half_key, bits = _HALF_KEYS[ideal]
        left = _first_halves(x for x in halves if half_key(x[0]) == key & ((1 << bits) - 1))
        right = _first_halves(x for x in halves if half_key(x[0]) == key >> bits)
    if not left or not right or left.keys() | right.keys() == {(0, 0)}:
        raise ValueError("no nonzero codeword matches the requested coset in the box")
    # The left norms come in the order of their first halves, so the first
    # norm with a hit holds the lexicographically first left half with one,
    # and the least first half among its hit norms is the least right half
    # completing it.  Two zero norms at t = 0 are the zero codeword.
    for m, offsets in _offset_shells():
        for (p, q), h in left.items():
            found = [
                right[t]
                for dx, dy in offsets
                if (t := (q + dx, dy - p)) in right and (m or p or q)
            ]
            if found:
                return Fraction(m, 5), GoldenCodeword.from_ints(h + min(found))


# The offsets of norm < 4 (3 is not a sum of two squares): a floor of at most
# 4 can only fail at these distances.
_NEAR_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def scan_det_floors(
    ideal: str, box: int = 2
) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """Exhaustive floor check over the box for ideal "1pi" or "2".

    Returns (codewords_checked, violations, per-floor counts).  An empty
    violation list means every floor held; otherwise it holds the first five
    offending coordinate tuples in lexicographic order.

    Class sizes are products of the per-key half counts, less the zero
    codeword.  A violation needs m < floor <= 4, so only the right halves at
    the nine offsets of norm < 4 around each distinct left norm's target are
    visited, and a heap keeps the five least.
    """
    if ideal not in _HALF_KEYS:
        raise ValueError("ideal must be '1pi' or '2'")
    _check_box(box)
    table = floor_table_mod_1pi() if ideal == "1pi" else floor_table_mod_2()
    half_key, bits = _HALF_KEYS[ideal]
    key_counts = [0] * (1 << bits)
    groups: dict[_Norm, list[tuple[_Half, int]]] = {}
    for h, n in _box_halves(box):
        k = half_key(h)
        key_counts[k] += 1
        groups.setdefault(n, []).append((h, k))

    floor_index = {4: 0, 2: 1, 1: 2}
    counts = [0, 0, 0]  # floors 4, 2, 1
    for kl, count_l in enumerate(key_counts):
        for kr, count_r in enumerate(key_counts):
            counts[floor_index[table[kl | kr << bits]]] += count_l * count_r
    counts[floor_index[table[0]]] -= 1  # the zero codeword

    violations = heapq.nsmallest(5, (
        h + r
        for (p, q), group in groups.items()
        for dx, dy in _NEAR_OFFSETS
        for r, kr in groups.get((q + dx, dy - p), ())
        for h, kl in group
        if dx * dx + dy * dy < table[kl | kr << bits] and (any(h) or any(r))
    ))
    return sum(key_counts) ** 2 - 1, violations, counts
