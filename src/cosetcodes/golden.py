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

The ideals are (1+i)^k at depths k = 1 and 2 ((1+i)^2 = 2i).  One private
record per ideal, in ``_IDEALS``, holds its pair ring (F4, F4[i]), its half
key and its norm-pair floor table; the rest is read off the pair ring: a half
key has ring.dim bits (2, 4), a norm residue ring.subring.dim = k bits, and
a coset matrix lives over ring.subring (F2, F2[i]).  Each coset has one
residue key, x0bar.mask | x1bar.mask << ring.dim for its pair: the residues
of a, b, c, d modulo (1+i)^k in k bits each, a lowest.  The floor tables are
indexed by it, and the verify oracle keys codewords by ``_key_mod``'s
general rule.  The minimum search keys each Gaussian coordinate once per
slot of a half, at the two depths written out, and a half's key is the xor
of its two slot keys.  The floor scan keys no half:
reduction mod (1+i) or mod 2 is a ring map that sends theta to w and the
Galois conjugation theta -> 1 - theta to the relative conjugation
w -> w + 1, which fixes i, so N(x0bar) and N(x1bar) are the residues of
N(a + b*theta) and N(c + d*theta).  A coset's floor is thus a function of
the two half norms, read from a table of norm-residue pairs.

The i-twist in u is forced by the algebra: the codeword algebra has e^2 = i
while the 2x2 pair model uses j^2 = 1, and reducing the determinant identity
mod 2 gives det(X) = i*N(x0bar) + N(x1bar) up to units — NOT the pair-model
determinant N(x0bar) + N(x1bar).  Grouping the norm pairs by u is exactly
what makes the floors true; grouping by bare norm equality does not (the
codeword (1,0,1,0) has norm pair (1,1) and |det|^2 = 2/5).  The verify
module checks the u grouping exhaustively over a box and reports that
counterexample to the other.

``GaussianInt``, ``GoldenInt`` and ``GoldenCodeword`` are the public types.
A codeword holds its halves (a, b) and (c, d) as int 4-tuples and builds
Gaussian coordinates only when asked for them.  It is also the algebra
element x0 + e*x1 with x0 = a + b*theta, x1 = c + d*theta and e^2 = i, and
``golden_pair_mul`` multiplies codewords as such.  One int kernel serves
``GoldenInt.__mul__`` and the codeword matrix of ``matrix_times_sqrt5``,
and ``det_numerator`` writes it out for the two products of matrix entries
in its 2x2 expansion.  ``golden_pair_mul`` is written out over the 16 ints
of two codewords with three Gaussian products per product, not the
kernel's four; tests check both against the kernel route.  The
pair projections, bound to their records' ring elements at import, write
the half keys out over the stored halves, and a test checks them against
the records.
"""

from __future__ import annotations

import heapq
import itertools
import math
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .cyclic import matrix_to_pair, pair_to_matrix
from .matrices import ENUMERATION_LIMIT, RingMatrix
from .rings import F2I, F4, F4I, QuotientRing, RingElement, quadratic_norm


# ----------------------------------------------------------------------
# Gaussian integers and golden integers

class GaussianInt:
    """Exact element of Z[i], an immutable value like ``GoldenCodeword``:
    private slots behind the read-only parts ``re`` and ``im``."""

    __slots__ = ("_re", "_im")

    def __init__(self, re: int = 0, im: int = 0):
        self._re, self._im = re, im

    re = property(attrgetter("_re"))
    im = property(attrgetter("_im"))

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self._re + other._re, self._im + other._im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self._re - other._re, self._im - other._im)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self._re, -self._im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
        )

    def conj(self) -> "GaussianInt":
        return GaussianInt(self._re, -self._im)

    def abs_sq(self) -> int:
        return self._re * self._re + self._im * self._im

    @property
    def is_zero(self) -> bool:
        return self._re == 0 and self._im == 0

    def __reduce__(self) -> tuple:
        return (GaussianInt, (self._re, self._im))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaussianInt)
            and other._re == self._re
            and other._im == self._im
        )

    def __hash__(self) -> int:
        return hash((self._re, self._im))

    def __str__(self) -> str:
        if self._im == 0:
            return str(self._re)
        if self._im > 0:
            imag = "i" if self._im == 1 else f"{self._im}i"
            return f"{self._re}+{imag}" if self._re else imag
        imag = "-i" if self._im == -1 else f"{self._im}i"
        return f"{self._re}{imag}" if self._re else imag

    def __repr__(self) -> str:
        return f"GaussianInt({self._re}, {self._im})"


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
    """Exact element u + v*theta of Z[i, theta], theta^2 = theta + 1, an
    immutable value with the read-only Gaussian coefficients ``u`` and ``v``."""

    __slots__ = ("_u", "_v")

    def __init__(self, u: GaussianInt, v: GaussianInt):
        self._u, self._v = u, v

    u = property(attrgetter("_u"))
    v = property(attrgetter("_v"))

    @classmethod
    def _of(cls, x: _GoldenInts) -> "GoldenInt":
        ur, ui, vr, vi = x
        return cls(GaussianInt(ur, ui), GaussianInt(vr, vi))

    def _ints(self) -> _GoldenInts:
        return (self._u._re, self._u._im, self._v._re, self._v._im)

    def __add__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self._u + other._u, self._v + other._v)

    def __sub__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self._u - other._u, self._v - other._v)

    def __mul__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt._of(_golden_mul(self._ints(), other._ints()))

    def galois_conj(self) -> "GoldenInt":
        """theta -> 1 - theta."""
        return GoldenInt(self._u + self._v, -self._v)

    def complex_conj(self) -> "GoldenInt":
        """i -> -i on both coefficients (theta is real)."""
        return GoldenInt(self._u.conj(), self._v.conj())

    @property
    def is_zero(self) -> bool:
        return self._u.is_zero and self._v.is_zero

    def __reduce__(self) -> tuple:
        return (GoldenInt, (self._u, self._v))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GoldenInt) and other._u == self._u and other._v == self._v
        )

    def __hash__(self) -> int:
        return hash((self._u, self._v))

    def __str__(self) -> str:
        return f"({self._u})+({self._v})t"

    def __repr__(self) -> str:
        return f"GoldenInt({self._u!r}, {self._v!r})"


def golden_norm(x: GoldenInt) -> GaussianInt:
    """N(u + v*theta) = x * galois_conj(x) = u^2 + uv - v^2, in Z[i]."""
    return x._u * x._u + x._u * x._v - x._v * x._v


ALPHA = GoldenInt(GaussianInt(1, 1), GaussianInt(0, -1))     # 1 + i - i*theta
ALPHA_BAR = GoldenInt(GaussianInt(1, 0), GaussianInt(0, 1))  # 1 + i*theta
_ALPHA, _ALPHA_BAR = ALPHA._ints(), ALPHA_BAR._ints()


# ----------------------------------------------------------------------
# codewords

class GoldenCodeword:
    """The coordinate tuple (a, b, c, d) of one codeword, an immutable value.

    As in ``fractions.Fraction``, its state is private slots and its
    coordinates ``a`` to ``d`` are read-only properties.  The slots hold the
    halves (a, b) and (c, d) as the ints (a.re, a.im, b.re, b.im) and
    (c.re, c.im, d.re, d.im), which the kernels below read directly; the
    properties rebuild the Gaussian coordinates.
    """

    __slots__ = ("_left", "_right")

    def __init__(self, a: GaussianInt, b: GaussianInt, c: GaussianInt, d: GaussianInt):
        self._left = (a._re, a._im, b._re, b._im)
        self._right = (c._re, c._im, d._re, d._im)

    @classmethod
    def _of(cls, left: _Half, right: _Half) -> "GoldenCodeword":
        cw = object.__new__(cls)
        cw._left = left
        cw._right = right
        return cw

    @classmethod
    def from_ints(cls, coords: Sequence[int]) -> "GoldenCodeword":
        ar, ai, br, bi, cr, ci, dr, di = coords
        return cls._of((ar, ai, br, bi), (cr, ci, dr, di))

    a = property(lambda self: GaussianInt(self._left[0], self._left[1]))
    b = property(lambda self: GaussianInt(self._left[2], self._left[3]))
    c = property(lambda self: GaussianInt(self._right[0], self._right[1]))
    d = property(lambda self: GaussianInt(self._right[2], self._right[3]))

    def coords(self) -> tuple[GaussianInt, GaussianInt, GaussianInt, GaussianInt]:
        return (self.a, self.b, self.c, self.d)

    @property
    def is_zero(self) -> bool:
        return not any(self._left) and not any(self._right)

    def x0(self) -> GoldenInt:
        return GoldenInt._of(self._left)

    def x1(self) -> GoldenInt:
        return GoldenInt._of(self._right)

    def matrix_times_sqrt5(self) -> tuple[tuple[GoldenInt, GoldenInt], tuple[GoldenInt, GoldenInt]]:
        """The 2x2 codeword matrix without the 1/sqrt5 normalization."""
        m00, m01, m10, m11 = map(GoldenInt._of, _matrix_ints(self))
        return ((m00, m01), (m10, m11))

    # Pickle protocols 0 and 1 refuse a slotted class that has no __reduce__.
    def __reduce__(self) -> tuple:
        return (GoldenCodeword._of, (self._left, self._right))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._left == other._left and self._right == other._right

    def __hash__(self) -> int:
        return hash((self._left, self._right))

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.coords()) + ")"

    def __repr__(self) -> str:
        a, b, c, d = self.coords()
        return f"GoldenCodeword(a={a!r}, b={b!r}, c={c!r}, d={d!r})"


def _matrix_ints(cw: GoldenCodeword) -> tuple[_GoldenInts, _GoldenInts, _GoldenInts, _GoldenInts]:
    """The entries of sqrt5 * X row by row as ints: alpha*x0, alpha*x1,
    i*alphabar*sigma(x1) and alphabar*sigma(x0)."""
    x0, x1 = cw._left, cw._right
    ur, ui, vr, vi = _golden_mul(_ALPHA_BAR, _golden_sigma(x1))
    return (
        _golden_mul(_ALPHA, x0),
        _golden_mul(_ALPHA, x1),
        (-ui, ur, -vi, vr),  # times i
        _golden_mul(_ALPHA_BAR, _golden_sigma(x0)),
    )


def _entry_product(p: _GoldenInts, x: _GoldenInts, q: _GoldenInts, y: _GoldenInts) -> _GoldenInts:
    """(p*x)(q*y), the product of two codeword-matrix entries, each a
    constant times a half: the ``_golden_mul`` kernel written out three
    times over ints, with each product's v1v2 taken once."""
    (ar, ai, br, bi), (ur, ui, vr, vi) = p, x
    wr, wi = br * vr - bi * vi, br * vi + bi * vr
    Ar, Ai = ar * ur - ai * ui + wr, ar * ui + ai * ur + wi
    Br, Bi = ar * vr - ai * vi + br * ur - bi * ui + wr, ar * vi + ai * vr + br * ui + bi * ur + wi
    (ar, ai, br, bi), (ur, ui, vr, vi) = q, y
    wr, wi = br * vr - bi * vi, br * vi + bi * vr
    Gr, Gi = ar * ur - ai * ui + wr, ar * ui + ai * ur + wi
    Hr, Hi = ar * vr - ai * vi + br * ur - bi * ui + wr, ar * vi + ai * vr + br * ui + bi * ur + wi
    wr, wi = Br * Hr - Bi * Hi, Br * Hi + Bi * Hr  # (A + B t)(G + H t)
    return (
        Ar * Gr - Ai * Gi + wr,
        Ar * Gi + Ai * Gr + wi,
        Ar * Hr - Ai * Hi + Br * Gr - Bi * Gi + wr,
        Ar * Hi + Ai * Hr + Br * Gi + Bi * Gr + wi,
    )


def det_numerator(cw: GoldenCodeword) -> GaussianInt:
    """5 * det(X) as a Gaussian integer, from the full symbolic 2x2 expansion.

    The theta-component of the expansion must vanish identically; if it ever
    does not, the codeword parameterization is broken and we raise rather
    than return a truncated value.
    """
    # p = m00*m11; m10 = i*alphabar*sigma(x1), so m01*m10 = i*q with
    # q = (alpha*x1)(alphabar*sigma(x1)), and 5*det(X) = p - i*q
    x0, x1 = cw._left, cw._right
    pr, pi, pvr, pvi = _entry_product(_ALPHA, x0, _ALPHA_BAR, _golden_sigma(x0))
    qr, qi, qvr, qvi = _entry_product(_ALPHA, x1, _ALPHA_BAR, _golden_sigma(x1))
    tr, ti = pvr + qvi, pvi - qvr  # the theta-component of p - i*q
    if tr or ti:
        raise ArithmeticError(
            f"determinant of {cw} has a nonvanishing theta-component {GaussianInt(tr, ti)}"
        )
    return GaussianInt(pr + qi, pi - qr)


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
        return complex(x._u._re, x._u._im) + complex(x._v._re, x._v._im) * t

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


# The residue key of a half is ``_key_mod`` at depth 1 or 2 written out: mod
# (1+i) a Gaussian coordinate leaves the parity of re + im (F4 = F2 + F2*w),
# mod 2 the parities of re and im (F4[i] = F2[i] + F2[i]*w).  The verify claim
# projection_compat checks both keys on a window of Gaussians; the pair
# projections write them out again, once per half.

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
    ar, ai, br, bi = cw._left
    cr, ci, dr, di = cw._right
    return (_ELEMENTS_1PI[(ar + ai) & 1 | ((br + bi) & 1) << 1],
            _ELEMENTS_1PI[(cr + ci) & 1 | ((dr + di) & 1) << 1])


def project_pair_mod_2(cw: GoldenCodeword) -> tuple[RingElement, RingElement]:
    """(x0, x1) reduced coordinatewise into F4[i] (theta -> w).

    Plain coordinate labeling; see project_pair_mod_1pi for the left/right
    twist caveat.  Mod 2 no relabeling makes the projection multiplicative
    (e^2 = i in the algebra but j^2 = 1 in the pair model, and i is not 1
    mod 2); the exact failure locus is certified in verify.
    """
    ar, ai, br, bi = cw._left
    cr, ci, dr, di = cw._right
    return (_ELEMENTS_2[ar & 1 | (ai & 1) << 1 | (br & 1) << 2 | (bi & 1) << 3],
            _ELEMENTS_2[cr & 1 | (ci & 1) << 1 | (dr & 1) << 2 | (di & 1) << 3])


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


def _key_mod(coords: Sequence[int], depth: int) -> int:
    """The residue key of the Gaussian coordinates (re, im, re, im, ...)
    modulo (1+i)^depth: each coordinate's residue in ``depth`` bits, the
    first coordinate lowest.  With depth = 2j + r (r = 0 or 1) and
    t = floor(y / 2^j), x + y*i less the ideal's element 2^j*t*(1+i) is
    (x - 2^j*t) + (y mod 2^j)*i, and 2^(j+r) lies in the ideal: the residue is
    (x - 2^j*t) mod 2^(j+r) in the low j + r bits, y mod 2^j above them."""
    j, r = divmod(depth, 2)
    low, high = (1 << j + r) - 1, (1 << j) - 1
    key = 0
    pairs = reversed(coords)  # (im, re) of each coordinate, the last first
    for y, x in zip(pairs, pairs):
        key = key << depth | (x - (y >> j << j)) & low | (y & high) << j + r
    return key


# What an ideal fixes: the pair ring of the residues (x0bar, x1bar), the half
# key that reads a half's residue from its ints, and the floor on
# m = 5*|det|^2 indexed by n0 | n1 << ring.subring.dim for the norms
# n0 = N(x0bar) and n1 = N(x1bar) in ring.subring.
class _Ideal(NamedTuple):
    ring: QuotientRing
    half_key: Callable[[Sequence[int]], int]
    floors: tuple[int, ...]


# The one table keyed by ideal, and the one floor definition.  Over F2 the
# pair matrix [[a+d, b+c], [b+c+d, a+b+d]] of x0 = a + b*w and x1 = c + d*w
# has determinant N(x0) + N(x1), and a norm of the field F4 is 0 only at 0:
# the floor is 4 on the zero pair, 1 where the norms differ and 2 otherwise.
# Mod 2 it is the class of u = n0 + i*n1.
_IDEALS = {
    "1pi": _Ideal(F4, _half_key_1pi, tuple(map(FLOOR_BY_CLASS.__getitem__, (
        ProjectionClass.ZERO, ProjectionClass.UNIT, ProjectionClass.UNIT, ProjectionClass.NON_UNIT
    )))),
    "2": _Ideal(F4I, _half_key_2, tuple(
        FLOOR_BY_CLASS[_mod2_pair_class(n0, n1)] for n1 in F2I for n0 in F2I
    )),
}
# The pair projections read these, taken out of the records once, and key
# each half with its record's half key written out.
_ELEMENTS_1PI, _ELEMENTS_2 = _IDEALS["1pi"].ring.elements, _IDEALS["2"].ring.elements


def floor_table(ideal: str) -> list[int]:
    """The floor on m = 5*|det|^2 of ideal "1pi" or "2", indexed by residue
    key (4 bits mod (1+i), 8 bits mod 2): the norm-pair floors read through
    the element norms of the pair ring, x1 outer, x0 inner."""
    if ideal not in _IDEALS:
        raise ValueError("ideal must be '1pi' or '2'")
    ring, _, floors = _IDEALS[ideal]
    norms = [quadratic_norm(x).mask for x in ring]
    return [floors[n0 | n1 << ring.subring.dim] for n1 in norms for n0 in norms]


# ----------------------------------------------------------------------
# the algebra product of codewords (e^2 = i)

def golden_pair_mul(x: GoldenCodeword, y: GoldenCodeword) -> GoldenCodeword:
    """Multiply two codewords as algebra elements x0 + e x1, with e^2 = i
    and l e = e sigma(l):

        x y = (x0 y0 + i sigma(x1) y1) + e (sigma(x0) y1 + x1 y0).

    Written out over the 16 ints of the two codewords, sigma included,
    with three Gaussian products per Z[i][theta] product (four in
    ``_golden_mul``); a test checks it against the ``GoldenInt`` route.
    """
    ar, ai, br, bi = x._left
    cr, ci, dr, di = x._right
    er, ei, fr, fi = y._left
    gr, gi, hr, hi = y._right
    # With t^2 = t + 1, (U + V t)(W + X t) = U W + V X + ((U + V)(W + X) - U W) t
    # (Karatsuba).  With x0 = a + b*t, x1 = c + d*t, y0 = e + f*t, y1 = g + h*t
    # and sigma(u + v*t) = (u + v) - v*t, so sigma(x1) = (c + d) - d t:
    #   x0 y0        = a e + b f + ((a + b)(e + f) - a e) t,
    #   sigma(x1) y1 = (c + d) g - d h + (c (g + h) - (c + d) g) t,
    #   sigma(x0) y1 = (a + b) g - b h + (a (g + h) - (a + b) g) t,
    #   x1 y0        = c e + d f + ((c + d)(e + f) - c e) t.
    abr, abi = ar + br, ai + bi
    cdr, cdi = cr + dr, ci + di
    efr, efi = er + fr, ei + fi
    ghr, ghi = gr + hr, gi + hi
    aer, aei = ar * er - ai * ei, ar * ei + ai * er
    cer, cei = cr * er - ci * ei, cr * ei + ci * er
    cdgr, cdgi = cdr * gr - cdi * gi, cdr * gi + cdi * gr
    abgr, abgi = abr * gr - abi * gi, abr * gi + abi * gr
    return GoldenCodeword._of(
        (aer + br * fr - bi * fi - cdgi + dr * hi + di * hr,
         aei + br * fi + bi * fr + cdgr - dr * hr + di * hi,
         abr * efr - abi * efi - aer - cr * ghi - ci * ghr + cdgi,
         abr * efi + abi * efr - aei + cr * ghr - ci * ghi - cdgr),
        (abgr - br * hr + bi * hi + cer + dr * fr - di * fi,
         abgi - br * hi - bi * hr + cei + dr * fi + di * fr,
         ar * ghr - ai * ghi - abgr + cdr * efr - cdi * efi - cer,
         ar * ghi + ai * ghr - abgi + cdr * efi + cdi * efr - cei),
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
#
# The minimum search keys halves by slot: key(a, b) = key(a, 0) ^ key(0, b),
# as each key bit is the parity of coordinates of one slot, so each Gaussian
# coordinate is keyed once per slot.  It needs only the first half of each
# norm and key and pairs each a only with the b completing the wanted key.
# The floor scan keys norms, not halves: the residue of a half's norm is the
# norm of its residue (see the module docstring), and the residue of the norm
# p + q*i is the half key of (p + q*i, 0).  So m and the floor both depend on
# the two half norms alone, and every codeword of a norm pair meets its floor
# or none does.  Both use one more exact fact:
#
# * Signs: N(-h) = N(h), the norm being quadratic, and key(-h) = key(h), as
#   -1 = 1 mod (1+i) and mod 2, so h and -h lie in one coset with one norm.
#   They differ first at the first nonzero coordinate of h, so the first half
#   of each norm is the zero half or has a negative first nonzero coordinate,
#   and only those halves are visited: (2B+1)^4 // 2 + 1 of them.

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


_Norm = tuple[int, int]


def _slot_keys(box: int, half_key: Callable[[Sequence[int]], int]) -> tuple[list[int], list[int]]:
    """``half_key`` of each Gaussian coordinate of the box in the first slot,
    (g, 0), and in the second, (0, g), in lexicographic order."""
    coords = list(itertools.product(range(-box, box + 1), repeat=2))
    return [half_key(g + (0, 0)) for g in coords], [half_key((0, 0) + g) for g in coords]


def _first_halves(box: int, slot_keys: tuple[list[int], list[int]], key: int) -> dict[_Norm, _Half]:
    """The first half (a, b) in lexicographic order of each norm among the
    halves of key ``key``, the key of (a, b) being the first slot key of a
    xor the second slot key of b; the norms keep the order of their first
    halves.  Only the zero half and the halves whose first nonzero
    coordinate is negative are visited (see the block comment above).  All-zero
    slot keys and key 0 give the table of every half."""
    coords = list(itertools.product(range(-box, box + 1), repeat=2))
    zero = len(coords) // 2  # coords[zero] = (0, 0), coords[-1 - j] = -coords[j]
    keys_a, keys_b = slot_keys
    by_key: dict[int, list[tuple[int, int]]] = {}
    for b, k in zip(coords, keys_b):
        by_key.setdefault(k, []).append(b)
    norm = norm_ints
    first: dict[_Norm, _Half] = {}
    for j in range(zero + 1):
        a = coords[j]
        for b in by_key.get(key ^ keys_a[j], ()):
            if j == zero and b > (0, 0):
                break
            h = a + b
            first.setdefault(norm(*h), h)
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
    ring = _IDEALS[ideal].ring
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
    Its tables hold the first half of each norm on each side.  They are
    built from the halves of the coset's key only, keyed once per slot, and
    from one of each pair h, -h (see the block comment above).  The full
    search is key 0 under all-zero slot keys, and one table serves both
    sides when the two half keys agree.
    """
    half_key, bits, key = (lambda h: 0), 0, 0
    if coset is not None:
        if ideal not in _IDEALS:
            raise ValueError("ideal must be '1pi' or '2' when a coset is given")
        ring, half_key, _ = _IDEALS[ideal]
        bits = ring.dim
        key = _coset_key(coset, ideal)
    elif ideal is not None:
        raise ValueError("ideal given without a coset matrix")
    _check_box(box)

    slot_keys = _slot_keys(box, half_key)
    left_key, right_key = key & ((1 << bits) - 1), key >> bits
    left = _first_halves(box, slot_keys, left_key)
    right = left if right_key == left_key else _first_halves(box, slot_keys, right_key)
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
                return Fraction(m, 5), GoldenCodeword._of(h, min(found))


def scan_det_floors(
    ideal: str, box: int = 2
) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """Exhaustive floor check over the box for ideal "1pi" or "2".

    Returns (codewords_checked, violations, per-floor counts).  An empty
    violation list means every floor held; otherwise it holds the first five
    offending coordinate tuples in lexicographic order.

    A codeword's floor is the norm-pair floor of the residues of its two
    half norms, so the scan works on norms alone.  It counts the halves of
    each distinct norm from the zero half and the negative-leading halves
    (see the block comment above) and keys each distinct norm once.  The
    class sizes are products of the per-residue half counts, less the zero
    codeword.  A violation needs m < floor <= 4, so only the right norms on
    the shells t = 0, 1, 2 around each distinct left norm's target are
    probed, each with one table lookup.  Every codeword of a failing norm
    pair fails, so only the halves of those norms are listed, and a heap
    keeps the five least codewords.
    """
    if ideal not in _IDEALS:
        raise ValueError("ideal must be '1pi' or '2'")
    _check_box(box)
    ring, half_key, floors = _IDEALS[ideal]
    shift = ring.subring.dim  # a norm residue is keyed as the first slot of a half
    coords = list(itertools.product(range(-box, box + 1), repeat=2))

    # norm -> its number of halves, from one of each pair h, -h
    zero = len(coords) // 2  # coords[zero] = (0, 0), coords[-1 - j] = -coords[j]
    norm = norm_ints
    halves: dict[_Norm, int] = {}
    for j in range(zero + 1):
        ar, ai = coords[j]
        for br, bi in coords[: zero + 1] if j == zero else coords:
            n = norm(ar, ai, br, bi)
            halves[n] = halves.get(n, 0) + 2
    halves[(0, 0)] -= 1  # the zero half is its own negative
    residues = {n: half_key(n + (0, 0)) for n in halves}

    residue_counts = [0] * (1 << shift)
    for n, count in halves.items():
        residue_counts[residues[n]] += count
    floor_index = {4: 0, 2: 1, 1: 2}
    counts = [0, 0, 0]  # floors 4, 2, 1
    for r0, count_0 in enumerate(residue_counts):
        for r1, count_1 in enumerate(residue_counts):
            counts[floor_index[floors[r0 | r1 << shift]]] += count_0 * count_1
    counts[floor_index[floors[0]]] -= 1  # the zero codeword

    # A floor of at most 4 can only fail below 4: on the shells t = 0, 1, 2
    # (3 is not a sum of two squares); two zero norms at t = 0 are the zero
    # codeword alone.
    near = [(t, dx, dy) for t, offsets in itertools.islice(_offset_shells(), 3) for dx, dy in offsets]
    hits = [  # (left norm, right norm) of the pairs whose codewords all fail
        ((p, q), n)
        for (p, q), r0 in residues.items()
        for t, dx, dy in near
        if (r1 := residues.get(n := (q + dx, dy - p))) is not None
        and t < floors[r0 | r1 << shift]
        and (t or p or q)
    ]

    violations = []
    if hits:  # the rare path: the halves of the hit norms, in lexicographic order
        wanted = {n for hit in hits for n in hit}
        groups: dict[_Norm, list[_Half]] = {}
        for h in itertools.product(range(-box, box + 1), repeat=4):
            if (n := norm(*h)) in wanted:
                groups.setdefault(n, []).append(h)
        violations = heapq.nsmallest(5, (
            h + r for left, right in hits for h in groups[left] for r in groups[right]
        ))
    return len(coords) ** 4 - 1, violations, counts
