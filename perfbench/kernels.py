"""Kernel rates: short timed loops over fixed inputs, one per layer kernel.

Inputs come from a fixed private seed, never from the workload seed, so a
rate compares only the code.  Each rate is operations per second over the
median of ``REPEATS`` timed loops; loop overhead is included and identical on
both sides of a comparison.  Which workload's ``wall_ref_s`` a rate should move:

* ``rings.*``: ``certify`` and ``codes``;
* ``matrices.*``, ``cyclic.*``, ``bounds.*``: ``certify`` (2x2 det and
  ``pair_to_matrix`` also ``codes``, through the pair and lift codes);
* ``golden.det_sq_times5_per_s``: ``golden_min`` and ``golden_floors``;
* ``outer_codes.*``: ``codes``.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from fractions import Fraction
from typing import Any, Callable

REPEATS = 5


def _pairs(ring: Any) -> list[tuple[Any, Any]]:
    return list(itertools.product(ring.elements, repeat=2))


def _binary_matrices(cc: Any, rng: random.Random, n: int, count: int) -> list[Any]:
    return [
        cc.RingMatrix.from_masks(cc.F2, [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)])
        for _ in range(count)
    ]


def _kernels(cc: Any) -> dict[str, tuple[Callable[[], Any], int]]:
    """metric name -> (loop, operations per loop)."""
    rng = random.Random(0)
    out: dict[str, tuple[Callable[[], Any], int]] = {}

    for label, ring, reps in (("f4", cc.F4, 4000), ("f16", cc.F16, 300), ("f4i", cc.F4I, 300)):
        pairs = _pairs(ring) * reps
        out[f"rings.mul_per_s.{label}"] = (lambda p=pairs: [x * y for x, y in p], len(pairs))
    pairs = _pairs(cc.F16) * 300
    out["rings.add_per_s.f16"] = (lambda p=pairs: [x + y for x, y in p], len(pairs))

    for n, count in ((2, 1500), (3, 1000), (4, 400)):
        mats = _binary_matrices(cc, rng, n, count + 1)
        out[f"matrices.mul_per_s.n{n}"] = (
            lambda m=mats: [a * b for a, b in zip(m, m[1:])],
            count,
        )
    for n, count in ((2, 10000), (4, 1500)):
        mats = _binary_matrices(cc, rng, n, count)
        out[f"matrices.det_per_s.n{n}"] = (lambda m=mats: [a.det() for a in m], len(mats))

    pairs = (_pairs(cc.F4) + _pairs(cc.F4I)) * 15
    out["cyclic.pair_to_matrix_per_s"] = (
        lambda p=pairs: [cc.pair_to_matrix(x, y) for x, y in p],
        len(pairs),
    )
    f16 = [cc.CyclicElement(cc.F16_ALT, rng.choices(cc.F16_ALT.elements, k=4)) for _ in range(20)]
    out["cyclic.iso_f16_to_m4_per_s"] = (lambda xs=f16: [cc.iso_f16_to_m4(x) for x in xs], len(f16))
    f8 = [cc.CyclicElement(cc.F8, rng.choices(cc.F8.elements, k=3)) for _ in range(1000)]
    out["cyclic.regular_rep_per_s"] = (
        lambda xs=f8: [cc.regular_representation(x) for x in xs],
        len(f8),
    )

    coords = [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(15000)]
    det = cc.golden.det_sq_times5
    out["golden.det_sq_times5_per_s"] = (lambda cs=coords: [det(c) for c in cs], len(coords))

    def sqrtval() -> Any:
        return cc.SqrtVal(Fraction(rng.randint(-40, 40), 5), Fraction(rng.randint(-40, 40), 5), 5)

    vals = [(sqrtval(), sqrtval()) for _ in range(1000)]
    out["bounds.sqrtval_cmp_per_s"] = (lambda vs=vals: [a < b for a, b in vs], len(vals))

    rs = cc.outer_codes.reed_solomon_code(4)
    messages = [tuple(rng.choices(cc.F16.elements, k=4)) for _ in range(400)]
    out["outer_codes.encode_per_s"] = (
        lambda ms=messages: [rs.encode(m) for m in ms],
        len(messages),
    )
    pairs = _pairs(cc.F4I) * 40
    lee = cc.lee_weight
    out["outer_codes.lee_weight_per_s"] = (lambda p=pairs: [lee(x, y) for x, y in p], len(pairs))
    return out


def measure(cc: Any) -> dict[str, float]:
    """Operations per second for every kernel, by metric name."""
    rates = {}
    for name, (loop, ops) in _kernels(cc).items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
        rates[name] = ops / statistics.median(times)
    return rates
