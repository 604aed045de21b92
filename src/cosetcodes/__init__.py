"""Exact arithmetic for coset space-time codes over small finite rings.

The package splits into: ring/matrix arithmetic (``rings``, ``matrices``),
cyclic-algebra structure and its literal matrix models (``cyclic``), the
golden code with exact determinants and coset projections (``golden``),
outer codes and weights (``outer_codes``), exact bound formulas (``bounds``),
and the brute-force certification oracles behind every numeric claim
(``verify``).  The ``cosetcodes`` command line fronts all of it.

``import cosetcodes`` loads none of these submodules.  Each one is imported
the first time one of its names (or the submodule itself) is read from the
package (PEP 562), so a caller compiles only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# The public names, grouped by the submodule that defines them; the order
# is the order of __all__.
_NAMES_BY_MODULE = {
    "bounds": (
        "SQRT2",
        "SqrtVal",
        "bachoc_bound",
        "gv_bound",
        "hamming_bound",
        "hamming_bound_m2f2i",
        "multilevel_bound_m4",
        "multilevel_min_m2f2i",
        "multilevel_min_m4",
        "multilevel_rate_m4",
        "normalized_redundancy",
        "rate_m2f2i",
    ),
    "cyclic": (
        "CyclicElement",
        "iso_f16_to_m4",
        "iso_f8_to_m3",
        "matrix_to_pair",
        "multiplication_matrix",
        "pair_to_matrix",
        "regular_representation",
        "twisted_pair_mul",
    ),
    "golden": (
        "GaussianInt",
        "GoldenCodeword",
        "GoldenInt",
        "ProjectionClass",
        "abs_det_sq",
        "classify_projection",
        "golden_norm",
        "min_abs_det_sq",
        "project_mod_1pi",
        "project_mod_2",
        "scan_det_floors",
    ),
    "matrices": ("RingMatrix", "all_matrices", "count_invertible"),
    "outer_codes": (
        "LinearCode",
        "MatrixSpace",
        "WeightKind",
        "dual_repetition_code",
        "hexacode",
        "inner_parity_pair_code",
        "lee_weight",
        "lift_code",
        "min_distance",
        "named_code",
        "pushforward_pairs",
        "reed_solomon_code",
        "rs_distance_certificate",
    ),
    "rings": (
        "F2",
        "F2I",
        "F4",
        "F4I",
        "F8",
        "F16",
        "F16_ALT",
        "QuotientRing",
        "RingElement",
        "get_ring",
        "quadratic_norm",
    ),
    "verify": ("OracleReport", "brute_delta_min", "run_all", "run_claim"),
}
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}
_SUBMODULES = (*_NAMES_BY_MODULE, "cli")

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule also binds it on the package.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
