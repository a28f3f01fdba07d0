"""mmslab: invariants of finite metric measure spaces, box-distance bounds,
Lipschitz-order search, 1-D spectral constants, and atom-vector algebra.

The public names below are imported from their module on first access
(PEP 562), so ``import mmslab`` loads neither numpy nor any submodule; the
command line imports only what its command runs.
"""

import importlib

# module -> the public names it exports
_EXPORTS = {
    "core": (
        "Coupling",
        "FinitePmSpace",
        "InputError",
        "InvalidSpaceError",
        "LipschitzFunction",
        "SizeLimitError",
        "Violation",
        "as_lipschitz",
        "check_valid",
        "entropy",
        "from_json_dict",
        "ky_fan",
        "load_space",
        "mcshane_extend",
        "mm_isomorphic",
        "product",
        "prokhorov",
        "save_space",
        "scale",
        "space",
        "to_json_dict",
        "total_variation",
        "validate",
    ),
    "observables": (
        "gaussian_obs_diam",
        "obs_diam",
        "obs_diam_projection_estimate",
        "p_deviation",
        "p_variance",
        "partial_diameter",
        "separation",
        "separation_witness",
        "variance",
    ),
    "boxmetric": ("BoxEstimate", "box_converges", "box_exact_small", "box_lower", "box_upper"),
    "order": ("DominationWitness", "Refusal", "antisymmetry_check", "dominates",
              "generator_idempotent"),
    "atoms": (
        "AtomAssignment",
        "AtomVector",
        "atom_product",
        "detect_dissipation",
        "is_contraction",
        "member",
        "pyramid_distance_upper",
        "sort_atoms",
        "truncate",
    ),
    "functional": (
        "GridSpace1D",
        "gaussian_domination_scale",
        "gaussian_grid",
        "log_sobolev_check",
        "poincare_c22",
        "poincare_pq_lower",
        "unit_interval_grid",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached here: each access reads the module's current binding, so a
    # function replaced in its module (as perfbench's tracer does) reads as
    # replaced here too.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
