"""mmslab: invariants of finite metric measure spaces, box-distance bounds,
Lipschitz-order search, 1-D spectral constants, and atom-vector algebra."""

from .core import (
    Coupling,
    FinitePmSpace,
    InputError,
    InvalidSpaceError,
    LipschitzFunction,
    SizeLimitError,
    Violation,
    as_lipschitz,
    check_valid,
    entropy,
    from_json_dict,
    ky_fan,
    load_space,
    mcshane_extend,
    mm_isomorphic,
    product,
    prokhorov,
    save_space,
    scale,
    space,
    to_json_dict,
    total_variation,
    validate,
)
from .observables import (
    gaussian_obs_diam,
    obs_diam,
    obs_diam_projection_estimate,
    p_deviation,
    p_variance,
    partial_diameter,
    separation,
    separation_witness,
    variance,
)
from .boxmetric import BoxEstimate, box_converges, box_exact_small, box_lower, box_upper
from .order import DominationWitness, Refusal, antisymmetry_check, dominates, generator_idempotent
from .atoms import (
    AtomAssignment,
    AtomVector,
    atom_product,
    detect_dissipation,
    is_contraction,
    member,
    pyramid_distance_upper,
    sort_atoms,
    truncate,
)
from .functional import (
    GridSpace1D,
    gaussian_domination_scale,
    gaussian_grid,
    log_sobolev_check,
    poincare_c22,
    poincare_pq_lower,
    unit_interval_grid,
)

__version__ = "0.1.0"
