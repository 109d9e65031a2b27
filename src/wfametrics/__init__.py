"""Weighted finite automata over the reals: bisimulation, certified metrics,
joint-spectral-radius bounds, spectral learning, and UMDP values."""

from .core import (
    Wfa,
    as_word,
    difference,
    evaluate,
    format_word,
    load_wfa,
    reverse,
    save_wfa,
    wfa_from_dict,
    wfa_to_dict,
    with_final,
    with_initial,
)
from .bisim import (
    Subspace,
    is_observable,
    is_reachable,
    largest_bisimulation,
    minimize,
    reachable_subspace,
    states_bisimilar,
)
from .jsr import (
    JsrBounds,
    hausdorff_distance,
    is_irreducible,
    jsr_bounds,
    wfa_irreducible,
    wfa_spectral_radius,
)
from .metric import (
    CannotCertifyError,
    CertifiedInterval,
    TailBoundParams,
    admissible_gamma_bound,
    compute_tail_params,
    distance,
    distance_upper_bound,
    parameter_continuity_experiment,
    seminorm_interval,
    truncated_seminorm,
)
from .learn import (
    HankelBlock,
    basis_is_complete,
    hankel_from_wfa,
    perturbation_experiment,
    spectral_learn,
)
from .umdp import (
    Umdp,
    load_umdp,
    save_umdp,
    umdp_sup_value_interval,
    umdp_to_wfa,
    umdp_value_truncated,
)

__version__ = "0.1.0"
