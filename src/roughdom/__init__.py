"""Finite-scale workbench for order-theoretic domains built from
rough-set approximation spaces.

The library represents finite posets, generalized approximation spaces,
consistent-family (CF) spaces with their closed-set domains, morphism
relations between spaces, and the witness structures that tie the
closed-set domains to the finitely-separating / kernel-operator side of
domain theory.  Every construction is executable and checkable at desk
scale; nothing is assumed that is not re-verified.

Note: every finite poset is trivially a domain of the strongest kind
considered here, so the classification predicates are witness-producing
rather than discriminating; the value of the library is in running the
constructions and their round trips, not in separating examples.
"""

from .config import DEFAULT_CONFIG, RunConfig
from .errors import RoughdomError
from .poset import (
    FinitePoset,
    MonotoneMap,
    compacts,
    compose_maps,
    find_cofinal_part,
    identity_map,
    interpolate,
    is_algebraic_domain,
    is_approximate_identity,
    is_continuous_domain,
    is_directed,
    is_finitely_separating,
    is_kernel_operator,
    is_scott_continuous,
    is_separating_witness,
    monotone_maps,
    order_isomorphism,
    pointwise_sup,
    supremum,
    verify_bf_domain_witness,
    verify_fs_domain_witness,
    way_below,
    way_down,
)
from .gaspace import (
    GASpace,
    lower_approx,
    predecessors,
    relation_properties,
    successors,
    upper_approx,
)
from .cfspace import (
    CFSpace,
    ClosedSetPoset,
    cf_closed_sets,
    is_cf_closed,
    is_topological_cf,
    validate_cf,
    way_below_closed,
)
from .relation import (
    ApproximableRelation,
    compose,
    equivalent_forms,
    from_map,
    identity_relation,
    to_map,
    validate_approximable,
    validate_topological_approximable,
)
from .witness import (
    TBSelector,
    WitnessFamily,
    apply_selector,
    check_fs1,
    check_fs2,
    check_fs2_strong,
    check_tb,
    classify_space,
    default_witness,
    delta_family,
    delta_k,
    search_tb_selector,
    theta_from_tb,
)
from .represent import (
    InducedSpace,
    closed_sets_iso,
    fs_witness_from_domain,
    induce_cf_from_poset,
    induce_topcf_from_algebraic,
    map_from_omega,
    omega_from_map,
    space_self_iso,
    tb_witness_from_bf,
)
from .category import (
    check_equivalence_evidence,
    check_functor_laws,
    phi_morphism,
    psi_morphism,
)

__version__ = "0.1.0"
