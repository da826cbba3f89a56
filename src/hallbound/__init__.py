"""Finite permutation groups: invariants and Hall-subgroup height bounds.

The package computes structural invariants of finite permutation groups --
radicals, the generalized Fitting series, p-length, the p-kernel series and
the non-p-soluble length -- searches for Hall subgroups, and machine-checks
the inequalities relating the non-p-soluble length of a group to the
generalized Fitting height and 2-length of its Hall subgroups.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CapExceeded,
    DegreeMismatch,
    GroupError,
    PreconditionError,
    SubgroupError,
)
from .perm import Permutation, format_cycles, parse_cycles
from .group import (
    PermGroup,
    StabChain,
    center,
    centralizer,
    commutator_subgroup,
    conjugate_subgroup,
    derived_subgroup,
    intersection,
    is_normal,
    minimal_block_system,
    normal_closure,
    pointwise_stabilizer,
    span,
)
from .primes import PrimeSet, factorize, is_prime, prime_divisors
from .quotient import QuotientMap, factor_group, quotient_by
from .structure import (
    SocleDecomposition,
    derived_series,
    is_nilpotent,
    is_simple,
    is_soluble,
    lower_central_series,
    minimal_normal_subgroups,
    socle,
)
from .radicals import (
    HeightCertificate,
    fitting_height,
    fitting_subgroup,
    generalized_fitting_height,
    generalized_fitting_subgroup,
    is_p_soluble,
    layer,
    p_core,
    p_length,
    p_length_value,
    p_prime_core,
    p_soluble_radical,
    pi_core,
    soluble_radical,
    sylow_subgroup,
)
from .length import (
    KernelLemmaReport,
    KernelSeries,
    check_kernel_lemma,
    kernel_series,
    non_p_soluble_length,
    p_kernel,
)
from .hall import (
    HallSearchResult,
    HeredityReport,
    check_hall_heredity,
    confirm_no_nilpotent_hall_2p,
    find_hall_subgroup,
    is_hall_subgroup,
)
from .corpus import (
    alternating_group,
    closed_form_order,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_file,
    group_from_spec,
    make_named,
    projective_special_linear_group,
    special_linear_group,
    suite_specs,
    symmetric_group,
    wreath_product,
)
from .verify import (
    ChainCheck,
    CorollaryCheck,
    InvariantReport,
    TheoremCheck,
    compute_invariant_report,
    revalidate,
    valid_instances,
    validate_hypotheses,
    verify_corollary,
    verify_proposition_chain,
    verify_theorem,
)

__version__ = "1.0.0"


def clear_caches() -> None:
    """Empty every memo of the package, which a caller that changes
    HALLBOUND_CAP does: memos are keyed by their arguments, not the cap."""
    modules = [m for m in globals().values() if isinstance(m, _ModuleType)]
    for memo in [f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")]:
        memo.cache_clear()


# every public name above except the submodules, which the imports bind too
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
