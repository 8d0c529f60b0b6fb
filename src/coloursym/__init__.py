"""Edge-coloured complete graphs, their colour symmetries, and the spin
double covers of symmetric groups that supply those symmetries."""

from .equivariant import (
    ColourGroupReport,
    FiniteGroup,
    FixedPointFreeInvolution,
    OrbitGraphSpec,
    PairColouring,
    action_vertex_perm,
    assemble_orbit_graph,
    build_pair_colouring,
    group_from_perms,
    make_orbit_spec,
    pair_colour,
    sym_complement,
    verify_colour_group,
)
from .graphs import (
    ColouredGraph,
    ObstructionReport,
    PartialIso,
    WitnessMissingError,
    check_no_fpf_colour_involution,
    embed,
    extend_iso,
    find_witness,
    is_colour_consistent,
    random_graph,
    saturate,
    witness_queries,
)
from .perms import (
    Perm,
    apply,
    compose,
    cycle_type,
    double_coset_lower_bound,
    enumerate_sym,
    fixed_points,
    identity,
    inverse,
    is_involution,
)
from .spin import (
    CoverKind,
    PinElement,
    SpinCover,
    blade_mul,
    enumerate_cover,
    lift,
    order,
    order_rule_table,
    pin_mul,
)

__version__ = "0.1.0"
