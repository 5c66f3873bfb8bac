"""Exact highest-weight combinatorics for gl(m|n)."""

from .rootdata import (
    Atypicality,
    Coords,
    EnumerationBound,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    WeylElt,
    atypicality,
    ber,
    classify,
    decode,
    dot_action,
    encode,
    orbit_extremes,
    pairing,
    rho,
    rho_b,
    weight_from_blocks,
    weight_from_coords,
    weyl_group,
    weyl_window,
)
from .borels import (
    BorelElt,
    OddReflectionEdge,
    antidistinguished,
    borel,
    borel_graph,
    convert,
    distinguished,
    enumerate_borels,
    odd_reflection,
)
from .charring import (
    ConsistencyError,
    DepthError,
    FormalChar,
    char_even_simple,
    char_kac,
    char_narrow,
    char_restriction_decomposition,
    char_simple_td,
    char_verma,
    monomial,
)
from .diagrams import (
    WeightDiagram,
    is_g1_generic,
    is_totally_disconnected,
    weight_diagram,
)
from .vermacalc import (
    VermaElement,
    VermaModule,
    bgg_square_check,
    e_g1_apply,
    eg1_order_independence,
    narrow_image_dims,
    primitive_space_dim,
    singular_vector_even,
    supercommutator,
)
from .bggcheck import (
    EulerReport,
    complex_shape,
    euler_check,
    character_shift_sweep,
    restriction_check,
    small_rank_exactness,
)
