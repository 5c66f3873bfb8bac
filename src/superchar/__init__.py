"""Exact highest-weight combinatorics for gl(m|n)."""

from .rootdata import (
    Atypicality,
    EnumerationBound,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    WeylElt,
    atypicality,
    ber,
    classify,
    dot_action,
    encode,
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
    distinguished,
    enumerate_borels,
    odd_reflection,
)
from .charring import (
    ConsistencyError,
    DepthError,
    FormalChar,
    PackingError,
    char_even_simple,
    char_kac,
    char_narrow,
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
    e_g1_apply,
    narrow_image_dims,
    primitive_space_dim,
    singular_vector_even,
    supercommutator,
)
from .bggcheck import (
    EulerReport,
    euler_check,
    character_shift_sweep,
    small_rank_exactness,
)
