"""Orchestrated cross-checks of the character and Verma-module machinery.

The headline check compares the alternating sum of narrow characters
over the Weyl group with the closed simple-module character, exactly,
coefficient by coefficient on a truncation window.  For the rank-one
Weyl groups the narrow resolution is also verified at the level of
weight-space ranks.  Exactness of the full complex beyond rank one is
certified only at this Euler-characteristic level; every report says
so.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import diagrams
from .borels import enumerate_borels
from .charring import (
    FormalChar,
    char_even_verma,
    char_narrow,
    char_simple_td,
    char_verma,
    zero_char,
)
from .rootdata import (
    ConsistencyError,
    RankProfile,
    Weight,
    atypicality,
    basis_weight,
    classify,
    dot_action,
    encode,
    even_positive_roots,
    odd_positive_roots,
    reflection,
    rho,
    rho_b,
    weyl_group,
)
from .vermacalc import (
    antidistinguished_module,
    cone_weights_below,
    coroot_pairing,
    narrow_image_dims,
    submodule_weight_ranks,
    _odd_product_pairs,
)

EULER_SCOPE_NOTE = (
    "full exactness is certified only at Euler-characteristic level for Weyl "
    "groups of order > 2"
)


@dataclass
class EulerReport:
    lam: Weight
    depth: int
    lhs: FormalChar
    rhs: FormalChar
    equal: bool
    first_discrepancy: tuple | None
    note: str = EULER_SCOPE_NOTE

    def to_json_obj(self) -> dict:
        detail = {"note": self.note}
        if self.first_discrepancy is not None:
            w, a, b = self.first_discrepancy
            detail["first_discrepancy"] = {
                "weight": list(w.coeffs),
                "lhs": str(a),
                "rhs": str(b),
            }
        return {
            "check": "euler",
            "profile": [self.lam.profile.m, self.lam.profile.n],
            "lambda_coords": list(encode(self.lam).values),
            "depth": self.depth,
            "pass": self.equal,
            "details": detail,
        }


def euler_check(lam: Weight, depth: int) -> EulerReport:
    """Alternating narrow-character sum against the closed simple character."""
    flags = classify(lam)
    if not flags.dominant:
        raise ValueError(f"{lam} is not dominant")
    if not diagrams.is_g1_generic(lam):
        raise ValueError(f"{lam} is not g_-1-generic")
    p = lam.profile
    lhs = zero_char(p, lam, depth)
    for w in weyl_group(p):
        nu = dot_action(w, lam)
        sub_depth = depth - (lam.xi - nu.xi)
        if sub_depth < 0:
            continue
        lhs = lhs + char_narrow(nu, sub_depth, warn=False).scale(w.sign)
    rhs = char_simple_td(lam, depth)
    equal = lhs.equals(rhs)
    return EulerReport(lam, depth, lhs, rhs, equal, lhs.first_discrepancy(rhs))


@dataclass(frozen=True)
class ComplexShape:
    ranks_by_degree: tuple[int, ...]


def complex_shape(profile: RankProfile) -> ComplexShape:
    """Number of Weyl elements per length: the widths of the narrow complex."""
    lengths = [w.length for w in weyl_group(profile)]
    top = max(lengths)
    return ComplexShape(tuple(lengths.count(k) for k in range(top + 1)))


def length_generating_polynomial(profile: RankProfile) -> tuple[int, ...]:
    """Product of the two factorial-type length generating functions."""

    def poly_for(k: int) -> list[int]:
        out = [1]
        for step in range(2, k + 1):
            factor = [1] * step
            new = [0] * (len(out) + len(factor) - 1)
            for a, ca in enumerate(out):
                for b, cb in enumerate(factor):
                    new[a + b] += ca * cb
            out = new
        return out

    pm, pn = poly_for(profile.m), poly_for(profile.n)
    prod = [0] * (len(pm) + len(pn) - 1)
    for a, ca in enumerate(pm):
        for b, cb in enumerate(pn):
            prod[a + b] += ca * cb
    return tuple(prod)


@dataclass
class SweepReport:
    profile: RankProfile
    pairs_checked: int
    equalities_passed: int
    top_coeff_checks: int
    mismatches_tried: int
    mismatches_detected: int
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "check": "character_shift_sweep",
            "profile": [self.profile.m, self.profile.n],
            "lambda_coords": None,
            "depth": None,
            "pass": self.passed,
            "details": {
                "pairs_checked": self.pairs_checked,
                "equalities_passed": self.equalities_passed,
                "top_coeff_checks": self.top_coeff_checks,
                "mismatches_tried": self.mismatches_tried,
                "mismatches_detected": self.mismatches_detected,
            },
        }


def character_shift_sweep(
    profile: RankProfile,
    trials: int = 5,
    depth: int = 6,
    seed: int = 0,
    mismatches: int = 10,
) -> SweepReport:
    """Verma characters shifted by their own rho-vector agree for every
    ordered pair of Borels; deliberately mis-shifted pairs must differ."""
    rng = random.Random(seed)
    borels = enumerate_borels(profile)

    def random_weight():
        return Weight(
            profile, tuple(rng.randint(-5, 5) for _ in range(profile.dim))
        )

    pairs = equal_ok = coeff_ok = 0
    passed = True
    lams = [random_weight() for _ in range(trials)]
    for lam in lams:
        charts = {b: char_verma(b, lam - rho_b(b), depth) for b in borels}
        for b in borels:
            for b2 in borels:
                pairs += 1
                if charts[b].equals(charts[b2]):
                    equal_ok += 1
                else:
                    passed = False
                # the one-dimensional slot at lam - rho^b, when in window
                target = lam - rho_b(b)
                if target.xi >= charts[b2].floor:
                    coeff_ok += 1
                    if charts[b2].coeff(target) != 1:
                        passed = False
    detected = 0
    tried = 0
    shift = basis_weight(profile, 1)
    while tried < mismatches:
        lam = random_weight()
        b, b2 = rng.choice(borels), rng.choice(borels)
        tried += 1
        a = char_verma(b, lam - rho_b(b), depth)
        c = char_verma(b2, lam + shift - rho_b(b2), depth)
        if not a.equals(c):
            detected += 1
    if detected != mismatches:
        passed = False
    return SweepReport(profile, pairs, equal_ok, coeff_ok, tried, detected, passed)


def restriction_check(lam: Weight, depth: int) -> bool:
    """Narrow character as the sum of even Verma characters over subsets of
    the non-atypical odd positive roots."""
    if not diagrams.is_g1_generic(lam):
        raise ValueError(f"{lam} is not g_-1-generic")
    p = lam.profile
    gamma = atypicality(lam).gamma
    usable = [beta for beta in odd_positive_roots(p) if beta not in gamma]
    floor = lam.xi - depth
    total = zero_char(p, lam, depth)
    for size in range(len(usable) + 1):
        for subset in itertools.combinations(usable, size):
            nu = lam
            for beta in subset:
                nu = nu - beta.as_weight()
            if nu.xi >= floor:
                total = total + char_even_verma(nu, nu.xi - floor)
    return char_narrow(lam, depth, warn=False).equals(total)


@dataclass
class ExactnessReport:
    lam: Weight
    depth: int
    passed: bool
    injective: bool
    cokernel_matches: bool
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "check": "small_rank_exactness",
            "profile": [self.lam.profile.m, self.lam.profile.n],
            "lambda_coords": list(encode(self.lam).values),
            "depth": self.depth,
            "pass": self.passed,
            "details": {
                "injective": self.injective,
                "cokernel_matches": self.cokernel_matches,
                **self.details,
            },
        }


def small_rank_exactness(lam: Weight, depth: int) -> ExactnessReport:
    """Rank bookkeeping of the two-step narrow resolution for |W| = 2.

    Per window weight: the embedded image of the lower narrow module has
    the same dimension as the module itself (injectivity), and the
    codimension inside the upper narrow module equals the simple
    character's coefficient (the cokernel is the simple module).
    """
    p = lam.profile
    if (p.m, p.n) not in {(2, 1), (1, 2)}:
        raise ValueError("rank bookkeeping is implemented for |W| = 2 profiles only")
    flags = classify(lam)
    if not (flags.regular and flags.dominant):
        raise ValueError(f"{lam} must be regular dominant")
    if not diagrams.is_g1_generic(lam):
        raise ValueError(f"{lam} is not g_-1-generic")

    alpha = next(a for a in even_positive_roots(p))
    s = reflection(alpha)
    k = coroot_pairing(lam + rho(p), alpha)
    if k <= 0:
        raise ConsistencyError(f"coroot pairing {k} of a regular dominant weight is not positive")

    chi = char_simple_td(lam, depth)
    big = narrow_image_dims(lam, depth)

    module = antidistinguished_module(lam)
    slot = module.neg_index[(alpha.j, alpha.i)]
    mono = list(module.zero_mono)
    mono[slot] = k
    embedded = module.apply_word(_odd_product_pairs(p), module.element({tuple(mono): 1}))
    image = submodule_weight_ranks(module, [embedded], lam, depth)

    s_lam = dot_action(s, lam)
    sub_depth = depth - (lam.xi - s_lam.xi)
    small = narrow_image_dims(s_lam, sub_depth) if sub_depth >= 0 else {}

    injective = True
    cokernel = True
    for nu in cone_weights_below(lam, depth):
        if image.get(nu, 0) != small.get(nu, 0):
            injective = False
        if big.get(nu, 0) - image.get(nu, 0) != chi.coeff(nu):
            cokernel = False
    return ExactnessReport(
        lam,
        depth,
        injective and cokernel,
        injective,
        cokernel,
        {"reflection_power": k},
    )
