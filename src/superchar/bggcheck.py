"""Orchestrated cross-checks of the character and Verma-module machinery.

The headline check compares the alternating sum of narrow characters
over the Weyl group with the closed simple-module character
`char_simple_td`, exactly, coefficient by coefficient on a truncation
window; it is the one place where the two are compared.  For the rank-one
Weyl groups the narrow resolution is also verified at the level of
weight-space ranks.  Exactness of the full complex beyond rank one is
certified only at this Euler-characteristic level; every report says
so.  Each check is written here once: `superchar suite` runs the `SUITE`
table, and the acceptance tests call the same functions.
"""

from __future__ import annotations

import itertools
import math
import random

from . import diagrams
from .borels import borel_graph, distinguished, enumerate_borels
from .charring import (
    FormalChar,
    char_narrow,
    char_simple_td,
    char_verma,
    weyl_sum,
)
from .rootdata import (
    RankProfile,
    Record,
    Root,
    Weight,
    basis_weight,
    classify,
    dot_action,
    encode,
    even_positive_roots,
    reflection,
    rho_b,
    weight_from_blocks,
    weight_from_coords,
)
from .vermacalc import (
    VermaModule,
    antidistinguished_module,
    cone_weights_below,
    e_g1_apply,
    narrow_image_dims,
    primitive_space_dim,
    singular_vector_even,
    submodule_weight_ranks,
)

SWEEP_MISMATCHES = 10

EULER_SCOPE_NOTE = (
    "full exactness is certified only at Euler-characteristic level for Weyl "
    "groups of order > 2"
)


def _report_obj(check: str, lam: Weight, depth: int, passed: bool, details: dict) -> dict:
    """The JSON shape of a check run at one weight and depth."""
    return {"check": check, "profile": [lam.profile.m, lam.profile.n],
            "lambda_coords": list(encode(lam)), "depth": depth,
            "pass": passed, "details": details}


class _Report(Record):
    """A mutable, unhashable `Record`: the result of one check."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class EulerReport(_Report):
    """lhs is the Euler characteristic of the narrow resolution, each
    summand `char_narrow` with its own quotient/product check; rhs is the
    closed prefactor form of the simple character, `char_simple_td`."""

    __slots__ = ("lam", "depth", "lhs", "rhs", "equal", "first_discrepancy", "note")

    def __init__(self, lam: Weight, depth: int, lhs: FormalChar, rhs: FormalChar, equal: bool,
                 first_discrepancy: tuple | None, note: str = EULER_SCOPE_NOTE):
        self.lam = lam
        self.depth = depth
        self.lhs = lhs
        self.rhs = rhs
        self.equal = equal
        self.first_discrepancy = first_discrepancy
        self.note = note

    def to_json_obj(self) -> dict:
        detail = {"note": self.note}
        if self.first_discrepancy is not None:
            w, a, b = self.first_discrepancy
            detail["first_discrepancy"] = {
                "weight": list(w.coeffs),
                "lhs": str(a),
                "rhs": str(b),
            }
        return _report_obj("euler", self.lam, self.depth, self.equal, detail)


def euler_check(lam: Weight, depth: int) -> EulerReport:
    """The Euler characteristic of the narrow resolution, sum over the Weyl
    window of sign(w) ch N(w.lam) (lhs), against the closed prefactor form
    `char_simple_td` (rhs), on the window below lam."""
    if not diagrams.is_g1_generic(lam):
        raise ValueError(f"{lam} is not g_-1-generic")
    rhs = char_simple_td(lam, depth)
    lhs = weyl_sum(lam, depth, lambda nu, d: char_narrow(nu, d, warn=False))
    equal = lhs.equals(rhs)
    return EulerReport(lam, depth, lhs, rhs, equal, None if equal else lhs.first_discrepancy(rhs))


class SweepReport(_Report):
    __slots__ = ("profile", "pairs_checked", "equalities_passed", "top_coeff_checks",
                 "mismatches_tried", "mismatches_detected", "passed")

    def __init__(self, profile: RankProfile, pairs_checked: int, equalities_passed: int,
                 top_coeff_checks: int, mismatches_tried: int, mismatches_detected: int,
                 passed: bool):
        self.profile = profile
        self.pairs_checked = pairs_checked
        self.equalities_passed = equalities_passed
        self.top_coeff_checks = top_coeff_checks
        self.mismatches_tried = mismatches_tried
        self.mismatches_detected = mismatches_detected
        self.passed = passed

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
) -> SweepReport:
    """Verma characters shifted by their own rho-vector agree for every
    ordered pair of Borels; SWEEP_MISMATCHES deliberately mis-shifted pairs
    must differ.

    `char_verma(b, mu)` is a new top, mu + rho^b - rho, over the cached
    store of ch M(0), so with mu = lam - rho^b every chart of a trial is
    that one store under the top lam - rho, and the pair equalities hold
    by construction: each takes the series ring's equal-top path, which
    re-keys nothing and costs one identity check per level, and they
    check neither rho^b nor the series ring.  What checks more is the
    coefficient 1 of every chart at each lam - rho^b, the mismatches, and
    `verma_count_check`, which counts PBW monomials on its own route.
    """
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
        shifted = [lam - rho_b(b) for b in borels]
        charts = [char_verma(b, mu, depth) for b, mu in zip(borels, shifted)]
        for mu, chart in zip(shifted, charts):
            for chart2 in charts:
                pairs += 1
                if chart.equals(chart2):
                    equal_ok += 1
                else:
                    passed = False
                # the one-dimensional slot at lam - rho^b, when in window
                if mu.xi >= chart2.floor:
                    coeff_ok += 1
                    if chart2.coeff(mu) != 1:
                        passed = False
    detected = 0
    tried = 0
    shift = basis_weight(profile, 1)
    while tried < SWEEP_MISMATCHES:
        lam = random_weight()
        b, b2 = rng.choice(borels), rng.choice(borels)
        tried += 1
        a = char_verma(b, lam - rho_b(b), depth)
        c = char_verma(b2, lam + shift - rho_b(b2), depth)
        if not a.equals(c):
            detected += 1
    if detected != SWEEP_MISMATCHES:
        passed = False
    return SweepReport(profile, pairs, equal_ok, coeff_ok, tried, detected, passed)


class ExactnessReport(_Report):
    __slots__ = ("lam", "depth", "passed", "injective", "cokernel_matches")

    def __init__(self, lam: Weight, depth: int, passed: bool, injective: bool,
                 cokernel_matches: bool):
        self.lam = lam
        self.depth = depth
        self.passed = passed
        self.injective = injective
        self.cokernel_matches = cokernel_matches


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

    (alpha,) = even_positive_roots(p)
    chi = char_simple_td(lam, depth)
    big = narrow_image_dims(lam, depth)

    # X f^k v, the seed of N(s.lam) embedded in N(lam)'s ambient module
    module = antidistinguished_module(lam)
    embedded = e_g1_apply(module, singular_vector_even(module, alpha))
    image = submodule_weight_ranks(module, [embedded], lam, depth)

    s_lam = dot_action(reflection(alpha), lam)
    small = narrow_image_dims(s_lam, depth - (lam.xi - s_lam.xi))

    injective = True
    cokernel = True
    for nu in cone_weights_below(lam, depth):
        if image.get(nu, 0) != small.get(nu, 0):
            injective = False
        if big.get(nu, 0) - image.get(nu, 0) != chi.coeff(nu):
            cokernel = False
    return ExactnessReport(lam, depth, injective and cokernel, injective, cokernel)


class ImageReport(_Report):
    __slots__ = ("lam", "depth", "rows", "passed")

    def __init__(self, lam: Weight, depth: int, rows: tuple[tuple[Weight, int, int], ...],
                 passed: bool):
        self.lam = lam
        self.depth = depth
        self.rows = rows  # (weight, rank, coefficient), shallow first
        self.passed = passed

    def to_json_obj(self) -> dict:
        ranks = [{"weight": list(nu.coeffs), "rank": r, "coeff": c} for nu, r, c in self.rows]
        return _report_obj("image", self.lam, self.depth, self.passed, {"ranks": ranks})


def image_check(lam: Weight, depth: int) -> ImageReport:
    """Narrow submodule ranks (PBW linear algebra) against the closed
    `char_narrow` coefficients, at every weight of the window.

    The closed formula is claimed for g_-1-generic weights only, as in
    `euler_check`, and other weights are refused: at the trivial gl(2|2)
    weight the rank is 0 where the coefficient is 1, at xi-drop 4."""
    if not diagrams.is_g1_generic(lam):
        raise ValueError(f"{lam} is not g_-1-generic")
    ranks = narrow_image_dims(lam, depth)
    chart = char_narrow(lam, depth, warn=False)
    rows = tuple((nu, rank, chart.coeff(nu)) for nu, rank in ranks.items())
    return ImageReport(lam, depth, rows, all(r == c for _, r, c in rows))


def verma_count_check(lam: Weight, depth: int) -> bool:
    """For every Borel, the Verma character coefficient equals the number
    of PBW monomials, at every weight of the window."""
    for b in enumerate_borels(lam.profile):
        chart = char_verma(b, lam, depth)
        module = VermaModule(b, lam)
        for nu in cone_weights_below(chart.top, depth):
            if chart.coeff(nu) != len(module.weight_space_monomials(nu)):
                return False
    return True


def borel_lattice_check(profile: RankProfile) -> str | None:
    """There are binomial(m+n, m) Borels, and each odd-reflection edge moves
    rho^b by its root; the first failure, described, or None."""
    if len(enumerate_borels(profile)) != math.comb(profile.m + profile.n, profile.m):
        return f"count failed for gl({profile.m}|{profile.n})"
    for edge in borel_graph(profile):
        if rho_b(edge.target) != rho_b(edge.source) + edge.alpha.as_weight():
            return f"rho update failed on {edge}"
    return None


def genericity_check(profile: RankProfile, radius: int) -> tuple[int, ...] | None:
    """The first coordinates, in the box |coord| <= radius, where the gap
    criterion and the subset walk disagree, or None."""
    for values in itertools.product(range(-radius, radius + 1), repeat=profile.dim):
        lam = weight_from_coords(profile, values[: profile.m], values[profile.m:])
        if diagrams.is_g1_generic(lam, "fast") != diagrams.is_g1_generic(lam, "brute"):
            return values
    return None


# ---------------------------------------------------------------------------
# The battery of `superchar suite`: name -> (depth, seed) -> (passed, detail)


def _suite_borel_lattice(depth: int, seed: int) -> tuple[bool, str]:
    for m, n in itertools.product(range(1, 5), repeat=2):
        failure = borel_lattice_check(RankProfile(m, n))
        if failure is not None:
            return False, failure
    return True, "profiles up to (4,4)"


def _suite_euler(depth: int, seed: int) -> tuple[bool, str]:
    cases = [
        (RankProfile(1, 1), ([0], [0]), min(depth, 4)),
        (RankProfile(2, 1), ([3, 0], [3]), depth),
        (RankProfile(2, 2), ([7, 2], [2, 7]), min(depth, 6)),
    ]
    for p, (e, d), dd in cases:
        if not euler_check(weight_from_coords(p, e, d), dd).equal:
            return False, f"failed at {p} coords ({e}|{d})"
    return True, f"{len(cases)} weights"


def _suite_genericity(depth: int, seed: int) -> tuple[bool, str]:
    for p in (RankProfile(2, 1), RankProfile(1, 2)):
        values = genericity_check(p, 3)
        if values is not None:
            return False, f"fast/brute split at coords {values}"
    return True, "boxes |coord| <= 3"


def _suite_image(depth: int, seed: int) -> tuple[bool, str]:
    report = image_check(weight_from_coords(RankProfile(2, 1), [3, 0], [3]), 3)
    return report.passed, f"{len(report.rows)} weights"


def _suite_even_singular_vectors(depth: int, seed: int) -> tuple[bool, str]:
    p = RankProfile(2, 1)
    b0, alpha = distinguished(p), Root(p, 1, 2)
    for k in (1, 2, 3):
        module = VermaModule(b0, weight_from_coords(p, [k, 0], [5]))
        # the vector's annihilation and weight are checked where it is built
        mu = singular_vector_even(module, alpha).weight
        if primitive_space_dim(module, mu) != 1:
            return False, f"primitive space at k = {k} is not one-dimensional"
    return True, "gl(2|1) alpha = e1-e2, k in {1,2,3}"


def _suite_sweep(depth: int, seed: int) -> tuple[bool, str]:
    report = character_shift_sweep(RankProfile(2, 2), trials=3, depth=min(depth, 5), seed=seed)
    return report.passed, f"{report.pairs_checked} pairs"


SUITE = {
    "borel_lattice": _suite_borel_lattice,
    "character_shift_sweep": _suite_sweep,
    "euler_identity": _suite_euler,
    "even_singular_vectors": _suite_even_singular_vectors,
    "genericity_equivalence": _suite_genericity,
    "narrow_image": _suite_image,
    "pbw_oracle": lambda depth, seed: (
        verma_count_check(weight_from_blocks(RankProfile(2, 2), [1, 0], [0, -1]), 4),
        "all Borels of gl(2|2), depth 4",
    ),
    "small_rank_exactness": lambda depth, seed: (
        small_rank_exactness(weight_from_coords(RankProfile(2, 1), [3, 0], [3]), 3).passed,
        "gl(2|1) coords (3,0|3)",
    ),
}


def run_suite(depth: int, seed: int) -> list[tuple[str, bool, str]]:
    """Every `SUITE` check as (name, passed, detail), sorted by name."""
    return [(name, *SUITE[name](depth, seed)) for name in sorted(SUITE)]
