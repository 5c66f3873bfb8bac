"""Root data for the general linear Lie superalgebra gl(m|n).

Integral weights are integer vectors over the basis
eps_1, ..., eps_m, delta_1, ..., delta_n; slot m+j holds the delta_j
coefficient.  The invariant bilinear form is +1 on the eps block and
-1 on the delta block.  Roots are differences of basis functionals
(reading delta_j as eps_{m+j}); a root is odd when it mixes the two
blocks, and every odd root is isotropic.

Conventions everything downstream relies on:

* rho = sum_i -(i-1) eps_i + sum_j (m-j) delta_j.  It differs from
  rho0 - rho1 only by an integer multiple of ber, which is orthogonal
  to every root, so no pairing against a root ever sees the
  difference (asserted as an invariant, not hidden).
* The coordinates of an integral weight are lam_i = (lam + rho, eps_i)
  for i = 1..m+n.  Regularity, dominance, atypicality and weight
  diagrams are all read off these.
* For a Borel b, rho^b = rho + (rho1^{()} - rho1^b).  Then
  rho^{()} = rho exactly and rho^{r_a b} = rho^b + a on the nose for
  every odd reflection at a.
* Half-integral vectors (rho0, rho1^b) are only ever exposed doubled,
  so all arithmetic stays in exact integers.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache

DEFAULT_WEYL_BOUND = 40320


class ProfileMismatch(ValueError):
    """Two values from different gl(m|n) profiles were combined."""


class EnumerationBound(RuntimeError):
    """An enumeration would exceed its configured size bound."""


class ConsistencyError(RuntimeError):
    """Two expressions that must agree identically did not; convention bug."""


@dataclass(frozen=True, slots=True)
class RankProfile:
    m: int
    n: int
    # the depth functional on the basis, xi(eps_i) = m+n-i+1 and
    # xi(delta_j) = n-j+1: the levels m+n, ..., 1 in basis order
    xi: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.m, int) or not isinstance(self.n, int):
            raise TypeError("ranks must be integers")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got ({self.m}, {self.n})")
        object.__setattr__(self, "xi", tuple(range(self.m + self.n, 0, -1)))

    @property
    def dim(self) -> int:
        return self.m + self.n

    def index_parity(self, i: int) -> int:
        """Parity of the i-th basis vector (1-based): 0 on the eps block."""
        return 0 if i <= self.m else 1

    def __str__(self):
        return f"gl({self.m}|{self.n})"


def _check_same_profile(a, b):
    if a.profile != b.profile:
        raise ProfileMismatch(f"profile mismatch: {a.profile} vs {b.profile}")


@dataclass(frozen=True, slots=True)
class Weight:
    profile: RankProfile
    coeffs: tuple[int, ...]
    # depth level of the weight under profile.xi, computed once here
    xi: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != self.profile.dim:
            raise ValueError(
                f"expected {self.profile.dim} coefficients, got {len(self.coeffs)}"
            )
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("weights are integral")
        object.__setattr__(self, "xi", sum(map(operator.mul, self.coeffs, self.profile.xi)))

    def __add__(self, other: "Weight") -> "Weight":
        _check_same_profile(self, other)
        return Weight(self.profile, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_same_profile(self, other)
        return Weight(self.profile, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Weight":
        return Weight(self.profile, tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "Weight":
        return Weight(self.profile, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def eps_block(self) -> tuple[int, ...]:
        return self.coeffs[: self.profile.m]

    @property
    def delta_block(self) -> tuple[int, ...]:
        return self.coeffs[self.profile.m:]

    def __str__(self):
        e = ",".join(map(str, self.eps_block))
        d = ",".join(map(str, self.delta_block))
        return f"({e}|{d})"


def zero_weight(profile: RankProfile) -> Weight:
    return Weight(profile, (0,) * profile.dim)


def basis_weight(profile: RankProfile, i: int) -> Weight:
    """eps_i for i <= m, delta_{i-m} for i > m (1-based)."""
    if not 1 <= i <= profile.dim:
        raise ValueError(f"basis index {i} out of range")
    return Weight(profile, tuple(1 if k == i - 1 else 0 for k in range(profile.dim)))


def weight_from_blocks(profile, eps_coeffs, delta_coeffs) -> Weight:
    eps_coeffs, delta_coeffs = tuple(eps_coeffs), tuple(delta_coeffs)
    if len(eps_coeffs) != profile.m or len(delta_coeffs) != profile.n:
        raise ValueError("block lengths do not match the profile")
    return Weight(profile, eps_coeffs + delta_coeffs)


def pairing(x: Weight, y: Weight) -> int:
    """Invariant form: +1 on the eps block, -1 on the delta block."""
    _check_same_profile(x, y)
    m = x.profile.m
    s = sum(a * b for a, b in zip(x.coeffs[:m], y.coeffs[:m]))
    return s - sum(a * b for a, b in zip(x.coeffs[m:], y.coeffs[m:]))


@dataclass(frozen=True, slots=True)
class Root:
    """The root eps_i - eps_j (1-based basis indices, delta_k = eps_{m+k})."""

    profile: RankProfile
    i: int
    j: int

    def __post_init__(self):
        d = self.profile.dim
        if not (1 <= self.i <= d and 1 <= self.j <= d):
            raise ValueError(f"root indices ({self.i},{self.j}) out of range")
        if self.i == self.j:
            raise ValueError("a root needs distinct indices")

    @property
    def is_odd(self) -> bool:
        return self.profile.index_parity(self.i) != self.profile.index_parity(self.j)

    @property
    def parity(self) -> str:
        return "odd" if self.is_odd else "even"

    def as_weight(self) -> Weight:
        c = [0] * self.profile.dim
        c[self.i - 1] = 1
        c[self.j - 1] = -1
        return Weight(self.profile, tuple(c))

    def __neg__(self) -> "Root":
        return Root(self.profile, self.j, self.i)

    def __str__(self):
        m = self.profile.m

        def name(k):
            return f"e{k}" if k <= m else f"d{k - m}"

        return f"{name(self.i)}-{name(self.j)}"


@lru_cache(maxsize=None)
def even_positive_roots(profile: RankProfile) -> tuple[Root, ...]:
    """The standard even positive system, fixed for every Borel here."""
    m, n = profile.m, profile.n
    out = [Root(profile, i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    out += [Root(profile, m + p, m + q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def odd_positive_roots(profile: RankProfile) -> tuple[Root, ...]:
    """Odd roots eps_i - delta_j, positive for the distinguished Borel, in lex order."""
    m, n = profile.m, profile.n
    return tuple(Root(profile, i, m + j) for i in range(1, m + 1) for j in range(1, n + 1))


def all_roots(profile: RankProfile) -> tuple[Root, ...]:
    d = profile.dim
    return tuple(Root(profile, i, j) for i in range(1, d + 1) for j in range(1, d + 1) if i != j)


# ---------------------------------------------------------------------------
# Weyl group S_m x S_n


def _inversions(perm: tuple[int, ...]) -> int:
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


@dataclass(frozen=True, slots=True)
class WeylElt:
    """A pair of permutations, stored as 1-based image tuples."""

    sigma: tuple[int, ...]
    tau: tuple[int, ...]

    def __post_init__(self):
        for perm in (self.sigma, self.tau):
            if sorted(perm) != list(range(1, len(perm) + 1)):
                raise ValueError(f"{perm} is not a permutation of 1..{len(perm)}")

    @property
    def length(self) -> int:
        return _inversions(self.sigma) + _inversions(self.tau)

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def act(self, w: Weight) -> Weight:
        """Permute eps coefficients by sigma and delta coefficients by tau."""
        m, n = len(self.sigma), len(self.tau)
        if w.profile.m != m or w.profile.n != n:
            raise ProfileMismatch("Weyl element does not match the weight's profile")
        out = [0] * (m + n)
        for k in range(m):
            out[self.sigma[k] - 1] = w.coeffs[k]
        for k in range(n):
            out[m + self.tau[k] - 1] = w.coeffs[m + k]
        return Weight(w.profile, tuple(out))

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        """Composition: (self * other)(i) = self(other(i))."""
        sigma = tuple(self.sigma[other.sigma[k] - 1] for k in range(len(self.sigma)))
        tau = tuple(self.tau[other.tau[k] - 1] for k in range(len(self.tau)))
        return WeylElt(sigma, tau)

    def inverse(self) -> "WeylElt":
        sigma = [0] * len(self.sigma)
        tau = [0] * len(self.tau)
        for k, v in enumerate(self.sigma):
            sigma[v - 1] = k + 1
        for k, v in enumerate(self.tau):
            tau[v - 1] = k + 1
        return WeylElt(tuple(sigma), tuple(tau))


def identity_weyl(profile: RankProfile) -> WeylElt:
    return WeylElt(tuple(range(1, profile.m + 1)), tuple(range(1, profile.n + 1)))


def weyl_group(profile: RankProfile, bound: int = DEFAULT_WEYL_BOUND) -> list[WeylElt]:
    """All m!*n! elements, in lexicographic order of the image pairs."""
    import math

    size = math.factorial(profile.m) * math.factorial(profile.n)
    if size > bound:
        raise EnumerationBound(f"Weyl group of size {size} exceeds bound {bound}")
    ids_m = range(1, profile.m + 1)
    ids_n = range(1, profile.n + 1)
    return [
        WeylElt(s, t)
        for s in itertools.permutations(ids_m)
        for t in itertools.permutations(ids_n)
    ]


def longest_element(profile: RankProfile) -> WeylElt:
    return WeylElt(
        tuple(range(profile.m, 0, -1)),
        tuple(range(profile.n, 0, -1)),
    )


def reflection(root: Root) -> WeylElt:
    """The reflection s_alpha for an even root alpha."""
    if root.is_odd:
        raise ValueError("reflections exist only for even roots")
    p = root.profile
    m = p.m
    sigma = list(range(1, m + 1))
    tau = list(range(1, p.n + 1))
    if root.i <= m:
        sigma[root.i - 1], sigma[root.j - 1] = sigma[root.j - 1], sigma[root.i - 1]
    else:
        a, b = root.i - m, root.j - m
        tau[a - 1], tau[b - 1] = tau[b - 1], tau[a - 1]
    return WeylElt(tuple(sigma), tuple(tau))


# ---------------------------------------------------------------------------
# Shift vectors


@lru_cache(maxsize=None)
def rho(profile: RankProfile) -> Weight:
    """sum_i -(i-1) eps_i + sum_j (m-j) delta_j."""
    m, n = profile.m, profile.n
    return Weight(
        profile,
        tuple(-(i - 1) for i in range(1, m + 1)) + tuple(m - j for j in range(1, n + 1)),
    )


@lru_cache(maxsize=None)
def ber(profile: RankProfile) -> Weight:
    """The Berezinian weight, orthogonal to every root."""
    return Weight(profile, (1,) * profile.m + (-1,) * profile.n)


@lru_cache(maxsize=None)
def rho0_doubled(profile: RankProfile) -> Weight:
    """Twice the even half-sum: entries m+1-2i on eps, n+1-2j on delta."""
    m, n = profile.m, profile.n
    return Weight(
        profile,
        tuple(m + 1 - 2 * i for i in range(1, m + 1))
        + tuple(n + 1 - 2 * j for j in range(1, n + 1)),
    )


@lru_cache(maxsize=None)
def rho1_doubled_distinguished(profile: RankProfile) -> Weight:
    """Twice the odd half-sum for the distinguished positive system."""
    m, n = profile.m, profile.n
    return Weight(profile, (n,) * m + (-m,) * n)


def rho1_doubled(borel) -> Weight:
    """Twice the odd half-sum of an arbitrary Borel's odd positive system."""
    total = zero_weight(borel.profile)
    for beta in borel.odd_positive_roots():
        total = total + beta.as_weight()
    return total


def rho_b(borel) -> Weight:
    """rho + (rho1^{()} - rho1^b); equals rho plus the flipped odd roots."""
    total = rho(borel.profile)
    for beta in borel.flipped_odd_roots():
        total = total + beta.as_weight()
    return total


@dataclass(frozen=True)
class RhoVectors:
    """Shift-vector bundle for one Borel; half-integral entries come doubled."""

    rho: Weight
    rho_b: Weight
    ber: Weight
    rho0_x2: Weight
    rho1_b_x2: Weight

    @property
    def rho1_b_is_integral(self) -> bool:
        return all(c % 2 == 0 for c in self.rho1_b_x2.coeffs)


def rho_vectors(profile: RankProfile, borel) -> RhoVectors:
    if borel.profile != profile:
        raise ProfileMismatch("Borel does not belong to the requested profile")
    return RhoVectors(
        rho=rho(profile),
        rho_b=rho_b(borel),
        ber=ber(profile),
        rho0_x2=rho0_doubled(profile),
        rho1_b_x2=rho1_doubled(borel),
    )


# ---------------------------------------------------------------------------
# Dot actions


def dot_action(w: WeylElt, lam: Weight, borel=None) -> Weight:
    """w(lam + rho^b) - rho^b; the distinguished Borel when borel is None."""
    shift = rho(lam.profile) if borel is None else rho_b(borel)
    return w.act(lam + shift) - shift


def dot_action_usual(w: WeylElt, lam: Weight) -> Weight:
    """w(lam + rho0) - rho0, computed with doubled vectors to stay integral."""
    doubled = 2 * lam + rho0_doubled(lam.profile)
    moved = w.act(doubled) - rho0_doubled(lam.profile)
    if any(c % 2 for c in moved.coeffs):
        raise ConsistencyError(f"doubled dot action {moved} has an odd coordinate")
    return Weight(lam.profile, tuple(c // 2 for c in moved.coeffs))


# ---------------------------------------------------------------------------
# Coordinate encoding


@dataclass(frozen=True, slots=True)
class Coords:
    """The tuple lam_i = (lam + rho, eps_i), i = 1..m+n."""

    profile: RankProfile
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.profile.dim:
            raise ValueError("coordinate length does not match the profile")

    @property
    def eps_block(self) -> tuple[int, ...]:
        return self.values[: self.profile.m]

    @property
    def delta_block(self) -> tuple[int, ...]:
        return self.values[self.profile.m:]

    def __str__(self):
        e = ",".join(map(str, self.eps_block))
        d = ",".join(map(str, self.delta_block))
        return f"({e}|{d})"


def encode(lam: Weight) -> Coords:
    shifted = lam + rho(lam.profile)
    m = lam.profile.m
    values = shifted.coeffs[:m] + tuple(-c for c in shifted.coeffs[m:])
    return Coords(lam.profile, values)


def decode(c: Coords) -> Weight:
    r = rho(c.profile)
    m = c.profile.m
    eps = tuple(c.values[i] - r.coeffs[i] for i in range(m))
    delta = tuple(-c.values[m + j] - r.coeffs[m + j] for j in range(c.profile.n))
    return Weight(c.profile, eps + delta)


def coords(profile: RankProfile, eps_values, delta_values) -> Coords:
    eps_values, delta_values = tuple(eps_values), tuple(delta_values)
    if len(eps_values) != profile.m or len(delta_values) != profile.n:
        raise ValueError("coordinate block lengths do not match the profile")
    return Coords(profile, eps_values + delta_values)


def weight_from_coords(profile: RankProfile, eps_values, delta_values) -> Weight:
    return decode(coords(profile, eps_values, delta_values))


# ---------------------------------------------------------------------------
# Classification and orbit representatives


@dataclass(frozen=True)
class WeightFlags:
    regular: bool
    dominant: bool
    antidominant: bool


def classify(lam: Weight) -> WeightFlags:
    """Regular: no ties within a block.  Dominant: eps block weakly
    decreasing, delta block weakly increasing.  Antidominant: the reverse."""
    c = encode(lam)
    e, d = c.eps_block, c.delta_block
    regular = len(set(e)) == len(e) and len(set(d)) == len(d)
    dominant = all(e[k] >= e[k + 1] for k in range(len(e) - 1)) and all(
        d[k] <= d[k + 1] for k in range(len(d) - 1)
    )
    antidominant = all(e[k] <= e[k + 1] for k in range(len(e) - 1)) and all(
        d[k] >= d[k + 1] for k in range(len(d) - 1)
    )
    return WeightFlags(regular, dominant, antidominant)


@dataclass(frozen=True)
class OrbitExtremes:
    dominant: Weight
    antidominant: Weight


def orbit_extremes(lam: Weight) -> OrbitExtremes:
    """Dominant and antidominant representatives of the dot orbit.

    For regular lam these are the unique such weights; otherwise ties are
    broken by a stable sort and the result is a representative only.
    """
    c = encode(lam)
    e, d = list(c.eps_block), list(c.delta_block)
    dom = coords(lam.profile, sorted(e, reverse=True), sorted(d))
    antidom = coords(lam.profile, sorted(e), sorted(d, reverse=True))
    return OrbitExtremes(decode(dom), decode(antidom))


# ---------------------------------------------------------------------------
# Atypicality


def _max_bipartite_matching(edges: set[tuple[int, int]], m: int, n: int) -> int:
    """Kuhn's augmenting-path matching on a tiny m x n bipartite graph."""
    adj = {i: [j for j in range(1, n + 1) if (i, j) in edges] for i in range(1, m + 1)}
    match_right: dict[int, int] = {}

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    size = 0
    for i in range(1, m + 1):
        if augment(i, set()):
            size += 1
    return size


@dataclass(frozen=True)
class Atypicality:
    aty: int
    gamma: frozenset[Root]


def atypicality(lam: Weight, borel=None) -> Atypicality:
    """Maximal number of mutually orthogonal odd roots vanishing on lam+rho^b.

    `aty` is computed against the given Borel (distinguished when None) and
    is independent of that choice; `gamma` is always the distinguished-Borel
    atypical set {beta odd positive : (lam + rho, beta) = 0}.
    """
    p = lam.profile
    shift = rho(p) if borel is None else rho_b(borel)
    shifted = lam + shift
    edges = {
        (beta.i, beta.j - p.m)
        for beta in odd_positive_roots(p)
        if pairing(shifted, beta.as_weight()) == 0
    }
    aty = _max_bipartite_matching(edges, p.m, p.n)
    base = lam + rho(p)
    gamma = frozenset(
        beta for beta in odd_positive_roots(p) if pairing(base, beta.as_weight()) == 0
    )
    return Atypicality(aty, gamma)


def is_even_dominant(mu: Weight) -> bool:
    """Dominance for the even subalgebra: both coefficient blocks weakly decreasing."""
    e, d = mu.eps_block, mu.delta_block
    return all(e[k] >= e[k + 1] for k in range(len(e) - 1)) and all(
        d[k] >= d[k + 1] for k in range(len(d) - 1)
    )
