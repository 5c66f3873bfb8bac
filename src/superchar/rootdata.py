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
  for i = 1..m+n: the coefficients of lam + rho with the delta block
  negated.  `encode` returns them as one integer tuple and
  `weight_from_coords` inverts it; nothing else forms or reads lam + rho
  this way.  Regularity, dominance, atypicality, weight diagrams and
  genericity are all read off that tuple, sliced at m.
* For a Borel b, rho^b = rho + (rho1^{()} - rho1^b).  Then
  rho^{()} = rho exactly and rho^{r_a b} = rho^b + a on the nose for
  every odd reflection at a.
* Half-integral vectors (rho0, rho1^b) are only ever exposed doubled,
  so all arithmetic stays in exact integers.

The value types here and in `borels` and `diagrams` share one base,
`Record`: each declares its fields once and compares, hashes and prints
by them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import lru_cache

DEFAULT_WEYL_BOUND = 40320


class ProfileMismatch(ValueError):
    """Two values from different gl(m|n) profiles were combined."""


class EnumerationBound(RuntimeError):
    """An enumeration would exceed its configured size bound."""


class ConsistencyError(RuntimeError):
    """Two expressions that must agree identically did not; convention bug."""


class Record:
    """A slotted value whose fields are its `__slots__`, in order, or the
    `_fields` a class names to leave a derived slot out.  Records of one
    class are equal when their fields are, hash as the tuple of their
    fields, show as Name(field=value, ...) and are frozen: a constructor
    sets each slot once with `object.__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
        if cls._fields:  # a field-less base gets no key; a lone field is read bare
            cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class RankProfile(Record):
    # xi is the depth functional on the basis, xi(eps_i) = m+n-i+1 and
    # xi(delta_j) = n-j+1: the levels m+n, ..., 1 in basis order.  It is
    # derived from m and n, so equality, hash and repr leave it out.
    __slots__ = ("m", "n", "xi")
    _fields = ("m", "n")

    def __init__(self, m: int, n: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        self.__post_init__()

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


class Weight(Record):
    # xi is the depth level of the weight under profile.xi, computed once
    # in __post_init__ and left out of equality, hash and repr
    __slots__ = ("profile", "coeffs", "xi")
    _fields = ("profile", "coeffs")

    def __init__(self, profile: RankProfile, coeffs: tuple[int, ...]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple) or not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError(f"weights are integral tuples, got {self.coeffs!r}")
        if len(self.coeffs) != self.profile.dim:
            raise ValueError(
                f"expected {self.profile.dim} coefficients, got {len(self.coeffs)}"
            )
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


class Root(Record):
    """The root eps_i - eps_j (1-based basis indices, delta_k = eps_{m+k})."""

    __slots__ = ("profile", "i", "j")

    def __init__(self, profile: RankProfile, i: int, j: int):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        self.__post_init__()

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


# ---------------------------------------------------------------------------
# Weyl group S_m x S_n


def _inversions(perm: tuple[int, ...]) -> int:
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


class WeylElt(Record):
    """A pair of permutations, stored as 1-based image tuples."""

    __slots__ = ("sigma", "tau")

    def __init__(self, sigma: tuple[int, ...], tau: tuple[int, ...]):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        self.__post_init__()

    def __post_init__(self):
        for perm in (self.sigma, self.tau):
            if not isinstance(perm, tuple):
                raise TypeError(f"permutations must be tuples, got {perm!r}")
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


def identity_weyl(profile: RankProfile) -> WeylElt:
    return WeylElt(tuple(range(1, profile.m + 1)), tuple(range(1, profile.n + 1)))


def weyl_group(profile: RankProfile) -> list[WeylElt]:
    """All m!*n! elements, in lexicographic order of the image pairs."""
    size = math.factorial(profile.m) * math.factorial(profile.n)
    if size > DEFAULT_WEYL_BOUND:
        raise EnumerationBound(f"Weyl group of size {size} exceeds bound {DEFAULT_WEYL_BOUND}")
    ids_m = range(1, profile.m + 1)
    ids_n = range(1, profile.n + 1)
    return [
        WeylElt(s, t)
        for s in itertools.permutations(ids_m)
        for t in itertools.permutations(ids_n)
    ]


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
    """Twice the odd half-sum of an arbitrary Borel's odd positive system:
    2 rho1^b = 2 rho1 - 2 (rho^b - rho)."""
    return rho1_doubled_distinguished(borel.profile) - 2 * rho_b_shift(borel)


@lru_cache(maxsize=None)
def rho_b(borel) -> Weight:
    """rho + (rho1^{()} - rho1^b); equals rho plus the flipped odd roots."""
    return rho(borel.profile) + rho_b_shift(borel)


@lru_cache(maxsize=None)
def rho_b_shift(borel) -> Weight:
    """rho^b - rho: the sum of the flipped odd roots, zero for the
    distinguished Borel."""
    total = zero_weight(borel.profile)
    for beta in borel.flipped_odd_roots():
        total = total + beta.as_weight()
    return total


# ---------------------------------------------------------------------------
# Dot actions


def dot_action(w: WeylElt, lam: Weight, borel=None) -> Weight:
    """w(lam + rho^b) - rho^b; the distinguished Borel when borel is None."""
    shift = rho(lam.profile) if borel is None else rho_b(borel)
    return w.act(lam + shift) - shift


def weyl_window(lam: Weight, depth: int) -> list[tuple[WeylElt, Weight]]:
    """Every (w, w.lam) with xi(lam) - xi(w.lam) <= depth, shortest w first.

    A breadth-first walk from the identity, left-multiplying by simple
    reflections and pruning, before s_alpha w is built, each step whose dot
    image is below the floor.  It is exact for dominant lam, where lam + rho
    is weakly decreasing in each block: for a simple root alpha = eps_a - eps_b,
    s_alpha w.lam = w.lam - c alpha with c = (w(lam + rho))_a - (w(lam + rho))_b
    >= 0 when s_alpha w is longer than w, and xi(alpha) > 0.  So a
    length-raising left multiplication never lowers the drop, and each
    right-hand factor s_ik ... s_i1 of a reduced word of a window element
    lies in the window: an element of length l is met at step l, and a step
    that lowers the drop meets a shorter one, already seen.  A window over
    DEFAULT_WEYL_BOUND raises EnumerationBound before anything is returned.
    """
    if not classify(lam).dominant:
        raise ValueError(f"{lam} is not dominant")
    p, shift = lam.profile, rho(lam.profile).coeffs
    simple = [(r.i - 1, r.j - 1, reflection(r)) for r in even_positive_roots(p) if r.j == r.i + 1]
    start = identity_weyl(p)
    window = [(start, lam)] if depth >= 0 else []
    seen = {start}
    for w, nu in window:  # grows while it is read: the breadth-first queue
        mu = tuple(map(operator.add, nu.coeffs, shift))  # w(lam + rho)
        for a, b, s in simple:
            # s swaps mu_a and mu_b: the drop of s w.lam over that of w.lam
            lower = (mu[a] - mu[b]) * (p.xi[a] - p.xi[b])
            if lower < 0 or lam.xi - nu.xi + lower > depth or (v := s * w) in seen:
                continue
            seen.add(v)
            window.append((v, dot_action(v, lam)))
            if len(window) > DEFAULT_WEYL_BOUND:
                raise EnumerationBound(f"Weyl window exceeds bound {DEFAULT_WEYL_BOUND}")
    return window


# ---------------------------------------------------------------------------
# Coordinates


def encode(lam: Weight) -> tuple[int, ...]:
    """The coordinates (lam + rho, eps_i), i = 1..m+n: the coefficients of
    lam + rho with the delta block negated, as one tuple.

    This and its inverse `weight_from_coords` are the only places that know
    the convention; every predicate on a weight slices this tuple at m.
    """
    m = lam.profile.m
    shifted = tuple(map(operator.add, lam.coeffs, rho(lam.profile).coeffs))
    return shifted[:m] + tuple(-c for c in shifted[m:])


def weight_from_coords(profile: RankProfile, eps_values, delta_values) -> Weight:
    """The weight whose `encode` is eps_values + delta_values."""
    eps_values, delta_values = tuple(eps_values), tuple(delta_values)
    if len(eps_values) != profile.m or len(delta_values) != profile.n:
        raise ValueError("coordinate block lengths do not match the profile")
    values = eps_values + tuple(-c for c in delta_values)
    return Weight(profile, tuple(map(operator.sub, values, rho(profile).coeffs)))


# ---------------------------------------------------------------------------
# Classification


class WeightFlags(Record):
    __slots__ = ("regular", "dominant")

    def __init__(self, regular: bool, dominant: bool):
        object.__setattr__(self, "regular", regular)
        object.__setattr__(self, "dominant", dominant)


def classify(lam: Weight) -> WeightFlags:
    """Regular: no ties within a block.  Dominant: eps block weakly
    decreasing, delta block weakly increasing."""
    m = lam.profile.m
    c = encode(lam)
    e, d = c[:m], c[m:]
    regular = len(set(e)) == len(e) and len(set(d)) == len(d)
    dominant = all(map(operator.ge, e, e[1:])) and all(map(operator.le, d, d[1:]))
    return WeightFlags(regular, dominant)


# ---------------------------------------------------------------------------
# Atypicality


class Atypicality(Record):
    __slots__ = ("aty", "gamma")

    def __init__(self, aty: int, gamma: frozenset[Root]):
        object.__setattr__(self, "aty", aty)
        object.__setattr__(self, "gamma", gamma)


def atypicality(lam: Weight, borel=None) -> Atypicality:
    """Maximal number of mutually orthogonal odd roots vanishing on lam+rho^b.

    `aty` is the atypicality of lam + rho^b for the given Borel b
    (distinguished when None), that is, of the b-highest weight lam.  For
    one fixed lam it depends on b; it agrees across Borels only for the
    transported highest weights of one simple module.  `gamma` is always
    the distinguished-Borel atypical set {beta odd positive :
    (lam + rho, beta) = 0}.

    Both are read off one coordinate tuple.  Let c be the coefficients of
    lam + rho^b with the delta block negated, that is
    `encode(lam + rho^b - rho)`, with e = c[:m] and d = c[m:].  Then
    (lam + rho^b, eps_i - delta_j) = e_i - d_j, so `gamma` is the set of
    eps_i - delta_j with e_i = d_j for b distinguished.  `aty` is a count,
    not a matching search: two distinct odd roots eps_i - delta_j,
    eps_k - delta_l are orthogonal exactly when i != k and j != l, so `aty`
    is a maximum matching in the bipartite graph with an edge i -- j when
    e_i = d_j.  Equality makes that graph a disjoint union of complete
    bipartite blocks, one per value v, and a complete block matches
    min(#{i : e_i = v}, #{j : d_j = v}) pairs.  The sum of these minima
    over v is the size of the multiset intersection of e and d.
    """
    p = lam.profile
    m = p.m
    c = encode(lam)
    gamma = frozenset(beta for beta in odd_positive_roots(p) if c[beta.i - 1] == c[beta.j - 1])
    if borel is not None:
        c = encode(lam + rho_b_shift(borel))
    return Atypicality(sum((Counter(c[:m]) & Counter(c[m:])).values()), gamma)
