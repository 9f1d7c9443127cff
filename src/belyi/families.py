"""Belyi maps: closed-form families and exact ramification verification.

A Belyi map is a rational function ramified only over 0, 1, and infinity.
Everything here is exact; nothing is found by numeric root-finding.  The
two single-cycle families have exactly one ramification point over each
branch value, and each member is certified by one polynomial identity: its
Wronskian N'D - ND' is c x^(e0-1) (x-1)^(e1-1), which pins its profile to
its type.  The power and Chebyshev maps sit at the boundary of that class
(two, respectively degenerate, critical values) and are not normalized at
0 and 1; they and custom maps get their profile from the degrees of the
integer squarefree factors of the three fiber polynomials.  Yun sees the
Wronskian and the fibers as integer `Poly`s, with no Fraction on the way;
a member's closed form is printed by `poly_text`.  `FAMILIES` gives each
family's builder and triple.  `family_map_for_type` is the one builder of
a single-cycle family's map, from its type; a member's (d, k) only names
that type.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .exact import (
    Poly,
    RatFunc,
    _sub,
    _wronskian,
    brief_repr,
    check_stored,
    json_field,
    json_object,
    parse_int,
    poly_text,
    ratfunc_lists,
    squarefree_decomposition,
)
from .gensys import (
    MAX_DEGREE,
    CombinatorialType,
    GeneratingSystem,
    canonical_single_cycle,
    chebyshev_gensys,
    power_gensys,
)


class Family(NamedTuple):
    tag: str  # the map's family field in JSON
    name: str  # as printed by `belyi construct`
    takes_k: bool
    build: Callable[[int, int | None], BelyiMap]  # (d, k) -> the member
    triple: Callable[[BelyiMap], GeneratingSystem]  # member -> its monodromy

    def member(self, d: int, k: int | None) -> "BelyiMap":
        """The member (d, k); k is given exactly when the family takes one."""
        if self.takes_k != (k is not None):
            need = "needs" if self.takes_k else "takes no"
            raise ParameterOutOfRangeError(f"the {self.name} family {need} parameter k")
        return self.build(d, k)


# CLI name -> family: the only list of the named families, and the one
# place that gives each member's triple.  Rows look their functions up
# when called, as those are defined below and may be rebound later.
FAMILIES = {
    "poly": Family("single-cycle-poly", "single-cycle polynomial", True,
                   lambda d, k: single_cycle_polynomial(d, k),
                   lambda m: canonical_single_cycle(m.claimed_type)),
    "symmetric": Family("symmetric-single-cycle", "symmetric single-cycle", True,
                        lambda d, k: symmetric_single_cycle(d, k),
                        lambda m: canonical_single_cycle(m.claimed_type)),
    "power": Family("power", "power map", False, lambda d, k: power_map(d),
                    lambda m: power_gensys(m.degree)),
    "chebyshev": Family("chebyshev", "chebyshev", False, lambda d, k: chebyshev_map(d),
                        lambda m: chebyshev_gensys(m.degree)),
}


class ParameterOutOfRangeError(ValueError):
    """Family parameters (d, k) outside the constructible domain."""


class VerificationError(RuntimeError):
    """A constructed map failed its own ramification check."""


@dataclass(frozen=True)
class RamificationProfile:
    """Multisets of ramification indices over 0, 1, and infinity.

    Each fiber multiset sums to the degree; indices are stored descending.
    The total ramification sum(e - 1) over the three fibers is at most
    2d - 2, with equality exactly when the map is Belyi (no critical
    values outside {0, 1, infinity}).
    """

    degree: int
    over0: tuple[int, ...]
    over1: tuple[int, ...]
    over_inf: tuple[int, ...]

    @property
    def fibers(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return (self.over0, self.over1, self.over_inf)

    @property
    def total_ramification(self) -> int:
        return sum(map(sum, self.fibers)) - sum(map(len, self.fibers))

    @property
    def is_belyi(self) -> bool:
        return self.total_ramification == 2 * self.degree - 2


def _fiber_indices(g: Sequence[int], d: int) -> tuple[int, ...]:
    """Ramification indices of one fiber: multiplicities of the roots of g,
    an ascending integer coefficient list, plus the point at infinity with
    index d - deg g when the degree drops."""
    out: list[int] = []
    if len(g) > 1:
        for factor, mult in squarefree_decomposition(Poly(g)):
            out.extend([mult] * (len(factor) - 1))
    drop = d - max(len(g) - 1, 0)
    if drop > 0:
        out.append(drop)
    return tuple(sorted(out, reverse=True))


def ramification_profile(f: RatFunc) -> RamificationProfile:
    """Exact ramification profile of a nonconstant rational map over {0, 1, inf}."""
    if f.is_constant:
        raise ValueError("constant map has no ramification profile")
    d = f.degree
    num, den = f.pair
    prof = RamificationProfile(
        d,
        _fiber_indices(num, d),
        _fiber_indices(_sub(num, den), d),
        # d - deg D is the pole order of f at infinity
        _fiber_indices(den, d),
    )
    for name, fib in zip(("0", "1", "inf"), prof.fibers):
        if sum(fib) != d:
            raise VerificationError(
                f"ramification indices over {name} sum to {sum(fib)}, not the degree {d}"
            )
    return prof


@dataclass(frozen=True)
class MapParams:
    """How a single-cycle family writes its map x^(d-k) num / den: the inner
    coefficients a and, for the polynomial family, the normalizing constant c."""

    c: Fraction | None
    a: tuple[Fraction, ...]

    def to_json(self) -> dict:
        out: dict = {"a": [str(x) for x in self.a]}
        if self.c is not None:
            out["c"] = str(self.c)
        return out


@dataclass(frozen=True, repr=False)
class BelyiMap:
    """A rational map tagged with its family and claimed combinatorial type.

    ``BelyiMap(f, claimed_type=ct)`` is a custom map: only the builders
    below set a family, k and params.  The profile is factored from the
    three fibers on first read and cached, except for the two single-cycle
    families' maps, whose one builder, `family_map_for_type`, certifies
    their type eagerly, refuses a map that fails, and fills in the profile
    the type determines.
    """

    f: RatFunc
    claimed_type: CombinatorialType | None = field(default=None, kw_only=True)
    family: str = field(default="custom", init=False)
    k: int | None = field(default=None, init=False)
    params: MapParams | None = field(default=None, init=False)

    @property
    def degree(self) -> int:
        return self.f.degree

    @functools.cached_property
    def profile(self) -> RamificationProfile:
        return ramification_profile(self.f)

    def __repr__(self) -> str:
        return f"BelyiMap({self.family}, d={self.degree}, f={self.f})"

    def factored_form(self) -> str | None:
        """Human-readable closed form for the two single-cycle families:
        x^(d-k) c (a0 x^k + ... + a_k) when c is given, else x^(d-k) times
        den = sum (-1)^i a_i x^i reversed, over den."""
        if self.params is None:
            return None
        c, a = self.params.c, self.params.a
        head = f"x^{self.degree - self.k}"
        if c is not None:
            return f"{head} * ({poly_text([c * x for x in reversed(a)])})"
        den = [(-1) ** i * x for i, x in enumerate(a)]
        return f"{head} * ({poly_text(den[::-1])}) / ({poly_text(den)})"

    def to_json(self) -> dict:
        out: dict = {"family": self.family, "d": self.degree, "k": self.k}
        if self.params is not None:
            out["params"] = self.params.to_json()
        out["f"] = self.f.to_json()
        out["type"] = None if self.claimed_type is None else self.claimed_type.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BelyiMap":
        """Read a map record; raises ValueError, naming a bad value in brief,
        when a field is malformed or disagrees with the map.

        A member of a named family is its (family, d, k): it is rebuilt from
        them, and it must store the fields the rebuilt map writes, as it
        writes them, and no other.  A custom map is read from f, with an
        optional stated degree and claimed type and no params or k.  A value
        nested past Python's recursion limit is malformed too, and so is a
        stored f with a list longer than MAX_DEGREE + 1.
        """
        json_object(data, "map", ("family", "d", "k", "params", "f", "type"))
        f = json_field(data, "f", "map")
        family = data.get("family", "custom")
        k = None if data.get("k") is None else parse_int(data["k"])
        # the stored f's degree bounds all later work, quadratic in it: the
        # parse, the reduction, Yun and the family builder, so it is capped
        # before any of them runs
        stored = max(map(len, ratfunc_lists(f))) - 1
        if stored > MAX_DEGREE:
            raise ValueError(f"map degree must be at most {MAX_DEGREE}, got {stored}")
        if family == "custom":
            f = RatFunc.from_json(f)
            d, ct = data.get("d"), data.get("type")
            if d is not None and parse_int(d) != f.degree:
                raise ValueError(f"stated degree {d} != map degree {f.degree}")
            ct = None if ct is None else CombinatorialType.from_json(ct)
            for key in ("params", "k"):
                if data.get(key) is not None:
                    raise ValueError(f"{key} given for a custom map")
            return cls(f, claimed_type=ct)
        fam = next((x for x in FAMILIES.values() if x.tag == family), None)
        if fam is None:
            raise ValueError(f"unknown family tag {brief_repr(family)}")
        d = parse_int(json_field(data, "d", "map"))
        # the stated d bounds what the builder allocates, so it must match
        # the stored f before anything of degree d is built
        if stored != d:
            raise ValueError(f"stated degree {d} != {stored}, the stored f's")
        m = fam.member(d, k)
        derived = m.to_json()
        check_stored(json_object(data, "map", derived), derived, f"({family}, {d}, {k})")
        return m


def verify_single_cycle(m: BelyiMap, claimed: CombinatorialType | None) -> tuple[bool, str]:
    """Check that a map is Belyi of the claimed type's degree, with exactly
    one ramification point per fiber, of its indices (e0, e1, eInf).  With
    claimed=None only the Belyi property is checked: (True, "Belyi").

    Returns (ok, diagnostic); the diagnostic names the first failing
    condition, e.g. "e_inf mismatch: expected 4, found 5".
    """
    if not isinstance(m, BelyiMap) or not isinstance(claimed, (CombinatorialType, type(None))):
        raise TypeError(
            f"need a BelyiMap and a CombinatorialType or None,"
            f" not {brief_repr(m)} and {brief_repr(claimed)}"
        )
    prof = m.profile
    if not prof.is_belyi:
        return False, (
            f"not Belyi: total ramification {prof.total_ramification}"
            f" < {2 * prof.degree - 2}"
        )
    if claimed is None:
        return True, "Belyi"
    if prof.degree != claimed.d:
        return False, f"degree mismatch: expected {claimed.d}, found {prof.degree}"
    for name, fiber, expected in zip(("e0", "e1", "e_inf"), prof.fibers, claimed.indices):
        ramified = [e for e in fiber if e >= 2]
        if len(ramified) != 1:
            return False, (f"fiber for {name} has {len(ramified)} ramification points,"
                           " need exactly 1")
        if ramified[0] != expected:
            return False, f"{name} mismatch: expected {expected}, found {ramified[0]}"
    return True, f"single-cycle of type {claimed.indices}"


# ---- families ---------------------------------------------------------------


def power_map(d: int) -> BelyiMap:
    """x^d: totally ramified over 0 and infinity, unramified over 1."""
    if d < 1:
        raise ParameterOutOfRangeError("power map needs d >= 1")
    return _family_map(RatFunc([0] * d + [1], [1]), "power")


def _chebyshev_ints(n: int) -> list[int]:
    # T_n's ascending integer coefficients: x^(n-2k) has
    # (-1)^k n/(n-k) binom(n-k, k) 2^(n-2k-1), an integer, for 2k <= n
    if n == 0:
        return [1]
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** k * n * math.comb(n - k, k) * 2 ** (n - 2 * k) // (2 * (n - k))
    return out


def chebyshev_map(d: int) -> BelyiMap:
    """(T_d + 1)/2, normalized so the branch values are within {0, 1, inf}."""
    if d < 3:
        raise ParameterOutOfRangeError("chebyshev map needs d >= 3")
    t = _chebyshev_ints(d)
    t[0] += 1
    return _family_map(RatFunc(t, [2]), "chebyshev")


def _single_cycle_ints(ct: CombinatorialType) -> tuple[list[int], list[int]]:
    """The integer pair of the normalized map of type (d; e0, e1, eInf),
    m = d - e0, n = d - eInf, where the map is

        f = (Q(1) / P(1)) x^e0 P(x) / Q(x),
        P = 2F1(-m, d+1-e1; e0+1; x),  Q = 2F1(-n, -d; 1-e0; x).

    P/Q is the [m/n] Pade approximant of x^(-e0) at x = 1 (Baker &
    Graves-Morris, Pade Approximants, 2nd ed., 1996).  It is built over the
    integers, as u = perm(d, m) P and v = perm(e0-1, n) Q, and the pair is
    (x^e0 v(1) u, u(1) v), unreduced, with no Fraction on the way.
    Their coefficients u_j = (-1)^j binom(m, j) perm(d-e1+j, j) perm(d, m-j)
    and v_j = (-1)^j binom(n, j) perm(d, j) perm(e0-1-j, n-j) come from
    their term ratios, one small product and one exact division each:

        u_j = -u_(j-1) (m-j+1)(d-e1+j) / (j (d-m+j)),
        v_j = -v_(j-1) (n-j+1)(d-j+1) / (j (e0-j)).
    """
    d, e0, e1, e_inf = ct.d, ct.e0, ct.e1, ct.e_inf
    m, n = d - e0, d - e_inf
    u = [math.perm(d, m)]
    for j in range(1, m + 1):
        u.append(-u[-1] * (m - j + 1) * (d - e1 + j) // (j * (d - m + j)))
    v = [math.perm(e0 - 1, n)]
    for j in range(1, n + 1):
        v.append(-v[-1] * (n - j + 1) * (d - j + 1) // (j * (e0 - j)))
    u1, v1 = sum(u), sum(v)
    return [0] * e0 + [v1 * x for x in u], [u1 * x for x in v]


# x, x - 1 and x^2 - x: the primitive factors of a certified Wronskian
_CRITICAL = ([0, 1], [-1, 1], [0, -1, 1])


def _certified_profile(f: RatFunc, ct: CombinatorialType) -> RamificationProfile | None:
    """The profile (e, 1, ..., 1) over 0, 1 and inf that the type ct gives,
    when f is the normalized map of that type; None when it is not.

    f = N/D need not be reduced: this proves it.  Let deg N = d, deg N - deg D
    = eInf, x^e0 | N, N(1) = D(1) != 0, and W = N'D - ND' = c x^(e0-1)
    (x-1)^(e1-1), which W's squarefree decomposition decides (W != 0: its top
    coefficient is eInf lc(N) lc(D)).  A common factor g of N and D puts g^2
    into W, as N = gn and D = gd give W = g^2 (n'd - nd'), so g's roots lie
    in {0, 1}: D(1) != 0 excludes 1, and W's order e0 - 1 at 0 excludes 0, as
    x | D would raise it to e0.  So N and D are coprime, and f fixes 0, 1 and
    inf, with index eInf at inf.  Since f' = W / D^2, a finite point of index
    e is a root of W of order e - 1, poles included: 0 and 1 are the only
    finite ramification points, of indices e0 and e1, and the rest are simple.
    """
    d, (e0, e1, e_inf) = ct.d, ct.indices
    num, den = f.pair
    if (len(num) != d + 1 or len(num) - len(den) != e_inf or any(num[:e0])
            or not sum(num) == sum(den) != 0):
        return None
    x, x1, x2x = _CRITICAL
    roots = [(x, e0 - 1), (x1, e1 - 1)] if e0 != e1 else [(x2x, e0 - 1)]
    if squarefree_decomposition(Poly(_wronskian(num, den))) != sorted(roots, key=lambda r: r[1]):
        return None
    return RamificationProfile(d, *((e,) + (1,) * (d - e) for e in ct.indices))


def _family_map(
    f: RatFunc, family: str, k: int | None = None, ct: CombinatorialType | None = None,
    params: MapParams | None = None, prof: RamificationProfile | None = None,
) -> BelyiMap:
    """f as a member of the family tagged ``family``, and the one place that
    sets the fields BelyiMap's constructor does not take, each once."""
    m = BelyiMap(f, claimed_type=ct)
    vars(m).update(family=family, k=k, params=params)
    if prof is not None:
        vars(m)["profile"] = prof  # where functools.cached_property keeps its value
    return m


def single_cycle_polynomial(d: int, k: int) -> BelyiMap:
    """The map of type (d-k, k+1, d), a polynomial since eInf = d, whose
    derivative is a constant times x^(d-k-1) (x-1)^k; (d, k) only names the
    type, whose map `family_map_for_type` builds."""
    if d < 3 or not 1 <= k < d - 1:
        raise ParameterOutOfRangeError(
            f"(d, k) = ({d}, {k}) outside d >= 3, 1 <= k <= d - 2"
        )
    return family_map_for_type(CombinatorialType(d, d - k, k + 1, d))


def symmetric_single_cycle(d: int, k: int) -> BelyiMap:
    """The map of type (d-k, 2k+1, d-k), with f(1/x) f(x) = 1 since e0 = eInf;
    (d, k) only names the type, whose map `family_map_for_type` builds.  The
    type constraint e1 = 2k + 1 <= d bounds k at (d - 1) / 2.
    """
    if d < 3 or not 1 <= k or 2 * k + 1 > d:
        raise ParameterOutOfRangeError(
            f"(d, k) = ({d}, {k}) outside d >= 3, 1 <= k <= (d - 1) / 2"
        )
    return family_map_for_type(CombinatorialType(d, d - k, 2 * k + 1, d - k))


def family_map_for_type(ct: CombinatorialType) -> BelyiMap | None:
    """The one builder of a single-cycle family's map: the certified
    normalized map of the type, when a family covers it, else None.

    The polynomial family covers eInf = d and the symmetric family e0 = eInf
    (then e1 = 2k + 1 is odd), each member named by k = d - e0.  The map is
    `_single_cycle_ints`'s pair, built with no gcd; its certificate proves it
    reduced and of type ct, or VerificationError is raised.  Its params are
    how its family writes it: the polynomial family as c x^(d-k) (a0 x^k +
    ... + a_k) with a_k = 1/(d-k), the symmetric family as x^(d-k) N(x) /
    D(x), where D has ascending coefficients (-1)^i a_i with a_k = k!
    binom(d, k) and N is D reversed.
    """
    d, e0 = ct.d, ct.e0
    if ct.e_inf == d:
        family = "single-cycle-poly"
    elif e0 == ct.e_inf:
        family = "symmetric-single-cycle"
    else:
        return None
    k = d - e0
    f = RatFunc._of_coprime(*_single_cycle_ints(ct))
    prof = _certified_profile(f, ct)
    if prof is None:
        raise VerificationError(
            f"{family} map (d, k) = ({d}, {k}) is not the normalized map of type {ct.indices}"
        )
    num, den = f.pair
    if family == "single-cycle-poly":  # eInf = d: the denominator is a constant
        lead = e0 * num[e0]
        c, a = Fraction(lead, den[-1]), [Fraction(num[d - i], lead) for i in range(k + 1)]
    else:
        scale = (-1) ** k * math.factorial(k) * math.comb(d, k)
        c, a = None, [Fraction((-1) ** i * scale * x, den[-1]) for i, x in enumerate(den)]
    return _family_map(f, family, k, ct, MapParams(c, tuple(a)), prof)
