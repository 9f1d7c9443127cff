"""Generating systems: transitive permutation triples with product one.

A generating system (sigma0, sigma1, sigmaInf) encodes the monodromy of a
Belyi map around 0, 1, and infinity, with sigma0 * sigma1 * sigmaInf the
identity under the left-to-right composition convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple

from .exact import json_field, json_object, parse_int
from .perm import DegreeMismatchError, Permutation, is_transitive


class NotTransitiveError(ValueError):
    """The permutations do not generate a transitive group."""


class InvalidTypeError(ValueError):
    """Ramification indices violating the degree-d constraints."""


# the largest degree of a map that is built or read: the CLI's construct
# and dessin refuse a larger one before any builder asks for d-sized lists,
# and BelyiMap.from_json a larger stored f.  At d = 1000 the slowest
# family, Chebyshev, takes about 5 s to build, the other three at most
# 0.2 s, and a dessin 1 ms; the canonical triples keep their run tables,
# and Dessin.to_dot its DOT pieces, for every degree up to it
MAX_DEGREE = 1000


@dataclass(frozen=True)
class CombinatorialType:
    """Type (d; e0, e1, eInf) of a genus-zero single-cycle Belyi map.

    The indices satisfy 2 <= e <= d and e0 + e1 + eInf = 2d + 1, which is
    the Riemann-Hurwitz count for genus zero with one ramification point
    per branch fiber.
    """

    d: int
    e0: int
    e1: int
    e_inf: int

    def __post_init__(self):
        # each rule once, in the order its messages name them; only after a
        # rule fails is the value that breaks it looked up.  Exact ints
        # only, so bool, float and int subclasses are refused by type
        d, e0, e1, e_inf = self.d, self.e0, self.e1, self.e_inf
        if not type(d) is type(e0) is type(e1) is type(e_inf) is int:
            for e in (d, e0, e1, e_inf):
                parse_int(e)
        if d < 3:
            raise InvalidTypeError(f"degree must be at least 3, got {d}")
        if not (2 <= e0 <= d and 2 <= e1 <= d and 2 <= e_inf <= d):
            for name, e in zip(("e0", "e1", "eInf"), self.indices):
                if not 2 <= e <= d:
                    raise InvalidTypeError(f"{name} = {e} outside the valid range [2, {d}]")
        if e0 + e1 + e_inf != 2 * d + 1:
            raise InvalidTypeError(
                f"indices {self.indices} sum to {e0 + e1 + e_inf}, need 2d + 1 = {2 * d + 1}"
            )

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.e0, self.e1, self.e_inf)

    @classmethod
    def from_indices(cls, e0: int, e1: int, e_inf: int) -> "CombinatorialType":
        """Infer the degree from the index sum e0 + e1 + eInf = 2d + 1."""
        total = sum(map(parse_int, (e0, e1, e_inf)))
        if total % 2 == 0:
            raise InvalidTypeError(
                f"indices ({e0}, {e1}, {e_inf}) sum to {total},"
                " which is even: no integer degree fits"
            )
        return cls((total - 1) // 2, e0, e1, e_inf)

    def to_json(self) -> dict:
        return {"d": self.d, "e0": self.e0, "e1": self.e1, "eInf": self.e_inf}

    @classmethod
    def from_json(cls, data: dict) -> "CombinatorialType":
        fields = ("d", "e0", "e1", "eInf")
        json_object(data, "type", fields)
        return cls(*(json_field(data, key, "type") for key in fields))

    def __str__(self) -> str:
        return f"({self.e0}, {self.e1}, {self.e_inf})"


def valid_types(d: int) -> list[CombinatorialType]:
    """All combinatorial types of degree d, sorted by (e0, e1)."""
    # eInf = 2d + 1 - e0 - e1 lies in [2, d] exactly when e1 lies in
    # [d + 1 - e0, 2d - 1 - e0]
    return [
        CombinatorialType(d, e0, e1, 2 * d + 1 - e0 - e1)
        for e0 in range(2, d + 1)
        for e1 in range(max(2, d + 1 - e0), min(d, 2 * d - 1 - e0) + 1)
    ]


@dataclass(frozen=True)
class GeneratingSystem:
    """Validated transitive triple with sigma0 * sigma1 * sigmaInf = id."""

    sigma0: Permutation
    sigma1: Permutation
    sigma_inf: Permutation

    def __post_init__(self):
        d = self.sigma0.degree
        if self.sigma1.degree != d or self.sigma_inf.degree != d:
            raise DegreeMismatchError("triple degrees differ")
        # (sigma0 * sigma1 * sigmaInf)(i) = sigmaInf(sigma1(sigma0(i)))
        b, c = self.sigma1.images, self.sigma_inf.images
        for i, x in enumerate(self.sigma0.images, 1):
            if c[b[x - 1] - 1] != i:
                raise ValueError("sigma0 * sigma1 * sigmaInf is not the identity")
        if not is_transitive([self.sigma0, self.sigma1]):
            raise NotTransitiveError(
                "sigma0 and sigma1 do not generate a transitive group"
            )

    @property
    def degree(self) -> int:
        return self.sigma0.degree

    @property
    def triple(self) -> tuple[Permutation, Permutation, Permutation]:
        return (self.sigma0, self.sigma1, self.sigma_inf)

    def genus(self) -> int:
        """Genus from the cycle-count Euler formula 2 - 2g = c0 + c1 + cInf - d.

        The count needs no check of its own.  The product is the identity,
        so the three signs (-1)^(d - c) multiply to 1 and c0 + c1 + cInf - d
        is even; the group is transitive, so the surface is connected and
        g >= 0.  __post_init__ has checked both.
        """
        return (2 + self.degree - sum(s.num_cycles() for s in self.triple)) // 2

    def single_cycle_type(self) -> CombinatorialType | None:
        """The type (d; e0, e1, eInf) when each sigma has exactly one
        nontrivial cycle and the triple has genus zero; None otherwise."""
        lens = []
        for s in self.triple:
            nt = s.nontrivial_cycles()
            if len(nt) != 1:
                return None
            lens.append(len(nt[0]))
        if sum(lens) != 2 * self.degree + 1:
            return None  # single-cycle but positive genus
        return CombinatorialType(self.degree, *lens)

    def to_json(self) -> dict:
        return {
            "d": self.degree,
            "sigma0": self.sigma0.to_json(),
            "sigma1": self.sigma1.to_json(),
            "sigmaInf": self.sigma_inf.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "GeneratingSystem":
        """Read a triple; its degree comes from the points its cycles give,
        and a stated ``d`` that differs raises ValueError."""
        json_object(data, "gensys", ("d", "sigma0", "sigma1", "sigmaInf"))
        d = parse_int(json_field(data, "d", "gensys"))
        cycles = (json_field(data, key, "gensys") for key in ("sigma0", "sigma1", "sigmaInf"))
        gs = cls(*map(Permutation.from_json, cycles))
        if gs.degree != d:
            raise ValueError(f"gensys states d = {d} but its cycles cover 1..{gs.degree}")
        return gs


def make_gensys(sigma0: Permutation, sigma1: Permutation) -> GeneratingSystem:
    """Complete (sigma0, sigma1) with the derived sigmaInf = (sigma0*sigma1)^-1."""
    return GeneratingSystem(sigma0, sigma1, (sigma0 * sigma1).inverse())


def power_gensys(d: int) -> GeneratingSystem:
    """The cyclic triple of x^d: (1 2 ... d), the identity, and (1 d ... 2)."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    s0 = Permutation.from_cycles(d, [range(1, d + 1)])
    s_inf = Permutation.from_cycles(d, [(1, *range(d, 1, -1))])
    return GeneratingSystem(s0, Permutation.identity(d), s_inf)


def chebyshev_gensys(d: int) -> GeneratingSystem:
    """The path triple: adjacent transpositions interleaved on 1..d.

    sigma0 pairs (1 2)(3 4)..., sigma1 pairs (2 3)(4 5)..., and sigmaInf is
    (1 2 4 6 ... 5 3): 1, the evens going up, then the odds above 1 coming
    down, so a d-cycle.  This is the monodromy of (T_d + 1)/2 itself: for
    even d its fiber over 0 is d/2 double points, as sigma0 is d/2
    transpositions.
    """
    if d < 3:
        raise ValueError("degree must be at least 3")
    s0 = Permutation.from_cycles(d, [(i, i + 1) for i in range(1, d, 2)])
    s1 = Permutation.from_cycles(d, [(i, i + 1) for i in range(2, d, 2)])
    odds_down = reversed(range(3, d + 1, 2))
    s_inf = Permutation.from_cycles(d, [(1, *range(2, d + 1, 2), *odds_down)])
    return GeneratingSystem(s0, s1, s_inf)


# The canonical triple's three permutations, each built from its image
# tuple (sigma(1), ..., sigma(d)), its canonical cycles and their JSON
# text, all three written here from the same lo = d - e0 + 1, e1 and d as
# slices of one set of run tables, so none is formatted or walked.


class _Runs(NamedTuple):
    """Slices of these give every run of the canonical triple to degree n.

    ``nat`` is 0, 1, ..., n + 1, so ``nat[a:b]`` is a..b-1 and
    ``nat[hi:lo:-1]`` is hi..lo+1, and ``ones`` holds their 1-tuples.
    ``num[i]`` is ",i" and ``fixed[i]`` ",[i]", so the same slices of
    these, joined, are those runs' JSON text, each item after a comma.
    """

    nat: tuple[int, ...]
    ones: tuple[tuple[int], ...]
    num: tuple[str, ...]
    fixed: tuple[str, ...]


def _runs(n: int) -> _Runs:
    """The run tables for every degree up to n."""
    nat = tuple(range(n + 2))
    return _Runs(nat, tuple(zip(nat)), tuple([f",{i}" for i in nat]), tuple([f",[{i}]" for i in nat]))


@cache
def _kept_runs() -> _Runs:
    """The run tables for every degree up to MAX_DEGREE, built on the first
    triple and kept."""
    return _runs(MAX_DEGREE)


def _runs_for(d: int) -> _Runs:
    """The kept run tables, or for a degree past the cap its own, kept by
    no one."""
    return _kept_runs() if d <= MAX_DEGREE else _runs(d)


def _sigma0(d: int, e0: int, r: _Runs) -> Permutation:
    lo = d - e0 + 1
    nat, ones, num, fixed = r
    # the fixed points come first, and the first item's comma is dropped
    text = f"{''.join(fixed[1:lo])},[{lo}{''.join(num[d:lo:-1])}]"
    return Permutation._with_cycles(
        (*nat[1:lo], d, *nat[lo:d]),
        (*ones[1:lo], (lo, *nat[d:lo:-1])),
        f"[{text[1:]}]",
    )


def _sigma1(d: int, e1: int, r: _Runs) -> Permutation:
    nat, ones, num, fixed = r
    return Permutation._with_cycles(
        (*nat[2:e1 + 1], 1, *nat[e1 + 1:d + 1]),
        (nat[1:e1 + 1], *ones[e1 + 1:d + 1]),
        f"[[1{''.join(num[2:e1 + 1])}]{''.join(fixed[e1 + 1:d + 1])}]",
    )


def _sigma_inf(d: int, e0: int, e1: int, r: _Runs) -> Permutation:
    lo = d - e0 + 1
    nat, ones, num, fixed = r
    if e1 < d:
        images = (e1 + 1, *nat[1:lo], *nat[lo + 1:e1 + 1], *nat[e1 + 2:d + 1], lo)
    else:
        images = (lo, *nat[1:lo], *nat[lo + 1:d + 1])
    return Permutation._with_cycles(
        images,
        ((1, *nat[e1 + 1:d + 1], *nat[lo:1:-1]), *ones[lo + 1:e1 + 1]),
        f"[[1{''.join(num[e1 + 1:d + 1])}{''.join(num[lo:1:-1])}]{''.join(fixed[lo + 1:e1 + 1])}]",
    )


def canonical_single_cycle(ct: CombinatorialType) -> GeneratingSystem:
    """The standard representative triple of a combinatorial type.

    With lo = d - e0 + 1, the triple is built from its image tuples
    (sigma(1), ..., sigma(d)):

        sigma0    = (1, ..., lo-1, d, lo, ..., d-1)
        sigma1    = (2, ..., e1, 1, e1+1, ..., d)
        sigmaInf  = (e1+1, 1, ..., lo-1, lo+1, ..., e1, e1+2, ..., d, lo)
                    when e1 < d, and (lo, 1, ..., lo-1, lo+1, ..., d)
                    when e1 = d,

    and keeps their cycles and those cycles' JSON text, written in closed
    form: the tuples and cycles are slices of the naturals and their
    1-tuples, and the text is joined from the same slices of the pieces
    ",i" and ",[i]", all kept for every degree up to MAX_DEGREE (a larger
    type builds its own for the call), so none is walked or encoded:
    sigma0 = (d, d-1, ..., lo) on the top e0 points, fixing 1, ..., lo-1;
    sigma1 = (1, 2, ..., e1) on the bottom e1 points, fixing e1+1, ..., d;
    and sigmaInf = (1, e1+1, ..., d, lo, lo-1, ..., 2), fixing lo+1, ..., e1.
    The supports of sigma0 and sigma1 overlap in e0 + e1 - d >= 1 points,
    so the pair is transitive, and sigmaInf's two runs are disjoint because
    lo <= e1, so it is one cycle of length 1 + (d-e1) + (d-e0) = eInf: the
    triple has type ct and genus zero.  ``Permutation`` checks that each
    tuple is a bijection, and ``GeneratingSystem`` that
    sigma0 sigma1 sigmaInf = id and that the pair is transitive.  The
    relative orientation matters: with both cycles ascending the product
    is a full d-cycle instead, which has the wrong genus whenever eInf < d.
    """
    d, e0, e1 = ct.d, ct.e0, ct.e1
    r = _runs_for(d)
    return GeneratingSystem(_sigma0(d, e0, r), _sigma1(d, e1, r), _sigma_inf(d, e0, e1, r))


def canonical_triples(d: int) -> Iterator[tuple[CombinatorialType, GeneratingSystem]]:
    """Every type of degree d with its canonical triple, in ``valid_types``
    order.

    sigma0 depends only on (d, e0) and sigma1 only on (d, e1), so each is
    built once per call, and every triple of this call with that e0 or e1
    holds the same ``Permutation``.  Each permutation keeps the closed-form
    cycles and text that ``canonical_single_cycle`` states, so none is
    walked or encoded.  Only the run tables outlive the call; no
    permutation does.
    """
    r = _runs_for(d)
    es = range(2, d + 1)
    sigma0 = {e: _sigma0(d, e, r) for e in es}
    sigma1 = {e: _sigma1(d, e, r) for e in es}
    for ct in valid_types(d):
        yield ct, GeneratingSystem(sigma0[ct.e0], sigma1[ct.e1], _sigma_inf(d, ct.e0, ct.e1, r))


def equivalent(a: GeneratingSystem, b: GeneratingSystem) -> bool:
    """Simultaneous-conjugation equivalence of two generating systems.

    Searches for t with t(sigma_i^a(x)) = sigma_i^b(t(x)) for i in {0, 1};
    sigmaInf then matches automatically.  Transitivity pins t completely
    once t(1) is chosen, so the search tries the d seeds and propagates.
    """
    if a.degree != b.degree:
        raise DegreeMismatchError(
            f"degrees differ: {a.degree} vs {b.degree}"
        )
    for sa, sb in zip(a.triple, b.triple):
        if sa.cycle_type() != sb.cycle_type():
            return False
    d = a.degree
    pairs = ((a.sigma0, b.sigma0), (a.sigma1, b.sigma1))
    for seed in range(1, d + 1):
        t = {1: seed}
        stack = [1]
        ok = True
        while stack and ok:
            x = stack.pop()
            for ga, gb in pairs:
                nx, ny = ga(x), gb(t[x])
                if nx in t:
                    if t[nx] != ny:
                        ok = False
                        break
                else:
                    t[nx] = ny
                    stack.append(nx)
        if ok and len(t) == d and len(set(t.values())) == d:
            return True
    return False
