"""Permutations of {1, ..., d} with an explicit degree.

Composition is left-to-right everywhere in this package: a * b sends i to
b(a(i)), i.e. a acts first.  Cycle decompositions are canonical: each
cycle is rotated to start at its minimum, cycles are sorted by minimum, and
fixed points appear as 1-cycles.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exact import brief_repr, compact_json, parse_int

# A cycle type is the multiset of cycle lengths (fixed points included),
# stored as a descending tuple summing to the degree.
CycleType = tuple[int, ...]


class DegreeMismatchError(ValueError):
    """Operands act on point sets of different sizes."""


def _cycle_tuples(cycles: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    """Each cycle as a tuple, as every cycle reader reads them; raises
    ValueError unless ``cycles`` is a list or tuple of iterables, and
    refuses any other container, a string or a dict, before it builds."""
    try:
        if not isinstance(cycles, (list, tuple)):
            raise TypeError
        return [tuple(c) for c in cycles]
    except TypeError:
        raise ValueError(f"cycles must be a list of lists, not {brief_repr(cycles)}") from None


class Permutation:
    """A bijection of {1, ..., d} of int points, stored as its image sequence."""

    __slots__ = ("images", "degree", "_cycles", "_nontrivial", "_text")

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        d = len(imgs)
        if d == 0:
            raise ValueError("degree must be at least 1")
        # checked in C, so that products pay no per-point call
        if set(map(type, imgs)) != {int}:
            for x in imgs:
                parse_int(x)
        if sorted(imgs) != list(range(1, d + 1)):
            raise ValueError(f"not a bijection of 1..{d}: {brief_repr(imgs)}")
        self.images: tuple[int, ...] = imgs
        # set once, as a plain slot: a record's checks read it a dozen times
        self.degree: int = d
        self._cycles: tuple[tuple[int, ...], ...] | None = None
        self._nontrivial: tuple[tuple[int, ...], ...] | None = None
        self._text: str | None = None

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(1, d + 1))

    @classmethod
    def _with_cycles(
        cls, images: Sequence[int], cycles: tuple[tuple[int, ...], ...], text: str | None = None
    ) -> "Permutation":
        """The permutation of these images, checked as ``__init__`` checks
        any, keeping ``cycles`` as the ones ``cycles()`` returns, so they
        are never walked, and ``text``, when given, as the one
        ``_json_text()`` returns, so they are never encoded; the caller
        vouches that they are its canonical cycles, fixed points included,
        and their compact JSON text.  The one place cycles or text are kept
        without a walk or an encoding."""
        p = cls(images)
        p._cycles = cycles
        p._text = text
        return p

    @classmethod
    def from_cycles(cls, d: int, cycles: Sequence[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles; unmentioned points stay fixed.

        Cycles that are already canonical (each starts at its minimum, the
        minima strictly increase) and cover 1..d are kept as the ones
        ``cycles()`` returns, as a stored triple's are, through
        ``_with_cycles``, so they are not walked; any other rotation or
        order is walked on first use.
        """
        images = list(range(1, d + 1))
        # seen[x] marks point x; a degree below 1 marks none, and the
        # empty image list then fails in __init__
        seen = bytearray(max(d, 0) + 1)
        cycs = _cycle_tuples(cycles)
        # the last cycle's first point while the cycles are canonical, else None
        last: int | None = 0
        for cyc in cycs:
            if not cyc:
                raise ValueError("empty cycle")
            for x in cyc:
                if type(x) is not int or not 0 < x <= d or seen[x]:
                    # name the fault: a non-int, a point out of range, a repeat
                    if not 1 <= parse_int(x) <= d:
                        raise ValueError(f"point {x} outside 1..{d}")
                    raise ValueError(f"point {x} repeated across cycles")
                seen[x] = 1
            prev = cyc[-1]
            for x in cyc:
                images[prev - 1] = x
                prev = x
            if last is not None:
                last = cyc[0] if last < cyc[0] == min(cyc) else None
        # the points are distinct and in range, so d of them cover 1..d
        if last is not None and sum(map(len, cycs)) == d:
            return cls._with_cycles(images, tuple(cycs))
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(("Permutation", self.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: (self * other)(i) = other(self(i))."""
        if other.degree != self.degree:
            raise DegreeMismatchError(
                f"degrees differ: {self.degree} vs {other.degree}"
            )
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    @property
    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical disjoint cycles, fixed points included; computed on
        the first call and kept."""
        if self._cycles is not None:
            return self._cycles
        imgs = self.images
        out: list[tuple[int, ...]] = []
        seen = [False] * (len(imgs) + 1)
        for start in range(1, len(imgs) + 1):
            if seen[start]:
                continue
            cyc = [start]
            nxt = imgs[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = imgs[nxt - 1]
            out.append(tuple(cyc))
        self._cycles = tuple(out)
        return self._cycles

    def nontrivial_cycles(self) -> tuple[tuple[int, ...], ...]:
        """The canonical cycles of length >= 2; computed on the first call
        and kept, so a degree's records, which share sigma0 and sigma1,
        scan each once."""
        if self._nontrivial is None:
            self._nontrivial = tuple([c for c in self.cycles() if len(c) >= 2])
        return self._nontrivial

    def cycle_type(self) -> CycleType:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def num_cycles(self) -> int:
        return len(self.cycles())

    def cycle_string(self) -> str:
        if self.is_identity:
            return "()"
        return "".join(
            "(" + " ".join(str(x) for x in c) + ")" for c in self.cycles()
        )

    def to_json(self) -> list[list[int]]:
        return list(map(list, self.cycles()))

    def _json_text(self) -> str:
        """The compact JSON text of ``to_json()``, as ``_with_cycles`` was
        given it or else computed on the first call, and kept: a record line
        holds sigma0's and sigma1's cycles twice, and a degree's records
        share them, so each is encoded at most once.  The encoder writes the
        kept cycle tuples as arrays, so no list is built for it."""
        if self._text is None:
            self._text = compact_json(self.cycles())
        return self._text

    @classmethod
    def from_json(cls, cycles: Sequence[Iterable[int]]) -> "Permutation":
        """The permutation of these cycles, a JSON list of lists read as
        from_cycles reads them, whose degree is the number of points given:
        from_cycles rejects repeats and points outside 1..d, so the cycles
        must cover 1..d, fixed points included."""
        cycles = _cycle_tuples(cycles)
        return cls.from_cycles(sum(map(len, cycles)), cycles)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, d={self.degree})"


def is_transitive(perms: Sequence[Permutation]) -> bool:
    """Whether the generated group has a single orbit on 1..d.

    The orbits are the generators' nontrivial cycles, joined where they
    meet, and the fixed points.  So when at most two cycles are moved in
    all, as sigma0 and sigma1 of a single-cycle triple or of the power
    triple move, the group is transitive iff one cycle covers 1..d, or two
    cycles meet and their union does (with no cycle moved, iff d = 1).  Any
    other input takes the forward closure of the point 1 under the
    generators' images; g^-1 is a power of g on a finite set, so no
    inverses are needed.
    """
    if not perms:
        raise ValueError("need at least one generator")
    d = perms[0].degree
    if any(p.degree != d for p in perms):
        raise DegreeMismatchError("generators act on different point sets")
    moved = [c for p in perms for c in p.nontrivial_cycles()]
    if len(moved) <= 2:
        orbit = set(moved[0]) if moved else {1}
        if len(moved) == 2 and not orbit.isdisjoint(moved[1]):
            orbit.update(moved[1])
        return len(orbit) == d
    gens = [p.images for p in perms]
    seen = [False] * (d + 1)
    seen[1] = True
    stack = [1]
    reached = 1
    while stack:
        x = stack.pop() - 1
        for g in gens:
            y = g[x]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
                reached += 1
    return reached == d
