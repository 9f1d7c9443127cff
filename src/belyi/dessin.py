"""Dessins d'enfants as bipartite ribbon graphs.

A dessin on d edges has one black vertex per cycle of sigma0 and one white
vertex per cycle of sigma1 (fixed points give degree-one vertices); edge
labels 1..d appear exactly once on each side, and the cyclic order around a
vertex is the cycle itself.  Cyclic orders are stored rotated to start at
their minimum label and vertices sorted by that minimum, so equal dessins
compare equal structurally.

Orientation convention: the stored cyclic order is abstract; reversing every
cycle on both sides yields the mirror dessin, which is a different (possibly
isomorphic) object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact import parse_int
from .gensys import GeneratingSystem, make_gensys, equivalent
from .perm import Permutation, is_transitive


@dataclass(frozen=True)
class DessinShape:
    """Leaf and hub counts of a two-hub (double-star) dessin."""

    white_leaves: int
    black_leaves: int
    parallel_edges: int
    black_hub_degree: int
    white_hub_degree: int

    def __post_init__(self):
        if self.white_leaves + self.parallel_edges != self.black_hub_degree:
            raise ValueError("white leaves + parallel edges != black hub degree")
        if self.black_leaves + self.parallel_edges != self.white_hub_degree:
            raise ValueError("black leaves + parallel edges != white hub degree")

    def to_json(self) -> dict:
        return {
            "whiteLeaves": self.white_leaves,
            "blackLeaves": self.black_leaves,
            "parallelEdges": self.parallel_edges,
            "blackHubDegree": self.black_hub_degree,
            "whiteHubDegree": self.white_hub_degree,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DessinShape":
        return cls(
            parse_int(data["whiteLeaves"]),
            parse_int(data["blackLeaves"]),
            parse_int(data["parallelEdges"]),
            parse_int(data["blackHubDegree"]),
            parse_int(data["whiteHubDegree"]),
        )


def _canonical_cycles(cycles: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    out = []
    for cyc in cycles:
        cyc = [int(x) for x in cyc]
        if not cyc:
            raise ValueError("empty vertex cycle")
        k = cyc.index(min(cyc))
        out.append(tuple(cyc[k:] + cyc[:k]))
    return tuple(sorted(out, key=lambda c: c[0]))


class Dessin:
    """A connected bipartite ribbon graph with labeled edges 1..d."""

    __slots__ = ("d", "black", "white")

    def __init__(
        self,
        d: int,
        black: Iterable[Sequence[int]],
        white: Iterable[Sequence[int]],
    ):
        black = _canonical_cycles(black)
        white = _canonical_cycles(white)
        for side, cycles in (("black", black), ("white", white)):
            labels = sorted(x for c in cycles for x in c)
            if labels != list(range(1, d + 1)):
                raise ValueError(
                    f"{side} cycles must cover each label 1..{d} exactly once"
                )
        self.d = d
        self.black = black
        self.white = white
        # connectivity is exactly transitivity of the edge permutations
        if not is_transitive([self._perm(black), self._perm(white)]):
            raise ValueError("dessin is not connected")

    def _perm(self, cycles: tuple[tuple[int, ...], ...]) -> Permutation:
        return Permutation.from_cycles(self.d, cycles)

    @property
    def sigma0(self) -> Permutation:
        return self._perm(self.black)

    @property
    def sigma1(self) -> Permutation:
        return self._perm(self.white)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Dessin)
            and self.d == other.d
            and self.black == other.black
            and self.white == other.white
        )

    def __hash__(self) -> int:
        return hash(("Dessin", self.d, self.black, self.white))

    def __repr__(self) -> str:
        return f"Dessin(d={self.d}, black={self.black}, white={self.white})"

    # ---- incidence helpers -------------------------------------------------

    def _label_vertex(self, cycles) -> dict[int, int]:
        where: dict[int, int] = {}
        for idx, cyc in enumerate(cycles):
            for x in cyc:
                where[x] = idx
        return where

    def _adjacency(self) -> dict[tuple[str, int], set[tuple[str, int]]]:
        """Simple-graph adjacency; parallel edges collapse."""
        at_black = self._label_vertex(self.black)
        at_white = self._label_vertex(self.white)
        adj: dict[tuple[str, int], set[tuple[str, int]]] = {
            ("b", i): set() for i in range(len(self.black))
        }
        adj.update({("w", j): set() for j in range(len(self.white))})
        for lab in range(1, self.d + 1):
            u = ("b", at_black[lab])
            v = ("w", at_white[lab])
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(black vertex degrees, white vertex degrees) in storage order."""
        return (
            tuple(len(c) for c in self.black),
            tuple(len(c) for c in self.white),
        )

    # ---- invariants --------------------------------------------------------

    def genus(self) -> int:
        """Genus via Euler's formula V - E + F = 2 - 2g, faces counted as
        cycles of (sigma0 * sigma1)^-1."""
        v = len(self.black) + len(self.white)
        f = (self.sigma0 * self.sigma1).num_cycles()
        euler = v - self.d + f
        if euler % 2:
            raise RuntimeError("odd Euler characteristic")
        return (2 - euler) // 2

    def diameter_vertices(self) -> int:
        """Graph diameter counted in vertices traversed.

        A shortest path through k edges visits k + 1 vertices, so a single
        isolated vertex would have diameter 1 and two adjacent vertices
        have diameter 2.
        """
        adj = self._adjacency()
        best = 0
        for start in adj:
            dist = {start: 0}
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            best = max(best, max(dist.values()))
        return best + 1

    def shape(self) -> DessinShape | None:
        """Leaf/hub counts for a two-hub dessin, None otherwise (NotTwoHub).

        Requires exactly one black and one white vertex of degree >= 2; all
        other vertices are leaves.
        """
        bhubs = [i for i, c in enumerate(self.black) if len(c) >= 2]
        whubs = [j for j, c in enumerate(self.white) if len(c) >= 2]
        if len(bhubs) != 1 or len(whubs) != 1:
            return None
        bhub = self.black[bhubs[0]]
        whub = self.white[whubs[0]]
        return DessinShape(
            white_leaves=len(self.white) - 1,
            black_leaves=len(self.black) - 1,
            parallel_edges=len(set(bhub) & set(whub)),
            black_hub_degree=len(bhub),
            white_hub_degree=len(whub),
        )

    def is_path(self) -> bool:
        """True when the underlying simple graph is a path on d+1 vertices."""
        bdeg, wdeg = self.degrees()
        v = len(bdeg) + len(wdeg)
        return v == self.d + 1 and max(bdeg + wdeg) <= 2

    def is_star(self) -> bool:
        """True when a single hub carries every edge, each to its own leaf."""
        bdeg, wdeg = self.degrees()
        v = len(bdeg) + len(wdeg)
        return v == self.d + 1 and max(bdeg + wdeg) == self.d

    # ---- serialization -----------------------------------------------------

    def to_dot(self) -> str:
        """Deterministic Graphviz source: black vertices filled, white open,
        edges labeled 1..d.  Stable IDs b0, b1, ... / w0, w1, ... follow the
        canonical storage order."""
        at_black = self._label_vertex(self.black)
        at_white = self._label_vertex(self.white)
        lines = [
            "graph dessin {",
            "  node [shape=circle, fixedsize=true, width=0.25];",
        ]
        for i in range(len(self.black)):
            lines.append(f'  b{i} [style=filled, fillcolor=black, label=""];')
        for j in range(len(self.white)):
            lines.append(f'  w{j} [label=""];')
        for lab in range(1, self.d + 1):
            lines.append(f'  b{at_black[lab]} -- w{at_white[lab]} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "black": [list(c) for c in self.black],
            "white": [list(c) for c in self.white],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Dessin":
        black, white = (
            [[parse_int(x) for x in c] for c in data[side]] for side in ("black", "white")
        )
        return cls(parse_int(data["d"]), black, white)


def dessin_from_gensys(gs: GeneratingSystem) -> Dessin:
    """The dessin whose vertex cyclic orders are the cycles of sigma0/sigma1."""
    return Dessin(gs.degree, gs.sigma0.cycles(), gs.sigma1.cycles())


def gensys_from_dessin(ds: Dessin) -> GeneratingSystem:
    """Exact inverse of dessin_from_gensys (sigmaInf re-derived)."""
    return make_gensys(ds.sigma0, ds.sigma1)


def isomorphic(a: Dessin, b: Dessin) -> bool:
    """Dessin isomorphism, delegated to generating-system equivalence."""
    if a.d != b.d:
        return False
    return equivalent(gensys_from_dessin(a), gensys_from_dessin(b))
