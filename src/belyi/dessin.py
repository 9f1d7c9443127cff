"""Dessins d'enfants as bipartite ribbon graphs.

A dessin on d edges has one black vertex per cycle of sigma0 and one white
vertex per cycle of sigma1 (fixed points give degree-one vertices); edge
labels 1..d appear exactly once on each side, and the cyclic order around a
vertex is the cycle itself.  A ``Dessin`` is a view of its generating
system: its vertices are the canonical cycles of sigma0 and sigma1, so equal
dessins are equal triples.

Orientation convention: the stored cyclic order is abstract; reversing every
cycle on both sides yields the mirror dessin, which is a different object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Iterable, Sequence

from .gensys import MAX_DEGREE, GeneratingSystem, NotTransitiveError, make_gensys
from .perm import Permutation, _cycle_tuples


@dataclass(frozen=True)
class DessinShape:
    """Leaf and edge counts of a two-hub (double-star) dessin: each white
    leaf hangs off the black hub, each black leaf off the white hub, and
    the parallel edges join the two hubs."""

    white_leaves: int
    black_leaves: int
    parallel_edges: int

    @property
    def black_hub_degree(self) -> int:
        return self.white_leaves + self.parallel_edges

    @property
    def white_hub_degree(self) -> int:
        return self.black_leaves + self.parallel_edges

    @property
    def diameter_vertices(self) -> int:
        """Vertex diameter of the double star.

        Each leaf hangs off the hub of the other colour, and the two hubs
        are adjacent (the dessin is connected), so a longest shortest path
        runs leaf, hub, hub, leaf, with either leaf absent when that colour
        has none.
        """
        return 2 + (self.white_leaves > 0) + (self.black_leaves > 0)

    def to_json(self) -> dict:
        return {
            "whiteLeaves": self.white_leaves,
            "blackLeaves": self.black_leaves,
            "parallelEdges": self.parallel_edges,
            "blackHubDegree": self.black_hub_degree,
            "whiteHubDegree": self.white_hub_degree,
        }


@dataclass(frozen=True, slots=True, repr=False)
class Dessin:
    """A connected bipartite ribbon graph with labeled edges 1..d, held as
    its generating system; ``from_cycles`` builds one from vertex cycles."""

    gensys: GeneratingSystem

    @classmethod
    def from_cycles(
        cls, d: int, black: Sequence[Iterable[int]], white: Sequence[Iterable[int]]
    ) -> "Dessin":
        """The dessin with these vertex cyclic orders, in any rotation and
        order; raises ValueError unless each side covers 1..d exactly once
        and the graph is connected."""
        sigmas = []
        for side, cycles in (("black", black), ("white", white)):
            cycles = _cycle_tuples(cycles)
            # with repeats and labels outside 1..d rejected, d labels cover 1..d
            if sum(len(c) for c in cycles) != d:
                raise ValueError(
                    f"{side} cycles must cover each label 1..{d} exactly once"
                )
            sigmas.append(Permutation.from_cycles(d, cycles))
        # connectivity is exactly transitivity of the edge permutations
        try:
            return cls(make_gensys(*sigmas))
        except NotTransitiveError:
            raise ValueError("dessin is not connected") from None

    @property
    def d(self) -> int:
        return self.gensys.degree

    @property
    def black(self) -> tuple[tuple[int, ...], ...]:
        return self.gensys.sigma0.cycles()

    @property
    def white(self) -> tuple[tuple[int, ...], ...]:
        return self.gensys.sigma1.cycles()

    def __repr__(self) -> str:
        return f"Dessin(d={self.d}, black={self.black}, white={self.white})"

    # ---- incidence ---------------------------------------------------------

    def _ends(self) -> tuple[list[int], list[int]]:
        """Each edge label's black and white vertex index, as two lists
        indexed by label - 1: the one incidence table DOT and the diameter
        search read."""
        at_black, at_white = [0] * self.d, [0] * self.d
        for at, cycles in ((at_black, self.black), (at_white, self.white)):
            for idx, cyc in enumerate(cycles):
                for x in cyc:
                    at[x - 1] = idx
        return at_black, at_white

    # ---- invariants --------------------------------------------------------

    def genus(self) -> int:
        """Genus of the surface the dessin is drawn on: that of its triple,
        whose sigmaInf cycles are the faces."""
        return self.gensys.genus()

    def diameter_vertices(self) -> int:
        """Graph diameter counted in vertices traversed.

        A shortest path through k edges visits k + 1 vertices, so a single
        isolated vertex would have diameter 1 and two adjacent vertices
        have diameter 2.  A two-hub dessin reads it off its shape, a tree
        takes two breadth-first sweeps, and any other dessin runs a
        breadth-first search from every vertex.
        """
        shape = self.shape()
        if shape is not None:
            return shape.diameter_vertices
        return self._bfs_diameter_vertices()

    def _bfs_diameter_vertices(self) -> int:
        # breadth-first search over the simple graph, parallel edges
        # collapsed: black vertex i is node i, white vertex j node nb + j
        nb = len(self.black)
        adj: list[set[int]] = [set() for _ in range(nb + len(self.white))]
        for b, w in zip(*self._ends()):
            adj[b].add(nb + w)
            adj[nb + w].add(b)
        if len(adj) == self.d + 1:
            # a connected graph with one vertex more than edges is a tree,
            # and the farthest vertex from any start ends a longest path
            return _farthest(adj, _farthest(adj, 0)[0])[1] + 1
        return max(_farthest(adj, start)[1] for start in range(len(adj))) + 1

    def shape(self) -> DessinShape | None:
        """Leaf/edge counts for a two-hub dessin, None otherwise.

        Requires exactly one black and one white vertex of degree >= 2; all
        other vertices are leaves.  The dessin is connected, so no edge
        joins two leaves, and every edge at neither a white nor a black
        leaf joins the two hubs.
        """
        # each permutation keeps its nontrivial cycles, and a degree's
        # records share sigma0 and sigma1, so each is scanned once
        s0, s1 = self.gensys.sigma0, self.gensys.sigma1
        if len(s0.nontrivial_cycles()) != 1 or len(s1.nontrivial_cycles()) != 1:
            return None
        white_leaves, black_leaves = len(self.white) - 1, len(self.black) - 1
        return DessinShape(white_leaves, black_leaves, self.d - white_leaves - black_leaves)

    # ---- serialization -----------------------------------------------------

    def to_dot(self) -> str:
        """Deterministic Graphviz source: black vertices filled, white open,
        edges labeled 1..d.  Stable IDs b0, b1, ... / w0, w1, ... follow the
        canonical storage order.  The text is joined from kept line
        pieces, so no line is formatted per call."""
        nb, nw, d = len(self.black), len(self.white), self.d
        # each side has at most d vertices, so d + 1 pieces cover every
        # index; a larger library dessin builds its pieces and keeps none
        pieces = _kept_dot_pieces() if d <= MAX_DEGREE else _dot_pieces(d + 1)
        black, white, edge_b, edge_w, label = pieces
        at_black, at_white = self._ends()
        edges = zip(map(edge_b.__getitem__, at_black), map(edge_w.__getitem__, at_white), label[1:d + 1])
        return "".join(chain(
            (_DOT_HEAD,), black[:nb], white[:nw], chain.from_iterable(edges), ("}\n",)
        ))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "black": self.gensys.sigma0.to_json(),
            "white": self.gensys.sigma1.to_json(),
        }


def _farthest(adj: list[set[int]], start: int) -> tuple[int, int]:
    """A node a breadth-first search from ``start`` reaches last, and its
    distance in edges."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return u, dist[u]


_DOT_HEAD = "graph dessin {\n  node [shape=circle, fixedsize=true, width=0.25];\n"


# DOT line pieces by number: a black and a white vertex line, an edge's
# "  b{i} -- w" and "{j} [label=\"" and its label's closing "{lab}\"];\n"
def _dot_pieces(n: int) -> tuple[tuple[str, ...], ...]:
    """The five piece tables, each ``n`` entries long."""
    r = range(n)
    return (
        tuple([f'  b{i} [style=filled, fillcolor=black, label=""];\n' for i in r]),
        tuple([f'  w{j} [label=""];\n' for j in r]),
        tuple([f"  b{i} -- w" for i in r]),
        tuple([f'{j} [label="' for j in r]),
        tuple([f'{lab}"];\n' for lab in r]),
    )


@cache
def _kept_dot_pieces() -> tuple[tuple[str, ...], ...]:
    """The piece tables for every degree up to MAX_DEGREE, built on the
    first draw and kept."""
    return _dot_pieces(MAX_DEGREE + 1)


def dessin_from_gensys(gs: GeneratingSystem) -> Dessin:
    """The dessin whose vertex cyclic orders are the cycles of sigma0/sigma1."""
    return Dessin(gs)


def gensys_from_dessin(ds: Dessin) -> GeneratingSystem:
    """Exact inverse of dessin_from_gensys."""
    return ds.gensys
