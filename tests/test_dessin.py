"""Dessins: canonical storage, invariants, and the round trip with triples."""

import random
import threading
from collections import Counter

import pytest

from belyi import (
    CombinatorialType,
    Dessin,
    DessinShape,
    canonical_single_cycle,
    chebyshev_gensys,
    dessin_from_gensys,
    gensys_from_dessin,
    is_transitive,
    iter_catalog,
    power_gensys,
    valid_types,
)
from belyi import dessin as dessin_module
from helpers import (
    diameter_oracle,
    dot_oracle,
    random_gensys,
    random_permutation,
    random_single_cycle_pair,
    shape_oracle,
)


def test_canonical_storage():
    ds = Dessin.from_cycles(3, [(2, 3), (1,)], [(3, 1, 2)])
    assert ds.black == ((1,), (2, 3))
    assert ds.white == ((1, 2, 3),)
    # a rotated-cycle presentation of the same dessin compares equal
    assert ds == Dessin.from_cycles(3, [(1,), (3, 2)], [(2, 3, 1)])


def test_label_coverage_validation():
    with pytest.raises(ValueError, match="black cycles must cover"):
        Dessin.from_cycles(3, [(1, 2)], [(1, 2, 3)])  # label 3 missing on black side
    with pytest.raises(ValueError, match="black cycles must cover"):
        Dessin.from_cycles(3, [(1, 2), (2, 3)], [(1, 2, 3)])  # label 2 repeated
    with pytest.raises(ValueError, match="repeated"):
        Dessin.from_cycles(3, [(1, 2), (2,)], [(1, 2, 3)])  # 2 repeated, 3 missing
    with pytest.raises(ValueError, match="not connected"):
        Dessin.from_cycles(2, [(1,), (2,)], [(1,), (2,)])  # disconnected
    for bad in (5, [5], None, {"a": [1]}):
        with pytest.raises(ValueError, match="list of lists"):
            Dessin.from_cycles(3, bad, [(1, 2, 3)])
        with pytest.raises(ValueError, match="list of lists"):
            Dessin.from_cycles(3, [(1, 2, 3)], bad)


def _rotate_and_sort(cycles):
    """Canonical form by hand: each cycle rotated to start at its minimum,
    cycles sorted by that minimum."""
    out = []
    for c in cycles:
        k = c.index(min(c))
        out.append(tuple(c[k:] + c[:k]))
    return tuple(sorted(out))


def test_from_cycles_accepts_any_rotation_and_order():
    rng = random.Random(405)
    for _ in range(60):
        gs = random_gensys(rng)
        ds = dessin_from_gensys(gs)
        sides = []
        for cycles in (ds.black, ds.white):
            scrambled = []
            for c in cycles:
                k = rng.randrange(len(c))
                scrambled.append(list(c[k:] + c[:k]))
            rng.shuffle(scrambled)
            sides.append(scrambled)
        got = Dessin.from_cycles(gs.degree, *sides)
        assert got == ds
        assert got.black == _rotate_and_sort(sides[0])
        assert got.white == _rotate_and_sort(sides[1])


def test_dessin_is_a_view_of_its_triple():
    gs = canonical_single_cycle(CombinatorialType(5, 3, 3, 5))
    ds = dessin_from_gensys(gs)
    assert ds.gensys is gs
    assert gensys_from_dessin(ds) is gs
    assert ds.black is gs.sigma0.cycles()
    assert ds.white is gs.sigma1.cycles()
    assert ds == Dessin(gs) and hash(ds) == hash(Dessin(gs))


def test_round_trip_with_gensys():
    rng = random.Random(401)
    for _ in range(60):
        gs = random_gensys(rng)
        ds = dessin_from_gensys(gs)
        back = gensys_from_dessin(ds)
        assert back.sigma0 == gs.sigma0
        assert back.sigma1 == gs.sigma1
        assert back.sigma_inf == gs.sigma_inf
        assert dessin_from_gensys(back) == ds


def test_genus_matches_gensys():
    rng = random.Random(402)
    for _ in range(60):
        gs = random_gensys(rng)
        assert dessin_from_gensys(gs).genus() == gs.genus()


def test_degrees_are_cycle_lengths():
    gs = canonical_single_cycle(CombinatorialType(5, 3, 3, 5))
    ds = dessin_from_gensys(gs)
    bdeg = [len(c) for c in ds.black]
    wdeg = [len(c) for c in ds.white]
    assert sorted(bdeg, reverse=True) == [3, 1, 1] == list(gs.sigma0.cycle_type())
    assert sorted(wdeg, reverse=True) == [3, 1, 1] == list(gs.sigma1.cycle_type())
    assert sum(bdeg) == ds.d
    assert sum(wdeg) == ds.d


def test_shape_worked_example():
    # type (3, 3, 5) at degree 5: two white leaves, two black leaves, one
    # shared edge between the hubs
    ds = dessin_from_gensys(canonical_single_cycle(CombinatorialType(5, 3, 3, 5)))
    shape = ds.shape()
    assert shape == DessinShape(white_leaves=2, black_leaves=2, parallel_edges=1)
    assert (shape.black_hub_degree, shape.white_hub_degree) == (3, 3)
    assert ds.diameter_vertices() == 4
    assert ds.genus() == 0


def test_shape_counts_follow_type():
    # two-hub census: white leaves d - e1, black leaves d - e0, parallel
    # edges e0 + e1 - d
    for d in range(3, 12):
        for ct in valid_types(d):
            ds = dessin_from_gensys(canonical_single_cycle(ct))
            shape = ds.shape()
            assert shape is not None
            assert shape.white_leaves == d - ct.e1
            assert shape.black_leaves == d - ct.e0
            assert shape.parallel_edges == ct.e0 + ct.e1 - d
            assert shape.black_hub_degree == ct.e0
            assert shape.white_hub_degree == ct.e1


def test_shape_is_none_off_family():
    # the degree-6 path has three white vertices of degree two
    ds = dessin_from_gensys(chebyshev_gensys(6))
    assert ds.shape() is None and shape_oracle(ds) is None


def test_shape_counts_match_the_hub_oracle():
    # the counts formula against the shared labels of the two hubs
    dessins = [
        dessin_from_gensys(canonical_single_cycle(ct))
        for d in range(3, 31)
        for ct in valid_types(d)
    ]
    rng = random.Random(20261018)
    dessins += [dessin_from_gensys(random_single_cycle_pair(rng, dmax=16)) for _ in range(2000)]
    for ds in dessins:
        shape, want = ds.shape(), shape_oracle(ds)
        assert shape is not None and want is not None
        got = (
            shape.white_leaves,
            shape.black_leaves,
            shape.parallel_edges,
            shape.black_hub_degree,
            shape.white_hub_degree,
        )
        assert got == tuple(want.values())
        assert list(shape.to_json().items()) == list(want.items())
    # positive genus, not just the planar double stars
    assert max(ds.genus() for ds in dessins) >= 3


def _shape_by_counting(ds):
    # the shape as Dessin.shape once counted it, scanning both sides' cycles
    black, white = ds.black, ds.white
    if sum(len(c) >= 2 for c in black) != 1 or sum(len(c) >= 2 for c in white) != 1:
        return None
    white_leaves, black_leaves = len(white) - 1, len(black) - 1
    return DessinShape(white_leaves, black_leaves, ds.d - white_leaves - black_leaves)


def _rotated_and_shuffled(rng, cycles):
    out = []
    for c in cycles:
        i = rng.randrange(len(c))
        out.append(c[i:] + c[:i])
    rng.shuffle(out)
    return out


def test_shape_reads_the_kept_nontrivial_cycles_as_a_count_would():
    dessins = [rec.dessin for rec in iter_catalog(20)]
    dessins += [dessin_from_gensys(g(d)) for g in (power_gensys, chebyshev_gensys) for d in range(3, 13)]
    # seeded from_cycles dessins with 0, 1 or 2 nontrivial cycles on each
    # side, 20 of each pair that a connected dessin can have: with no hub
    # on one side, the other side is one cycle through every edge
    dessins.append(Dessin.from_cycles(1, [(1,)], [(1,)]))
    need = {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
    found = Counter()
    rng = random.Random(36)
    while any(found[counts] < 20 for counts in need):
        d = rng.randint(2, 7)
        sides = [random_permutation(rng, d) for _ in range(2)]
        counts = tuple(len(s.nontrivial_cycles()) for s in sides)
        if counts not in need or found[counts] == 20 or not is_transitive(sides):
            continue
        found[counts] += 1
        black, white = (_rotated_and_shuffled(rng, s.cycles()) for s in sides)
        dessins.append(Dessin.from_cycles(d, black, white))
    for ds in dessins:
        assert ds.shape() == _shape_by_counting(ds)
    assert {ds.shape() is None for ds in dessins} == {True, False}


def test_star_dessin():
    # one black hub carries every edge, each to its own white leaf
    ds = dessin_from_gensys(power_gensys(7))
    assert ds.diameter_vertices() == 3
    assert ds.genus() == 0
    assert [len(c) for c in ds.black] == [7]
    assert [len(c) for c in ds.white] == [1] * 7


def test_path_dessin():
    for d in range(3, 10):
        ds = dessin_from_gensys(chebyshev_gensys(d))
        # d + 1 vertices of degree at most 2, connected: a path
        degrees = [len(c) for c in ds.black + ds.white]
        assert len(degrees) == d + 1
        assert max(degrees) == 2
        # a path on d edges visits d + 1 vertices end to end
        assert ds.diameter_vertices() == d + 1


def test_two_hub_diameter_bound():
    # any dessin whose sides each have at most one branched vertex has
    # vertex-diameter at most 4
    rng = random.Random(403)
    seen_higher_genus = False
    for _ in range(300):
        gs = random_single_cycle_pair(rng)
        ds = dessin_from_gensys(gs)
        assert ds.diameter_vertices() <= 4
        if gs.genus() > 0:
            seen_higher_genus = True
    assert seen_higher_genus  # the bound is purely local, not genus-driven


def test_parallel_edges_collapse_in_diameter():
    # two vertices joined by three parallel edges: diameter is still 2
    ds = Dessin.from_cycles(3, [(1, 2, 3)], [(1, 3, 2)])
    assert ds.diameter_vertices() == 2
    # opposite cyclic orders glue to the planar theta graph
    assert ds.genus() == 0
    # equal cyclic orders force a torus embedding
    ds2 = Dessin.from_cycles(3, [(1, 2, 3)], [(1, 2, 3)])
    assert ds2.diameter_vertices() == 2
    assert ds2.genus() == 1


def _spy_on_bfs(monkeypatch) -> list:
    # records each dessin whose diameter comes from the breadth-first search
    calls = []
    bfs = Dessin._bfs_diameter_vertices

    def spy(self):
        calls.append(self)
        return bfs(self)

    monkeypatch.setattr(Dessin, "_bfs_diameter_vertices", spy)
    return calls


def test_two_hub_diameter_formula_matches_the_search(monkeypatch):
    dessins = [
        dessin_from_gensys(canonical_single_cycle(ct))
        for d in range(3, 31)
        for ct in valid_types(d)
    ]
    # criterion 5's random pairs, higher genus included
    rng = random.Random(20260816)
    dessins += [dessin_from_gensys(random_single_cycle_pair(rng)) for _ in range(1000)]
    seen = set()
    for ds in dessins:
        shape = ds.shape()
        assert shape is not None
        assert shape.diameter_vertices == ds._bfs_diameter_vertices()
        seen.add(shape.diameter_vertices)
    assert seen == {2, 3, 4}
    calls = _spy_on_bfs(monkeypatch)
    for ds in dessins:
        assert ds.diameter_vertices() == ds.shape().diameter_vertices
    assert calls == []  # the formula, never the search, on two-hub dessins


def test_dessins_without_two_hubs_use_the_search(monkeypatch):
    calls = _spy_on_bfs(monkeypatch)
    star = dessin_from_gensys(power_gensys(7))
    path = dessin_from_gensys(chebyshev_gensys(6))
    # black hubs (1 2) and (3 4) around one white hub, with a white leaf on
    # each: the longest path runs leaf, hub, hub, hub, leaf
    two_black_hubs = Dessin.from_cycles(5, [(1, 2), (3, 4), (5,)], [(1, 3, 5), (2,), (4,)])
    for ds, diameter in ((star, 3), (path, 7), (two_black_hubs, 5)):
        assert ds.shape() is None
        assert ds.diameter_vertices() == diameter
    assert calls == [star, path, two_black_hubs]


def test_diameter_matches_the_floyd_warshall_oracle():
    # random triples of every genus, stars, paths and both theta graphs
    rng = random.Random(1)
    triples = [random_gensys(rng) for _ in range(300)]
    triples += [make(d) for make in (power_gensys, chebyshev_gensys) for d in range(3, 13)]
    triples += [Dessin.from_cycles(3, [(1, 2, 3)], [white]).gensys for white in ((1, 3, 2), (1, 2, 3))]
    seen = set()
    for gs in triples:
        ds = dessin_from_gensys(gs)
        want = diameter_oracle(gs)
        assert ds._bfs_diameter_vertices() == want
        assert ds.diameter_vertices() == want
        seen.add(want)
    assert max(seen) >= 6


def test_tree_diameters_at_degree_1000():
    # a star and a path on 1000 edges: trees, measured by two sweeps
    assert dessin_from_gensys(power_gensys(1000)).diameter_vertices() == 3
    assert dessin_from_gensys(chebyshev_gensys(1000)).diameter_vertices() == 1001


def test_json_round_trip():
    ds = dessin_from_gensys(canonical_single_cycle(CombinatorialType(5, 3, 3, 5)))
    data = ds.to_json()
    assert data == {
        "d": 5,
        "black": [[1], [2], [3, 5, 4]],
        "white": [[1, 2, 3], [4], [5]],
    }
    assert Dessin.from_cycles(data["d"], data["black"], data["white"]) == ds


def test_dot_output_is_stable():
    ds = Dessin.from_cycles(3, [(1, 2), (3,)], [(1,), (2, 3)])
    expected = (
        "graph dessin {\n"
        '  node [shape=circle, fixedsize=true, width=0.25];\n'
        '  b0 [style=filled, fillcolor=black, label=""];\n'
        '  b1 [style=filled, fillcolor=black, label=""];\n'
        '  w0 [label=""];\n'
        '  w1 [label=""];\n'
        '  b0 -- w0 [label="1"];\n'
        '  b0 -- w1 [label="2"];\n'
        '  b1 -- w1 [label="3"];\n'
        "}\n"
    )
    assert ds.to_dot() == expected
    assert ds.to_dot() == ds.to_dot()


def _kept_piece_lengths() -> set[int]:
    return {len(table) for table in dessin_module._dot_pieces}


def test_dot_matches_the_line_oracle():
    # every type to degree 30, stars and paths, random triples of every genus
    dessins = [dessin_from_gensys(canonical_single_cycle(ct)) for d in range(3, 31) for ct in valid_types(d)]
    dessins += [dessin_from_gensys(g(d)) for g in (power_gensys, chebyshev_gensys) for d in range(3, 41)]
    rng = random.Random(42)
    triples = [random_gensys(rng) for _ in range(300)]
    dessins += map(dessin_from_gensys, triples)
    assert len({gs.genus() for gs in triples}) >= 3
    for ds in dessins:
        assert ds.to_dot() == dot_oracle(ds)


def _path_pairs(d: int) -> Dessin:
    # the path dessin on d edges from its cycles: black (1 2)(3 4)...,
    # white (1)(2 3)(4 5)...; about d/2 vertices of each colour
    black = [tuple(range(i, min(i + 2, d + 1))) for i in range(1, d + 1, 2)]
    white = [(1,)] + [tuple(range(i, min(i + 2, d + 1))) for i in range(2, d + 1, 2)]
    return Dessin.from_cycles(d, black, white)


def test_dot_pieces_grow_by_whole_tables_and_keep_at_most_1024(monkeypatch):
    monkeypatch.setattr(dessin_module, "_dot_pieces", ((),) * 5)
    kept = []
    for d in (60, 130, 60, 1000, 3):
        ds = dessin_from_gensys(chebyshev_gensys(d) if d % 2 else power_gensys(d))
        assert ds.to_dot() == dot_oracle(ds)
        path = _path_pairs(d)
        assert path.to_dot() == dot_oracle(path)
        kept.append(_kept_piece_lengths())
    assert kept == [{64}, {256}, {256}, {1024}, {1024}]
    # past the kept bound: the pieces are built for the call, none kept
    big = _path_pairs(5000)
    assert len(big.black) == 2500 and big.d == 5000
    assert big.to_dot() == dot_oracle(big)
    assert _kept_piece_lengths() == {1024}


def test_two_threads_draw_dot_at_once(monkeypatch):
    monkeypatch.setattr(dessin_module, "_dot_pieces", ((),) * 5)
    sizes = [(3, 40, 200, 700, 1000), (1000, 500, 130, 9, 3000)]
    start = threading.Barrier(2)
    wrong: list[int] = []

    def draw(ds_list):
        start.wait()
        for _ in range(5):
            for ds, want in ds_list:
                if ds.to_dot() != want:
                    wrong.append(ds.d)

    jobs = [[(ds, dot_oracle(ds)) for ds in map(_path_pairs, ds_sizes)] for ds_sizes in sizes]
    threads = [threading.Thread(target=draw, args=(job,)) for job in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == []
    # one whole set of tables is kept, never a mix of lengths
    (kept,) = _kept_piece_lengths()
    assert kept <= 1024
