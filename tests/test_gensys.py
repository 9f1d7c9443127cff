"""Generating systems: validation, canonical triples, equivalence."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from belyi import (
    CombinatorialType,
    DegreeMismatchError,
    Dessin,
    GeneratingSystem,
    InvalidTypeError,
    NotTransitiveError,
    Permutation,
    canonical_single_cycle,
    canonical_triples,
    chebyshev_gensys,
    equivalent,
    is_transitive,
    make_gensys,
    power_gensys,
    valid_types,
)
from belyi import gensys as gensys_module
from belyi.exact import compact_json
from belyi.gensys import MAX_DEGREE
from helpers import (
    class_counts,
    closure_order,
    conjugate,
    group_order,
    minimal_block,
    random_gensys,
    random_permutation,
    single_cycle_characters,
    stated_canonical_triple,
)


def test_type_validation():
    ct = CombinatorialType(5, 3, 3, 5)
    assert ct.indices == (3, 3, 5)
    with pytest.raises(InvalidTypeError):
        CombinatorialType(2, 2, 2, 1)  # d too small
    with pytest.raises(InvalidTypeError):
        CombinatorialType(5, 1, 5, 5)  # e0 < 2
    with pytest.raises(InvalidTypeError):
        CombinatorialType(5, 6, 3, 2)  # e0 > d
    with pytest.raises(InvalidTypeError):
        CombinatorialType(5, 3, 3, 4)  # sum != 2d + 1
    # equal to ints in Python, so range and sum checks alone would pass them
    for bad in ((5, 3.0, 3, 5), (5.0, 3, 3, 5), (5, 3, 3, 5.0), (5, True, 5, 5)):
        with pytest.raises(ValueError, match="not an integer"):
            CombinatorialType(*bad)


def _type_refusal(d, indices):
    """The message a type is refused with, None for a valid type: the
    degree first, then each index in turn, then the Riemann-Hurwitz sum."""
    if d < 3:
        return f"degree must be at least 3, got {d}"
    for name, e in zip(("e0", "e1", "eInf"), indices):
        if not 2 <= e <= d:
            return f"{name} = {e} outside the valid range [2, {d}]"
    if sum(indices) != 2 * d + 1:
        return f"indices {indices} sum to {sum(indices)}, need 2d + 1 = {2 * d + 1}"
    return None


def test_a_type_is_accepted_exactly_when_the_rule_holds():
    accepted = 0
    for d in range(9):
        for indices in itertools.product(range(-1, d + 2), repeat=3):
            message = _type_refusal(d, indices)
            if message is None:
                assert CombinatorialType(d, *indices).indices == indices
                accepted += 1
            else:
                with pytest.raises(InvalidTypeError) as exc:
                    CombinatorialType(d, *indices)
                assert str(exc.value) == message
    assert accepted == sum(len(valid_types(d)) for d in range(3, 9))
    # one message of each kind, as written out
    for args, message in (
        ((2, 2, 2, 1), "degree must be at least 3, got 2"),
        ((5, 3, 6, 2), "e1 = 6 outside the valid range [2, 5]"),
        ((5, 3, 4, 1), "eInf = 1 outside the valid range [2, 5]"),
        ((5, 3, 3, 4), "indices (3, 3, 4) sum to 10, need 2d + 1 = 11"),
    ):
        with pytest.raises(InvalidTypeError) as exc:
            CombinatorialType(*args)
        assert str(exc.value) == message

    class Int(int):
        pass

    # True, and a float or an int subclass equal to the valid (3; 2, 2, 3)'s
    # value in its slot: each is refused by type, not by its value
    for slot, value in enumerate((3, 2, 2, 3)):
        for bad in (True, float(value), Int(value)):
            args = [3, 2, 2, 3]
            args[slot] = bad
            with pytest.raises(ValueError, match="not an integer"):
                CombinatorialType(*args)


def test_type_from_indices():
    assert CombinatorialType.from_indices(3, 3, 5) == CombinatorialType(5, 3, 3, 5)
    assert CombinatorialType.from_indices(8, 5, 8) == CombinatorialType(10, 8, 5, 8)
    with pytest.raises(InvalidTypeError):
        CombinatorialType.from_indices(2, 2, 2)  # even sum, no degree fits
    with pytest.raises(InvalidTypeError):
        CombinatorialType.from_indices(3, 3, 7)  # d = 6 but e_inf = 7 > d
    # each index must be an int before the degree is inferred from their sum
    for bad in (("3", "3", "5"), (None, 3, 5), (3.0, 3, 5), (True, 3, 5), (3, 3, [5])):
        with pytest.raises(ValueError, match="not an integer"):
            CombinatorialType.from_indices(*bad)


def test_valid_types_counts():
    # the count at degree d is (d + 3)(d - 2) / 2
    for d in range(3, 21):
        assert len(valid_types(d)) == (d + 3) * (d - 2) // 2
    assert len(valid_types(3)) == 3
    assert len(valid_types(4)) == 7
    assert len(valid_types(5)) == 12


def test_valid_types_listing_degree_3():
    assert [ct.indices for ct in valid_types(3)] == [(2, 2, 3), (2, 3, 2), (3, 2, 2)]


def test_valid_types_are_sorted_and_valid():
    for d in (6, 11, 17):
        types = valid_types(d)
        keys = [(ct.e0, ct.e1) for ct in types]
        assert keys == sorted(keys)
        assert len(set(types)) == len(types)
    # the same list, in the same order, as the double loop over every pair
    for d in range(3, 41):
        brute = [
            (e0, e1, 2 * d + 1 - e0 - e1)
            for e0 in range(2, d + 1)
            for e1 in range(2, d + 1)
            if 2 <= 2 * d + 1 - e0 - e1 <= d
        ]
        assert [ct.indices for ct in valid_types(d)] == brute


def test_gensys_validation():
    s0 = Permutation.from_cycles(3, [(1, 2, 3)])
    with pytest.raises(ValueError):
        # sigma0 * sigma1 * sigmaInf = s0^2, not the identity
        GeneratingSystem(s0, s0, Permutation.identity(3))
    # but the cyclic cube (s0, s0, s0) is a genuine generating system
    assert GeneratingSystem(s0, s0, s0).genus() == 1
    with pytest.raises(NotTransitiveError):
        d4 = Permutation.from_cycles(4, [(1, 2)])
        GeneratingSystem(d4, d4.inverse(), Permutation.identity(4))
    with pytest.raises(DegreeMismatchError):
        GeneratingSystem(s0, Permutation.identity(4), Permutation.identity(4))


def test_a_one_cycle_triple_with_a_point_left_over_is_not_transitive():
    # (1 2 3) three times has product one, and its indices 3 + 3 + 3 = 2*4 + 1
    # give the genus-0 count at d = 4; but all three fix 4, so the surface
    # is a torus plus a point, and the orbit read off the cycles says so
    s = Permutation.from_cycles(4, [(1, 2, 3)])
    assert (s * s * s).is_identity
    assert CombinatorialType(4, 3, 3, 3).indices == (3, 3, 3)
    with pytest.raises(NotTransitiveError):
        GeneratingSystem(s, s, s)


def test_gensys_rejects_sigma_inf_off_by_one_transposition():
    rng = random.Random(302)
    for _ in range(60):
        gs = random_gensys(rng)
        d = gs.degree
        assert GeneratingSystem(*gs.triple) == gs
        i, j = rng.sample(range(1, d + 1), 2)
        bad = gs.sigma_inf * Permutation.from_cycles(d, [(i, j)])
        with pytest.raises(ValueError, match="is not the identity"):
            GeneratingSystem(gs.sigma0, gs.sigma1, bad)


def test_the_product_check_at_its_edges():
    # the check walks every point once, d = 1 included, where the one
    # triple is three identities
    one = Permutation.identity(1)
    assert GeneratingSystem(one, one, one).genus() == 0
    s = Permutation.from_cycles(2, [(1, 2)])
    assert GeneratingSystem(s, Permutation.identity(2), s).genus() == 0
    with pytest.raises(ValueError, match="is not the identity"):
        GeneratingSystem(s, Permutation.identity(2), Permutation.identity(2))
    for d in (3, 30, 120):
        for ct in (valid_types(d)[0], valid_types(d)[-1]):
            gs = canonical_single_cycle(ct)
            assert GeneratingSystem(*gs.triple) == gs
            c = list(gs.sigma_inf.images)
            c[-2], c[-1] = c[-1], c[-2]
            with pytest.raises(ValueError, match="is not the identity"):
                GeneratingSystem(gs.sigma0, gs.sigma1, Permutation(c))


def test_make_gensys_derives_inverse_product():
    rng = random.Random(301)
    for _ in range(40):
        gs = random_gensys(rng)
        assert (gs.sigma0 * gs.sigma1 * gs.sigma_inf).is_identity
        assert gs.sigma_inf == (gs.sigma0 * gs.sigma1).inverse()


def test_make_gensys_degree_mismatch():
    with pytest.raises(DegreeMismatchError, match="degrees differ: 3 vs 4"):
        make_gensys(Permutation.identity(3), Permutation.identity(4))


def test_genus_of_double_five_cycle_is_two():
    c5 = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    gs = make_gensys(c5, c5)
    # sigma0 * sigma1 sends i to i + 2 mod 5, again a 5-cycle
    assert gs.sigma_inf.cycle_type() == (5,)
    assert gs.genus() == 2
    assert gs.single_cycle_type() is None  # single cycles, wrong genus


def test_a_checked_triple_has_an_even_non_negative_genus_count():
    triples = [gs for d in range(2, 31) for _, gs in canonical_triples(d)]
    assert len(triples) == 4872
    triples += [power_gensys(d) for d in range(1, 31)]
    triples += [chebyshev_gensys(d) for d in range(3, 31)]
    rng = random.Random(2027)
    triples += [random_gensys(rng) for _ in range(500)]
    for gs in triples:
        # 2 - 2g = c0 + c1 + cInf - d, so 2g = 2 + d - (c0 + c1 + cInf)
        count = 2 + gs.degree - sum(s.num_cycles() for s in gs.triple)
        assert count % 2 == 0 and count >= 0
        assert gs.genus() == count // 2


def test_the_genus_count_rests_on_the_two_checks_of_a_triple():
    # product one but intransitive: the count gives g = -1, and
    # transitivity is the check that refuses it
    s0 = Permutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)])
    triple = (s0, s0.inverse(), Permutation.identity(6))
    assert (triple[0] * triple[1] * triple[2]).is_identity
    assert 2 + 6 - sum(s.num_cycles() for s in triple) == -2
    with pytest.raises(NotTransitiveError):
        GeneratingSystem(*triple)
    # transitive but product not one: the count is odd, and the product
    # check refuses it
    triple = (Permutation.from_cycles(2, [(1, 2)]), Permutation.identity(2), Permutation.identity(2))
    assert 2 + 2 - sum(s.num_cycles() for s in triple) == -1
    with pytest.raises(ValueError, match="is not the identity"):
        GeneratingSystem(*triple)


def _is_primitive(gs: GeneratingSystem) -> bool:
    gens = [gs.sigma0.images, gs.sigma1.images]
    return all(len(minimal_block(gens, 1, b)) == gs.degree for b in range(2, gs.degree + 1))


def test_every_canonical_triple_to_degree_20_generates_a_primitive_group():
    triples = [gs for d in range(3, 21) for _, gs in canonical_triples(d)]
    assert len(triples) == 1482
    assert all(map(_is_primitive, triples))


def test_the_power_and_chebyshev_triples_are_primitive_exactly_at_prime_degree():
    # the cyclic group of order d, and the dihedral group of order 2d on the
    # d-gon's vertices: each has a block of size p for every prime p | d
    def is_prime(d):
        return d > 1 and all(d % p for p in range(2, math.isqrt(d) + 1))

    # on the 12-gon the points 4 apart form one block of the rotations
    assert minimal_block([power_gensys(12).sigma0.images], 1, 5) == {1, 5, 9}
    for d in range(2, 60):
        assert _is_primitive(power_gensys(d)) == is_prime(d), d
    for d in range(3, 41):
        assert _is_primitive(chebyshev_gensys(d)) == is_prime(d), d


def test_every_type_to_degree_12_generates_the_alternating_or_symmetric_group():
    # by parity, except the S3 orbit of (6; 4, 4, 5): PGL(2, 5) on the six
    # points of the projective line over F_5.  An order that differs across
    # a type's S3 orbit would be a fault in group_order, since relabelling
    # 0, 1 and inf does not change the group
    orders = {}
    for d in range(3, 13):
        for ct, gs in canonical_triples(d):
            gens = [gs.sigma0.images, gs.sigma1.images]
            orders[d, *ct.indices] = group_order(gens)
            if d <= 7:
                assert orders[d, *ct.indices] == closure_order(gens), ct
    assert len(orders) == 330
    for (d, *indices), order in orders.items():
        if d == 6 and sorted(indices) == [4, 4, 5]:
            assert order == 120
        else:
            assert order == math.factorial(d) // (2 if all(e % 2 for e in indices) else 1)
        assert {orders[d, *p] for p in itertools.permutations(indices)} == {order}


def test_group_order_matches_closure_and_the_cyclic_and_dihedral_controls():
    rng = random.Random(15)
    for _ in range(60):
        # pairs of any permutations: intransitive and trivial groups too
        d = rng.randint(1, 6)
        gens = [random_permutation(rng, d).images for _ in range(2)]
        assert group_order(gens) == closure_order(gens), gens
    for d in range(3, 25):
        for gs, order in ((power_gensys(d), d), (chebyshev_gensys(d), 2 * d)):
            assert group_order([gs.sigma0.images, gs.sigma1.images]) == order


def test_power_gensys():
    gs = power_gensys(5)
    assert gs.sigma0.cycle_type() == (5,)
    assert gs.sigma1.is_identity
    assert gs.sigma_inf == gs.sigma0.inverse()
    assert gs.genus() == 0
    # sigma1 has no nontrivial cycle at all, so the triple is not single-cycle
    assert gs.single_cycle_type() is None
    with pytest.raises(ValueError):
        power_gensys(0)


def test_chebyshev_gensys_degree_six():
    gs = chebyshev_gensys(6)
    assert gs.sigma0 == Permutation.from_cycles(6, [(1, 2), (3, 4), (5, 6)])
    assert gs.sigma1 == Permutation.from_cycles(6, [(2, 3), (4, 5)])
    assert gs.sigma_inf.cycle_type() == (6,)
    assert gs.genus() == 0


def test_chebyshev_gensys_full_cycle_all_degrees():
    for d in range(3, 16):
        gs = chebyshev_gensys(d)
        assert gs.sigma_inf.cycle_type() == (d,)
        assert gs.genus() == 0
        # transposition counts split d - 1 by parity
        n0 = len(gs.sigma0.nontrivial_cycles())
        n1 = len(gs.sigma1.nontrivial_cycles())
        assert n0 + n1 == d - 1
        assert n0 - n1 in (0, 1)
    with pytest.raises(ValueError):
        chebyshev_gensys(2)


def test_canonical_triple_worked_example():
    gs = canonical_single_cycle(CombinatorialType(5, 3, 3, 5))
    assert gs.sigma0 == Permutation.from_cycles(5, [(3, 5, 4)])
    assert gs.sigma1 == Permutation.from_cycles(5, [(1, 2, 3)])
    assert gs.sigma_inf == Permutation.from_cycles(5, [(1, 4, 5, 3, 2)])
    assert gs.genus() == 0


def test_canonical_triple_large_overlap_example():
    gs = canonical_single_cycle(CombinatorialType(10, 8, 5, 8))
    assert gs.sigma0 == Permutation.from_cycles(10, [(3, 10, 9, 8, 7, 6, 5, 4)])
    assert gs.sigma1 == Permutation.from_cycles(10, [(1, 2, 3, 4, 5)])
    assert gs.sigma_inf == Permutation.from_cycles(10, [(1, 6, 7, 8, 9, 10, 3, 2)])
    # points 4 and 5 sit in both supports but end up fixed by the product
    assert gs.sigma_inf(4) == 4
    assert gs.sigma_inf(5) == 5


def test_canonical_triple_matches_its_stated_cycles():
    # equality compares image tuples: the oracle builds the same triple
    # from the three cycles the docstring states (4,872 types); the cycles
    # the builder keeps are checked by the test below
    for d in range(3, 31):
        for ct in valid_types(d):
            assert canonical_single_cycle(ct) == stated_canonical_triple(ct), ct


@pytest.fixture
def fresh_runs():
    # the kept run tables are cleared before and after, so the test sees
    # them built on its own first triple
    gensys_module._kept_runs.cache_clear()
    yield
    gensys_module._kept_runs.cache_clear()


def _boundary_types(d):
    # e0 = d, e1 = d, eInf = d and eInf = 2: each run of the closed forms empty
    return [CombinatorialType(d, e0, e1, 2 * d + 1 - e0 - e1)
            for e0, e1 in ((d, 2), (2, d), (d // 2 + 1, d - d // 2), (d, d - 1), (d - 1, d))]


def test_canonical_triples_keep_the_cycles_a_walk_finds(fresh_runs):
    # each canonical permutation keeps closed-form cycles and their text,
    # and walks and encodes none: they must be those a fresh walk of its
    # images finds and the text the encoder writes of them, and each moves
    # exactly one cycle; every type to d = 40 through both builders, 200
    # seeded types with 41 <= d <= 300, and types at and just past the cap,
    # where the two builders take their tables from the same _runs_for
    def check(gs):
        for s in gs.triple:
            walked = Permutation(s.images).cycles()
            assert s.cycles() == walked, gs
            assert s._json_text() == compact_json(walked), gs
            assert len(s.nontrivial_cycles()) == 1, gs

    assert gensys_module._kept_runs.cache_info().currsize == 0
    for d in range(3, 41):
        for ct, gs in canonical_triples(d):
            check(gs)
            check(canonical_single_cycle(ct))
    # built on the first triple, and the same tables on every later one
    kept = gensys_module._kept_runs()
    assert {len(table) for table in kept} == {MAX_DEGREE + 2}
    rng = random.Random(38)
    for _ in range(200):
        d = rng.randint(41, 300)
        e0 = rng.randint(2, d)
        e1 = rng.randint(max(2, d + 1 - e0), min(d, 2 * d - 1 - e0))
        check(canonical_single_cycle(CombinatorialType(d, e0, e1, 2 * d + 1 - e0 - e1)))
    for d in (MAX_DEGREE, MAX_DEGREE + 1):
        for ct in _boundary_types(d):
            check(canonical_single_cycle(ct))
    # a build past the cap makes its own tables and leaves the kept ones
    info = gensys_module._kept_runs.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert gensys_module._kept_runs() is kept
    assert {len(table) for table in kept} == {MAX_DEGREE + 2}


def test_canonical_triples_share_sigma0_and_sigma1_within_one_call():
    for d in range(3, 31):
        pairs = list(canonical_triples(d))
        assert [ct for ct, _ in pairs] == valid_types(d)
        sigma0, sigma1 = {}, {}
        for ct, gs in pairs:
            assert gs == canonical_single_cycle(ct), ct
            assert gs.sigma0 is sigma0.setdefault(ct.e0, gs.sigma0), ct
            assert gs.sigma1 is sigma1.setdefault(ct.e1, gs.sigma1), ct
        # every index 2..d occurs on each side
        assert sorted(sigma0) == sorted(sigma1) == list(range(2, d + 1))
    assert list(canonical_triples(2)) == []


def test_canonical_triples_share_no_object_across_calls():
    # no permutation outlives a call: a second call builds every one anew
    first, second = list(canonical_triples(12)), list(canonical_triples(12))
    assert first == second
    ids = {id(s) for _, gs in first for s in gs.triple}
    assert not ids & {id(s) for _, gs in second for s in gs.triple}


@pytest.mark.parametrize(
    "ct, black, white, sigma_inf",
    [
        # e0 = d, so lo = 1 and sigma0 moves every point
        (CombinatorialType(5, 5, 2, 4), [[1, 5, 4, 3, 2]], [[1, 2], [3], [4], [5]],
         ((1, 3, 4, 5), (2,))),
        # e1 = d: sigmaInf's other branch, with no ascending run
        (CombinatorialType(5, 2, 5, 4), [[1], [2], [3], [4, 5]], [[1, 2, 3, 4, 5]],
         ((1, 4, 3, 2), (5,))),
        # e0 + e1 = d + 1: the supports share one point and eInf = d
        (CombinatorialType(5, 4, 2, 5), [[1], [2, 5, 4, 3]], [[1, 2], [3], [4], [5]],
         ((1, 3, 4, 5, 2),)),
    ],
)
def test_canonical_triple_at_the_closed_form_boundaries(ct, black, white, sigma_inf):
    gs = canonical_single_cycle(ct)
    assert Dessin(gs).to_json() == {"d": 5, "black": black, "white": white}
    assert gs.sigma_inf.cycles() == sigma_inf


def test_canonical_triple_realizes_every_type():
    # each builder states its sigmaInf; make_gensys derives it as the
    # oracle, and single_cycle_type reads the type back from the cycles
    for d in range(3, 41):
        for ct in valid_types(d):
            gs = canonical_single_cycle(ct)
            assert gs == make_gensys(gs.sigma0, gs.sigma1)
            assert gs.single_cycle_type() == ct
    for d in range(1, 151):
        gs = power_gensys(d)
        assert gs == make_gensys(gs.sigma0, gs.sigma1)
        if d >= 3:
            gs = chebyshev_gensys(d)
            assert gs == make_gensys(gs.sigma0, gs.sigma1)
    # a stated sigmaInf that is not the inverse product is refused
    gs = canonical_single_cycle(CombinatorialType(5, 3, 3, 5))
    with pytest.raises(ValueError, match="not the identity"):
        GeneratingSystem(gs.sigma0, gs.sigma1, gs.sigma_inf.inverse())


def test_single_cycle_type_round_trip_json():
    ct = CombinatorialType(10, 8, 5, 8)
    assert ct.to_json() == {"d": 10, "e0": 8, "e1": 5, "eInf": 8}
    assert CombinatorialType.from_json(ct.to_json()) == ct
    gs = canonical_single_cycle(ct)
    assert GeneratingSystem.from_json(gs.to_json()) == gs


def test_gensys_json_round_trip_random():
    rng = random.Random(302)
    for _ in range(30):
        gs = random_gensys(rng)
        data = gs.to_json()
        assert GeneratingSystem.from_json(data) == gs


def _conjugated(gs: GeneratingSystem, t: Permutation) -> GeneratingSystem:
    return GeneratingSystem(
        conjugate(gs.sigma0, t), conjugate(gs.sigma1, t), conjugate(gs.sigma_inf, t)
    )


def test_equivalent_under_conjugation():
    rng = random.Random(303)
    for _ in range(40):
        gs = random_gensys(rng, dmax=9)
        t = random_permutation(rng, gs.degree)
        assert equivalent(gs, _conjugated(gs, t))


def test_equivalent_rejects_different_cycle_types():
    a = canonical_single_cycle(CombinatorialType(5, 3, 3, 5))
    b = canonical_single_cycle(CombinatorialType(5, 4, 4, 3))
    assert not equivalent(a, b)


def test_equivalent_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        equivalent(power_gensys(3), power_gensys(4))


def _brute_force_equivalent(a: GeneratingSystem, b: GeneratingSystem) -> bool:
    d = a.degree
    for images in itertools.permutations(range(1, d + 1)):
        t = Permutation(images)
        if conjugate(a.sigma0, t) == b.sigma0 and conjugate(a.sigma1, t) == b.sigma1:
            return True
    return False


def test_equivalent_matches_brute_force():
    rng = random.Random(304)
    for _ in range(60):
        a = random_gensys(rng, dmin=3, dmax=6)
        if rng.random() < 0.5:
            # same-degree independent triple; usually inequivalent
            b = random_gensys(rng, dmin=a.degree, dmax=a.degree)
        else:
            b = _conjugated(a, random_permutation(rng, a.degree))
        got = equivalent(a, b)
        assert got == _brute_force_equivalent(a, b)
        assert got == equivalent(b, a)  # symmetry


def test_equivalent_refuses_a_same_passport_pair_with_no_conjugator():
    # both genus 0 with cycle types ((2, 2, 1), (4, 1), (4, 1)), yet no
    # conjugator maps one onto the other: every seed of the search fails
    s0 = Permutation.from_cycles(5, [[2, 3], [4, 5]])
    a = make_gensys(s0, Permutation.from_cycles(5, [[1, 2, 3, 4]]))
    b = make_gensys(s0, Permutation.from_cycles(5, [[1, 2, 4, 5]]))
    for gs in (a, b):
        assert [s.cycle_type() for s in gs.triple] == [(2, 2, 1), (4, 1), (4, 1)]
        assert gs.genus() == 0
    assert equivalent(a, b) is False
    assert _brute_force_equivalent(a, b) is False


def test_canonical_representatives_are_unique_up_to_degree_5():
    # Brute force over all of S_d x S_d: every transitive single-cycle pair
    # of a type is conjugate to the canonical triple, and the type has
    # exactly d! such pairs (one class, trivial centralizer).  So the
    # catalog's canonical records are pairwise inequivalent and complete.
    # Each pair also draws the double star its type predicts, the lemma
    # behind TriptychRecord.validate checking no shape or diameter.
    for d in range(3, 6):
        perms = [Permutation(p) for p in itertools.permutations(range(1, d + 1))]
        single = [p for p in perms if len(p.nontrivial_cycles()) == 1]
        canonical = {ct: canonical_single_cycle(ct) for ct in valid_types(d)}
        found = dict.fromkeys(canonical, 0)
        for s0, s1 in itertools.product(single, repeat=2):
            if not is_transitive([s0, s1]):
                continue
            gs = make_gensys(s0, s1)
            ct = gs.single_cycle_type()
            if ct is not None:
                assert equivalent(gs, canonical[ct])
                found[ct] += 1
                ds = Dessin(gs)
                shape = ds.shape()
                counts = (shape.white_leaves, shape.black_leaves, shape.parallel_edges)
                assert counts == (d - ct.e1, d - ct.e0, ct.e0 + ct.e1 - d)
                assert ds._bfs_diameter_vertices() == shape.diameter_vertices <= 4
        assert found == dict.fromkeys(canonical, math.factorial(d))


def test_every_type_to_degree_22_has_exactly_one_class():
    # The Frobenius count in tests/helpers.py shares no code with the triple
    # builders.  Every type of degree <= 22 is realized by one class of
    # transitive triples, weighted 1 / |Aut| = 1, so each catalog record
    # stands for its whole class and validate()'s one equality decides.
    types = [(ct.d, *ct.indices) for d in range(3, 23) for ct in valid_types(d)]
    assert len(types) == 1960
    assert set(class_counts(types, single_cycle_characters(22)).values()) == {1}


def _brute_force_class_counts(d: int) -> dict[tuple[int, int, int, int], Fraction]:
    # transitive single-cycle triples of S_d, by passport, over d!
    single = [p for p in map(Permutation, itertools.permutations(range(1, d + 1)))
              if len(p.nontrivial_cycles()) == 1]
    found = Counter()
    for s0, s1 in itertools.product(single, repeat=2):
        s_inf = (s0 * s1).inverse()
        if len(s_inf.nontrivial_cycles()) == 1 and is_transitive([s0, s1]):
            found[(d, *(len(s.nontrivial_cycles()[0]) for s in (s0, s1, s_inf)))] += 1
    return {key: Fraction(n, math.factorial(d)) for key, n in found.items()}


def test_the_class_count_refutes_its_negative_controls():
    characters = single_cycle_characters(10)
    # genus 1, index sum 2d + 3: the count is not 1 everywhere, and the
    # (3; 3, 3, 3) class has the automorphism group Z/3
    genus1 = [(d, e0, e1, 2 * d + 3 - e0 - e1)
              for d in range(3, 11) for e0 in range(2, d + 1) for e1 in range(2, d + 1)
              if 2 <= 2 * d + 3 - e0 - e1 <= d]
    counts = class_counts(genus1, characters)
    assert len(genus1) == 120
    assert set(counts.values()) != {1}
    assert counts[(3, 3, 3, 3)] == Fraction(1, 3) and counts[(5, 4, 4, 5)] == 3
    # brute force over S_d x S_d agrees on every passport, of every genus
    for d in (4, 5):
        brute = _brute_force_class_counts(d)
        assert class_counts(brute, characters) == brute
    # Murnaghan-Nakayama with every strip counted positive
    types = [(ct.d, *ct.indices) for d in range(3, 11) for ct in valid_types(d)]
    wrong = class_counts(types, single_cycle_characters(10, sign=lambda h: 1))
    assert set(wrong.values()) != {1}
