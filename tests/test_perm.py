"""Permutations: composition order is left-to-right throughout."""

import itertools
import random

import pytest

from belyi import (
    DegreeMismatchError,
    Permutation,
    is_transitive,
)
from helpers import closure_is_transitive, conjugate, random_permutation, stated_from_cycles


def test_compose_is_left_to_right():
    # apply (3 4 5) first, then (1 2 3): the result is the 5-cycle (1 2 3 4 5)
    a = Permutation.from_cycles(5, [(3, 4, 5)])
    b = Permutation.from_cycles(5, [(1, 2, 3)])
    assert a * b == Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert (a * b)(1) == 2
    assert (a * b)(3) == 4
    assert (a * b)(5) == 1


def test_compose_respects_pointwise_rule():
    rng = random.Random(201)
    for _ in range(50):
        d = rng.randint(1, 9)
        a, b = random_permutation(rng, d), random_permutation(rng, d)
        ab = a * b
        for i in range(1, d + 1):
            assert ab(i) == b(a(i))


def test_conjugate_relabels_cycles():
    p = Permutation.from_cycles(3, [(1, 2)])
    t = Permutation.from_cycles(3, [(1, 2, 3)])
    assert conjugate(p, t) == Permutation.from_cycles(3, [(2, 3)])


def test_conjugate_maps_cycles_through_t():
    rng = random.Random(202)
    for _ in range(50):
        d = rng.randint(2, 9)
        p, t = random_permutation(rng, d), random_permutation(rng, d)
        q = conjugate(p, t)
        assert q.cycle_type() == p.cycle_type()
        for i in range(1, d + 1):
            # t carries i -> t(i), so q must carry t(i) -> t(p(i))
            assert q(t(i)) == t(p(i))


def test_inverse():
    rng = random.Random(203)
    for _ in range(30):
        d = rng.randint(1, 9)
        p = random_permutation(rng, d)
        assert p * p.inverse() == Permutation.identity(d)
        assert p.inverse() * p == Permutation.identity(d)


def test_identity_and_validation():
    e = Permutation.identity(4)
    assert e.is_identity
    assert e.cycle_string() == "()"
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_from_cycles_validation():
    # one fault per case, so that each message is the one the fault gives
    with pytest.raises(ValueError, match=r"^point 2 repeated across cycles$"):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])  # overlap
    with pytest.raises(ValueError, match=r"^point 1 repeated across cycles$"):
        Permutation.from_cycles(3, [(1, 1)])  # repeat within cycle
    with pytest.raises(ValueError, match=r"^point 4 outside 1\.\.3$"):
        Permutation.from_cycles(3, [(1, 4)])  # d + 1
    with pytest.raises(ValueError, match=r"^point 0 outside 1\.\.3$"):
        Permutation.from_cycles(3, [(2,), (0, 1)])
    with pytest.raises(ValueError, match=r"^not an integer: '2'$"):
        Permutation.from_cycles(3, [(1, "2")])
    with pytest.raises(ValueError, match=r"^not an integer: \[2\]$"):
        Permutation.from_cycles(3, [(1, [2])])  # unhashable
    with pytest.raises(ValueError, match=r"^empty cycle$"):
        Permutation.from_cycles(3, [(1, 2), ()])
    # with several faults, the first point in reading order is named
    with pytest.raises(ValueError, match=r"^point 5 outside 1\.\.3$"):
        Permutation.from_cycles(3, [(5, 2), (2, 0)])
    with pytest.raises(ValueError, match=r"^point 2 repeated across cycles$"):
        Permutation.from_cycles(3, [(1, 2), (2, 9), ()])
    # an empty list of cycles is the identity
    assert Permutation.from_cycles(3, []) == Permutation.identity(3)


def test_from_cycles_below_degree_one():
    for d in (0, -1, -2, -3):
        with pytest.raises(ValueError, match=r"^degree must be at least 1$"):
            Permutation.from_cycles(d, [])
    with pytest.raises(ValueError, match=r"^point 1 outside 1\.\.-3$"):
        Permutation.from_cycles(-3, [(1,)])


def test_from_cycles_names_a_bool_point():
    with pytest.raises(ValueError, match=r"^not an integer: True$"):
        Permutation.from_cycles(3, [(True, 2)])
    with pytest.raises(ValueError, match=r"^not an integer: False$"):
        Permutation.from_cycles(3, [(1, 2), (3, False)])


def _outcome(build, d, cycles):
    """The images that ``build`` gives, or the message of its ValueError."""
    try:
        return build(d, cycles).images
    except ValueError as exc:
        return str(exc)


def _random_cycles(rng, d):
    """The cycles of a random permutation of 1..d, each in a random
    rotation and in random order, with some fixed points left out."""
    cycles = [list(c) for c in random_permutation(rng, d).cycles()]
    cycles = [c for c in cycles if len(c) > 1 or rng.random() < 0.5]
    for c in cycles:
        r = rng.randrange(len(c))
        c[:] = c[r:] + c[:r]
    rng.shuffle(cycles)
    return cycles


def _with_fault(rng, d, cycles):
    """``cycles`` with one more fault: a point off either end of 1..d or
    not an int, a repeated point, an empty cycle, or a cycle that is not a
    sequence."""
    (kind,) = rng.choices(range(4), weights=(2, 3, 3, 1))
    lists = [c for c in cycles if isinstance(c, list) and c]
    if kind == 0 or not lists:
        cycles.insert(rng.randrange(len(cycles) + 1), [])
    elif kind == 1:
        c = rng.choice(lists)
        bad = [0, -1, d + 1, 10**30, True, False, 2.0, "3", None, [1]]
        c[rng.randrange(len(c))] = rng.choice(bad)
    elif kind == 2:
        c = rng.choice(lists)
        c.insert(rng.randrange(len(c) + 1), rng.choice(c))
    else:
        cycles.insert(rng.randrange(len(cycles) + 1), rng.choice([5, None]))
    return cycles


def test_from_cycles_matches_the_stated_oracle():
    # the same images, or the same message for the first fault in reading
    # order, as the point-by-point checks kept in helpers
    rng = random.Random(2024)
    for _ in range(400):
        d = rng.randint(1, 20)
        cycles = _random_cycles(rng, d)
        assert _outcome(Permutation.from_cycles, d, cycles) == stated_from_cycles(d, cycles).images
        for _ in range(rng.randint(1, 3)):
            cycles = _with_fault(rng, d, cycles)
            want = _outcome(stated_from_cycles, d, cycles)
            assert isinstance(want, str)
            assert _outcome(Permutation.from_cycles, d, cycles) == want
    for d in (0, -1, -2, -3):
        for cycles in ([], [(1,)], [()], [(0,)], [("1",)], [5]):
            assert _outcome(Permutation.from_cycles, d, cycles) == _outcome(stated_from_cycles, d, cycles)


def test_degree_mismatch():
    a = Permutation.identity(3)
    b = Permutation.identity(4)
    with pytest.raises(DegreeMismatchError):
        a * b


def test_cycles_are_canonical():
    p = Permutation.from_cycles(5, [(4, 5, 3)])
    assert p.cycles() == ((1,), (2,), (3, 4, 5))
    assert p.cycles() is p.cycles()  # computed once, then kept
    assert p.cycle_string() == "(1)(2)(3 4 5)"
    assert p.nontrivial_cycles() == ((3, 4, 5),)
    assert p.nontrivial_cycles() is p.nontrivial_cycles()
    assert p.cycle_type() == (3, 1, 1)
    assert p.num_cycles() == 3


def test_canonical_cycles_are_kept_and_any_other_form_is_walked():
    # every permutation with d <= 6, from its canonical cycles, rotated,
    # reordered and with its fixed points left out: each gives the cycles
    # its images walk to.  Only the canonical list, the one that covers
    # 1..d, is kept as given, before any cycles() call
    for d in range(1, 7):
        for images in itertools.permutations(range(1, d + 1)):
            want = Permutation(images).cycles()
            forms = (
                list(want),
                [c[1:] + c[:1] for c in want],
                list(want[::-1]),
                [c for c in want if len(c) > 1],
            )
            for cycles in forms:
                p = Permutation.from_cycles(d, cycles)
                assert (p._cycles is not None) == (cycles == list(want))
                assert p.cycles() == want


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation([1.0, 2.7, 3]),
        lambda: Permutation([True, 2]),
        lambda: Permutation.from_cycles(3, [(1.9, 2.2)]),
        lambda: Permutation.from_cycles(3, [("1", "2")]),
        lambda: Permutation.from_json([[1], [2.0]]),
    ],
    ids=["float-image", "bool-image", "float-point", "string-point", "json-float"],
)
def test_non_integer_points_are_rejected(build):
    # int() would truncate these to a valid permutation
    with pytest.raises(ValueError, match="not an integer"):
        build()


@pytest.mark.parametrize(
    "cycles", [5, [5], None, [[1], 2], {"a": [1]}], ids=["int", "list-of-int", "null", "mixed", "dict"]
)
def test_cycles_that_are_not_a_list_of_lists_are_rejected(cycles):
    for build in (
        lambda: Permutation.from_json(cycles),
        lambda: Permutation.from_cycles(2, cycles),
    ):
        with pytest.raises(ValueError, match="list of lists"):
            build()


def test_cycle_decomposition_round_trip():
    rng = random.Random(204)
    for _ in range(50):
        d = rng.randint(1, 10)
        p = random_permutation(rng, d)
        cycles = p.cycles()
        assert sorted(x for c in cycles for x in c) == list(range(1, d + 1))
        assert Permutation.from_cycles(d, [c for c in cycles if len(c) > 1]) == p


def test_cycle_type_sums_to_degree():
    rng = random.Random(205)
    for _ in range(30):
        d = rng.randint(1, 12)
        p = random_permutation(rng, d)
        ct = p.cycle_type()
        assert sum(ct) == d
        assert ct == tuple(sorted(ct, reverse=True))


def test_transitivity():
    a = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert is_transitive([a])
    b = Permutation.from_cycles(4, [(1, 2)])
    c = Permutation.from_cycles(4, [(3, 4)])
    assert not is_transitive([b, c])
    assert is_transitive([b, c, Permutation.from_cycles(4, [(2, 3)])])
    # at most two moved cycles: one, or two that meet, must cover 1..d
    cases = [
        # one generator, two disjoint cycles
        [Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])],
        # two generators whose cycles meet and cover 1..5
        [Permutation.from_cycles(5, [(1, 2, 3)]), Permutation.from_cycles(5, [(3, 4, 5)])],
        # two generators whose cycles meet but leave the point 5 out
        [Permutation.from_cycles(5, [(1, 2, 3)]), Permutation.from_cycles(5, [(2, 4)])],
        # identities at d = 1 and d = 2
        [Permutation.identity(1)],
        [Permutation.identity(2), Permutation.identity(2)],
        # three single cycles that join only through the third
        [Permutation.from_cycles(6, [(1, 2, 3)]), Permutation.from_cycles(6, [(4, 5, 6)]),
         Permutation.from_cycles(6, [(3, 4)])],
    ]
    got = [is_transitive(gens) for gens in cases]
    assert got == [closure_is_transitive(gens) for gens in cases]
    assert got == [False, True, False, True, False, True]
    with pytest.raises(ValueError):
        is_transitive([])
    with pytest.raises(DegreeMismatchError):
        is_transitive([a, b])


def test_transitivity_matches_the_inverse_closure_oracle():
    # every pair of S_d x S_d for d <= 5
    for d in range(1, 6):
        group = [Permutation(p) for p in itertools.permutations(range(1, d + 1))]
        for a, b in itertools.product(group, repeat=2):
            assert is_transitive([a, b]) == closure_is_transitive([a, b])
    # three random single cycles on random supports: both outcomes occur
    rng = random.Random(207)
    outcomes = []
    for _ in range(200):
        d = rng.randint(1, 40)
        gens = [
            Permutation.from_cycles(d, [rng.sample(range(1, d + 1), rng.randint(1, d))])
            for _ in range(3)
        ]
        got = is_transitive(gens)
        assert got == closure_is_transitive(gens)
        outcomes.append(got)
    assert 40 <= sum(outcomes) <= 160


def _window_cycles(rng, d, k):
    """k generators, each one cycle on a window of a shuffled 1..d; the
    windows run left to right and meet in 0 to 2 points, so a window of
    one point is the identity and a gap or a missed end splits the orbit."""
    order = rng.sample(range(1, d + 1), d)
    gens, start = [], rng.choice([0, 0, 0, 1])
    for i in range(k):
        end = d if i == k - 1 and rng.random() < 0.8 else rng.randint(start, d)
        window = order[start:end]
        rng.shuffle(window)
        gens.append(Permutation.from_cycles(d, [window] if window else []))
        start = max(0, end - rng.randint(0, 2))
    rng.shuffle(gens)
    return gens


def _chunks_and_a_joining_cycle(rng, d):
    """A generator moving 2 or more cycles, on consecutive chunks of a
    shuffled 1..d, and one cycle through a point of each chunk, or of all
    chunks but one."""
    order = rng.sample(range(1, d + 1), d)
    cuts = sorted(rng.sample(range(2, d - 1), rng.randint(1, min(6, d - 3))))
    chunks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, d])]
    a = Permutation.from_cycles(d, chunks)
    joined = chunks if rng.random() < 0.5 else rng.sample(chunks, len(chunks) - 1)
    b = Permutation.from_cycles(d, [[rng.choice(c) for c in joined]])
    return [a, b] if rng.random() < 0.5 else [b, a]


def test_the_one_cycle_orbit_matches_the_closure_oracle_to_degree_300():
    # generators that move at most two cycles in all have their orbit read
    # off those cycles; any other input takes the forward closure
    rng = random.Random(3701)
    outcomes = {True: [], False: []}  # keyed by: at most two cycles moved

    def check(gens):
        assert is_transitive(gens) == closure_is_transitive(gens)
        moved = sum(len(g.nontrivial_cycles()) for g in gens)
        outcomes[moved <= 2].append(is_transitive(gens))

    for _ in range(300):
        d = rng.randint(2, 300)
        gens = _window_cycles(rng, d, rng.choice([2, 3]))
        assert all(len(g.nontrivial_cycles()) <= 1 for g in gens)
        check(gens)
    for _ in range(150):
        d = rng.randint(5, 300)
        gens = _chunks_and_a_joining_cycle(rng, d)
        assert max(len(g.nontrivial_cycles()) for g in gens) >= 2
        check(gens)
    # both branches see both outcomes
    for got in outcomes.values():
        assert 0.2 <= sum(got) / len(got) <= 0.8
    # no generator moves anything: transitive exactly at d = 1
    for d in (1, 2, 5, 300):
        for k in (1, 2, 3):
            gens = [Permutation.identity(d)] * k
            assert is_transitive(gens) is closure_is_transitive(gens) is (d == 1)


def test_json_round_trip():
    p = Permutation.from_cycles(5, [(3, 4, 5)])
    assert p.to_json() == [[1], [2], [3, 4, 5]]
    assert Permutation.from_json(p.to_json()) == p
    assert Permutation.from_json([[1], [2]]) == Permutation.identity(2)
    # the degree is the number of points given
    assert Permutation.from_json([[2, 1], [3]]).degree == 3
    # so the cycles must cover 1..d exactly, fixed points included
    with pytest.raises(ValueError):
        Permutation.from_json([[1, 3]])


def test_json_round_trip_random():
    rng = random.Random(206)
    for _ in range(40):
        d = rng.randint(1, 10)
        p = random_permutation(rng, d)
        assert Permutation.from_json(p.to_json()) == p
