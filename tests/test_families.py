"""Map families: exact coefficients, ramification profiles, verification."""

import dataclasses
import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from belyi import (
    BelyiMap,
    CombinatorialType,
    MapParams,
    ParameterOutOfRangeError,
    Poly,
    RamificationProfile,
    RatFunc,
    VerificationError,
    chebyshev_map,
    family_map_for_type,
    poly_text,
    power_map,
    ramification_profile,
    single_cycle_polynomial,
    squarefree_decomposition,
    symmetric_single_cycle,
    valid_types,
    verify_single_cycle,
)
from belyi import exact, families
import helpers
from helpers import (
    ProjectivePoint,
    add,
    compose,
    derivative,
    divisibility_certificate,
    evaluate,
    mul,
    nested_list,
    poly_params,
    power,
    product,
    random_poly,
    single_cycle_closed_form,
    single_cycle_map,
    sub,
    substitute_reciprocal,
    symmetric_coeffs,
)


def test_power_map_profile():
    m = power_map(5)
    assert m.profile.over0 == (5,)
    assert m.profile.over1 == (1, 1, 1, 1, 1)
    assert m.profile.over_inf == (5,)
    assert m.profile.is_belyi
    assert m.profile.total_ramification == 8
    with pytest.raises(ParameterOutOfRangeError):
        power_map(0)


def test_non_belyi_quadratic():
    # x^2 + x ramifies over -1/4 (and at infinity), so only 1 of the
    # required 2 units of ramification sits over {0, 1, inf}
    prof = ramification_profile(RatFunc((0, 1, 1)))
    assert prof.over0 == (1, 1)
    assert prof.over1 == (1, 1)
    assert prof.over_inf == (2,)
    assert prof.total_ramification == 1
    assert not prof.is_belyi


def test_profile_of_reciprocal_square():
    # 1/x^2 is Belyi: the 0-fiber is the double point at infinity
    prof = ramification_profile(RatFunc((1,), (0, 0, 1)))
    assert prof.over0 == (2,)
    assert prof.over1 == (1, 1)
    assert prof.over_inf == (2,)
    assert prof.is_belyi


def test_profile_rejects_constant():
    with pytest.raises(ValueError):
        ramification_profile(RatFunc((3,)))


def test_profile_fibers_sum_to_degree():
    rng = random.Random(501)
    from helpers import random_poly

    done = 0
    while done < 80:
        num, den = random_poly(rng, 5), random_poly(rng, 5)
        if not den:
            continue
        f = RatFunc(num, den)
        if f.is_constant:
            continue
        done += 1
        prof = ramification_profile(f)
        for fib in prof.fibers:
            assert sum(fib) == prof.degree
            assert fib == tuple(sorted(fib, reverse=True))
        assert prof.total_ramification <= 2 * prof.degree - 2


def test_profile_rejects_a_decomposition_that_loses_a_factor(monkeypatch):
    # the fiber-sum check guards the squarefree decomposition, and survives -O
    f = single_cycle_polynomial(7, 3).f
    exact_sqf = families.squarefree_decomposition
    monkeypatch.setattr(
        families, "squarefree_decomposition", lambda g: exact_sqf(g)[:-1]
    )
    with pytest.raises(VerificationError, match="sum to"):
        ramification_profile(f)


def test_chebyshev_polynomials():
    t = families._chebyshev_ints
    assert t(0) == [1]
    assert t(1) == [0, 1]
    assert t(2) == [-1, 0, 2]
    assert t(3) == [0, -3, 0, 4]
    assert t(4) == [1, 0, -8, 0, 8]
    assert t(5) == [0, 5, 0, -20, 0, 16]
    # nesting: T_2(T_3) = 2 T_3^2 - 1 = T_6
    assert t(6) == sub(mul([2], t(3), t(3)), [1])


def test_chebyshev_closed_form_is_the_recurrence():
    # T_{n+1} = 2x T_n - T_{n-1}, run on integer lists
    ts = [[1], [0, 1]]
    while len(ts) <= 60:
        ts.append(sub(mul([0, 2], ts[-1]), ts[-2]))
    for n, t in enumerate(ts):
        assert families._chebyshev_ints(n) == t
    # the maps are the reduced pairs (T_d + 1, 2) and (x^d, 1)
    for d in range(3, 31):
        num = add(ts[d], [1])
        g = math.gcd(*num, 2)
        assert chebyshev_map(d).f.pair == (tuple(c // g for c in num), (2 // g,))
        assert power_map(d).f.pair == ((0,) * d + (1,), (1,))


def test_chebyshev_map_degree_three():
    m = chebyshev_map(3)
    assert m.f == RatFunc((Fraction(1, 2), Fraction(-3, 2), 0, 2))
    assert m.profile.over0 == (2, 1)
    assert m.profile.over1 == (2, 1)
    assert m.profile.over_inf == (3,)
    assert m.profile.is_belyi
    assert evaluate(m.f, 1) == ProjectivePoint.of(1)
    assert evaluate(m.f, -1) == ProjectivePoint.of(0)
    with pytest.raises(ParameterOutOfRangeError):
        chebyshev_map(2)


def test_chebyshev_map_is_factored_only_when_its_profile_is_read(monkeypatch):
    calls = []
    yun = families.squarefree_decomposition

    def counting(p):
        calls.append(p)
        return yun(p)

    monkeypatch.setattr(families, "squarefree_decomposition", counting)
    for d in range(3, 61):
        m = chebyshev_map(d)
        assert calls == []
        num, den = m.f.pair
        assert len(den) == 1  # D is the constant 1 or 2, which has no roots
        assert m.profile.is_belyi
        # N and N - D are factored, once each
        assert calls == [Poly(num), Poly(sub(list(num), list(den)))]
        calls.clear()


def test_chebyshev_interior_double_points():
    # interior critical points are all double, split between the fibers
    for d in range(3, 11):
        prof = chebyshev_map(d).profile
        assert prof.over_inf == (d,)
        merged = sorted(prof.over0 + prof.over1, reverse=True)
        assert merged == [2] * (d - 1) + [1, 1]


def test_polynomial_family_worked_example():
    m = single_cycle_polynomial(5, 2)
    assert m.params == MapParams(
        Fraction(30), (Fraction(1, 5), Fraction(-1, 2), Fraction(1, 3))
    )
    assert m.f == RatFunc((0, 0, 0, 10, -15, 6))
    assert m.claimed_type == CombinatorialType(5, 3, 3, 5)
    assert m.factored_form() == "x^3 * (6x^2 - 15x + 10)"
    # derivative confirms the only finite critical points are 0 and 1
    x, x1 = [0, 1], [-1, 1]
    assert derivative(list(m.f.pair[0])) == mul([30], power(x, 2), power(x1, 2))
    assert m.profile.over0 == (3, 1, 1)
    assert m.profile.over1 == (3, 1, 1)
    assert m.profile.over_inf == (5,)


def test_polynomial_family_domain():
    for d, k in ((2, 1), (5, 0), (5, 4), (5, 5), (3, 2)):
        with pytest.raises(ParameterOutOfRangeError):
            single_cycle_polynomial(d, k)
    # boundary cases inside the domain
    assert single_cycle_polynomial(3, 1).claimed_type == CombinatorialType(3, 2, 2, 3)
    assert single_cycle_polynomial(12, 10).claimed_type == CombinatorialType(
        12, 2, 11, 12
    )


def test_family_constructors_refuse_a_map_that_fails_its_type(monkeypatch):
    # each constructor gets the integer pair of another type of its degree:
    # (7; 4, 4, 7) for the polynomial (7; 5, 3, 7), (7; 4, 6, 5) for the
    # symmetric (7; 5, 5, 5); the catalog's route, the type itself, too
    build_map = families._single_cycle_ints
    monkeypatch.setattr(
        families, "_single_cycle_ints",
        lambda ct: build_map(CombinatorialType(ct.d, ct.e0 - 1, ct.e1 + 1, ct.e_inf)),
    )
    for build, ct in (
        (single_cycle_polynomial, CombinatorialType(7, 5, 3, 7)),
        (symmetric_single_cycle, CombinatorialType(7, 5, 5, 5)),
    ):
        with pytest.raises(VerificationError, match=r"map \(d, k\) = \(7, 2\) is not") as by_dk:
            build(7, 2)
        with pytest.raises(VerificationError) as by_type:
            family_map_for_type(ct)
        assert str(by_type.value) == str(by_dk.value)


def test_polynomial_family_sweep():
    for d in range(3, 13):
        for k in range(1, d - 1):
            m = single_cycle_polynomial(d, k)
            assert m.claimed_type == CombinatorialType(d, d - k, k + 1, d)
            assert m.profile.is_belyi
            assert evaluate(m.f, 0) == ProjectivePoint.of(0)
            assert evaluate(m.f, 1) == ProjectivePoint.of(1)
            assert m.profile.over0 == (d - k,) + (1,) * k
            assert m.profile.over1 == (k + 1,) + (1,) * (d - k - 1)
            assert m.profile.over_inf == (d,)


def test_symmetric_family_worked_example():
    m = symmetric_single_cycle(10, 2)
    assert m.params == MapParams(None, (Fraction(42), Fraction(120), Fraction(90)))
    assert m.claimed_type == CombinatorialType(10, 8, 5, 8)
    assert m.f == RatFunc((0,) * 8 + (90, -120, 42), (42, -120, 90))
    assert m.factored_form() == (
        "x^8 * (42x^2 - 120x + 90) / (90x^2 - 120x + 42)"
    )
    assert m.profile.over0 == (8, 1, 1)
    assert m.profile.over1 == (5, 1, 1, 1, 1, 1)
    assert m.profile.over_inf == (8, 1, 1)


def test_symmetric_family_small_example():
    m = symmetric_single_cycle(5, 2)
    assert m.params == MapParams(None, (Fraction(2), Fraction(10), Fraction(20)))
    assert m.claimed_type == CombinatorialType(5, 3, 5, 3)


def _symmetric_coeff_product(d, k, i):
    # the product form of the symmetric coefficients, kept as an oracle
    tail = math.prod(d - j for j in range(k + i + 1, 2 * k + 1))
    head = math.prod(d - j for j in range(0, i))
    return math.comb(k, i) * tail * head


def test_symmetric_coefficients_match_the_product_form():
    for d in range(3, 61):
        for k in range(1, (d - 1) // 2 + 1):
            oracle = tuple(_symmetric_coeff_product(d, k, i) for i in range(k + 1))
            assert symmetric_coeffs(d, k) == oracle
    assert symmetric_single_cycle(10, 2).params.a == tuple(
        Fraction(_symmetric_coeff_product(10, 2, i)) for i in range(3)
    )


def test_printed_text_of_every_catalog_map_is_pinned():
    # str(f) and the closed form of all 616 family maps with d <= 30, poly
    # before symmetric at each degree: both printers at every member
    h = hashlib.sha256()
    for d in range(3, 31):
        maps = [single_cycle_polynomial(d, k) for k in range(1, d - 1)]
        maps += [symmetric_single_cycle(d, k) for k in range(1, (d - 1) // 2 + 1)]
        for m in maps:
            h.update(f"{m.f}\n{m.factored_form()}\n".encode())
    assert h.hexdigest() == "c78005d7bff375cdf96b0f58da6cd54d7d54452683525f0a0fa1e3b0384a1b68"


def test_both_families_are_the_one_map_of_their_type():
    # each family's own coefficient formulas are the oracle: a member has
    # their params, and its map is the one they assemble
    for d in range(3, 41):
        members = [
            (single_cycle_polynomial(d, k), poly_params(d, k)) for k in range(1, d - 1)
        ] + [
            (symmetric_single_cycle(d, k), (None, tuple(map(Fraction, symmetric_coeffs(d, k)))))
            for k in range(1, (d - 1) // 2 + 1)
        ]
        for m, (c, a) in members:
            assert m.params == MapParams(c, a)
            # c (a0 x^k + ... + a_k) over 1, or den = sum (-1)^i a_i x^i
            # reversed over den, each times x^(d-k)
            if c is not None:
                num, den = [c * x for x in reversed(a)], [1]
            else:
                den = [(-1) ** i * x for i, x in enumerate(a)]
                num = den[::-1]
            assert m.f == RatFunc([0] * (d - m.k) + num, den)
            text = f"x^{d - m.k} * ({poly_text(num)})"
            assert m.factored_form() == (text if c is not None else f"{text} / ({poly_text(den)})")
    # the construction gives every type its map; the same map claimed as
    # another type of its degree fails
    for d in range(3, 13):
        types = valid_types(d)
        for i, ct in enumerate(types):
            m = BelyiMap(single_cycle_map(ct))
            assert verify_single_cycle(m, ct) == (True, f"single-cycle of type {ct.indices}")
            assert not verify_single_cycle(m, types[i - 1])[0]


def test_single_cycle_map_reduces_its_integer_pair_as_ratfunc_does(monkeypatch):
    # the pair handed to RatFunc holds only ints, built without a Fraction,
    # and reduces as its Fraction form, both lists over lc(D), does
    built = []
    monkeypatch.setattr(helpers, "RatFunc", lambda n, d: built.append((n, d)) or RatFunc(n, d))
    types = [ct for d in range(3, 31) for ct in valid_types(d)]
    for ct in types:
        f = single_cycle_map(ct)
        num, den = built.pop()
        assert {type(c) for c in num + den} == {int}
        assert f.pair == RatFunc([Fraction(c, den[-1]) for c in num],
                                 [Fraction(c, den[-1]) for c in den]).pair
    assert len(types) == 4872


def test_term_ratio_coefficients_are_the_closed_form(monkeypatch):
    # every type to d = 30 and seeded types at d = 60, 80 and 100: the pair
    # handed to RatFunc is the closed form's, and so is the reduced map
    rng = random.Random(6080)
    types = [ct for d in range(3, 31) for ct in valid_types(d)]
    for d in (60, 80, 100):
        types += rng.sample(valid_types(d), 15)
    pairs = []
    for ct in types:
        u, v = single_cycle_closed_form(ct)
        u1, v1 = sum(u), sum(v)
        pairs.append(([0] * ct.e0 + [v1 * x for x in u], [u1 * x for x in v]))
        assert single_cycle_map(ct).pair == RatFunc(*pairs[-1]).pair
    monkeypatch.setattr(helpers, "RatFunc", lambda n, d: (n, d))
    assert [single_cycle_map(ct) for ct in types] == pairs
    assert len(types) == 4872 + 45


def test_certified_profile_is_the_factored_profile(monkeypatch):
    # the oracle is Yun on all three fibers: every family member to d = 30
    # and the map of every type to d = 12
    maps = [
        (m.f, m.profile)
        for d in range(3, 31)
        for m in [single_cycle_polynomial(d, k) for k in range(1, d - 1)]
        + [symmetric_single_cycle(d, k) for k in range(1, (d - 1) // 2 + 1)]
    ]
    assert len(maps) == 616
    maps += [
        (f, families._certified_profile(f, ct))
        for d in range(3, 13)
        for ct in valid_types(d)
        for f in [single_cycle_map(ct)]
    ]
    for f, prof in maps:
        assert prof == ramification_profile(f)
    # a family constructor factors nothing but its Wronskian, once; power
    # and Chebyshev maps, which are not normalized, factor their fibers
    seen, profiled = [], []
    yun, profile = families.squarefree_decomposition, families.ramification_profile
    monkeypatch.setattr(families, "squarefree_decomposition", lambda p: seen.append(p) or yun(p))
    monkeypatch.setattr(families, "ramification_profile", lambda f: profiled.append(f) or profile(f))
    for build, d, k in ((single_cycle_polynomial, 7, 3), (symmetric_single_cycle, 10, 2)):
        m = build(d, k)
        num, den = m.f.pair
        assert seen == [Poly(sub(mul(derivative(num), den), mul(num, derivative(den))))]
        seen.clear()
    assert profiled == []
    for m in (power_map(5), chebyshev_map(4)):
        assert m.profile.is_belyi
    assert sorted(f.degree for f in profiled) == [4, 5]


def test_certificate_refuses_what_is_not_the_map_of_its_type():
    rng = random.Random(1616)
    for d in range(3, 11):
        types = valid_types(d)
        for ct in types:
            f = single_cycle_map(ct)
            assert [o for o in types if families._certified_profile(f, o)] == [ct]
            # each has the Wronskian of f up to a constant: 2f misses
            # N(1) = D(1), 2f - 1 misses x^e0 | N, and 2f / (f + 1) moves
            # the branch value inf to 2, so deg D = deg N
            num, den = f.pair
            for pair in ((mul([2], num), den), (sub(mul([2], num), den), den),
                         (mul([2], num), add(num, den))):
                assert families._certified_profile(RatFunc(*pair), ct) is None
            if ct.e_inf < d:
                # the map of (d + 1; e0, e1, eInf + 2) has a Wronskian of
                # the same shape, and the wrong degree
                up = CombinatorialType(d + 1, ct.e0, ct.e1, ct.e_inf + 2)
                assert families._certified_profile(single_cycle_map(up), ct) is None
            # one coefficient of N bumped, then also one of D so that
            # N(1) = D(1) holds again and only the Wronskian can refuse it,
            # which Yun's profile confirms
            num = add(num, [0] * rng.randrange(ct.e0, d + 1) + [1])
            assert families._certified_profile(RatFunc(num, den), ct) is None
            g = RatFunc(num, add(den, [0] * rng.randrange(len(den)) + [1]))
            assert families._certified_profile(g, ct) is None
            assert not verify_single_cycle(BelyiMap(g), ct)[0]
    # the Chebyshev d = 3 map has the profile of (3; 2, 2, 3), but is not
    # normalized at 0 and 1
    cheb, ct = chebyshev_map(3), CombinatorialType(3, 2, 2, 3)
    assert verify_single_cycle(cheb, ct)[0]
    assert families._certified_profile(cheb.f, ct) is None


def test_certificate_refuses_a_common_factor_that_its_wronskian_hides():
    # the map of (d - 1; e0, e1, eInf) with N and D both times x - 1, wrapped
    # with no gcd as the builders wrap theirs, meets every other condition
    # for (d; e0, e1 + 2, eInf): the degrees, x^e0 | N, N(1) = D(1),
    # D(0) != 0, and Yun's decomposition of W, which x - 1 multiplies by
    # (x - 1)^2.  Only D(1) != 0 is left to refuse it
    x, x1, x2x = [0, 1], [-1, 1], [0, -1, 1]
    padded = 0
    for d in range(4, 16):
        for ct in valid_types(d - 1):
            if ct.e1 + 2 > d:
                continue
            up = CombinatorialType(d, ct.e0, ct.e1 + 2, ct.e_inf)
            num, den = (mul(x1, list(u)) for u in single_cycle_map(ct).pair)
            f = RatFunc._of_coprime(num, den)
            assert f.pair == (tuple(num), tuple(den))
            assert len(num) == d + 1 and len(num) - len(den) == up.e_inf
            assert not any(num[:up.e0]) and sum(num) == sum(den) and den[0]
            w = sub(mul(derivative(num), den), mul(num, derivative(den)))
            roots = [(x, up.e0 - 1), (x1, up.e1 - 1)] if up.e0 != up.e1 else [(x2x, up.e0 - 1)]
            assert squarefree_decomposition(Poly(w)) == sorted(roots, key=lambda r: r[1])
            assert families._certified_profile(f, up) is None
            padded += 1
    assert padded == 442


def test_certificate_refuses_a_common_factor_x_that_its_wronskian_shows():
    # the map of (d; e0, e1, eInf) with N and D both times x^j, wrapped with
    # no gcd, meets the degree and value conditions for (d + j; e0 + j,
    # e1 + j, eInf) with D(0) = 0, so only Yun's decomposition of W is left
    # to refuse it: x^j in D puts W's order at 0 at e0 + 2j - 1, past the
    # type's e0 + j - 1
    padded = 0
    for j in (1, 2, 3):
        for d in range(3, 16):
            for ct in valid_types(d):
                up = CombinatorialType(d + j, ct.e0 + j, ct.e1 + j, ct.e_inf)
                num, den = ([0] * j + list(u) for u in single_cycle_map(ct).pair)
                f = RatFunc._of_coprime(num, den)
                assert len(num) == up.d + 1 and len(num) - len(den) == up.e_inf
                assert not any(num[:up.e0]) and sum(num) == sum(den) != 0 and den[0] == 0
                assert families._certified_profile(f, up) is None
                padded += 1
    assert padded == 1911


def _padded_by_x_minus_1():
    """The 442 pairs of the common-factor (x - 1) test, with their types."""
    for d in range(4, 16):
        for ct in valid_types(d - 1):
            if ct.e1 + 2 <= d:
                up = CombinatorialType(d, ct.e0, ct.e1 + 2, ct.e_inf)
                yield [mul([-1, 1], list(u)) for u in single_cycle_map(ct).pair], up


def _padded_by_x_power():
    """The 1,911 pairs of the common-factor x^j test, with their types."""
    for j in (1, 2, 3):
        for d in range(3, 16):
            for ct in valid_types(d):
                up = CombinatorialType(d + j, ct.e0 + j, ct.e1 + j, ct.e_inf)
                yield [[0] * j + list(u) for u in single_cycle_map(ct).pair], up


def test_the_divisibility_form_agrees_with_the_certificate():
    # ROADMAP item 14's form, x^e0 | N and (x - 1)^e1 | N - D with the two
    # degrees, against today's Yun form on the unreduced pair the builders
    # certify: every type to d = 30, then seeded single-coefficient
    # perturbations, wrong-type claims and the two sets of padded pairs,
    # all of which both refuse
    def verdicts(pair, ct):
        f = RatFunc._of_coprime(*pair)
        got = divisibility_certificate(*f.pair, ct)
        assert got == (families._certified_profile(f, ct) is not None)
        return got

    rng = random.Random(1414)
    pairs = {ct: families._single_cycle_ints(ct) for d in range(3, 31) for ct in valid_types(d)}
    assert len(pairs) == 4872
    assert all(verdicts(pair, ct) for ct, pair in pairs.items())
    refused = []
    for ct in rng.sample([ct for ct in pairs if ct.d >= 6], 600):
        pair = [list(u) for u in pairs[ct]]
        side = pair[rng.randrange(2)]
        i, delta = rng.randrange(len(side)), rng.choice([-1, 1]) * rng.randint(1, 5)
        side[i] += delta
        if not side[-1]:  # keep the leading coefficient nonzero
            side[-1] += delta
        refused.append(not verdicts(pair, ct))
    for _ in range(2000):
        ct, other = rng.sample(valid_types(rng.randint(3, 30)), 2)
        refused.append(not verdicts(pairs[ct], other))
    padded = [*_padded_by_x_minus_1(), *_padded_by_x_power()]
    assert len(padded) == 442 + 1911
    refused += [not verdicts(pair, ct) for pair, ct in padded]
    assert all(refused) and len(refused) == 600 + 2000 + 442 + 1911


def test_the_builders_pair_is_the_pair_ratfunc_reduces(monkeypatch):
    # every family member to d = 60: the builders wrap the closed form's
    # pair with no gcd, and get the pair RatFunc reduces from the same
    # integers.  Yun on their Wronskians, whose only roots are 0 and 1,
    # takes no gcd either
    members = [(single_cycle_polynomial, d, k) for d in range(3, 61) for k in range(1, d - 1)]
    members += [(symmetric_single_cycle, d, k) for d in range(3, 61) for k in range(1, (d - 1) // 2 + 1)]
    assert len(members) == 2581
    gcds = []
    int_gcd = exact._int_gcd
    monkeypatch.setattr(exact, "_int_gcd", lambda u, v: gcds.append(1) or int_gcd(u, v))
    maps = [build(d, k) for build, d, k in members]
    assert gcds == []
    for m in maps:
        assert m.f.pair == RatFunc(*families._single_cycle_ints(m.claimed_type)).pair
    assert gcds


def test_symmetric_family_self_reciprocal():
    one = RatFunc((1,))
    for d, k in ((3, 1), (5, 2), (7, 3), (10, 2), (11, 5), (12, 1)):
        m = symmetric_single_cycle(d, k)
        assert product(substitute_reciprocal(m.f), m.f) == one
        assert evaluate(m.f, 1) == ProjectivePoint.of(1)


def test_symmetric_family_domain():
    # e1 = 2k + 1 must stay within the degree
    for d, k in ((4, 2), (5, 3), (3, 2), (6, 0), (2, 1)):
        with pytest.raises(ParameterOutOfRangeError):
            symmetric_single_cycle(d, k)
    assert symmetric_single_cycle(3, 1).claimed_type == CombinatorialType(3, 2, 3, 2)
    assert symmetric_single_cycle(11, 5).claimed_type == CombinatorialType(
        11, 6, 11, 6
    )


def test_symmetric_family_sweep():
    for d in range(3, 13):
        for k in range(1, (d - 1) // 2 + 1):
            m = symmetric_single_cycle(d, k)
            assert m.claimed_type == CombinatorialType(d, d - k, 2 * k + 1, d - k)
            assert m.profile.is_belyi
            assert m.profile.over0 == (d - k,) + (1,) * k
            assert m.profile.over1 == (2 * k + 1,) + (1,) * (d - 2 * k - 1)
            assert m.profile.over_inf == (d - k,) + (1,) * k


def test_verify_single_cycle_diagnostics():
    m = single_cycle_polynomial(5, 2)
    ok, diag = verify_single_cycle(m, CombinatorialType(5, 3, 3, 5))
    assert ok
    assert diag == "single-cycle of type (3, 3, 5)"

    ok, diag = verify_single_cycle(m, CombinatorialType(4, 3, 3, 3))
    assert not ok
    assert diag == "degree mismatch: expected 4, found 5"

    ok, diag = verify_single_cycle(BelyiMap(RatFunc((0, 1, 1))), CombinatorialType(3, 2, 2, 3))
    assert not ok
    assert diag == "not Belyi: total ramification 1 < 2"

    ok, diag = verify_single_cycle(power_map(5), CombinatorialType(5, 5, 2, 4))
    assert not ok
    assert diag == "fiber for e1 has 0 ramification points, need exactly 1"

    ok, diag = verify_single_cycle(chebyshev_map(6), CombinatorialType(6, 2, 5, 6))
    assert not ok
    assert diag == "fiber for e0 has 3 ramification points, need exactly 1"


def test_verify_single_cycle_takes_only_a_map_and_a_type():
    # a tuple is not a claimed type, however its entries look, and a bare
    # rational function is not a map; the message names either in brief,
    # a value nested 100,000 deep among them
    m = single_cycle_polynomial(5, 2)
    cases = [(m, claimed) for claimed in (("a", 3, 5), (3, 3, 5), (3, 3, 4), {"e0": 3, "e1": 3, "eInf": 5})]
    cases += [(m.f, CombinatorialType(5, 3, 3, 5)), (nested_list(100_000), None)]
    for bad_map, claimed in cases:
        with pytest.raises(TypeError) as exc:
            verify_single_cycle(bad_map, claimed)
        assert len(str(exc.value)) < 1000


def test_verify_single_cycle_without_a_claim_checks_only_the_belyi_property():
    assert verify_single_cycle(power_map(5), None) == (True, "Belyi")
    not_belyi = BelyiMap(RatFunc((0, 1, 1)))  # x^2 + x
    assert verify_single_cycle(not_belyi, None) == (False, "not Belyi: total ramification 1 < 2")


def test_belyi_map_json_round_trip():
    m = single_cycle_polynomial(5, 2)
    data = m.to_json()
    assert data["family"] == "single-cycle-poly"
    assert data["d"] == 5
    assert data["k"] == 2
    assert data["params"] == {"a": ["1/5", "-1/2", "1/3"], "c": "30"}
    assert data["type"] == {"d": 5, "e0": 3, "e1": 3, "eInf": 5}
    assert BelyiMap.from_json(data) == m

    s = symmetric_single_cycle(10, 2)
    assert BelyiMap.from_json(s.to_json()) == s
    assert "c" not in s.to_json()["params"]

    with pytest.raises(ValueError):
        BelyiMap.from_json({"family": "custom", "d": 4, "f": {"num": ["0", "1"], "den": ["1"]}})


def test_belyi_map_json_rejects_params_that_do_not_describe_f():
    poly = single_cycle_polynomial(5, 2).to_json()  # c = 30, a = (1/5, -1/2, 1/3)
    sym = symmetric_single_cycle(10, 2).to_json()  # a = (42, 120, 90)
    cases = [
        (poly, {"a": ["1/5", "-1/2", "1/3"], "c": "31"}),
        (poly, {"a": ["1/5", "-1/2", "1/4"], "c": "30"}),
        (poly, {"a": ["1/5", "-1/2"], "c": "30"}),
        (poly, {"a": ["1/5", "-1/2", "1/3"]}),
        (sym, {"a": ["42", "120", "91"]}),
        (sym, {"a": ["42", "120", "90", "1"]}),
        (sym, {"a": ["0", "0", "0"]}),
        (sym, {"a": ["42", "120", "90"], "c": "1"}),
        (dict(sym, family="custom"), sym["params"]),
    ]
    for good, params in cases:
        with pytest.raises(ValueError):
            BelyiMap.from_json(dict(good, params=params))
    for good in (poly, sym):
        assert BelyiMap.from_json(dict(good)).to_json() == good


def test_belyi_map_json_checks_the_stated_degree_before_building():
    # a family map is rebuilt from its stated (family, d, k); a d that the
    # stored f does not have is refused before anything of degree d exists
    poly = single_cycle_polynomial(5, 2).to_json()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="stated degree 1000000 != 5"):
            BelyiMap.from_json(dict(poly, d=10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_belyi_map_misc():
    # a map's family is set by its builder, never by the constructor
    with pytest.raises(TypeError):
        BelyiMap(RatFunc((0, 1)), family="mystery")
    assert power_map(3).factored_form() is None
    m = BelyiMap(RatFunc((0, 0, 1)))
    assert m.family == "custom"
    assert m.profile.is_belyi


def test_profile_json():
    prof = single_cycle_polynomial(5, 2).profile
    assert RamificationProfile(5, (3, 1, 1), (3, 1, 1), (5,)) == prof


def test_belyi_map_is_a_frozen_dataclass_with_a_cached_profile(monkeypatch):
    calls = []
    profile = families.ramification_profile

    def counting(f):
        calls.append(f)
        return profile(f)

    monkeypatch.setattr(families, "ramification_profile", counting)
    # a family member's profile is certified from its type, never factored
    m = single_cycle_polynomial(7, 3)
    assert m.profile is m.profile
    assert calls == []
    assert m.profile == profile(m.f)
    # a custom map factors its fibers once, on the first read
    custom = BelyiMap(m.f)
    assert custom.profile is custom.profile
    assert len(calls) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.k = 2
    with pytest.raises(TypeError):
        BelyiMap(m.f, family="mystery")

    # equality and hash read every field, the builder-set ones included
    rebuilt = single_cycle_polynomial(7, 3)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    fields = {"f": m.f, "family": m.family, "k": m.k, "ct": m.claimed_type, "params": m.params}
    same = families._family_map(**fields)
    assert same == m and hash(same) == hash(m)
    others = {"f": RatFunc((0,) * 7 + (1,)), "family": "symmetric-single-cycle", "k": 2,
              "ct": CombinatorialType(7, 5, 3, 7), "params": None}
    for name, value in others.items():
        assert value != fields[name]
        assert families._family_map(**dict(fields, **{name: value})) != m
    # the same f and type as a custom map: no family, k or params
    custom = BelyiMap(m.f, claimed_type=m.claimed_type)
    assert (custom.family, custom.k, custom.params) == ("custom", None, None)
    assert custom != m
    with pytest.raises(TypeError):
        BelyiMap(m.f, claimed_type=m.claimed_type, k=m.k, params=m.params)


def test_a_custom_map_holds_only_what_its_reader_reads():
    # the constructor takes no family, k or params, by keyword or position
    f = single_cycle_polynomial(7, 3).f
    with pytest.raises(TypeError):
        BelyiMap(f, "custom", 7)
    with pytest.raises(TypeError):
        BelyiMap(f, k=7)
    params = MapParams(None, (Fraction(1),))
    with pytest.raises(TypeError):
        BelyiMap(f, params=params)
    # so every custom map it builds is one the reader reads back
    rng = random.Random(2027)
    for i in range(200):
        den = random_poly(rng) or [1]
        f = RatFunc(random_poly(rng), den)
        types = valid_types(f.degree)
        claimed = rng.choice(types) if types and i % 2 else None
        m = BelyiMap(f, claimed_type=claimed)
        assert BelyiMap.from_json(json.loads(json.dumps(m.to_json()))) == m


def _composite_fibers(cf: CombinatorialType, d_g: int, g_indices) -> tuple:
    # over each branch value, f's ramified point is where g has its
    # ramified point, so the indices multiply there; f's simple points
    # are not branch values of g and pull back simply
    return tuple(
        tuple(sorted([e_f * e_g] + [e_f] * (d_g - e_g) + [1] * ((cf.d - e_f) * d_g),
                     reverse=True))
        for e_f, e_g in zip(cf.indices, g_indices)
    )


def test_composite_single_cycle_maps_have_the_predicted_profile():
    types = [ct for d in range(3, 9) for ct in valid_types(d)]
    rng = random.Random(20261020)
    swapped_checked = 0
    for _ in range(60):
        cf, cg = rng.choice(types), rng.choice(types)
        fg = compose(single_cycle_map(cf), single_cycle_map(cg))
        assert fg.degree == cf.d * cg.d
        prof = ramification_profile(fg)
        assert prof.is_belyi
        assert prof.fibers == _composite_fibers(cf, cg.d, cg.indices)
        if cg.e0 != cg.e1:
            swapped = _composite_fibers(cf, cg.d, (cg.e1, cg.e0, cg.e_inf))
            assert prof.fibers != swapped
            swapped_checked += 1
        num, den = fg.pair
        i = rng.randrange(len(num))
        bumped = [c + (j == i) for j, c in enumerate(num)]
        assert not ramification_profile(RatFunc(bumped, den)).is_belyi
    assert swapped_checked > 0


# x -> 1 - x swaps 0 and 1, and x -> 1/x swaps 0 and inf
ONE_MINUS_X, ONE_OVER_X = RatFunc([1, -1]), RatFunc([1], [0, 1])


def _conjugates_are_the_permuted_maps(f: RatFunc, ct: CombinatorialType, maps: dict) -> bool:
    # 1 - f(1 - x) is the map of (d; e1, e0, eInf), and 1/f(1/x) that of
    # (d; eInf, e1, e0), when f is the map of ct
    d, (e0, e1, e_inf) = ct.d, ct.indices
    swap_0_1 = maps[CombinatorialType(d, e1, e0, e_inf)]
    swap_0_inf = maps[CombinatorialType(d, e_inf, e1, e0)]
    return (compose(ONE_MINUS_X, compose(f, ONE_MINUS_X)) == swap_0_1
            and compose(ONE_OVER_X, compose(f, ONE_OVER_X)) == swap_0_inf)


def test_the_map_of_a_type_is_s3_equivariant():
    # an oracle that shares no code with Yun or the certificate: the
    # normalized map of a type is unique, so the Mobius maps that permute
    # 0, 1 and inf carry it to the map of the permuted type
    types = [ct for d in range(3, 17) for ct in valid_types(d)]
    assert len(types) == 770
    maps = {ct: single_cycle_map(ct) for ct in types}
    for ct in types:
        assert _conjugates_are_the_permuted_maps(maps[ct], ct, maps), ct
    # negative controls on a seeded sample: the map of the type before it
    # in its degree, and a single-coefficient perturbation of f
    rng = random.Random(2021)
    for ct in rng.sample(types, 100):
        ts = valid_types(ct.d)
        assert not _conjugates_are_the_permuted_maps(maps[ts[ts.index(ct) - 1]], ct, maps)
        num, den = maps[ct].pair
        i = rng.randrange(len(num))
        bumped = RatFunc([c + (j == i) for j, c in enumerate(num)], den)
        assert not _conjugates_are_the_permuted_maps(bumped, ct, maps)
