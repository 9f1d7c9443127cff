"""Exact arithmetic: hand-checked values first, then random-trial invariants,
then sympy as an oracle for gcd and squarefree decomposition."""

import io
import math
import random
from fractions import Fraction

import pytest

from belyi import (
    CombinatorialType,
    Poly,
    RatFunc,
    parse_rational,
    poly_gcd,
    poly_text,
    squarefree_decomposition,
)
from belyi.exact import _P, _coprime_mod_p, _divide_out_x_minus_1, _exact_quo, _wronskian
from helpers import (
    INFINITY,
    ProjectivePoint,
    add,
    cleared,
    coprime_mod_p_per_step,
    derivative,
    evaluate,
    mul,
    power,
    product,
    random_poly,
    single_cycle_map,
    split_x_minus_1_by_tail_sums,
    sub,
    substitute_reciprocal,
    trimmed,
)

# x and x - 1 as ascending coefficient lists, for the oracle arithmetic
X, X1 = [0, 1], [-1, 1]


def test_normalization_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()
    assert Poly().degree == -1
    assert Poly((0, 0, 5)).degree == 2


# ---- the oracle arithmetic of tests/helpers.py --------------------------------


def test_product_matches_expanded_form():
    # x^3 * (6x^2 - 15x + 10) = 6x^5 - 15x^4 + 10x^3
    assert mul([0, 0, 0, 1], [10, -15, 6]) == [0, 0, 0, 10, -15, 6]


def test_derivative_on_family_polynomial():
    df = derivative([0, 0, 0, 10, -15, 6])
    assert df == [0, 0, 30, -60, 30]
    # factored form: 30 x^2 (x - 1)^2
    assert df == mul([30], power(X, 2), power(X1, 2))


def test_derivative_rules_random():
    rng = random.Random(101)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert derivative(add(a, b)) == add(derivative(a), derivative(b))
        assert derivative(mul(a, b)) == add(mul(derivative(a), b), mul(a, derivative(b)))


# ---- gcd and Yun on integer Polys -------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(Poly(power(X, 3)), Poly(power(X, 2))) == Poly(power(X, 2))
    assert poly_gcd(Poly((-1, 0, 1)), Poly(power(X1, 2))) == Poly(X1)
    f = [0, 0, 30, -60, 30]
    assert poly_gcd(Poly(f), Poly(derivative(f))) == Poly((0, -1, 1))
    assert poly_gcd(Poly((7,)), Poly((1, 1))) == Poly((1,))
    assert poly_gcd(Poly(), Poly((1, 1))) == Poly((1, 1))
    # the gcd is primitive, with a positive leading coefficient
    assert poly_gcd(Poly(), Poly((2, 4))) == Poly((1, 2))
    assert poly_gcd(Poly((-3, 6)), Poly()) == Poly((-1, 2))
    assert poly_gcd(Poly((3, -6)), Poly((0, 4, -8))) == Poly((-1, 2))


def test_gcd_of_two_zeros_rejected():
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


def test_gcd_scaling_invariance_random():
    rng = random.Random(102)
    for _ in range(60):
        a, b, g = (cleared(random_poly(rng, n)).coeffs for n in (4, 4, 3))
        if not (a and b and g):
            continue
        lhs = poly_gcd(Poly(mul(a, g)), Poly(mul(b, g)))
        # the common factor g must divide the gcd
        assert poly_gcd(lhs, Poly(g)) == poly_gcd(Poly(g), Poly())


def test_exact_quotient_refuses_a_divisor_that_leaves_a_remainder():
    # a remainder met inside the loop, then one left in the low terms
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 1], [0, 2])
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 0, 1], [1, 1])


def test_squarefree_decomposition_of_zero_rejected():
    with pytest.raises(ValueError, match="^zero polynomial "):
        squarefree_decomposition(Poly([0, 0]))


def test_wronskian_strips_trailing_zeros():
    # u'v - uv': x and 1 + x give 1; the second pair's x^3 terms cancel
    assert _wronskian([0, 1], [1, 1]) == [1]
    assert _wronskian([1, 2, 3], [4, 5, 6]) == [3, 12, 3]


def test_squarefree_decomposition_basic():
    p = Poly(mul(power(X, 2), power(X1, 2)))
    assert squarefree_decomposition(p) == [([0, -1, 1], 2)]


def test_squarefree_decomposition_family_fiber():
    # 6x^5 - 15x^4 + 10x^3 - 1 = (x - 1)^3 (6x^2 + 3x + 1)
    p = Poly((-1, 0, 0, 10, -15, 6))
    dec = squarefree_decomposition(p)
    assert dec == [([1, 3, 6], 1), (X1, 3)]
    # independent cross-check: the factors multiply back to p
    assert Poly(mul(power(X1, 3), [1, 3, 6])) == p


def test_squarefree_input_is_its_own_decomposition():
    p = Poly((2, 0, 2))  # 2(x^2 + 1)
    assert squarefree_decomposition(p) == [([1, 0, 1], 1)]
    assert squarefree_decomposition(Poly((5,))) == []


@pytest.mark.parametrize(
    "p, expected",
    [
        ((-1, 0, -1), [([1, 0, 1], 1)]),  # a negative lead
        ((0, 0, -6, 6), [([-1, 1], 1), ([0, 1], 2)]),  # content and sign, split off
        ((Fraction(1, 2), -1, Fraction(1, 2)), [([-1, 1], 2)]),  # Fraction content, cleared
    ],
    ids=["negative", "content", "fraction"],
)
def test_squarefree_factors_are_primitive_with_a_positive_lead(p, expected):
    assert squarefree_decomposition(cleared(p)) == expected


def test_squarefree_reconstruction_random():
    rng = random.Random(103)
    trials = 0
    while trials < 200:
        p = cleared(random_poly(rng, 7))
        if p.degree < 1:
            continue
        trials += 1
        dec = squarefree_decomposition(p)
        prod = [1]
        mults = []
        for f, m in dec:
            prod = mul(prod, power(f, m))
            mults.append(m)
            assert {type(c) for c in f} == {int} and math.gcd(*f) == 1 and f[-1] > 0
            assert poly_gcd(Poly(f), Poly(derivative(f))).degree == 0  # squarefree
        # p = c * prod(f**m) for the integer c = lc(p) / lc(prod)
        c, rem = divmod(p.coeffs[-1], prod[-1])
        assert rem == 0 and Poly(mul([c], prod)) == p
        assert mults == sorted(set(mults))  # strictly increasing
        for i in range(len(dec)):
            for j in range(i + 1, len(dec)):
                assert poly_gcd(Poly(dec[i][0]), Poly(dec[j][0])).degree == 0


def test_ratfunc_reduces_and_normalizes():
    f = RatFunc((0, 2), (0, 0, 4))  # 2x / 4x^2
    assert f.pair == ((1,), (0, 2))
    assert str(f) == "(1/2) / (x)"  # printed with a monic denominator
    g = RatFunc((0, 0, 0, 1))
    assert g.pair == ((0, 0, 0, 1), (1,))
    assert str(g) == "x^3"
    assert g.degree == 3


def _monic_reference(sympy, num: list, den: list) -> tuple[list, list]:
    # num/den cancelled by sympy over QQ, scaled so that the denominator is
    # monic, as ascending Fraction lists with trailing zeros stripped
    def to_sympy(p: list):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
        return sympy.Poly(coeffs or [0], sympy.Symbol("x"), domain=sympy.QQ)

    n, d = to_sympy(num).cancel(to_sympy(den), include=True)

    def back(q) -> list:
        return trimmed([Fraction(int(c.numerator), int(c.denominator))
                        for c in reversed(q.quo_ground(d.LC()).all_coeffs())])

    return back(n), back(d)


def test_ratfunc_matches_a_monic_form_reference():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))
    nonzero = rationals.filter(lambda c: c != 0)
    polys = st.lists(rationals, min_size=0, max_size=4)
    constants = nonzero.map(lambda c: [c])
    shared = st.sampled_from([[1], X, X1, [3, 2], [1, 0, 1]])
    # powers of x on neither side, on one side, or on both
    x_powers = st.sampled_from([(0, 0), (2, 0), (0, 3), (1, 2), (3, 3)])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(
        st.one_of(polys, constants, st.just([])),
        st.one_of(polys, constants),
        shared, nonzero, st.booleans(), x_powers,
    )
    def check(a, b, g, content, negate, powers):
        # num = content * g * x^i * a and den = +-content * g * x^j * b: a
        # shared factor, a shared content, powers of x and, negated, a
        # negative leading coefficient
        hypothesis.assume(any(b))
        i, j = powers
        num = mul([content], g, power(X, i), a)
        den = mul([-content if negate else content], g, power(X, j), b)
        f = RatFunc(num, den)
        ref_num, ref_den = _monic_reference(sympy, num, den)
        # the pair is the reference over lc(D) > 0, with no common content
        lead = f.pair[1][-1]
        assert lead > 0 and math.gcd(*f.pair[0], *f.pair[1]) == 1
        assert [[Fraction(c, lead) for c in u] for u in f.pair] == [ref_num, ref_den]
        ref_str = (poly_text(ref_num) if ref_den == [1]
                   else f"({poly_text(ref_num)}) / ({poly_text(ref_den)})")
        assert str(f) == ref_str
        assert f.to_json() == {"num": [str(c) for c in ref_num],
                               "den": [str(c) for c in ref_den]}
        same = RatFunc(ref_num, ref_den)
        assert f == same and hash(f) == hash(same)
        assert f.degree == max(len(ref_num), len(ref_den)) - 1
        assert f != RatFunc(add(ref_num, ref_den), ref_den)  # f + 1
        # num and den scaled to integers take the constructor's all-int
        # branch, and reduce to the pair of the Fraction lists
        scale = math.lcm(*(c.denominator for c in num + den))
        ints = [[int(c * scale) for c in p] for p in (num, den)]
        assert RatFunc(*ints).pair == f.pair

    check()


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ValueError, match="^zero denominator$"):
        RatFunc(X, [])
    with pytest.raises(ValueError, match="^zero denominator$"):
        RatFunc([Fraction(1, 2)], [0, Fraction(0)])


def test_ratfunc_constructor_fixed_cases():
    # a zero numerator is 0/1, whatever the denominator
    assert RatFunc([], [0, -3, 6]).pair == ((), (1,))
    assert RatFunc([0, 0], [Fraction(1, 2)]).pair == ((), (1,))
    # a negative lc(D) moves to the numerator with the content: -4x / -6x^2 = 2 / 3x
    f = RatFunc([0, -4], [0, 0, -6])
    assert f.pair == ((2,), (0, 3))
    assert f == RatFunc((0, Fraction(2, 3)), (0, 0, 1))
    # (x - 1)(x + 2) / (x - 1)(3 - x), shared factor cancelled, lc(D) made positive
    assert RatFunc([-2, 1, 1], [-3, 4, -1]).pair == ((-2, -1), (-3, 1))
    # trailing zeros are dropped, and a float, bool or string is refused
    assert RatFunc([0, 1, 0], [2, 0]).pair == ((0, 1), (2,))
    for bad in ([0.5], [True], ["1/2"], [1, None]):
        with pytest.raises(ValueError):
            RatFunc(bad)
        with pytest.raises(ValueError):
            RatFunc([1], bad)


def test_ratfunc_arithmetic_random_stays_reduced():
    rng = random.Random(104)
    for _ in range(60):
        n1, d1 = random_poly(rng, 4), random_poly(rng, 4)
        n2, d2 = random_poly(rng, 4), random_poly(rng, 4)
        if not (d1 and d2):
            continue
        f = product(RatFunc(n1, d1), RatFunc(n2, d2))
        num, den = f.pair
        assert den[-1] > 0 and math.gcd(*num, *den) == 1
        if num:
            assert poly_gcd(Poly(num), Poly(den)).degree == 0


def test_evaluate_finite_points():
    f = RatFunc((0, 0, 0, 10, -15, 6))
    assert evaluate(f, 0) == ProjectivePoint.of(0)
    assert evaluate(f, 1) == ProjectivePoint.of(1)
    assert evaluate(f, Fraction(1, 2)) == ProjectivePoint.of(Fraction(1, 2))


def test_evaluate_poles_and_infinity():
    f = RatFunc((1,), X1)  # 1/(x-1)
    assert evaluate(f, 1) == INFINITY
    assert evaluate(f, INFINITY) == ProjectivePoint.of(0)
    g = RatFunc(power(X, 4))
    assert evaluate(g, INFINITY) == INFINITY
    h = RatFunc((1, 0, 2), (0, 0, 1))  # (2x^2+1)/x^2
    assert evaluate(h, INFINITY) == ProjectivePoint.of(2)
    assert evaluate(h, 0) == INFINITY


def test_evaluate_symmetric_worked_example():
    f = RatFunc((0,) * 8 + (90, -120, 42), (42, -120, 90))
    assert evaluate(f, 1) == ProjectivePoint.of(1)


def test_substitute_reciprocal_power():
    f = RatFunc(power(X, 5))
    g = substitute_reciprocal(f)
    assert g == RatFunc((1,), power(X, 5))


def test_substitute_reciprocal_is_involution_random():
    rng = random.Random(105)
    done = 0
    while done < 60:
        n, d = random_poly(rng, 4), random_poly(rng, 4)
        if not d:
            continue
        done += 1
        f = RatFunc(n, d)
        assert substitute_reciprocal(substitute_reciprocal(f)) == f


def test_rational_string_round_trip():
    for s in ("0", "7", "-3", "1/5", "-1/2", "22/7"):
        assert str(parse_rational(s)) == s
    assert str(parse_rational("6/4")) == "3/2"


def test_ratfunc_json_round_trip():
    f = RatFunc((0, 1), (1, 1))
    data = f.to_json()
    assert data == {"num": ["0", "1"], "den": ["1", "1"]}
    assert RatFunc.from_json(data) == f
    # unreduced input is canonicalized on load
    g = RatFunc.from_json({"num": ["0", "2"], "den": ["0", "0", "4"]})
    assert g == RatFunc((0, 2), (0, 0, 4))


def test_poly_str_formatting():
    assert poly_text((0, 0, 0, 10, -15, 6)) == "6x^5 - 15x^4 + 10x^3"
    assert poly_text(()) == "0"
    assert poly_text((Fraction(1, 2), -1)) == "-x + 1/2"
    assert poly_text((0, Fraction(-3, 2), 0, 2)) == "2x^3 - (3/2)x"
    # trailing zeros print as nothing, and a Poly's repr is its text
    assert poly_text([0, 0]) == "0"
    assert poly_text([Fraction(-1), 0, Fraction(5, 1), 0]) == "5x^2 - 1"
    assert repr(Poly((0, 0, 0, 10, -15, 6))) == "Poly('6x^5 - 15x^4 + 10x^3')"


def test_projective_point_str():
    assert str(INFINITY) == "inf"
    assert str(ProjectivePoint.of(Fraction(-1, 2))) == "-1/2"


def test_parse_rational_is_strict():
    assert parse_rational("-12/8") == Fraction(-3, 2)
    for bad in ("1/0", "0/0", "1.5", " 1", "1/-2", "+1", "1/2/3", "", "0x10", "١"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    for bad in (1, 1.5, None, ["1"]):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_poly_and_ratfunc_from_json_reject_malformed_input():
    # each bad coefficient list, once as num and once as den
    for bad in ("123", ("1", "2"), {"0": "1"}, ["1", 2], None):
        for data in ({"num": bad, "den": ["1"]}, {"num": ["1"], "den": bad}):
            with pytest.raises(ValueError):
                RatFunc.from_json(data)
    for bad in ({"num": ["1"], "den": ["0"]}, {"num": ["1"]}, ["1"], None):
        with pytest.raises(ValueError):
            RatFunc.from_json(bad)


def test_poly_takes_only_exact_coefficients():
    # a Poly is Yun's integer input: a Fraction is refused like a float,
    # even one that equals an int
    for bad in ([0.1], [1, True], [False], [1, Fraction(1, 2), 0.5], ["0.5"], ["-3/4"], ["1e3"],
                [None], [1, Fraction(1, 2), Fraction(-3, 4)], [1, 2, Fraction(1, 3)],
                [Fraction(2), 4], [Fraction(1, 2), 3, 0], [0, Fraction(0)]):
        with pytest.raises(ValueError, match="not an int"):
            Poly(bad)
    p = Poly([1, 2, -3, 0])
    assert p.coeffs == (1, 2, -3)
    assert {type(c) for c in p.coeffs} == {int}


def test_evaluate_rejects_an_unreduced_function():
    f = RatFunc((1,), X1)
    # bypass the reduction the constructor performs: (x - 1) / (x - 1)
    f.pair = ((-1, 1), (-1, 1))
    assert str(f) == "(x - 1) / (x - 1)"
    with pytest.raises(ArithmeticError):
        evaluate(f, 1)


# ---- oracles for the integer gcd and Yun -------------------------------------


def test_gcd_falls_through_when_the_prime_divides_a_leading_coefficient():
    from belyi.exact import _P

    a = mul([1, _P], [-2, 1])  # lead _P: the modular test does not apply
    assert poly_gcd(Poly(a), Poly(mul([-2, 1], [3, 1]))) == Poly((-2, 1))
    assert poly_gcd(Poly((1, _P)), Poly((1, 1))) == Poly((1,))
    # modulo _P the shared factor _P x - 1 would vanish to a constant
    shared = [-1, _P]
    assert poly_gcd(Poly(mul(shared, [1, 1])), Poly(mul(shared, [2, 1]))) == Poly(shared)
    assert squarefree_decomposition(Poly(mul(a, [-2, 1]))) == [([1, _P], 1), ([-2, 1], 2)]


def test_gcd_falls_through_when_coprime_inputs_share_a_factor_mod_p():
    from belyi.exact import _P

    # x and x - _P are the same modulo _P but coprime over the rationals
    xp = [-_P, 1]
    assert poly_gcd(Poly(X), Poly(xp)) == Poly((1,))
    assert poly_gcd(Poly(mul(X, X1)), Poly(mul(xp, X1))) == Poly(X1)
    assert squarefree_decomposition(Poly(mul(X, power(xp, 2)))) == [(X, 1), (xp, 2)]


def test_the_modular_exit_decides_every_shipped_map(monkeypatch):
    # an unlucky prime would send a gcd on to the PRS, which starts with _prem
    import belyi.exact
    from belyi import single_cycle_polynomial, symmetric_single_cycle, write_catalog

    calls = []
    prem = belyi.exact._prem
    monkeypatch.setattr(belyi.exact, "_prem", lambda u, v: calls.append(1) or prem(u, v))
    # x + 1 and x + 1 - _P agree modulo _P, and their constant terms are
    # nonzero, so no power of x comes off first
    assert poly_gcd(Poly((1, 1)), Poly((1 - belyi.exact._P, 1))) == Poly((1,))  # the counter counts
    assert calls
    calls.clear()

    counts = write_catalog(30, io.StringIO())
    assert sum(counts.values()) == 4872
    rng = random.Random(1431)
    for _ in range(30):
        d = rng.randint(31, 100)
        assert single_cycle_polynomial(d, rng.randint(1, d - 2)).profile.is_belyi
        assert symmetric_single_cycle(d, rng.randint(1, (d - 1) // 2)).profile.is_belyi
    assert calls == []


def _to_sympy(sympy, p: Poly):
    return sympy.Poly.from_list(list(reversed(p.coeffs)), sympy.Symbol("x"), domain=sympy.ZZ)


def _primitive_from_sympy(q) -> list[int]:
    cs = [int(c) for c in reversed(q.all_coeffs())]
    g = math.gcd(*cs) if cs[-1] > 0 else -math.gcd(*cs)
    return [c // g for c in cs]


def _sympy_sqf(sympy, p: Poly) -> list[tuple[list[int], int]]:
    # sympy's factors, in this package's form: primitive integer lists with
    # a positive lead, by increasing multiplicity
    _, factors = _to_sympy(sympy, p).sqf_list()
    return sorted(((_primitive_from_sympy(f), m) for f, m in factors), key=lambda fm: fm[1])


def _assert_matches_sympy(sympy, p: Poly, q: Poly) -> None:
    dec = squarefree_decomposition(p)
    assert dec == _sympy_sqf(sympy, p)
    assert [m for _, m in dec] == sorted({m for _, m in dec})
    assert all(len(f) > 1 and {type(c) for c in f} == {int} for f, _ in dec)
    g = sympy.gcd(_to_sympy(sympy, p), _to_sympy(sympy, q))
    assert poly_gcd(p, q) == Poly(_primitive_from_sympy(g))


def test_squarefree_and_gcd_match_sympy_on_generated_polynomials():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    small = st.lists(rationals, min_size=1, max_size=4)
    leads = rationals.filter(lambda c: c != 0)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(
        small, small, small, st.integers(0, 12), st.sampled_from([X, X1]), leads
    )
    def check(a, b, c, m, root, lead):
        # lead * root^m * a * b^2, root being x or x - 1, against a * c * root
        p = cleared(mul([lead], power(root, m), a, power(b, 2)))
        q = cleared(mul(a, c, root))
        hypothesis.assume(p.coeffs and q.coeffs)
        _assert_matches_sympy(sympy, p, q)

    check()


def test_squarefree_and_gcd_match_sympy_on_every_family_fiber():
    sympy = pytest.importorskip("sympy")
    from belyi import single_cycle_polynomial, symmetric_single_cycle

    for d in range(3, 41):
        maps = [single_cycle_polynomial(d, k) for k in range(1, d - 1)]
        maps += [symmetric_single_cycle(d, k) for k in range(1, (d - 1) // 2 + 1)]
        for m in maps:
            num, den = (list(u) for u in m.f.pair)
            # the map's own num and den are coprime; the unreduced pair is not
            assert poly_gcd(Poly(num), Poly(den)) == Poly((1,))
            for fiber in (num, sub(num, den), den):
                if len(fiber) > 1:
                    _assert_matches_sympy(sympy, Poly(fiber), Poly(derivative(fiber)))


# ---- the (x - 1)^m split ahead of Yun -----------------------------------------

HALF = Fraction(1, 2)
# R's roots -1, 2 and 1/2 sit near 0 and 1 but are neither: R is not split
R_NEAR = mul([1, 1], power([-2, 1], 2), power([-HALF, 1], 3))


@pytest.mark.parametrize(
    "p, expected",
    [
        # a = b: x and x - 1 share one factor
        (mul(power(X, 2), power(X1, 2), [3, 1]), [([3, 1], 1), (mul(X, X1), 2)]),
        # b equals the multiplicity of a factor of R
        (mul(X, power(X1, 2), power([1, 1], 2)), [(X, 1), (mul(X1, [1, 1]), 2)]),
        (
            mul(power(X, 3), X1, R_NEAR),
            [(mul(X1, [1, 1]), 1), ([-2, 1], 2), (mul(X, [-1, 2]), 3)],
        ),
        # Fraction coefficients and a non-monic lead
        (
            mul([Fraction(-7, 3)], X, power(X1, 4), [Fraction(-2, 5), 1]),
            [(mul(X, [-2, 5]), 1), (X1, 4)],
        ),
        # a pure power of x - 1, leaving nothing for Yun
        (power(X1, 6), [(X1, 6)]),
        (mul([Fraction(5, 2)], X1), [(X1, 1)]),
        # thirty divisions by x - 1, then one linear factor for Yun
        (mul(power(X, 5), power(X1, 30), [-3, 2]), [([-3, 2], 1), (X, 5), (X1, 30)]),
    ],
    ids=["a-equals-b", "b-shared", "roots-near-0-and-1", "fractions", "pure", "linear",
         "high-powers"],
)
def test_squarefree_splits_off_x_minus_1(p, expected):
    p = cleared(p)
    assert squarefree_decomposition(p) == expected
    sympy = pytest.importorskip("sympy")
    assert squarefree_decomposition(p) == _sympy_sqf(sympy, p)


def test_squarefree_with_x_and_x_minus_1_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    small = st.lists(rationals, min_size=1, max_size=3)
    near = st.sampled_from([[1, 1], [-2, 1], [-1, 2]])
    exponents = st.integers(0, 5)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(
        exponents, exponents, small, exponents, near, exponents,
        rationals.filter(lambda c: c != 0),
    )
    def check(a, b, r, j, s, k, lead):
        # lead * x^a * (x - 1)^b * r^j * s^k, s a root at -1, 2 or 1/2
        p = cleared(mul([lead], power(X, a), power(X1, b), power(r, j), power(s, k)))
        hypothesis.assume(p.coeffs)
        dec = squarefree_decomposition(p)
        assert dec == _sympy_sqf(sympy, p)
        assert [m for _, m in dec] == sorted({m for _, m in dec})

    check()


# ---- the one-pass kernels against their earlier forms --------------------------


def _split_one_pass(u: list[int]) -> tuple[list[int], int]:
    # _divide_out_x_minus_1 on an ascending list, for the tail-sum oracle
    q, m = _divide_out_x_minus_1(u[::-1])
    return q[::-1], m


@pytest.mark.parametrize(
    "u, expected",
    [
        (power(X1, 60), ([1], 60)),
        # x^5 (x - 1)^30 (2x - 3) once x^5 is off, as Yun splits it
        (mul(power(X1, 30), [-3, 2]), ([-3, 2], 30)),
        # g(1) = 3: nothing to divide
        ([1, 1, 1], ([1, 1, 1], 0)),
        ([7], ([7], 0)),
    ],
    ids=["(x-1)^60", "(x-1)^30(2x-3)", "g(1)-nonzero", "constant"],
)
def test_one_pass_x_minus_1_split_fixed_cases(u, expected):
    assert _split_one_pass(u) == split_x_minus_1_by_tail_sums(u) == expected


def test_one_pass_x_minus_1_split_on_every_family_wronskian():
    # each member to d = 100, poly then symmetric: its Wronskian is
    # c x^(e0-1) (x-1)^(e1-1), so both splits leave a constant
    members = 0
    for d in range(3, 101):
        types = [(d - k, k + 1, d) for k in range(1, d - 1)]
        types += [(d - k, 2 * k + 1, d - k) for k in range(1, (d - 1) // 2 + 1)]
        for e0, e1, e_inf in types:
            num, den = single_cycle_map(CombinatorialType(d, e0, e1, e_inf)).pair
            w = _wronskian(num, den)[e0 - 1:]
            got = _split_one_pass(w)
            assert got == split_x_minus_1_by_tail_sums(w)
            assert len(got[0]) == 1 and got[1] == e1 - 1
            members += 1
    assert members == 7301


def _random_int_poly(rng: random.Random, degree: int, bits: int) -> list[int]:
    out = [rng.randint(-(1 << bits), 1 << bits) for _ in range(degree)]
    return out + [rng.choice([-1, 1]) * rng.randint(1, 1 << bits)]


def test_fused_mod_p_euclid_matches_the_per_step_form():
    # random pairs at every degree gap, with small and multi-digit entries,
    # plus the three ways the modular test says "not proven": a shared
    # factor, _P dividing a leading coefficient, and factors that differ by
    # a multiple of _P and so agree modulo _P
    rng = random.Random(3001)
    verdicts = {True: 0, False: 0}
    for trial in range(1500):
        bits = rng.choice([3, 20, 40, 90])
        u = _random_int_poly(rng, rng.randint(0, 24), bits)
        v = _random_int_poly(rng, rng.randint(0, 24), bits)
        kind = trial % 4
        if kind == 1:
            g = _random_int_poly(rng, rng.randint(1, 4), bits)
            u, v = mul(g, u), mul(g, v)
        elif kind == 2:
            u = u[:-1] + [u[-1] * _P]
        elif kind == 3:
            c = rng.randint(-50, 50)
            u, v = mul([c - _P, 1], u), mul([c, 1], v)
        got = _coprime_mod_p(u, v)
        assert got == coprime_mod_p_per_step(u, v), (u, v)
        assert got == _coprime_mod_p(v, u)
        if kind:
            assert not got
        verdicts[got] += 1
    assert verdicts[True] > 300 and verdicts[False] > 1000
