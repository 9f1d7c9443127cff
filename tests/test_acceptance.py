"""End-to-end acceptance gate.

Ten criteria, each printed as one [PASS]/[FAIL] line with its wall time.
The lines bypass pytest's capture so they always show in the run output.
Criteria 1-8 carry a time budget and fail if they exceed it.
"""

import hashlib
import io
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from belyi import (
    CombinatorialType,
    ParameterOutOfRangeError,
    Permutation,
    Poly,
    RatFunc,
    canonical_single_cycle,
    chebyshev_gensys,
    chebyshev_map,
    dessin_from_gensys,
    gensys_from_dessin,
    single_cycle_polynomial,
    symmetric_single_cycle,
    valid_types,
    verify_single_cycle,
    write_catalog,
)
from belyi.cli import main
from helpers import (
    ProjectivePoint,
    derivative,
    evaluate,
    mul,
    power,
    product,
    random_gensys,
    random_single_cycle_pair,
    sub,
    substitute_reciprocal,
)

POLY_5_2_TEXT = """\
family: single-cycle polynomial
degree: 5 (k = 2)
type: (3, 3, 5)
c = 30
a = (1/5, -1/2, 1/3)
f = 6x^5 - 15x^4 + 10x^3
  = x^3 * (6x^2 - 15x + 10)
profile over 0: [3, 1, 1]
profile over 1: [3, 1, 1]
profile over inf: [5]
belyi: yes
sigma0   = (1)(2)(3 5 4)
sigma1   = (1 2 3)(4)(5)
sigmaInf = (1 4 5 3 2)
shape: 2 white leaves, 2 black leaves, 1 parallel edges
genus: 0
diameter: 4
"""


def _emit(capsys, label: str, elapsed: float, ok: bool) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)")


@contextmanager
def criterion(capsys, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(capsys, label, time.perf_counter() - start, ok=False)
        raise
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed <= budget
    _emit(capsys, label, elapsed, ok=within)
    if not within:
        pytest.fail(f"{label}: took {elapsed:.2f}s, budget {budget:.0f}s")


def test_criterion_01_polynomial_worked_example(capsys):
    label = "criterion 1: polynomial family (5, 2) matches its closed form"
    with criterion(capsys, label, budget=1.0):
        m = single_cycle_polynomial(5, 2)
        assert m.params is not None
        assert m.params.c == 30
        assert m.params.a == (Fraction(1, 5), Fraction(-1, 2), Fraction(1, 3))
        assert m.f.pair == ((0, 0, 0, 10, -15, 6), (1,))
        f, x, x1 = list(m.f.pair[0]), [0, 1], [-1, 1]
        # the 1-fiber factors as (x - 1)^3 (6x^2 + 3x + 1)
        assert Poly(sub(f, [1])) == Poly(mul(power(x1, 3), [1, 3, 6]))
        # the derivative vanishes only at 0 and 1
        assert Poly(derivative(f)) == Poly(mul([30], power(x, 2), power(x1, 2)))
        assert m.profile.fibers == ((3, 1, 1), (3, 1, 1), (5,))
        assert m.claimed_type == CombinatorialType(5, 3, 3, 5)
        ok, diag = verify_single_cycle(m, m.claimed_type)
        assert ok and diag == "single-cycle of type (3, 3, 5)"
        assert main(["construct", "poly", "--d", "5", "--k", "2"]) == 0
        assert capsys.readouterr().out == POLY_5_2_TEXT


def test_criterion_02_symmetric_worked_example(capsys):
    label = "criterion 2: symmetric family (10, 2) matches its closed form"
    with criterion(capsys, label, budget=1.0):
        m = symmetric_single_cycle(10, 2)
        assert m.to_json()["params"] == {"a": ["42", "120", "90"]}
        assert m.factored_form() == (
            "x^8 * (42x^2 - 120x + 90) / (90x^2 - 120x + 42)"
        )
        assert m.claimed_type == CombinatorialType(10, 8, 5, 8)
        assert product(m.f, substitute_reciprocal(m.f)) == RatFunc((1,))
        assert evaluate(m.f, 1) == ProjectivePoint.of(1)
        assert m.profile.fibers == ((8, 1, 1), (5, 1, 1, 1, 1, 1), (8, 1, 1))
        gs = canonical_single_cycle(m.claimed_type)
        assert gs.sigma_inf == Permutation.from_cycles(
            10, [(1, 6, 7, 8, 9, 10, 3, 2)]
        )
        ok, _ = verify_single_cycle(m, m.claimed_type)
        assert ok


def test_criterion_03_family_sweeps(capsys):
    label = "criterion 3: full family sweeps to degree 20 (171 + 90 maps)"
    with criterion(capsys, label, budget=60.0):
        zero = ProjectivePoint.of(0)
        one_pt = ProjectivePoint.of(1)
        one = RatFunc((1,))
        n_poly = 0
        for d in range(3, 21):
            for k in range(1, d - 1):
                m = single_cycle_polynomial(d, k)
                assert evaluate(m.f, 0) == zero
                assert evaluate(m.f, 1) == one_pt
                ok, diag = verify_single_cycle(
                    m, CombinatorialType(d, d - k, k + 1, d)
                )
                assert ok, diag
                n_poly += 1
        assert n_poly == 171

        n_sym = 0
        for d in range(3, 21):
            for k in range(1, (d - 1) // 2 + 1):
                m = symmetric_single_cycle(d, k)
                assert product(m.f, substitute_reciprocal(m.f)) == one
                ok, diag = verify_single_cycle(
                    m, CombinatorialType(d, d - k, 2 * k + 1, d - k)
                )
                assert ok, diag
                n_sym += 1
        assert n_sym == 90

        # first parameter outside each domain is refused
        for d in (4, 9, 20):
            with pytest.raises(ParameterOutOfRangeError):
                single_cycle_polynomial(d, d - 1)
            with pytest.raises(ParameterOutOfRangeError):
                symmetric_single_cycle(d, (d - 1) // 2 + 1)


def test_criterion_04_shape_census(capsys):
    label = "criterion 4: two-hub shape census to degree 30 (4872 types)"
    with criterion(capsys, label, budget=10.0):
        total = 0
        for d in range(3, 31):
            for ct in valid_types(d):
                gs = canonical_single_cycle(ct)
                assert gs.genus() == 0
                ds = dessin_from_gensys(gs)
                assert ds.d == d  # d edges
                shape = ds.shape()
                assert shape is not None
                got = (shape.white_leaves, shape.black_leaves, shape.parallel_edges)
                assert got == (d - ct.e1, d - ct.e0, ct.e0 + ct.e1 - d)
                total += 1
        assert total == 4872


def test_criterion_05_diameter_bound(capsys):
    label = "criterion 5: vertex diameter <= 4 (canonical + 1000 random)"
    with criterion(capsys, label, budget=10.0):
        for d in range(3, 31):
            for ct in valid_types(d):
                ds = dessin_from_gensys(canonical_single_cycle(ct))
                assert ds.diameter_vertices() <= 4
        rng = random.Random(20260816)
        higher_genus = 0
        for _ in range(1000):
            gs = random_single_cycle_pair(rng)
            assert dessin_from_gensys(gs).diameter_vertices() <= 4
            if gs.genus() > 0:
                higher_genus += 1
        # the bound is local to the two branched vertices, not genus-driven
        assert higher_genus > 0


def test_criterion_06_round_trip(capsys):
    label = "criterion 6: triple/dessin round trips (1000 random + canonical)"
    with criterion(capsys, label, budget=10.0):
        rng = random.Random(606)
        for _ in range(1000):
            gs = random_gensys(rng, dmin=3, dmax=10)
            ds = dessin_from_gensys(gs)
            back = gensys_from_dessin(ds)
            assert back == gs
            assert dessin_from_gensys(back) == ds
        for d in range(3, 21):
            for ct in valid_types(d):
                gs = canonical_single_cycle(ct)
                assert gensys_from_dessin(dessin_from_gensys(gs)) == gs


def test_criterion_07_chebyshev_coherence(capsys):
    label = "criterion 7: chebyshev map/triple coherence to degree 12"
    with criterion(capsys, label, budget=5.0):
        for d in range(3, 13):
            m = chebyshev_map(d)
            gs = chebyshev_gensys(d)
            prof = m.profile
            assert prof.is_belyi
            assert prof.over_inf == (d,)
            assert gs.sigma_inf.cycle_type() == (d,)
            # each fiber is the cycle type of its sigma, over 0, 1 and inf
            assert prof.fibers == tuple(s.cycle_type() for s in gs.triple)
            assert dessin_from_gensys(gs).diameter_vertices() == d + 1


def test_criterion_08_enumeration(capsys):
    label = "criterion 8: enumeration counts to degree 30"
    with criterion(capsys, label, budget=10.0):
        assert len(valid_types(5)) == 12
        expected: dict[int, int] = {}
        for d in range(3, 31):
            n = 0
            for e0 in range(2, d + 1):
                for e1 in range(2, d + 1):
                    if 2 <= 2 * d + 1 - e0 - e1 <= d:
                        n += 1
            assert n == (d + 3) * (d - 2) // 2
            expected[d] = n
        buf = io.StringIO()
        counts = write_catalog(30, buf)
        assert counts == expected
        assert sum(counts.values()) == 4872
        assert len(buf.getvalue().splitlines()) == 4872
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "0947dabc5bf8c90da595ded403ec7864d5856462de020127d4a16f288084e158"
        )


def test_criterion_09_negative_controls(capsys, tmp_path):
    label = "criterion 9: negative controls exit with the right codes"
    with criterion(capsys, label):
        bad = tmp_path / "notbelyi.json"
        bad.write_text('{"family":"custom","f":{"num":["0","1","1"],"den":["1"]}}')
        assert main(["verify", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "belyi: no" in out
        assert "verdict: FAIL - not Belyi: total ramification 1 < 2" in out

        good = tmp_path / "good.json"
        good.write_text(json.dumps(single_cycle_polynomial(5, 2).to_json()))
        assert main(["verify", str(good), "--type", "3,3,3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL - degree mismatch: expected 4, found 5" in out
        assert main(["verify", str(good), "--type", "3,3,4"]) == 2  # no such type
        assert "which is even: no integer degree fits" in capsys.readouterr().err

        broken = tmp_path / "broken.json"
        broken.write_text('{"family": "custom", "f": {')
        assert main(["verify", str(broken)]) == 2
        assert "parse error" in capsys.readouterr().err

        assert main(["dessin", "2,2,2"]) == 2
        assert "no integer degree fits" in capsys.readouterr().err


def test_criterion_10_determinism(capsys, tmp_path):
    label = "criterion 10: repeated runs are byte-identical"
    with criterion(capsys, label):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["enumerate", "--dmax", "15", "--out", str(a)]) == 0
        first_stdout = capsys.readouterr().out
        assert main(["enumerate", "--dmax", "15", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "5f3c78eca0922fcf4b21f8508d9a22ee0796e990164950c28eb8a334d399212e"
        )
        assert len(a.read_text().splitlines()) == 637
        assert "d=15: 117 types" in first_stdout

        outs = []
        for _ in range(2):
            assert main(
                ["construct", "symmetric", "--d", "11", "--k", "3",
                 "--format", "json"]
            ) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

        for _ in range(2):
            assert main(["dessin", "8,5,8"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[2] == outs[3]
