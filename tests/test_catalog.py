"""Catalog records: cross-checked bundles and the JSONL writer."""

import copy
import dataclasses
import io
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

import belyi
from belyi import (
    BelyiMap,
    CombinatorialType,
    GeneratingSystem,
    ParameterOutOfRangeError,
    Permutation,
    RatFunc,
    TriptychRecord,
    VerificationError,
    canonical_single_cycle,
    chebyshev_gensys,
    chebyshev_map,
    dessin_from_gensys,
    family_map_for_type,
    iter_catalog,
    make_gensys,
    power_gensys,
    single_cycle_polynomial,
    valid_types,
    write_catalog,
)
from belyi.catalog import compact_json
from belyi.families import FAMILIES, MapParams
from helpers import (
    MAP_LABELS,
    conjugate,
    json_paths,
    nested_list,
    single_cycle_map,
    stored_field_oracle,
)


def test_family_map_for_type_polynomial_side():
    m = family_map_for_type(CombinatorialType(5, 3, 3, 5))
    assert m is not None
    assert m.family == "single-cycle-poly"
    assert m.k == 2


def test_family_map_for_type_symmetric_side():
    m = family_map_for_type(CombinatorialType(10, 8, 5, 8))
    assert m is not None
    assert m.family == "symmetric-single-cycle"
    assert m.k == 2


def test_family_map_for_type_uncovered():
    assert family_map_for_type(CombinatorialType(5, 3, 4, 4)) is None
    assert family_map_for_type(CombinatorialType(5, 4, 4, 3)) is None


def test_family_coverage_census():
    # per degree: the polynomial family covers the d - 2 types with
    # eInf = d, the symmetric family the floor((d-1)/2) types with
    # e0 = eInf; the two conditions never meet on a valid type
    poly_total = sym_total = 0
    for d in range(3, 21):
        n_poly = n_sym = 0
        for ct in valid_types(d):
            assert not (ct.e_inf == ct.d and ct.e0 == ct.e_inf)
            m = family_map_for_type(ct)
            if ct.e_inf == ct.d:
                assert m is not None and m.family == "single-cycle-poly"
                n_poly += 1
            elif ct.e0 == ct.e_inf:
                assert m is not None and m.family == "symmetric-single-cycle"
                n_sym += 1
            else:
                assert m is None
        assert n_poly == d - 2
        assert n_sym == (d - 1) // 2
        poly_total += n_poly
        sym_total += n_sym
    assert poly_total == 171
    assert sym_total == 90


def test_record_for_type():
    rec = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5))
    rec.validate()
    assert rec.genus == 0
    assert rec.diameter == 4
    assert rec.shape is not None
    assert (rec.shape.white_leaves, rec.shape.black_leaves) == (2, 2)
    assert rec.is_belyi is True
    assert rec.bmap is not None and rec.bmap.family == "single-cycle-poly"
    assert rec.dessin.gensys is rec.gensys  # one triple per record


def test_record_for_family():
    poly = TriptychRecord.for_family("poly", 5, 2)
    assert poly.ctype == CombinatorialType(5, 3, 3, 5)

    symmetric = TriptychRecord.for_family("symmetric", 10, 2)
    assert symmetric.ctype == CombinatorialType(10, 8, 5, 8)

    power = TriptychRecord.for_family("power", 7)
    assert power.ctype is None
    assert (power.shape, power.diameter) == (None, 3)  # a star

    chebyshev = TriptychRecord.for_family("chebyshev", 6)
    assert (chebyshev.shape, chebyshev.diameter) == (None, 7)  # a path

    for rec in (poly, symmetric, power, chebyshev):
        rec.validate()
        data = json.loads(json.dumps(rec.to_json()))
        back = TriptychRecord.from_json(data)
        back.validate()
        assert back.to_json() == data

    for name in ("mystery", "x" * 1_000_000):
        with pytest.raises(ValueError, match="^unknown family ") as exc:
            TriptychRecord.for_family(name, 5)
        assert len(str(exc.value)) < 1000


@pytest.mark.parametrize(
    "family, k",
    [("poly", None), ("symmetric", None), ("power", 3), ("chebyshev", 1)],
)
def test_record_for_family_takes_k_exactly_when_the_family_does(family, k):
    # no silent default for a missing k, and no k ignored
    with pytest.raises(ParameterOutOfRangeError, match="parameter k"):
        TriptychRecord.for_family(family, 7, k)


# family -> (d -> its valid k, or [None]; (d, k) -> the member's triple)
FAMILY_MEMBERS = {
    "poly": (lambda d: range(1, d - 1),
             lambda d, k: canonical_single_cycle(CombinatorialType(d, d - k, k + 1, d))),
    "symmetric": (lambda d: range(1, (d - 1) // 2 + 1),
                  lambda d, k: canonical_single_cycle(
                      CombinatorialType(d, d - k, 2 * k + 1, d - k))),
    "power": (lambda d: [None], lambda d, k: power_gensys(d)),
    "chebyshev": (lambda d: [None], lambda d, k: chebyshev_gensys(d)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_record_validates_and_round_trips(family):
    # each row's triple column, for every member with 3 <= d <= 12
    ks, triple = FAMILY_MEMBERS[family]
    for d in range(3, 13):
        for k in ks(d):
            rec = TriptychRecord.for_family(family, d, k)
            assert (rec.bmap.degree, rec.bmap.k) == (d, k)
            assert rec.gensys == triple(d, k)
            assert rec.bmap.claimed_type in (None, rec.ctype)
            rec.validate()
            data = json.loads(json.dumps(rec.to_json()))
            back = TriptychRecord.from_json(data)
            back.validate()
            assert back.to_json() == data


def test_validate_rejects_the_swapped_chebyshev_triple():
    # sorted, these fibers and cycle types agree, but over 0 the map has
    # three double points and the swapped sigma0 two transpositions
    gs = chebyshev_gensys(6)
    swapped = make_gensys(gs.sigma1, gs.sigma0)
    with pytest.raises(VerificationError, match="cycle types"):
        TriptychRecord(swapped, chebyshev_map(6)).validate()


def test_validate_rejects_a_map_that_is_not_belyi():
    # x^3 - 3x has a critical value at -2, so no triple is its monodromy
    not_belyi = BelyiMap(RatFunc((0, -3, 0, 1)))
    assert not not_belyi.profile.is_belyi
    with pytest.raises(VerificationError, match="cycle types"):
        TriptychRecord(power_gensys(3), not_belyi).validate()


def test_record_invariants_are_frozen():
    rec = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5))
    for name, value in (("genus", 1), ("diameter", 9), ("shape", None), ("is_belyi", False)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, value)
    assert (rec.genus, rec.diameter, rec.is_belyi) == (0, 4, True)


def test_validate_catches_wrong_type():
    # the type is derived from the triple, so a wrong one can only be stored
    data = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    data["type"] = CombinatorialType(5, 4, 4, 3).to_json()
    with pytest.raises(ValueError, match="stored type"):
        TriptychRecord.from_json(data)


def test_validate_catches_map_type_mismatch():
    good = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5))
    wrong_map = single_cycle_polynomial(5, 1)  # type (4, 2, 5)
    # the same map with no claimed type is a record, and its profile is
    # not the triple's cycle types
    rec = TriptychRecord(good.gensys, BelyiMap(wrong_map.f))
    with pytest.raises(VerificationError):
        rec.validate()
    # the family member claims its type, so the record is never built
    with pytest.raises(ValueError, match=r"^map type \(4, 2, 5\) differs from record type \(3, 3, 5\)$"):
        TriptychRecord(good.gensys, wrong_map)


def test_record_json_round_trip():
    rec = TriptychRecord.for_type(CombinatorialType(10, 8, 5, 8))
    data = rec.to_json()
    assert set(data) == {"type", "map", "gensys", "dessin", "invariants"}
    assert data["invariants"]["genus"] == 0
    assert data["invariants"]["diameter"] == 4
    assert data["invariants"]["isBelyi"] is True
    assert data["invariants"]["shape"]["parallelEdges"] == 3
    back = TriptychRecord.from_json(data)
    assert back.gensys == rec.gensys
    assert back.dessin == rec.dessin
    assert back.ctype == rec.ctype
    assert back.bmap == rec.bmap


def _read_back(obj):
    return type(obj).from_json(json.loads(json.dumps(obj.to_json())))


def test_everything_the_constructors_build_reads_back():
    # the readers refuse only what no constructor builds: every family
    # member with d <= 12 and its record, and records that pair a canonical
    # triple with a custom map that claims the triple's type or no type
    members = 0
    for name, fam in FAMILIES.items():
        for d in range(1, 13):
            for k in range(1, d) if fam.takes_k else (None,):
                try:
                    rec = TriptychRecord.for_family(name, d, k)
                except ParameterOutOfRangeError:
                    continue
                assert _read_back(rec.bmap) == rec.bmap
                assert _read_back(rec) == rec
                members += 1
    assert members == 55 + 30 + 12 + 10  # poly, symmetric, power, chebyshev
    records = 0
    for ct in (ct for d in range(3, 9) for ct in valid_types(d)):
        gs = canonical_single_cycle(ct)
        f = single_cycle_map(ct)
        num, den = f.pair
        bumped = RatFunc([c + (i == ct.e1 % len(num)) for i, c in enumerate(num)], den)
        for g in (f, bumped):
            for claimed in (ct, None):
                rec = TriptychRecord(gs, BelyiMap(g, claimed_type=claimed))
                assert _read_back(rec.bmap) == rec.bmap
                assert _read_back(rec) == rec
                assert rec.is_belyi == (g is f)
                records += 1
    assert records == 4 * 98


def test_the_constructors_refuse_what_the_readers_refuse():
    # a map's family, k and params are set only by the family builders
    f = RatFunc([1, 0, 0, 1])
    for keyword in ({"family": "power"}, {"k": 3}, {"params": MapParams(None, (Fraction(1),))}):
        with pytest.raises(TypeError):
            BelyiMap(f, **keyword)
    with pytest.raises(TypeError):
        BelyiMap(f, CombinatorialType(3, 2, 2, 3))
    # a record refuses a map that claims another type when it is built,
    # with the reader's words
    ct = CombinatorialType(5, 3, 3, 5)
    claims_another = BelyiMap(TriptychRecord.for_type(ct).bmap.f, claimed_type=CombinatorialType(5, 2, 4, 5))
    with pytest.raises(ValueError, match=r"^map type \(2, 4, 5\) differs from record type \(3, 3, 5\)$"):
        TriptychRecord(canonical_single_cycle(ct), claims_another)


def test_record_json_rejects_drifted_invariants():
    good = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    assert TriptychRecord.from_json(good).to_json() == good
    shape = dict(good["invariants"]["shape"], parallelEdges=2)
    drifts = [
        ("genus", 2),
        ("genus", 0.0),  # equal to 0 in Python, not the integer JSON 0
        ("diameter", 3),
        ("shape", shape),
        ("shape", None),
        ("isBelyi", False),
        ("isBelyi", 1),  # equal to True in Python, not JSON true
    ]
    for key, value in drifts:
        data = json.loads(json.dumps(good))
        data["invariants"][key] = value
        with pytest.raises(ValueError, match="^stored invariants "):
            TriptychRecord.from_json(data)
    data = json.loads(json.dumps(good))
    del data["invariants"]
    with pytest.raises(ValueError, match="stored invariants"):
        TriptychRecord.from_json(data)


def test_record_json_rejects_a_drifted_dessin():
    good = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5))
    assert good.to_json()["dessin"]["black"] == [[1], [2], [3, 5, 4]]
    # a relabeled copy of the same dessin: every invariant still agrees
    t = Permutation.from_cycles(5, [(1, 2)])
    relabeled = make_gensys(conjugate(good.gensys.sigma0, t), conjugate(good.gensys.sigma1, t))
    for other in (
        TriptychRecord.for_type(CombinatorialType(5, 4, 2, 5)).dessin.to_json(),  # another type
        dessin_from_gensys(relabeled).to_json(),
        # the same vertex cyclic orders, written as the writer never does
        dict(good.dessin.to_json(), black=[[1], [2], [5, 4, 3]]),  # rotated
        dict(good.dessin.to_json(), black=[[2], [1], [3, 5, 4]]),  # reordered
    ):
        data = good.to_json()
        data["dessin"] = other
        assert data["dessin"]["d"] == 5
        with pytest.raises(ValueError, match="stored dessin"):
            TriptychRecord.from_json(data)


def test_a_stored_cycle_is_read_in_the_triple_and_compared_in_the_dessin():
    # the triple is the record's data: its cycles are parsed, so any
    # rotation or order of them reads back to the writer's line.  The
    # dessin is derived from it and compared as text, so the same
    # rotation there is refused
    line = compact_json(TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json())
    data = json.loads(line)
    assert data["gensys"]["sigma0"] == data["dessin"]["black"] == [[1], [2], [3, 5, 4]]
    data["gensys"]["sigma0"] = [[4, 3, 5], [2], [1]]
    assert compact_json(TriptychRecord.from_json(data).to_json()) == line
    data = json.loads(line)
    data["dessin"]["black"] = [[4, 3, 5], [2], [1]]
    with pytest.raises(ValueError, match=r"^stored dessin "):
        TriptychRecord.from_json(data)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("gensys", "d"), 5.0, "not an integer"),
        (("dessin", "d"), 5.0, "stored dessin"),
        (("type", "e0"), 3.0, "stored type"),
        (("map", "k"), True, "not an integer"),
        (("map", "d"), "5", "not an integer"),
        (("gensys", "sigma0"), [[1], [2], [3.0, 5, 4]], "not an integer"),
        (("dessin", "white"), [[1, 2, 3], ["4"], [5]], "stored dessin"),
    ],
    ids=[
        "float-gensys-d",
        "float-dessin-d",
        "float-e0",
        "bool-k",
        "string-d",
        "float-point",
        "string-label",
    ],
)
def test_record_json_rejects_non_integer_fields(path, value, message):
    data = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    data[path[0]][path[1]] = value
    with pytest.raises(ValueError, match=message):
        TriptychRecord.from_json(data)


@pytest.mark.parametrize("path", [("gensys", "sigma0"), ("dessin", "black")])
@pytest.mark.parametrize("value", [5, [5], None, {"a": [1]}], ids=["int", "list-of-int", "null", "dict"])
def test_record_json_rejects_cycles_that_are_not_a_list_of_lists(path, value):
    data = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    data[path[0]][path[1]] = value
    # the triple is parsed; the dessin is only compared with the derived one
    message = "list of lists" if path[0] == "gensys" else "stored dessin"
    with pytest.raises(ValueError, match=message):
        TriptychRecord.from_json(data)


_DROP = object()


_TYPED = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5))


@pytest.mark.parametrize(
    "record, path, value, message",
    [
        (_TYPED, ("gensys",), _DROP, "record has no 'gensys' field"),
        (_TYPED, ("dessin",), _DROP, "stored dessin"),
        (_TYPED, ("gensys", "sigma1"), _DROP, "gensys has no 'sigma1' field"),
        (_TYPED, ("dessin", "white"), _DROP, "stored dessin"),
        (_TYPED, ("type", "e1"), _DROP, "stored type"),
        (_TYPED, ("map", "f"), _DROP, "map has no 'f' field"),
        (_TYPED, ("gensys",), 5, "gensys must be an object"),
        (_TYPED, ("dessin",), None, "stored dessin"),
        (_TYPED, ("type",), [1], "stored type"),
        (_TYPED, ("map",), 5, "map must be an object"),
        # a stored null and an absent field differ: the writer writes both
        (TriptychRecord.for_family("power", 5), ("type",), _DROP, "^stored type absent, where None is derived from gensys$"),
        (TriptychRecord.for_family("chebyshev", 6), ("type",), _DROP, "^stored type absent"),
        (TriptychRecord.for_type(CombinatorialType(5, 3, 4, 4)), ("map",), _DROP, "^record has no 'map' field$"),
    ],
    ids=[
        "no-gensys",
        "no-dessin",
        "no-sigma1",
        "no-white",
        "no-e1",
        "no-f",
        "int-gensys",
        "null-dessin",
        "list-type",
        "int-map",
        "power-no-type",
        "chebyshev-no-type",
        "mapless-no-map",
    ],
)
def test_record_json_rejects_missing_fields_and_non_objects(record, path, value, message):
    # KeyError or TypeError here would escape callers that catch ValueError
    data = record.to_json()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        TriptychRecord.from_json(data)


def test_record_type_is_derived_from_the_triple():
    # chebyshev d = 3: (1 2), (2 3) and a 3-cycle are of type (3; 2, 2, 3)
    chebyshev = TriptychRecord.for_family("chebyshev", 3)
    assert chebyshev.ctype == CombinatorialType(3, 2, 2, 3)
    assert chebyshev.to_json()["type"] == {"d": 3, "e0": 2, "e1": 2, "eInf": 3}
    typed = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    untyped = [TriptychRecord.for_family(f, 5).to_json() for f in ("power", "chebyshev")]
    cases = [(typed, None), (typed, _DROP), (chebyshev.to_json(), None)]
    cases += [(data, typed["type"]) for data in untyped]
    for data, value in cases:
        data = json.loads(json.dumps(data))
        if value is _DROP:
            del data["type"]
        else:
            data["type"] = value
        with pytest.raises(ValueError, match="stored type"):
            TriptychRecord.from_json(data)


def test_record_json_rejects_a_map_of_another_type():
    # validate() compares the map's profile with the cycle types only, so a
    # map of another type is refused when the record is built, read or not
    data = TriptychRecord.for_type(CombinatorialType.from_indices(3, 4, 6)).to_json()
    other = TriptychRecord.for_type(CombinatorialType.from_indices(4, 3, 6)).to_json()
    with pytest.raises(ValueError, match=r"map type \(4, 3, 6\) differs from record type \(3, 4, 6\)"):
        TriptychRecord.from_json(dict(data, map=other["map"]))
    # a family map's type is its (family, d, k)'s, so a misstated or a
    # missing one is refused like any other stored field
    for ct in (other["type"], None):
        data["map"]["type"] = ct
        with pytest.raises(ValueError, match="stored type"):
            TriptychRecord.from_json(data)
    # the (5; 3, 3, 5) record's map, stored as a custom map of its type,
    # reads back; claiming (5; 2, 4, 5) instead, it is refused
    data = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    data["map"] = {"family": "custom", "f": data["map"]["f"], "type": data["type"]}
    TriptychRecord.from_json(data).validate()
    data["map"]["type"] = {"d": 5, "e0": 2, "e1": 4, "eInf": 5}
    with pytest.raises(ValueError, match=r"^map type \(2, 4, 5\) differs from record type \(3, 3, 5\)$"):
        TriptychRecord.from_json(data)


def test_record_json_reads_the_degree_from_the_cycles():
    # the stated d is compared with the points given, never allocated
    data = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    for d in (4, 6, 10**5):
        data["gensys"]["d"] = d
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"gensys states d = {d} but its cycles cover 1..5"):
                TriptychRecord.from_json(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_record_json_rejects_a_record_that_is_not_an_object():
    data = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    with pytest.raises(ValueError, match="record must be an object"):
        TriptychRecord.from_json([data])


def test_record_json_refuses_a_field_the_writer_does_not_write():
    # to_json would drop it, so reading and writing the record back would
    # lose it without a word
    data = TriptychRecord.for_family("poly", 5, 2).to_json()
    with pytest.raises(ValueError, match=r"^record has unknown field 'junk'$"):
        TriptychRecord.from_json({**data, "junk": 1})
    assert TriptychRecord.from_json(data).to_json() == data


_FAMILY_RECORDS = {
    family: TriptychRecord.for_family(family, 7, k)
    for family, k in [("poly", 2), ("symmetric", 2), ("power", None), ("chebyshev", None)]
}
_SYMMETRIC = _FAMILY_RECORDS["symmetric"]
# every writer of a JSON object: name -> (its reader, an object it writes)
WRITERS = {
    "typed-record": (TriptychRecord, TriptychRecord.for_type(CombinatorialType(6, 3, 4, 6))),
    "mapless-record": (TriptychRecord, TriptychRecord.for_type(CombinatorialType(5, 3, 4, 4))),
    **{f"{family}-record": (TriptychRecord, rec) for family, rec in _FAMILY_RECORDS.items()},
    **{f"{family}-map": (BelyiMap, rec.bmap) for family, rec in _FAMILY_RECORDS.items()},
    "custom-map": (BelyiMap, BelyiMap(_SYMMETRIC.bmap.f, claimed_type=_SYMMETRIC.ctype)),
    "gensys": (GeneratingSystem, _SYMMETRIC.gensys),
    "type": (CombinatorialType, _SYMMETRIC.ctype),
    "f": (RatFunc, _SYMMETRIC.bmap.f),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_every_reader_refuses_a_field_its_writer_does_not_write(writer):
    # one rule for every JSON object: what the writer writes reads back,
    # and a field it never writes is refused by name, even as null
    reader, obj = WRITERS[writer]
    data = obj.to_json()
    assert reader.from_json(data).to_json() == data
    with pytest.raises(ValueError, match=r" has unknown field 'zz'$"):
        reader.from_json({**data, "zz": None})


_MAP_LABELS = {("map", *label) for label in MAP_LABELS}


def test_fuzzed_records_read_as_a_record_or_a_value_error():
    # each record is a good one with one to three values replaced by other
    # JSON or deleted, the map's family, d and k among them; reading must
    # give a record or ValueError, and validate() a verdict, never a crash
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    buf = io.StringIO()
    write_catalog(6, buf)
    good = [json.loads(line) for line in buf.getvalue().splitlines()]
    good += [
        TriptychRecord.for_family(family, 7, k).to_json()
        for family, k in (("power", None), ("chebyshev", None), ("symmetric", 2))
    ]
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-2, 12)
        | st.integers()
        | st.floats()
        | st.text(max_size=4)
        | st.sampled_from([*(f.tag for f in FAMILIES.values()), "custom", "0", "-1", "2/3", "1/0"])
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(good), st.data())
    def check(record, data):
        record = copy.deepcopy(record)
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(json_paths(record))
            labels = [p for p in paths if p in _MAP_LABELS] or paths
            where = data.draw(st.sampled_from(paths) | st.sampled_from(labels))
            if not where:
                record = data.draw(values)
                continue
            parent = record
            for key in where[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                parent.pop(where[-1], None)
            else:
                parent[where[-1]] = data.draw(values)
        try:
            rec = TriptychRecord.from_json(record)
        except ValueError:
            return
        try:
            rec.validate()
        except VerificationError:
            pass

    check()


def test_a_record_whose_map_has_non_list_coefficients_is_refused():
    # the derandomized fuzz above draws other examples as other test modules
    # are collected, and in the whole suite none of them reaches this case
    data = TriptychRecord.for_family("symmetric", 7, 2).to_json()
    for key in ("num", "den"):
        for value in (None, 5, True, 1.5):
            bad = copy.deepcopy(data)
            bad["map"]["f"][key] = value
            with pytest.raises(ValueError, match=f"^coefficients must be a list of strings, not {value!r}$"):
                TriptychRecord.from_json(bad)


def _drifts(value):
    """What a stored value drifts to: JSON equal to it in Python but not as
    text (0.0 for 0, 1 for true), other scalars, a rotated or shortened
    list, and an object with a field dropped."""
    out = [None, 0, 0.0, 1, 1.0, False, True, "0", [], {}]
    if type(value) is int:
        out += [value + 1, float(value)]
    if isinstance(value, list) and len(value) > 1:
        out += [value[1:] + value[:1], value[:-1]]
    if isinstance(value, dict) and value:
        out.append(dict(list(value.items())[1:]))
    return out


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _drifted(good):
    """Copies of ``good`` with one value drifted, or one field deleted or
    added."""
    for path in list(json_paths(good))[1:]:
        parent = _parent(good, path)
        for value in _drifts(parent[path[-1]]):
            data = copy.deepcopy(good)
            _parent(data, path)[path[-1]] = value
            yield data
        if isinstance(parent, dict):
            data = copy.deepcopy(good)
            del _parent(data, path)[path[-1]]
            yield data
    yield {**good, "extra": [1]}


def _read(reader, data):
    """The record ``reader`` reads back, as JSON, or its ValueError's message."""
    try:
        return reader.from_json(data).to_json()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "reader, good, named",
    [
        (TriptychRecord, TriptychRecord.for_family("poly", 5, 2).to_json(), {"type", "dessin", "invariants", "params", "f"}),
        (TriptychRecord, TriptychRecord.for_type(CombinatorialType(6, 3, 4, 6)).to_json(), {"type", "dessin", "invariants", "params", "f"}),
        (TriptychRecord, TriptychRecord.for_type(CombinatorialType(5, 3, 4, 4)).to_json(), {"type", "dessin", "invariants"}),
        (BelyiMap, single_cycle_polynomial(5, 2).to_json(), {"params", "f", "type"}),
        (BelyiMap, TriptychRecord.for_family("symmetric", 7, 2).to_json()["map"], {"params", "f", "type"}),
    ],
    ids=["poly-record", "map-record", "mapless-record", "poly-map", "symmetric-map"],
)
def test_stored_field_check_matches_the_per_field_oracle(reader, good, named, monkeypatch):
    # every field drifted one at a time: each reader gives the record or
    # the message it gave when each field was encoded on its own
    cases = list(_drifted(good))
    got = [_read(reader, data) for data in cases]
    for module in ("belyi.catalog", "belyi.families"):
        monkeypatch.setattr(sys.modules[module], "check_stored", stored_field_oracle)
    want = [_read(reader, data) for data in cases]
    assert got == want
    assert {w.split()[1] for w in want if isinstance(w, str) and w.startswith("stored ")} == named


def test_the_first_drifted_field_in_derived_order_is_named():
    data = TriptychRecord.for_family("poly", 5, 2).to_json()
    data["invariants"]["genus"] = 0.0
    data["type"]["e0"] = 3.0
    with pytest.raises(ValueError, match=r"^stored type \{.*\} disagrees with \{.*\}, derived from gensys$"):
        TriptychRecord.from_json(data)


def test_a_drifted_field_is_named_in_brief():
    # the values are named by brief_repr, not by their JSON text in full
    data = TriptychRecord.for_type(CombinatorialType(5, 3, 3, 5)).to_json()
    data["dessin"] = list(range(1_000_000))
    with pytest.raises(ValueError, match=r"^stored dessin \[0, 1, 2, 3, 4, 5, \.\.\.\] disagrees with ") as exc:
        TriptychRecord.from_json(data)
    assert len(str(exc.value)) < 1000


def test_a_drifted_field_before_a_field_nested_too_deep_reads_as_nested_too_deep():
    # the stored fields are encoded together, so the deep field's
    # RecursionError comes before the first field is compared on its own
    data = TriptychRecord.for_family("poly", 5, 2).to_json()
    data["type"]["e0"] = 3.0
    data["invariants"] = nested_list(100_000)
    with pytest.raises(ValueError, match=r"^stored type, dessin, invariants nested too deeply to read$"):
        TriptychRecord.from_json(data)
    m = single_cycle_polynomial(5, 2).to_json()
    m["params"]["c"] = "31"
    m["type"] = nested_list(100_000)
    with pytest.raises(ValueError, match=r"^stored family, d, k, params, f, type nested too deeply to read$"):
        BelyiMap.from_json(m)


def test_a_self_referential_field_reads_as_nested_too_deep():
    # a value that holds itself, which json.load never returns but a caller
    # may pass: the encoder recurses until Python's limit, as on a deep value
    inv: dict = {}
    inv["x"] = inv
    data = TriptychRecord.for_family("poly", 5, 2).to_json()
    data["invariants"] = inv
    with pytest.raises(ValueError, match=r"^stored type, dessin, invariants nested too deeply to read$"):
        TriptychRecord.from_json(data)
    m = single_cycle_polynomial(5, 2).to_json()
    m["type"] = inv
    with pytest.raises(ValueError, match=r"^stored family, d, k, params, f, type nested too deeply to read$"):
        BelyiMap.from_json(m)


@pytest.mark.parametrize(
    "reader, good, key, value, message",
    [
        (TriptychRecord, TriptychRecord.for_family("poly", 5, 2).to_json(), "type", {"d": 5, "e0": 3, "e1": 3, "eInf": 5.0}, "^stored type "),
        (TriptychRecord, TriptychRecord.for_family("poly", 5, 2).to_json(), "dessin", None, "^stored dessin "),
        (TriptychRecord, TriptychRecord.for_family("poly", 5, 2).to_json(), "invariants", {}, "^stored invariants "),
        (BelyiMap, single_cycle_polynomial(5, 2).to_json(), "params", {"c": "31", "a": ["1/5", "-1/2", "1/3"]}, "^stored params "),
        (BelyiMap, single_cycle_polynomial(5, 2).to_json(), "f", {"num": ["0", "0", "0", "10", "-15", "7"], "den": ["1"]}, "^stored f "),
        (BelyiMap, single_cycle_polynomial(5, 2).to_json(), "type", None, "^stored type "),
        (BelyiMap, single_cycle_polynomial(5, 2).to_json(), "extra", False, "^map has unknown field 'extra'"),
        (BelyiMap, single_cycle_polynomial(5, 2).to_json(), 1, 2, "^map has unknown field 1"),
    ],
    ids=["record-type", "record-dessin", "record-invariants", "map-params", "map-f", "map-type", "map-extra", "map-int-key"],
)
def test_each_stored_field_is_checked(reader, good, key, value, message):
    # one fixed case per field: the fuzzes draw other examples as other
    # test modules are collected.  A field the writer never writes is
    # named too, a key json.load never gives, such as 1, among them
    with pytest.raises(ValueError, match=message):
        reader.from_json({**good, key: value})


def test_iter_catalog_order_and_size():
    recs = list(iter_catalog(5))
    assert len(recs) == 3 + 7 + 12
    keys = [
        (r.ctype.d, r.ctype.e0, r.ctype.e1) for r in recs if r.ctype is not None
    ]
    assert len(keys) == len(recs)
    assert keys == sorted(keys)
    assert keys[0] == (3, 2, 2)
    assert keys[-1] == (5, 5, 4)


def test_iter_catalog_builds_each_sigma0_and_sigma1_once_per_degree():
    # 4,872 distinct sigmaInf, and one sigma0 and one sigma1 for each
    # (d, e) with 2 <= e <= d: 2 * 434 more, where one per record slot
    # would be 3 * 4,872 = 14,616
    recs = list(iter_catalog(30))
    assert len(recs) == 4872
    assert len({id(s) for r in recs for s in r.gensys.triple}) == 5740
    for r in recs:
        assert r == TriptychRecord.for_type(r.ctype)


def test_write_catalog_counts_and_lines():
    buf = io.StringIO()
    counts = write_catalog(6, buf)
    assert counts == {3: 3, 4: 7, 5: 12, 6: 18}
    lines = buf.getvalue().splitlines()
    assert len(lines) == 40
    first = json.loads(lines[0])
    assert first["type"] == {"d": 3, "e0": 2, "e1": 2, "eInf": 3}
    for line in lines:
        rec = json.loads(line)
        assert rec["invariants"]["genus"] == 0
        assert rec["invariants"]["diameter"] <= 4
        back = TriptychRecord.from_json(rec)
        back.validate()
        assert json.dumps(back.to_json(), separators=(",", ":")) == line


def test_write_catalog_deterministic():
    a, b = io.StringIO(), io.StringIO()
    write_catalog(7, a)
    write_catalog(7, b)
    assert a.getvalue() == b.getvalue()


def _text_cases():
    # every catalog record with d <= 20, the untyped families with
    # 3 <= d <= 12, seeded poly and symmetric members up to d = 100, and
    # a canonical triple with three custom maps
    yield from iter_catalog(20)
    for family in ("power", "chebyshev"):
        for d in range(3, 13):
            yield TriptychRecord.for_family(family, d)
    rng = random.Random(34)
    for d in [100, *(rng.randint(13, 99) for _ in range(5))]:
        yield TriptychRecord.for_family("poly", d, rng.randint(1, d - 2))
        yield TriptychRecord.for_family("symmetric", d, rng.randint(1, (d - 1) // 2))
    ct = CombinatorialType(10, 8, 5, 8)
    gs, f = canonical_single_cycle(ct), single_cycle_map(ct)
    yield TriptychRecord(gs, BelyiMap(f, claimed_type=ct))
    # a custom map with no claimed type, and one of the triple's degree
    # that is not Belyi
    yield TriptychRecord(gs, BelyiMap(f))
    num, den = f.pair
    yield TriptychRecord(gs, BelyiMap(RatFunc([c + (i == 1) for i, c in enumerate(num)], den)))


def test_one_writer_one_text():
    # text() is the line each part's own writer gives, compacted, and
    # to_json() reads it back; reading the line gives the same line
    assert belyi.catalog.compact_json is belyi.exact.compact_json  # still importable
    # each branch text() writes: type null or set, map null, family or
    # custom, shape null or set, isBelyi null, true or false
    branches = set()
    for rec in _text_cases():
        branches |= {
            ("type", rec.ctype is None),
            ("map", None if rec.bmap is None else rec.bmap.family == "custom"),
            ("shape", rec.shape is None),
            ("isBelyi", rec.is_belyi),
        }
        line = rec.text()
        parts = {
            "type": None if rec.ctype is None else rec.ctype.to_json(),
            "map": None if rec.bmap is None else rec.bmap.to_json(),
            "gensys": rec.gensys.to_json(),
            "dessin": rec.dessin.to_json(),
            "invariants": {
                "genus": rec.genus,
                "diameter": rec.diameter,
                "shape": None if rec.shape is None else rec.shape.to_json(),
                "isBelyi": rec.is_belyi,
            },
        }
        assert line == compact_json(parts)
        assert line == compact_json(rec.to_json())
        assert TriptychRecord.from_json(json.loads(line)).text() == line
    assert branches == {
        *(("type", b) for b in (True, False)),
        *(("map", b) for b in (None, True, False)),
        *(("shape", b) for b in (True, False)),
        *(("isBelyi", b) for b in (None, True, False)),
    }


def test_record_to_json_is_a_new_object_each_call():
    rec = TriptychRecord.for_family("poly", 5, 2)
    line = rec.text()
    data = rec.to_json()
    data["type"] = CombinatorialType(5, 4, 4, 3).to_json()
    data["map"]["f"]["num"][0] = "7"
    data["gensys"]["sigma0"][0].append(9)
    data["dessin"]["black"].clear()
    data["invariants"]["genus"] = 3
    assert rec.text() == line
    assert compact_json(rec.to_json()) == line
    assert rec.to_json() is not rec.to_json()


def test_a_degrees_records_share_sigma0s_and_sigma1s_text(monkeypatch):
    # records of one degree with the same e0 share sigma0, and so its text
    recs = [r for r in iter_catalog(12) if r.gensys.degree == 12 and r.ctype.e0 == 7]
    a, b = recs[0], recs[-1]
    assert a.ctype.e1 != b.ctype.e1
    assert a.gensys.sigma0._json_text() is b.gensys.sigma0._json_text()
    assert a.text().count(a.gensys.sigma0._json_text()) == 2  # gensys and dessin
    # and so its nontrivial cycles, scanned once for the type and the shape
    assert a.gensys.sigma0.nontrivial_cycles() is b.gensys.sigma0.nontrivial_cycles()

    # no encoding at all: each canonical permutation keeps the text its
    # builder slices in closed form, where a record once encoded five and
    # then one per sigmaInf plus one per shared sigma0 and sigma1.  A
    # permutation's text is encoded straight from its cycles when it is
    # not given, so the spy counts the encoder calls that perm makes
    calls = []
    encode = belyi.perm.compact_json
    monkeypatch.setattr(belyi.perm, "compact_json", lambda v: calls.append(v) or encode(v))
    buf = io.StringIO()
    counts = write_catalog(12, buf)
    assert len(buf.getvalue().splitlines()) == sum(counts.values()) == 330
    assert calls == []
