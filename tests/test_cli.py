"""CLI: frozen text output, exit codes, and the module entry point."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from belyi import (
    BelyiMap,
    CombinatorialType,
    Dessin,
    GeneratingSystem,
    Permutation,
    RatFunc,
    TriptychRecord,
    canonical_single_cycle,
    chebyshev_map,
    dessin_from_gensys,
    power_map,
    single_cycle_polynomial,
    symmetric_single_cycle,
    write_catalog,
)
from belyi.cli import FAIL, INTERNAL, PASS, USAGE, main
from helpers import MAP_LABELS, json_paths, nested_list

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


@pytest.fixture
def good_map(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(single_cycle_polynomial(5, 2).to_json()))
    return str(path)


def test_exit_code_constants():
    assert (PASS, FAIL, USAGE, INTERNAL) == (0, 1, 2, 3)


def test_construct_poly_text(capsys):
    assert main(["construct", "poly", "--d", "5", "--k", "2"]) == PASS
    assert capsys.readouterr().out == POLY_5_2_TEXT


def test_construct_symmetric_text(capsys):
    assert main(["construct", "symmetric", "--d", "10", "--k", "2"]) == PASS
    out = capsys.readouterr().out
    assert "type: (8, 5, 8)" in out
    assert "a = (42, 120, 90)" in out
    assert "= x^8 * (42x^2 - 120x + 90) / (90x^2 - 120x + 42)" in out
    assert "shape: 5 white leaves, 2 black leaves, 3 parallel edges" in out


def test_construct_power_and_chebyshev(capsys):
    assert main(["construct", "power", "--d", "4"]) == PASS
    out = capsys.readouterr().out
    assert "family: power map" in out
    assert "f = x^4" in out
    assert "sigma1   = ()" in out
    assert "diameter: 3" in out

    assert main(["construct", "chebyshev", "--d", "4"]) == PASS
    out = capsys.readouterr().out
    assert "family: chebyshev" in out
    assert "f = 4x^4 - 4x^2 + 1" in out
    assert "profile over 0: [2, 2]" in out
    assert "sigma0   = (1 2)(3 4)" in out
    assert "diameter: 5" in out


def test_construct_json_is_valid_record(capsys):
    assert main(["construct", "poly", "--d", "6", "--k", "3", "--format", "json"]) == PASS
    data = json.loads(capsys.readouterr().out)
    assert data["type"] == {"d": 6, "e0": 3, "e1": 4, "eInf": 6}
    assert data["invariants"]["genus"] == 0


def test_construct_dot(capsys):
    assert main(["construct", "power", "--d", "3", "--format", "dot"]) == PASS
    out = capsys.readouterr().out
    assert out.startswith("graph dessin {\n")
    assert out.endswith("}\n")
    assert out.count(" -- ") == 3


def test_construct_missing_k(capsys):
    assert main(["construct", "poly", "--d", "5"]) == USAGE
    assert capsys.readouterr().err == "error: the single-cycle polynomial family needs parameter k\n"


@pytest.mark.parametrize("family, name", [("power", "power map"), ("chebyshev", "chebyshev")],
                         ids=["power", "chebyshev"])
def test_construct_refuses_a_stray_k(capsys, family, name):
    assert main(["construct", family, "--d", "5", "--k", "3"]) == USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: the {name} family takes no parameter k\n"
    assert captured.out == ""


def test_construct_out_of_range(capsys):
    assert main(["construct", "poly", "--d", "5", "--k", "4"]) == USAGE
    assert "error:" in capsys.readouterr().err
    assert main(["construct", "symmetric", "--d", "4", "--k", "2"]) == USAGE


def test_verify_pass(capsys, good_map):
    assert main(["verify", good_map]) == PASS
    out = capsys.readouterr().out
    assert "total ramification: 8 (belyi bound 2d-2 = 8)" in out
    assert "claimed type (3, 3, 5): PASS - single-cycle of type (3, 3, 5)" in out


def test_verify_explicit_type_overrides(capsys, good_map):
    # (4; 3, 3, 3) is a type, of another degree than the (5; 3, 3, 5) map
    assert main(["verify", good_map, "--type", "3,3,3"]) == FAIL
    out = capsys.readouterr().out
    assert "claimed type (3, 3, 3): FAIL - degree mismatch: expected 4, found 5" in out


@pytest.mark.parametrize(
    "spec, message",
    [
        ("3,3,4", "sum to 10, which is even"),
        ("0,0,0", "sum to 0, which is even"),
        ("1,1,1", "degree must be at least 3"),
        ("2,2,7", "outside the valid range"),
    ],
)
def test_verify_refuses_a_type_that_does_not_exist(capsys, good_map, spec, message):
    # a usage error, like `belyi dessin` on the same spec, not a verdict
    assert main(["verify", good_map, "--type", spec]) == USAGE
    captured = capsys.readouterr()
    assert "argument --type: " in captured.err
    assert message in captured.err
    assert captured.out == ""


def test_verify_not_belyi(capsys, tmp_path):
    path = tmp_path / "notbelyi.json"
    path.write_text('{"family":"custom","f":{"num":["0","1","1"],"den":["1"]}}')
    assert main(["verify", str(path)]) == FAIL
    out = capsys.readouterr().out
    assert "belyi: no" in out
    assert "verdict: FAIL - not Belyi: total ramification 1 < 2" in out


def test_verify_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"family": "custom", "f": {')
    assert main(["verify", str(path)]) == USAGE
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "line 1 column 28" in err


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"family": "custom", "extra": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b"\xff\xfe{",
        # json.load raises a plain ValueError past Python's 4,300-digit limit
        b'{"family": "custom", "d": ' + b"1" * 5000 + b', "f": {"num": ["0", "1"], "den": ["1"]}}',
    ],
    ids=["deep-array", "deep-field", "not-utf-8", "int-past-digit-limit"],
)
def test_verify_input_that_json_cannot_read_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"verify: cannot parse {path}: ")
    assert "internal error" not in captured.err
    assert captured.out == ""


# how every reader's message names a value: a value nested 100,000 deep or
# a self-referential list, and a 1,000,000-character string, as reprlib.repr
# cuts them short
DEEP_SHOWN = "[[[[[[[...]]]]]]]"
LONG_SHOWN = "'" + "x" * 12 + "..." + "x" * 13 + "'"

DEEP_READS = {
    # reader, what it reads, the path to the value nested 100,000 deep, and
    # the message, with {} for how it names the value
    "custom-f": (BelyiMap.from_json, "custom", ("f",), "f must be an object, not {}"),
    "custom-num-element": (BelyiMap.from_json, "custom", ("f", "num", 1),
                           'not a rational "p" or "p/q": {}'),
    "custom-type": (BelyiMap.from_json, "custom", ("type",), "type must be an object, not {}"),
    "custom-d": (BelyiMap.from_json, "custom", ("d",), "not an integer: {}"),
    "family-extra-field": (BelyiMap.from_json, "family", ("params", "extra"),
                           "stored family, d, k, params, f, type nested too deeply to read"),
    "record-gensys": (TriptychRecord.from_json, "record", ("gensys",),
                      "gensys must be an object, not {}"),
    "record-sigma0": (TriptychRecord.from_json, "record", ("gensys", "sigma0"),
                      "not an integer: {}"),
    "record-sigma0-cycle": (TriptychRecord.from_json, "record", ("gensys", "sigma0", 2),
                            "not an integer: {}"),
    "record-sigma0-point": (TriptychRecord.from_json, "record", ("gensys", "sigma0", 2, 1),
                            "not an integer: {}"),
    "record-gensys-d": (TriptychRecord.from_json, "record", ("gensys", "d"),
                        "not an integer: {}"),
    "record-type": (TriptychRecord.from_json, "record", ("type",),
                    "stored type, dessin, invariants nested too deeply to read"),
    "record-dessin": (TriptychRecord.from_json, "record", ("dessin",),
                      "stored type, dessin, invariants nested too deeply to read"),
    "ratfunc-den-element": (RatFunc.from_json, "f", ("den", 0),
                            'not a rational "p" or "p/q": {}'),
    "perm-point": (Permutation.from_json, "cycles", (2, 1), "not an integer: {}"),
    "from-cycles-point": (functools.partial(Permutation.from_cycles, 5), "cycles", (2, 1),
                          "not an integer: {}"),
    "gensys-d": (GeneratingSystem.from_json, "gensys", ("d",), "not an integer: {}"),
    "type-e1": (CombinatorialType.from_json, "type", ("e1",), "not an integer: {}"),
    "dessin-white-point": (lambda ds: Dessin.from_cycles(**ds), "dessin", ("white", 0, 0),
                           "not an integer: {}"),
}


def _bad_read(case: str, value) -> tuple:
    """The reader of a DEEP_READS case, what it reads with ``value`` put at
    the case's path, and the message it must raise."""
    reader, base, (*outer, key), message = DEEP_READS[case]
    record = TriptychRecord.for_family("poly", 5, 2).to_json()
    data = {
        "custom": copy.deepcopy(CUSTOM_MAP),
        "family": single_cycle_polynomial(5, 2).to_json(),
        "record": record,
        "f": copy.deepcopy(CUSTOM_MAP["f"]),
        "cycles": record["gensys"]["sigma0"],
        "gensys": record["gensys"],
        "type": record["type"],
        "dessin": record["dessin"],
    }[base]
    parent = data
    for step in outer:
        parent = parent[step]
    parent[key] = value
    return reader, data, message


@pytest.mark.parametrize("case", DEEP_READS)
def test_a_value_nested_too_deep_is_a_malformed_record(case, capsys, tmp_path, monkeypatch):
    # json.load may return a value nested deeper than repr or the
    # stored-field check can recurse: a reader's message names it in brief,
    # or check_stored turns its RecursionError into a ValueError, so it is
    # a malformed record, not a crash
    reader, data, message = _bad_read(case, nested_list(100_000))
    with pytest.raises(ValueError) as exc:
        reader(data)
    assert str(exc.value) == message.format(DEEP_SHOWN)
    assert len(str(exc.value)) < 1000
    path = tmp_path / "deep.json"
    path.write_text("{}")
    monkeypatch.setattr(json, "load", lambda fh: data)
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("verify: malformed map record: ")
    assert len(captured.err) < 1000
    assert "internal error" not in captured.err
    assert captured.out == ""


# one DEEP_READS case for each public reader, at a value its message names
NAMED_READS = [
    "custom-f", "record-sigma0-point", "ratfunc-den-element", "perm-point",
    "from-cycles-point", "gensys-d", "type-e1", "dessin-white-point",
]


@pytest.mark.parametrize("kind", ["self-referential", "long"])
@pytest.mark.parametrize("case", NAMED_READS)
def test_every_reader_names_a_bad_value_in_brief(case, kind):
    # a list that holds itself, which a caller may pass, reads as a deep
    # one; a 1,000,000-character string is cut short, not echoed in full
    if kind == "long":
        value, shown = "x" * 1_000_000, LONG_SHOWN
    else:
        value, shown = [], DEEP_SHOWN
        value.append(value)
    reader, data, message = _bad_read(case, value)
    with pytest.raises(ValueError) as exc:
        reader(data)
    assert str(exc.value) == message.format(shown)
    assert len(str(exc.value)) < 1000


# every reader of a list of cycles, given a d = 5 one in its place
_RECORD = TriptychRecord.for_family("poly", 5, 2).to_json()
CYCLE_LIST_READS = {
    "perm-from-json": Permutation.from_json,
    "perm-from-cycles": functools.partial(Permutation.from_cycles, 5),
    "dessin-from-cycles": lambda cycles: Dessin.from_cycles(5, cycles, [[1, 2, 3, 4, 5]]),
    "gensys-from-json": lambda cycles: GeneratingSystem.from_json({**_RECORD["gensys"], "sigma0": cycles}),
    "record-from-json": lambda cycles: TriptychRecord.from_json(
        {**_RECORD, "gensys": {**_RECORD["gensys"], "sigma0": cycles}}
    ),
}


@pytest.mark.parametrize("case", CYCLE_LIST_READS)
def test_every_cycle_reader_refuses_a_string_before_it_builds(case):
    # a 1,000,000-character string is refused as a whole, not read as a
    # million one-character cycles
    value = "x" * 1_000_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            CYCLE_LIST_READS[case](value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"cycles must be a list of lists, not {LONG_SHOWN}"
    assert peak < 10 << 20


def test_verify_missing_file(capsys, tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == USAGE
    assert "cannot read" in capsys.readouterr().err


def test_verify_malformed_record(capsys, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text('{"family": "custom"}')
    assert main(["verify", str(path)]) == USAGE
    assert "malformed map record" in capsys.readouterr().err


def test_verify_refuses_a_misspelled_field(capsys, tmp_path):
    # with "type" spelled right the claim fails (exit 1); misspelled, it
    # must not be dropped, leaving a map with no claim to pass
    path = tmp_path / "tpye.json"
    f = {"num": ["0", "0", "0", "10", "-15", "6"], "den": ["1"]}
    path.write_text(json.dumps({"family": "custom", "f": f, "tpye": {"d": 5, "e0": 2, "e1": 4, "eInf": 5}}))
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verify: malformed map record: map has unknown field 'tpye'\n"


@pytest.mark.parametrize(
    "f",
    [
        '{"num": ["1"], "den": ["0"]}',  # zero denominator polynomial
        '{"num": ["1/0"], "den": ["1"]}',  # zero denominator coefficient
        '{"num": "123", "den": ["1"]}',  # a string, not a list
        '{"num": [0, 1.5, 2], "den": ["1"]}',  # numbers, not strings
    ],
    ids=["den-zero", "coeff-over-zero", "string-not-list", "json-numbers"],
)
def test_verify_rejects_malformed_coefficients(capsys, tmp_path, f):
    path = tmp_path / "bad.json"
    path.write_text('{"family": "custom", "f": %s}' % f)
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert "malformed map record" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, value",
    [
        ("d", 5.7),
        ("k", 2.9),
        ("k", 1),  # the (5, 2) map's f, params and type, stated as k = 1
        ("type.e0", 3.0),
        ("params.c", "31"),  # the (5, 2) map has c = 30
    ],
    ids=["float-d", "float-k", "other-k", "float-e0", "wrong-c"],
)
def test_verify_rejects_a_misstated_record(capsys, tmp_path, field, value):
    data = single_cycle_polynomial(5, 2).to_json()
    *outer, key = field.split(".")
    (data[outer[0]] if outer else data)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert "malformed map record" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "params", [{"a": "35"}, ["3", "5"]], ids=["string-a", "params-not-object"]
)
def test_verify_rejects_params_of_the_wrong_shape(capsys, tmp_path, params):
    # the (5, 1) symmetric map has a = ("3", "5"): a string "35" iterated
    # character by character would read as the right params
    data = symmetric_single_cycle(5, 1).to_json()
    assert data["params"] == {"a": ["3", "5"]}
    data["params"] = params
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert "stored params" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "family, k, relabel",
    [
        ("poly", 2, {"k": 1, "params": None}),  # None: the field is deleted
        ("power", None, {"family": "chebyshev"}),
        ("poly", 2, {"k": 7, "params": None}),
    ],
    ids=["poly-k1-without-params", "power-as-chebyshev", "poly-k7-without-params"],
)
def test_a_relabelled_family_map_is_refused(capsys, tmp_path, family, k, relabel):
    # a family map is rebuilt from its stated (family, d, k), so labels that
    # name another member than the stored f cannot be read back
    record = TriptychRecord.for_family(family, 5, k).to_json()
    data = record["map"]
    for key, value in relabel.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    with pytest.raises(ValueError):
        BelyiMap.from_json(data)
    with pytest.raises(ValueError):
        TriptychRecord.from_json(record)
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert "malformed map record" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "value", [None, 5, True, 1.5], ids=["null", "int", "bool", "float"]
)
def test_a_family_map_with_non_list_coefficients_is_refused(capsys, tmp_path, value):
    # the family-map reader checks f's shape before it compares degrees or
    # rebuilds, so f.num or f.den that is not a list is a malformed record
    path = tmp_path / "bad.json"
    for m in (
        single_cycle_polynomial(5, 2),
        symmetric_single_cycle(6, 2),
        power_map(4),
        chebyshev_map(5),
    ):
        for key in ("num", "den"):
            data = m.to_json()
            data["f"][key] = value
            with pytest.raises(ValueError, match=f"^coefficients must be a list of strings, not {re.escape(repr(value))}$"):
                BelyiMap.from_json(data)
            path.write_text(json.dumps(data))
            assert main(["verify", str(path)]) == USAGE
            captured = capsys.readouterr()
            assert "malformed map record" in captured.err
            assert "internal error" not in captured.err
            assert captured.out == ""


CUSTOM_MAP = {"family": "custom", "f": {"num": ["0", "0", "1"], "den": ["1"]}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: {**m, "family": ["poly"]}, r"unknown family tag \['poly'\]"),
        (lambda m: {**m, "family": {"poly": 1}}, r"unknown family tag \{'poly': 1\}"),
        (lambda m: {**CUSTOM_MAP, "f": {"num": ["1"]}}, "needs num and den"),
        (lambda m: {**CUSTOM_MAP, "params": {"a": ["1"]}}, "params given for a custom map"),
        (lambda m: {**CUSTOM_MAP, "k": 7}, "k given for a custom map"),
        (lambda m: {**CUSTOM_MAP, "d": 3}, "stated degree 3 != map degree 2"),
        (lambda m: {**CUSTOM_MAP, "f": {"num": ["1"], "den": ["0"]}}, "zero denominator"),
        (lambda m: {**CUSTOM_MAP, "f": {"num": ["1"], "den": ["0", "0"]}}, "^zero denominator$"),
        (lambda m: {**CUSTOM_MAP, "f": {"num": "12", "den": ["1"]}},
         "coefficients must be a list of strings, not '12'"),
        (lambda m: {**CUSTOM_MAP, "f": {"num": ["1"], "den": {"0": "1"}}},
         r"coefficients must be a list of strings, not \{'0': '1'\}"),
        (lambda m: {**CUSTOM_MAP, "f": {"num": ["0", 1.5], "den": ["1"]}},
         r'not a rational "p" or "p/q": 1\.5'),
        (lambda m: {**CUSTOM_MAP, "f": {"num": ["1/0"], "den": ["1"]}},
         "zero denominator in '1/0'"),
        (lambda m: {**m, "type": {**m["type"], "e1": 4}}, "stored type .* disagrees with"),
        (lambda m: {**m, "extra": [1]}, "^map has unknown field 'extra'$"),
    ],
    ids=[
        "family-list",
        "family-object",
        "f-without-den",
        "custom-params",
        "custom-k",
        "custom-degree",
        "custom-zero-den",
        "custom-den-of-zeros",
        "num-a-string",
        "den-an-object",
        "json-number-coefficient",
        "coefficient-over-zero",
        "misstated-type",
        "extra-field",
    ],
)
def test_each_map_reader_guard_has_a_fixed_case(capsys, tmp_path, edit, message):
    # the fuzzes may or may not draw these; each guard's message is pinned
    data = edit(single_cycle_polynomial(5, 2).to_json())
    with pytest.raises(ValueError, match=message):
        BelyiMap.from_json(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert "malformed map record" in captured.err
    assert "internal error" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "record",
    [{"family": "custom", "f": 5}, {**single_cycle_polynomial(5, 2).to_json(), "f": 5}],
    ids=["custom", "family"],
)
def test_a_map_whose_f_is_not_an_object_is_refused_in_one_wording(capsys, tmp_path, record):
    # a custom map reads f through RatFunc.from_json, a family member
    # checks it before it builds; both name f the same way
    with pytest.raises(ValueError, match="^f must be an object, not 5$"):
        BelyiMap.from_json(record)
    path = tmp_path / "f5.json"
    path.write_text(json.dumps(record))
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "verify: malformed map record: f must be an object, not 5\n")


@pytest.mark.parametrize(
    "f, message",
    [
        ({"num": ["1"]}, "a rational function needs num and den, not {'num': ['1']}"),
        ({"num": "12", "den": ["1"]}, "coefficients must be a list of strings, not '12'"),
        ({"num": ["1"], "den": None}, "coefficients must be a list of strings, not None"),
        ({"num": ["1"], "den": ["1"], "x": 1}, "f has unknown field 'x'"),
    ],
    ids=["no-den", "num-a-string", "den-null", "extra-field"],
)
@pytest.mark.parametrize("family", [None, "poly"])
def test_each_fault_in_the_shape_of_f_reads_one_way(capsys, tmp_path, f, message, family):
    # a custom map reads f through RatFunc.from_json and a family member
    # measures its stored degree; both take f's lists from one reader
    record = {"family": "custom"} if family is None else single_cycle_polynomial(5, 2).to_json()
    record = {**record, "f": f}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BelyiMap.from_json(record)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(record))
    assert main(["verify", str(path)]) == USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"verify: malformed map record: {message}\n")


def test_verify_fuzzed_map_records_exit_with_a_verdict_or_usage(tmp_path):
    # each record is a good one with one to three values replaced by other
    # JSON or deleted, half of them in the fields the reader rebuilds from;
    # whatever the result, it must be read as a verdict or as a malformed
    # record, never as a crash
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    good = [
        m.to_json()
        for m in (
            single_cycle_polynomial(5, 2),
            symmetric_single_cycle(6, 2),
            power_map(4),
            chebyshev_map(5),
        )
    ]
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | st.text(max_size=4)
        | st.sampled_from(["0", "-1", "2/3", "1/0", "single-cycle-poly", "custom"])
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )
    path = tmp_path / "fuzzed.json"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(good), st.data())
    def check(record, data):
        record = copy.deepcopy(record)
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(json_paths(record))
            labels = [p for p in paths if p in MAP_LABELS] or paths
            where = data.draw(st.sampled_from(paths) | st.sampled_from(labels))
            if not where:
                record = data.draw(values)
                continue
            parent = record
            for key in where[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[where[-1]]
            else:
                parent[where[-1]] = data.draw(values)
        path.write_text(json.dumps(record))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        assert code in (PASS, FAIL, USAGE), err.getvalue()
        assert "internal error" not in err.getvalue()

    check()


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    import belyi.cli

    def crash(gs):
        raise RuntimeError("boom")

    # the cached parser holds the handlers, so the crash goes one call below
    monkeypatch.setattr(belyi.cli, "Dessin", crash)
    assert main(["dessin", "3,3,5"]) == INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError('boom')\n"


def test_a_map_that_fails_its_type_exits_internal(capsys, monkeypatch):
    # the polynomial (7; 5, 3, 7) gets the pair of (7; 4, 4, 7), which its
    # constructor refuses: a fault in the library, not in the user's input
    from belyi import families

    build_map = families._single_cycle_ints
    monkeypatch.setattr(
        families, "_single_cycle_ints",
        lambda ct: build_map(CombinatorialType(ct.d, ct.e0 - 1, ct.e1 + 1, ct.e_inf)),
    )
    assert main(["construct", "poly", "--d", "7", "--k", "2"]) == INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal invariant violation: single-cycle-poly map (d, k) = (7, 2)"
        " is not the normalized map of type (5, 3, 7)\n"
    )


@pytest.mark.parametrize(
    "argv, argument",
    [(["dessin", "3,3,4"], "typespec"), (["verify", "no-such-file.json", "--type", "3,3,4"], "--type")],
    ids=["dessin", "verify"],
)
def test_a_bad_type_spec_is_a_usage_error_that_names_its_argument(capsys, argv, argument):
    # argparse refuses it, before any file is opened
    assert main(argv) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: belyi {argv[0]} ")
    message = "indices (3, 3, 4) sum to 10, which is even: no integer degree fits"
    assert captured.err.endswith(f"belyi {argv[0]}: error: argument {argument}: {message}\n")


def test_verify_constant_map(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text('{"family":"custom","f":{"num":["2"],"den":["1"]}}')
    assert main(["verify", str(path)]) == FAIL
    assert "constant map has no ramification profile" in capsys.readouterr().out


def test_verify_bad_type_argument(capsys, good_map):
    assert main(["verify", good_map, "--type", "3,3"]) == USAGE
    captured = capsys.readouterr()
    assert "argument --type: " in captured.err
    assert captured.out == ""  # rejected before any profile is printed


@pytest.mark.parametrize(
    "spec", ["1_0,5,6", "+3,3,5", "\u0663,3,5"], ids=["underscore", "sign", "arabic-digit"]
)
def test_indices_must_be_ascii_digits(capsys, good_map, spec):
    # int() accepts each of these: 1_0 reads as 10, \u0663 as 3
    assert main(["dessin", spec]) == USAGE
    captured = capsys.readouterr()
    assert "need three comma-separated indices" in captured.err
    assert captured.out == ""
    assert main(["verify", good_map, "--type", spec]) == USAGE
    captured = capsys.readouterr()
    assert "argument --type: " in captured.err
    assert captured.out == ""


def test_dessin_dot(capsys):
    assert main(["dessin", "3,3,5"]) == PASS
    out = capsys.readouterr().out
    assert out.startswith("graph dessin {\n")
    assert out.count(" -- ") == 5
    assert 'b2 -- w0 [label="3"];' in out


def test_dessin_json(capsys):
    assert main(["dessin", "8,5,8", "--format", "json"]) == PASS
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 10
    assert [3, 10, 9, 8, 7, 6, 5, 4] in data["black"]


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize("family", ["poly", "symmetric"])
def test_construct_json_is_the_catalog_line_of_its_type(capsys, family):
    # every member with d <= 12 prints the line the catalog stores for its
    # type, and every catalog map of the family is one of them
    catalog = io.StringIO()
    write_catalog(12, catalog)
    lines = {}
    for line in catalog.getvalue().splitlines():
        record = json.loads(line)
        t = record["type"]
        lines[t["e0"], t["e1"], t["eInf"]] = line, record["map"]
    printed = set()
    for d in range(3, 13):
        for k in range(1, d - 1 if family == "poly" else (d + 1) // 2):
            e = (d - k, k + 1, d) if family == "poly" else (d - k, 2 * k + 1, d - k)
            assert main(["construct", family, "--d", str(d), "--k", str(k), "--format", "json"]) == PASS
            assert capsys.readouterr().out == lines[e][0] + "\n"
            printed.add(e)
    tag = "single-cycle-poly" if family == "poly" else "symmetric-single-cycle"
    assert printed == {e for e, (_, m) in lines.items() if m is not None and m["family"] == tag}


# The construct checks of the console-script step, run in process: the
# lines each text case must print verbatim, and the catalog, `enumerate
# --dmax`, whose one line of its type each json case must print, with a map
# that verifies.  Poly (5, 2)'s text lines are in POLY_5_2_TEXT, which
# test_construct_poly_text compares whole; its JSON line is written out
# too, with the (5; 3, 3, 5) double star's shape: three stored counts and
# both hub degrees derived.
POLY_5_2_JSON = (
    '{"type":{"d":5,"e0":3,"e1":3,"eInf":5},'
    '"map":{"family":"single-cycle-poly","d":5,"k":2,'
    '"params":{"a":["1/5","-1/2","1/3"],"c":"30"},'
    '"f":{"num":["0","0","0","10","-15","6"],"den":["1"]},'
    '"type":{"d":5,"e0":3,"e1":3,"eInf":5}},'
    '"gensys":{"d":5,"sigma0":[[1],[2],[3,5,4]],"sigma1":[[1,2,3],[4],[5]],"sigmaInf":[[1,4,5,3,2]]},'
    '"dessin":{"d":5,"black":[[1],[2],[3,5,4]],"white":[[1,2,3],[4],[5]]},'
    '"invariants":{"genus":0,"diameter":4,'
    '"shape":{"whiteLeaves":2,"blackLeaves":2,"parallelEdges":1,"blackHubDegree":3,"whiteHubDegree":3},'
    '"isBelyi":true}}'
)
CONSTRUCT_CASES = {
    "chebyshev-6": (["chebyshev", "--d", "6"], ["f = 16x^6 - 24x^4 + 9x^2"], None),
    "power-7": (["power", "--d", "7"], ["f = x^7"], None),
    "symmetric-10-2": (
        ["symmetric", "--d", "10", "--k", "2"],
        [
            "a = (42, 120, 90)",
            "  = x^8 * (42x^2 - 120x + 90) / (90x^2 - 120x + 42)",
            "f = ((7/15)x^10 - (4/3)x^9 + x^8) / (x^2 - (4/3)x + 7/15)",
        ],
        None,
    ),
    "poly-5-2-json": (["poly", "--d", "5", "--k", "2", "--format", "json"], [POLY_5_2_JSON], 5),
    "symmetric-10-2-json": (["symmetric", "--d", "10", "--k", "2", "--format", "json"], [], 10),
    # built with no gcd and proven reduced by its certificate, at the cap
    "symmetric-40-15-json": (["symmetric", "--d", "40", "--k", "15", "--format", "json"], [], 40),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCT_CASES))
def test_the_console_scripts_construct_checks(case, capsys, tmp_path):
    args, lines, dmax = CONSTRUCT_CASES[case]
    assert main(["construct", *args]) == PASS
    out = capsys.readouterr().out
    assert set(lines) <= set(out.splitlines())
    if dmax is None:
        return
    line = out.removesuffix("\n")
    assert "\n" not in line and line + "\n" == out
    catalog = tmp_path / "catalog.jsonl"
    assert main(["enumerate", "--dmax", str(dmax), "--out", str(catalog)]) == PASS
    record = json.loads(line)
    prefix = _compact({"type": record["type"]})[:-1] + ","
    assert [x for x in catalog.read_text().splitlines() if x.startswith(prefix)] == [line]
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(record["map"]))
    capsys.readouterr()
    assert main(["verify", str(map_path)]) == PASS
    ct = CombinatorialType.from_json(record["type"])
    assert f"claimed type {ct}: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["power", "chebyshev"])
@pytest.mark.parametrize("d", [3, 4, 12])
def test_construct_json_is_one_line_that_reads_back(capsys, family, d):
    assert main(["construct", family, "--d", str(d), "--format", "json"]) == PASS
    out = capsys.readouterr().out
    line = out.removesuffix("\n")
    assert "\n" not in line and line + "\n" == out
    record = TriptychRecord.from_json(json.loads(line))
    record.validate()
    assert _compact(record.to_json()) == line


# The dessin checks of the console-script step, run in process: the
# canonical (5; 3, 3, 5) triple and the closed form's boundaries e0 = d and
# e1 = d, each printed as the literal cycles of sigma0 (black) and sigma1
# (white) that the canonical triple keeps.
DESSIN_CASES = {
    "3,3,5": {"d": 5, "black": [[1], [2], [3, 5, 4]], "white": [[1, 2, 3], [4], [5]]},
    "5,2,4": {"d": 5, "black": [[1, 5, 4, 3, 2]], "white": [[1, 2], [3], [4], [5]]},
    "2,5,4": {"d": 5, "black": [[1], [2], [3], [4, 5]], "white": [[1, 2, 3, 4, 5]]},
}


@pytest.mark.parametrize("spec", sorted(DESSIN_CASES))
def test_the_console_scripts_dessin_checks(spec, capsys):
    assert main(["dessin", spec, "--format", "json"]) == PASS
    assert capsys.readouterr().out == _compact(DESSIN_CASES[spec]) + "\n"


@pytest.mark.parametrize("spec", ["3,3,5", "8,5,8", "2,2,3", "4,4,5"])
def test_dessin_json_is_the_compact_dessin(capsys, spec):
    assert main(["dessin", spec, "--format", "json"]) == PASS
    ct = CombinatorialType.from_indices(*map(int, spec.split(",")))
    want = dessin_from_gensys(canonical_single_cycle(ct)).to_json()
    assert capsys.readouterr().out == _compact(want) + "\n"


def test_dessin_impossible_type(capsys):
    assert main(["dessin", "2,2,2"]) == USAGE
    err = capsys.readouterr().err
    assert "sum to 6, which is even: no integer degree fits" in err
    assert main(["dessin", "4,4,4", "--format", "json"]) == USAGE
    assert capsys.readouterr().out == ""


def test_dessin_out_of_range_type(capsys):
    assert main(["dessin", "2,2,7"]) == USAGE
    assert "outside the valid range" in capsys.readouterr().err


def _build_nothing(*args):
    raise AssertionError("built past the degree cap")


@pytest.mark.parametrize(
    "argv, message",
    [(["construct", "poly", "--d", "1001", "--k", "1"], "construct: --d must be at most 1000, got 1001"),
     (["construct", "symmetric", "--d", "1001", "--k", "1"], "construct: --d must be at most 1000, got 1001"),
     (["construct", "power", "--d", "1001"], "construct: --d must be at most 1000, got 1001"),
     (["construct", "chebyshev", "--d", "1001", "--format", "json"],
      "construct: --d must be at most 1000, got 1001"),
     (["construct", "power", "--d", "1000000000"], "construct: --d must be at most 1000, got 1000000000"),
     (["dessin", "1001,1000,2"], "dessin: degree must be at most 1000, got 1001"),
     (["dessin", "1000000000,1000000000,1000000001", "--format", "json"],
      "dessin: degree must be at most 1000, got 1500000000")],
    ids=["poly", "symmetric", "power", "chebyshev", "power-1e9", "dessin", "dessin-1e9"],
)
def test_a_degree_past_the_cap_is_refused_before_anything_is_built(argv, message, capsys, monkeypatch):
    import belyi.cli

    monkeypatch.setattr(belyi.cli.TriptychRecord, "for_family", _build_nothing)
    monkeypatch.setattr(belyi.cli, "canonical_single_cycle", _build_nothing)
    assert belyi.cli.MAX_DEGREE == 1000
    assert main(argv) == USAGE
    assert capsys.readouterr() == ("", message + "\n")


# maps whose stored f is one past the degree cap, in num or in den; the
# family member states the degree its f is stored at
MAPS_PAST_THE_CAP = {
    "custom-num": {"family": "custom", "f": {"num": ["0"] * 1001 + ["1"], "den": ["1"]}},
    "custom-den": {"family": "custom", "f": {"num": ["1"], "den": ["0"] * 1001 + ["1"]}},
    "poly-family": {"family": "single-cycle-poly", "d": 1001, "k": 1,
                    "f": {"num": ["0"] * 1001 + ["1"], "den": ["1"]}},
}


@pytest.mark.parametrize("case", MAPS_PAST_THE_CAP)
def test_verify_refuses_a_map_past_the_cap_before_it_reads_a_coefficient(case, capsys, tmp_path,
                                                                          monkeypatch):
    import belyi.exact
    import belyi.families

    for module, name in [(belyi.exact, "parse_rational"), (belyi.exact, "_int_gcd"),
                         (belyi.exact, "squarefree_decomposition"),
                         (belyi.families, "squarefree_decomposition"),
                         (belyi.families, "family_map_for_type")]:
        monkeypatch.setattr(module, name, _build_nothing)
    monkeypatch.setattr(belyi.families.Family, "member", _build_nothing)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(MAPS_PAST_THE_CAP[case]))
    assert main(["verify", str(path)]) == USAGE
    assert capsys.readouterr() == (
        "", "verify: malformed map record: map degree must be at most 1000, got 1001\n")


def test_verify_reads_maps_at_the_degree_cap(capsys, tmp_path):
    path = tmp_path / "map.json"
    for data in ({"family": "custom", "f": {"num": ["0"] * 1000 + ["1"], "den": ["1"]}},
                 single_cycle_polynomial(1000, 1).to_json()):
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == PASS
        out = capsys.readouterr().out
        assert "degree: 1000\n" in out and "belyi: yes\n" in out


def test_construct_and_dessin_build_at_the_degree_cap(capsys):
    assert main(["construct", "poly", "--d", "1000", "--k", "1", "--format", "json"]) == PASS
    assert json.loads(capsys.readouterr().out)["type"] == {"d": 1000, "e0": 999, "e1": 2, "eInf": 1000}
    assert main(["dessin", "1000,501,500", "--format", "json"]) == PASS
    assert json.loads(capsys.readouterr().out)["d"] == 1000


def test_enumerate(capsys, tmp_path):
    out_path = tmp_path / "catalog.jsonl"
    assert main(["enumerate", "--dmax", "5", "--out", str(out_path)]) == PASS
    out = capsys.readouterr().out
    assert "d=3: 3 types" in out
    assert "d=4: 7 types" in out
    assert "d=5: 12 types" in out
    assert f"total: 22 records -> {out_path}" in out
    lines = out_path.read_text().splitlines()
    assert len(lines) == 22
    assert all(json.loads(line)["invariants"]["genus"] == 0 for line in lines)


def test_enumerate_dmax_bounds(capsys, tmp_path):
    out_path = str(tmp_path / "x.jsonl")
    assert main(["enumerate", "--dmax", "2", "--out", out_path]) == USAGE
    assert main(["enumerate", "--dmax", "41", "--out", out_path]) == USAGE
    assert "--dmax must be in 3..40, got 41" in capsys.readouterr().err
    # 31, refused up to the cap of 30, is now written
    assert main(["enumerate", "--dmax", "31", "--out", out_path]) == PASS
    assert "d=31: 493 types\n" in capsys.readouterr().out


def test_enumerate_at_the_cap_keeps_its_bytes(capsys, tmp_path):
    # the --dmax 40 catalog: 11,362 records, each degree's triples sharing
    # one sigma0 per e0 and one sigma1 per e1
    out_path = tmp_path / "c40.jsonl"
    assert main(["enumerate", "--dmax", "40", "--out", str(out_path)]) == PASS
    assert f"total: 11362 records -> {out_path}" in capsys.readouterr().out.splitlines()
    data = out_path.read_bytes()
    assert data.count(b"\n") == 11362
    assert hashlib.sha256(data).hexdigest() == (
        "34df773349111fd8f764027de427453c075845fcae186c426fd6b6faf28a331d"
    )


def test_enumerate_has_no_dedup_flag(capsys, tmp_path):
    out_path = str(tmp_path / "x.jsonl")
    assert main(["enumerate", "--dmax", "3", "--out", out_path, "--dedup"]) == USAGE
    assert "unrecognized arguments: --dedup" in capsys.readouterr().err


def test_enumerate_unwritable_path(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.jsonl")
    assert main(["enumerate", "--dmax", "3", "--out", target]) == USAGE
    assert "cannot write" in capsys.readouterr().err


def test_usage_errors_from_argparse(capsys):
    assert main([]) == USAGE
    assert main(["construct", "warp", "--d", "5"]) == USAGE
    assert main(["--help"]) == PASS
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "belyi.cli", "construct", "poly", "--d", "5", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == PASS
    assert proc.stdout == POLY_5_2_TEXT


@pytest.mark.parametrize(
    "unbuffered, argv",
    [
        # buffered, the short text output first meets the closed pipe when
        # entry() flushes, and would again at interpreter exit
        ("", ["construct", "poly", "--d", "5", "--k", "2"]),
        # unbuffered, the JSON output meets it inside the subcommand
        ("1", ["construct", "symmetric", "--d", "40", "--k", "7", "--format", "json"]),
    ],
    ids=["flush-at-exit", "write-in-command"],
)
def test_a_reader_that_closed_stdout_gets_exit_141_and_no_message(unbuffered, argv):
    # the read end is closed before the CLI writes, as when `| head` has left
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "belyi.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, "")


# sha256 of stdout for each family at a fixed (d, k): `construct` in each
# format, and `verify` on the map record that `construct --format json` prints
PINNED_STDOUT = {
    ("poly", "text"): "7cc0e71ee1344df17132918940cc5d22a52a8dc563d8ae4c4b8a45b1f2b794f0",
    ("poly", "json"): "4753d67d95dc5607dc8882714cb9efba586d1717354db867702b5ab2805aa92f",
    ("poly", "dot"): "e8759d4f5ce2132b902306c38363785e733df2029978706c0719d7ea7dbf13d3",
    ("poly", "verify"): "a4ed259255b0894149f0fd5bf6ae556409e91f5a61e68ab203c0269a1a5be1ee",
    ("symmetric", "text"): "f7110d6e0652e3b747eec7f8c7086cdf618ed64a9da00ce509657ec566ca6283",
    ("symmetric", "json"): "aecf8020cbcc8061d78f48bb220387d5c997bd3ec6e1b08e88a580a6a6e03e05",
    ("symmetric", "dot"): "b4d4796ac480a0079bdfe7e7817233d727391899efc948464f3c79b91c6df4ee",
    ("symmetric", "verify"): "3bb1ec5ad9203ad0c0c2ef2ca2b47658db8fa42052127ef91aaaf9eb53f45b6e",
    ("power", "text"): "f754016b406ca8c72ca9d6405a47433abb727b38a4566e6a9d6f086efc1c18e8",
    ("power", "json"): "45ef59e9cbdc8fc9ed86637a656a6017417b46e66ce30f096d7387bf6b171683",
    ("power", "dot"): "828d4b043ac8a7985ee13efc8056f52ae00e91a1f309fb2f8d7bf5ebbdb9ed55",
    ("power", "verify"): "96b3386a4dcb2dce7aa70ac0f999d005e540d525c921a6ee12debb9d55ddd066",
    ("chebyshev", "text"): "02032ec811de7c53704930a6a6307315ef1775703538a4c1ac60bf35792b4b92",
    ("chebyshev", "json"): "e219dc4d52aa989054b8df5c9546775d9291a1dc2661e6ebca011ff5ed1863cf",
    ("chebyshev", "dot"): "4c90e2d0db5afd89ee8e1328b6f61d3676d9bd0fcdd45f1dd61ccaf0d0d8bee9",
    ("chebyshev", "verify"): "66312cd063c2443bc0663ba0deecab9f4ecae0ae51bb9f9717b0ba8de2428b4c",
}
PINNED_ARGS = {"poly": ["--d", "14", "--k", "4"], "symmetric": ["--d", "14", "--k", "4"],
               "power": ["--d", "12"], "chebyshev": ["--d", "12"]}


@pytest.mark.parametrize("family, output", sorted(PINNED_STDOUT))
def test_construct_and_verify_stdout_is_pinned(family, output, capsys, tmp_path):
    construct = ["construct", family, *PINNED_ARGS[family], "--format"]
    if output == "verify":
        assert main(construct + ["json"]) == PASS
        record = tmp_path / "map.json"
        record.write_text(json.dumps(json.loads(capsys.readouterr().out)["map"]))
        assert main(["verify", str(record)]) == PASS
    else:
        assert main(construct + [output]) == PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[family, output]


# sha256 of DOT stdout at the degree cap, past the d <= 14 pins above:
# `dessin` at a type with eInf = d and at one with e0, e1, eInf near equal,
# and `construct power --d 1000 --format dot`
PINNED_DEGREE_1000_DOT = {
    ("dessin", "500,501,1000"): "6ccb99a303ee9d8488e01c00a6042d9110985d42946a553b9a73f5e6d0ba25c9",
    ("dessin", "667,667,667"): "9b3376c62b5261fe008e2b3ff41d511604544146268de4562c174e9f60c35bad",
    ("construct", "power"): "38b8ac0b785496caedef1f2e31c41687c35388ef2ab353e934f30f802a6e5238",
}


@pytest.mark.parametrize("command, arg", sorted(PINNED_DEGREE_1000_DOT))
def test_dot_at_degree_1000_is_pinned(command, arg, capsys):
    argv = [command, arg] if command == "dessin" else [command, arg, "--d", "1000", "--format", "dot"]
    assert main(argv) == PASS
    out = capsys.readouterr().out
    assert out.count(" -- ") == 1000
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DEGREE_1000_DOT[command, arg]


# sha256 of `construct --format json` stdout for members near d = 100,
# where the coefficients run to hundreds of digits, and another type of the
# member's degree: its map record verifies as its own type, not as that one
PINNED_HIGH_DEGREE_JSON = {
    ("poly", 100, 49): ("f7b520dfabed4b3e2d21b0d089b4a01fce00bfc7f5499aa04dfaa8bf0791591b",
                        (50, 51, 100)),
    ("symmetric", 99, 49): ("e461ef732c16326650f9e7da95603cc7c16c491217c49fb995f387d16833f3bc",
                            (49, 99, 51)),
    ("symmetric", 100, 30): ("11981e78f95095ff47f75bb11ae0ba1f8084deca37b0525e233c842b1af939cb",
                             (69, 62, 70)),
}


@pytest.mark.parametrize("family, d, k", sorted(PINNED_HIGH_DEGREE_JSON))
def test_construct_json_near_degree_100_is_pinned(family, d, k, capsys, tmp_path):
    digest, other = PINNED_HIGH_DEGREE_JSON[family, d, k]
    assert main(["construct", family, "--d", str(d), "--k", str(k), "--format", "json"]) == PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    record = json.loads(out)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(record["map"]))
    assert main(["verify", str(path)]) == PASS
    ct = CombinatorialType.from_json(record["type"])
    assert f"claimed type {ct}: PASS" in capsys.readouterr().out
    assert main(["verify", str(path), "--type", ",".join(map(str, other))]) == FAIL
    assert f"claimed type {other}: FAIL" in capsys.readouterr().out


# `verify` on custom maps, which are read through RatFunc.from_json where
# family maps are rebuilt from (family, d, k): f, or the whole record, and
# the extra arguments -> exit code and sha256 of stdout + "\0" + stderr
POLY_5_2_AS_CUSTOM = {
    "family": "custom", "d": 5, "k": None, "type": {"d": 5, "e0": 3, "e1": 3, "eInf": 5},
    "f": {"num": ["0", "0", "0", "10", "-15", "6"], "den": ["1"]},
}
PINNED_CUSTOM_VERIFY = {
    "x^2": (CUSTOM_MAP["f"], [], PASS,
            "6f201cd56af3ca5001effdc6d5fad9e9fc43016d87bcf1d13f4a17fd908c91bb"),
    "x^2-typed": (CUSTOM_MAP["f"], ["--type", "2,2,3"], FAIL,
                  "8530d150d1932939cd2e8d3492dcef30ae3946d4f3ec8854c286adfc22fb2e00"),
    "unreduced-3x^2": ({"num": ["0", "0", "2"], "den": ["2/3"]}, [], PASS,
                       "6f201cd56af3ca5001effdc6d5fad9e9fc43016d87bcf1d13f4a17fd908c91bb"),
    "x^3-3x": ({"num": ["0", "-3", "0", "1"], "den": ["1"]}, [], FAIL,
               "5830bfcab2a2e44d1ba2692690662910d54944cc385842aa2504308ebd0c89b0"),
    "poly-5-2-as-custom": (POLY_5_2_AS_CUSTOM, [], PASS,
                           "3cbb5e5f9163a1195ee731a84efb058203fa18ba6e695e60ed349a6a9337504c"),
    "rational-den": ({"num": ["0", "0", "1/2"], "den": ["-1/2", "1/2"]}, [], FAIL,
                     "02e91f3154bd88e634f49c81970e8139573bc1472994de8516b3cd4cad1a1ff5"),
    "float-coefficient": ({"num": ["0", 1.5], "den": ["1"]}, [], USAGE,
                          "5e76012a9fcf5d6ca7a9d2242f3a95dc9a490cb585d1c03f9d2e7266c04881bb"),
    "num-string": ({"num": "12", "den": ["1"]}, [], USAGE,
                   "441a1963f45afb4091f75bf296ca27c96ee72994967c4be555bdab441cb9bb40"),
    "constant": ({"num": ["3"], "den": ["1"]}, [], FAIL,
                 "0e9152cfb83c04515c1662518c05c8d0cc3569ba5b5b7b4752bb9c6448bcc3e9"),
    "custom-k": ({**CUSTOM_MAP, "k": 7}, [], USAGE,
                 "8d68ad3bf5951dabc1c768def8d03461412bb11ff330de8d869cedb4951f4b31"),
    # one short stderr line names the coefficient in brief, not in full
    "long-coefficient": ({"num": ["x" * 1_000_000], "den": ["1"]}, [], USAGE,
                         "8913f09d30789866acaa0860ecd2ec98f441d843568f849da43e0ff7fb422e92"),
}


@pytest.mark.parametrize("case", PINNED_CUSTOM_VERIFY)
def test_custom_map_verify_output_is_pinned(case, capsys, tmp_path):
    data, argv, code, digest = PINNED_CUSTOM_VERIFY[case]
    if "f" not in data:
        data = {"family": "custom", "f": data}
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data))
    got = main(["verify", str(path), *argv])
    captured = capsys.readouterr()
    assert got == code
    assert hashlib.sha256(f"{captured.out}\0{captured.err}".encode()).hexdigest() == digest
