"""Tests of the benchmark's own code: tracer, timing, inputs and checks."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from speedbench import refkernel
from speedbench.meter import RefMeter, percentile, quartile_spread
from speedbench.run import END_TO_END, kernel_imports
from speedbench.tracer import PER_LAYER, Tracer, aggregate, self_times_ns
from speedbench.workloads import (
    DessinExport,
    MapVerify,
    belyi_modules,
    check_verify,
    dessin_types,
    expected_type,
    map_members,
    type_count,
)

ROOT = Path(__file__).resolve().parent.parent


def _snapshot(prefix: str) -> dict:
    """Identity of every attribute of every module under prefix and of every
    class those modules define."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    snap[(name, key, attr)] = raw
    return snap


def _assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_tracer_restores_every_original():
    B = belyi_modules()
    before = _snapshot("belyi")
    orig_yun = B.exact.squarefree_decomposition
    tracer = Tracer()
    with tracer:
        # wrapped everywhere the function is bound, and on classes
        assert B.families.squarefree_decomposition is not orig_yun
        assert sys.modules["belyi"].squarefree_decomposition is not orig_yun
        assert B.exact.squarefree_decomposition is B.families.squarefree_decomposition
        assert "from_json" in vars(B.catalog.TriptychRecord)
        B.catalog.TriptychRecord.for_family("poly", 6, 2).validate()
    _assert_same(before, _snapshot("belyi"))
    names = {s[2] for s in tracer.spans}
    assert {"catalog.for_family", "families.construct", "exact.squarefree_decomposition",
            "perm.cycles", "catalog.validate"} <= names
    assert tracer.counters["exact.yun_max_coeff_bits"] > 0


def test_tracer_restores_originals_after_an_exception():
    B = belyi_modules()
    before = _snapshot("belyi")
    with pytest.raises(ValueError):
        with Tracer():
            B.catalog.TriptychRecord.for_family("nosuch", 5, 1)
    _assert_same(before, _snapshot("belyi"))


def test_tracer_restores_originals_when_install_fails():
    belyi_modules()
    before = _snapshot("belyi")
    targets = Tracer().targets + (("missing", "belyi.nosuch", "f"),)
    with pytest.raises(KeyError):
        Tracer(targets=targets).install()
    _assert_same(before, _snapshot("belyi"))


def _fake_package():
    mod = types.ModuleType("fakepkg")
    other = types.ModuleType("fakepkg.other")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    class Thing:
        @classmethod
        def make(cls, x):
            return outer(x)

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    other.inner = inner  # bound a second time elsewhere
    return mod, other


def test_tracer_nests_spans_and_wraps_classmethods(monkeypatch):
    mod, other = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", mod)
    monkeypatch.setitem(sys.modules, "fakepkg.other", other)
    targets = (("inner", "fakepkg", "inner"), ("outer", "fakepkg", "outer"),
               ("make", "fakepkg", "Thing.make"))
    raw_make = vars(mod.Thing)["make"]
    inner = mod.inner
    tracer = Tracer(targets=targets, probes={}, prefix="fakepkg")
    with tracer:
        assert other.inner is not inner
        assert mod.Thing.make(1) == 4
    assert other.inner is inner and vars(mod.Thing)["make"] is raw_make
    by_name = {}
    for sid, parent, name, _s, _e in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (make_id, make_parent), = by_name["make"]
    assert make_parent == 0
    # outer was called through the closure, not the module, so it is
    # untraced; inner's two calls are children of make
    assert [p for _sid, p in by_name["inner"]] == [make_id, make_id]
    assert "outer" not in by_name


def test_self_time_on_nested_and_overlapping_spans():
    spans = [
        (1, 0, "root", 0, 100),
        (2, 1, "a", 10, 40),
        (3, 1, "b", 30, 60),    # overlaps a
        (4, 1, "c", 70, 80),
        (5, 2, "leaf", 15, 20),
        (6, 4, "wide", 75, 95),  # runs past its parent's end
    ]
    assert self_times_ns(spans) == {1: 40, 2: 25, 3: 30, 4: 5, 5: 5, 6: 20}
    agg = aggregate(spans + [(7, 0, "a", 200, 210)])
    assert (agg["a"].calls, agg["a"].total_ns, agg["a"].self_ns) == (2, 40, 35)


def test_same_seed_same_operations():
    assert map_members(7) == map_members(7)
    assert map_members(7) != map_members(8)
    assert dessin_types(7) == dessin_types(7)
    assert dessin_types(7) != dessin_types(8)


def test_generated_inputs_are_valid_and_stratified():
    members = map_members(3)
    assert len(members) == 64
    for family, d, k in members:
        assert 40 <= d <= 100
        assert 1 <= k <= (d - 2 if family == "poly" else (d - 1) // 2)
        e0, e1, e_inf = expected_type(family, d, k)
        assert e0 + e1 + e_inf == 2 * d + 1
    types_ = dessin_types(3)
    assert len(types_) == 120
    B = belyi_modules()
    for e0, e1, e_inf in types_:
        ct = B.gensys.CombinatorialType.from_indices(e0, e1, e_inf)
        assert 60 <= ct.d <= 120


def test_type_count_matches_the_library():
    B = belyi_modules()
    for d in range(3, 16):
        assert type_count(d) == (d + 3) * (d - 2) // 2 == len(B.gensys.valid_types(d))


def test_broken_map_counts_as_a_failure(tmp_path):
    B = belyi_modules()
    data = B.catalog.TriptychRecord.for_family("poly", 6, 2).to_json()["map"]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    data["f"]["num"][-1] = "11"  # no longer the family member
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    want = expected_type("poly", 6, 2)
    ops = [(["verify", str(p)], check_verify, want) for p in (good, broken)]
    wl = MapVerify()
    checked = wl.check(B, ops, wl.run(B, ops, RefMeter()))
    assert (checked.attempted, checked.failed) == (2, 1)


def test_dessin_check_catches_a_wrong_dessin():
    B = belyi_modules()
    wl = DessinExport()
    cts = wl.build(B, 1, None, RefMeter())[:3]
    outputs = wl.run(B, cts, RefMeter())
    assert wl.check(B, cts, outputs).failed == 0
    genus, diameter, shape, dot, js = outputs[0][0]
    outputs[0] = ((genus, 5, shape, dot, js), None)
    assert wl.check(B, cts, outputs).failed == 1


def test_meter_scales_by_the_kernel():
    meter = RefMeter(period_s=0.0, kernel=lambda: 2 * refkernel.NOMINAL_S)
    for _ in range(3):
        meter.begin()
        meter.end(2)
    timing = meter.finish()
    assert timing.units == 6 and len(timing.kernel_s) == 4
    for s in timing.samples:
        assert s.scaled_s == pytest.approx(s.raw_s / 2)


def test_spread_and_percentile():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((6 - 2) / 4)
    assert percentile(list(range(1, 101)), 50) == pytest.approx(50.5)


def test_reference_kernel_is_independent_of_belyi():
    assert "belyi" not in kernel_imports()
    assert refkernel.timed_kernel() > 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    from speedbench.workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, wl.why) for name, wl in WORKLOADS.items()
    ]
