"""The benchmark's workloads.

Each workload builds its inputs from the seed during set-up, runs one pass
(a fixed sequence of operations, every one timed through a ``RefMeter``)
and afterwards checks the outputs of that pass.  All calls into ``belyi``
go through the module objects in ``B`` and are looked up at call time, so
the tracer sees them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from .meter import RefMeter

LAYERS = ("exact", "perm", "gensys", "dessin", "families", "catalog", "cli")


def belyi_modules() -> SimpleNamespace:
    """The loaded ``belyi`` modules, one attribute per layer."""
    importlib.import_module("belyi.cli")  # the package, then its CLI
    return SimpleNamespace(**{n: sys.modules[f"belyi.{n}"] for n in LAYERS})


def load_belyi() -> SimpleNamespace:
    """Import ``belyi`` afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "belyi" or n.startswith("belyi.")]:
        del sys.modules[name]
    return belyi_modules()


def type_count(d: int) -> int:
    """Number of single-cycle types of degree d, counted by brute force."""
    return sum(
        1
        for e0 in range(2, d + 1)
        for e1 in range(2, d + 1)
        if 2 <= 2 * d + 1 - e0 - e1 <= d
    )


def _band(lo: int, hi: int, i: int, n: int) -> tuple[int, int]:
    """The i-th of n near-equal consecutive bands of lo..hi."""
    width = hi - lo + 1
    return lo + width * i // n, lo + width * (i + 1) // n - 1


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.messages.append(error)

    def miscount(self, what: str, got: int, want: int) -> None:
        """Records missing from, or extra in, one degree count as failures."""
        self.failed += abs(got - want)
        self.messages.append(f"{what} {got} records, want {want}")


def _guarded(fn, *args):
    """Run one operation; an exception is its failure, not the benchmark's."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
        return None, "".join(traceback.format_exception_only(exc)).strip()


class Workload:
    """A workload: ``build`` makes the inputs during set-up, ``run`` times
    one pass over them, ``check`` judges that pass's outputs."""

    name: str
    why: str  # one line, copied into BENCHMARK.json
    setup_reps = 3

    def catalog_bytes(self, inputs, outputs) -> int:
        """Catalog bytes a pass writes or reads (the ``catalog.bytes`` metric)."""
        return 0


# ---- catalog_build ----------------------------------------------------------


class _MeteredSink:
    """A text sink for ``write_catalog``; each write finishes one record
    (during set-up, where units are not counted, it is a checkpoint)."""

    def __init__(self, meter: RefMeter):
        self.meter = meter
        self.parts: list[str] = []

    def write(self, s: str) -> int:
        self.meter.end(1)
        self.parts.append(s)
        self.meter.begin()
        return len(s)


class CatalogBuild(Workload):
    name = "catalog_build"
    why = "write_catalog(30): the enumerate --dmax 30 headline, mixed exact, perm, dessin and catalog work"
    setup_reps = 25
    dmax = 30

    def __init__(self):
        self._checked_text: str | None = None

    def build(self, B, seed: int, workdir: Path, meter: RefMeter):
        return None  # the catalog is fixed by dmax; the seed does not change it

    def run(self, B, inputs, meter: RefMeter):
        sink = _MeteredSink(meter)
        meter.begin()
        counts = B.catalog.write_catalog(self.dmax, sink)
        meter.end(0)
        return counts, "".join(sink.parts)

    def catalog_bytes(self, inputs, outputs) -> int:
        return len(outputs[1].encode())

    def check(self, B, inputs, outputs) -> Checked:
        counts, text = outputs
        records = [json.loads(line) for line in text.splitlines()]
        per_degree = Counter(obj["gensys"]["d"] for obj in records)
        out = Checked()
        for d in range(3, self.dmax + 1):
            want = type_count(d)
            if counts.get(d) != want or per_degree[d] != want:
                out.miscount(f"d={d}: returned {counts.get(d)}, wrote", per_degree[d], want)
        if text == self._checked_text:
            out.attempted += len(records)  # byte-identical to a pass checked below
            return out
        for obj in records:
            back, err = _guarded(lambda o: B.catalog.TriptychRecord.from_json(o).to_json(), obj)
            if err is None and back != obj:
                err = f"record {obj['type']} does not round-trip through from_json"
            out.record(err)
        if not out.failed:
            self._checked_text = text
        return out


# ---- catalog_read -----------------------------------------------------------


class CatalogRead(Workload):
    name = "catalog_read"
    why = "from_json + validate over a written d<=20 catalog: the same layers read back, where a build-side saving may move cost"
    dmax = 20

    def build(self, B, seed: int, workdir: Path, meter: RefMeter):
        sink = _MeteredSink(meter)
        B.catalog.write_catalog(self.dmax, sink)
        lines = "".join(sink.parts).splitlines()
        random.Random(seed).shuffle(lines)
        return lines

    def run(self, B, lines, meter: RefMeter):
        results = []
        TriptychRecord = B.catalog.TriptychRecord
        for line in lines:
            meter.begin()
            rec, err = _guarded(self._read, TriptychRecord, line)
            meter.end(1)
            results.append((rec, err))
        return results

    @staticmethod
    def _read(TriptychRecord, line: str):
        rec = TriptychRecord.from_json(json.loads(line))
        rec.validate()
        return rec

    def catalog_bytes(self, lines, outputs) -> int:
        return sum(len(line.encode()) + 1 for line in lines)

    def check(self, B, lines, outputs) -> Checked:
        out = Checked()
        per_degree: Counter[int] = Counter()
        for rec, err in outputs:
            if err is None and (rec.ctype is None or rec.genus != 0):
                err = "record without a single-cycle type of genus 0"
            if err is None:
                per_degree[rec.ctype.d] += 1
            out.record(err)
        for d in range(3, self.dmax + 1):
            if per_degree[d] != type_count(d):
                out.miscount(f"d={d}: read valid", per_degree[d], type_count(d))
        return out


# ---- map_verify -------------------------------------------------------------


def expected_type(family: str, d: int, k: int) -> tuple[int, int, int]:
    """(e0, e1, eInf) of a family member, from the families' definitions."""
    if family == "poly":
        return (d - k, k + 1, d)
    return (d - k, 2 * k + 1, d - k)


MAP_D_POINTS, MAP_K_POINTS = 8, 4  # 2 families x 8 x 4 = 64 members, 128 CLI calls


def map_members(seed: int) -> list[tuple[str, int, int]]:
    """A seeded mix of poly and symmetric members with 40 <= d <= 100.

    The members sit on a grid of degrees and of k as a share of its range;
    the seed moves each one by up to 1 in d and in k, and shuffles them.
    Construction cost rises steeply with d and k, so this keeps the total
    work of a pass nearly the same for every seed.
    """
    rng = random.Random(seed)
    members = []
    for family in ("poly", "symmetric"):
        for j in range(MAP_D_POINTS):
            for i in range(MAP_K_POINTS):
                d = 40 + 60 * (2 * j + 1) // (2 * MAP_D_POINTS) + rng.randint(-1, 1)
                kmax = d - 2 if family == "poly" else (d - 1) // 2
                k = round(kmax * (2 * i + 1) / (2 * MAP_K_POINTS)) + rng.randint(-1, 1)
                members.append((family, d, min(kmax, max(1, k))))
    rng.shuffle(members)
    return members


def _call_cli(B, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = B.cli.main(argv)
    return code, out.getvalue()


def check_construct(code: int, stdout: str, want: tuple[int, int, int]) -> str | None:
    if code != 0:
        return f"construct exited {code}"
    try:
        rec = json.loads(stdout)
        t = rec["type"]
        got = (t["e0"], t["e1"], t["eInf"])
        belyi = rec["invariants"]["isBelyi"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"construct printed no record: {exc}"
    if got != want or belyi is not True:
        return f"construct gave type {got} (isBelyi {belyi}), want {want}"
    return None


def check_verify(code: int, stdout: str, want: tuple[int, int, int]) -> str | None:
    if code != 0 or f"claimed type {want}: PASS" not in stdout:
        return f"verify exited {code} without PASS for {want}"
    return None


class MapVerify(Workload):
    name = "map_verify"
    why = "CLI construct + verify of 40<=d<=100 poly/symmetric maps: exact-core bound, the interactive latency users feel"

    def build(self, B, seed: int, workdir: Path, meter: RefMeter):
        ops = []
        for n, (family, d, k) in enumerate(map_members(seed)):
            path = workdir / f"map{n:03d}.json"
            rec = B.catalog.TriptychRecord.for_family(family, d, k)
            path.write_text(json.dumps(rec.to_json()["map"]))
            want = expected_type(family, d, k)
            ops.append(
                (["construct", family, "--d", str(d), "--k", str(k), "--format", "json"],
                 check_construct, want)
            )
            ops.append((["verify", str(path)], check_verify, want))
            meter.checkpoint()
        return ops

    def run(self, B, ops, meter: RefMeter):
        results = []
        for argv, _check, _want in ops:
            meter.begin()
            res, err = _guarded(_call_cli, B, argv)
            meter.end(1)
            results.append((res, err))
        return results

    def check(self, B, ops, outputs) -> Checked:
        out = Checked()
        for (_argv, check, want), (res, err) in zip(ops, outputs):
            out.record(err if err is not None else check(res[0], res[1], want))
        return out


# ---- dessin_export ----------------------------------------------------------


DESSIN_D_BANDS, DESSIN_E_BANDS = 12, 10  # 120 dessins a pass


def dessin_types(seed: int) -> list[tuple[int, int, int]]:
    """Seeded single-cycle types with 60 <= d <= 120, stratified by degree
    and by eInf (which sets the number of vertices, hence the BFS cost)."""
    rng = random.Random(seed)
    types = []
    for j in range(DESSIN_D_BANDS):
        dlo, dhi = _band(60, 120, j, DESSIN_D_BANDS)
        for i in range(DESSIN_E_BANDS):
            d = rng.randint(dlo, dhi)
            e_inf = rng.randint(*_band(2, d, i, DESSIN_E_BANDS))
            e0 = rng.randint(max(2, d + 1 - e_inf), min(d, 2 * d - 1 - e_inf))
            types.append((e0, 2 * d + 1 - e0 - e_inf, e_inf))
    rng.shuffle(types)
    return types


def export_dessin(B, ct):
    gs = B.gensys.canonical_single_cycle(ct)
    ds = B.dessin.dessin_from_gensys(gs)
    return (
        ds.genus(),
        ds.diameter_vertices(),
        ds.shape(),
        ds.to_dot(),
        json.dumps(ds.to_json()),
    )


def check_dessin(ct, exported) -> str | None:
    genus, diameter, shape, dot, _js = exported
    d, e0, e1 = ct.d, ct.e0, ct.e1
    want = (d - e1, d - e0, e0 + e1 - d)
    got = None if shape is None else (
        shape.white_leaves, shape.black_leaves, shape.parallel_edges
    )
    if genus != 0 or got != want or diameter > 4 or dot.count(" -- ") != d:
        return (
            f"dessin {ct}: genus {genus}, shape {got} (want {want}),"
            f" diameter {diameter}, {dot.count(' -- ')} DOT edges"
        )
    return None


class DessinExport(Workload):
    name = "dessin_export"
    why = "canonical triple -> dessin -> genus, diameter, shape, DOT, JSON at 60<=d<=120: perm/gensys/dessin only, no exact work"
    setup_reps = 25

    def build(self, B, seed: int, workdir: Path, meter: RefMeter):
        return [B.gensys.CombinatorialType.from_indices(*t) for t in dessin_types(seed)]

    def run(self, B, cts, meter: RefMeter):
        results = []
        for ct in cts:
            meter.begin()
            res = _guarded(export_dessin, B, ct)
            meter.end(1)
            results.append(res)
        return results

    def check(self, B, cts, outputs) -> Checked:
        out = Checked()
        for ct, (res, err) in zip(cts, outputs):
            out.record(err if err is not None else check_dessin(ct, res))
        return out


WORKLOADS = {w.name: w for w in (CatalogBuild, CatalogRead, MapVerify, DessinExport)}
