"""Outside-in tracer for the belyi layers.

``Tracer.install()`` wraps each public function or method named in
``TARGETS`` everywhere it is bound: a module-level function in every
loaded ``belyi`` module that holds it, a method on its class.  Each call
becomes a span ``(id, parent, name, start_ns, end_ns)`` kept in memory.
``uninstall()`` puts every original object back.  Nothing under ``src/``
knows about the tracer.

A span's self time is its duration minus the part of it that its child
spans cover (children that overlap are counted once).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# (span name, module, attribute or Class.attribute)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("exact.squarefree_decomposition", "belyi.exact", "squarefree_decomposition"),
    ("exact.poly_gcd", "belyi.exact", "poly_gcd"),
    ("families.ramification_profile", "belyi.families", "ramification_profile"),
    ("families.construct", "belyi.families", "single_cycle_polynomial"),
    ("families.construct", "belyi.families", "symmetric_single_cycle"),
    ("families.construct", "belyi.families", "power_map"),
    ("families.construct", "belyi.families", "chebyshev_map"),
    ("families.verify_single_cycle", "belyi.families", "verify_single_cycle"),
    ("families.map_from_json", "belyi.families", "BelyiMap.from_json"),
    ("perm.cycles", "belyi.perm", "Permutation.cycles"),
    ("perm.from_cycles", "belyi.perm", "Permutation.from_cycles"),
    ("perm.is_transitive", "belyi.perm", "is_transitive"),
    ("gensys.canonical_single_cycle", "belyi.gensys", "canonical_single_cycle"),
    ("gensys.make_gensys", "belyi.gensys", "make_gensys"),
    ("dessin.diameter_vertices", "belyi.dessin", "Dessin.diameter_vertices"),
    ("dessin.shape", "belyi.dessin", "Dessin.shape"),
    ("dessin.to_dot", "belyi.dessin", "Dessin.to_dot"),
    ("dessin.dessin_from_gensys", "belyi.dessin", "dessin_from_gensys"),
    ("dessin.gensys_from_dessin", "belyi.dessin", "gensys_from_dessin"),
    ("catalog.for_type", "belyi.catalog", "TriptychRecord.for_type"),
    ("catalog.for_family", "belyi.catalog", "TriptychRecord.for_family"),
    ("catalog.validate", "belyi.catalog", "TriptychRecord.validate"),
    ("catalog.to_json", "belyi.catalog", "TriptychRecord.to_json"),
    ("catalog.from_json", "belyi.catalog", "TriptychRecord.from_json"),
    ("cli.main", "belyi.cli", "main"),
)

PROBE = "trace.probe"


def _coeff_bits(args) -> int:
    """Largest numerator or denominator bit length of a Poly argument."""
    coeffs = getattr(args[0], "coeffs", ())
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )


# span name -> (counter, function of the call's positional arguments);
# the counter keeps the largest value seen
PROBES = {"exact.squarefree_decomposition": ("exact.yun_max_coeff_bits", _coeff_bits)}


class Tracer:
    def __init__(self, targets=TARGETS, probes=PROBES, prefix: str = "belyi"):
        self.targets = targets
        self.probes = probes
        self.prefix = prefix
        # (id, parent id or 0, name, start_ns, end_ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # ---- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        probe = self.probes.get(name)

        def traced(*args, **kwargs):
            if probe is not None:
                self._run_probe(probe, args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _run_probe(self, probe, args) -> None:
        # the probe's own time is a span of its own, so it is not charged
        # to the caller's self time
        counter, measure = probe
        sid = self._next_id
        self._next_id = sid + 1
        start = time.perf_counter_ns()
        value = measure(args)
        end = time.perf_counter_ns()
        self.spans.append((sid, self._stack[-1], PROBE, start, end))
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def _modules(self):
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.prefix or n.startswith(self.prefix + "."))
        ]

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._patch_all()
        except BaseException:
            self.uninstall()  # leave nothing half-wrapped
            raise
        return self

    def _patch_all(self) -> None:
        modules = self._modules()
        for name, modname, attr in self.targets:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, orig = self._patches.pop()
            setattr(obj, key, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path) -> None:
        """Write the spans as tab-separated id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for s in self.spans:
                fh.write("\t".join(str(x) for x in s) + "\n")


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans) -> dict[int, int]:
    """Span id -> its duration minus the time its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered_ns(children.get(sid, []), start, end)
        for sid, _parent, _name, start, end in spans
    }


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def aggregate(spans) -> dict[str, SpanStats]:
    """Per span name: calls, total and self time."""
    selfs = self_times_ns(spans)
    out: dict[str, SpanStats] = {}
    for sid, _parent, name, start, end in spans:
        st = out.setdefault(name, SpanStats())
        st.calls += 1
        st.total_ns += end - start
        st.self_ns += selfs[sid]
    return out


# per-layer metrics: (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("exact.squarefree_decomposition.calls", "count", "lower"),
    ("exact.squarefree_decomposition.self_ms", "ms", "lower"),
    ("exact.poly_gcd.calls", "count", "lower"),
    ("exact.poly_gcd.self_ms", "ms", "lower"),
    ("exact.yun_max_coeff_bits", "count", "lower"),
    ("families.ramification_profile.calls", "count", "lower"),
    ("families.ramification_profile.self_ms", "ms", "lower"),
    ("families.construct.self_ms", "ms", "lower"),
    ("families.verify_single_cycle.calls", "count", "lower"),
    ("families.profile_per_map", "ratio", "lower"),
    ("perm.cycles.calls", "count", "lower"),
    ("perm.cycles.self_ms", "ms", "lower"),
    ("perm.from_cycles.calls", "count", "lower"),
    ("perm.from_cycles.self_ms", "ms", "lower"),
    ("perm.is_transitive.calls", "count", "lower"),
    ("perm.is_transitive.self_ms", "ms", "lower"),
    ("perm.cycles_per_record", "ratio", "lower"),
    ("gensys.canonical_single_cycle.self_ms", "ms", "lower"),
    ("gensys.make_gensys.calls", "count", "lower"),
    ("gensys.make_gensys.self_ms", "ms", "lower"),
    ("dessin.diameter_vertices.calls", "count", "lower"),
    ("dessin.diameter_vertices.self_ms", "ms", "lower"),
    ("dessin.diameter_per_record", "ratio", "lower"),
    ("dessin.shape.self_ms", "ms", "lower"),
    ("dessin.dessin_from_gensys.self_ms", "ms", "lower"),
    ("dessin.gensys_from_dessin.calls", "count", "lower"),
    ("dessin.to_dot.self_ms", "ms", "lower"),
    ("catalog.for_type.self_ms", "ms", "lower"),
    ("catalog.validate.calls", "count", "lower"),
    ("catalog.validate.self_ms", "ms", "lower"),
    ("catalog.to_json.self_ms", "ms", "lower"),
    ("catalog.from_json.self_ms", "ms", "lower"),
    ("catalog.bytes", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def layer_metrics(
    stats: dict[str, SpanStats],
    counters: dict[str, int],
    *,
    units: int,
    catalog_bytes: int,
    scale: float,
    overhead_ratio: float,
) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass.

    ``scale`` turns wall into reference time, so ``self_ms`` figures are
    reference milliseconds.  A layer the workload never reaches reads 0.
    """

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    maps = get("families.construct").calls + get("families.map_from_json").calls
    derived = {
        "exact.yun_max_coeff_bits": counters.get("exact.yun_max_coeff_bits", 0),
        "families.profile_per_map": ratio(get("families.ramification_profile").calls, maps),
        "perm.cycles_per_record": ratio(get("perm.cycles").calls, units),
        "dessin.diameter_per_record": ratio(get("dessin.diameter_vertices").calls, units),
        "catalog.bytes": catalog_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = get(name[: -len(".calls")]).calls
        else:
            out[name] = get(name[: -len(".self_ms")]).self_ns * scale / 1e6
    return out
