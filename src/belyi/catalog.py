"""Triptych records: type + map + generating system + dessin, kept in sync.

A record's independent data is its triple and its map; its type, dessin
and invariants are derived from the triple, and the one check left is
Riemann's existence theorem: a map's ramification profile over 0, 1 and
inf must be the cycle types of its triple.  The catalog writer enumerates
every combinatorial type up to a degree bound and attaches closed-form maps
where one of the two families covers the type; those maps come certified,
with the profile their type gives, so writing a catalog factors no fiber.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterator

from .dessin import Dessin, DessinShape
from .exact import brief_repr, check_stored, compact_json, json_field, json_object
from .families import FAMILIES, BelyiMap, VerificationError, family_map_for_type
from .gensys import CombinatorialType, GeneratingSystem, canonical_single_cycle, canonical_triples


@dataclass(frozen=True)
class TriptychRecord:
    """One catalog entry: a triple and an optional map.  Its type, dessin and
    invariants are derived from the triple once, at construction, and a map
    that claims a type other than the triple's raises ValueError there."""

    gensys: GeneratingSystem
    bmap: BelyiMap | None = None
    ctype: CombinatorialType | None = field(init=False)
    dessin: Dessin = field(init=False)
    genus: int = field(init=False)
    diameter: int = field(init=False)
    shape: DessinShape | None = field(init=False)
    is_belyi: bool | None = field(init=False)

    def __post_init__(self):
        ctype = self.gensys.single_cycle_type()
        if self.bmap is not None and self.bmap.claimed_type not in (None, ctype):
            raise ValueError(f"map type {self.bmap.claimed_type} differs from record type {ctype}")
        dessin = Dessin(self.gensys)
        shape = dessin.shape()
        # frozen: each derived field is set once, here
        vars(self).update(
            ctype=ctype, dessin=dessin, genus=self.gensys.genus(), shape=shape,
            diameter=dessin.diameter_vertices() if shape is None else shape.diameter_vertices,
            is_belyi=None if self.bmap is None else self.bmap.profile.is_belyi,
        )

    @classmethod
    def for_type(cls, ct: CombinatorialType) -> "TriptychRecord":
        return cls(canonical_single_cycle(ct), family_map_for_type(ct))

    @classmethod
    def for_family(cls, family: str, d: int, k: int | None = None) -> "TriptychRecord":
        """Record for the member (d, k) of a named family (a key of
        FAMILIES); k is given exactly when the family takes one."""
        if family not in FAMILIES:
            raise ValueError(f"unknown family {brief_repr(family)}")
        fam = FAMILIES[family]
        m = fam.member(d, k)
        return cls(fam.triple(m), m)

    def validate(self) -> None:
        """Cross-check the map against the triple; raises VerificationError
        when they disagree.

        Nothing else can disagree: the type, dessin and invariants are
        derived from the triple, the constructor refuses a map that claims
        another type, and from_json checks stored copies.  The map's
        ramification profile over 0, 1 and inf must equal the cycle types
        of sigma0, sigma1 and sigmaInf, which is what Riemann's existence
        theorem makes of a map and its monodromy.  A family member's profile
        is certified by its Wronskian when it is built; other maps factor
        their fibers.  That one equality loses nothing:

        - typed records: each fiber is (e, 1, ..., 1), so the map has a
          single ramification point of the type's index over each of 0, 1
          and inf, and its monodromy is the triple's class, as a type has
          one class of triples.  Any of its triples is a double star whose
          k = e0 + e1 - d parallel edges bound k faces of the sphere, and a
          face holding l leaves is a cycle of sigmaInf of length l + 1.  As
          sigmaInf has one nontrivial cycle, every leaf lies in its face, in
          one corner of each hub, so the three counts fix the rotation
          system (the tests' Frobenius count for d <= 22 is its oracle);
        - power records: cycle types (d), (1^d), (d) make the dessin a star;
        - Chebyshev records: a transitive triple with cycle types in {1, 2}
          over 0 and 1 and sigmaInf a d-cycle makes the dessin a path;
        - Belyi: the three fibers of a degree-d map carry at most 2d - 2
          ramification, and a transitive triple with product 1 carries
          2d - 2 + 2g, so equality forces genus 0 and no other critical
          value.
        """
        if self.bmap is not None:
            fibers = self.bmap.profile.fibers
            cycle_types = tuple(s.cycle_type() for s in self.gensys.triple)
            if fibers != cycle_types:
                raise VerificationError(
                    f"map profile {fibers} differs from the cycle types"
                    f" {cycle_types} of its triple"
                )

    def _derived_json(self) -> dict:
        # the stored copies from_json checks, the objects text() writes
        return {
            "type": None if self.ctype is None else self.ctype.to_json(),
            "dessin": self.dessin.to_json(),
            "invariants": {
                "genus": self.genus,
                "diameter": self.diameter,
                "shape": None if self.shape is None else self.shape.to_json(),
                "isBelyi": self.is_belyi,
            },
        }

    def text(self) -> str:
        """The record as one compact JSON line: the line ``write_catalog``
        writes and ``belyi construct --format json`` prints, and the one
        place its layout is written.

        sigma0's and sigma1's cycles appear twice, under ``gensys`` and
        under ``dessin``, and a degree's records share those permutations;
        each permutation encodes its cycles once and keeps the text, so the
        line is joined from kept texts and builds no dessin cycle list.
        The type and invariants hold only ints, null and booleans, in a
        fixed layout, and are written here directly; only a map object is
        encoded, by ``compact_json``.
        """
        gs, ct, sh, is_belyi = self.gensys, self.ctype, self.shape, self.is_belyi
        d = gs.degree
        s0, s1 = gs.sigma0._json_text(), gs.sigma1._json_text()
        ctype = "null" if ct is None else f'{{"d":{d},"e0":{ct.e0},"e1":{ct.e1},"eInf":{ct.e_inf}}}'
        bmap = "null" if self.bmap is None else compact_json(self.bmap.to_json())
        shape = "null" if sh is None else (
            f'{{"whiteLeaves":{sh.white_leaves},"blackLeaves":{sh.black_leaves},'
            f'"parallelEdges":{sh.parallel_edges},"blackHubDegree":{sh.black_hub_degree},'
            f'"whiteHubDegree":{sh.white_hub_degree}}}'
        )
        belyi = "null" if is_belyi is None else "true" if is_belyi else "false"
        return (
            f'{{"type":{ctype},"map":{bmap},'
            f'"gensys":{{"d":{d},"sigma0":{s0},"sigma1":{s1},"sigmaInf":{gs.sigma_inf._json_text()}}},'
            f'"dessin":{{"d":{d},"black":{s0},"white":{s1}}},'
            f'"invariants":{{"genus":{self.genus},"diameter":{self.diameter},'
            f'"shape":{shape},"isBelyi":{belyi}}}}}'
        )

    def to_json(self) -> dict:
        """The record as a JSON object, read back from ``text()``, so the
        two cannot disagree; each call returns a new object, which the
        caller may change."""
        return json.loads(self.text())

    @classmethod
    def from_json(cls, data: dict) -> "TriptychRecord":
        """Read a record from its triple and map, built as the constructor
        builds it, and check its stored type, dessin and invariants against
        the ones derived from the triple; raises ValueError, naming a bad
        value in brief, when they differ, when a field is malformed or too
        deep to read, or when the record has a field to_json does not write."""
        json_object(data, "record", ("type", "map", "gensys", "dessin", "invariants"))
        gs = GeneratingSystem.from_json(json_field(data, "gensys", "record"))
        m = None if data.get("map") is None else BelyiMap.from_json(data["map"])
        rec = cls(gs, m)
        check_stored(data, rec._derived_json(), "gensys")
        return rec


def iter_catalog(dmax: int) -> Iterator[TriptychRecord]:
    """Validated records for every type with 3 <= d <= dmax, sorted by
    (d, e0, e1).

    Each degree's triples come from one ``canonical_triples(d)`` call, so
    the records of a degree share their sigma0 and sigma1 objects: each is
    built, checked and walked for its cycles once per degree, not once per
    record.  Each record is the one ``TriptychRecord.for_type`` builds.
    """
    for d in range(3, dmax + 1):
        for ct, gs in canonical_triples(d):
            rec = TriptychRecord(gs, family_map_for_type(ct))
            rec.validate()
            yield rec


def write_catalog(dmax: int, out: IO[str]) -> dict[int, int]:
    """Write the records of ``iter_catalog(dmax)`` as JSON Lines, one
    ``TriptychRecord.text()`` line each, streamed; returns per-degree record
    counts.  A degree's records share sigma0 and sigma1, so each of those
    is encoded once per degree, not once or twice per record."""
    counts: dict[int, int] = {}
    for rec in iter_catalog(dmax):
        d = rec.gensys.degree
        out.write(rec.text() + "\n")
        counts[d] = counts.get(d, 0) + 1
    return counts
