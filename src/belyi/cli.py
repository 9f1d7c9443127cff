"""Command-line interface.

Subcommands:
  construct  build one family member and print it (text, json, or dot)
  verify     check a map file for the Belyi property and a claimed type
  dessin     print the canonical dessin of a combinatorial type
  enumerate  write the full catalog up to a degree bound as JSON Lines

Exit codes: 0 pass, 1 semantic failure (a failed Belyi or type check),
2 usage or parse error, 3 internal invariant violation, 141 stdout closed
by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .catalog import TriptychRecord, write_catalog
from .dessin import Dessin
from .exact import compact_json
from .families import FAMILIES, BelyiMap, VerificationError, verify_single_cycle
from .gensys import MAX_DEGREE, CombinatorialType, canonical_single_cycle

# the largest --dmax that enumerate writes a catalog for
MAX_DMAX = 40

PASS, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="belyi",
        description="Single-cycle Belyi maps, generating systems, and dessins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build one family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--d", type=int, required=True, help="degree")
    with_k = ", ".join(name for name, f in FAMILIES.items() if f.takes_k)
    p.add_argument("--k", type=int, help=f"family parameter ({with_k})")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("verify", help="verify a map JSON file")
    p.add_argument("input", help="path to a map JSON file")
    p.add_argument("--type", type=_type_spec, help="claimed indices e0,e1,eInf")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("dessin", help="canonical dessin of a type")
    p.add_argument("typespec", type=_type_spec, help="indices e0,e1,eInf (degree is inferred)")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(run=_cmd_dessin)

    p = sub.add_parser("enumerate", help="write the catalog up to --dmax")
    p.add_argument("--dmax", type=int, required=True, help=f"degree bound (3..{MAX_DMAX})")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(run=_cmd_enumerate)
    return parser


def _type_spec(spec: str) -> CombinatorialType:
    """The type named by indices "e0,e1,eInf": an argparse `type=`, so a bad
    spec is a usage error that names its argument."""
    parts = [p.strip() for p in spec.split(",")]
    try:
        # ASCII digits only: int() alone also takes signs, underscores and
        # non-ASCII digits
        if len(parts) != 3 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"need three comma-separated indices, got {spec!r}")
        return CombinatorialType.from_indices(*map(int, parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _print_record_text(rec: TriptychRecord, family: str) -> None:
    """Print the record of a member of the named family (its map is set)."""
    m = rec.bmap
    k = f" (k = {m.k})" if m.k is not None else ""
    print(f"family: {FAMILIES[family].name}")
    print(f"degree: {m.degree}{k}")
    if rec.ctype is not None:
        print(f"type: {rec.ctype}")
    if m.params is not None:
        if m.params.c is not None:
            print(f"c = {m.params.c}")
        print("a = (" + ", ".join(str(x) for x in m.params.a) + ")")
    print(f"f = {m.f}")
    factored = m.factored_form()
    if factored is not None:
        print(f"  = {factored}")
    prof = m.profile
    print(f"profile over 0: {list(prof.over0)}")
    print(f"profile over 1: {list(prof.over1)}")
    print(f"profile over inf: {list(prof.over_inf)}")
    print(f"belyi: {'yes' if prof.is_belyi else 'no'}")
    gs = rec.gensys
    print(f"sigma0   = {gs.sigma0.cycle_string()}")
    print(f"sigma1   = {gs.sigma1.cycle_string()}")
    print(f"sigmaInf = {gs.sigma_inf.cycle_string()}")
    if rec.shape is not None:
        s = rec.shape
        print(
            f"shape: {s.white_leaves} white leaves, {s.black_leaves} black"
            f" leaves, {s.parallel_edges} parallel edges"
        )
    print(f"genus: {rec.genus}")
    print(f"diameter: {rec.diameter}")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.d > MAX_DEGREE:
        print(f"construct: --d must be at most {MAX_DEGREE}, got {args.d}", file=sys.stderr)
        return USAGE
    rec = TriptychRecord.for_family(args.family, args.d, args.k)
    rec.validate()
    if args.format == "json":
        print(rec.text())
    elif args.format == "dot":
        print(rec.dessin.to_dot(), end="")
    else:
        _print_record_text(rec, args.family)
    return PASS


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"verify: cannot read {args.input}: {exc}", file=sys.stderr)
        return USAGE
    except json.JSONDecodeError as exc:
        print(
            f"verify: parse error in {args.input} at line {exc.lineno}"
            f" column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return USAGE
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past Python's digit limit, or too deep to recurse
        print(f"verify: cannot parse {args.input}: {exc}", file=sys.stderr)
        return USAGE
    try:
        m = BelyiMap.from_json(data)
    except ValueError as exc:
        print(f"verify: malformed map record: {exc}", file=sys.stderr)
        return USAGE

    if m.f.is_constant:
        print("constant map has no ramification profile")
        return FAIL
    prof = m.profile
    print(f"degree: {prof.degree}")
    print(f"profile over 0: {list(prof.over0)}")
    print(f"profile over 1: {list(prof.over1)}")
    print(f"profile over inf: {list(prof.over_inf)}")
    print(
        f"total ramification: {prof.total_ramification}"
        f" (belyi bound 2d-2 = {2 * prof.degree - 2})"
    )
    print(f"belyi: {'yes' if prof.is_belyi else 'no'}")

    claimed = args.type if args.type is not None else m.claimed_type
    ok, diag = verify_single_cycle(m, claimed)
    if claimed is None:
        print("verdict: PASS" if ok else f"verdict: FAIL - {diag}")
    else:
        print(f"claimed type {claimed}: {'PASS' if ok else 'FAIL'} - {diag}")
    return PASS if ok else FAIL


def _cmd_dessin(args: argparse.Namespace) -> int:
    if args.typespec.d > MAX_DEGREE:
        print(f"dessin: degree must be at most {MAX_DEGREE}, got {args.typespec.d}", file=sys.stderr)
        return USAGE
    ds = Dessin(canonical_single_cycle(args.typespec))
    if args.format == "json":
        print(compact_json(ds.to_json()))
    else:
        print(ds.to_dot(), end="")
    return PASS


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if not 3 <= args.dmax <= MAX_DMAX:
        print(f"enumerate: --dmax must be in 3..{MAX_DMAX}, got {args.dmax}", file=sys.stderr)
        return USAGE
    try:
        with open(args.out, "w") as fh:
            counts = write_catalog(args.dmax, fh)
    except OSError as exc:
        print(f"enumerate: cannot write {args.out}: {exc}", file=sys.stderr)
        return USAGE
    for d in sorted(counts):
        print(f"d={d}: {counts[d]} types")
    print(f"total: {sum(counts.values())} records -> {args.out}")
    return PASS


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except VerificationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL
    except BrokenPipeError:
        raise  # the reader left, as in `belyi ... | head`: entry() exits 141
    except Exception as exc:  # noqa: BLE001 - a crash must not read as a verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader closed it early.  Point stdout at devnull, so that
        # the flush at exit raises nothing, and exit as SIGPIPE would: 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
