"""Command-line front end.

Exit codes: 0 success / all checks pass; 1 a check failed or the requested
subcategory colimit does not exist; 2 parse or configuration errors, inputs
beyond the stated limits, and any unexpected internal failure.
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from .colimits import ColimitError, SubcategoryError, colimit_delta, colimit_pos, colimit_tos
from .continuity import (
    BoundError,
    ContinuityError,
    check_continuity,
    density_colimit,
    non_monotone_witness,
)
from .delta import DeltaError, verify_simplicial_identities
from .kan import KanError, extend
from .posets import (
    PosetError,
    count_monotone_maps,
    linear_extensions,
    meet_of_extensions,
)
from .simplicial import SimplicialError, count_simplicial_maps, nerve

CONFIG_ERRORS = (
    formats.FormatError,
    PosetError,
    SimplicialError,
    ContinuityError,
    DeltaError,
    SubcategoryError,
    ColimitError,
    KanError,
    OSError,
)

# Largest --max-n accepted; --trunc is bounded by formats.MAX_TRUNC.
MAX_IDENTITY_N = 32


def _parser():
    parser = argparse.ArgumentParser(prog="poscat")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "machine"], default="text")
    common.add_argument("--output", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nerve", parents=[common], help="nerve of a poset, emitted in sset format")
    p.add_argument("--poset", required=True)
    p.add_argument("--trunc", type=int, required=True)

    p = sub.add_parser("check", parents=[common], help="continuity checks on a simplicial set file")
    p.add_argument("--sset", required=True)

    p = sub.add_parser("reconstruct", parents=[common], help="rebuild the poset underlying a continuous sset")
    p.add_argument("--sset", required=True)

    p = sub.add_parser("colimit", parents=[common], help="colimit of a diagram file")
    p.add_argument("--diagram", required=True)
    p.add_argument("--in", dest="category", choices=["pos", "tos", "delta"], default="pos")

    p = sub.add_parser("extensions", parents=[common], help="linear extensions and their intersection")
    p.add_argument("--poset", required=True)

    p = sub.add_parser("density", parents=[common], help="chain-diagram colimit compared with the poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--bound", type=int)

    p = sub.add_parser("extend", parents=[common], help="Kan extension of a functor file at a poset")
    p.add_argument("--functor", required=True)
    p.add_argument("--poset", required=True)
    p.add_argument("--bound", type=int)

    p = sub.add_parser("verify-identities", parents=[common], help="check the simplicial identities")
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("homcount", parents=[common], help="monotone maps vs simplicial maps between nerves")
    p.add_argument("--poset", required=True)
    p.add_argument("--poset2", required=True)
    p.add_argument("--trunc", type=int, required=True)

    return parser


def _emit(args, lines):
    payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_nerve(args):
    poset = formats.load_poset(args.poset)
    X = nerve(poset, args.trunc)
    _emit(args, formats.serialize_sset(X).splitlines())
    return 0


def _cmd_check(args):
    X = formats.load_sset(args.sset)
    report = check_continuity(X)
    lines = report.machine_lines() if args.format == "machine" else report.text_lines()
    _emit(args, lines)
    return 0 if report.passed else 1


def _cmd_reconstruct(args):
    X = formats.load_sset(args.sset)
    report = check_continuity(X)
    if not report.passed:
        lines = report.machine_lines() if args.format == "machine" else report.text_lines()
        _emit(args, lines)
        return 1
    _emit(args, formats.serialize_poset(report.poset, name="reconstructed").splitlines())
    return 0


def _cmd_colimit(args):
    diagram = formats.load_diagram(args.diagram)
    compute = {"pos": colimit_pos, "tos": colimit_tos, "delta": colimit_delta}[args.category]
    cocone = compute(diagram)
    if cocone is None:
        if args.format == "machine":
            _emit(args, ["exists=no"])
        else:
            _emit(args, [f"no colimit in {args.category}: the poset colimit leaves the subcategory"])
        return 1
    lines = []
    if args.format == "machine":
        lines.append("exists=yes")
        lines.append(f"apex.size={cocone.apex.n}")
        lines.append("apex.elements=" + " ".join(cocone.apex.elements))
        for i, j in cocone.apex.cover_pairs:
            lines.append(f"apex.le={cocone.apex.elements[i]}<{cocone.apex.elements[j]}")
        for nid in diagram.node_ids:
            leg = cocone.legs[nid]
            for x, y in zip(leg.source.elements, leg.values):
                lines.append(f"leg.{nid}.{x}={y}")
    else:
        lines.extend(formats.serialize_poset(cocone.apex, name="colimit").splitlines())
        for nid in diagram.node_ids:
            leg = cocone.legs[nid]
            body = " ".join(f"{x}->{y}" for x, y in zip(leg.source.elements, leg.values))
            lines.append(f"leg {nid}: {body}")
    _emit(args, lines)
    return 0


def _cmd_extensions(args):
    poset = formats.load_poset(args.poset)
    exts = linear_extensions(poset)
    ok = meet_of_extensions(poset, exts).up_rows == poset.up_rows
    lines = []
    if args.format == "machine":
        lines.append(f"extensions.count={len(exts)}")
        for k, ext in enumerate(exts):
            lines.append(f"extension.{k}=" + "<".join(ext.sorted_by_order()))
        lines.append(f"intersection_equals_order={'PASS' if ok else 'FAIL'}")
    else:
        lines.append(f"{len(exts)} linear extensions of {poset.name or 'poset'}")
        for ext in exts:
            lines.append("  " + " < ".join(ext.sorted_by_order()))
        lines.append(f"intersection equals the original order: {'PASS' if ok else 'FAIL'}")
    _emit(args, lines)
    return 0 if ok else 1


def _cmd_density(args):
    poset = formats.load_poset(args.poset)
    bound = poset.height if args.bound is None else args.bound
    result = density_colimit(poset, bound)
    lines = []
    if args.format == "machine":
        lines.append(f"bound={result.bound}")
        lines.append(f"apex.size={result.cocone.apex.n}")
        lines.append(f"stabilized={'yes' if result.stabilized else 'no'}")
        lines.append(f"isomorphic={'PASS' if result.passed else 'FAIL'}")
    else:
        lines.append(f"chain-diagram colimit at bound {result.bound}")
        lines.append(f"apex has {result.cocone.apex.n} elements; poset has {poset.n}")
        lines.append(f"stabilized at bound+1: {'yes' if result.stabilized else 'no'}")
        lines.append(f"apex isomorphic to the poset: {'PASS' if result.passed else 'FAIL'}")
    _emit(args, lines)
    return 0 if result.passed else 1


def _cmd_extend(args):
    functor = formats.load_functor(args.functor)
    poset = formats.load_poset(args.poset)
    result = extend(functor, poset, initial_bound=args.bound)
    lines = []
    if args.format == "machine":
        # exact at the bound by finality of the strict chains (see kan)
        lines.append("stabilized=yes")
        lines.append(f"stabilization={result.stabilization}")
        lines.append(f"value.size={result.value.n}")
        lines.append("value.elements=" + " ".join(result.value.elements))
        for i, j in result.value.cover_pairs:
            lines.append(f"value.le={result.value.elements[i]}<{result.value.elements[j]}")
    else:
        lines.append(f"stabilized at bound {result.stabilization}")
        lines.extend(formats.serialize_poset(result.value, name="extension").splitlines())
    _emit(args, lines)
    return 0


def _cmd_verify_identities(args):
    report = verify_simplicial_identities(args.max_n)
    lines = []
    if args.format == "machine":
        lines.append(f"instances={report.checked}")
        lines.append(f"failures={len(report.failures())}")
        lines.append(f"overall={'PASS' if report.passed else 'FAIL'}")
    else:
        lines.append(f"checked {report.checked} identity instances up to [{args.max_n}]")
        for family, n, i, j, ok in report.failures():
            lines.append(f"  FAIL {family} at n={n}, i={i}, j={j}")
        lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    _emit(args, lines)
    return 0 if report.passed else 1


def _cmd_homcount(args):
    p = formats.load_poset(args.poset)
    q = formats.load_poset(args.poset2)
    n_mono = count_monotone_maps(p, q)
    n_simp = count_simplicial_maps(nerve(p, args.trunc), nerve(q, args.trunc))
    ok = n_mono == n_simp
    if args.format == "machine":
        lines = [f"monotone={n_mono}", f"simplicial={n_simp}", f"equal={'PASS' if ok else 'FAIL'}"]
    else:
        lines = [
            f"monotone maps: {n_mono}",
            f"simplicial maps between nerves (trunc {args.trunc}): {n_simp}",
            f"counts agree: {'PASS' if ok else 'FAIL'}",
        ]
    if not ok:
        witness = non_monotone_witness(p, q, args.trunc)
        witness = witness or "every simplicial map has a monotone vertex map"
        key = "homcount.witness=" if args.format == "machine" else "witness: "
        lines.append(key + witness)
    _emit(args, lines)
    return 0 if ok else 1


_HANDLERS = {
    "nerve": _cmd_nerve,
    "check": _cmd_check,
    "reconstruct": _cmd_reconstruct,
    "colimit": _cmd_colimit,
    "extensions": _cmd_extensions,
    "density": _cmd_density,
    "extend": _cmd_extend,
    "verify-identities": _cmd_verify_identities,
    "homcount": _cmd_homcount,
}


def _over_limit(args):
    """A one-line complaint about the first numeric option beyond its limit, or ""."""
    for option, dest, limit in (
        ("--trunc", "trunc", formats.MAX_TRUNC),
        ("--max-n", "max_n", MAX_IDENTITY_N),
    ):
        value = getattr(args, dest, None)
        if value is not None and value > limit:
            return f"{option} {value} exceeds the limit {limit}"
    return ""


def run(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    complaint = _over_limit(args)
    if complaint:
        print(f"error: {complaint}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except BoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: a traceback would exit 1, "check failed"
        print("error: " + " ".join(f"{type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
