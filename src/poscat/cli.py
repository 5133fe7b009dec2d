"""Command-line front end.

Exit codes: 0 success / all checks pass; 1 a check failed or the requested
subcategory colimit does not exist; 2 parse or configuration errors, inputs
beyond the stated limits, and any unexpected internal failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import formats
from .colimits import ColimitError, colimit_delta, colimit_pos, colimit_tos
from .continuity import (
    ContinuityError,
    check_continuity,
    density_colimit,
    non_monotone_witness,
)
from .delta import DeltaError, verify_simplicial_identities
from .kan import KanError, extend
from .posets import (
    PosetError,
    chain_counts,
    count_monotone_maps,
    linear_extension_orders,
    linear_extensions,
    meet_of_extensions,
)
from .simplicial import SimplicialError, count_simplicial_maps, nerve


class BudgetError(Exception):
    """The nerves asked for would hold more simplices than MAX_SIMPLICES, the
    comma diagram of `density` or `extend` more strict chains than that, the
    poset of `extensions` more linear extensions than that, or `homcount`'s
    map search would take more than MAX_MAP_WORK steps."""


CONFIG_ERRORS = (
    BudgetError,
    formats.FormatError,
    PosetError,
    SimplicialError,
    ContinuityError,
    DeltaError,
    ColimitError,
    KanError,
    OSError,
)

# Largest --max-n accepted; --trunc and --bound are bounded by formats.MAX_TRUNC.
MAX_IDENTITY_N = 32

# Most simplices `nerve` and `homcount` may build, summed over their nerves,
# most strict chains `density` and `extend` may build a comma diagram over,
# one node each, and most linear extensions `extensions` may list.  Near the
# top truncation levels of a nerve that is about half a gigabyte.
MAX_SIMPLICES = 50_000

# Most steps `homcount`'s simplicial map search may take, predicted as the
# maps it finds times the simplices of the source nerve: about 2-3.5 s of
# search on a 2-vCPU VM, as the host's speed varies.
MAX_MAP_WORK = 2_000_000


class _StoreOnce(argparse.Action):
    """Store an option's value, refusing the option given a second time: a
    repeated option is ambiguous input, and the parser never takes the last
    entry silently."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """A parser whose options, subcommands' included, store with `_StoreOnce`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)
        self.register("action", "store", _StoreOnce)


@functools.cache
def _parser():
    """Built once per process: each parse fills a fresh namespace."""
    parser = _Parser(prog="poscat")
    common = _Parser(add_help=False)
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


def _emit(args, rows, ok=True):
    """Write a report to stdout or --output and return its exit code, 0 if ok
    else 1.  Each row is a (machine line, text line) pair, with None on the
    side of a format that leaves the row out, or a bare string that both
    formats print; this is the one place that reads --format."""
    side = 0 if args.format == "machine" else 1
    lines = [row if isinstance(row, str) else row[side] for row in rows]
    payload = "\n".join(line for line in lines if line is not None) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if ok else 1


def _pass_fail(ok):
    return "PASS" if ok else "FAIL"


def _witness(args, text):
    """The row that names why a check failed."""
    return f"{args.command}.witness={text}", f"witness: {text}"


def _poset_rows(key, poset, name):
    """A poset as `<key>.size`, `<key>.elements` and `<key>.le` machine rows,
    and in text as a poset file called `name`."""
    rows = [(f"{key}.size={poset.n}", None), (f"{key}.elements=" + " ".join(poset.elements), None)]
    rows += [(f"{key}.le={poset.elements[i]}<{poset.elements[j]}", None) for i, j in poset.cover_pairs]
    return rows + [(None, line) for line in formats.serialize_poset(poset, name=name).splitlines()]


def _continuity_rows(report):
    """A continuity report: the text lists the checks in the order they ran,
    with their details; the machine keys are sorted by check name, each
    failing check followed by its witness."""
    rows = [(None, f"continuity up to truncation {report.truncation}")]
    for v in report.verdicts.values():
        detail = f"  [{v.detail}]" if v.detail else ""
        rows.append((None, f"  {v.name}: {_pass_fail(v.passed)}{detail}"))
    for name, v in sorted(report.verdicts.items()):
        rows.append((f"check.{name}={_pass_fail(v.passed)}", None))
        if not v.passed and v.detail:
            rows.append((f"check.{name}.witness={v.detail}", None))
    rows.append((f"overall={_pass_fail(report.passed)}", f"overall: {_pass_fail(report.passed)}"))
    if report.poset is not None:
        n = report.poset.n
        rows.append((f"poset.size={n}", f"reconstructed poset on {n} elements"))
    return rows


def _within_budget(counts):
    """Whether the running sum of `counts` stays at most MAX_SIMPLICES; stops
    reading at the first count that takes it over."""
    total = 0
    for count in counts:
        total += count
        if total > MAX_SIMPLICES:
            return False
    return True


def _check_budget(posets, K):
    """Refuse, before building them, nerves at truncation K of `posets` that
    would hold more than MAX_SIMPLICES simplices in all."""
    if not _within_budget(count for poset in posets for count in chain_counts(poset, K)):
        raise BudgetError(
            f"the nerves at --trunc {K} would hold more than {MAX_SIMPLICES} simplices"
        )


def _check_comma_budget(poset):
    """Refuse, before building it, a comma diagram over more than MAX_SIMPLICES
    strict chains of `poset`.  It holds every strict chain, whatever the
    bound, since none is longer than the height."""
    if not _within_budget(chain_counts(poset, poset.height, strict=True)):
        raise BudgetError(
            f"the comma diagram would hold more than {MAX_SIMPLICES} strict chains"
        )


def _check_map_work(p, q, n_mono, K):
    """Refuse, before searching, a count of the simplicial maps N(p) -> N(q) at
    truncation K that would take more than MAX_MAP_WORK steps: the maps found,
    each met after at most one step per simplex of N(p).  At K = 0 every
    function p -> q is one; at K >= 1 the monotone maps are, if the nerve is
    fully faithful, which is what `homcount` tests."""
    maps = n_mono if K >= 1 else q.n**p.n
    work = maps * sum(chain_counts(p, K))
    if work > MAX_MAP_WORK:
        raise BudgetError(
            f"the simplicial map search at --trunc {K} would take about {work} steps, "
            f"more than {MAX_MAP_WORK}"
        )


def _cmd_nerve(args):
    poset = formats.load_poset(args.poset)
    _check_budget([poset], args.trunc)
    X = nerve(poset, args.trunc)
    return _emit(args, formats.serialize_sset(X).splitlines())


def _cmd_check(args):
    X = formats.load_sset(args.sset)
    report = check_continuity(X)
    return _emit(args, _continuity_rows(report), report.passed)


def _cmd_reconstruct(args):
    X = formats.load_sset(args.sset)
    report = check_continuity(X)
    if not report.passed:
        return _emit(args, _continuity_rows(report), ok=False)
    return _emit(args, formats.serialize_poset(report.poset, name="reconstructed").splitlines())


def _cmd_colimit(args):
    diagram = formats.load_diagram(args.diagram)
    compute = {"pos": colimit_pos, "tos": colimit_tos, "delta": colimit_delta}[args.category]
    cocone = compute(diagram)
    if cocone is None:
        no = f"no colimit in {args.category}: the poset colimit leaves the subcategory"
        return _emit(args, [("exists=no", no)], ok=False)
    rows = [("exists=yes", None)] + _poset_rows("apex", cocone.apex, "colimit")
    for nid in diagram.node_ids:
        leg = cocone.legs[nid]
        pairs = list(zip(leg.source.elements, leg.values))
        rows += [(f"leg.{nid}.{x}={y}", None) for x, y in pairs]
        rows.append((None, f"leg {nid}: " + " ".join(f"{x}->{y}" for x, y in pairs)))
    return _emit(args, rows)


def _order_difference(poset, meet):
    """One pair on which the order of `poset` and `meet`, the meet of its
    extensions on the same elements, differ."""
    for i, (mine, theirs) in enumerate(zip(poset.up_rows, meet.up_rows)):
        diff = mine ^ theirs
        if diff:
            j = (diff & -diff).bit_length() - 1
            x, y = poset.elements[i], poset.elements[j]
            if mine >> j & 1:
                return f"{x}<={y} in the order but not in every extension"
            return f"{x}<={y} in every extension but not in the order"
    return ""


def _cmd_extensions(args):
    poset = formats.load_poset(args.poset)
    # counted without building one, stopping at the first over the budget
    if not _within_budget(1 for _ in linear_extension_orders(poset)):
        raise BudgetError(f"the poset has more than {MAX_SIMPLICES} linear extensions")
    exts = linear_extensions(poset)
    meet = meet_of_extensions(poset, exts)
    ok = meet.up_rows == poset.up_rows
    count = len(exts)
    rows = [(f"extensions.count={count}", f"{count} linear extensions of {poset.name or 'poset'}")]
    for k, ext in enumerate(exts):
        order = ext.sorted_by_order()
        rows.append((f"extension.{k}=" + "<".join(order), "  " + " < ".join(order)))
    verdict = _pass_fail(ok)
    rows.append(
        (f"intersection_equals_order={verdict}", f"intersection equals the original order: {verdict}")
    )
    if not ok:
        rows.append(_witness(args, _order_difference(poset, meet)))
    return _emit(args, rows, ok)


def _cmd_density(args):
    poset = formats.load_poset(args.poset)
    _check_comma_budget(poset)
    bound = poset.height if args.bound is None else args.bound
    result = density_colimit(poset, bound)
    n, verdict = result.cocone.apex.n, _pass_fail(result.passed)
    stabilized = "yes" if result.stabilized else "no"
    rows = [
        (f"bound={result.bound}", f"chain-diagram colimit at bound {result.bound}"),
        (f"apex.size={n}", f"apex has {n} elements; poset has {poset.n}"),
        (f"stabilized={stabilized}", f"stabilized at bound+1: {stabilized}"),
        (f"isomorphic={verdict}", f"apex isomorphic to the poset: {verdict}"),
    ]
    if not result.passed:
        rows.append(_witness(args, f"the canonical map is {result.witness}"))
    return _emit(args, rows, result.passed)


def _cmd_extend(args):
    functor = formats.load_functor(args.functor)
    poset = formats.load_poset(args.poset)
    _check_comma_budget(poset)
    result = extend(functor, poset, initial_bound=args.bound)
    # exact at the bound by finality of the strict chains (see kan)
    rows = [("stabilized=yes", f"stabilized at bound {result.stabilization}")]
    rows.append((f"stabilization={result.stabilization}", None))
    return _emit(args, rows + _poset_rows("value", result.value, "extension"))


def _cmd_verify_identities(args):
    report = verify_simplicial_identities(args.max_n)
    failures = [f"{family} at n={n}, i={i}, j={j}" for family, n, i, j, _ in report.failures()]
    rows = [
        (f"instances={report.checked}", f"checked {report.checked} identity instances up to [{args.max_n}]"),
        (f"failures={len(failures)}", None),
    ]
    rows += [(None, f"  FAIL {failure}") for failure in failures]
    rows.append((f"overall={_pass_fail(report.passed)}", f"overall: {_pass_fail(report.passed)}"))
    if failures:  # the text lists every failing instance above
        machine, _ = _witness(args, failures[0])
        rows.append((machine, None))
    return _emit(args, rows, report.passed)


def _cmd_homcount(args):
    p = formats.load_poset(args.poset)
    q = formats.load_poset(args.poset2)
    _check_budget([p, q], args.trunc)
    n_mono = count_monotone_maps(p, q)
    _check_map_work(p, q, n_mono, args.trunc)
    n_simp = count_simplicial_maps(nerve(p, args.trunc), nerve(q, args.trunc))
    ok = n_mono == n_simp
    rows = [
        (f"monotone={n_mono}", f"monotone maps: {n_mono}"),
        (f"simplicial={n_simp}", f"simplicial maps between nerves (trunc {args.trunc}): {n_simp}"),
        (f"equal={_pass_fail(ok)}", f"counts agree: {_pass_fail(ok)}"),
    ]
    if not ok:
        witness = non_monotone_witness(p, q, args.trunc)
        rows.append(_witness(args, witness or "every simplicial map has a monotone vertex map"))
    return _emit(args, rows, ok)


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
        ("--bound", "bound", formats.MAX_TRUNC),
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
