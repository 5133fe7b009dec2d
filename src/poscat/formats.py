"""Line-based text formats for posets, diagrams, truncated simplicial sets,
and functor presentations.

All formats are UTF-8, '#' starts a comment, tokens are whitespace-separated
(so identifiers may not contain whitespace or '#').
"""

from __future__ import annotations

import os

from .colimits import PosetDiagram
from .kan import FunctorPresentation, inclusion_functor, product_functor
from .posets import FinPoset, MonotoneMap, PosetError, make_poset
from .simplicial import TruncatedSimplicialSet, simplex_label

# Largest truncation level an sset header may declare, and the CLI's --trunc.
MAX_TRUNC = 32


class FormatError(Exception):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _tokenized(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def parse_poset(text) -> FinPoset:
    """Parse a single `poset` block."""
    posets = parse_poset_blocks(text)
    if len(posets) != 1:
        raise FormatError(f"expected exactly one poset block, found {len(posets)}")
    return next(iter(posets.values()))


def parse_poset_blocks(text):
    """Parse consecutive `poset` blocks into an ordered name -> FinPoset dict."""
    return _poset_blocks(_tokenized(text))


def _poset_blocks(lines):
    """`parse_poset_blocks` over (line number, tokens) pairs, so that errors
    cite the line numbers of the text the pairs came from."""
    out = {}
    name = None
    elements = []
    pairs = []

    def flush():
        if name is not None:
            out[name] = make_poset(elements, pairs, name=name)

    for line_no, tokens in lines:
        head = tokens[0]
        if head == "poset":
            if len(tokens) != 2:
                raise FormatError("usage: poset <name>", line_no)
            flush()
            if tokens[1] in out:
                raise FormatError(f"duplicate poset name {tokens[1]!r}", line_no)
            name = tokens[1]
            elements = []
            pairs = []
        elif head == "elem":
            if name is None:
                raise FormatError("elem before any poset header", line_no)
            if len(tokens) < 2:
                raise FormatError("usage: elem <id> [<id> ...]", line_no)
            elements.extend(tokens[1:])
        elif head == "le":
            if name is None:
                raise FormatError("le before any poset header", line_no)
            if len(tokens) != 3:
                raise FormatError("usage: le <id> <id>", line_no)
            pairs.append((tokens[1], tokens[2]))
        else:
            raise FormatError(f"unknown directive {head!r} in poset file", line_no)
    flush()
    if not out:
        raise FormatError("no poset block found")
    return out


def serialize_poset(poset, name=None) -> str:
    lines = [f"poset {name or poset.name or 'poset'}"]
    if poset.elements:
        lines.append("elem " + " ".join(poset.elements))
    for i, j in poset.cover_pairs:
        lines.append(f"le {poset.elements[i]} {poset.elements[j]}")
    return "\n".join(lines) + "\n"


def parse_diagram(text, base_dir=None) -> PosetDiagram:
    """Parse a diagram; node payloads may be in-file poset names or file paths."""
    inline = {}
    name = None
    nodes = {}
    edge_heads = {}
    edge_maps = {}
    order = []
    poset_lines = []
    in_diagram = False

    for line_no, tokens in _tokenized(text):
        head = tokens[0]
        if head in ("poset", "elem", "le") and not in_diagram:
            poset_lines.append((line_no, tokens))
            continue
        if head == "diagram":
            if len(tokens) != 2:
                raise FormatError("usage: diagram <name>", line_no)
            if in_diagram:
                raise FormatError("only one diagram block per file", line_no)
            in_diagram = True
            name = tokens[1]
            if poset_lines:
                inline = _poset_blocks(poset_lines)
        elif head == "node":
            if not in_diagram:
                raise FormatError("node before diagram header", line_no)
            if len(tokens) != 3:
                raise FormatError("usage: node <node-id> <poset-file-or-inline-name>", line_no)
            node_id, ref = tokens[1], tokens[2]
            if node_id in nodes:
                raise FormatError(f"duplicate node id {node_id!r}", line_no)
            nodes[node_id] = _resolve_poset(ref, inline, base_dir, line_no)
        elif head == "edge":
            if len(tokens) != 4:
                raise FormatError("usage: edge <edge-id> <src-node> <dst-node>", line_no)
            edge_id, src, dst = tokens[1:]
            if edge_id in edge_heads:
                raise FormatError(f"duplicate edge id {edge_id!r}", line_no)
            if src not in nodes or dst not in nodes:
                raise FormatError(f"edge {edge_id!r} references an undeclared node", line_no)
            edge_heads[edge_id] = (src, dst)
            edge_maps[edge_id] = {}
            order.append(edge_id)
        elif head == "map":
            if len(tokens) != 4:
                raise FormatError("usage: map <edge-id> <src-elem> <dst-elem>", line_no)
            edge_id, src_elem, dst_elem = tokens[1:]
            if edge_id not in edge_heads:
                raise FormatError(f"map for undeclared edge {edge_id!r}", line_no)
            src = edge_heads[edge_id][0]
            try:
                nodes[src].index(src_elem)
            except PosetError:
                message = f"map for edge {edge_id!r}: {src_elem!r} is not an element of node {src!r}"
                raise FormatError(message, line_no) from None
            if src_elem in edge_maps[edge_id]:
                raise FormatError(f"duplicate map entry for {src_elem!r}", line_no)
            edge_maps[edge_id][src_elem] = dst_elem
        else:
            raise FormatError(f"unknown directive {head!r} in diagram file", line_no)

    if not in_diagram:
        raise FormatError("no diagram block found")
    edges = []
    for edge_id in order:
        src, dst = edge_heads[edge_id]
        try:
            f = MonotoneMap.from_dict(nodes[src], nodes[dst], edge_maps[edge_id])
        except KeyError as exc:
            raise FormatError(f"edge {edge_id!r} is missing a map entry for {exc.args[0]!r}")
        except Exception as exc:
            raise FormatError(f"edge {edge_id!r}: {exc}")
        edges.append((edge_id, src, dst, f))
    return PosetDiagram(nodes=nodes, edges=edges, name=name)


def _resolve_poset(ref, inline, base_dir, line_no):
    if ref in inline:
        return inline[ref]
    path = os.path.join(base_dir or ".", ref)
    if os.path.exists(path):
        return load_poset(path)
    raise FormatError(f"node payload {ref!r} is neither an inline poset nor a file", line_no)


def serialize_diagram(diagram, name=None) -> str:
    lines = []
    for nid in diagram.node_ids:
        lines.append(serialize_poset(diagram.nodes[nid], name=f"{nid}.poset").rstrip("\n"))
    lines.append(f"diagram {name or diagram.name or 'diagram'}")
    for nid in diagram.node_ids:
        lines.append(f"node {nid} {nid}.poset")
    for edge_id, src, dst, f in diagram.edges:
        lines.append(f"edge {edge_id} {src} {dst}")
        for x, y in zip(f.source.elements, f.values):
            lines.append(f"map {edge_id} {x} {y}")
    return "\n".join(lines) + "\n"


def parse_sset(text) -> TruncatedSimplicialSet:
    """Parse an sset block; identity validation is left to the caller."""
    name = None
    trunc = None
    levels = None
    faces = {}
    degeneracies = {}
    for line_no, tokens in _tokenized(text):
        head = tokens[0]
        if head == "sset":
            if len(tokens) != 4 or tokens[2] != "trunc":
                raise FormatError("usage: sset <name> trunc <K>", line_no)
            if trunc is not None:
                raise FormatError("only one sset block per file", line_no)
            name = tokens[1]
            try:
                trunc = int(tokens[3])
            except ValueError:
                raise FormatError("truncation level must be an integer", line_no)
            if trunc < 0:
                raise FormatError("truncation level must be >= 0", line_no)
            if trunc > MAX_TRUNC:
                raise FormatError(f"truncation level {trunc} exceeds the limit {MAX_TRUNC}", line_no)
            levels = [[] for _ in range(trunc + 1)]
        elif head == "simplex":
            if levels is None:
                raise FormatError("simplex before sset header", line_no)
            if len(tokens) != 3:
                raise FormatError("usage: simplex <n> <id>", line_no)
            n = _int_token(tokens[1], line_no)
            if not 0 <= n <= trunc:
                raise FormatError(f"level {n} outside truncation {trunc}", line_no)
            levels[n].append(tokens[2])
        elif head in ("d", "s"):
            if levels is None:
                raise FormatError(f"{head} before sset header", line_no)
            if len(tokens) != 5:
                raise FormatError(f"usage: {head} <n> <i> <id> <id'>", line_no)
            n = _int_token(tokens[1], line_no)
            i = _int_token(tokens[2], line_no)
            table = (faces if head == "d" else degeneracies).setdefault((n, i), {})
            if tokens[3] in table:
                raise FormatError(f"duplicate {head} {n} {i} row for {tokens[3]!r}", line_no)
            table[tokens[3]] = tokens[4]
        else:
            raise FormatError(f"unknown directive {head!r} in sset file", line_no)
    if levels is None:
        raise FormatError("no sset block found")
    # only the empty simplicial set has an empty level (degeneracies reach every
    # level from level 0); its tables have no rows to write, so they are present
    # and empty
    if not any(levels):
        for n in range(trunc + 1):
            for i in range(n + 1):
                if n:
                    faces.setdefault((n, i), {})
                if n < trunc:
                    degeneracies.setdefault((n, i), {})
    try:
        return TruncatedSimplicialSet(levels, faces, degeneracies, name=name, validate=False)
    except Exception as exc:
        raise FormatError(str(exc))


def _int_token(token, line_no):
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", line_no)


def serialize_sset(X, name=None) -> str:
    ids = {}
    for n in range(X.K + 1):
        for x in X.levels[n]:
            label = simplex_label(x)
            if " " in label or "#" in label:
                raise FormatError(f"simplex label {label!r} is not serializable")
            ids[(n, x)] = label
    lines = [f"sset {name or X.name or 'sset'} trunc {X.K}"]
    for n in range(X.K + 1):
        for x in X.levels[n]:
            lines.append(f"simplex {n} {ids[(n, x)]}")
    for (n, i) in sorted(X.faces):
        for x, y in X.faces[(n, i)].items():
            lines.append(f"d {n} {i} {ids[(n, x)]} {ids[(n - 1, y)]}")
    for (n, i) in sorted(X.degeneracies):
        for x, y in X.degeneracies[(n, i)].items():
            lines.append(f"s {n} {i} {ids[(n, x)]} {ids[(n + 1, y)]}")
    return "\n".join(lines) + "\n"


def parse_functor(text, base_dir=None) -> FunctorPresentation:
    """Functor presentation files name a built-in family."""
    spec = None
    for line_no, tokens in _tokenized(text):
        if tokens[0] != "functor" or spec is not None:
            raise FormatError("functor files hold a single `functor` line", line_no)
        spec = (line_no, tokens[1:])
    if spec is None:
        raise FormatError("no functor line found")
    line_no, args = spec
    if args == ["inclusion"]:
        return inclusion_functor()
    if len(args) == 2 and args[0] == "product-with":
        path = os.path.join(base_dir or ".", args[1])
        if not os.path.exists(path):
            raise FormatError(f"poset file {args[1]!r} not found", line_no)
        return product_functor(load_poset(path))
    raise FormatError(
        "supported functor families: `inclusion`, `product-with <poset-file>`", line_no
    )


def load_poset(path) -> FinPoset:
    with open(path, encoding="utf-8") as fh:
        return parse_poset(fh.read())


def load_diagram(path) -> PosetDiagram:
    with open(path, encoding="utf-8") as fh:
        return parse_diagram(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def load_sset(path) -> TruncatedSimplicialSet:
    with open(path, encoding="utf-8") as fh:
        return parse_sset(fh.read())


def load_functor(path) -> FunctorPresentation:
    with open(path, encoding="utf-8") as fh:
        return parse_functor(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))
