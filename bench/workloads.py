"""The four workloads: inputs made from a seed, the operations, and their checks.

Each workload object has `ops`, a fixed list of zero-argument callables, and
`check(k, output)`, which returns '' when the output of operation k agrees
with the reference computations in `oracles`, or the reason it does not.
`digest(k, output)` condenses an output so that rounds can be compared.

The structures every workload runs on are fixed: posets come from the
benchmark's own enumeration of isomorphism classes, and the universal
diagrams from a fixed generator seed.  The run's seed renames every element,
node and edge and permutes the order of the operations.  Renamings keep the
sorted order of what they rename, because poscat sorts elements by name and
its search order follows: a renaming that reorders elements changes the cost
of a heavy universal diagram by up to a factor of 2.4, and drawing the
structures themselves from the seed changes which diagrams are heavy.  Either
would make op_p90_ms depend on the seed more than on the code.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import string
import subprocess
import sys

import oracles

# OEIS A000112: posets on n unlabeled elements.
POSET_CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318)

UNIVERSAL_SHAPE_SEED = 11
UNIVERSAL_DIAGRAMS = 100
UNIVERSAL_APEX_BOUND = 6
# Diagrams with at most this many stage-one classes get a brute-force cocone
# count into every target with at most BRUTE_TARGET_SIZE elements.
BRUTE_CLASSES = 4
BRUTE_TARGET_SIZE = 4

NAME_CHARS = string.ascii_lowercase + string.digits


def poset_classes(max_n):
    """One order per isomorphism class with at most max_n elements, on the
    elements '0'..'n-1', in a fixed generation order.

    Naturally labeled posets are grown by adding a new maximal element above
    a down-closed set; classes are then split off by isomorphism search.
    """
    out = [((), frozenset())]
    tables = [((), frozenset())]
    for k in range(max_n):
        new = str(k)
        grown = []
        for elements, leq in tables:
            for mask in range(1 << k):
                below = [str(i) for i in range(k) if mask >> i & 1]
                if all(x in below for y in below for x in elements if (x, y) in leq):
                    grown.append(
                        (elements + (new,), leq | {(x, new) for x in below} | {(new, new)})
                    )
        tables = grown
        buckets = {}
        for elements, leq in tables:
            key = tuple(
                sorted(
                    (sum((a, x) in leq for a in elements), sum((x, a) in leq for a in elements))
                    for x in elements
                )
            )
            bucket = buckets.setdefault(key, [])
            if any(oracles.find_isomorphism(elements, leq, e, l) is not None for e, l in bucket):
                continue
            bucket.append((elements, leq))
            out.append((elements, leq))
    return out


class Names:
    """Seeded supply of distinct identifiers made of lowercase letters and digits."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def fresh(self):
        while True:
            name = self.rng.choice(string.ascii_lowercase) + "".join(
                self.rng.choice(NAME_CHARS) for _ in range(2)
            )
            if name not in self.used:
                self.used.add(name)
                return name

    def batch(self, k):
        """k fresh names in sorted order."""
        return sorted(self.fresh() for _ in range(k))


class Order:
    """An input poset: the benchmark's own copy (elements, leq) and poscat's."""

    def __init__(self, poscat, elements, leq):
        self.elements = list(elements)
        self.leq = set(leq)
        self.program = poscat.make_poset(self.elements, sorted((x, y) for x, y in self.leq if x != y))
        self.height = oracles.height(self.elements, self.leq)


def renamed(poscat, cls, names):
    elements, leq = cls
    rename = dict(zip(sorted(elements), names.batch(len(elements))))
    order = Order(poscat, [rename[x] for x in elements], {(rename[x], rename[y]) for x, y in leq})
    return order, rename


def leq_of(poset):
    """The relation of a poscat FinPoset, read from its output fields."""
    return {(x, y) for x in poset.elements for y in poset.elements if poset.leq(x, y)}


def check_class_counts(classes):
    sizes = [len(elements) for elements, _ in classes]
    want = POSET_CLASS_COUNTS[: max(sizes) + 1]
    got = tuple(sizes.count(n) for n in range(len(want)))
    return "" if got == want else f"class counts {got} differ from {want}"


class OpError:
    """Output of an operation that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text

    def __hash__(self):
        return hash(self.text)


# ---------------------------------------------------------------- universal


def universal_shapes(classes):
    """Diagram shapes drawn like acceptance criterion 05, from a fixed seed:
    1-4 nodes, each a poset with 1-4 elements, and 0..nodes+1 edges, each a
    uniformly chosen monotone map."""
    rng = random.Random(UNIVERSAL_SHAPE_SEED)
    by_size = {}
    for cls in classes:
        by_size.setdefault(len(cls[0]), []).append(cls)
    shapes = []
    for _ in range(UNIVERSAL_DIAGRAMS):
        n_nodes = rng.randint(1, 4)
        nodes = []
        for _ in range(n_nodes):
            options = by_size[rng.randint(1, 4)]
            nodes.append(options[rng.randrange(len(options))])
        edges = []
        for _ in range(rng.randint(0, n_nodes + 1)):
            src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
            maps = oracles.monotone_functions(*nodes[src], *nodes[dst])
            edges.append((src, dst, maps[rng.randrange(len(maps))]))
        shapes.append((nodes, edges))
    return shapes


class Diagram:
    """A diagram of input orders, for poscat and for the reference colimit.

    edges are (edge id, source node, target node, element mapping).
    """

    def __init__(self, orders, edges, program=None):
        self.orders = orders
        self.edges = edges
        self.program = program
        self.reference = oracles.Colimit(
            {nid: (o.elements, o.leq) for nid, o in orders.items()},
            [(s, d, m) for _, s, d, m in edges],
        )

    @classmethod
    def from_shape(cls, poscat, shape, names, name):
        """A seeded renaming of one shape."""
        nodes, edges = shape
        node_ids = names.batch(len(nodes))
        orders = {}
        renames = []
        for nid, node in zip(node_ids, nodes):
            orders[nid], rename = renamed(poscat, node, names)
            renames.append(rename)
        named_edges = []
        program_edges = []
        for eid, (src, dst, mapping) in zip(names.batch(len(edges)), edges):
            m = {renames[src][x]: renames[dst][y] for x, y in mapping.items()}
            s, d = node_ids[src], node_ids[dst]
            named_edges.append((eid, s, d, m))
            program_edges.append(
                (eid, s, d, poscat.MonotoneMap.from_dict(orders[s].program, orders[d].program, m))
            )
        program = poscat.PosetDiagram(
            nodes={nid: o.program for nid, o in orders.items()}, edges=program_edges, name=name
        )
        return cls(orders, named_edges, program)


def cocone_mismatch(reference, cocone):
    apex = cocone.apex
    legs = {(nid, x): leg(x) for nid, leg in cocone.legs.items() for x in leg.source.elements}
    return oracles.check_cocone_against(reference, apex.elements, leq_of(apex), legs)


class Universal:
    """colimit_pos then verify_universal at apex bound 6, per diagram."""

    def __init__(self, poscat, seed, **_):
        self.poscat = poscat
        self.corpus = poscat.all_posets(UNIVERSAL_APEX_BOUND)
        self.classes = poset_classes(4)
        rng = random.Random(seed)
        names = Names(rng)
        self.diagrams = [
            Diagram.from_shape(poscat, shape, names, f"u{k}")
            for k, shape in enumerate(universal_shapes(self.classes))
        ]
        rng.shuffle(self.diagrams)
        self.ops = [self._op(d) for d in self.diagrams]

    def _op(self, diagram):
        poscat = self.poscat

        def op():
            cocone = poscat.colimit_pos(diagram.program)
            return cocone, poscat.verify_universal(diagram.program, cocone, UNIVERSAL_APEX_BOUND)

        return op

    def self_check(self):
        sizes = [p.n for p in self.corpus]
        got = tuple(sizes.count(n) for n in range(UNIVERSAL_APEX_BOUND + 1))
        if got != POSET_CLASS_COUNTS:
            return f"all_posets({UNIVERSAL_APEX_BOUND}) class counts {got} differ from A000112"
        return check_class_counts(self.classes)

    def digest(self, k, output):
        if isinstance(output, OpError):
            return output
        cocone, report = output
        legs = tuple(
            (nid, cocone.legs[nid].values) for nid in sorted(cocone.legs)
        )
        entries = tuple(
            (e.apex_label, e.cocones, e.existence_ok, e.uniqueness_ok) for e in report.entries
        )
        return (cocone.apex.elements, cocone.apex.up_rows, legs, entries, report.witness)

    def check(self, k, output):
        if isinstance(output, OpError):
            return f"raised {output.text}"
        diagram = self.diagrams[k]
        cocone, report = output
        why = cocone_mismatch(diagram.reference, cocone)
        if why:
            return f"colimit apex differs from the reference colimit: {why}"
        if not report.passed:
            return f"verify_universal reports a failure: {report.witness}"
        sizes = [e.apex_size for e in report.entries]
        if tuple(sizes.count(n) for n in range(UNIVERSAL_APEX_BOUND + 1)) != POSET_CLASS_COUNTS:
            return "verify_universal did not check one apex per isomorphism class"
        if len(diagram.reference.stage_one) <= BRUTE_CLASSES:
            return cocone_count_mismatch(diagram.reference, report.entries, self.corpus)
        return ""


def cocone_count_mismatch(reference, entries, corpus):
    """Compare verify_universal's cocone counts with brute force, for every
    target with at most BRUTE_TARGET_SIZE elements."""
    targets = {p.name: p for p in corpus}
    for entry in entries:
        if entry.apex_size > BRUTE_TARGET_SIZE:
            continue
        target = targets[entry.apex_label]
        want = oracles.count_cocones(reference, target.elements, leq_of(target))
        if entry.cocones != want:
            return f"{entry.cocones} cocones into {entry.apex_label} reported, {want} by brute force"
    return ""


# ---------------------------------------------------------------- nerves


class Nerves:
    """Continuity of nerve(P, 4) for |P| <= 5, and monotone against simplicial
    map counts at truncation 1 for every ordered pair with |p|, |q| <= 4."""

    TRUNC = 4

    def __init__(self, poscat, seed, **_):
        self.poscat = poscat
        self.classes = poset_classes(5)
        rng = random.Random(seed)
        names = Names(rng)
        self.posets = [renamed(poscat, cls, names)[0] for cls in self.classes]
        small = [p for p in self.posets if len(p.elements) <= 4]
        work = [("continuity", p, None) for p in self.posets]
        work += [("homcount", p, q) for p in small for q in small]
        rng.shuffle(work)
        self.work = work
        self.ops = [self._op(*w) for w in work]

    def _op(self, kind, p, q):
        poscat = self.poscat
        if kind == "continuity":

            def op():
                X = poscat.nerve(p.program, self.TRUNC)
                return X, poscat.check_continuity(X)

        else:

            def op():
                count = poscat.count_monotone_maps(p.program, q.program)
                maps = poscat.simplicial_maps(poscat.nerve(p.program, 1), poscat.nerve(q.program, 1))
                return count, len(maps)

        return op

    def self_check(self):
        return check_class_counts(self.classes)

    def digest(self, k, output):
        if isinstance(output, OpError) or self.work[k][0] == "homcount":
            return output
        X, report = output
        rebuilt = report.poset
        shape = None if rebuilt is None else (rebuilt.elements, rebuilt.up_rows)
        return tuple(len(level) for level in X.levels), report.passed, shape

    def check(self, k, output):
        if isinstance(output, OpError):
            return f"raised {output.text}"
        kind, p, q = self.work[k]
        if kind == "homcount":
            want = oracles.count_monotone(p.elements, p.leq, q.elements, q.leq)
            if output != (want, want):
                return f"monotone/simplicial counts {output}, brute force {want}"
            return ""
        X, report = output
        for n in range(self.TRUNC + 1):
            want = oracles.count_weak_chains(p.elements, p.leq, n)
            if len(X.levels[n]) != want:
                return f"nerve level {n} has {len(X.levels[n])} simplices, brute force {want}"
        if not report.passed:
            return "check_continuity fails on a nerve"
        rebuilt = report.poset
        if sorted(rebuilt.elements) != sorted(p.elements):
            return "reconstructed poset has other element names"
        if leq_of(rebuilt) != p.leq:
            return "reconstructed poset has another relation"
        return ""


# ---------------------------------------------------------------- kan


def leg_bijection(cocone, image):
    """Map apex elements to what the legs say they stand for.

    Comma-diagram node ids are the chain's elements joined by commas;
    image(chain, element) gives the intended point for an element of a node.
    Returns (mapping, '') or (None, reason).
    """
    mapping = {}
    for nid, leg in cocone.legs.items():
        chain = nid.split(",")
        for x in leg.source.elements:
            try:
                point = image(chain, x)
            except (ValueError, IndexError):
                return None, f"node {nid!r} has an element {x!r} the functor does not make"
            a = leg(x)
            if mapping.setdefault(a, point) != point:
                return None, f"apex element {a!r} stands for both {mapping[a]!r} and {point!r}"
    return mapping, ""


def _inclusion_image(chain, x):
    return chain[int(x)]


def _product_image(chain, x):
    j, y = x.split(",")
    return (chain[int(j)], y)


class Kan:
    """extend(inclusion), extend(product with [1]) and density_colimit at
    bound height(P), for every P with |P| <= 5."""

    def __init__(self, poscat, seed, **_):
        self.poscat = poscat
        self.classes = poset_classes(5)
        rng = random.Random(seed)
        names = Names(rng)
        posets = [renamed(poscat, cls, names)[0] for cls in self.classes]
        work = [(kind, p) for p in posets for kind in ("inclusion", "product", "density")]
        rng.shuffle(work)
        self.work = work
        self.interval = oracles.chain_order(1)
        self.ops = [self._op(kind, p) for kind, p in work]

    def _op(self, kind, p):
        poscat = self.poscat
        if kind == "inclusion":
            return lambda: poscat.extend(poscat.inclusion_functor(), p.program)
        if kind == "product":
            return lambda: poscat.extend(poscat.product_functor(poscat.ordinal_poset(1)), p.program)
        return lambda: poscat.density_colimit(p.program, p.height)

    def self_check(self):
        return check_class_counts(self.classes)

    def digest(self, k, output):
        if isinstance(output, OpError):
            return output
        if self.work[k][0] == "density":
            apex = output.cocone.apex
            return apex.elements, apex.up_rows, output.stabilized, output.passed
        return output.value.elements, output.value.up_rows, output.stabilization

    def check(self, k, output):
        if isinstance(output, OpError):
            return f"raised {output.text}"
        kind, p = self.work[k]
        if kind == "density":
            if not output.passed:
                return "density_colimit reports a failure"
            cocone, image, target = output.cocone, _inclusion_image, (p.elements, p.leq)
        else:
            if output.value != output.cocone.apex:
                return "extension value is not the apex of its cocone"
            # Both functors commute with the colimits that build P from its
            # chains, so the truncation at height(P) is already stable.
            if output.stabilization != p.height:
                return f"stabilized at {output.stabilization}, not at the height {p.height}"
            cocone = output.cocone
            if kind == "inclusion":
                image, target = _inclusion_image, (p.elements, p.leq)
            else:
                image = _product_image
                target = oracles.product_order(p.elements, p.leq, *self.interval)
        mapping, why = leg_bijection(cocone, image)
        if not why:
            why = oracles.check_order_bijection(mapping, cocone.apex.elements, leq_of(cocone.apex), *target)
        return f"{kind}: {why}" if why else ""


# ---------------------------------------------------------------- cli


def nerve_sset_text(order, K, name):
    """The nerve of an order in sset format, written by the benchmark itself."""
    up = {x: sorted(y for y in order.elements if (x, y) in order.leq) for x in order.elements}
    levels = [[(x,) for x in sorted(order.elements)]]
    for _ in range(K):
        levels.append([t + (y,) for t in levels[-1] for y in up[t[-1]]])
    label = ",".join
    lines = [f"sset {name} trunc {K}"]
    for n, level in enumerate(levels):
        lines += [f"simplex {n} {label(t)}" for t in level]
    for n in range(1, K + 1):
        for i in range(n + 1):
            lines += [f"d {n} {i} {label(t)} {label(t[:i] + t[i + 1:])}" for t in levels[n]]
    for n in range(K):
        for i in range(n + 1):
            lines += [f"s {n} {i} {label(t)} {label(t[:i + 1] + t[i:])}" for t in levels[n]]
    return "\n".join(lines) + "\n"


# A fixed file, the same for every seed: the nerve of p < q at truncation 1
# with one face row given twice.  Parse errors exit 2 by the documented table.
REPEATED_ROW_SSET = """sset repeated trunc 1
simplex 0 p
simplex 0 q
simplex 1 p,p
simplex 1 p,q
simplex 1 q,q
d 1 0 p,p p
d 1 0 p,q q
d 1 0 p,q q
d 1 0 q,q q
d 1 1 p,p p
d 1 1 p,q p
d 1 1 q,q q
s 0 0 p p,p
s 0 0 q q,q
"""


def poset_text(order, name):
    lines = [f"poset {name}", "elem " + " ".join(order.elements)]
    lines += [f"le {x} {y}" for x, y in sorted(order.leq) if x != y]
    return "\n".join(lines) + "\n"


def diagram_text(diagram, name):
    lines = []
    for nid, order in diagram.orders.items():
        lines.append(poset_text(order, f"{nid}_p").rstrip("\n"))
    lines.append(f"diagram {name}")
    lines += [f"node {nid} {nid}_p" for nid in diagram.orders]
    for eid, src, dst, mapping in diagram.edges:
        lines.append(f"edge {eid} {src} {dst}")
        lines += [f"map {eid} {x} {y}" for x, y in mapping.items()]
    return "\n".join(lines) + "\n"


def machine_fields(stdout):
    """key=value lines as a dict of lists."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        out.setdefault(key, []).append(value)
    return out


def one(fields, key):
    values = fields.get(key, [])
    if len(values) != 1:
        raise ValueError(f"expected one {key}= line, found {len(values)}")
    return values[0]


def covers_order(elements, le_values):
    pairs = [tuple(v.split("<")) for v in le_values]
    return oracles.closure(elements, pairs)


# Class positions in poset_classes(5) order, fixed so every seed runs the
# same structures: sizes 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5.
CLI_POSETS = (5, 7, 10, 14, 18, 22, 30, 40, 50, 60, 70, 85)
CLI_DIAGRAM_SHAPES = tuple(range(3, 99, 8))
# Chain sizes (a, b): a chain of a elements mapped into one of b elements,
# bottom to bottom and top to top, a colimit that is a total order.
CLI_GLUED_CHAINS = ((2, 3), (2, 4), (3, 4), (2, 5))


def chain_class(classes, k):
    return next(c for c in classes if len(c[0]) == k and len(c[1]) == k * (k + 1) // 2)


def bottom_to_top(order):
    return sorted(order.elements, key=lambda x: sum((y, x) in order.leq for y in order.elements))


class Cli:
    """One `python -m poscat.cli ... --format machine` process per operation,
    covering all nine subcommands on files written at set-up."""

    def __init__(self, poscat, seed, root, in_process=False, **_):
        self.poscat = poscat
        self.in_process = in_process
        # Subprocess operations: peak memory is that of the largest child.
        self.measures_children = not in_process
        self.classes = poset_classes(5)
        rng = random.Random(seed)
        names = Names(rng)
        self.workdir = os.path.join(root, ".bench_out", f"cli-work-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

        posets = []
        for pos in CLI_POSETS:
            order = renamed(poscat, self.classes[pos], names)[0]
            posets.append((order, self._write(f"p{len(posets)}.poset", poset_text(order, "P"))))
        inclusion = self._write("inclusion.fun", "functor inclusion\n")
        interval = Order(poscat, ["0", "1"], {("0", "0"), ("0", "1"), ("1", "1")})
        self._write("interval.poset", poset_text(interval, "I"))
        product = self._write("product.fun", "functor product-with interval.poset\n")

        work = []
        for order, path in posets[:8]:
            work.append(("nerve", ["nerve", "--poset", path, "--trunc", "3"], 0, order))
        for k, (order, _) in enumerate(posets[4:]):
            sset = self._write(f"n{k}.sset", nerve_sset_text(order, 3, f"N{k}"))
            work.append(("check", ["check", "--sset", sset], 0, order))
            work.append(("reconstruct", ["reconstruct", "--sset", sset], 0, order))
        shapes = universal_shapes(poset_classes(4))
        for k in CLI_DIAGRAM_SHAPES:
            diagram = Diagram.from_shape(poscat, shapes[k], names, f"D{k}")
            path = self._write(f"d{k}.diag", diagram_text(diagram, f"D{k}"))
            work.append(("colimit", ["colimit", "--diagram", path, "--in", "pos"], 0, diagram))
        for a, b in CLI_GLUED_CHAINS:
            small = renamed(poscat, chain_class(self.classes, a), names)[0]
            big = renamed(poscat, chain_class(self.classes, b), names)[0]
            low, high = bottom_to_top(small), bottom_to_top(big)
            into = dict(zip(low[:-1], high))
            into[low[-1]] = high[-1]
            glued = Diagram({"A": small, "B": big}, [("g", "A", "B", into)])
            path = self._write(f"glued{a}{b}.diag", diagram_text(glued, "glued"))
            work.append(("colimit", ["colimit", "--diagram", path, "--in", "tos"], 0, glued))
        point = Order(poscat, ["x"], {("x", "x")})
        path = self._write("two.diag", diagram_text(Diagram({"A": point, "B": point}, []), "two"))
        work.append(("no-colimit", ["colimit", "--diagram", path, "--in", "delta"], 1, None))
        for order, path in posets:
            work.append(("extensions", ["extensions", "--poset", path], 0, order))
        for order, path in posets[2:]:
            work.append(("density", ["density", "--poset", path], 0, order))
        for order, path in posets[:10]:
            work.append(("extend-inclusion", ["extend", "--functor", inclusion, "--poset", path], 0, order))
        for order, path in posets[:8]:
            work.append(("extend-product", ["extend", "--functor", product, "--poset", path], 0, order))
        for max_n in range(2, 8):
            work.append(("identities", ["verify-identities", "--max-n", str(max_n)], 0, max_n))
        for i, (p, p_path) in enumerate(posets):
            q, q_path = posets[(i + 5) % len(posets)]
            trunc = "2" if i in (0, 2, 4) else "1"
            argv = ["homcount", "--poset", p_path, "--poset2", q_path, "--trunc", trunc]
            work.append(("homcount", argv, 0, (p, q)))
        repeated = self._write("repeated.sset", REPEATED_ROW_SSET)
        work.append(("repeated-row", ["check", "--sset", repeated], 2, None))
        rng.shuffle(work)
        self.work = work
        self.ops = [self._op(argv + ["--format", "machine"]) for _, argv, _, _ in work]
        self._interval = oracles.chain_order(1)

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _op(self, argv):
        if self.in_process:
            cli = self.poscat.cli

            def op():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.run(argv)
                    except SystemExit as exc:
                        code = exc.code
                return code, out.getvalue()

            return op
        command = [sys.executable, "-m", "poscat.cli"] + argv
        env = self.env

        def op():
            proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
            return proc.returncode, proc.stdout

        return op

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def self_check(self):
        return check_class_counts(self.classes)

    def digest(self, k, output):
        return output

    def check(self, k, output):
        if isinstance(output, OpError):
            return f"raised {output.text}"
        kind, argv, want_code, data = self.work[k]
        code, stdout = output
        if code != want_code:
            return f"{kind}: exit {code}, documented {want_code}"
        try:
            why = getattr(self, "_check_" + kind.replace("-", "_"))(stdout, data)
        except (ValueError, KeyError, IndexError) as exc:
            why = f"unreadable output ({exc})"
        return f"{kind}: {why}" if why else ""

    def _check_nerve(self, stdout, order):
        levels = {}
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith("sset ") or not lines[0].endswith(" trunc 3"):
            return "no sset header"
        for line in lines[1:]:
            tokens = line.split()
            if tokens[0] == "simplex":
                levels.setdefault(int(tokens[1]), []).append(tokens[2])
            else:
                n, i = int(tokens[1]), int(tokens[2])
                t, image = tokens[3].split(","), tokens[4].split(",")
                want = t[:i] + t[i + 1:] if tokens[0] == "d" else t[: i + 1] + t[i:]
                if image != want:
                    return f"{tokens[0]}_{i} at level {n} sends {tokens[3]} to {tokens[4]}"
        for n in range(4):
            want = oracles.count_weak_chains(order.elements, order.leq, n)
            if len(levels.get(n, ())) != want:
                return f"level {n} has {len(levels.get(n, ()))} simplices, brute force {want}"
        return ""

    def _check_check(self, stdout, order):
        fields = machine_fields(stdout)
        if one(fields, "overall") != "PASS" or one(fields, "poset.size") != str(len(order.elements)):
            return "a nerve does not pass"
        failing = [k for k, v in fields.items() if k.startswith("check.") and v != ["PASS"]]
        return f"checks not PASS: {failing}" if failing else ""

    def _check_reconstruct(self, stdout, order):
        elements, pairs = [], []
        for line in stdout.splitlines():
            tokens = line.split()
            if tokens[0] == "elem":
                elements += tokens[1:]
            elif tokens[0] == "le":
                pairs.append((tokens[1], tokens[2]))
        if sorted(elements) != sorted(order.elements):
            return "other element names"
        return "" if oracles.closure(elements, pairs) == order.leq else "another relation"

    def _check_colimit(self, stdout, diagram):
        fields = machine_fields(stdout)
        if one(fields, "exists") != "yes":
            return "no colimit reported"
        elements = one(fields, "apex.elements").split()
        if one(fields, "apex.size") != str(len(elements)):
            return "apex.size disagrees with apex.elements"
        legs = {}
        for key, values in fields.items():
            if key.startswith("leg."):
                _, nid, x = key.split(".")
                legs[(nid, x)] = values[0]
        apex_leq = covers_order(elements, fields.get("apex.le", []))
        return oracles.check_cocone_against(diagram.reference, elements, apex_leq, legs)

    def _check_no_colimit(self, stdout, _):
        return "" if machine_fields(stdout) == {"exists": ["no"]} else "expected exists=no"

    def _check_extensions(self, stdout, order):
        fields = machine_fields(stdout)
        want = oracles.count_linear_extensions(order.elements, order.leq)
        if one(fields, "extensions.count") != str(want):
            return f"extensions.count={one(fields, 'extensions.count')}, permutations give {want}"
        listed = [one(fields, f"extension.{k}").split("<") for k in range(want)]
        if len({tuple(s) for s in listed}) != want:
            return "an extension is listed twice"
        if not all(oracles.is_linear_extension(s, order.elements, order.leq) for s in listed):
            return "a listed extension does not respect the order"
        return "" if one(fields, "intersection_equals_order") == "PASS" else "intersection FAIL"

    def _check_density(self, stdout, order):
        fields = machine_fields(stdout)
        want = {
            "bound": [str(order.height)],
            "apex.size": [str(len(order.elements))],
            "stabilized": ["yes"],
            "isomorphic": ["PASS"],
        }
        return "" if fields == want else f"fields {fields}, expected {want}"

    def _check_extend(self, stdout, target, order):
        fields = machine_fields(stdout)
        if one(fields, "stabilized") != "yes" or one(fields, "stabilization") != str(order.height):
            return "no stabilization at the height"
        elements = one(fields, "value.elements").split()
        if one(fields, "value.size") != str(len(elements)):
            return "value.size disagrees with value.elements"
        value_leq = covers_order(elements, fields.get("value.le", []))
        if oracles.find_isomorphism(elements, value_leq, *target) is None:
            return "value is not isomorphic to the expected poset"
        return ""

    def _check_extend_inclusion(self, stdout, order):
        return self._check_extend(stdout, (order.elements, order.leq), order)

    def _check_extend_product(self, stdout, order):
        target = oracles.product_order(order.elements, order.leq, *self._interval)
        return self._check_extend(stdout, target, order)

    def _check_identities(self, stdout, max_n):
        instances, failures = oracles.simplicial_identity_instances(max_n)
        want = {"instances": [str(instances)], "failures": [str(failures)], "overall": ["PASS"]}
        fields = machine_fields(stdout)
        return "" if fields == want else f"fields {fields}, expected {want}"

    def _check_homcount(self, stdout, pair):
        p, q = pair
        want = str(oracles.count_monotone(p.elements, p.leq, q.elements, q.leq))
        fields = machine_fields(stdout)
        expected = {"monotone": [want], "simplicial": [want], "equal": ["PASS"]}
        return "" if fields == expected else f"fields {fields}, expected {expected}"

    def _check_repeated_row(self, stdout, _):
        return ""


WORKLOADS = {"universal": Universal, "nerves": Nerves, "kan": Kan, "cli": Cli}
