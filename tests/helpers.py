"""Shared fixture builders for the test suite."""

import hashlib

from poscat import FinPoset, PosetDiagram, make_poset, monotone_maps
from poscat.corpus import _children, poset_classes
from poscat.posets import chain_levels
from poscat.simplicial import TruncatedSimplicialSet


def chains(poset, n, strict=False):
    """All weakly (or strictly) increasing (n+1)-tuples, lexicographically ordered."""
    return chain_levels(poset, n, strict)[n]


def flag_sset(n, R, K):
    """The flag simplicial set of a reflexive relation R, a set of index pairs
    (a, b) on the vertices "0".."n-1", truncated at K: level m holds the
    (m+1)-tuples of vertices whose entries are pairwise related in order, d_i
    deletes entry i and s_i duplicates it.  The tables are built here and
    passed to the raw constructor unvalidated, so no poscat builder stands
    between R and what `check_continuity` sees."""
    vertices = [str(v) for v in range(n)]
    related = {(str(a), str(b)) for a, b in R}
    levels = [[(v,) for v in vertices]]
    for _ in range(K):
        levels.append(
            [t + (v,) for t in levels[-1] for v in vertices if all((u, v) in related for u in t)]
        )
    faces = {
        (m, i): {t: t[:i] + t[i + 1 :] for t in levels[m]}
        for m in range(1, K + 1)
        for i in range(m + 1)
    }
    degeneracies = {
        (m, i): {t: t[: i + 1] + t[i:] for t in levels[m]} for m in range(K) for i in range(m + 1)
    }
    return TruncatedSimplicialSet(levels, faces, degeneracies, name=f"flag{n}", validate=False)


def naturally_labeled_posets(n):
    """Row-mask tables of every naturally labeled poset on {0,...,n-1}: the
    oracle for the corpus's exhaustiveness and for the orbit identity."""
    tables = [()]
    for k in range(n):
        tables = [child for rows in tables for child in _children(rows, k)]
    return tables


def naturally_labeled_count(n):
    return len(naturally_labeled_posets(n))


def two_chain():
    return make_poset(["0", "1"], [("0", "1")], name="two-chain")


def three_chain():
    return make_poset(["0", "1", "2"], [("0", "1"), ("1", "2")], name="three-chain")


def two_antichain():
    return make_poset(["a", "b"], [], name="two-antichain")


def singleton():
    return make_poset(["x"], [], name="pt")


def v_poset():
    return make_poset(["a", "b", "c"], [("a", "c"), ("b", "c")], name="V")


def relabel(poset, prefix):
    """Copy with every element renamed `prefix + old`."""
    return FinPoset(tuple(prefix + e for e in poset.elements), poset.up_rows, name=poset.name)


def shuffled(poset, rng):
    """Copy with the same element names at randomly permuted indices, so that
    its index order is not its name order."""
    n = poset.n
    perm = list(range(n))  # element i moves to index perm[i]
    rng.shuffle(perm)
    inverse = sorted(range(n), key=perm.__getitem__)
    rows = [sum(1 << perm[j] for j in range(n) if poset.up_rows[i] >> j & 1) for i in inverse]
    return FinPoset([poset.elements[i] for i in inverse], rows, name=poset.name)


def pairwise_order_error(elements, up_rows):
    """The message FinPoset raises for reflexive in-range rows that are not a
    partial order, or None: the pair-by-pair check over every (i, j) with
    i <= j in row-major order, antisymmetry before transitivity."""
    n = len(elements)
    for i in range(n):
        for j in range(n):
            if up_rows[i] & (1 << j):
                if i != j and up_rows[j] & (1 << i):
                    return f"relation not antisymmetric at {elements[i]}, {elements[j]}"
                if up_rows[j] & ~up_rows[i]:
                    return "relation not transitive"
    return None


def nested_colours(table):
    """The nested value each colour of a `posets.signatures` table stands for,
    listed by colour: (down size, up size) for the first round's colours, and
    (own, sorted below, sorted above) for the later ones.  A key's colours are
    numbered before the key, so one pass in numbering order suffices.  The
    reference for `posets.colour_ranks`, which orders them round by round."""
    values = []
    for key in table:
        if len(key) == 2:
            values.append(key)
        else:
            own, below, above = key
            values.append(
                (
                    values[own],
                    tuple(sorted(values[c] for c in below)),
                    tuple(sorted(values[c] for c in above)),
                )
            )
    return values


def colour_rounds(values):
    """The colours of each refinement round, listed by round, for `values`
    from `nested_colours`: a first-round value is a pair of sizes, and a later
    one holds the value it refines first."""
    rounds = []
    for c, value in enumerate(values):
        depth = 0
        while len(value) == 3:
            value = value[0]
            depth += 1
        rounds.extend([] for _ in range(depth + 1 - len(rounds)))
        rounds[depth].append(c)
    return rounds


def random_diagram(rng, max_nodes=4, max_elems=4):
    """Seeded random multidigraph of small posets with monotone edge maps."""
    n_nodes = rng.randint(1, max_nodes)
    nodes = {}
    for k in range(n_nodes):
        size = rng.randint(1, max_elems)
        classes = poset_classes(size)
        base = classes[rng.randrange(len(classes))]
        nodes[f"N{k}"] = relabel(base, f"n{k}.")
    node_ids = sorted(nodes)
    edges = []
    for t in range(rng.randint(0, n_nodes + 1)):
        src = node_ids[rng.randrange(n_nodes)]
        dst = node_ids[rng.randrange(n_nodes)]
        maps = monotone_maps(nodes[src], nodes[dst])
        edges.append((f"e{t}", src, dst, maps[rng.randrange(len(maps))]))
    return PosetDiagram(nodes=nodes, edges=edges, name=f"random{rng.randrange(10**6)}")


def weak_comma_data(functor, poset, length_bound):
    """The comma diagram over every monotone map [n] -> P with n <= the bound
    (weak chains, repeats included), with face and degeneracy edges, and the
    chain of each node id.  The weak truncation at any bound >= height(P) is
    final, like the strict diagram of `kan.comma_data`, so it is an oracle for
    it."""
    node_chain = {}
    nodes = {}
    for n in range(length_bound + 1):
        for t in chains(poset, n):
            node_chain[",".join(t)] = t
            nodes[",".join(t)] = functor.obj(n)
    edges = []
    for nid, t in sorted(node_chain.items()):
        m = len(t) - 1
        for i in range(m + 1):
            if m >= 1:
                src = ",".join(t[:i] + t[i + 1 :])
                edges.append((f"d{i}>{nid}", src, nid, functor.gen("face", m, i)))
            if m + 1 <= length_bound:
                src = ",".join(t[: i + 1] + t[i:])
                edges.append((f"s{i}>{nid}", src, nid, functor.gen("degeneracy", m, i)))
    diagram = PosetDiagram(nodes=nodes, edges=edges, name=f"weak({poset.name},{length_bound})")
    return diagram, node_chain


def digest(lines):
    """SHA-256 of the lines, each ended by a newline: a pin of same answers."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
