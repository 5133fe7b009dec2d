"""Shared fixture builders for the test suite."""

from poscat import FinPoset, PosetDiagram, chains, make_poset, monotone_maps
from poscat.corpus import poset_classes


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
