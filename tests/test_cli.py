"""CLI dispatch, exit codes, and report stability."""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

import poscat.cli
import poscat.continuity
import poscat.posets
from poscat.cli import run
from poscat.continuity import DensityResult
from poscat.delta import IdentityReport

V_POSET = """\
poset V
elem a b c
le a c
le b c
"""

TWO_POINTS = """\
poset pt
elem x
diagram twopoints
node A pt
node B pt
"""

GLUE = """\
poset pt
elem x
poset edge
elem lo hi
le lo hi
diagram glue
node A pt
node B edge
node C edge
edge f A B
map f x hi
edge g A C
map g x lo
"""


@pytest.fixture
def v_file(tmp_path):
    path = tmp_path / "v.poset"
    path.write_text(V_POSET, encoding="utf-8")
    return str(path)


def test_cli_starts_without_dataclasses_or_inspect():
    # each `poscat` process pays for what the package imports; these two
    # (with ast, dis and tokenize behind them) cost about 19 ms a start on a
    # 2-vCPU VM
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import poscat.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_nerve_then_check_round_trip(tmp_path, v_file, capsys):
    out = tmp_path / "v.sset"
    assert run(["nerve", "--poset", v_file, "--trunc", "2", "--output", str(out)]) == 0
    assert run(["check", "--sset", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text


@pytest.mark.parametrize("trunc", ["0", "1", "2"])
def test_empty_poset_nerve_round_trip(tmp_path, capsys, trunc):
    # every level is empty, so the nerve file holds its header only
    poset = tmp_path / "e.poset"
    poset.write_text("poset e\n", encoding="utf-8")
    out = tmp_path / "e.sset"
    assert run(["nerve", "--poset", str(poset), "--trunc", trunc, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == f"sset N(e) trunc {trunc}\n"
    assert run(["check", "--format", "machine", "--sset", str(out)]) == 0
    assert "overall=PASS" in capsys.readouterr().out


def test_check_machine_format_is_stable(tmp_path, v_file, capsys):
    out = tmp_path / "v.sset"
    run(["nerve", "--poset", v_file, "--trunc", "2", "--output", str(out)])
    run(["check", "--format", "machine", "--sset", str(out)])
    first = capsys.readouterr().out
    run(["check", "--format", "machine", "--sset", str(out)])
    second = capsys.readouterr().out
    assert first == second
    assert "overall=PASS" in first


def test_check_fails_on_corrupted_sset(tmp_path, v_file, capsys):
    out = tmp_path / "v.sset"
    run(["nerve", "--poset", v_file, "--trunc", "1", "--output", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    lines.append("simplex 1 rogue")
    lines.append("d 1 0 rogue c")
    lines.append("d 1 1 rogue a")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["check", "--sset", str(out)]) == 1
    assert "relation_injective: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "reconstruct"])
def test_intransitive_truncation_one_sset_fails_with_a_witness(tmp_path, capsys, command):
    # edges a->b and b->c without a->c: only the transitivity scan catches it
    vertices = ["a", "b", "c"]
    edges = ["a,a", "a,b", "b,b", "b,c", "c,c"]
    lines = ["sset bad trunc 1"]
    lines += [f"simplex 0 {v}" for v in vertices] + [f"simplex 1 {e}" for e in edges]
    lines += [f"d 1 {i} {e} {e.split(',')[1 - i]}" for i in (0, 1) for e in edges]
    lines += [f"s 0 0 {v} {v},{v}" for v in vertices]
    path = tmp_path / "bad.sset"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run([command, "--format", "machine", "--sset", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "check.face_formulas.witness=relation not transitive: a <= b <= c without a <= c" in out
    assert "overall=FAIL" in out


def test_reconstruct_emits_poset(tmp_path, v_file, capsys):
    out = tmp_path / "v.sset"
    run(["nerve", "--poset", v_file, "--trunc", "2", "--output", str(out)])
    assert run(["reconstruct", "--sset", str(out)]) == 0
    text = capsys.readouterr().out
    assert "le a c" in text and "le b c" in text


def test_colimit_exit_codes(tmp_path, capsys):
    two = tmp_path / "two.diag"
    two.write_text(TWO_POINTS, encoding="utf-8")
    assert run(["colimit", "--diagram", str(two), "--in", "delta"]) == 1
    assert "no colimit" in capsys.readouterr().out
    assert run(["colimit", "--diagram", str(two), "--in", "delta", "--format", "machine"]) == 1
    assert capsys.readouterr().out == "exists=no\n"
    assert run(["colimit", "--diagram", str(two), "--in", "pos"]) == 0
    glue = tmp_path / "glue.diag"
    glue.write_text(GLUE, encoding="utf-8")
    assert run(["colimit", "--diagram", str(glue), "--in", "delta"]) == 0
    text = capsys.readouterr().out
    assert "leg A" in text
    ghost = tmp_path / "ghost.diag"
    ghost.write_text(TWO_POINTS + "edge f A B\nmap f x x\nmap f ghost x\n", encoding="utf-8")
    assert run(["colimit", "--diagram", str(ghost), "--in", "pos", "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 8: map for edge 'f': 'ghost' is not an element of node 'A'\n"


def test_extensions_command(v_file, capsys):
    assert run(["extensions", "--poset", v_file]) == 0
    text = capsys.readouterr().out
    assert "2 linear extensions" in text
    assert "PASS" in text


def test_extensions_of_a_long_chain(tmp_path, capsys):
    # deeper than the recursion limit: the search runs on an explicit stack
    names = [f"e{k:04d}" for k in range(1100)]
    lines = ["poset chain", "elem " + " ".join(names)]
    lines += [f"le {a} {b}" for a, b in zip(names, names[1:])]
    path = tmp_path / "chain.poset"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["extensions", "--format", "machine", "--poset", str(path)]) == 0
    assert capsys.readouterr().out == (
        "extensions.count=1\n"
        "extension.0=" + "<".join(names) + "\n"
        "intersection_equals_order=PASS\n"
    )


def test_extensions_lists_the_extensions_once(monkeypatch, v_file, capsys):
    calls = []
    listing = poscat.posets.linear_extensions

    def counted(poset):
        calls.append(poset.name)
        return listing(poset)

    monkeypatch.setattr(poscat.posets, "linear_extensions", counted)
    monkeypatch.setattr(poscat.cli, "linear_extensions", counted)
    assert run(["extensions", "--format", "machine", "--poset", v_file]) == 0
    assert "intersection_equals_order=PASS" in capsys.readouterr().out
    assert calls == ["V"]


def test_extensions_failure_names_a_witness(monkeypatch, v_file, capsys):
    cases = [
        # a meet that also puts a below b, as if an extension had been dropped
        (poscat.posets.chain_poset, "a<=b in every extension but not in the order"),
        # a meet without a below c, as if a non-extension had been listed
        (
            lambda elements: poscat.make_poset(elements, []),
            "a<=c in the order but not in every extension",
        ),
    ]
    for meet, witness in cases:
        monkeypatch.setattr(poscat.cli, "meet_of_extensions", lambda poset, exts: meet(poset.elements))
        assert run(["extensions", "--format", "machine", "--poset", v_file]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["intersection_equals_order=FAIL", f"extensions.witness={witness}"]
        assert run(["extensions", "--poset", v_file]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["intersection equals the original order: FAIL", f"witness: {witness}"]


def test_density_command(v_file, capsys):
    assert run(["density", "--poset", v_file]) == 0
    assert run(["density", "--format", "machine", "--poset", v_file, "--bound", "2"]) == 0
    assert "isomorphic=PASS" in capsys.readouterr().out


def test_density_failure_names_a_witness(monkeypatch, v_file, capsys):
    density_colimit = poscat.continuity.density_colimit

    def not_epic(poset, bound):
        return DensityResult(density_colimit(poset, bound).cocone, None, bound, "not jointly epic")

    monkeypatch.setattr(poscat.cli, "density_colimit", not_epic)
    witness = "the canonical map is not jointly epic"
    assert run(["density", "--format", "machine", "--poset", v_file]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["isomorphic=FAIL", f"density.witness={witness}"]
    assert run(["density", "--poset", v_file]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["apex isomorphic to the poset: FAIL", f"witness: {witness}"]


def test_density_bad_bound_is_config_error(v_file):
    assert run(["density", "--poset", v_file, "--bound", "0"]) == 2


def test_extend_command(tmp_path, v_file, capsys):
    fun = tmp_path / "inc.fun"
    fun.write_text("functor inclusion\n", encoding="utf-8")
    assert run(["extend", "--functor", str(fun), "--poset", v_file]) == 0
    assert "stabilized" in capsys.readouterr().out
    q = tmp_path / "q.poset"
    q.write_text("poset q\nelem 0 1\nle 0 1\n", encoding="utf-8")
    prod = tmp_path / "prod.fun"
    prod.write_text("functor product-with q.poset\n", encoding="utf-8")
    assert run(["extend", "--functor", str(prod), "--poset", v_file]) == 0


@pytest.mark.parametrize("command", ["density", "extend"])
def test_bound_beyond_the_height_gives_the_same_apex(tmp_path, capsys, command):
    # strict chains stop at the height, so a large bound adds nothing
    chain = tmp_path / "c5.poset"
    chain.write_text("poset c5\nelem 0 1 2 3 4\nle 0 1\nle 1 2\nle 2 3\nle 3 4\n", encoding="utf-8")
    fun = tmp_path / "inc.fun"
    fun.write_text("functor inclusion\n", encoding="utf-8")
    argv = [command, "--format", "machine", "--poset", str(chain)]
    if command == "extend":
        argv += ["--functor", str(fun)]
    reports = {}
    for bound in ("4", "16"):
        assert run(argv + ["--bound", bound]) == 0
        reports[bound] = capsys.readouterr().out.splitlines()
    bound_key = "bound=" if command == "density" else "stabilization="
    assert f"{bound_key}16" in reports["16"]
    same = [[line for line in lines if not line.startswith(bound_key)] for lines in reports.values()]
    assert same[0] == same[1]
    assert "apex.size=5" in same[0] or "value.size=5" in same[0]


def test_verify_identities_command(capsys):
    assert run(["verify-identities", "--max-n", "4"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert run(["verify-identities", "--format", "machine", "--max-n", "2"]) == 0
    assert "failures=0" in capsys.readouterr().out


def test_verify_identities_failure_names_a_witness(monkeypatch, capsys):
    passing = "delta_j delta_i = delta_i delta_{j-1} (i < j)"
    family = "sigma_j delta_i = id (i = j or i = j+1)"
    entries = [(passing, 0, 0, 1, True), (family, 1, 2, 1, False), (family, 2, 3, 2, False)]
    monkeypatch.setattr(
        poscat.cli, "verify_simplicial_identities", lambda max_n: IdentityReport(max_n, entries)
    )
    assert run(["verify-identities", "--format", "machine", "--max-n", "2"]) == 1
    assert capsys.readouterr().out == (
        "instances=3\nfailures=2\noverall=FAIL\n"
        f"verify-identities.witness={family} at n=1, i=2, j=1\n"
    )
    assert run(["verify-identities", "--max-n", "2"]) == 1
    assert capsys.readouterr().out == (
        "checked 3 identity instances up to [2]\n"
        f"  FAIL {family} at n=1, i=2, j=1\n"
        f"  FAIL {family} at n=2, i=3, j=2\n"
        "overall: FAIL\n"
    )


def test_homcount_command(v_file, capsys):
    assert run(["homcount", "--poset", v_file, "--poset2", v_file, "--trunc", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_homcount_deep_nerve_into_a_point(tmp_path, point_file, capsys):
    chain = tmp_path / "c4.poset"
    chain.write_text("poset c4\nelem 0 1 2 3\nle 0 1\nle 1 2\nle 2 3\n", encoding="utf-8")
    argv = ["homcount", "--format", "machine", "--poset", str(chain), "--poset2", point_file]
    assert run(argv + ["--trunc", "10"]) == 0
    assert capsys.readouterr().out == "monotone=1\nsimplicial=1\nequal=PASS\n"


def test_homcount_failure_names_a_witness(v_file, capsys):
    argv = ["homcount", "--poset", v_file, "--poset2", v_file, "--trunc", "0"]
    witness = "a->a b->a c->b is not monotone: a<=c but not a<=b"
    assert run(argv[:1] + ["--format", "machine"] + argv[1:]) == 1
    assert capsys.readouterr().out == (
        f"monotone=11\nsimplicial=27\nequal=FAIL\nhomcount.witness={witness}\n"
    )
    assert run(argv) == 1
    text = capsys.readouterr().out.splitlines()
    assert text[-2:] == ["counts agree: FAIL", f"witness: {witness}"]


def test_parse_errors_exit_two(tmp_path, v_file):
    missing = str(tmp_path / "missing.poset")
    assert run(["nerve", "--poset", missing, "--trunc", "1"]) == 2
    bad = tmp_path / "bad.poset"
    bad.write_text("poset p\nelem a b\nle a b\nle b a\n", encoding="utf-8")
    assert run(["nerve", "--poset", str(bad), "--trunc", "1"]) == 2
    with pytest.raises(SystemExit) as err:
        run(["nerve", "--trunc", "1"])  # argparse: missing --poset
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["nerve", "--poset", "v.poset", "--trunc", "1", "--trunc", "0"], "--trunc"),
        (["nerve", "--poset", "v.poset", "--trunc", "1", "--tr", "1"], "--trunc"),
        (["check", "--sset", "a.sset", "--sset", "b.sset"], "--sset"),
        (["reconstruct", "--format", "machine", "--sset", "a.sset", "--format", "text"], "--format"),
        (["colimit", "--diagram", "d.diagram", "--in", "pos", "--in", "tos"], "--in"),
        (["extensions", "--poset", "v.poset", "--output", "a", "--output", "b"], "--output"),
        (["density", "--poset", "v.poset", "--bound", "2", "--bound=3"], "--bound"),
        (["extend", "--functor", "f.fun", "--poset", "v.poset", "--functor", "g.fun"], "--functor"),
        (["verify-identities", "--max-n", "2", "--max-n", "3"], "--max-n"),
        (["homcount", "--poset", "p", "--poset2", "q", "--poset2", "q", "--trunc", "1"], "--poset2"),
    ],
)
def test_repeated_options_exit_two(tmp_path, monkeypatch, capsys, argv, option):
    """A repeated option is refused by argparse, whatever its values, before
    any file is read or written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: given more than once\n")
    assert list(tmp_path.iterdir()) == []


def test_check_repeated_sset_row_exits_two(tmp_path, capsys):
    path = tmp_path / "repeated.sset"
    path.write_text(
        "sset tiny trunc 1\nsimplex 0 p\nsimplex 1 pp\n"
        "d 1 0 pp p\nd 1 1 pp p\nd 1 1 pp p\ns 0 0 p pp\n",
        encoding="utf-8",
    )
    assert run(["check", "--format", "machine", "--sset", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 6: duplicate d 1 1 row for 'pp'\n"


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "pt.poset"
    path.write_text("poset pt\nelem x\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("nerve", "--trunc", "1200"),
        ("homcount", "--trunc", "33"),
        ("verify-identities", "--max-n", "33"),
        ("density", "--bound", "33"),
        ("extend", "--bound", "33"),
        ("extend", "--bound", "99999999999999999999"),
    ],
)
def test_oversized_options_exit_two(point_file, tmp_path, capsys, command, option, value):
    fun = tmp_path / "inc.fun"
    fun.write_text("functor inclusion\n", encoding="utf-8")
    posets = {
        "nerve": ["--poset", point_file],
        "homcount": ["--poset", point_file, "--poset2", point_file],
        "density": ["--poset", point_file],
        "extend": ["--poset", point_file, "--functor", str(fun)],
    }
    assert run([command, option, value] + posets.get(command, [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} {value} exceeds the limit 32\n"


@pytest.fixture
def ten_chain_file(tmp_path):
    path = tmp_path / "c10.poset"
    covers = "".join(f"le {i} {i + 1}\n" for i in range(9))
    path.write_text("poset c10\nelem " + " ".join(map(str, range(10))) + "\n" + covers, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["nerve", "homcount"])
def test_oversized_nerves_exit_two_before_building(ten_chain_file, capsys, command):
    # the ten-element chain's nerve at truncation 32 would hold 1,917,334,782 simplices
    from poscat.cli import MAX_SIMPLICES

    posets = {"nerve": ["--poset", ten_chain_file]}
    posets["homcount"] = posets["nerve"] + ["--poset2", ten_chain_file]
    assert run([command, "--trunc", "32"] + posets[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the nerves at --trunc 32 would hold more than {MAX_SIMPLICES} simplices\n"
    )


@pytest.mark.parametrize("trunc, steps", [("3", 3_178_890), ("0", 134_217_728)])
def test_homcount_refuses_a_long_map_search(tmp_path, capsys, trunc, steps):
    # the eight-element chain into itself: 6,435 monotone maps times the 494
    # simplices of its nerve at truncation 3, or 8^8 functions times its 8
    # vertices at truncation 0
    from poscat.cli import MAX_MAP_WORK

    path = tmp_path / "c8.poset"
    covers = "".join(f"le {i} {i + 1}\n" for i in range(7))
    path.write_text("poset c8\nelem " + " ".join(map(str, range(8))) + "\n" + covers, encoding="utf-8")
    assert run(["homcount", "--poset", str(path), "--poset2", str(path), "--trunc", trunc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the simplicial map search at --trunc {trunc} would take about {steps} steps, "
        f"more than {MAX_MAP_WORK}\n"
    )


@pytest.mark.parametrize("command", ["density", "extend"])
def test_comma_diagrams_over_too_many_strict_chains_are_refused(tmp_path, capsys, command):
    # the sixteen-element chain has 2^16 - 1 = 65,535 strict chains
    from poscat.cli import MAX_SIMPLICES

    path = tmp_path / "c16.poset"
    covers = "".join(f"le {i} {i + 1}\n" for i in range(15))
    path.write_text("poset c16\nelem " + " ".join(map(str, range(16))) + "\n" + covers, encoding="utf-8")
    functor = tmp_path / "inc.fun"
    functor.write_text("functor inclusion\n", encoding="utf-8")
    argv = [command, "--poset", str(path)]
    if command == "extend":
        argv += ["--functor", str(functor)]
    assert run(argv + ["--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the comma diagram would hold more than {MAX_SIMPLICES} strict chains\n"
    )


def test_extensions_over_the_budget_are_refused_before_listing(tmp_path, monkeypatch, capsys):
    # the nine-element antichain has 9! = 362,880 linear extensions: their
    # count stops at the first over the budget, and none is listed
    from poscat.cli import MAX_SIMPLICES

    path = tmp_path / "a9.poset"
    path.write_text("poset a9\nelem " + " ".join(map(str, range(9))) + "\n", encoding="utf-8")
    read = []
    orders = poscat.posets.linear_extension_orders

    def counted(poset):
        for order in orders(poset):
            read.append(order)
            yield order

    def listing(poset):
        raise AssertionError("listed")

    monkeypatch.setattr(poscat.cli, "linear_extension_orders", counted)
    monkeypatch.setattr(poscat.cli, "linear_extensions", listing)
    assert run(["extensions", "--poset", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the poset has more than {MAX_SIMPLICES} linear extensions\n"
    assert len(read) == MAX_SIMPLICES + 1


@pytest.mark.parametrize("budget, code", [(2, 0), (1, 2)])
def test_extensions_budget_boundary(monkeypatch, v_file, capsys, budget, code):
    # the V has two linear extensions: a budget of two lists them, one refuses
    monkeypatch.setattr(poscat.cli, "MAX_SIMPLICES", budget)
    assert run(["extensions", "--format", "machine", "--poset", v_file]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == "error: the poset has more than 1 linear extensions\n"
    else:
        assert captured.out.startswith("extensions.count=2\n")
        assert captured.out.endswith("intersection_equals_order=PASS\n")


def test_nerve_at_the_truncation_limit(point_file, tmp_path):
    from poscat.formats import MAX_TRUNC, load_sset

    out = tmp_path / "pt.sset"
    argv = ["nerve", "--poset", point_file, "--trunc", str(MAX_TRUNC), "--output", str(out)]
    assert run(argv) == 0
    assert load_sset(str(out)).K == MAX_TRUNC


def test_check_oversized_sset_truncation_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.sset"
    path.write_text("sset x trunc 1000000000\nsimplex 0 p\n", encoding="utf-8")
    assert run(["check", "--sset", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: truncation level 1000000000 exceeds the limit 32\n"


def test_unexpected_internal_error_exits_two(monkeypatch, capsys):
    import poscat.cli as cli

    def broken(args):
        raise RuntimeError("internal\nfailure")

    monkeypatch.setitem(cli._HANDLERS, "verify-identities", broken)
    assert run(["verify-identities", "--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: RuntimeError: internal failure\n"


def test_output_written_to_file(tmp_path, v_file):
    out = tmp_path / "report.txt"
    assert run(["extensions", "--poset", v_file, "--output", str(out)]) == 0
    assert "linear extensions" in out.read_text(encoding="utf-8")


def test_nerve_check_round_trip_over_corpus(tmp_path):
    from poscat.corpus import all_posets
    from poscat.formats import serialize_poset

    for k, poset in enumerate(all_posets(3)):
        if poset.n == 0:
            continue  # the poset file format needs at least one elem line
        src = tmp_path / f"p{k}.poset"
        src.write_text(serialize_poset(poset), encoding="utf-8")
        out = tmp_path / f"p{k}.sset"
        assert run(["nerve", "--poset", str(src), "--trunc", "2", "--output", str(out)]) == 0
        assert run(["check", "--sset", str(out), "--output", str(tmp_path / "r.txt")]) == 0


def test_machine_reports_stable_across_processes(tmp_path, v_file):
    import os
    import subprocess
    import sys

    import poscat

    # The child environment is minimal so that PYTHONHASHSEED is the only
    # thing that differs between runs; it still needs the directory this
    # process imported poscat from, whether that is src/ or site-packages.
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(poscat.__file__)))
    out = tmp_path / "v.sset"
    run(["nerve", "--poset", v_file, "--trunc", "2", "--output", str(out)])
    results = []
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-m", "poscat.cli", "check", "--format", "machine",
             "--sset", str(out)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed,
                 "PYTHONPATH": import_root},
        )
        assert proc.returncode == 0, proc.stderr
        results.append(proc.stdout)
    assert results[0] == results[1]


def test_one_parser_serves_every_call_as_a_fresh_process_would(v_file, capsys):
    """`run` builds its parser once per process; calls on different
    subcommands, a refused repeated option among them, each give what the
    same call gives in a fresh process."""
    import poscat

    assert poscat.cli._parser() is poscat.cli._parser()
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(poscat.__file__)))
    argvs = [
        ["homcount", "--poset", v_file, "--poset2", v_file, "--trunc", "1", "--format", "machine"],
        ["extensions", "--poset", v_file],
        ["verify-identities", "--max-n", "2", "--max-n", "3"],
        ["verify-identities", "--max-n", "2", "--format", "machine"],
    ]
    for argv in argvs:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "poscat.cli", *argv],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
            timeout=60,
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


def _transcript_argvs():
    """Write the input files into the current directory and yield the argv of
    each call of the transcript pin, without --format: the fixtures above,
    every poset of all_posets(3), nerve files with one line dropped or with
    one line's last token changed, and refused inputs."""
    from poscat.corpus import all_posets
    from poscat.formats import serialize_poset, serialize_sset
    from poscat.simplicial import nerve

    from helpers import v_poset

    def write(name, text):
        pathlib.Path(name).write_text(text, encoding="utf-8")
        return name

    v, pt = write("v.poset", V_POSET), write("pt.poset", "poset pt\nelem x\n")
    inc = write("inc.fun", "functor inclusion\n")
    prod = write("prod.fun", "functor product-with c2.poset\n")
    write("c2.poset", "poset c2\nelem 0 1\nle 0 1\n")
    for diagram, text in (("two.diag", TWO_POINTS), ("glue.diag", GLUE)):
        write(diagram, text)
        for category in ("pos", "tos", "delta"):
            yield ["colimit", "--diagram", diagram, "--in", category]
    yield ["colimit", "--diagram", write("ghost.diag", TWO_POINTS + "edge f A B\nmap f ghost x\n")]
    posets = [write(f"p{k}.poset", serialize_poset(p)) for k, p in enumerate(all_posets(3))]
    for p in posets + [v]:
        yield ["nerve", "--poset", p, "--trunc", "2"]
        yield ["extensions", "--poset", p]
        yield ["density", "--poset", p]
        for functor in (inc, prod):
            yield ["extend", "--functor", functor, "--poset", p]
        for trunc in ("0", "1", "2"):
            yield ["homcount", "--poset", p, "--poset2", v, "--trunc", trunc]
            yield ["homcount", "--poset", v, "--poset2", p, "--trunc", trunc]
    yield ["verify-identities", "--max-n", "3"]
    yield ["extensions", "--poset", v, "--output", "out.txt"]
    sources = [(all_posets(3)[5], 1), (all_posets(2)[3], 2), (v_poset(), 2)]
    for s, (poset, K) in enumerate(sources):
        lines = serialize_sset(nerve(poset, K)).splitlines()
        mutants = [lines]
        for k, line in enumerate(lines):
            mutants.append(lines[:k] + lines[k + 1 :])
            tokens, other = line.split(), lines[(k + 1) % len(lines)].split()[-1]
            mutants.append(lines[:k] + [" ".join(tokens[:-1] + [other])] + lines[k + 1 :])
        for m, mutant in enumerate(mutants):
            sset = write(f"m{s}.{m}.sset", "\n".join(mutant) + "\n")
            yield ["check", "--sset", sset]
            yield ["reconstruct", "--sset", sset]
    yield ["check", "--sset", "m2.0.sset", "--output", "out.txt"]

    def chain(n):
        covers = "".join(f"le {i} {i + 1}\n" for i in range(n - 1))
        return write(f"c{n}.poset", f"poset c{n}\nelem {' '.join(map(str, range(n)))}\n{covers}")

    c8, c16 = chain(8), chain(16)
    yield ["nerve", "--poset", c16, "--trunc", "32"]
    yield ["homcount", "--poset", c8, "--poset2", c8, "--trunc", "3"]
    yield ["density", "--poset", c16]
    yield ["extend", "--functor", inc, "--poset", c16]
    yield ["density", "--poset", v, "--bound", "1"]
    yield ["nerve", "--poset", pt, "--trunc", "33"]
    yield ["verify-identities", "--max-n", "33"]
    yield ["nerve", "--poset", "missing.poset", "--trunc", "1"]
    yield ["nerve", "--poset", write("bad.poset", "poset p\nelem a b\nle a b\nle b a\n"), "--trunc", "1"]
    yield ["check", "--sset", write("huge.sset", "sset x trunc 1000000000\nsimplex 0 p\n")]
    yield ["extend", "--functor", write("bad.fun", "functor nowhere\n"), "--poset", v]
    yield ["nerve", "--poset", v, "--trunc", "1", "--trunc", "0"]


# SHA-256 of the transcript lines below, computed before the two output
# formats shared one printing path; the same under PYTHONHASHSEED 1, 2 and 3
TRANSCRIPTS_DIGEST = "d68a13c3a360a41ac7a1e5cc75c8c4fad9123c510d09b135be3fab86096919a7"


def test_cli_transcripts_pinned(tmp_path, monkeypatch, capsys):
    """Same output: argv, stdout, stderr, exit code and --output file of every
    call in `_transcript_argvs`, in both formats.  File names are relative,
    so the errors that quote them do not depend on tmp_path.  An argparse
    refusal keeps only its last stderr line, which the Python version does
    not change."""
    from helpers import digest

    monkeypatch.chdir(tmp_path)

    def failures():
        """A failing check in each command that reaches none on real input."""
        chain = poscat.posets.chain_poset
        monkeypatch.setattr(poscat.cli, "meet_of_extensions", lambda p, exts: chain(p.elements))
        yield ["extensions", "--poset", "v.poset"]
        density_colimit = poscat.continuity.density_colimit

        def not_epic(poset, bound):
            return DensityResult(density_colimit(poset, bound).cocone, None, bound, "not jointly epic")

        monkeypatch.setattr(poscat.cli, "density_colimit", not_epic)
        yield ["density", "--poset", "v.poset"]
        family = "sigma_j delta_i = id (i = j or i = j+1)"
        entries = [(family, 0, 0, 1, True), (family, 1, 2, 1, False), (family, 2, 3, 2, False)]
        monkeypatch.setattr(
            poscat.cli, "verify_simplicial_identities", lambda max_n: IdentityReport(max_n, entries)
        )
        yield ["verify-identities", "--max-n", "2"]

    def lines():
        for argv in itertools.chain(_transcript_argvs(), failures()):
            for fmt in ("text", "machine"):
                argv_f = argv + ["--format", fmt]
                try:
                    code = run(argv_f)
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                if code == 2 and err.startswith("usage:"):
                    err = err.splitlines()[-1]
                written = pathlib.Path("out.txt")
                text = written.read_text(encoding="utf-8") if written.exists() else None
                written.unlink(missing_ok=True)
                yield repr((argv_f, out, err, code, text))

    assert digest(lines()) == TRANSCRIPTS_DIGEST
