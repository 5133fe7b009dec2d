"""CLI dispatch, exit codes, and report stability."""

import pytest

import poscat.cli
import poscat.posets
from poscat.cli import run

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
    assert run(["colimit", "--diagram", str(two), "--in", "pos"]) == 0
    glue = tmp_path / "glue.diag"
    glue.write_text(GLUE, encoding="utf-8")
    assert run(["colimit", "--diagram", str(glue), "--in", "delta"]) == 0
    text = capsys.readouterr().out
    assert "leg A" in text


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


def test_density_command(v_file, capsys):
    assert run(["density", "--poset", v_file]) == 0
    assert run(["density", "--format", "machine", "--poset", v_file, "--bound", "2"]) == 0
    assert "isomorphic=PASS" in capsys.readouterr().out


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
    [("nerve", "--trunc", "1200"), ("homcount", "--trunc", "33"), ("verify-identities", "--max-n", "33")],
)
def test_oversized_options_exit_two(point_file, capsys, command, option, value):
    posets = {"nerve": ["--poset", point_file], "homcount": ["--poset", point_file, "--poset2", point_file]}
    assert run([command, option, value] + posets.get(command, [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} {value} exceeds the limit 32\n"


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
