"""Text format parsing and serialization round trips."""

import pytest

from poscat import check_continuity, colimit_pos, nerve
from poscat.formats import (
    FormatError,
    parse_diagram,
    parse_functor,
    parse_poset,
    parse_poset_blocks,
    parse_sset,
    serialize_diagram,
    serialize_poset,
    serialize_sset,
)

from helpers import two_chain, v_poset

POSET_TEXT = """\
# a V-shaped poset
poset V
elem a b c
le a c
le b c
"""

DIAGRAM_TEXT = """\
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

SSET_TEXT = """\
sset tiny trunc 1
simplex 0 p
simplex 1 pp
d 1 0 pp p
d 1 1 pp p
s 0 0 p pp
"""


def test_parse_poset():
    p = parse_poset(POSET_TEXT)
    assert p.name == "V" and p.n == 3
    assert p.leq("a", "c") and not p.leq("a", "b")


def test_poset_round_trip():
    p = v_poset()
    again = parse_poset(serialize_poset(p))
    assert again.elements == p.elements and again.up_rows == p.up_rows


def test_parse_poset_errors():
    with pytest.raises(FormatError):
        parse_poset("elem a b\n")
    with pytest.raises(FormatError):
        parse_poset("poset p\nle a b\nwhat now\n")
    with pytest.raises(FormatError):
        parse_poset("")


def test_parse_diagram_with_inline_posets():
    d = parse_diagram(DIAGRAM_TEXT)
    assert sorted(d.nodes) == ["A", "B", "C"]
    cocone = colimit_pos(d)
    assert cocone.apex.n == 3 and cocone.apex.is_total


def test_parse_diagram_file_reference(tmp_path):
    (tmp_path / "v.poset").write_text(POSET_TEXT, encoding="utf-8")
    text = "diagram one\nnode P v.poset\n"
    d = parse_diagram(text, base_dir=str(tmp_path))
    assert d.nodes["P"].n == 3
    # an absolute path is read as it stands, whatever the base directory
    absolute = parse_diagram(f"diagram one\nnode P {tmp_path / 'v.poset'}\n", base_dir="elsewhere")
    assert absolute.nodes["P"] == d.nodes["P"]


def test_parse_diagram_errors():
    with pytest.raises(FormatError):
        parse_diagram("diagram d\nnode A nowhere\n")
    with pytest.raises(FormatError):
        parse_diagram("diagram d\nedge e A B\n")
    bad_map = DIAGRAM_TEXT.replace("map f x hi", "map f x zz")
    with pytest.raises(FormatError):
        parse_diagram(bad_map)
    missing_map = DIAGRAM_TEXT.replace("map g x lo\n", "")
    with pytest.raises(FormatError):
        parse_diagram(missing_map)


def test_map_lines_name_elements_of_the_source_node():
    text = "poset pt\nelem x\ndiagram twopoints\nnode A pt\nnode B pt\nedge f A B\nmap f x x\nmap f ghost x\n"
    message = "line 8: map for edge 'f': 'ghost' is not an element of node 'A'"
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_diagram(text)


def test_inline_poset_errors_cite_the_file_line():
    text = "poset pt\n# a comment\n\nelem x\nle x\ndiagram d\nnode A pt\n"
    with pytest.raises(FormatError, match="^line 5: usage: le <id> <id>$"):
        parse_diagram(text)


def test_diagram_round_trip():
    d = parse_diagram(DIAGRAM_TEXT)
    again = parse_diagram(serialize_diagram(d))
    assert sorted(again.nodes) == sorted(d.nodes)
    assert [(e[0], e[1], e[2]) for e in again.edges] == [(e[0], e[1], e[2]) for e in d.edges]
    assert all(a[3].values == b[3].values for a, b in zip(again.edges, d.edges))


def test_parse_sset():
    X = parse_sset(SSET_TEXT)
    assert X.K == 1 and X.levels[0] == ("p",)
    assert X.identity_violations() == []


def test_sset_round_trip_through_nerve():
    X = nerve(two_chain(), 2)
    again = parse_sset(serialize_sset(X))
    assert [len(level) for level in again.levels] == [len(level) for level in X.levels]
    assert check_continuity(again).passed


def test_parse_sset_errors():
    with pytest.raises(FormatError):
        parse_sset("simplex 0 x\n")
    with pytest.raises(FormatError):
        parse_sset("sset s trunc -1\n")
    with pytest.raises(FormatError):
        parse_sset("sset s trunc 0\nsimplex 1 x\n")
    with pytest.raises(FormatError):
        parse_sset("sset s trunc 1\nsimplex 0 p\n")  # missing tables


@pytest.mark.parametrize(
    "text, message",
    [
        ("sset s trunc 1\nsimplex 0 a\n", "missing face table d_0 at level 1"),
        (
            "sset s trunc 2\nsimplex 0 a\nsimplex 1 b\nd 1 0 b a\nd 1 1 b a\ns 0 0 a b\n",
            "missing face table d_0 at level 2",
        ),
    ],
)
def test_partly_empty_sset_keeps_its_message(text, message):
    # an empty level above a non-empty one gets no empty tables: the message
    # names the first missing table, as for any other input
    with pytest.raises(FormatError, match=rf"^{message}$"):
        parse_sset(text)


@pytest.mark.parametrize("again", ["d 1 0 pp p", "d 1 1 pp q", "s 0 0 p pp"])
def test_parse_sset_rejects_repeated_rows(again):
    # a second row for one (level, index, simplex), with the same or another image
    with pytest.raises(FormatError, match=r"^line 7: duplicate "):
        parse_sset(SSET_TEXT + again + "\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("poset pt\nelem x\nposet q\nelem y\nposet pt\nelem z\nposet r\nelem w\n", 5),
        ("poset pt\nelem x\nposet q\nelem y\nposet pt\nelem z\n", 5),
    ],
)
def test_duplicate_poset_name_cites_its_header(text, line):
    # in a middle block and in the last one
    with pytest.raises(FormatError, match=rf"^line {line}: duplicate poset name 'pt'$"):
        parse_poset_blocks(text)


def test_parse_functor(tmp_path):
    f = parse_functor("functor inclusion\n")
    assert f.name == "inclusion"
    (tmp_path / "q.poset").write_text("poset q\nelem 0 1\nle 0 1\n", encoding="utf-8")
    g = parse_functor("functor product-with q.poset\n", base_dir=str(tmp_path))
    assert g.obj(0).n == 2
    h = parse_functor(f"functor product-with {tmp_path / 'q.poset'}\n", base_dir="elsewhere")
    assert h.obj(1).n == 4
    with pytest.raises(FormatError):
        parse_functor("functor mystery\n")
    with pytest.raises(FormatError, match="^line 1: poset file 'nowhere.poset' not found$"):
        parse_functor("functor product-with nowhere.poset\n")
