"""Fuzzing the file parsers through `cli.run`: whatever a poset, diagram or
sset file holds, `check`, `colimit`, `density` and `extensions` exit with 0, 1
or 2, give the same report twice, and never reach the last-resort handler.

Each example edits a valid file of the command's format: it inserts, replaces,
deletes or duplicates lines, or swaps one token of a line, so that examples get
past the first directive.  A swapped-in token comes from the same file."""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from poscat.cli import run

POSET = ["poset V", "elem a b c", "le a c", "le b c"]
DIAGRAM = [
    "poset pt",
    "elem x",
    "poset edge",
    "elem lo hi",
    "le lo hi",
    "diagram glue",
    "node A pt",
    "node B edge",
    "node C edge",
    "edge f A B",
    "map f x hi",
    "edge g A C",
    "map g x lo",
]
SSET = [  # the nerve of the two-element chain at truncation 1
    "sset N trunc 1",
    "simplex 0 0",
    "simplex 0 1",
    "simplex 1 0,0",
    "simplex 1 0,1",
    "simplex 1 1,1",
    "d 1 0 0,0 0",
    "d 1 0 0,1 1",
    "d 1 0 1,1 1",
    "d 1 1 0,0 0",
    "d 1 1 0,1 0",
    "d 1 1 1,1 1",
    "s 0 0 0 0,0",
    "s 0 0 1 1,1",
]
COMMANDS = [
    (["check", "--sset"], SSET),
    (["colimit", "--in", "pos", "--diagram"], DIAGRAM),
    (["colimit", "--in", "tos", "--diagram"], DIAGRAM),
    (["colimit", "--in", "delta", "--diagram"], DIAGRAM),
    (["density", "--poset"], POSET),
    (["density", "--bound", "1", "--poset"], POSET),
    (["extensions", "--poset"], POSET),
]
TOKENS = [
    "poset", "elem", "le", "diagram", "node", "edge", "map", "sset", "trunc",
    "simplex", "d", "s", "#", "a", "b", "c", "x", "lo", "hi", "A", "B", "f",
    "pt", "edge", "0", "1", "2", "-1", "0,0", "0,1", "1,1", ".", "..",
]  # fmt: skip
LINES = st.one_of(
    st.sampled_from(POSET + DIAGRAM + SSET),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5).map(" ".join),
    st.text(max_size=12),
)
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete", "duplicate", "token", "token", "token"]),
        st.integers(0, 20),
        st.integers(0, 5),
        LINES,
        st.integers(0, 60),
    ),
    max_size=4,
)
# the message of `cli.run`'s last resort: "error: <exception type>: ..."
INTERNAL_FAILURE = re.compile(r"error: [A-Za-z_]\w*(Error|Exception|Warning)\b")


def edited(base, edits):
    """`base` with the edits applied; a swapped token is one of base's own."""
    lines = list(base)
    vocabulary = " ".join(base).split()
    for op, at, slot, line, pick in edits:
        k = at % (len(lines) + 1)
        if op == "insert":
            lines.insert(k, line)
        elif k < len(lines):
            if op == "replace":
                lines[k] = line
            elif op == "delete":
                del lines[k]
            elif op == "duplicate":
                lines.insert(k, lines[k])
            else:
                tokens = lines[k].split() or [""]
                tokens[slot % len(tokens)] = vocabulary[pick % len(vocabulary)]
                lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), machine=st.booleans(), edits=EDITS)
def test_parsers_exit_with_a_documented_code(tmp_path_factory, command, machine, edits):
    prefix, base = command
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(edited(base, edits), encoding="utf-8")
    argv = prefix + [str(path), "--format", "machine" if machine else "text"]
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2), (code, err)
    assert not INTERNAL_FAILURE.match(err), err
    assert run_captured(argv) == (code, out, err)
