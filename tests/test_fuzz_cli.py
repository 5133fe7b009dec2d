"""Fuzzing every subcommand through `cli.run`: whatever a poset, diagram, sset
or functor file holds, and whatever number a numeric option is given, every
command exits with 0, 1 or 2, gives the same report twice, and never reaches
the last-resort handler.

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
FUNCTOR = ["functor product-with v.poset"]
# files the commands below read unedited, next to the edited one
FIXED = {"v.poset": POSET, "pt.poset": ["poset pt", "elem x"], "inc.fun": ["functor inclusion"]}
NUMBER = "<number>"  # stands for a value drawn from NUMBERS
NUMBERS = ["-1", "0", "1", "2", "33", "99999999999999999999"]
MORE_COMMANDS = [
    (["extend", "--poset", "v.poset", "--functor"], FUNCTOR),
    (["extend", "--bound", NUMBER, "--poset", "v.poset", "--functor"], FUNCTOR),
    (["extend", "--functor", "inc.fun", "--poset"], POSET),
    (["density", "--bound", NUMBER, "--poset"], POSET),
    (["nerve", "--trunc", NUMBER, "--poset"], POSET),
    (["reconstruct", "--sset"], SSET),
    (["homcount", "--trunc", NUMBER, "--poset2", "pt.poset", "--poset"], POSET),
    (["homcount", "--trunc", NUMBER, "--poset", "pt.poset", "--poset2"], POSET),
    (["verify-identities", "--max-n", NUMBER], None),
]
TOKENS = [
    "poset", "elem", "le", "diagram", "node", "edge", "map", "sset", "trunc",
    "simplex", "d", "s", "#", "a", "b", "c", "x", "lo", "hi", "A", "B", "f",
    "pt", "edge", "0", "1", "2", "-1", "0,0", "0,1", "1,1", ".", "..",
    "functor", "inclusion", "product-with", "v.poset", "fuzzed.txt",
]  # fmt: skip
LINES = st.one_of(
    st.sampled_from(POSET + DIAGRAM + SSET + FUNCTOR),
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


def assert_documented_exit(argv):
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2), (code, err)
    assert not INTERNAL_FAILURE.match(err), err
    assert run_captured(argv) == (code, out, err)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), machine=st.booleans(), edits=EDITS)
def test_parsers_exit_with_a_documented_code(tmp_path_factory, command, machine, edits):
    prefix, base = command
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(edited(base, edits), encoding="utf-8")
    assert_documented_exit(prefix + [str(path), "--format", "machine" if machine else "text"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(MORE_COMMANDS),
    number=st.sampled_from(NUMBERS),
    machine=st.booleans(),
    edits=EDITS,
)
def test_every_command_and_number_exits_with_a_documented_code(
    tmp_path_factory, command, number, machine, edits
):
    prefix, base = command
    folder = tmp_path_factory.getbasetemp()
    for name, lines in FIXED.items():
        (folder / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [str(folder / a) if a in FIXED else number if a == NUMBER else a for a in prefix]
    if base is not None:
        path = folder / "fuzzed.txt"
        path.write_text(edited(base, edits), encoding="utf-8")
        argv.append(str(path))
    assert_documented_exit(argv + ["--format", "machine" if machine else "text"])
