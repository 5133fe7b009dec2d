"""The package's import graph runs one way, and no module imports another's
private names.

Every intra-package import, at module level or inside a function, must point
at an earlier layer of LAYERS (or within its own layer).  The package
`__init__` re-exports the layers and is exempt from the order only.
"""

import ast
import pathlib

LAYERS = (
    "_kernels",
    "posets",
    "corpus",
    "delta",
    "colimits",
    "simplicial",
    "kan",
    "continuity",
    "formats",
    "cli",
)
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "poscat"


def package_sources():
    """(path relative to the package, source) for every module of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE), path.read_text(encoding="utf-8")


def intra_package_imports(source, package_parts):
    """(target layer, imported name or None) for each import of the package.

    `package_parts` names the package the source lives in, e.g. ("poscat",);
    relative imports are resolved against it.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "poscat" and len(parts) > 1:
                    out.append((parts[1], None))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = list(package_parts[: len(package_parts) - node.level + 1])
            else:
                base = []
            parts = base + (node.module.split(".") if node.module else [])
            if parts[:1] != ["poscat"]:
                continue
            for alias in node.names:
                if len(parts) > 1:
                    out.append((parts[1], alias.name))
                else:  # `from . import layer` imports a module, not a name
                    out.append((alias.name, None))
    return out


def violations(layer, source, package_parts):
    found = []
    for target, name in intra_package_imports(source, package_parts):
        if target == layer:
            continue
        if layer != "__init__" and LAYERS.index(target) > LAYERS.index(layer):
            found.append(f"{layer} imports the later layer {target}")
        if name is not None and name.startswith("_"):
            found.append(f"{layer} imports the private name {target}.{name}")
    return found


def test_checker_flags_back_edges_and_private_names():
    source = "def f():\n    from .colimits import Cocone\nfrom .posets import _signatures\n"
    assert sorted(violations("delta", source, ("poscat",))) == [
        "delta imports the later layer colimits",
        "delta imports the private name posets._signatures",
    ]
    assert violations("colimits", "from .delta import face\nfrom . import _kernels\n", ("poscat",)) == []


def test_package_imports_follow_the_layer_order():
    found = []
    for rel, source in package_sources():
        layer = rel.parts[0] if len(rel.parts) > 1 else rel.stem
        package_parts = ("poscat",) + rel.parts[:-1]
        assert layer in LAYERS + ("__init__",), f"{rel} belongs to no layer"
        found += violations(layer, source, package_parts)
    assert found == []


def reads_environment(source):
    """Whether the source reads `os.environ` or calls `os.getenv`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                return True
    return False


def test_no_module_reads_the_environment():
    # behaviour depends on arguments only: no run-time switch through the environment
    assert reads_environment("import os\nx = os.environ.get('A')\n")
    assert reads_environment("from os import getenv\n")
    assert not reads_environment("import os\nos.path.join('a')\n")
    found = [str(rel) for rel, source in package_sources() if reads_environment(source)]
    assert found == []


def self_calls(source):
    """Names of the functions in `source` that call themselves by name, as
    `f(...)` or, for methods, as `self.f(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            by_name = isinstance(func, ast.Name) and func.id == node.name
            by_self = (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            )
            if by_name or by_self:
                found.append(node.name)
                break
    return found


def test_no_function_calls_itself():
    # recursion depth is bound by the interpreter's limit, so searches keep
    # their own stacks
    source = (
        "def outer():\n"
        "    def rec(k):\n"
        "        yield from rec(k + 1)\n"
        "    return rec(0)\n"
        "class C:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "def flat(x):\n"
        "    return other(x)\n"
    )
    assert self_calls(source) == ["rec", "walk"]
    found = [f"{rel}:{name}" for rel, source in package_sources() for name in self_calls(source)]
    assert found == []
