"""The package's public surface, its version and its standard-library-only imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import qnetcap

ROOT = Path(__file__).resolve().parents[1]

#: Most code lines ``src/`` may hold (see :func:`code_lines`).  A change that
#: adds a capability may raise it, and says why in CHANGES.md.
SRC_CODE_LINES_CEILING = 1165

PUBLIC = [
    "BruteForceSinglePath",
    "CHANNEL_KINDS",
    "ChainCapacity",
    "ChannelSpec",
    "Cut",
    "Edge",
    "FlowReport",
    "InvalidParameter",
    "NoRoute",
    "ParseError",
    "QNetwork",
    "QnetcapError",
    "Route",
    "RouteReport",
    "TooLarge",
    "UnknownEdge",
    "ValidationError",
    "amplifier",
    "asymptotic_loss_dominant",
    "asymptotic_repeater_dominant",
    "binary_entropy",
    "brute_multi_path_capacity",
    "brute_single_path_capacity",
    "capacity",
    "chain_capacity",
    "cut_multi_edge_value",
    "cut_single_edge_value",
    "db_to_transmissivity",
    "dephasing",
    "edge_capacity",
    "equidistant_lossy_capacity",
    "erasure",
    "fiber_transmissivity",
    "is_connected",
    "lossy",
    "make_cut",
    "max_flow",
    "max_link_loss_for_rate",
    "max_spanning_tree",
    "min_repeaters_for_rate",
    "min_single_edge_cut",
    "multi_path_capacity",
    "multiband_chain_capacity",
    "multiband_lossy",
    "parse_network",
    "serialize_network",
    "shannon_entropy",
    "transmissivity_to_db",
    "tree_route_capacity",
    "widest_path",
]


def test_public_names():
    # A helper imported into __init__ without a leading underscore fails here.
    assert sorted(qnetcap.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from qnetcap import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_no_module_is_public():
    assert not [name for name in qnetcap.__all__ if isinstance(getattr(qnetcap, name), ModuleType)]


def test_standard_library_only():
    sources = sorted((ROOT / "src" / "qnetcap").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)


def referenced_names(tree) -> set[str]:
    """The names ``tree`` reads or imports, and the attributes it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_function_is_used_by_the_package_or_public():
    # A function that only tests call is a second path beside the one the
    # package runs.  Classes are not checked.
    statements = [
        node
        for path in sorted((ROOT / "src" / "qnetcap").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    used = [referenced_names(node) for node in statements]
    unused = [
        node.name
        for i, node in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in qnetcap.__all__
        and not any(node.name in names for j, names in enumerate(used) if j != i)
    ]
    assert unused == []


def test_cli_import_loads_no_process_pool():
    # The CSV commands fork with os alone; a pool module would add to every
    # command's start-up time.
    code = (
        "import sys, qnetcap.cli\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_version_is_written_once():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "qnetcap.__version__"}


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, not comments and not docstrings.

    A docstring is the first statement of a module, class or function when
    it is a string constant, as the AST sees it.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def test_code_lines_rule():
    source = '''"""Module."""

# a comment
def f(x):
    """Docstring
    over two lines."""
    y = x  # counted

    return y
'''
    assert code_lines(source) == 3


def test_src_code_lines_stay_under_the_ceiling():
    sources = sorted((ROOT / "src" / "qnetcap").glob("*.py"))
    total = sum(code_lines(path.read_text(encoding="utf-8")) for path in sources)
    assert total <= SRC_CODE_LINES_CEILING
