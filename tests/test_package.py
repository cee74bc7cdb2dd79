"""The package's public surface, its version and its standard-library-only imports."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

import qnetcap

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "BruteForceSinglePath",
    "CHANNEL_KINDS",
    "ChainCapacity",
    "ChannelSpec",
    "Cut",
    "CutEnumeration",
    "CutRecord",
    "Edge",
    "FlowReport",
    "InvalidParameter",
    "NoRoute",
    "ParameterRegimeWarning",
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
    "enumerate_cuts",
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


def test_version_is_written_once():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "qnetcap.__version__"}
