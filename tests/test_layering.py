"""The package's modules import one another in one order.

At its top level each module imports only from the modules of earlier
layers: space, functions, pointproc, kernels, dynamics, observables,
then experiments and scaling (side by side, neither importing the
other), then cli.  The package's ``__init__`` gathers them all and is
not a layer.  Imports inside a function are not read: the kernels'
``events`` methods import ``dynamics``, which imports ``kernels``.

Every starting measure lives in pointproc, next to PoissonMeasure,
because pointproc imports only functions and space: the Neyman-Scott
cluster smoothing goes through ``functions.gauss_smooth``, not through a
jump profile of ``kernels`` (which imports pointproc).
"""

import ast
import os

import pytest

import freedyn

SRC = os.path.dirname(os.path.abspath(freedyn.__file__))
LAYERS = (("space",), ("functions",), ("pointproc",), ("kernels",),
          ("dynamics",), ("observables",), ("experiments", "scaling"),
          ("cli",))
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}


def _top_level_imports(name):
    """(module, names) of each top-level ``from .module import names``."""
    with open(os.path.join(SRC, name + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(node.module, [alias.name for alias in node.names])
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_every_module_has_a_layer():
    modules = {f[:-3] for f in os.listdir(SRC) if f.endswith(".py")}
    assert modules - {"__init__"} == set(RANK)


@pytest.mark.parametrize("name", sorted(RANK))
def test_module_imports_only_earlier_layers(name):
    for module, names in _top_level_imports(name):
        if module is None:
            # from . import __version__: the package's version string
            assert names == ["__version__"], (name, names)
            continue
        assert RANK[module] < RANK[name], "%s imports %s" % (name, module)


def test_pointproc_imports_only_functions_and_space():
    assert {m for m, _ in _top_level_imports("pointproc")} == {
        "functions", "space"}
