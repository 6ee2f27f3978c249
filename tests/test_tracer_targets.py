"""The benchmark's tracer patches freedyn by name: every name must resolve."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def _targets():
    # load the file as a standalone module; nothing under perfbench/ runs
    spec = importlib.util.spec_from_file_location("_freedyn_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in TARGETS],
                         ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(module, path):
    # Tracer.install takes a method from its class's own __dict__ and a
    # function from its defining module
    mod = importlib.import_module("freedyn." + module)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name)), path
    else:
        assert callable(getattr(mod, path)), path
