"""The traced benchmark run wraps program functions by name
(``perfbench/layertrace.py``); every name it wraps must still resolve, so
a rename fails here and not only in a traced benchmark run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(ROOT, "perfbench", "layertrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_put_back():
    layertrace = load_layertrace()
    wanted = [(owner, attr) for owners in layertrace.TARGETS.values() for owner, attr in owners]
    before = [owner.__dict__.get(attr) for owner, attr in wanted]
    assert None not in before
    tracer = layertrace.Tracer()
    try:
        tracer.install()  # raises AttributeError on a name the program lacks
        assert [(owner, attr) for owner, attr, _ in tracer.saved] == wanted
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(wanted, before))
    finally:
        tracer.uninstall()
    assert [owner.__dict__.get(attr) for owner, attr in wanted] == before
    layertrace.clear_caches()  # the memo it empties still exists
