"""The traced benchmark run wraps program functions by name
(``perfbench/layertrace.py``); every name it wraps must still resolve, so
a rename fails here and not only in a traced benchmark run."""

import importlib.util
import os

from pqpierce import family

from conftest import intervals

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


def test_clear_caches_empties_the_links_memo(monkeypatch):
    # the memo is keyed on the nerve, which a family keeps, so only
    # clear_caches makes a traced pass build the links its untraced pass
    # built for the same family object
    built = []
    make = family._build_links

    def counting(nerve, q):
        built.append(q)
        return make(nerve, q)

    monkeypatch.setattr(family, "_build_links", counting)
    F = intervals((0, 2), (1, 3), (2, 4), (0, 4), (3, 5))
    family._intersecting_qtuples.cache_clear()
    for _ in range(2):
        family.max_r(F, 4, 2)
        family.max_r(F, 4, 3)
    assert built == [2, 3]
    load_layertrace().clear_caches()
    family.max_r(F, 4, 2)
    family.max_r(F, 4, 3)
    assert built == [2, 3, 2, 3]
