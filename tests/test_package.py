"""The package's public surface, which resolves its names on first use."""

import importlib

import pytest

import farey


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in farey.__all__:
        value = getattr(farey, name)
        # DEFAULT_CAP, the one public constant, carries no __module__.
        home = getattr(value, "__module__", "farey.errors")
        assert home.startswith("farey."), name
        assert getattr(importlib.import_module(home), name) is value, name


def test_a_resolved_name_stays_bound_in_the_package():
    value = farey.right_neighbor
    assert vars(farey)["right_neighbor"] is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from farey import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(farey.__all__)


def test_dir_lists_every_public_name():
    assert set(farey.__all__) <= set(dir(farey))


def test_unknown_attribute_raises_the_standard_error():
    for name in ("farey", "farey.cli"):
        module = importlib.import_module(name)
        with pytest.raises(AttributeError, match=rf"^module '{name}' has no attribute 'nonesuch'$"):
            module.nonesuch


def test_default_cap_is_the_oracles():
    import farey.oracle

    assert farey.DEFAULT_CAP is farey.oracle.DEFAULT_CAP == 10_000_000
