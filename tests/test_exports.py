"""The package's public names: each resolves, each is listed once, in order."""

import boostfield


def test_every_public_name_resolves():
    assert [name for name in boostfield.__all__ if not hasattr(boostfield, name)] == []


def test_public_names_are_sorted_without_duplicates():
    assert boostfield.__all__ == sorted(set(boostfield.__all__))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from boostfield import *", namespace)
    assert set(boostfield.__all__) <= set(namespace)
