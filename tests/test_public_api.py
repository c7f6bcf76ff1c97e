"""The package's public names: ``aggmogp.__all__`` lists each once, in
order, and every name in it exists, so a name removed from a module but
left in ``__all__`` fails here rather than at a user's star import."""

import aggmogp


def by_type(name):
    """isort's order by type: constants, then classes, then the rest,
    each group in code-point order."""
    group = 0 if name.isupper() else 1 if name[0].isupper() else 2
    return group, name


def test_all_is_unique_and_sorted():
    assert len(set(aggmogp.__all__)) == len(aggmogp.__all__)
    assert aggmogp.__all__ == sorted(aggmogp.__all__, key=by_type)


def test_every_name_resolves():
    missing = [name for name in aggmogp.__all__ if not hasattr(aggmogp, name)]
    assert missing == []


def test_star_import_runs():
    namespace = {}
    exec("from aggmogp import *", namespace)
    assert set(aggmogp.__all__) <= set(namespace)
