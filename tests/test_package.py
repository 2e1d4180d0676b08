import types

import bakerbench


def test_all_is_sorted_without_duplicates():
    assert bakerbench.__all__ == sorted(set(bakerbench.__all__))


def test_all_names_resolve():
    for name in bakerbench.__all__:
        assert hasattr(bakerbench, name), name


def test_all_matches_the_public_namespace():
    public = {name for name, value in vars(bakerbench).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(bakerbench.__all__) == public
