import subtrop


def test_every_exported_name_resolves():
    assert len(set(subtrop.__all__)) == len(subtrop.__all__)
    for name in subtrop.__all__:
        getattr(subtrop, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from subtrop import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(subtrop.__all__)
