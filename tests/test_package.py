import holedtorus
from holedtorus import charts, extremal, fuchsian, regions

MODULES = (charts, extremal, fuchsian, regions)


def test_package_exports_each_module_list_once():
    names = holedtorus.__all__
    assert len(names) == len(set(names))
    assert list(names) == [name for module in MODULES for name in module.__all__]


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(holedtorus, name) is getattr(module, name), name
