"""No hidden module-level memo: the library's mutable module state is listed here."""

import importlib
import pkgutil

import roughdom

# the only module-level mutable containers the library may hold
ALLOWED = {
    ("roughdom.category", "_MORPHISM_PART"),
    ("roughdom.corpus", "POSET_COUNTS"),
}


def mutable_module_state():
    found = set()
    for info in pkgutil.walk_packages(roughdom.__path__, "roughdom."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set, bytearray)) or hasattr(value, "cache_info"):
                found.add((module.__name__, name))
    return found


def test_module_level_mutable_state_is_the_listed_two():
    assert mutable_module_state() == ALLOWED
