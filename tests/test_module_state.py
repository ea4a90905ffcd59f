"""No atlas module keeps mutable state at module level: values are shared
across threads and sweeps, so a module-level list, dict or set that code
mutates would leak one caller's setting into the next."""

import importlib
import pkgutil

import atlas


def test_no_module_level_mutable_containers():
    found = []
    for info in pkgutil.iter_modules(atlas.__path__):
        module = importlib.import_module(f"atlas.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            qualname = f"{module.__name__}.{name}"
            if isinstance(value, (list, dict, set)):
                found.append(qualname)
    assert found == []
