import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import slicemean

SOURCES = sorted(Path(slicemean.__file__).parent.glob("*.py"))


def test_every_export_resolves():
    missing = [name for name in slicemean.__all__ if not hasattr(slicemean, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from slicemean import *", namespace)
    assert set(slicemean.__all__) <= set(namespace)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_private_names(tree):
    """Module-level private functions, classes and assigned names, except a
    function registered by a decorator call to a function of the same module
    (the verify checks' ``@_check(name)``)."""
    registrars = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            registered = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                             and d.func.id in registrars for d in node.decorator_list)
            if not registered:
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if _private(name)]


def _mentions(tree):
    """Every name the code reads: loaded names, attributes, imported names.
    Strings, comments and docstrings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_private_name_is_left_unused():
    # a helper, constant or class that nothing in the package reads is left
    # behind by a change that removed its last caller
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    mentioned = {name for tree in trees.values() for name in _mentions(tree)}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _defined_private_names(tree) if name not in mentioned]
    assert unused == []


def _functools_caches():
    """Every object with ``cache_info`` at module or class level in the
    package, by module and qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(slicemean.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"slicemean.{info.name}")
        values = list(vars(module).values())
        for cls in [v for v in values if isinstance(v, type)]:
            values += [getattr(cls, attr) for attr in vars(cls)]
        for value in values:
            if hasattr(value, "cache_info"):
                name = f"{value.__module__.removeprefix('slicemean.')}.{value.__qualname__}"
                caches[name] = value
    return caches


def test_every_process_cache_is_known_and_bounded():
    # each per-process memo holds memory for the life of the process: a new
    # one is added here on purpose, with its bound
    caches = _functools_caches()
    assert set(caches) == {"rules._beta_radial_rule", "rules._sphere_directions",
                           "cli._build_parser"}
    for name, cache in caches.items():
        bounded = cache.cache_parameters()["maxsize"] is not None
        assert bounded or not inspect.signature(cache.__wrapped__).parameters, name
