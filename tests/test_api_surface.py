"""The public names resolve, and so does every attribute the benchmark's
tracer wraps by name: an API audit that drops one breaks ``--trace 1``.
The README's list of config keys names every key of the config table."""

import importlib
import importlib.util
import pathlib

import phide
from phide import experiments


def traced_objects():
    """Each (module, attribute path) of ``benchmarks/tracing.py``'s SPANS
    and the callable it names.  The module is loaded by file path and only
    SPANS is read: ``install()`` would patch classes for the whole
    process."""
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_phide_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = []
    for mod_name, attr_path, _, _ in tracing.SPANS:
        obj = importlib.import_module(mod_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        out.append(((mod_name, attr_path), obj))
    return out


def test_public_names_resolve():
    assert len(set(phide.__all__)) == len(phide.__all__)
    for name in phide.__all__:
        assert getattr(phide, name) is not None, name


def test_traced_spans_resolve():
    objects = traced_objects()
    assert objects
    for key, obj in objects:
        assert callable(obj), key


def test_readme_names_every_config_key():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    keys = readme[readme.index("Config keys"):].split("\n\n")[0]
    for key in [*experiments.CONFIG, *experiments.GAME]:
        assert f"`{key}`" in keys, key
