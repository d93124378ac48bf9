"""The input schema is fixed: every layer reads ``rid``, ``lat`` and ``lon``.

No function or class of the spatial join, the Sparcle core, the host
systems or the metrics takes a column name for them (or for the ground
truth), so there is one schema to test, not one per caller.
"""
import importlib
import inspect
import pkgutil

import repro.core
import repro.hostsys
import repro.spatial
from repro.core.pipeline import host_baseline_clean, sparcle_clean

COLUMN_OPTIONS = {"id_col", "lat_col", "lon_col", "truth_col"}
ALLOWED = set()


def _module_names():
    for pkg in (repro.spatial, repro.core, repro.hostsys):
        yield pkg.__name__
        yield from (m.name for m in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."))
    yield "repro.evalx.metrics"


def _callables():
    """Every function and class defined in those modules, and every method of the classes."""
    for name in _module_names():
        for attr, obj in vars(importlib.import_module(name)).items():
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                yield f"{name}.{attr}", obj
                for meth, fn in inspect.getmembers(obj, inspect.isfunction):
                    yield f"{name}.{attr}.{meth}", fn


def test_no_callable_takes_a_column_name():
    found = {
        name: sorted(COLUMN_OPTIONS & set(inspect.signature(obj).parameters))
        for name, obj in _callables()
    }
    assert ALLOWED <= set(found), "the walk must reach the modules it checks"
    offenders = {name: params for name, params in found.items() if params and name not in ALLOWED}
    assert offenders == {}


def test_entry_points_take_only_what_their_callers_set():
    for fn, second in ((sparcle_clean, "constraint"), (host_baseline_clean, "attribute")):
        params = inspect.signature(fn).parameters
        assert list(params) == ["df", second, "corrector"]
        assert params["corrector"].kind is inspect.Parameter.KEYWORD_ONLY
