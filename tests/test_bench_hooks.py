"""The benchmark's tracer wraps package functions and methods by name; every
name it lists must exist where it looks for it."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_exist_where_the_tracer_patches_them():
    for layer, (functions, classes) in _traced().items():
        module = importlib.import_module(f"spantreekh.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                # the tracer reads the member from the class's own __dict__
                assert name in cls.__dict__, f"{layer}.{cls_name}.{name}"
