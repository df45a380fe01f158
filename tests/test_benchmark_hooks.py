"""The names the benchmark hooks into still exist in the program."""

import importlib
import importlib.util
from pathlib import Path

import policytrace.cli

TRACER = Path(__file__).resolve().parents[1] / "prtbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("prtbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_wraps_is_a_callable_of_its_module():
    targets = _tracer().TARGETS
    assert targets
    missing = [
        f"policytrace.{module}.{attr}"
        for module, attr, _span, _hook in targets
        if not callable(getattr(importlib.import_module(f"policytrace.{module}"), attr, None))
    ]
    assert missing == []


def test_the_stand_in_patch_point_exists():
    assert callable(policytrace.cli.load_provider_config)
