"""The names the benchmark hooks into still exist in the program."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import policytrace.cli
from policytrace.gateway import ASSESS_PROFILE, complete

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


class _Replacement:
    def generate(self, model_id, prompt, cfg):
        return "replaced", None, 1, 1


def test_every_handle_has_the_attributes_the_stand_in_reads_and_replaces(tmp_path):
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([
        {"provider_id": "mock", "script": [{"pattern": "", "text": "reply"}],
         "models": [{"model_id": "m1"}, {"model_id": "m2"}]},
        {"provider_id": "remote", "base_url": "http://localhost:1", "api_key_env": "NO_SUCH_KEY",
         "models": [{"model_id": "r1"}]},
    ]), encoding="utf-8")
    handles = policytrace.cli.load_provider_config(providers, cache_dir=None)
    assert sorted(handles) == ["m1", "m2", "r1"]
    for handle in handles.values():
        assert isinstance(handle.tokenizer("four"), int)
        assert callable(handle.provider.generate)
        handle.provider = _Replacement()  # as the stand-in does: calls now go through it
        assert complete(handle, "prompt", ASSESS_PROFILE).text == "replaced"


def test_every_module_the_tracer_wraps_is_loaded_after_a_run_without_export(corpus_dir, tmp_path):
    """The tracer looks each wrapped module up in `sys.modules` once gen, assess
    and report have run, and a workload may never run export-sft."""
    src = Path(policytrace.cli.__file__).resolve().parents[1]
    probe = (
        "import contextlib, io, pathlib, sys\n"
        "from policytrace.cli import main\n"
        "common = ['--config', sys.argv[1], '--out-dir', sys.argv[2]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(common + ['gen']), main(common + ['assess', '--strategy', 'base'])]\n"
        "    (results,) = pathlib.Path(sys.argv[2]).glob('*.results.jsonl')\n"
        "    codes.append(main(common + ['report', str(results)]))\n"
        "print(*codes, *sorted(m for m in sys.modules if m.startswith('policytrace.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(corpus_dir / "config.json"), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.split()[:3], proc.stdout.split()[3:]
    assert codes == ["0", "0", "0"]
    wrapped = {f"policytrace.{module}" for module, _attr, _span, _hook in _tracer().TARGETS}
    assert wrapped - set(loaded) == set()
