"""The names perfbench/tracing.py rebinds must exist, and leaving its `traced` block must restore them.

The tracer patches package attributes by name. Renaming or deleting one makes
every traced benchmark run fail with AttributeError; this test finds that in
well under a second. It only reads perfbench/ and changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

import fbcsurv.classifiers.splits as splits
import fbcsurv.evaluation as evaluation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_block_rebinds_and_restores_every_name():
    tracing = _load_tracing()
    patched = [(importlib.import_module(module), attr) for module, attr, _ in tracing._FUNCTION_SPANS]
    patched += [(evaluation, "fit_model"), (evaluation, "predict")]
    patched += [(splits.BinnedMatrix, name) for name in ("__init__", "scan", "split_at")]
    originals = [getattr(owner, attr) for owner, attr in patched]
    with tracing.traced(tracing.Tracer()):
        assert all(getattr(owner, attr) is not original for (owner, attr), original in zip(patched, originals))
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(patched, originals))
