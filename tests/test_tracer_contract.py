"""The names perfbench/ calls or rebinds must exist, and leaving tracing.py's `traced` block must restore them.

The tracer patches package attributes by name, and run.py calls package
functions and replaces `fbcsurv.evaluation._fold_task` by name. Renaming or
deleting one makes every benchmark run fail with AttributeError; these tests
find that in well under a second. They only read perfbench/ and change
nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

import fbcsurv.classifiers.splits as splits
import fbcsurv.evaluation as evaluation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# (module, attribute) that perfbench/run.py calls, or for _fold_task wraps in every untraced sweep run
RUN_NAMES = (
    ("fbcsurv", "apply_inclusion_filters"),
    ("fbcsurv", "read_cohort"),
    ("fbcsurv", "label_cohort"),
    ("fbcsurv", "build_matrix"),
    ("fbcsurv", "make_fold_plan"),
    ("fbcsurv.labeling", "Version"),
    ("fbcsurv.cli", "main"),
    ("fbcsurv.evaluation", "_fold_task"),
)


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


def test_names_the_benchmark_runner_calls_exist():
    run_text = (PERFBENCH / "run.py").read_text()
    for module, attr in RUN_NAMES:
        assert attr in run_text, f"perfbench/run.py no longer uses {attr}; update RUN_NAMES"
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} is gone"
