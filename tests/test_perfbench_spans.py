"""Every call the benchmark's traced runs wrap still resolves.

``perfbench/spans.py`` wraps the program's calls by name from outside:
a member is read from its class's ``__dict__`` (as
``Tracer._wrap_member`` does), a function from its module.  A renamed
or moved call makes a traced child die on start-up, and the benchmark
then exits 2.  The file is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
CALLS = [
    pytest.param(entry, id=f"{group}:{entry[0]}:{entry[1] or ''}.{entry[2]}")
    for group in ("CAMPAIGN_CALLS", "GATEWAY_CALLS")
    for entry in getattr(_spans, group)
]


@pytest.mark.parametrize("entry", CALLS)
def test_wrapped_call_resolves(entry):
    module_name, owner_name, attr = entry[:3]
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert attr in vars(module), f"{module_name}.{attr} is gone"
    else:
        owner = getattr(module, owner_name)
        assert attr in owner.__dict__, f"{module_name}.{owner_name}.{attr} is gone"
