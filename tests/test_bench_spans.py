"""The benchmark's traced runs wrap package functions by (module, attribute).

`bench/spans.py` looks every `WRAP_TABLE` entry up with getattr, so a name
removed from the package would break traced runs. This guard reads the table
(importing the file, not running it) and checks each entry resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrap_table():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_TABLE


@pytest.mark.parametrize("entry", _wrap_table(), ids=lambda e: f"{e[0]}.{e[1]}")
def test_wrap_table_entry_is_callable(entry):
    module, attr = entry[:2]
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
