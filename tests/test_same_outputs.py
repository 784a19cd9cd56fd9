"""The number comparison of tools/same_outputs.py --rtol."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


@pytest.mark.parametrize("ref, new, want", [
    (b"t,u\n0,1.5\n", b"t,u\n0,1.5\n", 0.0),
    (b"t,u\n0,1.5\n", b"t,u\n-0,1.5000000000000002\n", 2.0**-52 / 1.5000000000000002),
    (b'{"margin": 2e-3, "tolerance": Infinity}', b'{"margin": 0.002, "tolerance": Infinity}', 0.0),
    (b'"note": "slope 1.0000 (threshold 0.95)"', b'"note": "slope 1.0001 (threshold 0.95)"',
     1e-4 / 1.0001),
    (b"1e-300,2", b"-1e-300,2", 2.0),
])
def test_largest_relative_difference(ref, new, want):
    assert same_outputs.largest_relative_difference(ref, new) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("ref, new", [
    (b"t,u\n0,1\n", b"t,v\n0,1\n"),  # a header
    (b"0,1\n", b"0,1\n2,3\n"),  # a row more
    (b'"tolerance": Infinity', b'"tolerance": 1e308'),
    (b'"pass": true, "margin": 1', b'"pass": false, "margin": 1'),
])
def test_text_that_differs_is_no_number_difference(ref, new):
    assert same_outputs.largest_relative_difference(ref, new) is None


def test_compare_reports_each_output_that_is_not_byte_identical():
    ref = {"exit code": b"0", "report.json": b"[1.0, 2.0]", "rates.csv": b"x\n1\n"}
    new = {"exit code": b"0", "report.json": b"[1.0, 2.0000001]", "rates.csv": b"y\n1\n"}
    assert same_outputs.compare(ref, ref, None) == (False, "same")
    assert same_outputs.compare(ref, new, None) == (True, "differs in rates.csv, report.json")
    differs, line = same_outputs.compare(ref, new, 1e-6)
    assert differs and line == "rates.csv differs in text, report.json 5e-08"
    new["rates.csv"] = ref["rates.csv"]
    assert same_outputs.compare(ref, new, 1e-6) == (False, "report.json 5e-08")
    assert same_outputs.compare(ref, new, 1e-8) == (True, "report.json 5e-08 > 1e-08")
    del new["rates.csv"]
    assert same_outputs.compare(ref, new, 1e-6)[0]  # a missing file differs
