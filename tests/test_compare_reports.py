import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def result(report, exit=0, stderr=""):
    return {"exit": exit, "stderr": stderr,
            "report": None if report is None else json.dumps(report)}


REPORT = {"status": "verified",
          "result": {"verified": True, "levels_used": 9,
                     "integral": [0.5, 1.0, 1.5],
                     "certificate": [{"eps": 1e-3, "achieved_tail": 0.0}]}}


def moved(**changes):
    report = json.loads(json.dumps(REPORT))
    report["result"].update(changes)
    return result(report)


def test_float_fields_report_their_largest_gap_with_indices_folded():
    floats, mismatches = compare_reports.numeric_differences(
        result(REPORT), moved(integral=[0.5 + 2e-16, 1.0, 1.5 - 4e-16]))
    assert mismatches == []
    assert floats["result.integral[]"] == pytest.approx(4e-16, rel=0.01)
    assert floats["result.certificate[].eps"] == 0.0


@pytest.mark.parametrize("new, where", [
    (moved(verified=False), "result.verified"),
    (moved(levels_used=10), "result.levels_used"),
    (moved(certificate=[{"eps": 1e-3, "achieved_tail": 0.25}]),
     "result.certificate[].achieved_tail"),
    (moved(integral=[0.5, 1.0]), "result.integral"),
    (result(REPORT, exit=2), "exit"),
    (result(REPORT, stderr="warning\n"), "stderr"),
    (result(None), "."),
])
def test_anything_but_a_float_value_must_match(new, where):
    _, mismatches = compare_reports.numeric_differences(result(REPORT), new)
    assert len(mismatches) == 1
    assert mismatches[0].startswith(f"{where}: ")
