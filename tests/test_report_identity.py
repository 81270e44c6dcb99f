"""``tools/report_identity.py --compare`` on two small synthetic run files."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "report_identity.py")
spec = importlib.util.spec_from_file_location("report_identity", TOOL)
report_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_identity)


def run(residual=1e-15, samples=34, code=0):
    line = f"  koszul                   PASS  max_residual={residual:.3e} samples={samples}"
    return {"exit": code, "stdout": ["scenario s", line],
            "report": {"suites": [{"suite": "koszul", "status": "pass", "notes": "",
                                   "max_residual": residual, "samples": samples,
                                   "witnesses": []}]}}


def compared(tmp_path, capsys, old: dict, new: dict) -> tuple:
    paths = []
    for name, runs in (("a.json", old), ("b.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(runs))
    code = report_identity.compare(*map(str, paths))
    return code, capsys.readouterr().out.splitlines()


def test_identical_files_compare_equal(tmp_path, capsys):
    code, out = compared(tmp_path, capsys, {"r": run()}, {"r": run()})
    assert code == 0 and out == ["0 of 1 runs differ"]


def test_moved_residuals_print_old_and_new(tmp_path, capsys):
    code, out = compared(tmp_path, capsys, {"r": run(), "q": run()},
                         {"r": run(residual=2e-15), "q": run()})
    assert code == 1
    assert out[:3] == [
        "r:",
        "  .report.suites[0].max_residual: 1e-15 -> 2e-15",
        '  .stdout[1]: "  koszul                   PASS  max_residual=1.000e-15 samples=34"'
        ' -> "  koszul                   PASS  max_residual=2.000e-15 samples=34"']
    assert out[-1].startswith("1 of 2 runs differ, in residuals only")


@pytest.mark.parametrize("new, path, before, after", [
    (run(samples=35), ".report.suites[0].samples", 34, 35),
    (run(code=1), ".exit", 0, 1),
    (None, None, None, None),
], ids=["sample count", "exit code", "missing run"])
def test_any_other_difference_is_named_in_the_last_line(tmp_path, capsys, new, path,
                                                        before, after):
    old = {"r": run(residual=2e-15), "q": run()}
    new = {"r": run(), **({"q": new} if new else {})}
    code, out = compared(tmp_path, capsys, old, new)
    assert code == 1
    assert (f"q: only in {tmp_path / 'a.json'}" if path is None
            else f"  {path}: {before} -> {after}") in out
    assert out[-1] == ("2 of 2 runs differ; 1 of them in more than residuals "
                       "(an exit code, status, sample count, witness or note)")
