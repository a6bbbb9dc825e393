import glob
import importlib.util
import os

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    name = "demo_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if hasattr(module, "OUT"):
        monkeypatch.setattr(module, "OUT", str(tmp_path))
    module.main()
    assert capsys.readouterr().out.strip()
