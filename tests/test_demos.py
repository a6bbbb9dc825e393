import glob
import importlib.util
import os

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
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


def test_readme_library_block_runs():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    adapted, sp = scope["adapted"], scope["ds"].superpixels
    assert [len(v) for v in adapted.values] == sp.counts
    assert len(sp.counts) == 20 and sum(sp.counts) == 5450
