"""The parity tool finds exactly the runs whose output changed."""

import shutil
from pathlib import Path

import m3cube

from corpus import runs
from parity import differences, outputs

SRC = Path(m3cube.__file__).parent.parent


def test_parity_sees_one_changed_message(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    argvs = [argv for argv, _bad in runs(work)]
    copy = tmp_path / "src"
    shutil.copytree(SRC / "m3cube", copy / "m3cube", ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / "m3cube" / "cubecomplex.py"
    text = source.read_text()
    assert text.count('"not special"') == 1
    source.write_text(text.replace('"not special"', '"NOT special"'))

    here = outputs(SRC, argvs, work)
    assert differences(here, outputs(SRC, argvs, work)) == []
    printing = [i for i, (stdout, stderr, _code) in enumerate(here) if "not special" in stdout + stderr]
    assert len(printing) > 1
    assert differences(here, outputs(copy, argvs, work)) == printing
