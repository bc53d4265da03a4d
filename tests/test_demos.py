import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_segmentation_and_mesh.py",
                                    "02_eeg_leadfield.py",
                                    "03_eit_forward_and_jacobian.py",
                                    "06_cli_pipeline.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir()), "demo left files in the temp dir"
