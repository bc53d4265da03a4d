import os
import pathlib
import re
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


def test_readme_python_blocks_run():
    # A renamed or removed public name fails here, not in a reader's shell.
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_ini_blocks_load_and_name_every_key(tmp_path):
    # Every schema key appears in its section as "key =", commented or not.
    from headfem.config import _SCHEMA, load_config
    blocks = re.findall(r"```ini\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for k, block in enumerate(blocks):
        path = tmp_path / f"project{k}.ini"
        path.write_text(block)
        load_config(path)
        named = {}
        for chunk in re.split(r"^(?=\[)", block, flags=re.M)[1:]:
            base = chunk[1:chunk.index("]")].split(":", 1)[0]
            named.setdefault(base, set()).update(
                re.findall(r"^[;\s]*(\w+) =", chunk, re.M))
        for section, keys in _SCHEMA.items():
            missing = set(keys) - named.get(section, set())
            assert not missing, f"[{section}] lacks {sorted(missing)}"
