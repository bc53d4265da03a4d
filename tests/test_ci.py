"""The CI workflow runs the tier-1 suite as ROADMAP.md documents it.

The workflow is read as text: PyYAML is not a test dependency.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def tier1_job():
    """The lines of the workflow's ``tier1`` job."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("  tier1:")
    end = next((k for k in range(start + 1, len(lines))
                if re.match(r"  \S", lines[k])), len(lines))
    return lines[start + 1:end]


def test_tier1_runs_the_roadmap_verify_command():
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$",
                       (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    runs = [line.split("run:", 1)[1].strip() for line in tier1_job()
            if line.strip().startswith("run:")]
    assert runs[-1] == verify


def test_tier1_uses_one_blas_thread():
    assert '      OPENBLAS_NUM_THREADS: "1"' in tier1_job()


def test_tier1_has_a_timeout():
    minutes = [line.split(":", 1)[1].strip() for line in tier1_job()
               if line.startswith("    timeout-minutes:")]
    assert len(minutes) == 1 and 0 < int(minutes[0]) <= 60


def test_tier1_runs_the_declared_python_floor():
    # tomllib is 3.11+, and this test also runs on the 3.10 floor.
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    job = tier1_job()
    versions = [re.findall(r'"([\d.]+)"', line.split(":", 1)[1])
                for line in job if line.strip().startswith("python-version:")]
    assert versions and floor in versions[0]
    assert "          python-version: ${{ matrix.python-version }}" in job
