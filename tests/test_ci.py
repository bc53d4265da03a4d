"""The CI workflow runs the tier-1 suite as ROADMAP.md documents it, also
on the declared dependency floors, and the traced benchmark once.

The workflow is read as text: PyYAML is not a test dependency.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def job(name):
    """The lines of the workflow's job ``name``."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"  {name}:")
    end = next((k for k in range(start + 1, len(lines))
                if re.match(r"  \S", lines[k])), len(lines))
    return lines[start + 1:end]


def tier1_job():
    return job("tier1")


def runs(lines):
    return [line.split("run:", 1)[1].strip() for line in lines
            if line.strip().startswith("run:")]


def timeout_minutes(lines):
    return [int(line.split(":", 1)[1]) for line in lines
            if line.startswith("    timeout-minutes:")]


def test_tier1_runs_the_roadmap_verify_command():
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$",
                       (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    assert runs(tier1_job())[-1] == verify


def test_tier1_uses_one_blas_thread():
    assert '      OPENBLAS_NUM_THREADS: "1"' in tier1_job()


def test_tier1_has_a_timeout():
    minutes = timeout_minutes(tier1_job())
    assert len(minutes) == 1 and 0 < minutes[0] <= 60


def test_bench_smoke_runs_the_traced_benchmark():
    # The tracer's argument hooks (such as save_tet_mesh's) run only under
    # --trace 1; a separate job keeps tier-1's last run line the verify
    # command.
    smoke = job("bench-smoke")
    assert runs(smoke) == ['python -m pip install -e ".[test]"',
                           "python3 bench/run.py --seconds 0 --trace 1"]
    assert '      OPENBLAS_NUM_THREADS: "1"' in smoke
    assert timeout_minutes(smoke) == [10]


def test_tier1_runs_the_declared_python_floor():
    # tomllib is 3.11+, and this test also runs on the 3.10 floor.
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    tier1 = tier1_job()
    versions = [re.findall(r'"([\d.]+)"', line.split(":", 1)[1])
                for line in tier1 if line.strip().startswith("python-version:")]
    assert versions and floor in versions[0]
    assert "          python-version: ${{ matrix.python-version }}" in tier1


def test_floor_runs_tier1_on_the_declared_dependency_floors():
    pyproject = (ROOT / "pyproject.toml").read_text()
    python, numpy, scipy = (
        re.search(pattern, pyproject, re.M).group(1) for pattern in (
            r'^requires-python = ">=(\d+\.\d+)"$',
            r'^    "numpy>=(\d+\.\d+)",$', r'^    "scipy>=(\d+\.\d+)",$'))
    floor = job("floor")
    assert f'          python-version: "{python}"' in floor
    assert runs(floor) == [
        f'python -m pip install "numpy=={numpy}.*" "scipy=={scipy}.*" '
        '-e ".[test]"', runs(tier1_job())[-1]]
    assert '      OPENBLAS_NUM_THREADS: "1"' in floor
    assert timeout_minutes(floor) == [20]
