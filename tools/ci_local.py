"""Run the CI workflow's ``run:`` steps on this machine, in order.

    python tools/ci_local.py

The steps are read from ``.github/workflows/tier1.yml``, so there is no
second copy of them here.  Each ``run:`` step runs from the repository
root under ``bash -e``, as the hosted runner runs it, with
``GITHUB_WORKSPACE`` set to the repository root, and ``RUNNER_TEMP`` and
``TMPDIR`` to one fresh temporary directory that is removed at the end.
``uses:`` steps (checkout, interpreter set-up) and the ``pip install``
step are skipped: the current environment provides the interpreter and
the packages.  The run stops at the first failing step and exits with
its status.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _steps():
    """``(name, script)`` of each ``run:`` step that is not the install."""
    try:
        import yaml
    except ImportError:
        sys.exit("ci_local needs PyYAML to read the workflow: pip install pyyaml")
    for job in yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"].values():
        for step in job["steps"]:
            script = step.get("run")
            if script is None or "pip install" in script:
                continue
            yield step.get("name", script.splitlines()[0]), script


def main() -> int:
    steps = list(_steps())
    with tempfile.TemporaryDirectory(prefix="ci_local_") as temp:
        env = dict(os.environ, GITHUB_WORKSPACE=str(ROOT), RUNNER_TEMP=temp, TMPDIR=temp)
        for i, (name, script) in enumerate(steps, 1):
            print(f"[{i}/{len(steps)}] {name}", flush=True)
            start = time.perf_counter()
            status = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env).returncode
            print(f"[{i}/{len(steps)}] exit {status} in {time.perf_counter() - start:.1f} s",
                  flush=True)
            if status:
                return status
    print(f"all {len(steps)} run steps passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
