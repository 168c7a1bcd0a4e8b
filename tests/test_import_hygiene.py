"""What the stack's entry packages may not import.

The service path, the chaos harness, the sweep harness and the CLI must
not pull in the fused lane (``repro.kernel.batch`` — only its callers pay
for it) nor numpy (nothing in ``src/`` imports it; one stray import costs
every process ~10 MB of peak RSS, which the perf ledger's ``peak_rss_mb``
bound does not forgive).  Checked in a fresh interpreter, because this
test process has long since imported everything.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PACKAGES = ("repro.service", "repro.chaos", "repro.harness", "repro.cli")
FORBIDDEN = ("numpy", "repro.kernel.batch")

SCRIPT = """
import importlib, sys
for package in {packages!r}:
    importlib.import_module(package)
    for name in {forbidden!r}:
        if name in sys.modules:
            print(f"import {{package}} pulled in {{name}}")
            sys.exit(1)
"""


def test_entry_packages_import_neither_numpy_nor_the_fused_lane():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT.format(packages=PACKAGES, forbidden=FORBIDDEN),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
