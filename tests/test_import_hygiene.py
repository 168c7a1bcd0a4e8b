"""What the stack's entry packages may not import.

The service path, the chaos harness, the sweep harness and the CLI must
not pull in the fused lane (``repro.kernel.batch`` — only its callers pay
for it) nor numpy (nothing in ``src/`` imports it; one stray import costs
every process ~10 MB of peak RSS, which the perf ledger's ``peak_rss_mb``
bound does not forgive).  Nor may ``repro`` import anything from
``tests`` — the readable A_nuc coroutine lives there as a test reference
only.  Checked in a fresh interpreter, because this test process has long
since imported everything.
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


TESTS_SCRIPT = """
import importlib, sys
for package in {packages!r}:
    importlib.import_module(package)
leaked = sorted(
    name for name in sys.modules if name == "tests" or name.startswith("tests.")
)
if leaked:
    print(f"importing repro pulled in {{leaked}}")
    sys.exit(1)
"""


def test_repro_imports_nothing_from_tests():
    # The repo root is importable, so a stray ``import tests...`` in src/
    # would succeed here and show up in sys.modules.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            TESTS_SCRIPT.format(packages=("repro",) + PACKAGES),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_experiments_run_without_the_311_toml_parser():
    """The experiment path runs on Pythons (3.9, 3.10) whose standard
    library has no TOML parser; block that module to prove it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    script = (
        "import sys\n"
        "sys.modules['tomllib'] = None\n"
        "from repro.cli import main\n"
        "sys.exit(main(['experiment', 'exp6', '--quick']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "EXP-6" in proc.stdout
