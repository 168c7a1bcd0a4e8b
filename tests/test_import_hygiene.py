"""What the stack's entry packages may not import.

The service path, the chaos harness, the sweep harness and the CLI must
not pull in the fused lane (``repro.kernel.batch`` — only its callers pay
for it) nor numpy (nothing in ``src/`` imports it; one stray import costs
every process ~10 MB of peak RSS, which the perf ledger's ``peak_rss_mb``
bound does not forgive).  Nor may ``repro`` import anything from
``tests`` — the readable A_nuc coroutine lives there as a test reference
only.  A service imports the service: the package ``__init__`` files
resolve their exports on first access (``repro._exports``), so the
service cone loads none of the paper's necessity half, and ``import
repro`` loads only ``repro._exports``.  The numpy and ``tests`` checks
resolve every export first, so they cover each module an eager
``__init__`` would load.  Checked in a fresh interpreter, because this
test process has long since imported everything.
"""

import ast
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PACKAGES = ("repro.service", "repro.chaos", "repro.harness", "repro.cli")
FORBIDDEN = ("numpy", "repro.kernel.batch")

#: Imports a package as if every package ``__init__`` were eager: each
#: export of each ``repro`` module loaded so far is resolved, until nothing
#: new loads.  A lazy ``__init__`` loads no home module, so without this a
#: stray import in, say, ``repro.harness.experiments`` would go unseen.
IMPORT_EAGERLY = """
import importlib, sys
def import_eagerly(package):
    importlib.import_module(package)
    resolved = set()
    while True:
        todo = [
            name for name in sorted(sys.modules)
            if name.split(".")[0] == "repro" and name not in resolved
        ]
        if not todo:
            return
        for name in todo:
            resolved.add(name)
            for export in getattr(sys.modules[name], "__all__", ()):
                getattr(sys.modules[name], export)
"""

SCRIPT = IMPORT_EAGERLY + """
for package in {packages!r}:
    import_eagerly(package)
    for name in {forbidden!r}:
        if name in sys.modules:
            print(f"import {{package}} pulled in {{name}}")
            sys.exit(1)
"""


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports ``repro`` from
    ``src``; return the process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )


def test_entry_packages_import_neither_numpy_nor_the_fused_lane():
    proc = run_fresh(SCRIPT.format(packages=PACKAGES, forbidden=FORBIDDEN))
    assert proc.returncode == 0, proc.stdout + proc.stderr


TESTS_SCRIPT = IMPORT_EAGERLY + """
for package in {packages!r}:
    import_eagerly(package)
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
    proc = run_fresh(
        "import sys\n"
        "sys.modules['tomllib'] = None\n"
        "from repro.cli import main\n"
        "sys.exit(main(['experiment', 'exp6', '--quick']))\n"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "EXP-6" in proc.stdout


#: What a running service imports (the perf ledger's service rows).
SERVICE_CONE = (
    "import repro.service.net\n"
    "from repro.service import ConsensusService, ServiceConfig, TickClock\n"
)
NOT_IN_THE_CONE = (
    "repro.core.extraction",
    "repro.core.simtrie",
    "repro.core.boosting",
    "repro.core.stack",
    "repro.core.dag",
    "repro.kernel.runs",
    "repro.consensus",
    "repro.registers",
    "repro.separation",
    "repro.chaos",
    "repro.harness",
    "repro.analysis",
    "repro.lint",
    "repro.detectors.checkers",
)
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'repro')"


def test_the_service_cone_loads_only_the_service():
    proc = run_fresh(f"import sys\n{SERVICE_CONE}print({LOADED})\n")
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout)
    stray = [name for name in NOT_IN_THE_CONE if name in loaded]
    assert not stray, f"{len(loaded)} modules: {loaded}"


def test_import_repro_loads_no_submodule():
    proc = run_fresh(f"import sys, repro\nprint({LOADED})\n")
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == ["repro", "repro._exports"]


LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.chaos",
    "repro.consensus",
    "repro.core",
    "repro.detectors",
    "repro.harness",
    "repro.kernel",
    "repro.registers",
    "repro.separation",
    "repro.service",
    "repro.smr",
)

EXPORTS_SCRIPT = """
import ast, importlib
package = importlib.import_module({package!r})
tree = ast.parse(open(package.__file__).read())
(table,) = [
    ast.literal_eval(node.args[1])
    for node in ast.walk(tree)
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports"
]
names = [name for home, listed in table.items() for name in listed.split()]
assert set(package.__all__) - set(names) <= {{"__version__"}}, package.__all__
assert set(names) <= set(package.__all__), names
assert set(package.__all__) <= set(dir(package)), dir(package)
for home, listed in table.items():
    for name in listed.split():
        assert getattr(package, name) is getattr(importlib.import_module(home), name), name
assert not hasattr(package, "nope")
try:
    exec("from {package} import nope")
except ImportError:
    pass
else:
    raise AssertionError("from {package} import nope did not raise")
namespace = {{}}
exec("from {package} import *", namespace)
missing = [name for name in package.__all__ if name not in namespace]
assert not missing, missing
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_home_objects(package):
    proc = run_fresh(EXPORTS_SCRIPT.format(package=package))
    assert proc.returncode == 0, proc.stdout + proc.stderr
