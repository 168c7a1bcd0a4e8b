"""Every example script, and every quickstart, must run clean and say
something.

The examples double as executable documentation; a refactor that breaks
one breaks the README's promises.  Each script is executed in-process
(``runpy``, fresh ``__main__`` namespace) so failures surface as ordinary
test failures with full tracebacks, and its stdout must be nonempty.  The
quickstart blocks of the ``repro`` package docstring and of ``README.md``
are executed the same way.
"""

import io
import re
import runpy
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[script.stem for script in EXAMPLES]
)
def test_example_runs_clean_with_output(script):
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:  # an explicit sys.exit(0) is success
        assert not exc.code, f"{script.name} exited with {exc.code!r}"
    output = buffer.getvalue()
    assert output.strip(), f"{script.name} printed nothing"


def package_quickstart() -> str:
    """The indented literal block after ``Quickstart::`` in ``repro``'s
    docstring."""
    _, block = repro.__doc__.split("Quickstart::\n", 1)
    match = re.match(r"(?:\n|    .*\n)+", block + "\n")
    return textwrap.dedent(match.group(0))


def readme_quickstart() -> str:
    """The first ``python`` block of README.md's Quick tour."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    _, tour = readme.split("## Quick tour", 1)
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


@pytest.mark.parametrize(
    "source",
    [package_quickstart, readme_quickstart],
    ids=["package_docstring", "readme"],
)
def test_quickstart_runs_clean_with_output(source):
    code = source()
    assert "System(" in code, code
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exec(compile(code, source.__name__, "exec"), {"__name__": "quickstart"})
    assert buffer.getvalue().strip()
