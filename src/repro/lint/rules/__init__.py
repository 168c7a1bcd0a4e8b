"""Rule modules; importing this package populates the registry."""

from repro.lint.rules import (  # noqa: F401
    determinism,
    fidelity,
    observability,
    parallel_safety,
)
