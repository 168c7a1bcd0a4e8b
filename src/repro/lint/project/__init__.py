"""Whole-program analysis layer for :mod:`repro.lint`.

:mod:`~repro.lint.project.facts` is the one AST pass: it distills each file
into plain-dict site records.  :mod:`~repro.lint.project.graph` builds the
:class:`Project` from every file's facts — a symbol table and module graph,
a call graph, class-hierarchy analysis over ``Automaton``/``Process``
subclass trees — and :mod:`~repro.lint.project.dataflow` runs the
deterministic fixpoints (taint, dependency cones, order-sink parameters)
the rules query.
"""

from repro.lint.project.facts import FileFacts, extract_facts
from repro.lint.project.graph import Project, build_project

__all__ = ["FileFacts", "Project", "build_project", "extract_facts"]
