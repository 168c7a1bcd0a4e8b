"""One parsed source file and the AST navigation helpers the facts pass uses.

A :class:`FileContext` wraps one parsed file: the AST (with parent links,
computed once), the raw lines, the dotted module name derived from the
path, and import-alias tables.  The helpers below answer purely syntactic
questions (which scope does a node belong to, is it behind an ``_ENABLED``
guard); *what* a site means for a rule is decided in
:mod:`repro.lint.project.facts`, the only module that reads ASTs.
"""

from __future__ import annotations

import ast
import os
import re
from collections import deque
from typing import Dict, Iterator, List, Optional, Set


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for ``path``.

    Uses the last ``repro``, ``tests`` or ``benchmarks`` component as the
    package root, so both ``src/repro/kernel/system.py`` and an unpacked
    ``.../repro/kernel/fixture.py`` map into ``repro.kernel.*`` and
    package-scoped rules fire consistently.
    """
    parts = os.path.normpath(path).split(os.sep)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    root = None
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            candidate = parts[idx:]
            if root is None or len(candidate) > len(root):
                root = candidate
    dotted = root if root is not None else parts[-1:]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(part for part in dotted if part) or "<unknown>"


class FileContext:
    """One parsed file: tree, parent links, lines, module name."""

    def __init__(self, path: str, source: str, module: Optional[str] = None):
        self.path = path
        self.module = module or module_name_for_path(path)
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: Dict[int, ast.AST] = {}
        #: every import statement, in walk order
        self.imports: List[ast.AST] = []
        for parent in ast.walk(self.tree):
            if isinstance(parent, (ast.Import, ast.ImportFrom)):
                self.imports.append(parent)
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def module_aliases(self, target: str) -> Set[str]:
        """Local names bound to module ``target`` (e.g. ``{"random", "rnd"}``
        for ``import random as rnd`` / ``import random``), including
        ``from <pkg> import <leaf> [as alias]`` forms."""
        names: Set[str] = set()
        pkg, _, leaf = target.rpartition(".")
        for node in self.imports:
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == target:
                        names.add(item.asname or item.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and not node.level:
                if pkg and node.module == pkg:
                    for item in node.names:
                        if item.name == leaf:
                            names.add(item.asname or item.name)
        return names

    def imported_names(self, module: str) -> Dict[str, str]:
        """``{local_name: original_name}`` for ``from module import ...``."""
        out: Dict[str, str] = {}
        for node in self.imports:
            if (
                isinstance(node, ast.ImportFrom)
                and not node.level
                and node.module == module
            ):
                for item in node.names:
                    out[item.asname or item.name] = item.name
        return out

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def top_level_names(tree: ast.Module) -> Set[str]:
    """Names assigned at module level (candidates for global-state rules)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def dotted_text(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def params_of(node: ast.AST) -> List[ast.arg]:
    """A function's named parameters (no ``*args``/``**kwargs``); none for
    any other scope."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    args = node.args
    return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)


def call_name(node: ast.Call) -> Optional[str]:
    """The plain function name of a call, if the func is a bare Name."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


#: Annotation names that evidently denote unordered containers.
SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}


def is_set_annotation(node: Optional[ast.AST]) -> bool:
    """Is the outermost constructor of an annotation a set type?
    (``List[FrozenSet[int]]`` is a list: type parameters do not leak out.)"""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        match = re.match(r"[A-Za-z_][A-Za-z0-9_.]*", node.value.strip())
        name = match.group(0).rpartition(".")[2] if match else None
    else:
        name = None
    return name in SET_ANNOTATIONS


def scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module and every (possibly nested) function: the lexical scopes."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def scope_walk(scope_node: ast.AST) -> Iterator[ast.AST]:
    """Walk the nodes belonging to one scope.

    Like ``ast.walk`` but does not descend into nested function/lambda
    scopes (class bodies are traversed: methods surface as FunctionDef
    nodes, which :func:`scopes` yields as scopes of their own)."""
    todo = deque(ast.iter_child_nodes(scope_node))
    while todo:
        node = todo.popleft()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))


def _mentions_enabled(test: ast.AST) -> bool:
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "_ENABLED")
        or (isinstance(sub, ast.Name) and sub.id == "_ENABLED")
        for sub in ast.walk(test)
    )


def guarded_by_enabled(ctx: FileContext, node: ast.AST) -> bool:
    """True when ``node`` is protected by an ``_ENABLED`` flag check.

    Accepts either a lexically enclosing ``if``/``while``/conditional/
    ``assert`` whose test mentions ``_ENABLED``, or an earlier statement in
    the enclosing function of the form ``if not <alias>._ENABLED:
    return/raise/continue`` (the early-bail idiom of the instrumented hot
    paths).
    """
    for ancestor in ctx.ancestors(node):
        if isinstance(
            ancestor, (ast.If, ast.While, ast.IfExp, ast.Assert)
        ) and _mentions_enabled(ancestor.test):
            return True

    func = ctx.enclosing_function(node)
    if func is None:
        return False
    lineno = getattr(node, "lineno", 0)
    for stmt in func.body:
        if getattr(stmt, "lineno", 10**9) >= lineno:
            break
        if (
            isinstance(stmt, ast.If)
            and _mentions_enabled(stmt.test)
            and any(
                isinstance(inner, (ast.Return, ast.Raise, ast.Continue))
                for inner in stmt.body
            )
        ):
            return True
    return False
