"""Per-file facts: the linter's one AST pass.

:func:`extract_facts` reads one parsed file and records, per function
scope, every site any rule needs.  This module is therefore the one place
where each hazard is *recognised*; rules only decide where a site counts:

* ``rng`` — global-RNG draws and unseeded ``random.Random`` construction,
  ``rng_imports`` — ``from random import <fn>`` statements (RPR101);
* ``clock`` — wall-clock, environment and process-identity reads (RPR102);
* ``unordered`` — iteration order observed on an evident set or a bare
  ``.keys()``, and ``order_params`` — parameters whose order is observed
  (RPR103, one classifier for both);
* ``ids`` — ``id()`` calls (RPR104);
* ``io``, ``gwrites`` and ``globals`` — I/O, module-global writes and
  ``global`` statements (RPR201, RPR401);
* ``obs`` — ``obs.metrics()``/``obs.tracer()`` calls outside an
  ``_ENABLED`` guard (RPR301);
* ``calls`` — call sites with argument shapes: the call graph's edges.

Alongside them: the symbols the project graph resolves names through
(import tables, top-level value bindings, classes with bases and methods)
and the file's ``# repro: noqa`` table.  Scopes are the top-level
functions and methods (``"f"``, ``"Cls.m"``) plus ``"<module>"`` for
import-time code; a nested function belongs to its outermost owner.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.context import (
    FileContext,
    call_name,
    dotted_text,
    guarded_by_enabled,
    is_set_annotation,
    params_of,
    root_name,
    scope_walk,
    scopes,
    top_level_names,
)
from repro.lint.noqa import Suppression, parse_suppressions

#: Module-level ``random.*`` functions that consume the *global* RNG.
GLOBAL_RANDOM_FNS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gammavariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

#: Importable names from ``random`` that are fine to import anywhere.
SAFE_RANDOM_IMPORTS = {"Random", "SystemRandom"}

WALL_CLOCK_TIME_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}

OS_AMBIENT = {"environ", "getenv", "urandom", "getpid", "getrandom"}

DATETIME_AMBIENT = {"now", "utcnow", "today"}

IO_CALLS = {"print", "open", "input"}

#: Method-call names that mutate their receiver.
MUTATOR_METHODS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

#: Builtins whose result does not depend on the argument's iteration order.
ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "set",
    "frozenset",
    "sum",
    "len",
    "min",
    "max",
    "any",
    "all",
}

#: ``repro.obs`` entry points whose call sites must be guarded.
OBS_ACCESSORS = {"metrics", "tracer"}

#: The scope name of module-level (import-time) code.
MODULE_SCOPE = "<module>"

_SITE_KINDS = (
    "calls",
    "rng",
    "rng_imports",
    "clock",
    "unordered",
    "ids",
    "io",
    "gwrites",
    "globals",
    "obs",
)


@dataclass
class FileFacts:
    """Everything the rules need from one source file."""

    path: str
    module: str
    #: the ``# repro: noqa`` table, by line
    suppressions: Dict[int, Suppression] = field(default_factory=dict)
    #: local alias -> module for plain ``import`` statements
    module_imports: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original) for ``from module import name``
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: top-level ``name = dotted.expr`` value bindings
    bindings: Dict[str, str] = field(default_factory=dict)
    #: scope name ("f" / "Cls.m" / "<module>") -> function facts dict
    functions: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: class name -> {"bases": [...], "line": int, "methods": [...]}
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def _site(node: ast.AST, ctx: FileContext, detail: str = "") -> Dict[str, Any]:
    lineno = getattr(node, "lineno", 1)
    return {
        "line": lineno,
        "col": getattr(node, "col_offset", 0),
        "snippet": ctx.line_text(lineno),
        "detail": detail,
    }


def unseeded(call: ast.Call) -> bool:
    """No argument at all, or one literal ``None``: the seed is OS entropy."""
    given = list(call.args) + [kw.value for kw in call.keywords]
    return not given or (
        len(given) == 1
        and isinstance(given[0], ast.Constant)
        and given[0].value is None
    )


def is_evident_set(node: ast.AST, bound: Set[str]) -> bool:
    """Is ``node`` evidently a set (literal, ``set()``/``frozenset()``, a set
    operator, or a name ``bound`` to one)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and call_name(node) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name):
        return node.id in bound
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_evident_set(node.left, bound) or is_evident_set(node.right, bound)
    return False


def set_bindings(scope_node: ast.AST, nodes: List[ast.AST]) -> Set[str]:
    """Names evidently bound to sets within one lexical scope (``nodes``,
    its :func:`scope_walk`): set-annotated parameters and names, and names
    only ever assigned evident sets."""
    set_like = {
        arg.arg for arg in params_of(scope_node) if is_set_annotation(arg.annotation)
    }
    other: Set[str] = set()  # also bound to something that is not a set
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if is_evident_set(node.value, set_like):
                    set_like.add(target.id)
                else:
                    other.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if is_set_annotation(node.annotation):
                set_like.add(node.target.id)
    return set_like - other


def order_observations(
    ctx: FileContext, node: ast.AST
) -> Iterator[Tuple[ast.AST, ast.AST, str]]:
    """Yield ``(operand, anchor, what)`` for each operation at ``node`` whose
    result depends on ``operand``'s iteration order: for-loops,
    comprehensions (not a generator fed straight into ``sum``/``sorted``/
    ...), ``list()``/``tuple()`` and argument-less ``.pop()``."""
    if isinstance(node, ast.For):
        yield node.iter, node.iter, "iterated by a for-loop"
    elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
        parent = ctx.parent(node)
        if (
            isinstance(node, ast.GeneratorExp)
            and isinstance(parent, ast.Call)
            and call_name(parent) in ORDER_INSENSITIVE_CALLS
            and parent.args
            and parent.args[0] is node
        ):
            return
        for gen in node.generators:
            yield gen.iter, gen.iter, "iterated by a comprehension"
    elif isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("list", "tuple") and len(node.args) == 1:
            yield node.args[0], node, f"fixed into a {name}()"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
        ):
            yield node.func.value, node, "popped arbitrarily (.pop())"


def _iterated_keys(ctx: FileContext, node: ast.AST) -> bool:
    """A bare ``d.keys()`` iterated by a for-loop or comprehension."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    ):
        return False
    parent = ctx.parent(node)
    return isinstance(parent, (ast.For, ast.comprehension)) and parent.iter is node


class _FunctionScanner:
    """Records one scope's sites."""

    def __init__(self, ex: "_Extractor", scope_node: ast.AST, nodes: List[ast.AST]):
        self.ex = ex
        self.ctx = ex.ctx
        self.nodes = nodes
        self.params = [arg.arg for arg in params_of(scope_node)]
        lineno = getattr(scope_node, "lineno", 1)
        #: the scope's own set bindings (argument shapes of its call sites)
        self.set_bound = ex.bound_of_scope[id(scope_node)]
        self.local_names: Set[str] = set()
        self.global_decls: Set[str] = set()
        self.facts: Dict[str, Any] = {"line": lineno, "params": self.params}
        for kind in _SITE_KINDS:
            self.facts[kind] = []
        self.facts["order_params"] = {}

    def scan(self) -> Dict[str, Any]:
        # Pass 1: local binding structure (shadowing, global declarations)
        # so pass 2 can tell module globals from locals.
        for node in self.nodes:
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_names.add(target.id)
        for node in self.nodes:
            self._scan_node(node)
        for kind in _SITE_KINDS:
            self.facts[kind].sort(key=lambda s: (s["line"], s["col"]))
        return self.facts

    def _add(self, kind: str, node: ast.AST, detail: str, **extra: Any) -> None:
        self.facts[kind].append(_site(node, self.ctx, detail) | extra)

    def _scan_node(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._scan_call(node)
        elif isinstance(node, ast.Attribute):
            self._scan_attribute(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._scan_name_load(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            self._scan_assign(node)
        elif isinstance(node, ast.Global):
            self._add("globals", node, ", ".join(node.names))
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for item in node.names:
                if item.name not in SAFE_RANDOM_IMPORTS:
                    self._add(
                        "rng_imports",
                        node,
                        f"'from random import {item.name}' binds a global-RNG "
                        f"function",
                    )
        self._scan_order(node)

    def _scan_order(self, node: ast.AST) -> None:
        # Direct sites are judged with the bindings of the node's own
        # lexical scope (None inside a lambda); parameters are this
        # scope's, observed anywhere beneath it.
        bound = self.ex.bound_at.get(id(node))
        order = self.facts["order_params"]
        for operand, anchor, what in order_observations(self.ctx, node):
            if bound is not None and is_evident_set(operand, bound):
                self._add("unordered", anchor, f"set {what}")
            if (
                isinstance(operand, ast.Name)
                and operand.id in self.params
                and operand.id not in order
            ):
                order[operand.id] = _site(anchor, self.ctx, what)
        if bound is not None and _iterated_keys(self.ctx, node):
            self._add("unordered", node, "bare .keys() iterated")

    def _arg_shape(self, node: ast.AST) -> Dict[str, Any]:
        shape: Dict[str, Any] = {}
        if is_evident_set(node, self.set_bound):
            shape["set"] = True
        text = dotted_text(node)
        if text is not None:
            shape["name"] = text
        return shape

    def _scan_call(self, node: ast.Call) -> None:
        ex = self.ex
        name = call_name(node)
        func = node.func

        # Call-graph edge (pure Name/Attribute chains only).
        callee = dotted_text(func)
        if callee is not None:
            call_fact = _site(node, self.ctx)
            call_fact["callee"] = callee
            args = [self._arg_shape(a) for a in node.args]
            kwargs = {
                kw.arg: self._arg_shape(kw.value)
                for kw in node.keywords
                if kw.arg is not None
            }
            if any(args) or any(kwargs.values()):
                call_fact["args"] = args
                call_fact["kwargs"] = {k: v for k, v in kwargs.items() if v}
            if unseeded(node):
                call_fact["noseed"] = True
            self.facts["calls"].append(call_fact)

        # The global RNG, through a module alias or a from-import.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ex.random_aliases
        ):
            leaf: Optional[str] = func.attr
            spelled = f"random.{leaf}()"
        else:
            leaf = ex.random_from.get(name) if name else None
            spelled = f"{name}() (random.{leaf})"
        if leaf in GLOBAL_RANDOM_FNS:
            self._add("rng", node, f"{spelled} draws from the process-global RNG")
        elif leaf == "Random" and unseeded(node):
            self._add("rng", node, f"unseeded {spelled} falls back to OS entropy")

        if name in IO_CALLS:
            self._add("io", node, f"calls {name}()")
        if name == "id":
            self._add("ids", node, "id() exposes the allocator")

        # Mutator method on a module-level global.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and self._names_global(func.value.id)
            and not guarded_by_enabled(self.ctx, node)
        ):
            self._add(
                "gwrites",
                node,
                f"{func.value.id}.{func.attr}(...)",
                name=func.value.id,
            )

        self._scan_obs(node, func)

    def _scan_obs(self, node: ast.Call, func: ast.AST) -> None:
        aliases = self.ex.obs_aliases
        if not (
            aliases
            and isinstance(func, ast.Attribute)
            and func.attr in OBS_ACCESSORS
        ):
            return
        base = func.value
        if isinstance(base, ast.Name) and base.id in aliases:
            alias = base.id
        elif dotted_text(base) == "repro.obs":
            alias = "repro.obs"
        else:
            return
        if not guarded_by_enabled(self.ctx, node):
            self._add("obs", node, f"{alias}.{func.attr}()", alias=alias)

    def _scan_attribute(self, node: ast.Attribute) -> None:
        ex = self.ex
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in ex.time_aliases and node.attr in WALL_CLOCK_TIME_FNS:
                self._add("clock", node, f"time.{node.attr} reads the wall clock")
            elif base.id in ex.os_aliases and node.attr in OS_AMBIENT:
                self._add(
                    "clock", node, f"os.{node.attr} reads ambient process state"
                )
            elif base.id in ex.datetime_classes and node.attr in DATETIME_AMBIENT:
                self._add(
                    "clock", node, f"datetime.{node.attr}() reads the wall clock"
                )
            elif base.id == "sys" and node.attr in ("stdout", "stderr", "stdin"):
                self._add("io", node, f"touches sys.{node.attr}")
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in ex.datetime_mod_aliases
            and base.attr in ("datetime", "date")
            and node.attr in DATETIME_AMBIENT
        ):
            self._add(
                "clock",
                node,
                f"datetime.{base.attr}.{node.attr}() reads the wall clock",
            )

    def _scan_name_load(self, node: ast.Name) -> None:
        ex = self.ex
        if node.id in ex.time_from:
            self._add(
                "clock", node, f"time.{ex.time_from[node.id]} reads the wall clock"
            )
        elif node.id in ex.os_from:
            self._add(
                "clock",
                node,
                f"os.{ex.os_from[node.id]} reads ambient process state",
            )

    def _names_global(self, name: str) -> bool:
        """Does ``name`` refer to a module-level global in this scope?"""
        if name not in self.ex.top_globals:
            return False
        if name in self.global_decls:
            return True
        return name not in self.local_names and name not in self.params

    def _scan_assign(self, node: ast.AST) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.global_decls and not guarded_by_enabled(
                    self.ctx, node
                ):
                    # ``rebind``: the ``global`` statement is its own site.
                    self._add(
                        "gwrites",
                        node,
                        f"rebinds global {target.id}",
                        name=target.id,
                        rebind=True,
                    )
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                root = root_name(target)
                if (
                    root is not None
                    and self._names_global(root)
                    and not guarded_by_enabled(self.ctx, node)
                ):
                    self._add("gwrites", node, f"writes through {root}", name=root)


class _Extractor:
    """File-level tables shared by every scope's scanner."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        tree = ctx.tree
        self.random_aliases = ctx.module_aliases("random")
        self.random_from = ctx.imported_names("random")
        self.time_aliases = ctx.module_aliases("time")
        self.os_aliases = ctx.module_aliases("os")
        self.datetime_mod_aliases = ctx.module_aliases("datetime")
        self.datetime_classes = {
            local
            for local, original in ctx.imported_names("datetime").items()
            if original in ("datetime", "date")
        }
        self.time_from = {
            local: original
            for local, original in ctx.imported_names("time").items()
            if original in WALL_CLOCK_TIME_FNS
        }
        self.os_from = {
            local: original
            for local, original in ctx.imported_names("os").items()
            if original in OS_AMBIENT
        }
        self.obs_aliases = ctx.module_aliases("repro.obs")
        self.top_globals = top_level_names(tree)
        self.module_imports: Dict[str, str] = {}
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        for node in ctx.imports:
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    self.module_imports[local] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
                    if item.asname is None and "." in item.name:
                        # ``import a.b`` binds ``a`` but makes a.b reachable.
                        self.module_imports.setdefault(item.name, item.name)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for item in node.names:
                    if item.name != "*":
                        self.from_imports[item.asname or item.name] = (
                            node.module,
                            item.name,
                        )
        # A lazy export table (``repro._exports``) forwards like from-imports.
        for stmt in tree.body:
            call = stmt.value if isinstance(stmt, ast.Assign) else None
            if (
                isinstance(call, ast.Call)
                and dotted_text(call.func) == "lazy_exports"
                and len(call.args) == 2
                and isinstance(call.args[1], ast.Dict)
            ):
                for key, value in zip(call.args[1].keys, call.args[1].values):
                    if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                        for name in value.value.split():
                            self.from_imports[name] = (key.value, name)
        # Set bindings per lexical scope, and of the scope of every node
        # (nodes inside a lambda belong to none).
        self.bound_of_scope: Dict[int, Set[str]] = {}
        self.bound_at: Dict[int, Set[str]] = {}
        for scope in scopes(tree):
            nodes = list(scope_walk(scope))
            bound = self.bound_of_scope[id(scope)] = set_bindings(scope, nodes)
            for node in nodes:
                self.bound_at[id(node)] = bound

    def extract(self) -> FileFacts:
        ctx = self.ctx
        tree = ctx.tree
        facts = FileFacts(
            path=ctx.path,
            module=ctx.module,
            suppressions=parse_suppressions(ctx.lines),
            module_imports=self.module_imports,
            from_imports=self.from_imports,
        )

        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                text = dotted_text(stmt.value)
                if text is not None and "." in text:
                    facts.bindings[stmt.targets[0].id] = text

        # Classes and their methods; every top-level def and method is a scope.
        scope_defs: Dict[str, ast.AST] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope_defs[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                methods = []
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods.append(sub.name)
                        scope_defs[f"{stmt.name}.{sub.name}"] = sub
                facts.classes[stmt.name] = {
                    "bases": [
                        text
                        for text in (dotted_text(b) for b in stmt.bases)
                        if text is not None
                    ],
                    "line": stmt.lineno,
                    "methods": sorted(methods),
                }

        owned: Set[int] = set()
        for qualname, node in sorted(scope_defs.items()):
            nodes = [n for n in ast.walk(node) if n is not node]
            owned.update(id(n) for n in nodes)
            owned.add(id(node))
            facts.functions[qualname] = _FunctionScanner(self, node, nodes).scan()
        module_nodes = [
            n for n in ast.walk(tree) if n is not tree and id(n) not in owned
        ]
        facts.functions[MODULE_SCOPE] = _FunctionScanner(
            self, tree, module_nodes
        ).scan()
        return facts


def extract_facts(ctx: FileContext) -> FileFacts:
    """The facts of one parsed file."""
    return _Extractor(ctx).extract()
