"""The project graph: symbols, module graph, call graph, class hierarchy.

Built purely from :class:`~repro.lint.project.facts.FileFacts` records:
no AST survives to this layer.

Identifiers
-----------
* a *module* is its dotted name (``repro.kernel.system``),
* a *function id* (fid) is ``module:qualname`` (``repro.kernel.system:step``,
  ``repro.consensus.nonuniform:Proposer.on_deliver``, ``mod:<module>`` for
  import-time code),
* a *class id* (cid) is ``module:ClassName``.

Resolution follows from-imports, module imports, top-level value bindings
(``pick = random.choice``) and re-export chains (``__init__`` forwarding),
with a visited set so import cycles terminate.  Anything leaving the linted
file set resolves to ``("external", dotted)`` — precise enough to recognize
``repro.kernel.automaton.Automaton`` ancestry even when only a subtree is
being linted.  A base that resolves nowhere (no import binds it) still
names its class: ``class Leaky(Automaton)`` in a lone file is an automaton.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.project.facts import MODULE_SCOPE, FileFacts
from repro.lint.registry import in_packages

#: Where the harness's store-keyed / forked entry points live.
SWEEP_TASK_CLASS = "repro.harness.parallel:SweepTask"


def is_sweep_task_ctor(res: Optional["Resolution"]) -> bool:
    """Does a resolution name the SweepTask constructor?  Accepts the
    external form too — a subtree lint may not include the harness files."""
    return res in (
        ("class", SWEEP_TASK_CLASS),
        ("external", "repro.harness.parallel.SweepTask"),
    )


#: The automaton base classes (Section 2's I/O automata) and the packages
#: that define them: their subclass trees carry the purity contract.
AUTOMATON_ROOTS = ("Automaton", "Process")
AUTOMATON_HOMES = ("repro.kernel", "repro.consensus", "repro.smr")

Resolution = Tuple[str, str]  # (kind, identifier)


def module_of(fid: str) -> str:
    """The module part of a function or class id."""
    return fid.split(":", 1)[0]


class Project:
    """The whole-program view the flow-aware rules query."""

    def __init__(self, files: List[FileFacts]):
        #: every linted file, by path
        self.files = files
        #: module -> facts; of two files mapping to one module, the
        #: lexically-first path wins (never the case for real trees)
        self.facts: Dict[str, FileFacts] = {}
        for record in sorted(files, key=lambda f: (f.module, f.path)):
            self.facts.setdefault(record.module, record)
        #: fid -> function facts dict (same shape as FileFacts.functions values)
        self.functions: Dict[str, Dict[str, Any]] = {}
        #: cid -> class record with ``resolved_bases`` added
        self.classes: Dict[str, Dict[str, Any]] = {}
        for module, facts in self.facts.items():
            for qual, fn in facts.functions.items():
                self.functions[f"{module}:{qual}"] = fn
            for name, cls in facts.classes.items():
                self.classes[f"{module}:{name}"] = dict(cls)
        self._resolve_bases()
        #: cids whose ancestry reaches an automaton root, across modules
        self.automaton_classes: Set[str] = self._automaton_closure()
        #: fid -> [(call_fact, target_fid or None)]
        self.call_edges: Dict[str, List[Tuple[Dict[str, Any], Optional[str]]]] = {}
        for fid in sorted(self.functions):
            self.call_edges[fid] = [
                (call, self._target_for_call(fid, call["callee"]))
                for call in self.functions[fid].get("calls", [])
            ]

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def resolve(
        self,
        module: str,
        dotted: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[Resolution]:
        """What ``dotted`` names inside ``module``.

        Returns ``("function", fid)``, ``("class", cid)``,
        ``("module", modname)``, ``("external", dotted)`` for names leaving
        the linted file set, or ``None`` for unresolvable locals/builtins.
        """
        facts = self.facts.get(module)
        if facts is None:
            return ("external", dotted)
        if _seen is None:
            _seen = set()
        if (module, dotted) in _seen:
            return None  # import cycle: give up on this chain
        _seen.add((module, dotted))

        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]

        if not rest:
            if head in facts.functions and head != MODULE_SCOPE:
                return ("function", f"{module}:{head}")
            if head in facts.classes:
                return ("class", f"{module}:{head}")
        elif head in facts.classes and len(rest) == 1:
            qual = f"{head}.{rest[0]}"
            if qual in facts.functions:
                return ("function", f"{module}:{qual}")
            # Inherited method: look up the hierarchy.
            hit = self.mro_lookup(f"{module}:{head}", rest[0])
            if hit is not None:
                return ("function", hit)

        if head in facts.from_imports:
            src_mod, orig = facts.from_imports[head]
            target = ".".join([src_mod, orig] + rest)
            return self.resolve_qualified(target, _seen)
        if head in facts.module_imports:
            target = ".".join([facts.module_imports[head]] + rest)
            return self.resolve_qualified(target, _seen)
        if head in facts.bindings:
            target = ".".join([facts.bindings[head]] + rest)
            return self.resolve(module, target, _seen)
        return None

    def resolve_qualified(
        self,
        full: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[Resolution]:
        """Resolve an absolute dotted path against the linted module set."""
        parts = full.split(".")
        for i in range(len(parts), 0, -1):
            modname = ".".join(parts[:i])
            if modname in self.facts:
                rest = parts[i:]
                if not rest:
                    return ("module", modname)
                res = self.resolve(modname, ".".join(rest), _seen)
                if res is not None:
                    return res
                # The anchor module doesn't define the name — typically a
                # package __init__ linted without the submodule that does.
                # Keep shortening; the rooted name is still meaningful as
                # an external (SweepTask/CHA-root recognition needs it).
        return ("external", full)

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------

    def _resolve_bases(self) -> None:
        for cid in sorted(self.classes):
            self.classes[cid]["resolved_bases"] = [
                self.resolve(module_of(cid), base) or ("unresolved", base)
                for base in self.classes[cid]["bases"]
            ]

    @staticmethod
    def _is_root_base(kind: str, ident: str) -> bool:
        """Does a base outside the linted classes name an automaton root?
        An external one must live in an automaton home package; one that no
        import binds is taken at its word."""
        head, _, leaf = ident.rpartition(".")
        if leaf not in AUTOMATON_ROOTS:
            return False
        if kind == "unresolved":
            return True
        return (
            kind == "external" and bool(head) and in_packages(head, AUTOMATON_HOMES)
        )

    def _automaton_closure(self) -> Set[str]:
        """Every class id whose ancestry reaches ``Automaton``/``Process``."""
        memo: Dict[str, bool] = {}

        def reaches(cid: str, stack: Set[str]) -> bool:
            if cid in memo:
                return memo[cid]
            if cid in stack:
                return False  # inheritance cycle in broken input
            stack.add(cid)
            module, name = cid.split(":", 1)
            found = name in AUTOMATON_ROOTS and in_packages(module, AUTOMATON_HOMES)
            for kind, ident in self.classes[cid]["resolved_bases"]:
                if found:
                    break
                if kind == "class":
                    found = reaches(ident, stack)
                else:
                    found = self._is_root_base(kind, ident)
            stack.discard(cid)
            memo[cid] = found
            return found

        return {cid for cid in sorted(self.classes) if reaches(cid, set())}

    def mro_lookup(
        self, cid: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """The fid implementing ``method`` for class ``cid`` (DFS over bases)."""
        if _seen is None:
            _seen = set()
        if cid in _seen or cid not in self.classes:
            return None
        _seen.add(cid)
        module, name = cid.split(":", 1)
        fid = f"{module}:{name}.{method}"
        if fid in self.functions:
            return fid
        for kind, ident in self.classes[cid].get("resolved_bases", []):
            if kind == "class":
                hit = self.mro_lookup(ident, method, _seen)
                if hit is not None:
                    return hit
        return None

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------

    def _target_for_call(self, fid: str, callee: str) -> Optional[str]:
        module, qual = fid.split(":", 1)
        if callee.startswith("self.") or callee.startswith("cls."):
            if "." not in qual:
                return None
            cls_name = qual.split(".", 1)[0]
            method = callee.split(".", 1)[1]
            if "." in method:
                return None  # self.attr.m(): untyped, give up
            return self.mro_lookup(f"{module}:{cls_name}", method)
        res = self.resolve(module, callee)
        if res is None:
            return None
        kind, ident = res
        if kind == "function":
            return ident
        if kind == "class":
            return self.mro_lookup(ident, "__init__")
        return None

    # ------------------------------------------------------------------
    # Harness entry points
    # ------------------------------------------------------------------

    def sweep_entry_points(self) -> Dict[str, Dict[str, Any]]:
        """Store-keyed / forked worker roots: ``{fid: registration site}``.

        A root is (a) the ``fn`` argument of any ``SweepTask(...)``
        construction, or (b) an ``exp<N>*`` experiment runner in
        ``repro.harness.experiments`` (the CLI dispatches to those by name,
        and each one feeds ``SweepTask``/``run_sweep``).
        """
        roots: Dict[str, Dict[str, Any]] = {}
        for fid in sorted(self.functions):
            module = module_of(fid)
            for call, _target in self.call_edges[fid]:
                res = self.resolve(module, call["callee"])
                if not is_sweep_task_ctor(res):
                    continue
                shapes = list(call.get("args", []))
                kwargs = call.get("kwargs", {})
                fn_shape = kwargs.get("fn") or (shapes[0] if shapes else None)
                if not fn_shape or "name" not in fn_shape:
                    continue
                fn_res = self.resolve(module, fn_shape["name"])
                if fn_res and fn_res[0] == "function":
                    roots.setdefault(
                        fn_res[1],
                        self.hop(
                            f"{module}:{MODULE_SCOPE}",
                            call,
                            note=f"registered as a SweepTask fn in {module}",
                        ),
                    )
        for module in sorted(self.facts):
            if module != "repro.harness.experiments":
                continue
            for qual in sorted(self.facts[module].functions):
                leaf = qual.rsplit(".", 1)[-1]
                if leaf.startswith("exp") and len(leaf) > 3 and leaf[3].isdigit():
                    fn = self.facts[module].functions[qual]
                    roots.setdefault(
                        f"{module}:{qual}",
                        self.hop(
                            f"{module}:{qual}",
                            {"line": fn.get("line", 1), "snippet": ""},
                            note=f"experiment entry point {module}.{qual}",
                        ),
                    )
        return roots

    def hop(self, fid: str, site: Dict[str, Any], note: str = "") -> Dict[str, Any]:
        """One evidence-chain hop anchored in ``fid``'s file."""
        module = fid.split(":", 1)[0]
        facts = self.facts.get(module)
        return {
            "path": facts.path if facts else module,
            "module": module,
            "function": fid.split(":", 1)[1],
            "line": site.get("line", 1),
            "snippet": site.get("snippet", ""),
            "note": note or site.get("detail", ""),
        }


def build_project(facts: Iterable[FileFacts]) -> Project:
    """The project graph over every file's facts, in path order."""
    return Project(sorted(facts, key=lambda f: f.path))
