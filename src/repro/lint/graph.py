"""Project-level analysis: module graph, symbol tables, best-effort call graph.

The per-module rules (RL001–RL005) see one file at a time; the invariants
the async/serve era leans on — "nothing reachable from the event loop
blocks", "every registered event kind is emitted *and* certified" — are
properties of the *program*.  This module builds the whole-program view
the RL1xx/RL2xx/RL3xx families consume, once per lint run:

* a **module table** keyed by dotted module name (``src/repro/x/y.py`` →
  ``repro.x.y``), so ``from repro.obs.events import StrategySwitch``
  resolves to the class definition in another scanned file;
* per-class **symbol tables**: methods, resolved base classes, and
  best-effort attribute types gathered from annotations (dataclass
  fields, ``self.x: T = ...``) and from ``self.x = <inferable expr>``
  assignments;
* a **call graph**: every call site in every function resolved to the
  project functions (or external dotted paths) it may reach.  Resolution
  is annotation-driven — parameter/return annotations, constructor
  calls, and container element types (``Deque[SessionHandle]`` →
  ``popleft()`` yields ``SessionHandle``) — with *virtual dispatch*:
  a call through a base class or Protocol fans out to every override in
  the scanned tree;
* a **blocking-closure** analysis: which sync functions transitively
  reach a blocking primitive (``subprocess.*``, ``time.sleep``, file and
  socket I/O, process-pool spin-up), with a witness chain for
  diagnostics.  RL101 reads this to flag event-loop hazards.

Known unsoundness, by design (documented in ``docs/STATIC_ANALYSIS.md``):
the graph covers the scanned files only, resolves types best-effort (an
unannotated local of unknown type contributes no edges), and treats
string/``Optional``/``Union`` annotations by their first project-resolvable
member.  The rules built on it are therefore *linters*, not verifiers —
they trade completeness for zero-false-setup cost, like the rest of
reprolint.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.context import ModuleContext
from repro.lint.dataflow import own_statements
from repro.lint.index import NodeIndex

# --------------------------------------------------------------------------
# Type references
# --------------------------------------------------------------------------
#
# A best-effort static type is a plain string:
#   "C:<dotted class qual>"   instance of a project class
#   "SEQ:<inner>"             sequence/deque/iterable of <inner>
#   "PATH"                    pathlib.Path instance
#   "HANDLE"                  an open file object (from open()/Path.open())
# Anything unresolvable is None.

_CONTAINER_HEADS = frozenset(
    {
        "List", "Deque", "Sequence", "MutableSequence", "Iterable",
        "Iterator", "Set", "FrozenSet", "Tuple", "list", "deque", "set",
        "frozenset", "tuple",
    }
)
_OPTIONAL_HEADS = frozenset({"Optional", "Union"})

#: Methods on a SEQ:<inner> value that yield one <inner> element.
_SEQ_ELEMENT_METHODS = frozenset({"pop", "popleft", "__getitem__"})

#: Methods on an open file handle (all blocking I/O).
HANDLE_METHODS = frozenset(
    {
        "write", "writelines", "read", "readline", "readlines", "flush",
        "close", "seek", "truncate",
    }
)

#: pathlib.Path methods that hit the filesystem with real work.
PATH_BLOCKING_METHODS = frozenset(
    {
        "open", "read_text", "read_bytes", "write_text", "write_bytes",
        "mkdir", "rmdir", "unlink", "touch", "rename", "replace",
        "symlink_to", "hardlink_to",
    }
)


def module_name_for_path(path: str) -> str:
    """The dotted module name a file would import as, best-effort.

    Files under a ``src`` directory get their package-relative name
    (``src/repro/serve/engine.py`` → ``repro.serve.engine``); everything
    else uses its path components (``tests/serve/test_engine.py`` →
    ``tests.serve.test_engine``), which is unique enough for intra-project
    resolution — only the ``src`` tree is imported by dotted name.
    """
    normalized = os.path.normpath(path)
    parts = [p for p in normalized.split(os.sep) if p not in ("", ".", "..")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    # Windows drive letters / hidden dirs contribute odd components;
    # strip characters that can never appear in an import path.
    return ".".join(p.lstrip(".") for p in parts if p.lstrip("."))


# --------------------------------------------------------------------------
# Symbols
# --------------------------------------------------------------------------


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qual: str
    module: "ProjectModule"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qual: Optional[str] = None
    #: Call sites in this function's own body (nested defs excluded).
    calls: List["CallSite"] = field(default_factory=list)
    #: Blocking witness: (description, chain of quals ending at the
    #: primitive's owner), or None when no blocking path is known.
    blocking: Optional[Tuple[str, Tuple[str, ...]]] = None

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class definition plus its resolved structure."""

    qual: str
    module: "ProjectModule"
    node: ast.ClassDef
    base_refs: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call: where it is and what it may invoke.

    ``targets`` holds project function quals; ``external`` holds dotted
    paths outside the project (stdlib and third-party); ``primitive``
    carries a blocking-primitive description when the call *itself* is
    one (file-handle write, ``Path.write_text``, ...).
    """

    node: ast.Call
    targets: Tuple[str, ...]
    external: Tuple[str, ...]
    primitive: Optional[str]
    awaited: bool


@dataclass
class ProjectModule:
    """One scanned file with its lint context and tree kind."""

    path: str
    name: str
    kind: str
    context: ModuleContext


class Project:
    """The whole-program view: modules, symbols, call graph.

    Built once per lint run from every successfully parsed module; rules
    receive the same instance, so all project analyses share one symbol
    table and one call-graph fixed point.
    """

    def __init__(self, modules: Sequence[ProjectModule]) -> None:
        self.modules: Dict[str, ProjectModule] = {}
        self.by_path: Dict[str, ProjectModule] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        #: Scratch space for rules that amortize a project-wide scan
        #: (e.g. the event-contract family's registry collection).
        self.analysis_cache: Dict[str, object] = {}
        self._call_index: Optional[Dict[str, List[Tuple[ProjectModule, ast.Call]]]] = None
        self._module_refs: Optional[Dict[str, Set[str]]] = None
        for mod in modules:
            # First registration wins on (rare) dotted-name collisions.
            self.modules.setdefault(mod.name, mod)
            self.by_path[mod.path] = mod
        for mod in self.modules.values():
            self._collect_symbols(mod)
        self._resolve_bases()
        for cls in self.classes.values():
            self._collect_attr_types(cls)
        for info in list(self.functions.values()):
            self._collect_calls(info)
        self._propagate_blocking()

    # -- phase 1: symbols ------------------------------------------------

    def _collect_symbols(self, mod: ProjectModule) -> None:
        for node in mod.context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(mod, node, None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{mod.name}.{node.name}"
                info = ClassInfo(qual=qual, module=mod, node=node)
                for base in node.bases:
                    ref = self._annotation_ref(mod, base)
                    if ref is not None:
                        info.base_refs.append(ref)
                self.classes[qual] = info
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._register_function(mod, item, qual)
                        info.methods[item.name] = fn

    def _register_function(
        self,
        mod: ProjectModule,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_qual: Optional[str],
    ) -> FunctionInfo:
        if class_qual is None:
            qual = f"{mod.name}.{node.name}"
        else:
            qual = f"{class_qual}.{node.name}"
        info = FunctionInfo(
            qual=qual, module=mod, node=node, class_qual=class_qual
        )
        self.functions.setdefault(qual, info)
        # Nested defs become addressable functions too (closures used as
        # helpers/callbacks), namespaced under their parent; of two
        # same-named ones, the first in ast.walk order wins.
        index = mod.context.index
        nested: List[ast.FunctionDef | ast.AsyncFunctionDef] = [
            *index.within(node, ast.FunctionDef),
            *index.within(node, ast.AsyncFunctionDef),
        ]
        for child in index.walk_order(nested):
            if child is not node:
                nested_qual = f"{qual}.<locals>.{child.name}"
                if nested_qual not in self.functions:
                    self.functions[nested_qual] = FunctionInfo(
                        qual=nested_qual,
                        module=mod,
                        node=child,
                        class_qual=class_qual,
                    )
        return self.functions[qual]

    def _resolve_bases(self) -> None:
        for qual, info in self.classes.items():
            for ref in info.base_refs:
                base_qual = self._class_qual_for_ref(info.module, ref)
                if base_qual is not None:
                    self._subclasses.setdefault(base_qual, set()).add(qual)

    # -- references ------------------------------------------------------

    def _annotation_ref(
        self, mod: ProjectModule, node: ast.expr
    ) -> Optional[str]:
        """A dotted reference for a base/annotation expression, if any."""
        if isinstance(node, ast.Subscript):
            return self._annotation_ref(mod, node.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self._annotation_ref(mod, parsed)
        parts: List[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = mod.context.imports.get(cursor.id)
        if root is None:
            # Same-module class or builtin.
            if cursor.id in mod.context.class_bases:
                root = f"{mod.name}.{cursor.id}"
            else:
                root = cursor.id
        parts.append(root)
        return ".".join(reversed(parts))

    def _class_qual_for_ref(
        self, mod: ProjectModule, ref: str
    ) -> Optional[str]:
        """Map a dotted reference to a project class qual, if it is one."""
        if ref in self.classes:
            return ref
        # ``from x import C`` gives ``x.C``; the class lives in module x.
        return ref if ref in self.classes else None

    def subclasses_of(self, qual: str) -> Set[str]:
        """All transitive subclasses of ``qual`` in the project."""
        seen: Set[str] = set()
        stack = list(self._subclasses.get(qual, ()))
        while stack:
            child = stack.pop()
            if child in seen:
                continue
            seen.add(child)
            stack.extend(self._subclasses.get(child, ()))
        return seen

    def lookup_method(self, class_qual: str, name: str) -> Optional[FunctionInfo]:
        """Resolve ``name`` through ``class_qual``'s project MRO (BFS)."""
        queue = [class_qual]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            for ref in info.base_refs:
                base = self._class_qual_for_ref(info.module, ref)
                if base is not None:
                    queue.append(base)
        return None

    def attr_type(self, class_qual: str, name: str) -> Optional[str]:
        """The declared/inferred type of ``class_qual``'s attribute."""
        queue = [class_qual]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.attr_types:
                return info.attr_types[name]
            for ref in info.base_refs:
                base = self._class_qual_for_ref(info.module, ref)
                if base is not None:
                    queue.append(base)
        return None

    # -- phase 2: types --------------------------------------------------

    def _type_from_annotation(
        self, mod: ProjectModule, node: Optional[ast.expr]
    ) -> Optional[str]:
        """Best-effort typeref for an annotation expression."""
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, str):
                return None
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self._type_from_annotation(mod, parsed)
        if isinstance(node, ast.Subscript):
            head = self._annotation_head(node.value)
            if head in _OPTIONAL_HEADS:
                for arg in self._subscript_args(node):
                    inner = self._type_from_annotation(mod, arg)
                    if inner is not None:
                        return inner
                return None
            if head in _CONTAINER_HEADS:
                args = self._subscript_args(node)
                if args:
                    inner = self._type_from_annotation(mod, args[0])
                    if inner is not None:
                        return f"SEQ:{inner}"
                return None
            return self._type_from_annotation(mod, node.value)
        ref = self._annotation_ref(mod, node)
        if ref is None:
            return None
        return self._type_for_ref(mod, ref)

    def _type_for_ref(self, mod: ProjectModule, ref: str) -> Optional[str]:
        if ref in ("pathlib.Path", "Path", "pathlib.PurePath"):
            return "PATH"
        if ref in self.classes:
            return f"C:{ref}"
        # Module-level type aliases: ``TracerLike = Union[None, Tracer]``.
        alias = self._alias_target(ref)
        if alias is not None:
            return alias
        return None

    def _alias_target(self, ref: str) -> Optional[str]:
        """Resolve a module-level ``Name = <annotation>`` alias, one hop."""
        module_name, _, alias_name = ref.rpartition(".")
        mod = self.modules.get(module_name)
        if mod is None:
            return None
        for node in mod.context.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == alias_name
            ):
                value = node.value
                if isinstance(value, ast.Subscript):
                    head = self._annotation_head(value.value)
                    if head in _OPTIONAL_HEADS:
                        for arg in self._subscript_args(value):
                            ref2 = self._annotation_ref(mod, arg)
                            if ref2 is None:
                                continue
                            inner = self._type_for_ref(mod, ref2)
                            if inner is not None:
                                return inner
        return None

    @staticmethod
    def _annotation_head(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    @staticmethod
    def _subscript_args(node: ast.Subscript) -> List[ast.expr]:
        inner = node.slice
        if isinstance(inner, ast.Tuple):
            return list(inner.elts)
        return [inner]

    def _collect_attr_types(self, cls: ClassInfo) -> None:
        """Fill one class's attribute-type table (annotation-first)."""
        mod = cls.module
        # Dataclass fields / class-level annotations.
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                if is_classvar(mod.context.index, item.annotation):
                    continue
                typeref = self._type_from_annotation(mod, item.annotation)
                if typeref is not None:
                    cls.attr_types.setdefault(item.target.id, typeref)
        # ``self.x = ...`` in method bodies (nested defs included),
        # annotation or inference; the first in ast.walk order wins.
        index = mod.context.index
        for fn in cls.methods.values():
            env = self._seed_env(mod, fn)
            assigns: List[ast.AnnAssign | ast.Assign] = [
                *index.within(fn.node, ast.AnnAssign),
                *index.within(fn.node, ast.Assign),
            ]
            for stmt in index.walk_order(assigns):
                if isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        typeref = self._type_from_annotation(
                            mod, stmt.annotation
                        )
                        if typeref is not None:
                            cls.attr_types.setdefault(target.attr, typeref)
                else:
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            typeref = self._infer_expr(
                                mod, env, stmt.value, cls.qual
                            )
                            if typeref is not None:
                                cls.attr_types.setdefault(target.attr, typeref)

    def _seed_env(
        self, mod: ProjectModule, fn: FunctionInfo
    ) -> Dict[str, str]:
        """Parameter types for ``fn`` from its annotations."""
        env: Dict[str, str] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            typeref = self._type_from_annotation(mod, arg.annotation)
            if typeref is not None:
                env[arg.arg] = typeref
        if fn.class_qual is not None and (args.posonlyargs or args.args):
            first = (args.posonlyargs or args.args)[0].arg
            env.setdefault(first, f"C:{fn.class_qual}")
        return env

    # -- expression inference --------------------------------------------

    def _infer_expr(
        self,
        mod: ProjectModule,
        env: Dict[str, str],
        node: ast.expr,
        self_class: Optional[str],
    ) -> Optional[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Await):
            return self._infer_expr(mod, env, node.value, self_class)
        if isinstance(node, ast.IfExp):
            return self._infer_expr(
                mod, env, node.body, self_class
            ) or self._infer_expr(mod, env, node.orelse, self_class)
        if isinstance(node, ast.Attribute):
            base = self._infer_expr(mod, env, node.value, self_class)
            if base is not None and base.startswith("C:"):
                return self.attr_type(base[2:], node.attr)
            return None
        if isinstance(node, ast.Subscript):
            base = self._infer_expr(mod, env, node.value, self_class)
            if base is not None and base.startswith("SEQ:"):
                return base[len("SEQ:"):]
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(mod, env, node, self_class)
        return None

    def _infer_call(
        self,
        mod: ProjectModule,
        env: Dict[str, str],
        node: ast.Call,
        self_class: Optional[str],
    ) -> Optional[str]:
        func = node.func
        # Dotted path rooted in an import / builtin name.
        dotted = self._dotted_target(mod, func)
        if dotted is not None:
            if dotted in ("open", "io.open"):
                return "HANDLE"
            if dotted in ("pathlib.Path", "Path"):
                return "PATH"
            if dotted in self.classes:
                return f"C:{dotted}"
            fn = self.functions.get(dotted)
            if fn is not None:
                return self._type_from_annotation(fn.module, fn.node.returns)
        if isinstance(func, ast.Name):
            # Same-module class / function by bare name.
            local = f"{mod.name}.{func.id}"
            if local in self.classes:
                return f"C:{local}"
            fn = self.functions.get(local)
            if fn is not None:
                return self._type_from_annotation(fn.module, fn.node.returns)
        if isinstance(func, ast.Attribute):
            receiver = self._infer_expr(mod, env, func.value, self_class)
            if receiver == "PATH" and func.attr == "open":
                return "HANDLE"
            if receiver is not None and receiver.startswith("SEQ:"):
                if func.attr in _SEQ_ELEMENT_METHODS:
                    return receiver[len("SEQ:"):]
                return None
            if receiver is not None and receiver.startswith("C:"):
                method = self.lookup_method(receiver[2:], func.attr)
                if method is not None:
                    return self._type_from_annotation(
                        method.module, method.node.returns
                    )
        return None

    def _dotted_target(
        self, mod: ProjectModule, func: ast.expr
    ) -> Optional[str]:
        """Resolve a name/attribute chain through the import table."""
        resolved = mod.context.resolve_call(func)
        if resolved is not None:
            return resolved
        if isinstance(func, ast.Name) and func.id == "open":
            return "open"
        return None

    # -- phase 3: call sites ---------------------------------------------

    def _collect_calls(self, info: FunctionInfo) -> None:
        mod = info.module
        env = self._seed_env(mod, info)
        self_class = info.class_qual
        index = mod.context.index
        # Statement-ordered pass over the function's own body, updating
        # the local type environment as assignments bind names.  Within
        # a statement, sites are recorded right to left: the first
        # blocking site is the witness _propagate_blocking reports.
        for stmt, _depth in own_statements(info.node):
            calls = [
                node
                for node in index.statement_nodes(stmt)
                if isinstance(node, ast.Call)
            ]
            for node in index.right_to_left(calls):
                site = self._resolve_call_site(mod, env, info, node, self_class)
                if site is not None:
                    info.calls.append(site)
            # Update env after scanning the statement (the RHS of an
            # assignment is evaluated with the pre-assignment env).
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    typeref = self._infer_expr(
                        mod, env, stmt.value, self_class
                    )
                    if typeref is not None:
                        env[target.id] = typeref
                    else:
                        env.pop(target.id, None)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                typeref = self._type_from_annotation(mod, stmt.annotation)
                if typeref is not None:
                    env[stmt.target.id] = typeref
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name):
                        typeref = self._infer_expr(
                            mod, env, item.context_expr, self_class
                        )
                        if typeref is not None:
                            env[item.optional_vars.id] = typeref

    def _resolve_call_site(
        self,
        mod: ProjectModule,
        env: Dict[str, str],
        info: FunctionInfo,
        node: ast.Call,
        self_class: Optional[str],
    ) -> Optional[CallSite]:
        targets: List[str] = []
        external: List[str] = []
        primitive: Optional[str] = None
        func = node.func

        dotted = self._dotted_target(mod, func)
        if dotted is not None:
            if dotted in self.classes:
                init = self.lookup_method(dotted, "__init__")
                if init is not None:
                    targets.append(init.qual)
                primitive = _class_primitive(dotted)
            elif dotted in self.functions:
                targets.append(dotted)
            else:
                external.append(dotted)
        elif isinstance(func, ast.Name):
            local_fn = self._local_callable(mod, info, func.id)
            if local_fn is not None:
                targets.append(local_fn)
            else:
                local_cls = f"{mod.name}.{func.id}"
                if local_cls in self.classes:
                    init = self.lookup_method(local_cls, "__init__")
                    if init is not None:
                        targets.append(init.qual)
                    primitive = _class_primitive(local_cls)
        elif isinstance(func, ast.Attribute):
            receiver = self._infer_expr(mod, env, func.value, self_class)
            if receiver == "HANDLE" and func.attr in HANDLE_METHODS:
                primitive = f"file-handle .{func.attr}()"
            elif receiver == "PATH" and func.attr in PATH_BLOCKING_METHODS:
                primitive = f"pathlib.Path.{func.attr}"
            elif receiver is not None and receiver.startswith("C:"):
                class_qual = receiver[2:]
                method = self.lookup_method(class_qual, func.attr)
                if method is not None:
                    targets.append(method.qual)
                # Virtual dispatch: every override in the subclass tree.
                for sub in sorted(self.subclasses_of(class_qual)):
                    override = self.classes[sub].methods.get(func.attr)
                    if override is not None:
                        targets.append(override.qual)

        awaited = False  # filled by callers that track parents; see below
        if not targets and not external and primitive is None:
            return None
        return CallSite(
            node=node,
            targets=tuple(dict.fromkeys(targets)),
            external=tuple(external),
            primitive=primitive,
            awaited=awaited,
        )

    def _local_callable(
        self, mod: ProjectModule, info: FunctionInfo, name: str
    ) -> Optional[str]:
        """A bare-name callable: nested def, then module-level function."""
        nested = f"{info.qual}.<locals>.{name}"
        if nested in self.functions:
            return nested
        top = f"{mod.name}.{name}"
        if top in self.functions:
            return top
        return None

    # -- phase 4: blocking closure ---------------------------------------

    def _propagate_blocking(self) -> None:
        """Fixed point: which functions reach a blocking primitive.

        Async functions are *not* propagated through — awaiting an async
        function that blocks is that function's own finding (RL101 reports
        inside it), so each hazard is reported exactly once, at the point
        where blocking work enters async context.
        """
        # Seed: functions whose own body performs a primitive.
        for info in self.functions.values():
            for site in info.calls:
                desc = site.primitive or _external_primitive(site.external)
                if desc is not None:
                    info.blocking = (desc, (info.qual,))
                    break
        changed = True
        while changed:
            changed = False
            for info in self.functions.values():
                if info.blocking is not None:
                    continue
                for site in info.calls:
                    for target in site.targets:
                        callee = self.functions.get(target)
                        if (
                            callee is not None
                            and not callee.is_async
                            and callee.blocking is not None
                        ):
                            desc, chain = callee.blocking
                            info.blocking = (desc, (info.qual, *chain))
                            changed = True
                            break
                    if info.blocking is not None:
                        break

    # -- queries ----------------------------------------------------------

    def blocking_reason_for_site(
        self, site: CallSite
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """Why one call site blocks: (primitive description, chain)."""
        if site.primitive is not None:
            return site.primitive, ()
        desc = _external_primitive(site.external)
        if desc is not None:
            return desc, ()
        for target in site.targets:
            callee = self.functions.get(target)
            if (
                callee is not None
                and not callee.is_async
                and callee.blocking is not None
            ):
                return callee.blocking[0], callee.blocking[1]
        return None

    def async_functions(self) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.is_async:
                yield info

    def call_index(self) -> Dict[str, List[Tuple[ProjectModule, ast.Call]]]:
        """Every call site in the project keyed by its dotted target.

        Read off every module's node index, built lazily and shared by
        every project rule that needs "who constructs/calls X anywhere".
        Bare ``Name`` calls that resolve to nothing imported are keyed as
        ``<module>.<name>`` (same-module references).
        """
        if self._call_index is None:
            index: Dict[str, List[Tuple[ProjectModule, ast.Call]]] = {}
            for mod in self.modules.values():
                for node in mod.context.index.of_type(ast.Call):
                    dotted = mod.context.resolve_call(node.func)
                    if dotted is None and isinstance(node.func, ast.Name):
                        dotted = f"{mod.name}.{node.func.id}"
                    if dotted is not None:
                        index.setdefault(dotted, []).append((mod, node))
            self._call_index = index
        return self._call_index

    def name_references(self, module_name: str) -> Set[str]:
        """All identifiers a module references: Name loads + attribute names.

        Built lazily per module from its node index, for "does consumer
        X mention class Y at all" queries.
        """
        if self._module_refs is None:
            self._module_refs = {}
        refs = self._module_refs.get(module_name)
        if refs is None:
            refs = set()
            mod = self.modules.get(module_name)
            if mod is not None:
                index = mod.context.index
                refs.update(
                    node.id
                    for node in index.of_type(ast.Name)
                    if isinstance(node.ctx, ast.Load)
                )
                refs.update(node.attr for node in index.of_type(ast.Attribute))
            self._module_refs[module_name] = refs
        return refs


def is_classvar(index: NodeIndex, annotation: ast.expr) -> bool:
    """Whether an annotation mentions ``ClassVar`` (a class, not an
    instance, attribute)."""
    return any(
        node.id == "ClassVar" for node in index.within(annotation, ast.Name)
    ) or any(
        node.attr == "ClassVar" for node in index.within(annotation, ast.Attribute)
    )


# --------------------------------------------------------------------------
# Blocking primitives
# --------------------------------------------------------------------------

#: Dotted prefixes that block the calling thread wholesale.
_BLOCKING_PREFIXES: Tuple[str, ...] = (
    "subprocess.",
    "socket.",
    "shutil.",
    "urllib.request.",
    "http.client.",
    "multiprocessing.",
)

#: Exact dotted calls that block.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "open",
        "io.open",
        "input",
        "select.select",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
    }
)

#: Project classes whose construction spins up real OS resources.
_SPINUP_CLASS_SUFFIXES: Tuple[str, ...] = (".ProcessExecutor",)


def _external_primitive(external: Sequence[str]) -> Optional[str]:
    for dotted in external:
        if dotted in _BLOCKING_CALLS:
            return dotted
        for prefix in _BLOCKING_PREFIXES:
            if dotted.startswith(prefix):
                return dotted
    return None


def _class_primitive(class_qual: str) -> Optional[str]:
    for suffix in _SPINUP_CLASS_SUFFIXES:
        if class_qual.endswith(suffix):
            return f"{class_qual} pool spin-up"
    return None


def build_project(
    entries: Sequence[Tuple[str, str, ModuleContext]],
) -> Project:
    """Build the project view from ``(path, kind, context)`` triples."""
    modules = [
        ProjectModule(
            path=path,
            name=module_name_for_path(path),
            kind=kind,
            context=context,
        )
        for path, kind, context in entries
    ]
    return Project(modules)


__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "HANDLE_METHODS",
    "PATH_BLOCKING_METHODS",
    "Project",
    "ProjectModule",
    "build_project",
    "is_classvar",
    "module_name_for_path",
]
