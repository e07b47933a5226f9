"""The floor under the whole-program analyses (``repro.check.flow``).

:mod:`~repro.check.arch`, :mod:`~repro.check.costflow`,
:mod:`~repro.check.conc` and :mod:`~repro.check.durflow` each state
*rules*; everything they would otherwise each carry a copy of lives
here, in three parts:

1. **How a tree becomes a** :class:`Program` (:func:`load_program`):
   walk the package, read and ``ast.parse`` every file exactly once,
   index modules/classes/functions, link the class hierarchy, type
   attributes and module-level singletons from annotations and
   constructor assignments, and record every function's typed call
   edges and call sites.  This is the only place a call is typed:
   :meth:`Program.typed_call` hands the analyses each call's receiver
   classes and callees, and :meth:`Program.call_key` its ``(family,
   method)`` (:data:`FAMILIES`), the key of an analysis' call table.
   ``lint`` builds one ``Program`` and hands it to every analysis; an
   analysis run alone builds its own.
2. **How a function body is walked** — the one dataflow engine under
   conc and durflow.  A :class:`State` is a lattice element whose
   fields each join by a row of a table; a :class:`Context` collects
   one walk's exits and facts and then *is* the function's summary;
   the :class:`Walker` does block sequencing, exit collection, ``if``
   fork-and-join, loops and ``try``, and drives the summaries (walk,
   join the exits, apply the exit rules; memoised, with a recursion
   guard).  An analysis supplies its lattice, its transfer over its
   call tables and its rules, and overrides a *method* where its
   soundness idealisation differs.
3. **How an analysis finishes**: :class:`Findings` →
   :meth:`Report.finish` (waivers, waiver hygiene, sort),
   :class:`EdgeGraph` (the edge store under the lock and order
   graphs), :func:`write_graph`, :func:`run_cli`; plus the graph
   helpers every analysis needs (:func:`sccs` / :func:`cycles` /
   :func:`unwaived_cycles`, :func:`reach` / :func:`chain`).

The resolver is deliberately *typed-or-nothing*: an unannotated,
uninferrable receiver contributes no call edge rather than a guessed
one, so every reported chain is a chain that exists in the code.
Virtual dispatch over-approximates: a call through a base class
reaches every override.
"""

from __future__ import annotations

import ast
import functools
import json
import os
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import (
    Callable, ClassVar, Dict, FrozenSet, Iterable, Iterator, List,
    NamedTuple, Optional, Sequence, Set, Tuple, Type,
)

from repro.check.waivers import WaiverSet, scan_waivers


@dataclass
class Violation:
    """One finding of the purity lint or of a whole-program analysis."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


# ======================================================================
# 1. Tree -> Program
# ======================================================================
def repo_root() -> str:
    """The ``src/repro`` package directory the checkers defend."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def walk_tree(root: str) -> Iterator[Tuple[str, str]]:
    """``(full path, '/'-separated path relative to root)`` of every
    ``.py`` file under ``root``, in sorted order."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                yield full, os.path.relpath(full, root).replace(os.sep, "/")


def module_name(rel: str, package: str) -> str:
    """Dotted module name of ``rel`` (path relative to the package dir)."""
    parts = rel[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts])


@dataclass
class SourceFile:
    """One parsed source file of an analyzed tree."""

    path: str  # full path: the ``path`` of every finding in this file
    rel: str  # relative to the package directory
    module: str  # dotted module name
    source: bytes
    tree: ast.Module


def read_source(path: str, rel: str, package: str = "repro") -> SourceFile:
    """Read and parse one file — the only place the checkers call
    ``ast.parse`` on a source file."""
    with open(path, "rb") as fh:
        source = fh.read()
    return SourceFile(
        path, rel, module_name(rel, package), source,
        ast.parse(source, filename=path),
    )


def load_sources(root: str, package: str = "repro") -> List[SourceFile]:
    return [read_source(full, rel, package) for full, rel in walk_tree(root)]


def is_exempt(module: str, prefixes: Sequence[str]) -> bool:
    """Is ``module`` one of the dotted ``prefixes`` or inside one?"""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class CallSite(NamedTuple):
    """One typed call site, for the analyses' sink/source tables."""

    line: int
    name: str  # method or function name
    rendered: str  # the callee expression as written, ``a.b.c()``
    #: bare class names the receiver may have; empty for a call of a
    #: resolved module-level function
    receivers: FrozenSet[str]


class TypedCall(NamedTuple):
    """What the call graph knows of one call expression."""

    receivers: FrozenSet[str]  # bare class names of a method's receiver
    callees: Tuple["FuncInfo", ...]


@dataclass
class FuncInfo:
    """One analyzed function or method."""

    key: str  # "module:qualname"
    module: str
    qualname: str
    path: str
    line: int
    node: ast.AST
    class_key: Optional[str] = None  # owning class, if a method
    returns: Optional[ast.expr] = None
    #: Call edges out of this function (callee keys).
    calls: Set[str] = field(default_factory=set)
    #: Typed call sites, in source order.
    sites: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    key: str  # "module.Class"
    module: str
    name: str
    base_exprs: List[ast.expr] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)  # resolved keys
    methods: Dict[str, FuncInfo] = field(default_factory=dict)
    #: attribute -> annotation expr (class body + self.x: T sites)
    attr_ann: Dict[str, ast.expr] = field(default_factory=dict)
    #: attribute -> assigned expr (self.x = <expr> sites, first wins)
    attr_expr: Dict[str, Tuple[ast.expr, str]] = field(default_factory=dict)
    #: resolved attribute types (class keys); filled by the analysis
    attr_types: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: resolved element types for container attributes
    attr_elems: Dict[str, FrozenSet[str]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    #: local name -> full dotted target ("repro.core.tree.BeTree" or module)
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)  # by bare name
    functions: Dict[str, FuncInfo] = field(default_factory=dict)  # by bare name
    #: module-level singletons: name -> constructor class keys
    global_types: Dict[str, FrozenSet[str]] = field(default_factory=dict)


EMPTY: FrozenSet[str] = frozenset()
_UNTYPED = TypedCall(EMPTY, ())

#: ``(class keys, element class keys)`` of an expression or annotation.
Typed = Tuple[FrozenSet[str], FrozenSet[str]]

#: Containers whose subscript/iteration yields the first type argument.
_SEQ_NAMES = {"List", "list", "Sequence", "Iterable", "Iterator", "Tuple", "tuple", "Set", "set", "FrozenSet", "frozenset"}
#: Mappings whose iteration yields keys; ``.values()`` yields the value
#: type — too fine-grained for this pass, so mappings contribute nothing.
_WRAPPER_NAMES = {"Optional", "Final", "ClassVar", "Annotated"}

#: Receiver families in precedence order: a method call belongs to the
#: first family its receiver may be an instance of.  Each is anchored
#: at root class names whose transitive subclass closure is computed
#: from the program under analysis, so fixture trees only need classes
#: *named* like these.  An analysis' call table is keyed by
#: :meth:`Program.call_key`'s ``(family, method)``.
FAMILIES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("env", ("KVEnv", "ShardedEnv")),
    ("wal", ("WriteAheadLog",)),
    ("tree", ("BeTree",)),
    ("south", ("Southbound",)),
    ("journal", ("Journal",)),
    ("device", ("BlockDevice",)),
)


class Program:
    """The whole-tree index plus the type/call resolution machinery."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.files: List[SourceFile] = []
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FuncInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}  # by key "module.Class"
        self.subclasses: Dict[str, Set[str]] = {}  # key -> transitive subs
        self._typed: Dict[ast.Call, TypedCall] = {}

    def typed_call(self, call: ast.Call) -> TypedCall:
        """``call``'s receiver class names and callees, as typed when
        the call graph was built (nothing, outside a function body)."""
        return self._typed.get(call, _UNTYPED)

    def waivers(self, tool: str) -> WaiverSet:
        """A fresh set of ``tool``'s inline waivers over the tree."""
        out = WaiverSet(tool=tool)
        for src in self.files:
            # Tokenizing costs more than parsing and almost no file
            # carries a waiver: scan only files that can match.
            if b"allow[" in src.source:
                scan_waivers(src.path, src.source, tool, out)
        return out

    @functools.cached_property
    def families(self) -> List[Tuple[str, FrozenSet[str]]]:
        """Each of :data:`FAMILIES` with the bare names of its roots and
        of every class in the transitive subclass closure of a class
        named like one of them."""
        out = []
        for family, roots in FAMILIES:
            subs = {
                sub
                for key, cls in self.classes.items()
                if cls.name in roots
                for sub in self.subclasses[key]
            }
            out.append((family, frozenset(roots) | {self.classes[k].name for k in subs}))
        return out

    def family(self, receivers: FrozenSet[str]) -> Optional[str]:
        """The first family of :data:`FAMILIES` a receiver may be in."""
        for family, names in self.families:
            if receivers & names:
                return family
        return None

    def call_key(self, call: ast.Call) -> Optional[Tuple[Optional[str], str]]:
        """``(family, method)`` of a typed method call, ``(None, name)``
        of a call of a bare function name, and None for a method call
        whose receiver is in no family."""
        f = call.func
        if isinstance(f, ast.Name):
            return (None, f.id)
        if isinstance(f, ast.Attribute):
            family = self.family(self.typed_call(call).receivers)
            if family is not None:
                return (family, f.attr)
        return None

    def functions_in_order(self) -> List[FuncInfo]:
        """Every function, by (path, line): the order analyses visit
        them in, so first-witness evidence is deterministic."""
        return sorted(self.functions.values(), key=lambda f: (f.path, f.line))

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def index_module(self, src: SourceFile) -> None:
        mod = ModuleInfo(name=src.module, path=src.path, tree=src.tree)
        self.files.append(src)
        self.modules[mod.name] = mod
        for stmt in src.tree.body:
            self._index_stmt(mod, stmt)

    def _index_stmt(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0 and stmt.module:
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(mod, stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(mod, stmt, None)
        elif isinstance(stmt, ast.If):
            # Module-level guards (TYPE_CHECKING, version checks).
            for sub in stmt.body + stmt.orelse:
                self._index_stmt(mod, sub)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Call):
                mod.global_types[target.id] = EMPTY  # see type_globals

    def _index_function(
        self, mod: ModuleInfo, node: ast.AST, cls: Optional[ClassInfo]
    ) -> None:
        qualname = f"{cls.name}.{node.name}" if cls else node.name
        info = FuncInfo(
            key=f"{mod.name}:{qualname}",
            module=mod.name,
            qualname=qualname,
            path=mod.path,
            line=node.lineno,
            node=node,
            class_key=cls.key if cls else None,
            returns=node.returns,
        )
        (cls.methods if cls else mod.functions)[node.name] = info
        self.functions[info.key] = info

    def _index_class(self, mod: ModuleInfo, stmt: ast.ClassDef) -> None:
        cls = ClassInfo(
            key=f"{mod.name}.{stmt.name}",
            module=mod.name,
            name=stmt.name,
            base_exprs=list(stmt.bases),
        )
        mod.classes[stmt.name] = cls
        self.classes[cls.key] = cls
        for member in stmt.body:
            if isinstance(member, ast.AnnAssign) and isinstance(
                member.target, ast.Name
            ):
                cls.attr_ann[member.target.id] = member.annotation
            elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, member, cls)
                # @property return annotations type the attribute.
                for dec in member.decorator_list:
                    if isinstance(dec, ast.Name) and dec.id == "property":
                        if member.returns is not None:
                            cls.attr_ann.setdefault(member.name, member.returns)
                # self.x: T / self.x = expr sites inside the method.
                for sub in ast.walk(member):
                    if (
                        isinstance(sub, ast.AnnAssign)
                        and isinstance(sub.target, ast.Attribute)
                        and isinstance(sub.target.value, ast.Name)
                        and sub.target.value.id == "self"
                    ):
                        cls.attr_ann.setdefault(sub.target.attr, sub.annotation)
                    elif isinstance(sub, ast.Assign):
                        for tgt in sub.targets:
                            if (
                                isinstance(tgt, ast.Attribute)
                                and isinstance(tgt.value, ast.Name)
                                and tgt.value.id == "self"
                            ):
                                cls.attr_expr.setdefault(
                                    tgt.attr, (sub.value, member.name)
                                )

    # ------------------------------------------------------------------
    # Name/annotation resolution
    # ------------------------------------------------------------------
    def _import_targets(self, mod: ModuleInfo, name: str) -> Iterator[str]:
        """Dotted names an imported ``name`` may denote in ``mod``: its
        import target, then — ``from repro.storage import
        SimpleFileLayer`` may go through a package ``__init__``
        re-export — one level of indirection."""
        target = mod.imports.get(name)
        if target is not None:
            yield target
            base, _, attr = target.rpartition(".")
            init = self.modules.get(base)
            if init is not None and attr in init.imports:
                yield init.imports[attr]

    def resolve_class_name(self, mod: ModuleInfo, name: str) -> Optional[str]:
        """Class key for a bare identifier in ``mod``'s namespace."""
        if name in mod.classes:
            return mod.classes[name].key
        for target in self._import_targets(mod, name):
            if target in self.classes:
                return target
        return None

    def ann_types(self, mod: ModuleInfo, ann: Optional[ast.expr]) -> Typed:
        """``(direct class keys, element class keys)`` of an annotation."""
        if ann is None:
            return EMPTY, EMPTY
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return EMPTY, EMPTY
        if isinstance(ann, ast.Name):
            key = self.resolve_class_name(mod, ann.id)
            return (frozenset({key}) if key else EMPTY), EMPTY
        if isinstance(ann, ast.Attribute):
            # mod_alias.Class
            if isinstance(ann.value, ast.Name):
                target = mod.imports.get(ann.value.id)
                if target is not None:
                    key = f"{target}.{ann.attr}"
                    if key in self.classes:
                        return frozenset({key}), EMPTY
            return EMPTY, EMPTY
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left_d, left_e = self.ann_types(mod, ann.left)
            right_d, right_e = self.ann_types(mod, ann.right)
            return left_d | right_d, left_e | right_e
        if isinstance(ann, ast.Subscript):
            head = ann.value
            head_name = (
                head.id
                if isinstance(head, ast.Name)
                else head.attr
                if isinstance(head, ast.Attribute)
                else None
            )
            inner = ann.slice
            args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            if head_name in _WRAPPER_NAMES or head_name == "Union":
                direct: FrozenSet[str] = EMPTY
                elems: FrozenSet[str] = EMPTY
                for arg in args:
                    d, e = self.ann_types(mod, arg)
                    direct, elems = direct | d, elems | e
                return direct, elems
            if head_name in _SEQ_NAMES:
                elems = EMPTY
                for arg in args:
                    d, _ = self.ann_types(mod, arg)
                    elems = elems | d
                return EMPTY, elems
        return EMPTY, EMPTY

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def link_hierarchy(self) -> None:
        for cls in self.classes.values():
            mod = self.modules[cls.module]
            for expr in cls.base_exprs:
                if isinstance(expr, ast.Name):
                    key = self.resolve_class_name(mod, expr.id)
                    if key:
                        cls.bases.append(key)
        direct_subs: Dict[str, Set[str]] = {}
        for cls in self.classes.values():
            for base in cls.bases:
                direct_subs.setdefault(base, set()).add(cls.key)
        # Transitive closure (a cyclic hierarchy must not list itself).
        for key in self.classes:
            subs = reach(direct_subs.get(key, ()), lambda k: direct_subs.get(k, ()))
            self.subclasses[key] = set(subs) - {key}

    def _mro(self, class_key: str) -> Iterator[ClassInfo]:
        """The indexed classes among ``class_key`` and its bases,
        breadth-first."""
        seen: Set[str] = set()
        queue = [class_key]
        while queue:
            key = queue.pop(0)
            cls = self.classes.get(key)
            if key not in seen and cls is not None:
                seen.add(key)
                yield cls
                queue.extend(cls.bases)

    def mro_method(self, class_key: str, name: str) -> Optional[FuncInfo]:
        for cls in self._mro(class_key):
            if name in cls.methods:
                return cls.methods[name]
        return None

    def dispatch(self, class_key: str, name: str) -> List[FuncInfo]:
        """MRO hit plus every subclass override (virtual dispatch)."""
        out: Dict[str, FuncInfo] = {}
        hit = self.mro_method(class_key, name)
        if hit is not None:
            out[hit.key] = hit
        for sub in self.subclasses.get(class_key, ()):  # over-approximate
            sub_cls = self.classes.get(sub)
            if sub_cls is not None and name in sub_cls.methods:
                out[sub_cls.methods[name].key] = sub_cls.methods[name]
        return list(out.values())

    # ------------------------------------------------------------------
    # Attribute typing (two rounds so chains like env.storage resolve)
    # ------------------------------------------------------------------
    def type_attributes(self) -> None:
        for _round in range(2):
            for cls in self.classes.values():
                mod = self.modules[cls.module]
                for attr, ann in cls.attr_ann.items():
                    direct, elems = self.ann_types(mod, ann)
                    if direct:
                        cls.attr_types[attr] = direct
                    if elems:
                        cls.attr_elems[attr] = elems
                for attr, (expr, method_name) in cls.attr_expr.items():
                    if attr in cls.attr_types:
                        continue
                    owner = cls.methods.get(method_name)
                    if owner is None:
                        continue
                    direct, elems = self.eval(expr, owner, self.param_env(owner))
                    if direct:
                        cls.attr_types[attr] = direct
                    if elems:
                        cls.attr_elems[attr] = elems

    def type_globals(self) -> None:
        """Module-level singletons (``DEFAULT_COSTS = CostModel()`` and
        friends), evaluated with full class knowledge."""
        for mod in self.modules.values():
            pseudo = FuncInfo(
                key=f"{mod.name}:<module>", module=mod.name,
                qualname="<module>", path=mod.path, line=0, node=mod.tree,
            )
            for stmt in mod.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)
                ):
                    direct, _ = self.eval(stmt.value, pseudo, {})
                    if direct:
                        mod.global_types[stmt.targets[0].id] = frozenset(
                            k.removeprefix("type:") for k in direct
                        )

    def attr_lookup(self, class_key: str, attr: str) -> Typed:
        for cls in self._mro(class_key):
            if attr in cls.attr_types or attr in cls.attr_elems:
                return (
                    cls.attr_types.get(attr, EMPTY),
                    cls.attr_elems.get(attr, EMPTY),
                )
        return EMPTY, EMPTY

    # ------------------------------------------------------------------
    # Expression typing
    # ------------------------------------------------------------------
    def param_env(self, func: FuncInfo) -> Dict[str, Typed]:
        """The local type environment a function starts with."""
        mod = self.modules[func.module]
        env: Dict[str, Typed] = {}
        args = getattr(func.node, "args", None)
        if args is None:
            return env
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            direct, elems = self.ann_types(mod, arg.annotation)
            if direct or elems:
                env[arg.arg] = (direct, elems)
        if func.class_key is not None and all_args:
            first = all_args[0].arg
            if first in ("self", "cls"):
                env[first] = (frozenset({func.class_key}), EMPTY)
        return env

    def eval(self, expr: ast.expr, func: FuncInfo, env: Dict[str, Typed]) -> Typed:
        """Best-effort ``(class keys, element class keys)`` of ``expr``."""
        mod = self.modules[func.module]
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            key = self.resolve_class_name(mod, expr.id)
            if key:  # the class object itself: constructor via Call
                return frozenset({f"type:{key}"}), EMPTY
            if expr.id in mod.global_types and mod.global_types[expr.id]:
                return mod.global_types[expr.id], EMPTY
            return EMPTY, EMPTY
        if isinstance(expr, ast.Attribute):
            base_direct, _ = self.eval(expr.value, func, env)
            direct: FrozenSet[str] = EMPTY
            elems: FrozenSet[str] = EMPTY
            for key in base_direct:
                if key.startswith("type:"):
                    continue
                d, e = self.attr_lookup(key, expr.attr)
                direct, elems = direct | d, elems | e
            return direct, elems
        if isinstance(expr, ast.Call):
            callees = self.resolve_call(expr, func, env)
            direct = EMPTY
            elems = EMPTY
            for callee in callees:
                if callee.qualname.endswith("__init__") and callee.class_key:
                    direct = direct | frozenset({callee.class_key})
                elif callee.returns is not None:
                    d, e = self.ann_types(
                        self.modules[callee.module], callee.returns
                    )
                    direct, elems = direct | d, elems | e
            # Constructor of an indexed class without __init__ of its own.
            f = expr.func
            name = f.id if isinstance(f, ast.Name) else None
            if name is not None:
                key = self.resolve_class_name(mod, name)
                if key:
                    direct = direct | frozenset({key})
            return direct, elems
        if isinstance(expr, ast.Subscript):
            _, elems = self.eval(expr.value, func, env)
            return elems, EMPTY
        if isinstance(expr, ast.Await):
            return self.eval(expr.value, func, env)
        if isinstance(expr, (ast.IfExp,)):
            a = self.eval(expr.body, func, env)
            b = self.eval(expr.orelse, func, env)
            return a[0] | b[0], a[1] | b[1]
        return EMPTY, EMPTY

    def bind(self, stmt: ast.stmt, func: FuncInfo, env: Dict[str, Typed]) -> None:
        """Types flow forward: refine ``env`` by one binding statement —
        an assignment to a name, ``with ... as name`` or a ``for``
        target.  An untypable value leaves the old binding in place."""
        bound: List[Tuple[ast.expr, Typed]] = []
        if isinstance(stmt, ast.Assign):
            value_t = self.eval(stmt.value, func, env)
            bound = [(tgt, value_t) for tgt in stmt.targets]
        elif isinstance(stmt, ast.AnnAssign):
            mod = self.modules[func.module]
            bound = [(stmt.target, self.ann_types(mod, stmt.annotation))]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            bound = [
                (item.optional_vars, self.eval(item.context_expr, func, env))
                for item in stmt.items
            ]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            _, elems = self.eval(stmt.iter, func, env)
            bound = [(stmt.target, (elems, EMPTY))]
        for target, typed in bound:
            if isinstance(target, ast.Name) and (typed[0] or typed[1]):
                env[target.id] = typed

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, call: ast.Call, func: FuncInfo, env: Dict[str, Typed]
    ) -> List[FuncInfo]:
        mod = self.modules[func.module]
        f = call.func
        if isinstance(f, ast.Name):
            # Local function, imported function, or constructor.
            if f.id in mod.functions:
                return [mod.functions[f.id]]
            key = self.resolve_class_name(mod, f.id)
            if key is not None:
                hit = self.mro_method(key, "__init__")
                return [hit] if hit else []
            for target in self._import_targets(mod, f.id):
                base, _, attr = target.rpartition(".")
                target_mod = self.modules.get(base)
                if target_mod is not None and attr in target_mod.functions:
                    return [target_mod.functions[attr]]
            return []
        if isinstance(f, ast.Attribute):
            # super().meth()
            if (
                isinstance(f.value, ast.Call)
                and isinstance(f.value.func, ast.Name)
                and f.value.func.id == "super"
                and func.class_key is not None
            ):
                cls = self.classes.get(func.class_key)
                out = []
                for base in cls.bases if cls else []:
                    hit = self.mro_method(base, f.attr)
                    if hit:
                        out.append(hit)
                return out
            # module alias: serialize.decode_node(...)
            if isinstance(f.value, ast.Name):
                target = mod.imports.get(f.value.id)
                if target is not None and target in self.modules:
                    target_mod = self.modules[target]
                    if f.attr in target_mod.functions:
                        return [target_mod.functions[f.attr]]
            receiver, _ = self.eval(f.value, func, env)
            out_by_key: Dict[str, FuncInfo] = {}
            for key in receiver:
                for info in self.dispatch(key.removeprefix("type:"), f.attr):
                    out_by_key[info.key] = info
            return list(out_by_key.values())
        return []


class _CallWalker(ast.NodeVisitor):
    """One function body: types flow forward through assignments, every
    call is typed once (:meth:`Program.typed_call`), and every
    resolvable call becomes an edge and a :class:`CallSite`."""

    def __init__(self, program: Program, func: FuncInfo) -> None:
        self.program = program
        self.func = func
        self.env = program.param_env(func)

    # -- bindings refine the local environment --------------------------
    def visit_Assign(self, node: ast.stmt) -> None:
        self.generic_visit(node)
        self.program.bind(node, self.func, self.env)

    visit_AnnAssign = visit_Assign

    def visit_For(self, node: ast.stmt) -> None:
        self.program.bind(node, self.func, self.env)
        self.generic_visit(node)  # the body sees the loop variable

    visit_With = visit_For

    # Nested defs and lambdas stay attributed to the enclosing function
    # (``generic_visit`` descends into them).

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        prog, func, f = self.program, self.func, node.func
        callees = prog.resolve_call(node, func, self.env)
        names = EMPTY
        if isinstance(f, ast.Attribute):
            receiver, _ = prog.eval(f.value, func, self.env)
            # ``type:`` keys are the class object itself (classmethod call).
            keys = (key.removeprefix("type:") for key in receiver)
            names = frozenset(prog.classes[k].name for k in keys if k in prog.classes)
        prog._typed[node] = TypedCall(names, tuple(callees))
        func.calls.update(callee.key for callee in callees)
        if names:
            rendered = ast.unparse(f) + "()"
            func.sites.append(CallSite(node.lineno, f.attr, rendered, names))
        elif isinstance(f, ast.Name) and callees:
            func.sites.append(CallSite(node.lineno, f.id, f"{f.id}()", EMPTY))


def load_program(root: Optional[str] = None, package: str = "repro") -> Program:
    """Parse and index the tree under ``root`` (default: the installed
    ``repro`` package) — everything the analyses share, done once."""
    program = Program(package)
    for src in load_sources(root or repo_root(), package):
        program.index_module(src)
    program.link_hierarchy()
    program.type_attributes()
    program.type_globals()
    for func in program.functions.values():
        walker = _CallWalker(program, func)
        for stmt in func.node.body:
            walker.visit(stmt)
    return program


# ======================================================================
# Graph helpers
# ======================================================================
def sccs(
    nodes: Iterable[str], succ: Callable[[str], Iterable[str]]
) -> List[List[str]]:
    """Strongly connected components (iterative Tarjan: recursion depth
    would scale with the graph).  Deterministic: roots and successors
    are visited in sorted order, each component is sorted, and
    components come out callees-first (reverse topological order)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    out: List[List[str]] = []

    def push(v: str) -> Tuple[str, Iterator[str]]:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        return v, iter(sorted(succ(v)))

    for root in sorted(nodes):
        if root in index:
            continue
        work = [push(root)]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in index:
                    work.append(push(w))
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(sorted(comp))
    return out


def cycles(
    nodes: Iterable[str], succ: Callable[[str], Iterable[str]]
) -> List[List[str]]:
    """The components that contain a cycle — more than one member, or
    one member with a self-edge — sorted."""
    return sorted(
        comp
        for comp in sccs(nodes, succ)
        if len(comp) > 1 or comp[0] in succ(comp[0])
    )


def unwaived_cycles(
    nodes: Iterable[str],
    edges: Sequence,
    waivers: WaiverSet,
    waivable: Callable[[object], bool] = lambda edge: True,
) -> List[Tuple[List[str], list]]:
    """Cycles of the graph of ``edges`` whose ``waived_reason`` is None,
    each with its in-cycle edges (in ``edges`` order).

    A waiver on *any* waivable in-cycle edge breaks that edge out of
    the graph; components are recomputed until no waiver applies, and
    the survivors are returned.  Edges carry ``src``, ``dst``,
    ``path``, ``line`` and ``waived_reason``."""
    nodes = list(nodes)
    while True:
        graph: Dict[str, List[str]] = {}
        for e in edges:
            if e.waived_reason is None:
                graph.setdefault(e.src, []).append(e.dst)
        found = [
            (comp, [
                e for e in edges
                if e.waived_reason is None and e.src in comp and e.dst in comp
            ])
            for comp in cycles(nodes, lambda n: graph.get(n, ()))
        ]
        consumed = False
        for _comp, inside in found:
            for e in inside:
                waiver = waivers.consume(e.path, e.line) if waivable(e) else None
                if waiver is not None:
                    e.waived_reason = waiver.reason
                    consumed = True
        if not consumed:
            return found


def reach(
    entries: Iterable[str], succ: Callable[[str], Iterable[str]]
) -> Dict[str, Optional[str]]:
    """Breadth-first closure of ``entries`` under ``succ``, as a
    ``{node: parent}`` map (entries map to ``None``) so that
    :func:`chain` yields a shortest witness path."""
    parent: Dict[str, Optional[str]] = {e: None for e in sorted(entries)}
    queue = deque(parent)
    while queue:
        node = queue.popleft()
        for nxt in sorted(succ(node)):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return parent


def chain(parent: Dict[str, Optional[str]], node: Optional[str]) -> List[str]:
    """``node``, its parent, ... back to the entry that reached it."""
    out: List[str] = []
    while node is not None:
        out.append(node)
        node = parent[node]
    return out


# ======================================================================
# 2. Walking one function body
# ======================================================================
class State:
    """An abstract state at one program point: named fields, each joined
    where paths meet by its row of :attr:`JOIN`.

    A subclass declares ``__slots__``, :attr:`JOIN`, :attr:`DEFAULT`
    (each field's value at a function's entry) and, if the lattice has
    one, the :attr:`UNIT` of its join (fields that differ from
    :attr:`DEFAULT`).  Every join is idempotent, commutative and
    associative, so :meth:`copy` is the self-join — and a new state
    self-joins the values it starts from, so no two states share a
    mutable field."""

    __slots__ = ()
    JOIN: ClassVar[Dict[str, Callable[[object, object], object]]] = {}
    DEFAULT: ClassVar[Dict[str, object]] = {}
    UNIT: ClassVar[Optional[Dict[str, object]]] = None

    def __init__(self, **fields: object) -> None:
        for name, join in self.JOIN.items():
            value = fields.get(name, self.DEFAULT[name])
            setattr(self, name, join(value, value))

    def merge(self, other: "State") -> "State":
        new = object.__new__(type(self))
        for name, join in self.JOIN.items():
            setattr(new, name, join(getattr(self, name), getattr(other, name)))
        return new

    def copy(self) -> "State":
        return self.merge(self)


class Context:
    """One walk of a function body, and afterwards that function's
    summary.  The walk collects ``(state, line)`` at every non-exception
    exit in :attr:`exits`; the driver then sets :attr:`exit` to their
    join.  An analysis subclasses it to collect the facts its summaries
    carry beyond the exit state."""

    #: the join of the exit states, once the body has been walked
    exit: Optional[State] = None

    def __init__(self, func: FuncInfo, node: ast.AST, qual: str) -> None:
        self.func = func
        self.qual = qual  # display qualname (includes <locals> nesting)
        self.key = f"{func.module}:{qual}"
        args = node.args
        #: parameter name -> its ``ast.arg``
        self.params: Dict[str, ast.arg] = {
            a.arg: a
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if a is not None
        }
        self.exits: List[Tuple[State, int]] = []


class Walker:
    """Structural forward abstract interpretation of function bodies.

    An analysis supplies its lattice (:attr:`STATE`), its per-function
    :meth:`context`, :meth:`transfer` (the effect of one statement's own
    expressions), :meth:`exec_for`, its :meth:`exit_rules` and
    :meth:`recursion_summary`.  A state of ``None`` means "this path
    does not fall through".  The two soundness idealisations analyses
    disagree on are methods with a conservative default:
    :meth:`loop_exit` and :meth:`join_handlers`."""

    STATE: ClassVar[Type[State]]

    def __init__(self, program: Program) -> None:
        self.program = program
        self._summaries: Dict[str, Context] = {}
        self._active: Set[str] = set()

    # -- memoised per-function summaries --------------------------------
    def summary(
        self, func: FuncInfo, node: Optional[ast.AST] = None, qual: Optional[str] = None
    ) -> Context:
        """The summary of ``func`` (or of ``node``, a def nested in it,
        named ``qual``), computed once per key: build the context, walk
        the body, join the exit states, apply :meth:`exit_rules`.  A
        call that re-enters a function still being walked gets an
        unwalked context completed by :meth:`recursion_summary` instead
        of recursing forever."""
        qual = func.qualname if qual is None else qual
        key = f"{func.module}:{qual}"
        if key in self._summaries:
            return self._summaries[key]
        node = func.node if node is None else node
        ctx = self.context(func, node, qual)
        if key in self._active:
            self.recursion_summary(ctx)
            return ctx
        self._active.add(key)
        out = self.exec_block(node.body, self.STATE(), ctx)
        if out is not None:
            ctx.exits.append((out, node.body[-1].lineno))
        ctx.exit = self.join_all(state for state, _line in ctx.exits)
        self.exit_rules(ctx)
        self._summaries[key] = ctx
        self._active.discard(key)
        return ctx

    def context(self, func: FuncInfo, node: ast.AST, qual: str) -> Context:
        """A fresh context (the analysis' :class:`Context` subclass) for
        one walk of ``node``."""
        raise NotImplementedError

    def join_all(self, states: Iterable[Optional[State]]) -> Optional[State]:
        """The join of ``states``; with none (every path raises), the
        lattice's unit, or ``None`` ("no path") if it names none."""
        unit = None if self.STATE.UNIT is None else self.STATE(**self.STATE.UNIT)
        return functools.reduce(self.join, states, unit)

    def exit_rules(self, ctx: Context) -> None:
        """The analysis' rules over a walked function's exits."""
        raise NotImplementedError

    def recursion_summary(self, ctx: Context) -> None:
        """Complete the summary of a call that re-enters its function."""
        raise NotImplementedError

    # -- statements -----------------------------------------------------
    def exec_block(self, stmts: List[ast.stmt], state, ctx):
        for stmt in stmts:
            state = self.exec_stmt(stmt, state, ctx)
            if state is None:
                return None
        return state

    def exec_stmt(self, stmt: ast.stmt, state, ctx):
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self.exec_for(stmt, state, ctx)
        if isinstance(stmt, ast.Try):
            return self.exec_try(stmt, state, ctx)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None
        self.transfer(stmt, state, ctx)
        if isinstance(stmt, ast.Return):
            ctx.exits.append((state, stmt.lineno))
            return None
        if isinstance(stmt, ast.Raise):
            return None
        if isinstance(stmt, ast.If):
            return self.exec_if(stmt, state, ctx)
        if isinstance(stmt, ast.While):
            return self.exec_while(stmt, state, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.exec_block(stmt.body, state, ctx)
        return state  # simple statements and nested defs: transfer only

    def transfer(self, stmt: ast.stmt, state, ctx) -> None:
        """Apply the effect of ``stmt``'s own expressions to ``state`` in
        place: a simple statement, a nested def, or the header — never
        the body — of ``if`` / ``while`` / ``with``."""
        raise NotImplementedError

    @staticmethod
    def join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a.merge(b)

    def fork_if(self, stmt: ast.If, state, ctx) -> tuple:
        return (
            self.exec_block(stmt.body, state.copy(), ctx),
            self.exec_block(stmt.orelse, state.copy(), ctx),
        )

    def exec_if(self, stmt: ast.If, state, ctx):
        return self.join(*self.fork_if(stmt, state, ctx))

    def exec_for(self, stmt, state, ctx):
        """Bind the loop variable, run the body, apply :meth:`loop_exit`."""
        raise NotImplementedError

    def exec_while(self, stmt: ast.While, state, ctx):
        return self.loop_exit(state, self.exec_block(stmt.body, state.copy(), ctx))

    def loop_exit(self, entry, out):
        """State after a loop whose body maps ``entry`` to ``out``: the
        loop may run zero times, so the entry state joins in."""
        return entry if out is None else entry.merge(out)

    def exec_try(self, stmt: ast.Try, state, ctx):
        out = self.exec_block(stmt.body, state.copy(), ctx)
        if stmt.orelse and out is not None:
            out = self.exec_block(stmt.orelse, out, ctx)
        out = self.join_handlers(
            out, [self.exec_block(h.body, state.copy(), ctx) for h in stmt.handlers]
        )
        if stmt.finalbody:
            fin = self.exec_block(
                stmt.finalbody, state.copy() if out is None else out, ctx
            )
            return None if out is None else fin
        return out

    def join_handlers(self, out, handled: list):
        """State after ``try``/``except``: any handler that falls
        through joins the body's state."""
        for state in handled:
            out = self.join(out, state)
        return out


# ======================================================================
# 3. Finishing an analysis
# ======================================================================
class Findings:
    """Finding accumulator deduplicated on (path, line, rule); waivers
    are applied when the analysis finishes."""

    def __init__(self) -> None:
        self.items: List[Violation] = []
        self._seen: Set[Tuple[str, int, str]] = set()

    def add(self, path: str, line: int, rule: str, message: str) -> None:
        key = (path, line, rule)
        if key not in self._seen:
            self._seen.add(key)
            self.items.append(Violation(path, line, rule, message))


@dataclass
class Report:
    """What every analysis reports: findings that survived the waivers,
    and the waivers that were used (printed on every run).  A subclass
    adds its counters and declares the analysis' name and wording."""

    violations: List[Violation] = field(default_factory=list)
    waivers: List[str] = field(default_factory=list)  # used, rendered

    TOOL: ClassVar[str]  # subcommand and waiver-comment name
    ABOUT: ClassVar[str]  # one-line ``--help`` description
    NOUN: ClassVar[str]  # "<n> <NOUN> violation(s)"
    WHY: ClassVar[str]  # what a waiver must justify: "say *why* <WHY>"
    #: attribute holding the graph ``--graph-out`` archives, if any
    GRAPH: ClassVar[Optional[str]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def finish(self, findings: Findings, waivers: WaiverSet) -> None:
        """Apply ``waivers`` to ``findings`` by (path, line), then the
        hygiene rules — a waiver must say why and must suppress
        something — and sort."""
        found = [
            v for v in findings.items if waivers.consume(v.path, v.line) is None
        ]
        for waiver in waivers.all():
            if not waiver.reason.strip():
                message = (
                    f"{self.TOOL} waiver has an empty justification — "
                    f"say *why* {self.WHY}"
                )
            elif not waiver.used:
                message = (
                    f"{self.TOOL} waiver allow[{waiver.reason}] suppresses "
                    "nothing — delete it (dead waivers mask future "
                    "violations)"
                )
            else:
                continue
            found.append(
                Violation(waiver.path, waiver.line, "unused-waiver", message)
            )
        self.violations = sorted(found, key=lambda v: (v.path, v.line, v.rule))
        self.waivers = [w.render() for w in waivers.used()]

    def to_dict(self) -> Dict[str, object]:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "waivers": list(self.waivers),
        }

    def stats(self) -> Dict[str, int]:
        """The counters ``lint --format json`` reports for this pass."""
        raise NotImplementedError

    def summary(self) -> str:
        """The counters of the one-line clean-run summary."""
        raise NotImplementedError


@dataclass
class Edge:
    """One witnessed edge of an analysis graph."""

    src: str
    dst: str
    path: str
    line: int
    func: str  # the function that witnessed it

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class EdgeGraph:
    """The edge store under an analysis graph: edges deduplicated by a
    key (the first witness wins), listed by (src, dst, path, line).  A
    subclass adds its nodes, its ``covers`` rule and its dot rendering."""

    edges: List[Edge] = field(default_factory=list)
    _seen: Set[tuple] = field(default_factory=set)

    def add(self, key: tuple, edge: Edge) -> None:
        if key not in self._seen:
            self._seen.add(key)
            self.edges.append(edge)

    def sorted_edges(self) -> List[Edge]:
        return sorted(self.edges, key=lambda e: (e.src, e.dst, e.path, e.line))


def write_graph(graph, prefix: str) -> List[str]:
    """Write ``graph.to_dict()`` to ``prefix.json`` and ``graph.to_dot()``
    to ``prefix.dot``; returns the paths."""
    json_path, dot_path = f"{prefix}.json", f"{prefix}.dot"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(graph.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(graph.to_dot())
    return [json_path, dot_path]


def emit(
    fmt: str,
    payload: Dict[str, object],
    waivers: Sequence[str],
    violations: Sequence[Violation],
    failed: str,
    clean: str,
) -> int:
    """Print one run's outcome as JSON or text; returns the exit code
    (nonzero on any violation)."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if violations else 0
    for rendered in waivers:
        print(f"waived: {rendered}")
    for violation in violations:
        print(violation.render())
    print(f"{len(violations)} {failed}" if violations else clean)
    return 1 if violations else 0


def run_cli(
    kind: Type[Report],
    analyze: Callable[[], Report],
    argv: Optional[Sequence[str]],
) -> int:
    """``python -m repro.check <tool>`` for the analysis that reports a
    ``kind``: ``--format``, and ``--graph-out`` if it has a graph."""
    import argparse

    parser = argparse.ArgumentParser(
        prog=f"python -m repro.check {kind.TOOL}", description=kind.ABOUT
    )
    if kind.GRAPH is not None:
        parser.add_argument("--graph-out", help="write PREFIX.json + PREFIX.dot")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    args = parser.parse_args(argv)
    report = analyze()
    if kind.GRAPH is not None and args.graph_out:
        for path in write_graph(getattr(report, kind.GRAPH), args.graph_out):
            print(f"wrote {path}")
    return emit(
        args.fmt,
        report.to_dict(),
        report.waivers,
        report.violations,
        f"{kind.NOUN} violation(s)",
        f"repro.check {kind.TOOL}: clean ({report.summary()}, "
        f"{len(report.waivers)} waiver(s))",
    )
