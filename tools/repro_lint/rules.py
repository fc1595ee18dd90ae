"""Per-file AST checkers: REP001, REP003, REP004, REP005, REP006, REP009, REP010.

All checkers are lexical approximations chosen to have near-zero false
positives on idiomatic engine code; genuinely intentional violations are
expected to carry a justified ``# repro-lint: disable=`` comment.
"""

from __future__ import annotations

import ast
import re

from . import config
from .core import Finding, SourceFile, register_rule

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNC_NODES + (ast.Lambda, ast.ClassDef)


def _attr_chain(node: ast.AST) -> str:
    """Dotted-name string for Name/Attribute chains, '' otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ==========================================================================
# REP001 — lock discipline
# ==========================================================================

def _is_self_lock_acquire(expr: ast.AST, locks: set[str]) -> bool:
    if isinstance(expr, ast.Attribute) and expr.attr in locks:
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return True
    if isinstance(expr, ast.Call):
        return _is_self_lock_acquire(expr.func, locks)
    return False


def _class_uses_lock(cls: ast.ClassDef, locks: set[str]) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and node.attr in locks:
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return True
    return False


def _walk_locked(node: ast.AST, locked: bool, is_acquire, on_access) -> None:
    """Visit ``node`` tracking whether a guarding lock is lexically held.

    Does not descend into nested function/class scopes: a closure may run
    after the lock is released, so it cannot inherit the guard.
    """
    if isinstance(node, (ast.With, ast.AsyncWith)):
        acquires = any(is_acquire(item.context_expr) for item in node.items)
        for item in node.items:
            _walk_locked(item.context_expr, locked, is_acquire, on_access)
            if item.optional_vars is not None:
                _walk_locked(item.optional_vars, locked, is_acquire, on_access)
        for stmt in node.body:
            _walk_locked(stmt, locked or acquires, is_acquire, on_access)
        return
    if isinstance(node, _SCOPE_NODES):
        return
    on_access(node, locked)
    for child in ast.iter_child_nodes(node):
        _walk_locked(child, locked, is_acquire, on_access)


def _func_acquires(func: ast.AST, is_acquire) -> bool:
    found = False

    def visit(node):
        nonlocal found
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(is_acquire(item.context_expr) for item in node.items):
                found = True
        if isinstance(node, _SCOPE_NODES) and node is not func:
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(func)
    return found


def _check_guarded_class(sf: SourceFile, cls: ast.ClassDef, spec: dict) -> list[Finding]:
    locks, attrs = spec["locks"], spec["attrs"]
    if not _class_uses_lock(cls, locks):
        # lock-free by design (e.g. _LRU): discipline enforced at the owner.
        return []
    findings: list[Finding] = []
    is_acquire = lambda e: _is_self_lock_acquire(e, locks)  # noqa: E731
    for func in cls.body:
        if not isinstance(func, _FUNC_NODES):
            continue
        if func.name in {"__init__", "__del__"}:
            continue
        acquires = _func_acquires(func, is_acquire)
        if not acquires and func.name.startswith("_") and not func.name.startswith("__"):
            # private caller-holds-lock helper; callers are checked instead
            continue
        seen: set[tuple[int, str]] = set()

        def on_access(node, locked, _func=func, _seen=seen):
            if locked or not isinstance(node, ast.Attribute):
                return
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                return
            if node.attr not in attrs:
                return
            key = (node.lineno, node.attr)
            if key in _seen:
                return
            _seen.add(key)
            findings.append(
                Finding(
                    "REP001",
                    f"{cls.name}.{_func.name} touches guarded attribute "
                    f"'self.{node.attr}' outside 'with self.{sorted(locks)[0]}'",
                    sf.path,
                    node.lineno,
                    node.col_offset,
                )
            )

        for stmt in func.body:
            _walk_locked(stmt, False, is_acquire, on_access)
    return findings


def _locals_of(func: ast.AST) -> set[str]:
    names: set[str] = set()
    args = func.args
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else []) + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(a.arg)

    globals_decl: set[str] = set()

    def visit(node):
        if isinstance(node, ast.Global):
            globals_decl.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, _SCOPE_NODES) and node is not func:
            if isinstance(node, _FUNC_NODES):
                names.add(node.name)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(func)
    return names - globals_decl


def _check_guarded_globals(sf: SourceFile, spec: dict) -> list[Finding]:
    lock, names = spec["lock"], spec["names"]
    findings: list[Finding] = []

    def is_acquire(expr: ast.AST) -> bool:
        chain = _attr_chain(expr)
        return chain == lock or chain.endswith("." + lock)

    for node in ast.walk(sf.tree):
        if not isinstance(node, _FUNC_NODES):
            continue
        func = node
        acquires = _func_acquires(func, is_acquire)
        if not acquires and func.name.startswith("_"):
            continue  # caller-holds-lock helper
        local_names = _locals_of(func)

        def on_access(n, locked, _func=func, _locals=local_names):
            if locked or not isinstance(n, ast.Name) or n.id not in names:
                return
            if n.id in _locals:
                return  # shadowed local, not the module global
            findings.append(
                Finding(
                    "REP001",
                    f"{_func.name} touches guarded module global '{n.id}' "
                    f"outside 'with {lock}'",
                    sf.path,
                    n.lineno,
                    n.col_offset,
                )
            )

        for stmt in func.body:
            _walk_locked(stmt, False, is_acquire, on_access)
    return findings


def check_rep001(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef) and node.name in config.GUARDED_CLASSES:
            findings.extend(_check_guarded_class(sf, node, config.GUARDED_CLASSES[node.name]))
    if config.is_engine_source(sf.parts):
        spec = config.GUARDED_GLOBALS.get(sf.basename)
        if spec:
            findings.extend(_check_guarded_globals(sf, spec))
    return findings


register_rule(
    "REP001",
    "guarded attribute or module global accessed outside its lock",
    per_file=check_rep001,
)


# ==========================================================================
# REP003 — shared-memory lifecycle
# ==========================================================================

def _is_shm_create(call: ast.Call) -> tuple[bool, bool]:
    """(is a segment creation, ownership transferred to another process)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if name == "SharedMemory":
        for kw in call.keywords:
            if kw.arg == "create" and isinstance(kw.value, ast.Constant) and kw.value.value is True:
                return True, False
        return False, False
    if name == "create" and isinstance(func, ast.Attribute):
        chain = _attr_chain(func.value)
        if chain.endswith("SharedTables"):
            for kw in call.keywords:
                if kw.arg == "owner" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                    return True, True
            return True, False
    return False, False


def _iter_scope(scope: ast.AST):
    """Yield descendants of ``scope`` without entering nested function/class scopes."""
    stack = [scope]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            yield child
            stack.append(child)


def _scope_has_unlink(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if "unlink" in name:
                return True
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in config.SHM_REGISTRIES
                ):
                    return True
    return False


def check_rep003(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []

    def scan_scope(scope: ast.AST, scope_name: str) -> None:
        # unlink pairing may live in a nested cleanup closure (full walk);
        # creations/closes are attributed to the nearest enclosing scope only.
        has_unlink = _scope_has_unlink(scope)
        for node in _iter_scope(scope):
            if not isinstance(node, ast.Call):
                continue
            created, transferred = _is_shm_create(node)
            if created and not transferred and not has_unlink:
                findings.append(
                    Finding(
                        "REP003",
                        f"shared-memory segment created in {scope_name} with no "
                        "unlink (or registry adoption) in scope — leaks /dev/shm "
                        "on every path",
                        sf.path,
                        node.lineno,
                        node.col_offset,
                    )
                )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "close"
                and not node.args
                and not node.keywords
            ):
                recv = _attr_chain(func.value)
                leaf = recv.rsplit(".", 1)[-1] if recv else ""
                if (
                    leaf in config.SHM_HANDLE_NAMES
                    and scope_name not in config.SHM_CLOSE_ALLOWED_FUNCS
                ):
                    findings.append(
                        Finding(
                            "REP003",
                            f"raw '{recv}.close()' in {scope_name}: closing an "
                            "attached segment munmaps under live numpy views; "
                            "use _close_quiet / the lifecycle helpers",
                            sf.path,
                            node.lineno,
                            node.col_offset,
                        )
                    )

    # walk every function scope (plus module level) independently
    scan_scope(sf.tree, "<module>")
    for node in ast.walk(sf.tree):
        if isinstance(node, _FUNC_NODES):
            scan_scope(node, node.name)
    return findings


register_rule(
    "REP003",
    "shared-memory segment created without a paired unlink, or raw close on an attached segment",
    per_file=check_rep003,
)


# ==========================================================================
# REP004 — tombstone-awareness
# ==========================================================================

def check_rep004(sf: SourceFile) -> list[Finding]:
    if not config.is_engine_source(sf.parts):
        return []
    if sf.basename in config.TOMBSTONE_EXEMPT_BASENAMES:
        return []
    findings: list[Finding] = []

    def scan(node: ast.AST, cls: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                scan(child, node.name)
            return
        if isinstance(node, ast.Call):
            func = node.func
            flagged = None
            if isinstance(func, ast.Attribute) and func.attr in config.RAW_TABLE_METHODS:
                flagged = func.attr
            elif isinstance(func, ast.Name) and func.id == config.RAW_TABLE_CLASS:
                flagged = config.RAW_TABLE_CLASS
            if flagged and cls not in config.TOMBSTONE_EXEMPT_CLASSES:
                findings.append(
                    Finding(
                        "REP004",
                        f"raw bitset-table access '{flagged}' bypasses the live "
                        "mask — deleted rows would count as dominators; go "
                        "through the PreparedDataset wrappers",
                        sf.path,
                        node.lineno,
                        node.col_offset,
                    )
                )
        for child in ast.iter_child_nodes(node):
            scan(child, cls)

    scan(sf.tree, None)
    return findings


register_rule(
    "REP004",
    "raw bitset-table read outside the live-mask-aware wrapper layer",
    per_file=check_rep004,
)


# ==========================================================================
# REP005 — backend bypass
# ==========================================================================

def check_rep005(sf: SourceFile) -> list[Finding]:
    if not config.is_engine_source(sf.parts):
        return []
    if sf.basename in config.BACKEND_BASENAMES:
        return []
    findings: list[Finding] = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Attribute) and node.attr in config.BACKEND_ONLY_NUMPY_ATTRS:
            findings.append(
                Finding(
                    "REP005",
                    f"'{_attr_chain(node) or node.attr}' outside the backend "
                    "layer: popcount hot loops must route through "
                    "engine/backend.py so the native kernel can serve them",
                    sf.path,
                    node.lineno,
                    node.col_offset,
                )
            )
    return findings


register_rule(
    "REP005",
    "popcount-class numpy call outside engine/backend.py / engine/kernels.py",
    per_file=check_rep005,
)


# ==========================================================================
# REP006 — nondeterminism in identity functions
# ==========================================================================

_IDENTITY_RE = re.compile(config.IDENTITY_FUNC_RE)


def _nondet_call(call: ast.Call) -> str | None:
    chain = _attr_chain(call.func)
    if not chain or "." not in chain:
        return None
    head, _, rest = chain.partition(".")
    leaf = chain.rsplit(".", 1)[-1]
    if head in config.NONDET_MODULE_CALLS:
        allowed = config.NONDET_MODULE_CALLS[head]
        if allowed is None or leaf in allowed:
            return chain
    if head == "os" and leaf in config.NONDET_OS_CALLS:
        return chain
    if head in config.NONDET_NUMPY_ALIASES and rest.startswith("random"):
        return chain
    if head == "datetime" and leaf in {"now", "utcnow", "today"}:
        return chain
    return None


def _dict_iter_violation(iter_expr: ast.AST) -> str | None:
    if isinstance(iter_expr, ast.Call) and isinstance(iter_expr.func, ast.Attribute):
        if iter_expr.func.attr in config.DICT_ITER_ATTRS and not iter_expr.args:
            return _attr_chain(iter_expr.func) or iter_expr.func.attr
    return None


def check_rep006(sf: SourceFile) -> list[Finding]:
    if not config.is_engine_source(sf.parts):
        return []
    findings: list[Finding] = []

    def scan_identity(func: ast.AST) -> None:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                chain = _nondet_call(node)
                if chain:
                    findings.append(
                        Finding(
                            "REP006",
                            f"nondeterministic call '{chain}()' inside identity "
                            f"function '{func.name}': fingerprints must be "
                            "bit-stable across processes",
                            sf.path,
                            node.lineno,
                            node.col_offset,
                        )
                    )
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                chain = _dict_iter_violation(it)
                if chain:
                    findings.append(
                        Finding(
                            "REP006",
                            f"unsorted dict iteration '{chain}()' inside identity "
                            f"function '{func.name}': wrap in sorted() for a "
                            "stable fingerprint",
                            sf.path,
                            it.lineno,
                            it.col_offset,
                        )
                    )

    for node in ast.walk(sf.tree):
        if isinstance(node, _FUNC_NODES) and _IDENTITY_RE.search(node.name):
            scan_identity(node)
    return findings


register_rule(
    "REP006",
    "time/randomness/unsorted dict iteration inside a fingerprint, digest or lineage function",
    per_file=check_rep006,
)


# ==========================================================================
# REP009 — raw clock calls outside the telemetry module
# ==========================================================================

def check_rep009(sf: SourceFile) -> list[Finding]:
    if not config.is_engine_source(sf.parts):
        return []
    if not any(p in config.RAW_CLOCK_PART_NAMES for p in sf.parts):
        return []
    if sf.basename in config.RAW_CLOCK_ALLOWED_BASENAMES:
        return []
    findings: list[Finding] = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Attribute) and node.attr in config.RAW_CLOCK_ATTRS:
            chain = _attr_chain(node)
            if chain.startswith("time."):
                findings.append(
                    Finding(
                        "REP009",
                        f"raw clock call '{chain}' in the engine layer: import "
                        "'clock'/'wall_clock' from engine/telemetry.py so spans, "
                        "metrics and ad-hoc timing all read the same clocks",
                        sf.path,
                        node.lineno,
                        node.col_offset,
                    )
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in config.RAW_CLOCK_ATTRS:
                    findings.append(
                        Finding(
                            "REP009",
                            f"'from time import {alias.name}' in the engine layer: "
                            "import 'clock'/'wall_clock' from engine/telemetry.py "
                            "so spans, metrics and ad-hoc timing all read the "
                            "same clocks",
                            sf.path,
                            node.lineno,
                            node.col_offset,
                        )
                    )
    return findings


register_rule(
    "REP009",
    "raw time.* clock call in the engine layer outside engine/telemetry.py",
    per_file=check_rep009,
)


# ==========================================================================
# REP010 — public entry points open a span
# ==========================================================================

def _opens_span(func: ast.AST) -> bool:
    """True iff *func*'s own body (not a nested scope) has a ``with trace(...)``."""

    def visit(node) -> bool:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call) and _attr_chain(expr.func) in config.SPAN_OPENERS:
                    return True
        if isinstance(node, _SCOPE_NODES):
            return False
        return any(visit(child) for child in ast.iter_child_nodes(node))

    return any(visit(stmt) for stmt in func.body)


def check_rep010(sf: SourceFile) -> list[Finding]:
    if not config.is_engine_source(sf.parts):
        return []
    if not any(p in config.SPAN_ENTRY_PART_NAMES for p in sf.parts):
        return []
    findings: list[Finding] = []
    for cls in ast.walk(sf.tree):
        if not isinstance(cls, ast.ClassDef) or cls.name not in config.SPAN_ENTRY_POINTS:
            continue
        wanted = config.SPAN_ENTRY_POINTS[cls.name]
        methods = {node.name: node for node in cls.body if isinstance(node, _FUNC_NODES)}
        for name in sorted(wanted - methods.keys()):
            findings.append(
                Finding(
                    "REP010",
                    f"configured span entry point '{cls.name}.{name}' does not "
                    "exist: update SPAN_ENTRY_POINTS in repro_lint/config.py",
                    sf.path,
                    cls.lineno,
                    cls.col_offset,
                )
            )
        for name in sorted(wanted & methods.keys()):
            func = methods[name]
            if not _opens_span(func):
                findings.append(
                    Finding(
                        "REP010",
                        f"public entry point '{cls.name}.{name}' opens no span: wrap "
                        "its body in 'with telemetry.trace(...)' so --trace can "
                        "attribute the call",
                        sf.path,
                        func.lineno,
                        func.col_offset,
                    )
                )
    return findings


register_rule(
    "REP010",
    "a configured public QueryEngine/ContinuousQuery entry point opens no telemetry span",
    per_file=check_rep010,
)
