"""The project-specific invariant rules behind ``repro check``.

Each rule encodes a convention that already produced (or nearly
produced) a real bug in this codebase; ``docs/architecture.md`` lists
the history. Rules are heuristic and name-based — the goal is catching
the regression *classes* cheaply, with ``# repro: allow(<rule>)`` as the
reviewed escape hatch for deliberate exceptions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import dotted, walk_own
from repro.analysis.cfg import build_cfg
from repro.analysis.core import Rule, register
from repro.analysis.dataflow import (
    MAY, MUST, Analysis, SuspensionCrossing, run as run_dataflow,
)


@dataclass(frozen=True)
class _Anchor:
    """A synthetic finding location for diagnostics that do not point at
    a single AST node (e.g. a dataflow fact's origin line)."""

    lineno: int
    col_offset: int = 0


# --------------------------------------------------------------- loop-safety
@register
class LoopSafetyRule(Rule):
    """No blocking or known-heavy calls reachable from ``async def``
    bodies in ``serve/`` — callgraph-propagated, not just syntactic."""

    name = "loop-safety"
    description = (
        "async serving code must never block the event loop: no sleeps, "
        "blocking I/O, synchronous executor waits, or heavy core/* calls "
        "reachable from an async def in serve/"
    )
    fix_hint = (
        "run the blocking work via loop.run_in_executor(...) "
        "(see MutableController._run_maintenance)"
    )

    def check(self, source, project):
        if not source.in_package("serve"):
            return
        graph = project.callgraph
        for fn in graph.functions_in(source):
            if not fn.is_async:
                continue
            for block in fn.blocking:
                yield self.finding(
                    source, block,
                    f"async {fn.display} calls {block.what} on the event loop",
                )
            for site, trace in graph.blocked_call_sites(fn):
                chain = " -> ".join(trace.chain)
                yield self.finding(
                    source, site,
                    f"async {fn.display} reaches {trace.leaf} "
                    f"through the synchronous chain {chain}",
                )


# ----------------------------------------------------------- resource-release
_SHM_PRODUCER_ATTRS = {"from_table", "attach"}
_SHM_PRODUCER_NAMES = {"ProcessBackend", "WriteAheadLog"}
_SHM_CLEANUP_ATTRS = {"close", "unlink", "shutdown"}


def _producer_label(node: ast.Call) -> str | None:
    """Human label when ``node`` creates shm-owning state, else None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _SHM_PRODUCER_NAMES:
        return f"{func.id}(...)"
    if isinstance(func, ast.Attribute):
        if func.attr in _SHM_PRODUCER_ATTRS:
            qualifier = dotted(func.value)
            return f"{qualifier}.{func.attr}" if qualifier else func.attr
        if func.attr == "run_in_executor":
            # The deferred form: run_in_executor(None, shm.attach) or
            # run_in_executor(None, lambda: SharedMemoryTable.from_table(t)).
            # The executor runs the producer; the awaited result owns it.
            for arg in node.args[1:]:
                if (
                    isinstance(arg, ast.Attribute)
                    and arg.attr in _SHM_PRODUCER_ATTRS
                ):
                    return f"run_in_executor({arg.attr})"
                if isinstance(arg, ast.Lambda):
                    for sub in ast.walk(arg):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in _SHM_PRODUCER_ATTRS
                        ):
                            return f"run_in_executor({sub.func.attr})"
    return None


def _parent_map(root: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _binding_role(node: ast.AST, parents, fn_node):
    """How a producer call's result is used: ``("bound", name, stmt)``,
    ``("escape", ...)`` (arg / return / attribute target / ...), or
    ``("discard", ...)`` for a bare expression statement."""
    child, parent = node, parents.get(node)
    while parent is not None and parent is not fn_node:
        if isinstance(parent, ast.Call) and child is not parent.func:
            return ("escape", None, None)
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return ("escape", None, None)
        if isinstance(parent, ast.Assign):
            if len(parent.targets) == 1 and isinstance(parent.targets[0], ast.Name):
                return ("bound", parent.targets[0].id, parent)
            return ("escape", None, None)  # self.x = ..., a[i] = ..., tuples
        if isinstance(parent, ast.AnnAssign):
            if isinstance(parent.target, ast.Name):
                return ("bound", parent.target.id, parent)
            return ("escape", None, None)
        if isinstance(parent, ast.NamedExpr):
            if isinstance(parent.target, ast.Name):
                return ("bound", parent.target.id, parent)
            return ("escape", None, None)
        if isinstance(parent, ast.Expr):
            return ("discard", None, None)
        child, parent = parent, parents.get(parent)
    return ("escape", None, None)


def _nested_scope_names(fn_node) -> set[str]:
    """Names referenced inside nested defs/lambdas of ``fn_node`` —
    resources captured by a closure escape this function's CFG (cleanup
    often lives in a done-callback), so they are not tracked."""
    names: set[str] = set()
    for node in ast.walk(fn_node):
        if node is fn_node or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
    return names


def _escape_names(fn_node) -> set[str]:
    """Names declared ``global``/``nonlocal`` anywhere in the function."""
    names: set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


class _ReleaseAnalysis(Analysis):
    """May-analysis: which acquired resources are still held here.

    Facts are ``(name, lineno, label)``. A producer generates its fact on
    the *normal* edge only (a failed acquisition owns nothing); any
    discharge — ``close``/``unlink``/``shutdown`` on the name, the name
    passed to a call, returned/yielded, stored into an attribute or
    subscript, or rebound — kills on both edges.
    """

    mode = MAY

    def __init__(self, producers_by_stmt: dict):
        self.producers_by_stmt = producers_by_stmt

    def _discharged(self, node) -> set[str]:
        names: set[str] = set()
        for sub in node.own_nodes():
            if isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _SHM_CLEANUP_ATTRS
                    and isinstance(func.value, ast.Name)
                ):
                    names.add(func.value.id)
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
            elif isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(sub, "value", None)
                if value is not None:
                    for name_node in ast.walk(value):
                        if isinstance(name_node, ast.Name):
                            names.add(name_node.id)
            elif isinstance(sub, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in sub.targets
                ):
                    for name_node in ast.walk(sub.value):
                        if isinstance(name_node, ast.Name):
                            names.add(name_node.id)
                # Rebinding the holder name loses the old resource; treat
                # it as a (dubious but explicit) discharge of the name.
                for t in sub.targets:
                    if isinstance(t, ast.Name):
                        names.add(t.id)
        return names

    def transfer(self, node, fact):
        killed = self._discharged(node)
        if killed:
            fact = frozenset(f for f in fact if f[0] not in killed)
        produced = self.producers_by_stmt.get(id(node.stmt))
        if not produced:
            return fact
        normal = fact | frozenset(produced)
        return normal, fact


@register
class ResourceReleaseRule(Rule):
    """Every acquired resource — shm table, process pool, WAL — must be
    released or handed off on *every* CFG path out of the acquiring
    function, exception edges included."""

    name = "resource-release"
    description = (
        "resource acquisitions (SharedMemoryTable.from_table/.attach, "
        "ProcessBackend(...), WriteAheadLog(...)) must reach a "
        "close/unlink/shutdown or an explicit ownership hand-off on every "
        "path, exception edges "
        "included — POSIX segments and fds outlive the process otherwise"
    )
    fix_hint = (
        "release it in a finally: (close()/unlink()/shutdown()) or hand "
        "ownership off explicitly (return it / assign it to the owner)"
    )

    def check(self, source, project):
        graph = project.callgraph
        for fn in graph.functions_in(source):
            producers = [
                (node, _producer_label(node))
                for node in walk_own(fn.node)
                if isinstance(node, ast.Call) and _producer_label(node)
            ]
            if not producers:
                continue
            parents = _parent_map(fn.node)
            untracked = _nested_scope_names(fn.node) | _escape_names(fn.node)
            by_stmt: dict[int, list] = {}
            origins: dict[tuple, tuple] = {}
            for node, label in producers:
                role, name, stmt = _binding_role(node, parents, fn.node)
                if role == "discard":
                    yield self.finding(
                        source, node,
                        f"result of {label} is discarded — the segments or "
                        "pool it may own can never be released",
                    )
                    continue
                if role != "bound" or name in untracked:
                    continue  # arg/return/attribute/closure: handed off
                fact = (name, node.lineno, label)
                by_stmt.setdefault(id(stmt), []).append(fact)
                origins[fact] = (node, label)
            if not origins:
                continue
            cfg = build_cfg(fn.node)
            result = run_dataflow(cfg, _ReleaseAnalysis(by_stmt))
            at_exit = result.at(cfg.exit)
            at_raise = result.at(cfg.raise_exit)
            for fact, (node, label) in sorted(
                origins.items(), key=lambda item: item[0][1]
            ):
                name = fact[0]
                if fact in at_exit:
                    yield self.finding(
                        source, node,
                        f"{name} (from {label}) can reach the end of "
                        f"{fn.display} unreleased: no close()/unlink()/"
                        "shutdown() or hand-off on some path",
                    )
                elif fact in at_raise:
                    yield self.finding(
                        source, node,
                        f"{name} (from {label}) is not released on the "
                        f"exception edges of {fn.display} — a raise between "
                        "acquisition and release leaks it",
                    )


# ----------------------------------------------------- generation-discipline
@register
class GenerationDisciplineRule(Rule):
    """Result-cache keys must thread the index generation, so mutations
    invalidate cached replies by construction."""

    name = "generation-discipline"
    description = (
        "ResultCache.make_key call sites must pass generation= (or index= "
        "to derive it); cache puts must not hand-build tuple keys"
    )
    fix_hint = (
        "pass generation=index.generation (0 for an immutable index) or "
        "index=the served index"
    )

    def check(self, source, project):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "make_key":
                threaded = len(node.args) >= 4 or any(
                    kw.arg in ("generation", "index") for kw in node.keywords
                )
                if not threaded:
                    yield self.finding(
                        source, node,
                        "make_key without generation=/index=: a mutation "
                        "could serve this entry stale",
                    )
            elif func.attr == "put":
                qualifier = (dotted(func.value) or "").lower()
                if "cache" in qualifier and node.args and isinstance(
                    node.args[0], ast.Tuple
                ):
                    yield self.finding(
                        source, node,
                        "hand-built cache key tuple bypasses "
                        "ResultCache.make_key (and its generation field)",
                        fix_hint="build the key with ResultCache.make_key(...)",
                        severity="warning",
                    )


# ---------------------------------------------------------------- strict-json
@register
class StrictJsonRule(Rule):
    """Wire JSON must be strict RFC 8259: no ``Infinity``/``NaN`` out
    (``allow_nan=False``) and none accepted in (``parse_constant``)."""

    name = "strict-json"
    description = (
        "serve/ must not call bare json.dumps/json.loads: outbound needs "
        "allow_nan=False, inbound needs parse_constant rejection "
        "(repro.jsonutil has both)"
    )

    def check(self, source, project):
        if not source.in_package("serve"):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                continue
            if func.attr in ("dumps", "dump"):
                allow_nan = next(
                    (kw.value for kw in node.keywords if kw.arg == "allow_nan"),
                    None,
                )
                strict = allow_nan is not None and not (
                    isinstance(allow_nan, ast.Constant) and allow_nan.value is True
                )
                if not strict:
                    yield self.finding(
                        source, node,
                        f"json.{func.attr} without allow_nan=False can emit "
                        "the non-JSON Infinity/NaN literals on the wire",
                        fix_hint="use repro.jsonutil.dumps_strict (or pass "
                        "allow_nan=False after sanitize_json)",
                    )
            elif func.attr in ("loads", "load"):
                if not any(kw.arg == "parse_constant" for kw in node.keywords):
                    yield self.finding(
                        source, node,
                        f"json.{func.attr} without parse_constant accepts "
                        "Infinity/NaN literals that are not valid JSON",
                        fix_hint="use repro.jsonutil.loads_strict (or pass "
                        "parse_constant=reject_nonfinite)",
                    )


# ----------------------------------------------------------- visitor-protocol
def _required_init_params(init_node) -> list[str]:
    args = init_node.args
    positional = list(args.posonlyargs) + list(args.args)
    required = positional[: len(positional) - len(args.defaults)]
    names = [a.arg for a in required if a.arg != "self"]
    names += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is None
    ]
    return names


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        name = dotted(base)
        if name:
            names.append(name.rsplit(".", 1)[-1])
    return names


def _own_methods(node: ast.ClassDef) -> dict[str, ast.AST]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _inherits_concrete(project, node: ast.ClassDef, method: str, seen=None) -> bool:
    """Whether a project-defined ancestor (other than the abstract root
    ``Visitor``, whose fresh/merge are raising stubs) defines ``method``."""
    seen = seen or set()
    for base in _base_names(node):
        if base in seen or base == "Visitor":
            continue
        seen.add(base)
        base_def = project.class_def(base)
        if base_def is None:
            continue
        if method in _own_methods(base_def):
            return True
        if _inherits_concrete(project, base_def, method, seen):
            return True
    return False


@register
class VisitorProtocolRule(Rule):
    """Visitor subclasses claiming mergeability must implement the whole
    ``fresh``/``merge``/``reset`` protocol with dtype-preserving math."""

    name = "visitor-protocol"
    description = (
        "a Visitor defining fresh or merge must define both (is_mergeable "
        "checks both); mergeable visitors with required __init__ args must "
        "override fresh and reset; aggregates must stay dtype-preserving"
    )

    def check(self, source, project):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(base.endswith("Visitor") for base in _base_names(node)):
                continue
            methods = _own_methods(node)
            effective = {
                m: m in methods or _inherits_concrete(project, node, m)
                for m in ("fresh", "merge")
            }
            if effective["fresh"] != effective["merge"]:
                present = "fresh" if effective["fresh"] else "merge"
                missing = "merge" if effective["fresh"] else "fresh"
                yield self.finding(
                    source, node,
                    f"{node.name} has {present} but not {missing}: "
                    "is_mergeable stays False and sharded scans silently fall "
                    "back to recording/replay",
                    fix_hint=f"implement {missing} (or drop {present})",
                )
            elif effective["fresh"]:
                init = methods.get("__init__")
                required = _required_init_params(init) if init else []
                if required:
                    if "reset" not in methods:
                        yield self.finding(
                            source, node,
                            f"mergeable {node.name} takes required __init__ "
                            f"args {required} but does not override reset() "
                            "— the default reset() cannot re-invoke its "
                            "__init__",
                            fix_hint="override reset() to restore initial state",
                        )
                    if "fresh" not in methods:
                        yield self.finding(
                            source, node,
                            f"mergeable {node.name} takes required __init__ "
                            f"args {required} but inherits fresh() — "
                            "type(self)() cannot construct it",
                            fix_hint="override fresh() to pass the config through",
                        )
            for method_name in ("visit", "merge"):
                body = methods.get(method_name)
                if body is None:
                    continue
                for sub in ast.walk(body):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("int", "float")
                        and len(sub.args) == 1
                        and isinstance(sub.args[0], ast.Call)
                        and isinstance(sub.args[0].func, ast.Attribute)
                        and sub.args[0].func.attr in ("sum", "min", "max")
                    ):
                        yield self.finding(
                            source, sub,
                            f"{node.name}.{method_name} forces the aggregate "
                            f"through {sub.func.id}(...), truncating float "
                            "columns",
                            fix_hint="use .item() — it preserves the column dtype",
                            severity="warning",
                        )


# -------------------------------------------------------------- write-barrier
@register
class WriteBarrierRule(Rule):
    """Index mutations in async serving code must flow through the
    batcher's write barrier, never run inline on the loop."""

    name = "write-barrier"
    description = (
        "async serve/ code must not call insert/insert_many/commit_merge "
        "or poke .generation directly; wrap the mutation in a closure and "
        "submit it via MicroBatcher.submit_write"
    )
    fix_hint = (
        "wrap the mutation in a def write(): ... closure and "
        "await batcher.submit_write(write)"
    )

    _MUTATORS = {"insert", "insert_many", "commit_merge"}

    def check(self, source, project):
        if not source.in_package("serve"):
            return
        graph = project.callgraph
        for fn in graph.functions_in(source):
            if not fn.is_async:
                continue
            for site in fn.calls:
                if site.name not in self._MUTATORS or site.qualifier is None:
                    continue
                if "batcher" in site.qualifier:
                    continue  # the barrier itself
                yield self.finding(
                    source, site,
                    f"async {fn.display} calls .{site.name}() inline — the "
                    "mutation races in-flight micro-batches on executor "
                    "threads",
                )
            for node in walk_own(fn.node):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "generation":
                        yield self.finding(
                            source, node,
                            f"async {fn.display} mutates .generation "
                            "directly; generations only move through the "
                            "index's own mutation methods",
                        )


# ------------------------------------------------------------- durability-ack
@register
class DurabilityAckRule(Rule):
    """An insert's wire ack must come *after* the write that logs it —
    a client holding an ack for a row the WAL never saw is exactly the
    data loss the durability tier exists to rule out."""

    name = "durability-ack"
    description = (
        "async serve/ code must not send a reply before the insert "
        "mutation (WAL append + buffer apply) on the same path: apply "
        "the write first, ack second"
    )
    fix_hint = (
        "move the send after the awaited mutation (see "
        "FloodServer._handle_write: the reply is built from "
        "apply_insert's result, which resolves only after the write "
        "closure — WAL append included — ran)"
    )

    #: Wire-ack emitters: raw socket sends, and the StreamWriter pair.
    _SENDERS = {"send", "sendall"}
    _WRITER_SENDERS = {"write", "drain"}
    #: Calls that (transitively) perform the logged mutation.
    _MUTATORS = {"insert", "insert_many", "apply_insert", "submit_write"}

    def _is_sender(self, site) -> bool:
        if site.name in self._SENDERS:
            return True
        # `writer.write(...)` / `writer.drain()` — but not e.g. a WAL's
        # `self.write(...)` or a file handle's: require a writer-ish
        # receiver so the storage layer's own writes never match.
        return (
            site.name in self._WRITER_SENDERS
            and site.qualifier is not None
            and "writer" in site.qualifier
        )

    def check(self, source, project):
        if not source.in_package("serve"):
            return
        graph = project.callgraph
        for fn in graph.functions_in(source):
            if not fn.is_async:
                continue
            senders = [s for s in fn.calls if self._is_sender(s)]
            mutators = [s for s in fn.calls if s.name in self._MUTATORS]
            if not senders or not mutators:
                continue
            for ack in senders:
                before = [
                    mut
                    for mut in mutators
                    if (ack.lineno, ack.col_offset)
                    < (mut.lineno, mut.col_offset)
                    # `await send(await apply_insert(...))` evaluates the
                    # mutation first even though the send's position is
                    # earlier — a nested mutator is not ack-before-log.
                    and not any(n is mut.node for n in ast.walk(ack.node))
                ]
                if before:
                    mut = before[0]
                    yield self.finding(
                        source, ack,
                        f"async {fn.display} sends a reply before the "
                        f".{mut.name}() on line {mut.lineno} — an ack must "
                        "never precede the write (WAL append) it "
                        "acknowledges",
                    )


# ------------------------------------------------------------ await-atomicity
#: Method names that mutate their receiver in place — calling one on a
#: ``self.x`` attribute writes shared state just like ``self.x = ...``.
_INPLACE_MUTATORS = {
    "append", "appendleft", "add", "remove", "discard", "pop", "popleft",
    "popitem", "clear", "update", "extend", "insert", "setdefault",
    "put_nowait",
}


def _self_attr(node) -> str | None:
    """``X`` when ``node`` is the attribute access ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _AtomicityAnalysis(SuspensionCrossing):
    """Reads of ``self.*`` that are still *pending* (no intervening write
    to the same attribute), tagged with whether they crossed an await.

    Facts are ``("read", (attr, lineno, guard), crossed)``. ``guard``
    marks reads made inside an ``if``/``while`` header — the
    check-then-act shape. A write to ``self.X`` reports when:

    - a crossed *guard* read of ``X`` is pending (the checked condition
      is stale by the time the write acts on it), or
    - the write is an ``AugAssign`` whose own read crossed
      (``self.x += await f()`` — the classic lost update).

    A plain value read later overwritten (``self.host`` passed to
    ``start_server`` and then rebound from the socket) is deliberately
    not reported — there is no decision taken on the stale value.
    Derived-value flows through locals are out of scope (documented
    limitation).
    """

    def __init__(self):
        self.races: set[tuple] = set()  # (attr, read_line, write_line)

    def gen(self, node, fact):
        reads = set()
        guard = isinstance(node.stmt, (ast.If, ast.While))
        for sub in node.own_nodes():
            attr = _self_attr(sub)
            if attr is not None and isinstance(sub.ctx, ast.Load):
                reads.add(("read", (attr, sub.lineno, guard), False))
        stmt = node.stmt
        if isinstance(stmt, ast.AugAssign):
            attr = _self_attr(stmt.target)
            if attr is not None:
                # self.x += ... reads self.x even though the AST only
                # shows a Store context.
                reads.add(("read", (attr, stmt.lineno, False), False))
        return fact | frozenset(reads)

    def _writes(self, node) -> list[tuple[str, int, str]]:
        writes: list[tuple[str, int, str]] = []
        stmt = node.stmt
        aug_attr = (
            _self_attr(stmt.target) if isinstance(stmt, ast.AugAssign) else None
        )
        for sub in node.own_nodes():
            attr = _self_attr(sub)
            if attr is not None and isinstance(sub.ctx, (ast.Store, ast.Del)):
                kind = "aug" if attr == aug_attr else "store"
                writes.append((attr, sub.lineno, kind))
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _INPLACE_MUTATORS
                ):
                    attr = _self_attr(func.value)
                    if attr is not None:
                        writes.append((attr, sub.lineno, "inplace"))
        return writes

    def use(self, node, fact):
        writes = self._writes(node)
        if not writes:
            return fact
        written = {attr for attr, _, _ in writes}
        for attr, write_line, kind in writes:
            for _tag, (read_attr, read_line, guard), crossed in fact:
                if not crossed or read_attr != attr:
                    continue
                if guard or (kind == "aug" and read_line == write_line):
                    self.races.add((attr, read_line, write_line))
        return frozenset(
            f for f in fact if f[1][0] not in written
        )


@register
class AwaitAtomicityRule(Rule):
    """No read-modify-write of shared ``self.*`` state across an
    ``await`` in serving coroutines: the suspension point is an
    interleaving window for every other task on the loop."""

    name = "await-atomicity"
    description = (
        "async serve/ code must not read self.* state, await, and then "
        "write the same attribute: another task runs inside the window, "
        "so the check-then-act is stale and the write clobbers it"
    )
    fix_hint = (
        "claim the state before the first await (swap it into locals in "
        "one non-suspending step), or route the mutation through the "
        "submit_write barrier"
    )

    def check(self, source, project):
        if not source.in_package("serve"):
            return
        graph = project.callgraph
        for fn in graph.functions_in(source):
            if not fn.is_async:
                continue
            analysis = _AtomicityAnalysis()
            run_dataflow(build_cfg(fn.node), analysis)
            for attr, read_line, write_line in sorted(analysis.races):
                yield self.finding(
                    source, _Anchor(read_line),
                    f"async {fn.display} reads self.{attr} on line "
                    f"{read_line} and writes it on line {write_line} "
                    "with an await in between — another task can "
                    f"mutate self.{attr} inside that window",
                )


# -------------------------------------------------------------- crash-ordering
_RENAME_ATTRS = {"replace", "rename"}
_MKDIR_NAMES = {"makedirs", "mkdir"}


def _is_fs_receiver(func) -> bool:
    """Whether an attribute call's receiver is a filesystem seam —
    ``os``, a :class:`StorageIO`-style object (``io`` / ``self._io``) or
    a ``Path``-ish name. Filters out ``str.replace`` and friends."""
    if not isinstance(func, ast.Attribute):
        return False
    qualifier = dotted(func.value) or ""
    tail = qualifier.rsplit(".", 1)[-1].lower()
    return tail == "os" or "io" in tail or "path" in tail


def _call_handle_arg(sub: ast.Call) -> str | None:
    """The Name of the first argument (``io.fsync(handle)`` style)."""
    if sub.args and isinstance(sub.args[0], ast.Name):
        return sub.args[0].id
    return None


def _creating_mode(sub: ast.Call) -> bool:
    """Whether an ``open`` call's mode creates a directory entry."""
    mode = None
    if len(sub.args) >= 2 and isinstance(sub.args[1], ast.Constant):
        mode = sub.args[1].value
    for kw in sub.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    return isinstance(mode, str) and any(c in mode for c in "wx")


class _CrashOrderingFacts:
    """Per-function syntactic pre-pass: handle->path bindings plus the
    call sites the two dataflow passes generate/check at."""

    def __init__(self, fn_node):
        #: handle Name -> source path Name, from ``h = io.open(p, "wb")``
        self.handle_paths: dict[str, str] = {}
        for sub in walk_own(fn_node):
            call, target = None, None
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                if len(sub.targets) == 1 and isinstance(sub.targets[0], ast.Name):
                    call, target = sub.value, sub.targets[0].id
            elif isinstance(sub, ast.withitem) and isinstance(
                sub.context_expr, ast.Call
            ):
                if isinstance(sub.optional_vars, ast.Name):
                    call, target = sub.context_expr, sub.optional_vars.id
            if call is None:
                continue
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "open"):
                continue
            if call.args and isinstance(call.args[0], ast.Name):
                if _creating_mode(call) or "+" in str(
                    call.args[1].value if len(call.args) > 1
                    and isinstance(call.args[1], ast.Constant) else ""
                ):
                    self.handle_paths[target] = call.args[0].id


class _SyncStateAnalysis(Analysis):
    """Must-analysis: ``("synced", handle)`` after an fsync of the handle
    (killed by further writes/truncates/rebinding) and ``("snapped",)``
    after a ``write_snapshot`` call — the facts the rename and prune
    sites check."""

    mode = MUST

    def __init__(self, facts: _CrashOrderingFacts):
        self.facts = facts

    def transfer(self, node, fact):
        out = set(fact)
        for sub in node.own_nodes():
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if attr is None:
                continue
            handle = _call_handle_arg(sub)
            receiver = (
                func.value.id
                if isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                else None
            )
            if attr == "fsync":
                for name in (handle, receiver):
                    if name in self.facts.handle_paths:
                        out.add(("synced", name))
            elif attr in ("write", "truncate"):
                for name in (handle, receiver):
                    if name is not None:
                        out.discard(("synced", name))
            elif attr == "write_snapshot":
                out.add(("snapped",))
        # Rebinding a tracked handle restarts its sync obligation.
        stmt = node.stmt
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.discard(("synced", target.id))
        return frozenset(out)


class _DirSyncAnalysis(Analysis):
    """May-analysis: directory-entry changes (rename, create-mode open,
    makedirs) whose ``fsync_dir`` is still owed. Facts are
    ``(kind, lineno)``; any ``fsync_dir`` call clears them all (these
    functions each operate on a single directory). Obligations reaching
    the *normal* exit are findings; exception paths are exempt — a
    failed operation has nothing to persist."""

    mode = MAY

    def transfer(self, node, fact):
        out = set(fact)
        for sub in node.own_nodes():
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if attr == "fsync_dir":
                out.clear()
            elif (
                attr in _RENAME_ATTRS and len(sub.args) >= 2
                and _is_fs_receiver(func)
            ):
                out.add(("rename", sub.lineno))
            elif attr in _MKDIR_NAMES:
                out.add(("makedirs", sub.lineno))
            elif attr == "open" and _creating_mode(sub):
                out.add(("create", sub.lineno))
        return frozenset(out)


@register
class CrashOrderingRule(Rule):
    """ALICE-style crash-ordering discipline for the durability tier:
    fsync the file before renaming it into place, fsync the directory
    after any entry change, and never prune the WAL before the snapshot
    that covers it is on disk."""

    name = "crash-ordering"
    description = (
        "storage/ and core/ persistence paths must fsync written files "
        "before rename, fsync_dir after renames/creates/makedirs on "
        "every non-failing path, and call write_snapshot before "
        "WAL.prune — a crash between reordered steps loses acked rows"
    )
    fix_hint = (
        "follow write_snapshot's sequence: write tmp -> flush -> fsync "
        "-> replace -> fsync_dir (and checkpoint: snapshot, then prune)"
    )

    def check(self, source, project):
        if not (source.in_package("storage") or source.in_package("core")):
            return
        graph = project.callgraph
        for fn in graph.functions_in(source):
            if fn.cls and fn.cls.endswith("IO"):
                continue  # the raw syscall seam wraps one op per method
            facts = _CrashOrderingFacts(fn.node)
            calls = {site.name for site in fn.calls}
            wants_sync = bool(facts.handle_paths) and bool(
                calls & _RENAME_ATTRS
            )
            wants_prune = "prune" in calls and "write_snapshot" in calls
            wants_dirsync = bool(
                calls & (_RENAME_ATTRS | _MKDIR_NAMES | {"open"})
            )
            if not (wants_sync or wants_prune or wants_dirsync):
                continue
            cfg = build_cfg(fn.node)
            if wants_sync or wants_prune:
                result = run_dataflow(cfg, _SyncStateAnalysis(facts))
                yield from self._check_sync(
                    source, fn, cfg, facts, result, wants_prune
                )
            if wants_dirsync:
                result = run_dataflow(cfg, _DirSyncAnalysis())
                yield from self._check_dirsync(source, fn, cfg, result)

    def _check_sync(self, source, fn, cfg, facts, result, wants_prune):
        seen: set[tuple] = set()
        for node in cfg.statement_nodes():
            in_fact = result.at(node)
            for sub in node.own_nodes():
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                attr = func.attr if isinstance(func, ast.Attribute) else None
                if attr in _RENAME_ATTRS and _is_fs_receiver(func) and (
                    sub.args and isinstance(sub.args[0], ast.Name)
                ):
                    src_name = sub.args[0].id
                    for handle, path in facts.handle_paths.items():
                        if path != src_name:
                            continue
                        if ("synced", handle) not in in_fact:
                            key = ("sync", sub.lineno)
                            if key not in seen:
                                seen.add(key)
                                yield self.finding(
                                    source, sub,
                                    f"{fn.display} renames {src_name} "
                                    "without an fsync of the written file "
                                    "on every path — a crash can publish "
                                    "a torn file under the final name",
                                )
                elif (
                    attr == "prune" and wants_prune
                    and ("snapped",) not in in_fact
                ):
                    key = ("prune", sub.lineno)
                    if key not in seen:
                        seen.add(key)
                        yield self.finding(
                            source, sub,
                            f"{fn.display} prunes the WAL on a path where "
                            "write_snapshot has not run — the pruned rows "
                            "would survive nowhere",
                        )

    def _check_dirsync(self, source, fn, cfg, result):
        owed = result.at(cfg.exit)
        for kind, lineno in sorted(owed, key=lambda f: f[1]):
            anchor = _Anchor(lineno)
            verb = {
                "rename": "renames a file into place",
                "create": "creates a file",
                "makedirs": "creates a directory",
            }[kind]
            yield self.finding(
                source, anchor,
                f"{fn.display} {verb} but can return without fsync_dir "
                "on the parent directory — after a crash the entry "
                "itself may be missing",
            )
