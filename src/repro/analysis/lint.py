"""Repo-invariant lint: AST checks for rules no unit test can pin down.

Five rules, each guarding an implicit contract between distant layers:

1. **mutating kernels vs the buffer arena** -- a kernel that mutates
   one of its input arrays (in-place ufunc ``.at`` calls, subscript
   stores, ``out=`` aliasing an input) must NOT be listed arena-safe in
   ``repro.graph.bufferplan``'s guard tables.  Kernels are the
   ``@register_forward`` functions and the bodies ``@register_direct``
   builders return -- what generated code runs.  The arena recycles input
   storage based on those tables, and an unregistered mutator silently
   corrupts whatever value shares the buffer.
2. **the collective registry stays complete** -- every collective op
   type constructed anywhere in the source must be in
   ``comm_ops.COLLECTIVE_OP_TYPES`` (the one set edge accounting and
   worker muting both read), and the set of op types the executor's
   overlap schedule sinks must be a subset of it; a missing entry
   double-counts transcript bytes and breaks worker muting.
3. **seeded randomness only** -- ``np.random`` access outside the
   seeded-generator API (``default_rng``/``Generator``/``SeedSequence``)
   reaches process-global state and breaks the bit-identical-loss
   contracts the suite asserts.
4. **no lambdas in graph-attached objects** -- ``add_op(...)``
   arguments (attrs included) must stay picklable for the multiprocess
   backend's graph shipping; lambdas are not.
5. **the public API stays documented and closed** -- every name in
   ``repro.__all__`` must resolve to a documented (non-module) object,
   and every public non-module attribute of ``repro`` must be listed in
   ``__all__``; an undocumented or unlisted symbol is an API the next
   refactor breaks without noticing.

Run as ``python -m repro.analysis.lint [paths...]`` (defaults to the
repo's ``src`` and ``tests``); exits 1 on any finding.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.analysis.report import Finding

ANALYSIS = "lint"

#: np.random attributes that go through explicitly seeded generators.
_ALLOWED_RANDOM = frozenset({"default_rng", "Generator", "SeedSequence",
                             "BitGenerator"})

#: op-type literals that look like collectives (see rule 2).
_COLLECTIVE_NAME = re.compile(r"(^|_)(allreduce|allgatherv)$")


def _arena_safe_types() -> frozenset:
    """Op types the buffer planner treats as safe for arena recycling --
    loaded from the live guard tables so the lint tracks them."""
    from repro.graph import bufferplan as bp

    return frozenset(bp.ARENA_FWD | bp.VIEW_FWD | bp.KNOWN_SAFE
                     | bp.SPARSE_PASSTHROUGH | bp.FOLD_OUT)


# ---- rule 1: mutating kernels ------------------------------------------
def _registered_op_type(node: ast.FunctionDef) -> Tuple[Optional[str], str]:
    """``(op type, registry)`` of an ``@register_forward("x")`` or
    ``@register_direct("x")`` decorator; ``(None, "")`` for neither."""
    for deco in node.decorator_list:
        if (isinstance(deco, ast.Call)
                and isinstance(deco.func, ast.Name)
                and deco.func.id in ("register_forward", "register_direct")
                and deco.args
                and isinstance(deco.args[0], ast.Constant)
                and isinstance(deco.args[0].value, str)):
            return deco.args[0].value, deco.func.id
    return None, ""


def _kernel_bodies(node: ast.FunctionDef, registry: str):
    """``(function, input parameter names)`` for the code a registered
    kernel runs per call: a forward kernel itself (its ``inputs``
    parameter), or each inner function a direct builder returns (every
    positional parameter, ``*values`` included)."""
    if registry == "register_forward":
        params = [a.arg for a in node.args.args]
        if params:
            yield node, [params[1] if len(params) > 1 else params[0]]
        return
    returned = {ret.value.id for ret in ast.walk(node)
                if isinstance(ret, ast.Return)
                and isinstance(ret.value, ast.Name)}
    for inner in node.body:
        if isinstance(inner, ast.FunctionDef) and inner.name in returned:
            params = [a.arg for a in inner.args.args]
            if inner.args.vararg is not None:
                params.append(inner.args.vararg.arg)
            yield inner, params


def _base_name(node: ast.AST) -> Optional[str]:
    """The root Name of a (possibly nested) subscript/attribute chain."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _kernel_mutations(fn: ast.FunctionDef, inputs: List[str]) -> List[str]:
    """Descriptions of every statement mutating an input-aliased array."""
    aliases: Set[str] = set(inputs)

    def is_input_expr(node: ast.AST) -> bool:
        return _base_name(node) in aliases

    # First pass: names bound (directly or by unpacking) to input values.
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and is_input_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            aliases.add(elt.id)

    mutations: List[str] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and \
                        is_input_expr(target):
                    mutations.append(
                        f"line {node.lineno}: subscript store into "
                        f"input alias {_base_name(target)!r}")
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Subscript) and \
                    is_input_expr(node.target):
                mutations.append(
                    f"line {node.lineno}: augmented store into input "
                    f"alias {_base_name(node.target)!r}")
        elif isinstance(node, ast.Call):
            func = node.func
            # np.<ufunc>.at(target, ...) mutates its first argument.
            if (isinstance(func, ast.Attribute) and func.attr == "at"
                    and node.args and is_input_expr(node.args[0])):
                mutations.append(
                    f"line {node.lineno}: in-place ufunc .at() on input "
                    f"alias {_base_name(node.args[0])!r}")
            for kw in node.keywords:
                if kw.arg == "out" and is_input_expr(kw.value):
                    mutations.append(
                        f"line {node.lineno}: out= targets input alias "
                        f"{_base_name(kw.value)!r}")
    return mutations


def _check_kernels(tree: ast.AST, path: str,
                   arena_safe: frozenset) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        op_type, registry = _registered_op_type(node)
        if op_type is None or op_type not in arena_safe:
            continue
        for body, inputs in _kernel_bodies(node, registry):
            mutations = _kernel_mutations(body, inputs)
            if mutations:
                findings.append(Finding(
                    ANALYSIS,
                    f"{path}:{body.lineno}: kernel for {op_type!r} "
                    "mutates its inputs but the op type is listed "
                    "arena-safe in repro.graph.bufferplan's guard tables "
                    "-- the arena would recycle storage this kernel "
                    "scribbles on",
                    trace=tuple(mutations),
                ))
    return findings


# ---- rule 2: collective registry completeness --------------------------
def _check_registries(registered: frozenset) -> List[Finding]:
    from repro.graph.executor import COLLECTIVE_OPS

    extra = COLLECTIVE_OPS - registered
    if not extra:
        return []
    return [Finding(
        ANALYSIS,
        "executor.COLLECTIVE_OPS sinks op types "
        f"comm_ops.COLLECTIVE_OP_TYPES does not know: {sorted(extra)}",
    )]


def _check_collective_literals(tree: ast.AST, path: str,
                               registered: frozenset) -> List[Finding]:
    """Every op-type literal that *names* a collective must be in the
    registry (catches a new collective added to the transform but not to
    ``COLLECTIVE_OP_TYPES``)."""
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_op"):
            continue
        first = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "op_type":
                first = kw.value
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            continue
        op_type = first.value
        if _COLLECTIVE_NAME.search(op_type) and op_type not in registered:
            findings.append(Finding(
                ANALYSIS,
                f"{path}:{node.lineno}: add_op creates collective op "
                f"type {op_type!r} which is not registered in "
                "comm_ops.COLLECTIVE_OP_TYPES",
            ))
    return findings


# ---- rule 3: seeded randomness only ------------------------------------
def _check_np_random(tree: ast.AST, path: str) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        # matches <anything>.random.<attr> where the root is np/numpy
        inner = node.value
        if not (isinstance(inner, ast.Attribute) and inner.attr == "random"
                and isinstance(inner.value, ast.Name)
                and inner.value.id in ("np", "numpy")):
            continue
        if node.attr not in _ALLOWED_RANDOM:
            findings.append(Finding(
                ANALYSIS,
                f"{path}:{node.lineno}: np.random.{node.attr} uses "
                "process-global random state; use a seeded "
                "np.random.default_rng(...) generator instead",
            ))
    return findings


# ---- rule 4: no lambdas attached to graphs -----------------------------
def _check_graph_lambdas(tree: ast.AST, path: str) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_op"):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    findings.append(Finding(
                        ANALYSIS,
                        f"{path}:{sub.lineno}: lambda passed into "
                        "add_op(...); graph-attached objects must be "
                        "picklable for the multiprocess backend",
                    ))
    return findings


# ---- rule 5: public API audit ------------------------------------------
def _check_public_api() -> List[Finding]:
    """Every ``repro.__all__`` symbol resolves, is documented, and no
    public attribute escapes the list."""
    import types

    import repro

    findings = []
    exported = getattr(repro, "__all__", [])
    for name in exported:
        if name == "__version__":
            continue
        obj = getattr(repro, name, None)
        if obj is None:
            findings.append(Finding(
                ANALYSIS,
                f"repro.__all__ lists {name!r} but the package has no "
                "such attribute",
            ))
            continue
        if isinstance(obj, types.ModuleType):
            findings.append(Finding(
                ANALYSIS,
                f"repro.__all__ lists the module {name!r}; export the "
                "symbols, not the module",
            ))
            continue
        if not (getattr(obj, "__doc__", None) or "").strip():
            findings.append(Finding(
                ANALYSIS,
                f"public symbol repro.{name} has no docstring; every "
                "exported name must document itself",
            ))
    listed = set(exported)
    for name in vars(repro):
        if name.startswith("_") or name in listed:
            continue
        if isinstance(getattr(repro, name), types.ModuleType):
            continue  # submodules imported as a side effect
        findings.append(Finding(
            ANALYSIS,
            f"repro.{name} is public (no underscore) but missing from "
            "repro.__all__; list it or rename it",
        ))
    return findings


# ---- driver ------------------------------------------------------------
def lint_paths(paths) -> List[Finding]:
    from repro.core.transform.comm_ops import (
        COLLECTIVE_OP_TYPES as registered,
    )

    arena_safe = _arena_safe_types()
    findings = _check_registries(registered)
    findings.extend(_check_public_api())
    for root in paths:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            rel = str(file)
            try:
                tree = ast.parse(file.read_text(), filename=rel)
            except SyntaxError as exc:
                findings.append(Finding(
                    ANALYSIS, f"{rel}: syntax error: {exc}"))
                continue
            findings.extend(_check_kernels(tree, rel, arena_safe))
            findings.extend(
                _check_collective_literals(tree, rel, registered))
            findings.extend(_check_np_random(tree, rel))
            findings.extend(_check_graph_lambdas(tree, rel))
    return findings


def _default_paths() -> List[Path]:
    repo = Path(__file__).resolve().parents[3]
    return [p for p in (repo / "src", repo / "tests") if p.exists()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    paths = [Path(p) for p in argv] or _default_paths()
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    print(f"lint: {len(findings)} finding(s) over "
          f"{', '.join(str(p) for p in paths)}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
