"""Hygiene rules: the slow-burn bug classes reviewers stop noticing.

* ``hygiene-mutable-default`` — ``def f(x=[])`` shares one list across
  calls; use ``None`` + initialise inside, or a tuple/frozenset.
* ``hygiene-bare-except`` — ``except:`` swallows KeyboardInterrupt,
  SystemExit and typos alike; name the exceptions.
* ``hygiene-assert-validation`` — ``assert`` on a function *parameter*
  in library code validates caller input with a statement that
  disappears under ``python -O``; raise ValueError/TypeError instead.
  Internal-invariant asserts (locals, self state) are idiomatic here
  and stay allowed.
* ``hygiene-module-side-effect`` — module-level calls, loops or
  try/with blocks run at import time; imports must be inert so tooling
  (including this checker's layering pass) can reason about them.
* ``hygiene-shadow-builtin`` — a parameter/variable named ``list``,
  ``id``, ``type``… silently changes the meaning of later code.
* ``hygiene-entity-eq`` — a mutable ``@dataclass`` with an ndarray
  field gets a generated ``__eq__`` that compares every field: ``x in
  items`` and ``items.remove(x)`` then scan field by field (or raise on
  the ambiguous array truth value) and can hit an equal-valued twin.
  Mutable entities need ``eq=False`` (identity); values need
  ``frozen=True``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..astutil import terminal_name
from ..findings import Finding
from ..registry import ModuleContext, rule

_SHADOWED = frozenset(
    {
        "id", "list", "dict", "set", "tuple", "type", "input", "filter",
        "map", "sum", "min", "max", "next", "hash", "bytes", "format",
        "vars", "all", "any", "len", "range", "object", "property",
        "str", "int", "float", "bool", "iter", "zip", "open", "bin",
        "oct", "hex", "abs", "round", "sorted", "repr", "frozenset",
        "slice", "bytearray", "complex", "dir", "print",
    }
)

_ALLOWED_MODULE_IF = ("__name__", "TYPE_CHECKING", "sys.version_info")


@rule("hygiene-mutable-default", "mutable default argument")
def check_mutable_default(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
                and not default.args
                and not default.keywords
            )
            if bad:
                yield ctx.finding(
                    "hygiene-mutable-default",
                    default,
                    f"mutable default in '{node.name}()' is shared "
                    "across calls; default to None and build inside",
                )


@rule("hygiene-bare-except", "bare except swallows everything")
def check_bare_except(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ctx.finding(
                "hygiene-bare-except",
                node,
                "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                "name the exception types",
            )


@rule("hygiene-assert-validation", "assert used to validate caller input")
def check_assert_validation(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params: Set[str] = {
            a.arg
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        }
        params.discard("self")
        params.discard("cls")
        if not params:
            continue
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assert):
                continue
            # Only *bare* parameter references count: `assert x > 0`
            # validates caller input, `assert ctx.module is not None`
            # asserts internal state reachable through a parameter.
            attr_heads = {
                id(n.value)
                for n in ast.walk(stmt.test)
                if isinstance(n, ast.Attribute)
            }
            referenced = {
                n.id
                for n in ast.walk(stmt.test)
                if isinstance(n, ast.Name) and id(n) not in attr_heads
            }
            hit = sorted(params & referenced)
            if hit:
                yield ctx.finding(
                    "hygiene-assert-validation",
                    stmt,
                    f"assert on parameter(s) {', '.join(hit)} of "
                    f"'{node.name}()' vanishes under python -O; raise "
                    "ValueError/TypeError for input validation",
                )


@rule("hygiene-module-side-effect", "module level must be inert")
def check_module_side_effect(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.path.name == "__main__.py":
        return  # `python -m` entry points are scripts by definition
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            yield ctx.finding(
                "hygiene-module-side-effect",
                stmt,
                "module-level call runs at import time; move it under "
                "a function or 'if __name__ == \"__main__\"'",
            )
        elif isinstance(stmt, (ast.For, ast.While, ast.With, ast.Try)):
            yield ctx.finding(
                "hygiene-module-side-effect",
                stmt,
                f"module-level {type(stmt).__name__.lower()} block runs "
                "at import time; wrap it in a function",
            )
        elif isinstance(stmt, ast.If):
            test = ast.unparse(stmt.test)
            if not any(marker in test for marker in _ALLOWED_MODULE_IF):
                yield ctx.finding(
                    "hygiene-module-side-effect",
                    stmt,
                    f"module-level 'if {test}' runs at import time; "
                    "only __name__/TYPE_CHECKING/version guards are "
                    "inert enough",
                )


@rule("hygiene-shadow-builtin", "binding shadows a builtin name")
def check_shadow_builtin(ctx: ModuleContext) -> Iterator[Finding]:
    # Methods are attributes, not scope bindings: `Tensor.sum` /
    # `Gauge.set` mirror an established API without shadowing anything.
    method_ids = {
        id(item)
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                if arg.arg in _SHADOWED:
                    yield ctx.finding(
                        "hygiene-shadow-builtin",
                        arg,
                        f"parameter '{arg.arg}' of '{node.name}()' "
                        "shadows a builtin; rename it",
                    )
            if node.name in _SHADOWED and id(node) not in method_ids:
                yield ctx.finding(
                    "hygiene-shadow-builtin",
                    node,
                    f"function name '{node.name}' shadows a builtin",
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if (
                        isinstance(name, ast.Name)
                        and isinstance(name.ctx, ast.Store)
                        and name.id in _SHADOWED
                    ):
                        yield ctx.finding(
                            "hygiene-shadow-builtin",
                            name,
                            f"assignment to '{name.id}' shadows a "
                            "builtin; rename it",
                        )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name in ast.walk(node.target):
                if isinstance(name, ast.Name) and name.id in _SHADOWED:
                    yield ctx.finding(
                        "hygiene-shadow-builtin",
                        name,
                        f"loop variable '{name.id}' shadows a builtin; "
                        "rename it",
                    )


def _dataclass_options(node: ast.ClassDef):
    """The ``@dataclass(...)`` keywords of a class, or None if it is not one."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if terminal_name(target) != "dataclass":
            continue
        if not isinstance(deco, ast.Call):
            return {}
        return {
            kw.arg: kw.value.value
            for kw in deco.keywords
            if kw.arg and isinstance(kw.value, ast.Constant)
        }
    return None


def _is_ndarray_field(annotation: ast.AST) -> bool:
    """``np.ndarray``, or an Optional/Union/List of one (not a Callable's
    return type: a function field is not an array field)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        return terminal_name(annotation) == "ndarray"
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _is_ndarray_field(annotation.left) or _is_ndarray_field(
            annotation.right
        )
    if isinstance(annotation, ast.Subscript) and terminal_name(
        annotation.value
    ) in ("Optional", "Union", "List", "list"):
        inner = annotation.slice
        parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return any(_is_ndarray_field(part) for part in parts)
    return False


@rule("hygiene-entity-eq", "mutable dataclass with ndarray fields compares by value")
def check_entity_eq(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        options = _dataclass_options(node)
        if options is None:
            continue
        if options.get("frozen") is True or options.get("eq") is False:
            continue
        fields: List[str] = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and _is_ndarray_field(stmt.annotation)
        ]
        if fields:
            yield ctx.finding(
                "hygiene-entity-eq",
                node,
                f"dataclass '{node.name}' compares its ndarray field(s) "
                f"{', '.join(fields)} by value; use eq=False for a mutable "
                "entity or frozen=True for a value",
            )
