"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
from typing import Optional

__all__ = ["dotted_name", "terminal_name", "contains_call_to"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The identifier an expression ultimately names.

    ``now`` -> ``now``; ``self.free_at`` -> ``free_at``;
    ``queue[0].deadline`` -> ``deadline``; ``times[-1]`` -> terminal of
    ``times``.  Returns None for calls, literals and arithmetic.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return terminal_name(node.value)
    return None


def contains_call_to(node: ast.AST, names: tuple) -> bool:
    """True when any call inside ``node`` targets one of ``names``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            callee = dotted_name(sub.func)
            if callee is not None and callee.split(".")[-1] in names:
                return True
    return False
