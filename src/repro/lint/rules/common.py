"""AST helpers shared by the per-file and whole-program rule packs."""

from __future__ import annotations

import ast

__all__ = ["names_in", "terminal_name"]


def terminal_name(func):
    """Rightmost name of a call target: ``a.b.c(...)`` -> ``"c"``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def names_in(node):
    """Every ``Name`` identifier appearing inside ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

