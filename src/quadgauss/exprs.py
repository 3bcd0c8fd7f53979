"""Exact-input mini-language for numeric parameters.

Values like 1/(250*sqrt(pi)) must enter at full working precision, not as
truncated decimals, so the CLI accepts a restricted Python expression:
decimal literals (digits and at most one '.'), ``pi``, ``sqrt(expr)``,
unary minus, + - * / and parentheses, with Python's precedence and left
associativity; whitespace, newlines included, is insignificant.  Python's
parser reads the text and a whitelist walk refuses everything else
(1e5, 0x10, 1_000, 2**3, +1, keywords, any other name or call form).
The walk replaces each literal by a Name holding its source text, so
"0.125" is exactly 1/8 and every literal is rounded once.  Evaluation is
bottom-up at context precision with correctly rounded arithmetic, so
evaluating the same tree at digits d and d + 10 agrees to 10^(2-d)
relative.  The module only parses and evaluates: ``parse_number_expr``
gives the checked tree, ``eval_number_expr`` its value.
"""

from __future__ import annotations

import ast
import operator
import re

from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from .precision import PrecisionContext

__all__ = ["parse_number_expr", "eval_number_expr"]

_LITERAL = re.compile(r"\d+\.?\d*|\.\d+")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _guarded(walk, *args):
    """walk(*args), reporting a tree too deep for Python's stack as a syntax error."""
    try:
        return walk(*args)
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply", 0) from None


def _admit(node, src: str, lead: int):
    """Check one subtree against the grammar; literals become Name(text)."""
    offset = lead + node.col_offset
    if isinstance(node, ast.Constant):
        text = ast.get_source_segment(src, node)
        if not _LITERAL.fullmatch(text):
            raise ExprSyntaxError(f"not a decimal literal: {text!r}", offset)
        return ast.copy_location(ast.Name(id=text, ctx=ast.Load()), node)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return node
        if node.id != "sqrt":
            raise UnknownIdentifierError(f"unknown identifier {node.id!r}", offset)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in ("pi", "sqrt"):
            raise UnknownIdentifierError(f"unknown identifier {node.func.id!r}", offset)
        if node.func.id == "sqrt" and len(node.args) == 1 and not node.keywords:
            node.args = [_admit(node.args[0], src, lead)]
            return node
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node.operand = _admit(node.operand, src, lead)
        return node
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        node.left = _admit(node.left, src, lead)
        node.right = _admit(node.right, src, lead)
        return node
    text = ast.get_source_segment(src, node)
    raise ExprSyntaxError(f"unsupported syntax {text!r}", offset)


def parse_number_expr(src: str) -> ast.Expression:
    """Parse a number expression; errors carry the byte offset."""
    if not isinstance(src, str) or not src:
        raise ExprSyntaxError("empty expression", 0)
    # One line without leading blanks, so Python's offsets are ours - lead.
    line = "".join(" " if ch.isspace() else ch for ch in src)
    if not (src.isascii() and line.isprintable()):
        raise ExprSyntaxError("expression must be printable ASCII", 0)
    body = line.lstrip(" ")
    lead = len(line) - len(body)
    try:
        tree = _guarded(ast.parse, body, "<expr>", "eval")
    except SyntaxError as exc:
        raise ExprSyntaxError(exc.msg, lead + (exc.offset or 1) - 1) from None
    tree.body = _guarded(_admit, tree.body, body, lead)
    return tree


def _value(node, mp):
    if isinstance(node, ast.Name):
        # the leading "0": mpmath cannot read ".0" or ".00"
        return +mp.pi if node.id == "pi" else mp.mpf("0" + node.id)
    if isinstance(node, ast.Call):
        arg = _value(node.args[0], mp)
        if arg < 0:
            raise DomainError(f"sqrt of negative value {mp.nstr(arg, 8)}")
        return mp.sqrt(arg)
    if isinstance(node, ast.UnaryOp):
        return -_value(node.operand, mp)
    left, right = _value(node.left, mp), _value(node.right, mp)
    if isinstance(node.op, ast.Div) and right == 0:
        raise DomainError("division by zero in number expression")
    return _BINARY[type(node.op)](left, right)


def eval_number_expr(expr: ast.Expression, ctx: PrecisionContext):
    """Evaluate a tree from ``parse_number_expr`` to an mpf at context precision."""
    return _guarded(_value, expr.body, ctx.mp)

