"""S-expression reader and writer for SyGuS/SMT-LIB surface syntax.

The lexer is one token table, `_TOKEN`: a regular expression with one
named alternative per token kind.  A numeral is an optional `-` and
Unicode decimal digits (what `int` reads), a symbol a run of characters
`str.isalnum` accepts or of `_~!@$%^&*-+=<>.?/`, and whitespace what
`str.isspace` accepts but the newline.  A numeral, hex or binary
literal that runs into a symbol character (`7y`, `1.5`, `#x1g`, `#b12`)
is one malformed atom, an error.  Tokens carry their line and column;
hex and binary literals their digit count too, for four bits or one bit
per digit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import SygusError


class LexError(SygusError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


class ParseError(SygusError):
    pass


@dataclass(frozen=True)
class Symbol:
    name: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class IntTok:
    value: int
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class StrTok:
    value: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class HexTok:
    value: int
    digits: int
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinTok:
    value: int
    digits: int
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SList:
    items: tuple
    pos: tuple = field(default=(0, 0), compare=False)


_SYMBOL_CHAR = r"[\w~!@$%^&*\-+=<>.?/]"
_TOKEN = re.compile(r"""
    (?P<space>[^\S\n]+)
  | (?P<newline>\n)
  | (?P<comment>;[^\n]*)
  | (?P<paren>[()])
  | (?P<numeral>-?\d+(?!{S}))
  | (?P<hex>\#x[0-9a-fA-F]+(?!{S}))
  | (?P<bin>\#b[01]+(?!{S}))
  | (?P<malformed>(?:-?\d|\#x[0-9a-fA-F]|\#b[01]){S}*)
  | (?P<symbol>{S}+)
  | (?P<string>"(?:[^"]|"")*"(?!"))
  | (?P<error>.)
""".format(S=_SYMBOL_CHAR), re.VERBOSE)
_LEX_ERRORS = {'"': "unterminated string literal", "#": "unsupported '#' literal"}
_EMPTY = {"#x": "empty hex literal", "#b": "empty binary literal"}


def tokenize(text):
    """Yield (token, pos) pairs: "(" or ")" for a parenthesis, else the atom's
    token, at pos (line, column) from 1; a newline in a string starts a
    line, as one outside does."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space" or kind == "comment":
            continue
        tok, start = m.group(), m.start()
        pos = (line, start - line_start + 1)
        if kind == "newline":
            line, line_start = line + 1, start + 1
        elif kind == "paren":
            yield tok, pos
        elif kind == "symbol":
            yield Symbol(tok, pos), pos
        elif kind == "numeral":
            yield IntTok(int(tok), pos), pos
        elif kind == "string":
            yield StrTok(tok[1:-1].replace('""', '"'), pos), pos
            if "\n" in tok:  # the next token's line starts after the string's last newline
                line, line_start = line + tok.count("\n"), start + tok.rindex("\n") + 1
        elif kind == "hex":
            yield HexTok(int(tok[2:], 16), len(tok) - 2, pos), pos
        elif kind == "bin":
            yield BinTok(int(tok[2:], 2), len(tok) - 2, pos), pos
        elif kind == "malformed":
            raise LexError(f"malformed literal {tok!r}", *pos)
        else:  # a character that starts no token
            why = _EMPTY.get(text[start:start + 2]) or _LEX_ERRORS.get(tok)
            raise LexError(why or f"unexpected character {tok!r}", *pos)


def parse_sexprs(text):
    """Parse a whole input into a list of top-level s-expressions."""
    stack = []
    top = []
    for tok, pos in tokenize(text):
        if tok == "(":
            stack.append((pos, []))
        elif tok == ")":
            if not stack:
                raise ParseError(f"unbalanced ')' at {pos[0]}:{pos[1]}")
            open_pos, items = stack.pop()
            node = SList(tuple(items), open_pos)
            (stack[-1][1] if stack else top).append(node)
        else:
            (stack[-1][1] if stack else top).append(tok)
    if stack:
        pos = stack[-1][0]
        raise ParseError(f"unbalanced '(' at {pos[0]}:{pos[1]}")
    return top


def to_text(sx):
    """Render an s-expression back to concrete syntax."""
    if isinstance(sx, Symbol):
        return sx.name
    if isinstance(sx, IntTok):
        return str(sx.value)
    if isinstance(sx, StrTok):
        return '"' + sx.value.replace('"', '""') + '"'
    if isinstance(sx, HexTok):
        return "#x" + format(sx.value, "0{}x".format(sx.digits))
    if isinstance(sx, BinTok):
        return "#b" + format(sx.value, "0{}b".format(sx.digits))
    if isinstance(sx, SList):
        return "(" + " ".join(to_text(x) for x in sx.items) + ")"
    raise TypeError(f"not an s-expression: {sx!r}")
