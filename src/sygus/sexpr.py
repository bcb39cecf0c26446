"""S-expression reader and writer for SyGuS/SMT-LIB surface syntax.

Tokens carry line/column information so parse errors can point at the
offending input.  Hex literals remember their digit count because the
bit-width of a bitvector literal is four bits per digit.
"""

from __future__ import annotations

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
class SList:
    items: tuple
    pos: tuple = field(default=(0, 0), compare=False)


_SYMBOL_EXTRA = set("~!@$%^&*_-+=<>.?/")


def _is_symbol_char(c):
    return c.isalnum() or c in _SYMBOL_EXTRA


def tokenize(text):
    """Yield (token, kind) pairs; kind is 'atom', '(' or ')'."""
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        pos = (line, col)
        if c == "(":
            yield "(", pos
            i += 1
            col += 1
            continue
        if c == ")":
            yield ")", pos
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            out = []
            while True:
                if j >= n:
                    raise LexError("unterminated string literal", *pos)
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        out.append('"')
                        j += 2
                        continue
                    break
                out.append(text[j])
                j += 1
            col += j + 1 - i
            i = j + 1
            yield StrTok("".join(out), pos), pos
            continue
        if c == "#":
            if i + 1 < n and text[i + 1] == "x":
                j = i + 2
                while j < n and text[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise LexError("empty hex literal", *pos)
                digits = j - i - 2
                yield HexTok(int(text[i + 2 : j], 16), digits, pos), pos
                col += j - i
                i = j
                continue
            raise LexError("unsupported '#' literal", *pos)
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            yield IntTok(int(text[i:j]), pos), pos
            col += j - i
            i = j
            continue
        if _is_symbol_char(c):
            j = i
            while j < n and _is_symbol_char(text[j]):
                j += 1
            yield Symbol(text[i:j], pos), pos
            col += j - i
            i = j
            continue
        raise LexError(f"unexpected character {c!r}", *pos)


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
    if isinstance(sx, SList):
        return "(" + " ".join(to_text(x) for x in sx.items) + ")"
    raise TypeError(f"not an s-expression: {sx!r}")
