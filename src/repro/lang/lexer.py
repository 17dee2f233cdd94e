"""Tokenizer for the loop mini-language: one compiled ``re`` scanner.

:func:`tokenize` matches one alternation of token classes at each
position (:data:`_SCAN`); ``#`` comments run to the end of the line.
An integer is a run of decimal digits (``str.isdecimal``, so ``٣`` is
the integer 3, and ``int()`` reads every one); a name starts with a
letter or ``_`` (``é`` is a name) and goes on with letters, digits and
``_``.  Anything else, a digit ``int()`` cannot read (``²``) included,
is a :class:`LexError` naming the character, its line and its column.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple


class TokenType(enum.Enum):
    FOR = "for"
    TO = "to"
    STEP = "step"
    IDENT = "ident"
    INT = "int"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    EOF = "eof"


KEYWORDS = {"for": TokenType.FOR, "to": TokenType.TO, "step": TokenType.STEP}

#: the one-character tokens, by their character
SINGLE_CHARS = {t.value: t for t in TokenType if len(t.value) == 1}


class Token(NamedTuple):
    type: TokenType
    text: str
    line: int
    col: int


class LexError(ValueError):
    """Raised for characters the mini-language does not understand."""


#: One alternative per token class: whitespace or a ``#`` comment (1),
#: an integer (2), a name (3), a one-character token (4), anything else
#: (5).  ``\d`` is exactly ``str.isdecimal`` (what ``int()`` reads) and
#: ``\w`` exactly ``str.isalnum()`` or ``_``; a name must also start with
#: a letter or ``_``, which :func:`tokenize` checks on its first character.
_SCAN = re.compile(r"([ \t\r\n]+|#[^\n]*)|(\d+)|([^\W\d]\w*)"
                   r"|([=+\-*/()\[\]{},;:])|(.)", re.DOTALL)


def tokenize(source: str) -> list[Token]:
    """All tokens of ``source`` including the trailing EOF token.

    One pass of one compiled scanner; lines count ``\n`` and columns
    count characters, both from 1.  A character no token starts with --
    among them a digit ``int()`` cannot read, such as ``²`` -- raises
    :class:`LexError`.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _SCAN.finditer(source):
        kind, text = m.lastindex, m.group()
        if kind == 1:               # whitespace or a comment
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == 2:
            tokens.append(Token(TokenType.INT, text, line, col))
        elif kind == 4:
            tokens.append(Token(SINGLE_CHARS[text], text, line, col))
        elif kind == 3 and (text[0].isalpha() or text[0] == "_"):
            tokens.append(Token(KEYWORDS.get(text, TokenType.IDENT), text,
                                line, col))
        else:
            raise LexError(f"unexpected character {text[0]!r} at line "
                           f"{line}, col {col}")
    tokens.append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens
