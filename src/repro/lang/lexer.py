"""Lexer for the C dialect with the ``vpfloat`` extension.

Tokenizes the C subset the paper's examples use (Listings 2-4): scalar
types, pointers, arrays, control flow, function definitions, plus:

- the ``vpfloat`` keyword and format names (``mpfr``, ``unum``, ...);
- FP literal suffixes ``v`` (unum literal) and ``y`` (mpfr literal),
  paper §III-A4;
- ``#pragma omp ...`` lines surfaced as PRAGMA tokens for OpenMP support.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


class SourceError(Exception):
    """A compile-time diagnostic with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_LIT = "integer literal"
    FLOAT_LIT = "floating literal"
    STRING_LIT = "string literal"
    PUNCT = "punctuation"
    PRAGMA = "pragma"
    EOF = "end of file"


KEYWORDS = frozenset({
    "void", "int", "unsigned", "long", "char", "float", "double",
    "vpfloat", "for", "while", "do", "if", "else", "return", "break",
    "continue", "sizeof", "const", "static", "extern", "struct",
})

#: Format names recognized inside vpfloat<...>; parsed as identifiers but
#: listed here for diagnostics.  The grammar admits all of them; only
#: SUPPORTED_FORMATS have a backend.
VPFLOAT_FORMATS = ("mpfr", "unum", "bfloat16")
SUPPORTED_FORMATS = ("mpfr", "unum")

# Longest-match punctuation table.
_PUNCTUATION = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=",
    "/=", "%=", "&=", "|=", "^=", "->", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int
    #: For numeric literals: the suffix letter ('f', 'v', 'y', 'u', 'l', '').
    suffix: str = ""

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}@{self.line}:{self.column})"


class Lexer:
    """Single-pass tokenizer with // and /* */ comment support."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str) -> SourceError:
        return SourceError(message, self.line, self.column)

    # ------------------------------------------------------------ #

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.source[self.pos:self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += n
        return text

    def _skip_trivia(self) -> Optional[Token]:
        """Skip whitespace/comments; returns a PRAGMA token when one is seen."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in (" ", "\t", "\r", "\n"):
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.source):
                        raise SourceError("unterminated block comment",
                                          start_line, start_col)
                    self._advance()
                self._advance(2)
            elif ch == "#":
                line, col = self.line, self.column
                text = []
                while self.pos < len(self.source) and self._peek() != "\n":
                    text.append(self._advance())
                directive = "".join(text).strip()
                if directive.startswith("#pragma"):
                    return Token(TokenKind.PRAGMA,
                                 directive[len("#pragma"):].strip(), line, col)
                # Other directives (e.g. #include) are ignored: the dialect
                # has no preprocessor; headers are resolved by the driver.
            else:
                return None
        return None

    # ------------------------------------------------------------ #

    def tokens(self) -> List[Token]:
        result: List[Token] = []
        while True:
            token = self.next_token()
            result.append(token)
            if token.kind is TokenKind.EOF:
                return result

    def next_token(self) -> Token:
        pragma = self._skip_trivia()
        if pragma is not None:
            return pragma
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", self.line, self.column)

        line, column = self.line, self.column
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            return self._lex_identifier(line, column)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        for punct in _PUNCTUATION:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, line, column)
        raise self.error(f"unexpected character {ch!r}")

    def _lex_identifier(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        is_float = False
        # NB: membership tests against string literals must exclude the
        # empty string _peek() returns at EOF ('"" in "xX"' is True).
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() in set("0123456789abcdefABCDEF"):
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == "." and self._peek(1) != ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in ("e", "E") and (
                self._peek(1).isdigit()
                or (self._peek(1) in ("+", "-") and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() in ("+", "-"):
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        text = self.source[start:self.pos]
        suffix = ""
        if self._peek() and self._peek().lower() in ("f", "v", "y", "u", "l"):
            suffix = self._advance().lower()
            if suffix in ("f", "v", "y"):
                is_float = True
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        return Token(kind, text, line, column, suffix)

    def _lex_string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self.pos >= len(self.source):
                raise SourceError("unterminated string literal", line, column)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\\":
                escape = self._advance()
                chars.append({"n": "\n", "t": "\t", "0": "\0",
                              "\\": "\\", '"': '"'}.get(escape, escape))
            else:
                chars.append(ch)
        return Token(TokenKind.STRING_LIT, "".join(chars), line, column)


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: full token stream including the EOF token."""
    return Lexer(source).tokens()
