"""Tokenizer tests."""

import pytest

from repro.lang import LexError, TokenType, parse, tokenize
from repro.lang.ast import Const


def kinds(src):
    return [t.type for t in tokenize(src)]


class TestTokenize:
    def test_keywords_vs_idents(self):
        ts = tokenize("for to fortune")
        assert [t.type for t in ts[:3]] == [TokenType.FOR, TokenType.TO,
                                            TokenType.IDENT]
        assert ts[2].text == "fortune"

    def test_numbers(self):
        ts = tokenize("123 4")
        assert ts[0].type == TokenType.INT and ts[0].text == "123"
        assert ts[1].text == "4"

    def test_operators_and_delimiters(self):
        assert kinds("= + - * / ( ) [ ] { } , ; :")[:-1] == [
            TokenType.ASSIGN, TokenType.PLUS, TokenType.MINUS, TokenType.STAR,
            TokenType.SLASH, TokenType.LPAREN, TokenType.RPAREN,
            TokenType.LBRACKET, TokenType.RBRACKET, TokenType.LBRACE,
            TokenType.RBRACE, TokenType.COMMA, TokenType.SEMI, TokenType.COLON,
        ]

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("x")[-1].type is TokenType.EOF

    def test_comments_skipped(self):
        ts = tokenize("x # a comment with for/to\ny")
        assert [t.text for t in ts[:-1]] == ["x", "y"]

    def test_line_and_col_tracking(self):
        ts = tokenize("a\n  b")
        assert (ts[0].line, ts[0].col) == (1, 1)
        assert (ts[1].line, ts[1].col) == (2, 3)

    def test_underscored_identifiers(self):
        ts = tokenize("_x a_1")
        assert ts[0].text == "_x" and ts[1].text == "a_1"

    def test_unknown_char(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_no_spaces_needed(self):
        ts = tokenize("A[2*i,j]=C[i,j]*7;")
        texts = [t.text for t in ts[:-1]]
        assert texts == ["A", "[", "2", "*", "i", ",", "j", "]", "=", "C", "[",
                         "i", ",", "j", "]", "*", "7", ";"]


class TestUnicode:
    """What ``int()`` cannot read is no integer: a digit that is not a
    decimal digit (``²``) is a lexical error where it stands; a letter
    starts a name and a decimal digit of any script is an integer."""

    def test_a_superscript_digit_is_a_lex_error(self):
        with pytest.raises(LexError, match=r"unexpected character '²' at "
                                           r"line 1, col 14"):
            parse("for i = 1 to ² { S1: A[i] = 1; }")

    def test_a_superscript_after_digits_is_a_lex_error(self):
        with pytest.raises(LexError, match="'²' at line 2, col 3"):
            tokenize("x\n12² y")

    def test_a_superscript_inside_a_name_is_part_of_it(self):
        assert [t.text for t in tokenize("x² y")[:-1]] == ["x²", "y"]

    def test_an_accented_letter_is_an_identifier(self):
        ts = tokenize("é = 1")
        assert (ts[0].type, ts[0].text) == (TokenType.IDENT, "é")
        nest = parse("for é = 1 to 3 { S1: A[é] = 1; }")
        assert nest.indices == ("é",)

    def test_an_arabic_indic_digit_is_the_integer(self):
        ts = tokenize("٣")
        assert (ts[0].type, ts[0].text) == (TokenType.INT, "٣")
        nest = parse("for i = 1 to ٣ { S1: A[i] = 1; }")
        assert nest.uppers == (Const(3),)

    def test_columns_count_characters_across_lines_and_comments(self):
        ts = tokenize("a # é²\r\n  é\tb")
        assert [(t.text, t.line, t.col) for t in ts] == [
            ("a", 1, 1), ("é", 2, 3), ("b", 2, 5), ("", 2, 6)]
