"""The .catql front end's error contract and its tokens.

PINNED records the ParseError, message and position, that each malformed text
raises.  The tokens and lexical errors of the fuzz mutations are checked
against a reference tokenizer written from the lexical rules of
docs/grammar.ebnf.
"""

import random
import re

import pytest

import test_script
from catql.errors import ParseError
from catql.parsing import parse_query, parse_script
from test_fuzz import mutate

from conftest import read_data


LONG = "7" * 5000
I = "schema S { nodes a; }\ninstance I : S {\n  "
M = "mapping F : S -> T {\n  "
Q = "select x.a as y from t as x"

# (front end, text, str(error), line, column)
PINNED = [
    ('script', 'schema S {\n  nodes a; @ }',
     "unexpected character '@' (line 2, column 12)", 2, 12),
    ('script', 'x "abc',
     'unterminated string literal (line 1, column 3)', 1, 3),
    ('script', '"abc\\"',
     'unterminated string literal (line 1, column 1)', 1, 1),
    ('script', 'x = -²',
     "unexpected character '-' (line 1, column 5)", 1, 5),
    ('script', 'let a -',
     "unexpected character '-' (line 1, column 7)", 1, 7),
    ('script', 'schema S {\n  nodes a; }\nx = ' + LONG + ';',
     'integer literal of 5000 digits is too long (line 3, column 5)', 3, 5),
    ('script', '@ ' + LONG,
     "unexpected character '@' (line 1, column 1)", 1, 1),
    ('script', LONG + ' @',
     'integer literal of 5000 digits is too long (line 1, column 1)', 1, 1),
    ('script', 'show ; @',
     "unexpected character '@' (line 1, column 8)", 1, 8),
    ('script', '; schema S { nodes a; }',
     "expected a declaration keyword, got ';' (line 1, column 1)", 1, 1),
    ('script', 'foo bar;',
     "unknown declaration, got 'foo' (line 1, column 1)", 1, 1),
    ('script', '42',
     'expected a declaration keyword, got 42 (line 1, column 1)', 1, 1),
    ('script', 'show I ascii csv;',
     "expected ';', got 'csv' (line 1, column 14)", 1, 14),
    ('script', 'export I out.sql;',
     "expected file name string, got 'out' (line 1, column 10)", 1, 10),
    ('script', 'export I "a.sql"',
     "expected ';', got None (line 1, column 17)", 1, 17),
    ('script', '# c\n\n  show;',
     "expected name, got ';' (line 3, column 7)", 3, 7),
    ('script', 'schema S {\n  nodes a\n}',
     "expected ';', got '}' (line 3, column 1)", 3, 1),
    ('script', 'schema schema { nodes a; }',
     "expected name, got 'schema' (line 1, column 8)", 1, 8),
    ('script', 'schema S { nodes node; }',
     "expected name, got 'node' (line 1, column 18)", 1, 18),
    ('script', 'schema S { nodes a, ; }',
     "expected name, got ';' (line 1, column 21)", 1, 21),
    ('script', 'schema S nodes a; }',
     "expected '{', got 'nodes' (line 1, column 10)", 1, 10),
    ('script', 'schema S { nodes a; edge f a -> b; }',
     "expected ':', got 'a' (line 1, column 28)", 1, 28),
    ('script', 'schema S { nodes a; attribute v : a -> text; }',
     "expected base type 'string' or 'integer', got 'text' (line 1, column 40)", 1, 40),
    ('script', 'schema S { nodes a; equation a.f = ; }',
     "expected name, got ';' (line 1, column 36)", 1, 36),
    ('script', 'schema S { nodes a; foo }',
     "expected edge/attribute/equation, got 'foo' (line 1, column 21)", 1, 21),
    ('script', 'schema S { nodes a;',
     'expected edge/attribute/equation, got None (line 1, column 20)', 1, 20),
    ('script', 'schema S { nodes a; # no newline',
     'expected edge/attribute/equation, got None (line 1, column 33)', 1, 33),
    ('script', I + 'node a { x y; } }',
     "expected ';', got 'y' (line 3, column 14)", 3, 14),
    ('script', I + 'node a { x; node; } }',
     "expected name, got 'node' (line 3, column 15)", 3, 15),
    ('script', I + 'node a { "x"; } }',
     "expected name, got 'x' (line 3, column 12)", 3, 12),
    ('script', I + 'node a { "a\\"b"; } }',
     'expected name, got \'a"b\' (line 3, column 12)', 3, 12),
    ('script', I + 'node a { x, y; } }',
     "expected ';', got ',' (line 3, column 13)", 3, 13),
    ('script', I + 'node a { -> ; } }',
     "expected name, got '->' (line 3, column 12)", 3, 12),
    ('script', I + 'node a { 1.5; } }',
     "expected ';', got '.' (line 3, column 13)", 3, 13),
    ('script', I + 'node a { ½; ² ; x² ; 1² } }',
     "expected ';', got '²' (line 3, column 25)", 3, 25),
    ('script', I + 'node a { x; ',
     'expected name, got None (line 3, column 15)', 3, 15),
    ('script', I + 'node a { x',
     "expected ';', got None (line 3, column 13)", 3, 13),
    ('script', I + 'node a { x; }',
     'expected node/edge/attribute block, got None (line 3, column 16)', 3, 16),
    ('script', I + 'node a x; }',
     "expected '{', got 'x' (line 3, column 10)", 3, 10),
    ('script', I + 'nodes a { x; } }',
     "expected node/edge/attribute block, got 'nodes' (line 3, column 3)", 3, 3),
    ('script', I + 'edge a.f { x -> ; }\n}',
     "expected name, got ';' (line 3, column 19)", 3, 19),
    ('script', I + 'edge a.f {\n    x y;\n  }\n}',
     "expected '->', got 'y' (line 4, column 7)", 4, 7),
    ('script', I + 'edge a.f { x -> y }\n}',
     "expected ';', got '}' (line 3, column 21)", 3, 21),
    ('script', I + 'edge a.f { x -> y; z }\n}',
     "expected '->', got '}' (line 3, column 24)", 3, 24),
    ('script', I + 'edge a.f { x -> 1.5; }\n}',
     "expected ';', got '.' (line 3, column 20)", 3, 20),
    ('script', I + 'edge a.f { x -> edge; }\n}',
     "expected name, got 'edge' (line 3, column 19)", 3, 19),
    ('script', I + 'edge a.f { x = y; }\n}',
     "expected '->', got '=' (line 3, column 16)", 3, 16),
    ('script', I + 'edge a.f { x -> y;',
     'expected name, got None (line 3, column 21)', 3, 21),
    ('script', I + 'edge a.f { x ->',
     'expected name, got None (line 3, column 18)', 3, 18),
    ('script', I + 'edge a.f { x -> y; } }\n}',
     "expected a declaration keyword, got '}' (line 4, column 1)", 4, 1),
    ('script', I + 'edge a f { x -> y; }\n}',
     "expected '.', got 'f' (line 3, column 10)", 3, 10),
    ('script', I + 'edge a.f x -> y; }\n}',
     "expected '{', got 'x' (line 3, column 12)", 3, 12),
    ('script', I + 'edge a.f { -1 -> 01; x -> "y"; }\n}',
     "expected name, got 'y' (line 3, column 29)", 3, 29),
    ('script', I + 'edge a.f {\n    x -> y;\n    x -> ;\n  }\n}',
     "expected name, got ';' (line 5, column 10)", 5, 10),
    ('script', I + 'attribute a.v { x = ; }\n}',
     "expected literal, got ';' (line 3, column 23)", 3, 23),
    ('script', I + 'attribute a.v { x = y; }\n}',
     "expected literal, got 'y' (line 3, column 23)", 3, 23),
    ('script', I + 'attribute a.v { x -> "u"; }\n}',
     "expected '=', got '->' (line 3, column 21)", 3, 21),
    ('script', I + 'attribute a.v { x = "u" }\n}',
     "expected ';', got '}' (line 3, column 27)", 3, 27),
    ('script', I + 'attribute a.v { x = "u";',
     'expected name, got None (line 3, column 27)', 3, 27),
    ('script', I + 'attribute a.v { x = ',
     'expected literal, got None (line 3, column 23)', 3, 23),
    ('script', I + 'attribute a.v { string = "u"; }\n}',
     "expected name, got 'string' (line 3, column 19)", 3, 19),
    ('script', I + 'attribute a.v { x = 5 6; }\n}',
     "expected ';', got 6 (line 3, column 25)", 3, 25),
    ('script', I + 'attribute a.v { 01 = "a"; -0 = 7; x = -; }\n}',
     "unexpected character '-' (line 3, column 41)", 3, 41),
    ('script', I + 'attribute a.v { x = ' + LONG + '; }\n}',
     'integer literal of 5000 digits is too long (line 3, column 23)', 3, 23),
    ('script', I + 'attribute a.v { x = "p\nq"; y = ; }\n}',
     "expected literal, got ';' (line 4, column 9)", 4, 9),
    ('script', I + 'attribute a.v { x = "a"; "b" = "c"; }\n}',
     "expected name, got 'b' (line 3, column 28)", 3, 28),
    ('script', I + 'attribute a v { x = "a"; }\n}',
     "expected '.', got 'v' (line 3, column 15)", 3, 15),
    ('script', 'instance I S { }',
     "expected ':', got 'S' (line 1, column 12)", 1, 12),
    ('script', 'instance I : S',
     "expected '{', got None (line 1, column 15)", 1, 15),
    ('script', M + 'node a b;\n}',
     "expected '->', got 'b' (line 2, column 10)", 2, 10),
    ('script', 'mapping F : S T { }',
     "expected '->', got 'T' (line 1, column 15)", 1, 15),
    ('script', M + 'edge a.f -> ;\n}',
     "expected name, got ';' (line 2, column 15)", 2, 15),
    ('script', M + 'attribute a.v -> ;\n}',
     "expected name, got ';' (line 2, column 20)", 2, 20),
    ('script', M + 'foo\n}',
     "expected node/edge/attribute mapping, got 'foo' (line 2, column 3)", 2, 3),
    ('script', M + 'node a -> b;',
     'expected node/edge/attribute mapping, got None (line 2, column 15)', 2, 15),
    ('query', 'select from unitcode as x',
     "expected name, got 'from' (line 1, column 8)", 1, 8),
    ('query', Q + ' where x.a = ',
     'expected name, got None (line 1, column 41)', 1, 41),
    ('query', Q + ' where (x.a = 1 or x.b = 2',
     "expected ')', got None (line 1, column 54)", 1, 54),
    ('query', Q + ' extra',
     "trailing input after query, got 'extra' (line 1, column 29)", 1, 29),
    ('query', 'select x.a y from t as x',
     "expected keyword 'as', got 'y' (line 1, column 12)", 1, 12),
    ('query', 'select x.a as y from t x',
     "expected keyword 'as', got 'x' (line 1, column 24)", 1, 24),
    ('query', Q + ' where x.a = 1 and',
     'expected name, got None (line 1, column 46)', 1, 46),
    ('query', Q + ' where "a" "b"',
     "expected '=', got 'b' (line 1, column 39)", 1, 39),
    ('script', 'query q : S { select x.a as y from t as x ',
     "expected '}', got None (line 1, column 43)", 1, 43),
    ('script', 'query q S { select x.a as y from t as x }',
     "expected ':', got 'S' (line 1, column 9)", 1, 9),
    ('script', 'let x = frobnicate a;',
     "unknown let operation, got 'frobnicate' (line 1, column 9)", 1, 9),
    ('script', 'let x = closure a b;',
     "expected closure depth, got 'b' (line 1, column 19)", 1, 19),
    ('script', 'let x = enrich a edge b.c using d nme e;',
     "expected keyword 'name', got 'nme' (line 1, column 35)", 1, 35),
    ('script', 'let x = enrich a edge b c using d name e;',
     "expected '.', got 'c' (line 1, column 25)", 1, 25),
    ('script', 'let x = delta F;',
     "expected name, got ';' (line 1, column 16)", 1, 16),
    ('script', 'let = delta F I;',
     "expected name, got '=' (line 1, column 5)", 1, 5),
    ('script', 'let x delta F I;',
     "expected '=', got 'delta' (line 1, column 7)", 1, 7),
    ('script', 'let x = union a b',
     "expected ';', got None (line 1, column 18)", 1, 18),
    ('script', 'let x = "delta" F I;',
     "expected identifier, got 'delta' (line 1, column 9)", 1, 9),
]


@pytest.mark.parametrize("front_end, text, message, line, column", PINNED,
                         ids=[f"pin{i}" for i in range(len(PINNED))])
def test_pinned_parse_errors(front_end, text, message, line, column):
    parse = parse_script if front_end == "script" else parse_query
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (message, line, column)


# The lexical rules of docs/grammar.ebnf, tried in order at each offset.
REFERENCE_RULES = re.compile(
    r"(?P<SKIP>[ \t\r\n]+|#[^\n]*)"
    r'|(?P<STRING>"(?s:\\.|[^"\\])*")'
    r"|(?P<INT>-?\d+)"
    r"|(?P<IDENT>[^\W\d]\w*)"
    r"|(?P<SYM>->|[{}(),;:.=])"
)


def reference_tokens(text):
    """Every token of text as (kind, value, line, column), ending with EOF;
    or, at the first lexical error, ("error", message, line, column)."""

    def where(offset):
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    tokens, pos = [], 0
    for m in REFERENCE_RULES.finditer(text):
        if m.start() != pos:
            break
        pos, kind, lexeme = m.end(), m.lastgroup, m.group()
        if kind == "SKIP":
            continue
        value = lexeme
        if kind == "STRING":
            value = re.sub(r"\\(.)", r"\1", lexeme[1:-1], flags=re.DOTALL)
        elif kind == "INT":
            try:
                value = int(lexeme)
            except ValueError:
                message = f"integer literal of {len(lexeme)} digits is too long"
                return ("error", message, *where(m.start()))
        tokens.append((kind, value, *where(m.start())))
    if pos < len(text):
        c = text[pos]
        message = "unterminated string literal" if c == '"' else f"unexpected character {c!r}"
        return ("error", message, *where(pos))
    return tokens + [("EOF", None, *where(len(text)))]


def test_tokens_of_fuzz_mutations_match_the_reference():
    rng = random.Random(12)  # the .catql case of test_fuzz
    original = read_data("parent.catql")
    errors = 0
    for i in range(400):
        text = mutate(rng, original)
        expected = reference_tokens(text)
        if expected[0] == "error":
            errors += 1
            _, message, line, column = expected
            with pytest.raises(ParseError) as exc:
                test_script.TestParse.tokens(text)
            got = (str(exc.value), exc.value.line, exc.value.column)
            assert got == (f"{message} (line {line}, column {column})", line, column), (i, text)
        else:
            assert test_script.TestParse.tokens(text) == expected, (i, text)
    assert errors >= 50  # 89 of the 400 fail to lex
