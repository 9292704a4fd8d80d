"""The ``.cat`` grammar module on its own: the built-in category texts,
``Session``'s names and morphisms, and the layering that keeps the grammar
and the provers free of the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adelcat
from adelcat import cli
from adelcat.adelman import WitnessError
from adelcat.catfile import (ParseError, Session, build_category, parse_session, print_spec,
                             tokenize)
from adelcat.provers import CATEGORY_TEXTS, category_by_name
from adelcat.quivercat import EndpointError

SNAKE = ("category s { objects a b c d; arrows alpha: a -> b; beta: b -> c; gamma: c -> d;\n"
         "  relations alpha*beta*gamma = 0; }\n")


@pytest.mark.parametrize("name", sorted(CATEGORY_TEXTS))
def test_built_in_text_round_trips(name):
    spec = parse_session(CATEGORY_TEXTS[name]).category
    assert spec.name == name
    assert parse_session(print_spec(spec)).category == spec
    rebuilt = build_category(parse_session(print_spec(spec)).category)
    built_in = category_by_name(name)
    assert (rebuilt.quiver, rebuilt.relations) == (built_in.quiver, built_in.relations)


def test_grammar_and_provers_import_without_the_cli():
    src = str(Path(adelcat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, adelcat.provers, adelcat.catfile; "
            "from adelcat.catfile import Session; "
            "assert 'adelcat.cli' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_user_sessions_are_not_cached():
    first, second = (Session(parse_session(SNAKE + "object K = (alpha | beta*gamma);"))
                     for _ in range(2))
    assert first.cat is not second.cat and first.objects["K"] is not second.objects["K"]
    with pytest.raises(TypeError):
        first.objects["K"] = second.objects["K"]


def test_cli_session_is_the_catfile_session():
    assert cli.Session is Session and cli.parse_session is parse_session


@pytest.mark.parametrize("lines, message", [
    ("let ab = alpha*beta;\nlet ab = beta*gamma;", r"^4:5: 'ab' already names a let or object$"),
    ("object K = (alpha |);\nobject K = (beta |);", r"^4:8: 'K' already names a let or object$"),
    ("object K = (alpha |);\nlet K = alpha;", r"^4:5: 'K' already names a let or object$"),
    ("let alpha = beta;", r"^3:5: 'alpha' already names an arrow$"),
    ("object b = (alpha |);", r"^3:8: 'b' already names a vertex$"),
    ("object zero = (alpha |);", r"^3:8: 'zero' already names the zero object$"),
], ids=["let-twice", "object-twice", "object-then-let", "let-shadows-arrow",
        "object-shadows-vertex", "object-zero"])
def test_taken_session_name_is_a_parse_error(lines, message):
    with pytest.raises(ParseError, match=message):
        parse_session(SNAKE + lines)


@pytest.mark.parametrize("lines, message", [
    ("let g = f*h;", r"^3:9: unknown arrow 'f'$"),
    ("let x = y;\nlet y = alpha;", r"^3:9: unknown arrow 'y'$"),
    ("object X = (alpha*foo |);", r"^3:19: unknown arrow 'foo'$"),
    ("object X = (id(q) |);", r"^3:16: unknown vertex 'q'$"),
], ids=["let", "let-before-its-let", "object-arrow", "object-identity"])
def test_unknown_name_in_a_session_line_has_position(lines, message):
    with pytest.raises(ParseError, match=message):
        parse_session(SNAKE + lines)


@pytest.mark.parametrize("relation, message", [
    ("alpha*foo = 0", r"^2:19: unknown arrow 'foo'$"),
    ("id(q)*alpha = alpha", r"^2:16: unknown vertex 'q'$"),
], ids=["arrow", "identity"])
def test_unknown_name_in_a_relation_has_position(relation, message):
    with pytest.raises(ParseError, match=message):
        parse_session(f"category s {{ objects a b; arrows alpha: a -> b;\n  relations {relation}; }}")


@pytest.mark.parametrize("block, message", [
    ("objects a;\n  arrows f: a -> b;", r"^2:18: unknown vertex 'b'$"),
    ("objects a b a;", r"^1:26: 'a' already names a vertex$"),
    ("objects a b;\n  arrows f: a -> b; g: b -> a;\n  arrows f: b -> a;",
     r"^3:10: 'f' already names an arrow$"),
], ids=["unknown-endpoint", "vertex-twice", "arrow-twice"])
def test_malformed_quiver_in_a_category_block_has_position(block, message):
    with pytest.raises(ParseError, match=message):
        parse_session(f"category s {{ {block} }}")


def test_building_a_category_checks_each_relation_once(monkeypatch):
    from adelcat import quivercat
    checked = []

    def counting(quiver, rel, check=quivercat._check_relation):
        checked.append(rel)
        check(quiver, rel)

    monkeypatch.setattr(quivercat, "_check_relation", counting)
    five = parse_session(CATEGORY_TEXTS["five"]).category
    cat = build_category(five)
    assert len(five.relations) > 1
    assert checked == list(cat.relations)


def test_object_line_may_use_a_later_let():
    session = Session(parse_session(SNAKE + "object X = (ab | gamma);\nlet ab = alpha*beta;"))
    assert session.objects["X"] == session.parse_object_text("(alpha*beta | gamma)")


def test_morphism_checks_its_endpoints_and_witnesses():
    session = Session(parse_session(SNAKE))
    b, c, ker_beta = map(session.parse_object_text, ("b", "c", "(| beta)"))
    assert session.morphism("beta", b, c).datum.entries == ((session.cat.arrow_lin("beta"),),)
    with pytest.raises(EndpointError, match=r"^expression 'alpha' runs a->b, which does not "
                                            r"match the given objects$"):
        session.morphism("alpha", b, c)
    with pytest.raises(WitnessError, match=r"^'id\(b\)' is not a well-defined morphism "
                                           r"between these objects$"):
        session.morphism("id(b)", b, ker_beta)


@pytest.mark.parametrize("text, message", [
    ("category s {\n\tobjects a b;\n\tarrows f: a -> b\n}\n", "4:1: expected ';', found '}'"),
    ("category s {\r\n\tobjects a b;\r\n\tarrows f: a -> b\r\n}\r\n",
     "4:1: expected ';', found '}'"),
    ("category s {\n  objects a b\n  arrows f: a -> b;\n$ }\n",
     "4:1: unexpected character '$'"),
    ("category s {\n  objects a\x0c b; }\n", "2:12: unexpected character '\\x0c'"),
    ("category s {\n  objects a;\n   ", "3:4: expected objects/arrows/relations, found 'eof'"),
], ids=["tab-indented", "crlf", "bad-character-wins", "form-feed", "eof-after-blanks"])
def test_error_position(text, message):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert str(err.value) == message


def test_unicode_decimal_coefficient():
    spec = parse_session("category s { objects a b; arrows f: a -> b; }\nlet g = ٣*f;\n")
    assert spec.lets == (("g", ((3, ("f",)),)),)


def test_superscript_digit_in_an_argument_is_a_bad_character():
    session = Session(parse_session(SNAKE))
    with pytest.raises(ParseError) as err:
        session.parse_expr_text("2*²beta")
    assert str(err.value) == "1:3: unexpected character '²'"


# Scanner properties: texts drawn from the grammar's own pieces, with blanks,
# CRLF line ends and comments between them and at most one non-ASCII digit.
EXAMPLES = settings(max_examples=400)
_PIECES = st.one_of(
    st.sampled_from(["category", "objects", "arrows", "relations", "let", "object", "id",
                     "emb", "zero", "a", "b", "c", "alpha", "beta", "gamma", "_x1", "K"]),
    st.integers(0, 120).map(str),
    st.sampled_from(["->", "{", "}", ";", ":", "*", "+", "-", "=", "(", ")", "|", ",", ">"]),
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\r"]),
    st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
            max_size=6).map(lambda body: f"#{body}\n"),
)


@st.composite
def _cat_texts(draw):
    text = draw(st.sampled_from(["", SNAKE, "category s {", "2*alpha", "(beta |"])) + "".join(
        draw(st.lists(_PIECES, max_size=30)))
    digit = draw(st.sampled_from(["", "\u0663", "\u00b2", "\u0967", "\u00bd"]))
    at = draw(st.integers(0, len(text)))
    return text[:at] + digit + text[at:]


def _assert_located(err: ParseError, text: str):
    lines = text.split("\n")
    assert 1 <= err.line <= text.count("\n") + 1
    assert 1 <= err.col <= len(lines[err.line - 1]) + 1
    assert str(err).startswith(f"{err.line}:{err.col}: ")


@EXAMPLES
@given(_cat_texts())
def test_any_text_parses_or_raises_a_located_value_error(text):
    session = Session(parse_session(SNAKE + "object K = (alpha | beta*gamma);\n"))
    for read in (lambda t: Session(parse_session(t)), session.parse_expr_text,
                 session.parse_object_text):
        try:
            read(text)
        except ParseError as err:
            _assert_located(err, text)
        except ValueError:
            pass


def test_long_blank_and_comment_runs_scan_to_one_token():
    blanks = "objects" + " \t\r\n" * 250_000
    assert tokenize(blanks) == [("name", "objects", 0), ("eof", "", len(blanks))]
    comment = "#" + "x" * (10**6 - 1)
    assert tokenize(comment) == [("eof", "", 10**6)]
    assert tokenize(comment + "\n;") == [("symbol", ";", 10**6 + 1), ("eof", "", 10**6 + 2)]
