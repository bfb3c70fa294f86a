"""Parser for OASSIS-QL.

Accepts the surface syntax of Figure 2 (keywords are case-insensitive;
braces around the WHERE/SATISFYING bodies are optional, as in the paper)::

    SELECT FACT-SETS
    WHERE
      $w subClassOf* Attraction .
      $x instanceOf $w .
      ...
    SATISFYING
      $y+ doAt $x .
      [] eatAt $z .
      MORE
    WITH SUPPORT = 0.4

``SELECT VARIABLES`` and the ``ALL`` modifier are supported, as is an empty
WHERE clause (``WHERE { }`` or ``WHERE SATISFYING ...``) for the pure
frequent-itemset reduction of Section 4.1.
"""

from __future__ import annotations

from typing import List, Optional

from ..sparql.ast import BGP, Blank, Concrete, PathMod, RelationPattern, Var
from ..sparql.lexer import ParseError, TokenStream, tokenize
from ..sparql.parser import parse_bgp_tokens
from .ast import (
    MetaFact,
    Multiplicity,
    Query,
    SatisfyingClause,
    SatTerm,
    SelectFormat,
)

_WHERE_STOP = frozenset({"SATISFYING"})
_SAT_STOP = frozenset({"MORE", "WITH"})

_MULT_BY_TOKEN = {
    "PLUS": Multiplicity.AT_LEAST_ONE,
    "STAR": Multiplicity.ANY,
    "QMARK": Multiplicity.OPTIONAL,
}


def parse_query(text: str) -> Query:
    """Parse ``text`` into a :class:`~repro.oassisql.ast.Query`.

    Raises :class:`repro.sparql.lexer.ParseError` on malformed input.
    """
    stream = TokenStream(tokenize(text))
    stream.expect_keyword("SELECT")
    select_format = _parse_select_format(stream)
    select_all = False
    if stream.at_keyword("ALL"):
        stream.next()
        select_all = True

    stream.expect_keyword("WHERE")
    where = _parse_where_body(stream)

    stream.expect_keyword("SATISFYING")
    meta_facts, more = _parse_satisfying_body(stream)

    stream.expect_keyword("WITH")
    stream.expect_keyword("SUPPORT")
    _parse_support_operator(stream)
    number = stream.expect("NUMBER")
    threshold = float(number.text)
    if not 0.0 < threshold <= 1.0:
        raise ParseError(f"support threshold must be in (0, 1], got {threshold}", number)
    stream.expect("EOF")

    satisfying = SatisfyingClause(meta_facts, more, threshold)
    return Query(select_format, select_all, where, satisfying)


def _parse_select_format(stream: TokenStream) -> SelectFormat:
    token = stream.peek()
    if stream.at_keyword("FACT-SETS", "FACTSETS"):
        stream.next()
        return SelectFormat.FACT_SETS
    if stream.at_keyword("VARIABLES"):
        stream.next()
        return SelectFormat.VARIABLES
    raise ParseError("expected FACT-SETS or VARIABLES after SELECT", token)


def _parse_where_body(stream: TokenStream) -> Optional[BGP]:
    braced = stream.eat("LBRACE")
    if braced and stream.eat("RBRACE"):
        return None
    if not braced and stream.at_keyword("SATISFYING"):
        return None
    bgp = parse_bgp_tokens(stream, stop_keywords=_WHERE_STOP)
    if braced:
        stream.expect("RBRACE")
    return bgp


def _parse_satisfying_body(stream: TokenStream):
    braced = stream.eat("LBRACE")
    meta_facts: List[MetaFact] = []
    more = False
    while True:
        token = stream.peek()
        if stream.at_keyword("MORE"):
            stream.next()
            more = True
            stream.eat("DOT")
            continue
        if token.kind == "RBRACE" or stream.at_keyword("WITH") or token.kind == "EOF":
            break
        meta_facts.append(_parse_meta_fact(stream))
        if not stream.eat("DOT"):
            token = stream.peek()
            terminating = (
                token.kind in ("RBRACE", "EOF")
                or stream.at_keyword("WITH")
                or stream.at_keyword("MORE")
            )
            if not terminating:
                raise ParseError("expected '.' between meta-facts", token)
    if braced:
        stream.expect("RBRACE")
    if not meta_facts:
        raise ParseError("SATISFYING requires at least one meta-fact", stream.peek())
    return meta_facts, more


def _parse_meta_fact(stream: TokenStream) -> MetaFact:
    subject = _parse_sat_term(stream)
    relation = _parse_sat_relation(stream)
    obj = _parse_sat_term(stream)
    return MetaFact(subject, relation, obj)


def _parse_sat_term(stream: TokenStream) -> SatTerm:
    token = stream.peek()
    if token.kind == "VAR":
        stream.next()
        multiplicity = Multiplicity.EXACTLY_ONE
        nxt = stream.peek()
        if nxt.kind in _MULT_BY_TOKEN:
            stream.next()
            multiplicity = _MULT_BY_TOKEN[nxt.kind]
        return SatTerm(Var(token.text), multiplicity)
    if token.kind == "NAME":
        stream.next()
        return SatTerm(Concrete(token.text))
    if token.kind == "LBRACKET_PAIR":
        stream.next()
        return SatTerm(Blank())
    raise ParseError("expected a variable, name or [] in meta-fact", token)


def _parse_sat_relation(stream: TokenStream) -> RelationPattern:
    token = stream.peek()
    if token.kind == "VAR":
        stream.next()
        return RelationPattern(Var(token.text))
    if token.kind == "LBRACKET_PAIR":
        stream.next()
        return RelationPattern(Blank())
    if token.kind != "NAME":
        raise ParseError("expected a relation in meta-fact", token)
    stream.next()
    return RelationPattern(Concrete(token.text), PathMod.NONE)


def _parse_support_operator(stream: TokenStream) -> None:
    token = stream.peek()
    if token.kind in ("EQ", "GE", "GT"):
        stream.next()
        return
    raise ParseError("expected '=', '>=' or '>' after WITH SUPPORT", token)
