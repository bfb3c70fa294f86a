"""Fuzzing the OASSIS-QL decoder, the trust boundary of ``POST /query``.

A client's query text reaches :func:`parse_query` and
:func:`ensure_valid`.  Whatever the text, they must return a
:class:`Query` or raise :class:`LexError`, :class:`ParseError` or
:class:`ValidationError`; and the gateway must answer a text they reject
with 400.  The inputs are arbitrary text, runs of query-like tokens, and
token-level mutations of the four domains' queries.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayApp, GatewayClient, GatewayClientError, serve_in_thread
from repro.oassisql import Query, ValidationError, ensure_valid, parse_query
from repro.service.simulation import DOMAINS
from repro.sparql.lexer import LexError, ParseError

_DATASETS = {name: build() for name, build in sorted(DOMAINS.items())}
_QUERIES = {name: dataset.query(0.4) for name, dataset in _DATASETS.items()}

#: lumps the mutations work on: whitespace, strings, bracketed names,
#: blanks, variables and names, numbers, single characters
_LUMP = re.compile(r'\s+|"[^"\n]*"|<[^<>\n]*>|\[\s*\]|[$?]?\w[\w\'-]*|\d*\.\d+|.')

_TOKENS = st.sampled_from(
    [
        "SELECT", "FACT-SETS", "VARIABLES", "ALL", "WHERE", "SATISFYING",
        "MORE", "WITH", "SUPPORT", "subClassOf", "instanceOf", "doAt",
        "$x", "$y", "?z", "$", "[]", "[", "]", "{", "}", ".", "*", "+", "?",
        "=", ">=", ">", ",", "#", '"', '"family-friendly"', "<Central Park>",
        "<", "0", "0.0", "0.4", "1", "1.5", "-1", "1e9", ".5", "\n", " ",
    ]
)
_TEXT = st.text(max_size=80)


@st.composite
def _mutated_query(draw):
    """A domain query with up to four lumps deleted, duplicated, swapped,
    replaced or inserted."""
    name = draw(st.sampled_from(sorted(_QUERIES)))
    lumps = _LUMP.findall(_QUERIES[name])
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert"]))
        at = draw(st.integers(0, len(lumps) - 1)) if lumps else 0
        if action == "delete" and lumps:
            del lumps[at]
        elif action == "duplicate" and lumps:
            lumps.insert(at, lumps[at])
        elif action == "swap" and len(lumps) > 1:
            other = draw(st.integers(0, len(lumps) - 1))
            lumps[at], lumps[other] = lumps[other], lumps[at]
        elif action == "replace" and lumps:
            lumps[at] = draw(_TOKENS | _TEXT)
        else:
            lumps.insert(at, draw(_TOKENS | _TEXT))
    return name, "".join(lumps)


_INPUTS = st.one_of(
    st.tuples(st.sampled_from(sorted(_QUERIES)), _TEXT),
    st.tuples(
        st.sampled_from(sorted(_QUERIES)),
        st.lists(_TOKENS, max_size=30).map(" ".join),
    ),
    _mutated_query(),
)


def _decode(text, ontology):
    """The query, or the typed error the decoder rejects ``text`` with."""
    try:
        query = parse_query(text)
        ensure_valid(query, ontology)
    except (LexError, ParseError, ValidationError) as error:
        return error
    return query


def test_the_domain_queries_decode():
    for name, text in _QUERIES.items():
        assert isinstance(_decode(text, _DATASETS[name].ontology), Query), name


@pytest.mark.parametrize("threshold", ["0", "0.0", "1.5"])
def test_a_threshold_out_of_range_is_a_parse_error(threshold):
    # the first input the fuzzing found: SatisfyingClause's own ValueError
    # used to escape the parser
    text = _QUERIES["health"].replace("SUPPORT = 0.4", f"SUPPORT = {threshold}")
    with pytest.raises(ParseError, match="support threshold"):
        parse_query(text)


@given(_INPUTS)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_any_text_decodes_or_raises_a_typed_error(case):
    name, text = case
    outcome = _decode(text, _DATASETS[name].ontology)
    assert isinstance(outcome, (Query, LexError, ParseError, ValidationError))


@pytest.fixture(scope="module")
def travel_gateway():
    app = GatewayApp()
    with serve_in_thread(app) as handle:
        client = GatewayClient(handle.host, handle.port)
        try:
            client.activate("travel")
            yield app, client
        finally:
            client.close()


@given(_INPUTS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_gateway_answers_a_rejected_text_with_400(travel_gateway, case):
    app, client = travel_gateway
    _, text = case
    if isinstance(_decode(text, app.engine.ontology), Query):
        return  # a query the gateway would open a session for
    with pytest.raises(GatewayClientError) as failure:
        client.pose_query(query=text)
    assert (failure.value.status, failure.value.error) == (400, "bad_request")
