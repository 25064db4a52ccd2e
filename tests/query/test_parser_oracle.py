"""The shipped query parser against its per-call-pattern oracle."""

from __future__ import annotations

from typing import Any

import parser_oracle
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import QueryError
from repro.query.parser import parse_query

#: Every text E10 and E22 parse.
BENCHMARK_TEXTS = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
    "how many women over 60 have hypertension",
    "how many men aged 40 to 60 have cancer",
)

# The grammar's own words: every intent cue, synonym and filter phrase, the
# near misses its word boundaries must refuse, and filler.
_INTENT_WORDS = [
    "compare", "difference in", "differ between", "prevalence", "how common", "rate of",
    "how many", "count", "number of", "histogram", "distribution of", "average", "mean",
    "typical", "describe", "summary of", "summarize", "train", "build a model",
    "build model", "predict", "learn", "cluster", "subtype", "subtypes", "stratify",
]
_OUTCOME_WORDS = list(parser_oracle._OUTCOME_SYNONYMS) + [
    "non-stroke", "strokes.", "t2d,", "cancers", "diabetics", "diabetic", "tumors",
]
_FIELD_WORDS = list(parser_oracle._FIELD_SYNONYMS)
_FILTER_WORDS = [
    "over", "older than", "at least", ">", ">=", "under", "younger than", "at most", "<",
    "<=", "aged", "age", "to", "-", "and", "between", "non-smokers", "nonsmoker",
    "non-smoker", "smokers", "smoker", "smoking", "women", "woman", "female", "females",
    "men", "male", "males", "diagnosed with", "diagnosis", "diagnosed with i63.9",
    "diagnosis e11", "i10", "bins", "bin", "rounds", "round", "mlp", "neural", "deep",
    "clusters", "groups", "group",
]
_FILLER = ["patients", "the", "for", "of", "with", "among", "in", "what is", "", "?", "."]
_NUMBER = st.one_of(
    st.integers(0, 120).map(str),
    st.sampled_from(["8", "15", "55", "60", "1.5", "100.25", "007", "3 bins", "4 rounds"]),
)
_WORD = st.one_of(
    st.sampled_from(_INTENT_WORDS),
    st.sampled_from(_OUTCOME_WORDS),
    st.sampled_from(_FIELD_WORDS),
    st.sampled_from(_FILTER_WORDS),
    st.sampled_from(_FILLER),
    _NUMBER,
)
_SEPARATOR = st.sampled_from([" ", " ", " ", "  ", "", ", ", "-", "\t"])


@st.composite
def _texts(draw) -> str:
    words = draw(st.lists(_WORD, max_size=10))
    text = ""
    for word in words:
        text += draw(_SEPARATOR) + word
    if draw(st.booleans()):
        text = text.upper() if draw(st.booleans()) else text.title()
    return text


def _parsed(parse, text: str) -> Any:
    """The vector, or which ``QueryError`` the text stops with."""
    try:
        return parse(text)
    except QueryError as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=600, deadline=None)
@given(_texts())
@example("")
@example("   ")
@example("prevalence of diabetes or stroke")  # a later synonym listed first wins
@example("how many diabetic patients had a cva or strokes")
@example("compare sbp between men and women")
@example("compare bmi of diabetics")
@example("compare ldl")  # no groups
@example("train an mlp model for cancer with 5 rounds")
@example("cluster patients into 4 subtypes")
def test_parser_agrees_with_the_oracle(text: str) -> None:
    assert _parsed(parse_query, text) == _parsed(parser_oracle.parse_query, text)


def test_benchmark_texts_parse_as_the_oracle_does():
    for text in BENCHMARK_TEXTS:
        assert parse_query(text) == parser_oracle.parse_query(text)
