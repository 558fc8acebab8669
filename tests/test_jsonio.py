import dataclasses
import enum
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degex.extraction import audit_bad_total, audit_eq3, extract_exhaustive, extract_random
from degex.generators import erdos_renyi, partition_deletion
from degex.jsonio import dumps
from degex.quasirandomness import (
    DiscrepancyReport,
    QrImplicationVerdict,
    check_qr_codegree_implication,
    deviation_111_exact,
    deviation_12_sampled,
)


# ---------------------------------------------------------------------------
# the reference encoder that dumps replaces: copy the report into plain
# JSON values, then json's indent=2 encoder


def to_jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2) + "\n"


def assert_same_as_reference(obj):
    try:
        expected = reference_dumps(obj)
    except TypeError as exc:
        with pytest.raises(TypeError) as raised:
            dumps(obj)
        assert str(raised.value) == str(exc)
    else:
        assert dumps(obj) == expected


class Count(int):
    def __repr__(self):
        return f"Count({int(self)})"


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


class Name(str):
    pass


@dataclasses.dataclass(frozen=True)
class Box:
    value: object
    label: str = "box"


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


# ---------------------------------------------------------------------------
# strategies

BIG = 2**80
ints = st.one_of(st.integers(), st.integers(-BIG, BIG))
fractions = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
texts = st.text(st.characters(codec=None), max_size=8)
int_subclasses = st.one_of(
    st.integers(-5, 5).map(Count), st.sampled_from(list(Colour)), st.booleans()
)
leaves = st.one_of(
    ints, fractions, floats, texts, texts.map(Name), int_subclasses, st.none(),
    st.just(Empty()),
)
int_tuples = st.lists(ints, max_size=6).map(tuple)
int_lists = st.lists(st.one_of(ints, st.booleans(), int_subclasses), max_size=8)
ragged = st.one_of(
    st.lists(st.one_of(int_tuples, st.lists(ints, max_size=4)), max_size=6),
    st.lists(st.one_of(int_tuples, int_lists.map(tuple)), max_size=4),
)
keys = st.one_of(texts, ints, st.booleans(), st.none(), fractions)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.builds(Box, children, texts),
    )


values = st.recursive(
    st.one_of(leaves, int_tuples, int_lists, ragged), containers, max_leaves=30
)

discrepancies = st.builds(
    DiscrepancyReport,
    kind=st.sampled_from(["12", "111"]),
    p=fractions,
    D=fractions,
    eps_star=fractions,
    witness=st.tuples(int_tuples, ragged.map(tuple)),
    mode=st.sampled_from(["exact", "sampled"]),
    trials=st.one_of(st.none(), st.integers(0, 10**6)),
    seed=st.one_of(st.none(), ints),
)
verdicts = st.builds(
    QrImplicationVerdict,
    passed=st.booleans(),
    p=fractions,
    n=st.integers(0, 100),
    eps_star=fractions,
    exceptions=st.integers(0, 100),
    min_degree_eps=st.integers(0, 100),
    bound_float=floats,
    discrepancy=discrepancies,
)


# ---------------------------------------------------------------------------
# tests


class TestDumpsMatchesReference:
    @given(values)
    @settings(max_examples=200, deadline=None)
    @example([True, 1, False, 2])
    @example([(), [], {}, Empty(), ""])
    @example([(1, 2), (), (3,), [4, 5, 6]])
    @example([(1, True), (2, 3)])
    @example({1: "one", "1": "uno", None: [], True: {}})
    @example("\x00\x1f\"\\é \U0001f600")
    def test_values(self, obj):
        assert_same_as_reference(obj)

    @given(verdicts)
    @settings(max_examples=100, deadline=None)
    def test_nested_report_dataclasses(self, verdict):
        assert_same_as_reference(verdict)
        assert_same_as_reference(verdict.discrepancy)

    @pytest.mark.parametrize(
        "obj",
        [np.int64(3), {1, 2}, b"bytes", [1, np.int64(2)], (1, {3}), {"x": b""}, Box(np.int64(4))],
        ids=repr,
    )
    def test_same_type_error(self, obj):
        with pytest.raises(TypeError) as expected:
            reference_dumps(obj)
        with pytest.raises(TypeError) as raised:
            dumps(obj)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value).startswith("cannot serialize ")

    def test_reports_of_every_kind(self):
        G = erdos_renyi(9, 3, Fraction(1, 2), seed=4)
        p, delta = Fraction(1, 2), Fraction(1, 10)
        _, spec = partition_deletion(G, 3)
        reports = [
            extract_exhaustive(G, 2, 6, p, delta),
            extract_random(G, 2, 6, p, delta, budget=5, seed=2),
            audit_eq3(G, 2, 5, p),
            audit_bad_total(G, 2, 5, p, delta),
            check_qr_codegree_implication(G, Fraction(2, 5)),
            deviation_111_exact(erdos_renyi(6, 3, Fraction(1, 2), seed=1), p),
            deviation_12_sampled(erdos_renyi(40, 3, Fraction(1, 2), seed=2), p, trials=20, seed=3),
            spec,
        ]
        for report in reports:
            assert dumps(report) == reference_dumps(report)
