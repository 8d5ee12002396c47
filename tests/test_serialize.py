"""JSON codecs: round trips, validation errors, determinism."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import INT_DIGIT_LIMIT, MARKETS_DIR
from manymatch import (
    Matching,
    MarketFormatError,
    Preference,
    Profile,
    firm,
    mask_of,
    load_json,
    market_to_obj,
    matching_to_obj,
    parse_market,
    parse_matching,
    worker,
)
from manymatch.serialize import _unmatched_names, dumps


def load(name: str):
    return json.loads((MARKETS_DIR / name).read_text())


class TestMarketRoundTrip:
    def test_example_files_match_fixtures(self, ex1, ex2):
        assert parse_market(load("example1.json")) == ex1.profile
        assert parse_market(load("example2.json")) == ex2.profile

    def test_parse_serialize_round_trip(self, ex1):
        obj = market_to_obj(ex1.profile)
        assert parse_market(obj) == ex1.profile
        assert market_to_obj(parse_market(obj)) == obj

    def test_serialization_is_byte_deterministic(self, ex1):
        assert dumps(market_to_obj(ex1.profile)) == dumps(market_to_obj(ex1.profile))

    def test_agents_without_prefs_get_empty_lists(self):
        obj = {
            "firms": ["a"],
            "workers": ["x", "y"],
            "firm_prefs": {},
            "worker_prefs": {"x": [["a"]]},
        }
        profile = parse_market(obj)
        assert profile.firm_prefs[0].ranked == ()
        assert profile.worker_prefs[0].ranked == (1,)


class TestLoadJson:
    def test_reads_the_shipped_market(self, ex1):
        assert parse_market(load_json(str(MARKETS_DIR / "example1.json"))) == ex1.profile

    @pytest.mark.parametrize(
        "text",
        [
            '{"firms": ["f1"], "workers": ["w1", "w2"], "worker_prefs": {},'
            ' "firm_prefs": {"f1": [["w1"]], "f1": [["w2"]]}}',
            '{"assignment": {"f1": ["w1"], "f1": ["w2"]}}',
        ],
        ids=["market", "matching"],
    )
    def test_repeated_key_is_refused(self, tmp_path, text):
        # json.load alone would keep the last "f1" and drop the first.
        path = tmp_path / "dup.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MarketFormatError, match=re.escape(f"{path}: duplicate key 'f1'")):
            load_json(str(path))

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="this interpreter reads integers of any length")
    def test_number_past_the_digit_limit_is_refused(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"firms": [' + "9" * (INT_DIGIT_LIMIT + 1) + "]}", encoding="utf-8")
        with pytest.raises(MarketFormatError, match=re.escape(f"{path} holds a number too long to read")):
            load_json(str(path))


class TestMarketErrors:
    def base(self):
        return {
            "firms": ["f1"],
            "workers": ["w1", "w2"],
            "firm_prefs": {"f1": [["w1"]]},
            "worker_prefs": {"w1": [["f1"]], "w2": []},
        }

    def test_market_not_an_object(self):
        with pytest.raises(MarketFormatError, match="market must be a JSON object"):
            parse_market([self.base()])

    def test_missing_side(self):
        with pytest.raises(MarketFormatError):
            parse_market({"workers": []})

    def test_duplicate_names(self):
        obj = self.base()
        obj["workers"] = ["w1", "w1"]
        with pytest.raises(MarketFormatError):
            parse_market(obj)

    def test_cross_side_collision(self):
        obj = self.base()
        obj["workers"] = ["f1", "w2"]
        with pytest.raises(MarketFormatError):
            parse_market(obj)

    def test_unknown_partner(self):
        obj = self.base()
        obj["firm_prefs"]["f1"] = [["w9"]]
        with pytest.raises(MarketFormatError, match="w9"):
            parse_market(obj)

    def test_undeclared_agent_key(self):
        obj = self.base()
        obj["firm_prefs"]["f2"] = []
        with pytest.raises(MarketFormatError, match="f2"):
            parse_market(obj)

    def test_empty_set(self):
        obj = self.base()
        obj["firm_prefs"]["f1"] = [[]]
        with pytest.raises(MarketFormatError):
            parse_market(obj)

    def test_repeated_member(self):
        obj = self.base()
        obj["firm_prefs"]["f1"] = [["w1", "w1"]]
        with pytest.raises(MarketFormatError):
            parse_market(obj)

    def test_set_ranked_twice(self):
        obj = self.base()
        obj["firm_prefs"]["f1"] = [["w1", "w2"], ["w2", "w1"]]
        with pytest.raises(MarketFormatError):
            parse_market(obj)


class TestMatchingFiles:
    def test_round_trip(self, ex1):
        obj = matching_to_obj(ex1.mu_f, ex1.profile)
        assert obj["assignment"] == {"f1": ["w1", "w2"], "f2": ["w3", "w5"], "f3": ["w2", "w4"]}
        assert obj["unmatched"] == ["w6"]
        assert parse_matching(obj, ex1.profile) == ex1.mu_f

    def test_unmatched_lists_both_sides(self, ex1):
        m = Matching((0, ex1.mu_f.assign[1], 0), 6)
        obj = matching_to_obj(m, ex1.profile)
        assert obj["unmatched"] == ["f1", "f3", "w1", "w2", "w4", "w6"]

    def test_missing_firms_default_to_empty(self, ex1):
        m = parse_matching({"assignment": {"f2": ["w3", "w5"]}}, ex1.profile)
        assert m.assign == (0, ex1.mu_f.assign[1], 0)

    def test_inconsistent_unmatched_rejected(self, ex1):
        obj = matching_to_obj(ex1.mu_f, ex1.profile)
        obj["unmatched"] = []
        with pytest.raises(MarketFormatError):
            parse_matching(obj, ex1.profile)

    def test_unknown_names_rejected(self, ex1):
        with pytest.raises(MarketFormatError):
            parse_matching({"assignment": {"nope": []}}, ex1.profile)
        with pytest.raises(MarketFormatError):
            parse_matching({"assignment": {"f1": ["nope"]}}, ex1.profile)

    def test_double_assignment_rejected(self, ex1):
        with pytest.raises(MarketFormatError):
            parse_matching({"assignment": {"f1": ["w1", "w1"]}}, ex1.profile)


def test_fixture_profile_matches_shipped_file_bytes(ex1):
    # The shipped example file and the in-code fixture serialize identically.
    assert dumps(load("example1.json")) == dumps(market_to_obj(ex1.profile))


# --- the one-pass reader against the checks it replaced ---


def _reference_names(value, where):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MarketFormatError(f"{where} must be a list of strings")
    if len(set(value)) != len(value):
        raise MarketFormatError(f"{where} repeats a name")
    return value


def _reference_mask(names, index, owner):
    try:
        return mask_of(index[x] for x in names)
    except KeyError as e:
        raise MarketFormatError(f"{owner}: unknown name {e.args[0]!r}") from None


def reference_parse_market(obj):
    """`parse_market` as it was before ranked sets were read in one pass."""
    if not isinstance(obj, dict):
        raise MarketFormatError("market must be a JSON object")
    firms = _reference_names(obj.get("firms"), "'firms'")
    workers = _reference_names(obj.get("workers"), "'workers'")
    if set(firms) & set(workers):
        raise MarketFormatError("firm and worker names must not collide")

    def side_prefs(key, owners, partners, make_owner):
        index = {name: i for i, name in enumerate(partners)}
        raw = obj.get(key, {})
        if not isinstance(raw, dict):
            raise MarketFormatError(f"'{key}' must be an object")
        unknown = set(raw) - set(owners)
        if unknown:
            raise MarketFormatError(f"'{key}' mentions undeclared agents: {sorted(unknown)}")
        prefs = []
        for i, name in enumerate(owners):
            entries = raw.get(name, [])
            if not isinstance(entries, list):
                raise MarketFormatError(f"{name}: the ranking must be a list of ranked sets")
            ranked = {}
            for entry in entries:
                mask = _reference_mask(_reference_names(entry, f"{name}: a ranked set"), index, name)
                if not mask:
                    raise MarketFormatError(f"{name}: a ranked set is empty")
                if mask in ranked:
                    raise MarketFormatError(f"{name}: set {sorted(entry)} ranked twice")
                ranked[mask] = None
            prefs.append(Preference(make_owner(i), tuple(ranked)))
        return tuple(prefs)

    return Profile(
        len(firms),
        len(workers),
        side_prefs("firm_prefs", firms, workers, firm),
        side_prefs("worker_prefs", workers, firms, worker),
        tuple(firms),
        tuple(workers),
    )


def reference_parse_matching(obj, profile):
    """`parse_matching` as it was before assigned sets were read in one pass."""
    if not isinstance(obj, dict):
        raise MarketFormatError("matching must be a JSON object")
    assignment = obj.get("assignment")
    if not isinstance(assignment, dict):
        raise MarketFormatError("'assignment' must be an object")
    findex = {name: i for i, name in enumerate(profile.firm_names)}
    windex = {name: i for i, name in enumerate(profile.worker_names)}
    assign = [0] * profile.n_firms
    for name, members in assignment.items():
        if name not in findex:
            raise MarketFormatError(f"unknown firm {name!r} in assignment")
        assign[findex[name]] = _reference_mask(
            _reference_names(members, f"{name}: assigned workers"), windex, name
        )
    m = Matching(tuple(assign), profile.n_workers)
    if "unmatched" in obj:
        if sorted(_reference_names(obj["unmatched"], "'unmatched'")) != sorted(_unmatched_names(m, profile)):
            raise MarketFormatError("'unmatched' is inconsistent with the assignment")
    return m


def _outcome(parse, *args):
    try:
        return parse(*args)
    except Exception as e:  # the type and the message must both match
        return type(e), str(e)


# One-letter names, so a string entry iterates over names of the market.
FIRMS = ["a", "b"]
WORKERS = ["x", "y", "z"]
BAD_MEMBERS = st.one_of(
    st.sampled_from(FIRMS + WORKERS + ["q", "xy", ""]),  # a name of the wrong side, or of no one
    st.integers(-2, 2),
    st.none(),
    st.just([]),
    st.just({}),
    st.just(["x"]),
)
NOT_LISTS = st.one_of(
    st.tuples(st.sampled_from(FIRMS + WORKERS)),
    st.text(alphabet="abxyz", max_size=3),
    st.integers(),
    st.none(),
    st.dictionaries(st.sampled_from(FIRMS + WORKERS), st.none(), max_size=2),
)


def name_sets(partners: list[str]):
    """Mostly lists of distinct partner names; sometimes a repeat, a bad
    member, an entry that is not a list, or an empty list."""
    names = st.lists(st.sampled_from(partners), min_size=1, unique=True)
    with_repeat = st.lists(st.sampled_from(partners), min_size=2, max_size=4)
    with_bad_member = st.tuples(names, BAD_MEMBERS, st.integers(0, 3)).map(
        lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2]:]
    )
    kinds = [names] * 12 + [with_repeat, with_bad_member, with_bad_member, NOT_LISTS, st.just([])]
    return st.sampled_from(kinds).flatmap(lambda kind: kind)


@st.composite
def market_objects(draw):
    def side(owners, partners):
        return {name: draw(st.lists(name_sets(partners), max_size=4)) for name in owners if draw(st.booleans())}

    return {
        "firms": FIRMS,
        "workers": WORKERS,
        "firm_prefs": side(FIRMS, WORKERS),
        "worker_prefs": side(WORKERS, FIRMS),
    }


@st.composite
def matching_objects(draw):
    owners = st.lists(st.sampled_from(FIRMS + ["c"] * draw(st.booleans())), unique=True)
    obj = {"assignment": {name: draw(name_sets(WORKERS)) for name in draw(owners)}}
    if draw(st.booleans()):
        obj["unmatched"] = draw(name_sets(FIRMS + WORKERS))
    return obj


VALID_MARKET = {
    "firms": FIRMS,
    "workers": WORKERS,
    "firm_prefs": {"a": [["x", "y"], ["x"], ["y"]], "b": [["z"]]},
    "worker_prefs": {"x": [["a"]], "y": [["a", "b"]], "z": [["b"]]},
}


class TestOnePassReader:
    """Ranked and assigned sets are read in one pass; the result, or the
    error and its message, must be those of the checks run one by one."""

    @settings(max_examples=400)
    @given(obj=market_objects())
    def test_parse_market_equals_the_reference(self, obj):
        assert _outcome(parse_market, obj) == _outcome(reference_parse_market, obj)

    @settings(max_examples=400)
    @given(obj=matching_objects())
    def test_parse_matching_equals_the_reference(self, obj):
        profile = parse_market(VALID_MARKET)
        assert _outcome(parse_matching, obj, profile) == _outcome(reference_parse_matching, obj, profile)

    def test_list_subclass_is_read(self):
        class Names(list):
            pass

        obj = dict(VALID_MARKET, firm_prefs={"a": [Names(["y", "x"])]})
        assert parse_market(obj) == reference_parse_market(obj)
