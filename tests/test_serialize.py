"""JSON codecs: round trips, validation errors, determinism."""

from __future__ import annotations

import json
import re

import pytest

from conftest import INT_DIGIT_LIMIT, MARKETS_DIR
from manymatch import (
    Matching,
    MarketFormatError,
    load_json,
    market_to_obj,
    matching_to_obj,
    parse_market,
    parse_matching,
)
from manymatch.serialize import dumps


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
