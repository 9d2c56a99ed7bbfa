import json
import random

import pytest

from prioclose.core import (
    BlockDecomposition,
    OrderKind,
    PriorityAlphabet,
    block_decompose,
    flatten,
    format_word,
    is_subword,
    leq,
    leq_block,
    leq_priority,
    max_priority,
    parse_word,
)
from reference import all_words, leq_block_ref, leq_priority_ref, subword_ref

EX = PriorityAlphabet.from_map(
    {"0a": 0, "0b": 0, "1a": 1, "1b": 1, "2a": 2, "2b": 2}
)
FLAT3 = PriorityAlphabet.from_map({"0": 0, "1": 1, "2": 2})
AB = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 1})


def w(text: str):
    return parse_word(text)


class TestAlphabet:
    def test_round_trip_json(self):
        again = PriorityAlphabet.from_json(EX.to_json())
        assert again == EX

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PriorityAlphabet((("a", 0), ("a", 1)))

    def test_rejects_negative_priority(self):
        with pytest.raises(ValueError):
            PriorityAlphabet.from_map({"a": -1})

    def test_rejects_bool_priority(self):
        with pytest.raises(ValueError, match="bad priority"):
            PriorityAlphabet.from_map({"a": True})
        with pytest.raises(ValueError, match="bad priority"):
            PriorityAlphabet.from_json('{"letters": [{"symbol": "a", "priority": true}]}')

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            EX.priority("z")

    def test_letters_of(self):
        assert EX.letters_of(1) == ("1a", "1b")
        assert EX.max_assigned_priority == 2

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            PriorityAlphabet.from_json("{not json")


class TestWords:
    def test_parse_empty(self):
        assert parse_word("") == ()

    def test_parse_tokens(self):
        assert parse_word("0a,1b, 0a") == ("0a", "1b", "0a")

    def test_format_round_trip(self):
        word = ("0a", "1b")
        assert parse_word(format_word(word)) == word

    def test_parse_rejects_blank_token(self):
        with pytest.raises(ValueError):
            parse_word("a,,b")


class TestMaxPriority:
    def test_empty_is_sentinel(self):
        assert max_priority(EX, ()) == -1

    def test_mixed(self):
        assert max_priority(EX, w("0a,1b,0a")) == 1

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            max_priority(EX, ("zz",))


class TestBlockDecompose:
    def test_basic(self):
        d = block_decompose(EX, w("0a,1b,0a,0a,1a,0a,0b"), 1)
        assert d.blocks == (("0a",), ("0a", "0a"), ("0a", "0b"))
        assert d.separators == ("1b", "1a")
        assert d.level == 1

    def test_empty_word(self):
        d = block_decompose(EX, (), 2)
        assert d.blocks == ((),)
        assert d.separators == ()

    def test_rejects_high_letter(self):
        with pytest.raises(ValueError):
            block_decompose(EX, w("2a,0a"), 1)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            BlockDecomposition(((),), ("1a",), 1)


class TestSubword:
    def test_positive(self):
        assert is_subword(w("0"), w("0,1,0"))

    def test_negative(self):
        assert not is_subword(w("0,1,0"), w("1,1,0"))

    def test_empty(self):
        assert is_subword((), w("x"))


class TestPriorityOrder:
    def test_same_class_blocks_drop(self):
        # dropping 1b before matching 0a would outrank it
        assert not leq_priority(EX, w("1a,0a"), w("1a,1b,0a"))

    def test_reordered_match_needed(self):
        abc = PriorityAlphabet.from_map({"a": 2, "b": 1, "c": 0})
        assert leq_priority(abc, w("a,c"), w("a,b,a,c"))

    def test_empty_below_all(self):
        assert leq_priority(EX, (), w("2b"))

    def test_last_letter_must_match(self):
        assert not leq_priority(EX, w("0a"), w("0a,0b"))


class TestBlockOrder:
    def test_low_chain(self):
        assert leq_block(EX, (), w("0a"))
        assert leq_block(EX, w("0a"), w("0a,0b"))

    def test_last_block_anchored(self):
        assert leq_block(EX, w("1b,0a"), w("0a,1b,0a,0a,1a,0a,0b"))
        assert not leq_block(EX, w("1b,0a"), w("0a,1b,0a,0a,1a,0b,0b"))

    def test_separator_identity(self):
        assert leq_block(EX, w("2a,1b,0a"), w("0a,2a,0a,1b,0a,0a,1a,0a,0b"))
        assert not leq_block(EX, w("2a,1b,0a"), w("0a,2b,0a,1b,0a,0a,1a,0a,0b"))

    def test_no_insertion_inside_block(self):
        assert not leq_block(EX, w("1a,1b"), w("1a,2a,1b"))

    def test_digit_pair(self):
        small = w("1,2,0,1,2,1,1,2,1,0")
        large = w("1,2,0,1,0,1,2,1,1,2,1,1,2,1,1,2,1,0")
        assert leq_block(FLAT3, small, large)

    def test_empty_only_below_low_words(self):
        assert leq_block(EX, (), w("0a,0b"))
        assert not leq_block(EX, (), w("1a"))
        assert not leq_block(EX, (), w("2a,2a"))

    def test_priority_mismatch(self):
        assert not leq_block(EX, w("0a"), w("1a,0a"))


class TestFlatten:
    def test_spec_examples(self):
        assert dict(flatten(AB).entries) == {"a": 1, "b": 2, "c": 3}
        assert dict(flatten(EX).entries) == {
            "0a": 1, "0b": 2, "1a": 3, "1b": 4, "2a": 5, "2b": 6,
        }
        assert dict(flatten(PriorityAlphabet.from_map({"x": 5})).entries) == {"x": 1}


class TestDispatch:
    def test_orders_disagree(self):
        u, v = w("1a,0a"), w("1a,1b,0a")
        assert leq(EX, OrderKind.BLOCK, u, v)
        assert not leq(EX, OrderKind.PRIORITY, u, v)
        assert leq(EX, OrderKind.SUBWORD, u, v)


WORDS4 = {
    "EX": (EX, list(all_words(EX.letters[:4], 3))),
    "FLAT3": (FLAT3, list(all_words(FLAT3.letters, 4))),
}


class TestLaws:
    @pytest.mark.parametrize("key", WORDS4)
    def test_reflexive(self, key):
        alphabet, words = WORDS4[key]
        for word in words:
            assert leq_block(alphabet, word, word)
            assert leq_priority(alphabet, word, word)

    @pytest.mark.parametrize("key", WORDS4)
    def test_refines_subword(self, key):
        alphabet, words = WORDS4[key]
        for u in words:
            for v in words:
                if leq_block(alphabet, u, v) or leq_priority(alphabet, u, v):
                    assert is_subword(u, v)

    def test_transitive_sampled(self):
        rng = random.Random(11)
        words = list(all_words(FLAT3.letters, 5))
        for _ in range(4000):
            a, b, c = (rng.choice(words) for _ in range(3))
            if leq_block(FLAT3, a, b) and leq_block(FLAT3, b, c):
                assert leq_block(FLAT3, a, c)
            if leq_priority(FLAT3, a, b) and leq_priority(FLAT3, b, c):
                assert leq_priority(FLAT3, a, c)

    def test_multiplicative_small(self):
        words = list(all_words(FLAT3.letters, 3))
        related = [
            (u, v) for u in words for v in words if leq_block(FLAT3, u, v)
        ]
        rng = random.Random(7)
        pairs = rng.sample(related, min(len(related), 400))
        for u, v in pairs:
            for u2, v2 in rng.sample(related, 40):
                assert leq_block(FLAT3, u + u2, v + v2)

    def test_pumping_small(self):
        for word in all_words(FLAT3.letters, 4):
            for i in range(len(word) + 1):
                for j in range(i, len(word) + 1):
                    u, v, rest = word[:i], word[i:j], word[j:]
                    assert leq_block(FLAT3, word, u + v + v + rest)

    def test_flat_refinement_small(self):
        words = list(all_words(FLAT3.letters, 4))
        for u in words:
            for v in words:
                if u and v and u[-1] == v[-1] and leq_block(FLAT3, u, v):
                    assert leq_priority(FLAT3, u, v)

    def test_flattening_refines(self):
        flat = flatten(EX)
        words = list(all_words(EX.letters[:4], 3))
        for u in words:
            for v in words:
                if leq_block(flat, u, v):
                    assert leq_block(EX, u, v)
                if leq_priority(flat, u, v):
                    assert leq_priority(EX, u, v)


class TestAgainstReference:
    @pytest.mark.parametrize("key", WORDS4)
    def test_block_matches_reference(self, key):
        alphabet, words = WORDS4[key]
        for u in words:
            for v in words:
                assert leq_block(alphabet, u, v) == leq_block_ref(alphabet, u, v)

    @pytest.mark.parametrize("key", WORDS4)
    def test_priority_matches_reference(self, key):
        alphabet, words = WORDS4[key]
        for u in words:
            for v in words:
                assert leq_priority(alphabet, u, v) == leq_priority_ref(
                    alphabet, u, v
                )

    def test_subword_matches_reference(self):
        words = list(all_words(("x", "y"), 5))
        for u in words:
            for v in words:
                assert is_subword(u, v) == subword_ref(u, v)
