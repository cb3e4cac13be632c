import json
import random

import pytest

from weakdap.corpus import (
    Conversation,
    CorpusError,
    LabelSpace,
    LabeledUtterance,
    Turn,
    from_dict,
    load_jsonl,
    load_label_space,
    majority_index,
    majority_label,
    sample_few_shot,
    to_dict,
    write_jsonl,
)

from conftest import TOY_LABELS, toy_conversation


def dlg_space():
    return LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)


class TestInvariants:
    def test_string_labels_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="string"):
            LabelSpace(task="emotion", labels="abc")
        with pytest.raises(CorpusError, match="string"):
            from_dict(LabelSpace, {"task": "emotion", "labels": "abc"})
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"task": "emotion", "labels": "abc"}))
        with pytest.raises(CorpusError, match="string"):
            load_label_space(path)
        assert from_dict(LabelSpace, {"task": "emotion", "labels": ["a", "b"]}).labels == ("a", "b")

    def test_task_fixes_the_schema(self):
        assert [LabelSpace(task=task, labels=("a",)).schema
                for task in ("emotion", "act", "intent")] == ["dialogue", "dialogue", "utterance"]
        with pytest.raises(CorpusError, match="task must be one of"):
            LabelSpace(task="topic", labels=("a",))

    def test_minimal_record_loads(self, tmp_path):
        line = {"id": "d1", "turns": [
            {"speaker": "A", "text": "Hi", "emotion": "happiness"},
            {"speaker": "B", "text": "Hello", "emotion": "neutral"}]}
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps(line) + "\n")
        part = load_jsonl(p, "dialogue")
        assert len(part) == 1
        assert part[0].n == 2

    def test_non_alternating_speakers_rejected(self, tmp_path):
        line = {"id": "d1", "turns": [
            {"speaker": "A", "text": "Hi"}, {"speaker": "A", "text": "Again"}]}
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps(line) + "\n")
        with pytest.raises(CorpusError, match="non-alternating"):
            load_jsonl(p, "dialogue")

    def test_single_turn_rejected(self):
        with pytest.raises(CorpusError):
            Conversation(id="x", turns=(Turn(speaker="A", text="hi"),))

    def test_single_silver_turn_accepted(self):
        conv = Conversation(id="x", turns=(Turn(speaker="B", text="hi"),),
                            provenance="silver", source_id="g")
        assert conv.n == 1

    def test_empty_text_rejected(self):
        with pytest.raises(CorpusError):
            Turn(speaker="A", text="   ")

    @pytest.mark.parametrize("text", [None, 5])
    def test_non_string_text_rejected(self, text):
        with pytest.raises(CorpusError, match="must be a string"):
            Turn(speaker="A", text=text)
        with pytest.raises(CorpusError, match="must be a string"):
            LabeledUtterance(id="u", text=text, intent="a", lang="en")

    def test_silver_requires_source(self):
        turns = (Turn(speaker="A", text="a"), Turn(speaker="B", text="b"))
        with pytest.raises(CorpusError):
            Conversation(id="x", turns=turns, provenance="silver")

    def test_utterance_lang_check(self):
        with pytest.raises(CorpusError):
            LabeledUtterance(id="u", text="hola", intent="alarm/set_alarm", lang="th")


class TestLoadErrors:
    def test_malformed_line_carries_line_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": "u1", "text": "hi", "intent": "a", "lang": "en"}\nnot json\n')
        with pytest.raises(CorpusError, match=":2:"):
            load_jsonl(p, "utterance")

    def test_null_text_carries_line_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": "u1", "text": "hi", "intent": "a", "lang": "en"}\n'
                     '{"id": "u2", "text": null, "intent": "a", "lang": "en"}\n')
        with pytest.raises(CorpusError, match=":2: .*must be a string"):
            load_jsonl(p, "utterance")

    def test_duplicate_id(self, tmp_path):
        rec = '{"id": "u1", "text": "hi", "intent": "a", "lang": "en"}'
        p = tmp_path / "d.jsonl"
        p.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(CorpusError, match="duplicate id"):
            load_jsonl(p, "utterance")

    def test_unknown_label_named(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": "u1", "text": "hi", "intent": "bogus", "lang": "en"}\n')
        space = LabelSpace(task="intent", labels=("a", "b"))
        with pytest.raises(CorpusError, match="bogus"):
            load_jsonl(p, "utterance", space)

    def test_large_partition_size(self, tmp_path):
        # FBTOD-style Spanish train file: 3,617 records in, 3,617 out
        p = tmp_path / "es.jsonl"
        with open(p, "w") as f:
            for i in range(3617):
                f.write(json.dumps({"id": f"u{i}", "text": f"texto {i}",
                                    "intent": "a", "lang": "es"}) + "\n")
        assert len(load_jsonl(p, "utterance")) == 3617


class TestRoundTrip:
    def test_dialogue_round_trip(self, tmp_path):
        rng = random.Random(3)
        part = [toy_conversation(f"c{i}", rng, n=4) for i in range(20)]
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_jsonl(part, p1)
        write_jsonl(load_jsonl(p1, "dialogue"), p2)
        assert p1.read_text() == p2.read_text()

    def test_utterance_round_trip(self, tmp_path):
        part = [LabeledUtterance(id=f"u{i}", text=f"texto {i}", intent="a", lang="es")
                for i in range(10)]
        p1 = tmp_path / "a.jsonl"
        write_jsonl(part, p1)
        assert [r.id for r in load_jsonl(p1, "utterance")] == [r.id for r in part]

    def test_gold_source_id_survives_a_round_trip(self, tmp_path):
        line = {"id": "t1", "turns": [{"speaker": "A", "text": "Hi", "emotion": "happiness"},
                                      {"speaker": "B", "text": "Hello"}],
                "source_id": "orig-7"}
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        p1.write_text(json.dumps(line) + "\n")
        (record,) = load_jsonl(p1, "dialogue")
        assert (record.provenance, record.source_id) == ("gold", "orig-7")
        write_jsonl([record], p2)
        assert p2.read_text() == p1.read_text()

    def test_line_holds_the_fields_off_their_defaults(self, tmp_path):
        """Fields in order, defaults left out, keys that are no field ignored."""
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        p1.write_text(json.dumps({"lang": "es", "note": "x", "intent": "a", "text": "hola",
                                  "id": "u1", "provenance": "gold"}) + "\n")
        write_jsonl(load_jsonl(p1, "utterance"), p2)
        assert p2.read_text() == '{"id": "u1", "text": "hola", "intent": "a", "lang": "es"}\n'
        silver = LabeledUtterance(id="s1", text="hola", intent="a", lang="es",
                                  provenance="silver", source_id="u1")
        assert to_dict(silver) == {"id": "s1", "text": "hola", "intent": "a", "lang": "es",
                                   "provenance": "silver", "source_id": "u1"}
        space = LabelSpace(task="intent", labels=("a", "b"))
        assert to_dict(space) == {"task": "intent", "labels": ("a", "b")}
        assert from_dict(LabelSpace, {**to_dict(space), "majority": 1}).majority == 1


class TestMajorityLabel:
    def _utts(self, counts):
        out = []
        i = 0
        for label, c in counts.items():
            for _ in range(c):
                out.append(LabeledUtterance(id=f"u{i}", text="x", intent=label, lang="en"))
                i += 1
        return out

    def test_strict_majority(self):
        space = LabelSpace(task="intent", labels=("neutral", "anger"))
        part = self._utts({"neutral": 50, "anger": 3})
        assert majority_label(part, space) == "neutral"

    def test_tie_breaks_to_lowest_index(self):
        space = LabelSpace(task="intent", labels=("inform", "question"))
        part = self._utts({"question": 10, "inform": 10})
        assert majority_label(part, space) == "inform"

    def test_neutral_skewed_dialogues(self):
        rng = random.Random(11)
        part = [toy_conversation(f"c{i}", rng, n=4,
                                 labels=["neutral", "neutral", "neutral",
                                         rng.choice(TOY_LABELS)]) for i in range(30)]
        assert majority_label(part, dlg_space()) == "neutral"

    def test_empty_partition(self):
        with pytest.raises(CorpusError):
            majority_label([], dlg_space())

    def test_majority_index_prefers_the_label_space(self):
        part = self._utts({"question": 10, "inform": 3})
        counted = LabelSpace(task="intent", labels=("inform", "question"))
        assert majority_index(part, counted) == 1
        set_one = LabelSpace(task="intent", labels=("inform", "question"), majority=0)
        assert majority_index([], set_one) == 0


class TestSampleFewShot:
    def _pool(self, counts):
        out = []
        i = 0
        for label, c in counts.items():
            for _ in range(c):
                out.append(LabeledUtterance(id=f"u{i}", text="x", intent=label, lang="en"))
                i += 1
        return out

    def test_every_label_survives_tiny_fraction(self):
        labels = tuple(f"intent{i}" for i in range(12))
        space = LabelSpace(task="intent", labels=labels)
        part = self._pool({l: 5 + i for i, l in enumerate(labels)})
        sampled = sample_few_shot(part, 0.01, seed=4, label_space=space)
        got = {u.intent for u in sampled}
        assert got == set(labels)

    def test_full_fraction_is_identity(self):
        space = LabelSpace(task="intent", labels=("a", "b"))
        part = self._pool({"a": 5, "b": 5})
        for seed in (0, 1, 99):
            assert sample_few_shot(part, 1.0, seed, space) == part

    def test_rounding_rule(self):
        # round(0.01 * 200) = 2 of A, max(1, round(0.03)) = 1 of B
        space = LabelSpace(task="intent", labels=("A", "B"))
        part = self._pool({"A": 200, "B": 3})
        sampled = sample_few_shot(part, 0.01, seed=0, label_space=space)
        counts = {"A": 0, "B": 0}
        for u in sampled:
            counts[u.intent] += 1
        assert counts == {"A": 2, "B": 1}

    def test_deterministic(self):
        space = LabelSpace(task="intent", labels=("a", "b"))
        part = self._pool({"a": 40, "b": 17})
        a = sample_few_shot(part, 0.3, 12, space)
        b = sample_few_shot(part, 0.3, 12, space)
        assert [u.id for u in a] == [u.id for u in b]

    def test_counts_bounded(self):
        space = LabelSpace(task="intent", labels=("a", "b", "c"))
        part = self._pool({"a": 1, "b": 9, "c": 30})
        for frac in (0.05, 0.2, 0.6):
            sampled = sample_few_shot(part, frac, 5, space)
            counts = {}
            for u in sampled:
                counts[u.intent] = counts.get(u.intent, 0) + 1
            for label, total in (("a", 1), ("b", 9), ("c", 30)):
                assert 1 <= counts[label] <= total

    def test_bad_fraction(self):
        space = LabelSpace(task="intent", labels=("a",))
        part = self._pool({"a": 3})
        for frac in (0, -0.5, 1.5):
            with pytest.raises(CorpusError):
                sample_few_shot(part, frac, 0, space)

    def test_dialogue_stratification_covers_rare_label(self):
        # conversations dominated by neutral except a handful carrying sadness
        rng = random.Random(2)
        part = [toy_conversation(f"c{i}", rng, n=4,
                                 labels=["neutral"] * 4) for i in range(95)]
        part += [toy_conversation(f"s{i}", rng, n=4,
                                  labels=["neutral", "sadness", "neutral", "sadness"])
                 for i in range(5)]
        sampled = sample_few_shot(part, 0.05, seed=1, label_space=dlg_space())
        assert any(c.id.startswith("s") for c in sampled)

    def test_unstratified_mode(self):
        rng = random.Random(2)
        part = [toy_conversation(f"c{i}", rng) for i in range(100)]
        sampled = sample_few_shot(part, 0.1, seed=3, label_space=dlg_space(),
                                  stratified=False)
        assert len(sampled) == 10
