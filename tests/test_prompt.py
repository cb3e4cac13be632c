import random

import pytest

from weakdap.corpus import LabeledUtterance, Turn
from weakdap.prompt import (
    ACT_VERBS,
    EMOTION_ADJECTIVES,
    PromptError,
    PromptSpec,
    render_act_cue,
    render_dialogue_prompt,
    render_emotion_cue,
    render_intent_prompt,
)


class TestEmotionCue:
    def test_happy(self):
        assert render_emotion_cue("Alice", "happiness") == "Alice in a happy mood:"

    def test_neutral(self):
        assert render_emotion_cue("Bob", "neutral") == "Bob in a neutral mood:"

    def test_surprised(self):
        assert render_emotion_cue("Alice", "surprise") == "Alice in a surprised mood:"

    def test_map_total_over_all_emotions(self):
        for emotion, adjective in EMOTION_ADJECTIVES.items():
            assert render_emotion_cue("Alice", emotion) == f"Alice in a {adjective} mood:"

    def test_unknown_emotion(self):
        with pytest.raises(PromptError):
            render_emotion_cue("Alice", "ennui")


class TestActCue:
    def test_directive(self):
        assert render_act_cue("Alice", "Bob", "directive") == "Alice directs Bob:"

    def test_question(self):
        assert render_act_cue("Bob", "Alice", "question") == "Bob asks Alice:"

    def test_inform(self):
        assert render_act_cue("Alice", "Bob", "inform") == "Alice informs Bob:"

    def test_map_total_and_distinct(self):
        cues = {render_act_cue("Alice", "Bob", a) for a in ACT_VERBS}
        assert len(cues) == len(ACT_VERBS)
        assert len(set(ACT_VERBS.values())) == len(ACT_VERBS)

    def test_unknown_act(self):
        with pytest.raises(PromptError):
            render_act_cue("Alice", "Bob", "chitchat")


def five_turn_prefix():
    labels = ["neutral", "happiness", "neutral", "sadness", "neutral"]
    return [Turn(speaker="AB"[i % 2], text=f"utterance {i}", emotion=labels[i])
            for i in range(5)]


class TestDialoguePrompt:
    def test_six_line_prompt_with_bare_cue(self):
        spec = PromptSpec(task="emotion")
        rp = render_dialogue_prompt(five_turn_prefix(), spec, "happiness")
        lines = rp.text.split("\n")
        assert len(lines) == 6
        assert lines[-1] == "Bob in a happy mood:"

    def test_minimal_context(self):
        spec = PromptSpec(task="emotion")
        rp = render_dialogue_prompt(five_turn_prefix()[:1], spec, "anger")
        assert rp.text.split("\n")[1:] == ["Bob in a angry mood:"]

    def test_context_lines_carry_gold_labels_and_text(self):
        spec = PromptSpec(task="emotion")
        rp = render_dialogue_prompt(five_turn_prefix()[:2], spec, "fear")
        lines = rp.text.split("\n")
        assert lines[0] == "Alice in a neutral mood: utterance 0"
        assert lines[1] == "Bob in a happy mood: utterance 1"
        assert lines[2] == "Alice in a fearful mood:"

    def test_pure_rendering(self):
        spec = PromptSpec(task="emotion")
        a = render_dialogue_prompt(five_turn_prefix(), spec, "sadness")
        b = render_dialogue_prompt(five_turn_prefix(), spec, "sadness")
        assert a.text == b.text

    def test_empty_prefix_rejected(self):
        with pytest.raises(PromptError):
            render_dialogue_prompt([], PromptSpec(task="emotion"), "neutral")

    def test_act_task_prompt(self):
        turns = [Turn(speaker="A", text="pass the salt", act="directive")]
        spec = PromptSpec(task="act")
        rp = render_dialogue_prompt(turns, spec, "question")
        assert rp.text == "Alice directs Bob: pass the salt\nBob asks Alice:"


class TestIntentPrompt:
    def _ref(self):
        return LabeledUtterance(id="r", text="pon una alarma", intent="alarm/set_alarm",
                                lang="es")

    def test_twelve_line_prompt(self):
        rp = render_intent_prompt(self._ref(), [f"set an alarm {i}" for i in range(10)])
        lines = rp.text.split("\n")
        assert len(lines) == 12
        assert lines[0] == "English: set an alarm 0 => intent: alarm/set_alarm"
        assert lines[-2] == "Spanish: pon una alarma => intent: alarm/set_alarm"
        assert lines[-1] == "Spanish (new, same intent):"

    def test_empty_example_pool(self):
        rp = render_intent_prompt(self._ref(), [])
        assert len(rp.text.split("\n")) == 2


class TestLineCountProperty:
    def test_line_count_matches_context(self):
        rng = random.Random(5)
        spec = PromptSpec(task="emotion")
        for n in range(1, 9):
            prefix = five_turn_prefix() * 2
            rp = render_dialogue_prompt(prefix[:n], spec, "neutral")
            lines = rp.text.split("\n")
            assert len(lines) == n + 1
            target = "Bob" if prefix[n - 1].speaker == "A" else "Alice"
            assert lines[-1] == f"{target} in a neutral mood:"
