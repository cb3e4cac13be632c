"""Render dialogue contexts and label prescriptions into prefix prompts.

All rendering is pure: identical inputs produce byte-identical prompt text.
Every prompt ends with exactly one cue line carrying no utterance text; the
generator is expected to continue from that cue.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corpus import LabeledUtterance, Turn

EMOTION_ADJECTIVES = {
    "neutral": "neutral",
    "anger": "angry",
    "disgust": "disgusted",
    "fear": "fearful",
    "happiness": "happy",
    "sadness": "sad",
    "surprise": "surprised",
}

ACT_VERBS = {
    "inform": "informs",
    "question": "asks",
    "directive": "directs",
    "commissive": "commits to",
}


class PromptError(ValueError):
    pass


@dataclass(frozen=True)
class PromptSpec:
    task: str  # emotion | act | intent
    strategy: str = "lta"  # lta | ata | cta | incontext
    speaker_names: tuple[str, str] = ("Alice", "Bob")
    control_prefix: str | None = None
    k_examples: int = 10

    def __post_init__(self):
        a, b = self.speaker_names
        if not a or not b or a == b:
            raise PromptError("speaker names must be distinct and non-empty")
        if self.k_examples < 1:
            raise PromptError("k_examples must be >= 1")

    def name_of(self, speaker: str) -> str:
        return self.speaker_names[0] if speaker == "A" else self.speaker_names[1]

    def other_name_of(self, speaker: str) -> str:
        return self.speaker_names[1] if speaker == "A" else self.speaker_names[0]


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    target_speaker: str
    prescribed_label: str
    context_turn_count: int


def render_emotion_cue(speaker_name: str, emotion: str) -> str:
    if emotion not in EMOTION_ADJECTIVES:
        raise PromptError(f"unknown emotion {emotion!r}")
    return f"{speaker_name} in a {EMOTION_ADJECTIVES[emotion]} mood:"


def render_act_cue(speaker_name: str, other_name: str, act: str) -> str:
    if act not in ACT_VERBS:
        raise PromptError(f"unknown act {act!r}")
    return f"{speaker_name} {ACT_VERBS[act]} {other_name}:"


def _cue(spec: PromptSpec, speaker: str, label: str) -> str:
    if spec.task == "emotion":
        return render_emotion_cue(spec.name_of(speaker), label)
    if spec.task == "act":
        return render_act_cue(spec.name_of(speaker), spec.other_name_of(speaker), label)
    raise PromptError(f"no dialogue cue for task {spec.task!r}")


def turn_line(turn: Turn, spec: PromptSpec) -> str:
    """A context turn rendered with its gold label in the cue-style prefix."""
    label = turn.label(spec.task)
    if label is None:
        raise PromptError(f"context turn missing {spec.task} label")
    return f"{_cue(spec, turn.speaker, label)} {turn.text}"


def render_dialogue_prompt(prefix, spec: PromptSpec, prescribed: str) -> RenderedPrompt:
    """Prefix turns rendered one per line, then a bare cue line for the next
    speaker prescribing the given label."""
    prefix = list(prefix)
    if not prefix:
        raise PromptError("empty conversation prefix")
    target = "B" if prefix[-1].speaker == "A" else "A"
    lines = [turn_line(t, spec) for t in prefix]
    lines.append(_cue(spec, target, prescribed))
    return RenderedPrompt(
        text="\n".join(lines),
        target_speaker=target,
        prescribed_label=prescribed,
        context_turn_count=len(prefix),
    )


def render_intent_prompt(reference: LabeledUtterance, examples, spec: PromptSpec) -> RenderedPrompt:
    """Cross-lingual in-context prompt: English same-intent examples, the
    Spanish reference, then a cue asking for a new Spanish utterance."""
    examples = list(examples)
    for ex in examples:
        if ex.intent != reference.intent:
            raise PromptError(
                f"example intent {ex.intent!r} does not match reference {reference.intent!r}")
    lines = []
    if spec.control_prefix:
        lines.append(spec.control_prefix)
    for ex in examples:
        lines.append(f"English: {ex.text} => intent: {ex.intent}")
    lines.append(f"Spanish: {reference.text} => intent: {reference.intent}")
    lines.append("Spanish (new, same intent):")
    return RenderedPrompt(
        text="\n".join(lines),
        target_speaker="A",
        prescribed_label=reference.intent,
        context_turn_count=len(examples) + 1,
    )
