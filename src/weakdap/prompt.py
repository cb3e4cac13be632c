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


# The name each speaker of a dialogue goes by in a prompt.
SPEAKER_NAMES = {"A": "Alice", "B": "Bob"}

# Most examples one context-free or in-context prompt holds.
K_EXAMPLES = 10


class PromptError(ValueError):
    pass


@dataclass(frozen=True)
class PromptSpec:
    task: str  # emotion | act | intent
    strategy: str = "lta"  # lta | ata | cta | incontext | random


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    prescribed_label: str


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
        return render_emotion_cue(SPEAKER_NAMES[speaker], label)
    if spec.task == "act":
        other = "B" if speaker == "A" else "A"
        return render_act_cue(SPEAKER_NAMES[speaker], SPEAKER_NAMES[other], label)
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
    return RenderedPrompt(text="\n".join(lines), prescribed_label=prescribed)


def render_context_free_prompt(examples, spec: PromptSpec, speaker: str,
                               label: str) -> RenderedPrompt:
    """Context-free prompt: one line per example text after the speaker's cue
    for the label, then the bare cue. The contrast condition against
    dialogue-context prompting."""
    cue = _cue(spec, speaker, label)
    lines = [f"{cue} {text}" for text in examples]
    lines.append(cue)
    return RenderedPrompt(text="\n".join(lines), prescribed_label=label)


def render_intent_prompt(reference: LabeledUtterance, examples) -> RenderedPrompt:
    """Cross-lingual in-context prompt: English example texts, each rendered
    under the reference's intent, the Spanish reference, then a cue asking
    for a new Spanish utterance."""
    lines = [f"English: {text} => intent: {reference.intent}" for text in examples]
    lines.append(f"Spanish: {reference.text} => intent: {reference.intent}")
    lines.append("Spanish (new, same intent):")
    return RenderedPrompt(text="\n".join(lines), prescribed_label=reference.intent)
