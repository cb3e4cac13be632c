"""Synthetic benchmark data, built from one seed.

Every label owns a few pseudo-words and shares "bridge" words with its two
neighbours on a ring of labels. A share of the sentences carries no owned
word at all, only bridge words, so even a perfect classifier confuses some
neighbouring labels and validation macro-F1 stays visibly below 1.0.

Mock templates are drawn from the same per-label distribution, without
bridge-only sentences, and are unique across labels, so the label a template
was planted under can be read back from its text alone (`template_labels`).

The words are fixed; the seed picks labels and sentences. Sizes are fixed per
call: a different seed never changes how many records, turns or templates
there are.
"""
from __future__ import annotations

import random

from weakdap.corpus import Conversation, Dataset, LabelSpace, LabeledUtterance, Turn

EMOTION_LABELS = ("neutral", "anger", "happiness", "sadness")
INTENT_LABELS = (
    "book_flight", "cancel_order", "check_balance", "find_restaurant", "play_music",
    "report_issue", "reset_password", "set_alarm", "track_package", "transfer_money",
    "weather_query", "call_contact",
)

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "tr", "pl", "ch")
_VOWELS = ("a", "e", "i", "o", "u", "ia", "ue")
_CODAS = ("", "", "", "n", "s", "r", "l")

# Every AMBIGUOUS_EVERY-th gold sentence is built from bridge words only (no
# owned word). A fixed share, not a random one, keeps task difficulty the same
# for every seed.
AMBIGUOUS_EVERY = 5
# Probability that a dialogue turn repeats the previous turn's label.
PERSIST = 0.5


class Lexicon:
    """Per-label owned words, ring bridges and shared filler words."""

    def __init__(self, labels, rng: random.Random, own: int, bridge: int, filler: int):
        self.labels = tuple(labels)
        words = _unique_words(rng, len(labels) * (own + bridge) + filler)
        self.own = {}
        for i, label in enumerate(self.labels):
            self.own[label] = words[i * own:(i + 1) * own]
        base = len(labels) * own
        # bridge[i] is shared by labels i and i+1 (mod C)
        bridges = [words[base + i * bridge: base + (i + 1) * bridge] for i in range(len(labels))]
        self.bridge = {}
        for i, label in enumerate(self.labels):
            self.bridge[label] = (bridges[i - 1], bridges[i])
        self.filler = words[len(labels) * (own + bridge):]

    def sentence(self, label: str, rng: random.Random, length: int,
                 ambiguous: bool = False) -> str:
        left, right = self.bridge[label]
        if ambiguous:
            words = rng.sample(left, 1) + rng.sample(right, 1)
        else:
            words = rng.sample(self.own[label], 2) + [rng.choice(left + right)]
        words += [rng.choice(self.filler) for _ in range(length - len(words))]
        rng.shuffle(words)
        return " ".join(words)


def _unique_words(rng: random.Random, n: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < n:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                       for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _templates(lexicon: Lexicon, rng: random.Random, per_label: int, length: int,
               taken=()) -> dict[str, list[str]]:
    """per_label distinct sentences per label, none shared with another label
    or with `taken` (gold texts)."""
    used = set(taken)
    out = {}
    for label in lexicon.labels:
        tpls = []
        while len(tpls) < per_label:
            text = lexicon.sentence(label, rng, length)
            if text not in used:
                used.add(text)
                tpls.append(text)
        out[label] = tpls
    return out


def template_labels(templates: dict[str, list[str]]) -> dict[str, str]:
    """Template text -> the label it was planted under."""
    return {text: label for label, tpls in templates.items() for text in tpls}


def _conversations(prefix: str, n: int, lexicon: Lexicon, rng: random.Random,
                   turns: int) -> list[Conversation]:
    weights = [2.0] + [1.0] * (len(lexicon.labels) - 1)  # neutral is the majority
    out = []
    k = 0
    for c in range(n):
        conv = []
        label = None
        for i in range(turns):
            if label is None or rng.random() >= PERSIST:
                label = rng.choices(lexicon.labels, weights)[0]
            text = lexicon.sentence(label, rng, 6, ambiguous=k % AMBIGUOUS_EVERY == 0)
            conv.append(Turn(speaker="AB"[i % 2], text=text, emotion=label))
            k += 1
        out.append(Conversation(id=f"{prefix}{c}", turns=tuple(conv)))
    return out


def emotion_task(seed: int, parts: int, n_train: int, n_val: int, turns: int = 6,
                 templates_per_label: int = 40):
    """`parts` independent 4-label emotion dialogue datasets and one set of
    mock templates shared by them; returns (datasets, templates)."""
    lexicon = Lexicon(EMOTION_LABELS, random.Random("emotion"), own=10, bridge=6, filler=12)
    rng = random.Random(f"emotion|{seed}")
    label_space = LabelSpace(task="emotion", labels=EMOTION_LABELS, majority=0)
    datasets = [Dataset(label_space=label_space,
                        train=_conversations("tr", n_train, lexicon, rng, turns),
                        validation=_conversations("va", n_val, lexicon, rng, turns))
                for _ in range(parts)]
    gold = {t.text for d in datasets for conv in d.train for t in conv.turns}
    return datasets, _templates(lexicon, rng, templates_per_label, 6, gold)


def intent_task(seed: int, parts: int, per_intent_train: int, per_intent_val: int,
                per_intent_en: int = 8, templates_per_label: int = 24):
    """`parts` independent 12-intent datasets of single-turn Spanish
    utterances, plus one English example pool and one set of Spanish mock
    templates shared by them; returns (datasets, en_pool, templates)."""
    lexicon_rng = random.Random("intent")
    es = Lexicon(INTENT_LABELS, lexicon_rng, own=8, bridge=4, filler=16)
    en = Lexicon(INTENT_LABELS, lexicon_rng, own=8, bridge=4, filler=16)
    rng = random.Random(f"intent|{seed}")

    def split(prefix, lexicon, per_intent, lang):
        return [LabeledUtterance(id=f"{prefix}{i}-{j}", intent=label, lang=lang,
                                 text=lexicon.sentence(label, rng, 5, ambiguous=j % AMBIGUOUS_EVERY == 0))
                for i, label in enumerate(INTENT_LABELS) for j in range(per_intent)]

    label_space = LabelSpace(task="intent", labels=INTENT_LABELS)
    datasets = [Dataset(label_space=label_space,
                        train=split("tr", es, per_intent_train, "es"),
                        validation=split("va", es, per_intent_val, "es"))
                for _ in range(parts)]
    en_pool = split("en", en, per_intent_en, "en")
    gold = {u.text for d in datasets for u in d.train}
    return datasets, en_pool, _templates(es, rng, templates_per_label, 5, gold)
