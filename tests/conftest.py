"""Shared fixtures: a synthetic keyword-separable 4-class dialogue task and a
mock generator over class-specific templates with a controllable planted
label-noise rate; and a driver of the loop's convergence automaton."""
import json
import random

import numpy as np
import pytest

from weakdap import weaklabel
from weakdap.corpus import Conversation, Dataset, LabelSpace, Turn
from weakdap.genbackend import MockBackend, MockGenConfig
from weakdap.loop import LoopConfig, LoopState

TOY_LABELS = ("neutral", "anger", "happiness", "sadness")

KEYWORDS = {
    "neutral": ["okay", "fine", "alright", "meeting", "schedule", "regular", "normal", "usual"],
    "anger": ["furious", "outrage", "angry", "unacceptable", "rage", "annoyed", "livid", "fuming"],
    "happiness": ["wonderful", "delighted", "fantastic", "joyful", "smiling", "celebrate",
                  "thrilled", "cheerful"],
    "sadness": ["miserable", "crying", "lonely", "grieving", "tearful", "sorrowful",
                "heartbroken", "gloomy"],
}

FILLER = ["today", "honestly", "well", "perhaps", "indeed", "meanwhile", "again", "soon"]


def toy_sentence(label: str, rng: random.Random) -> str:
    words = rng.sample(KEYWORDS[label], 3) + [rng.choice(FILLER)]
    rng.shuffle(words)
    return " ".join(words)


def toy_conversation(cid: str, rng: random.Random, n: int = 2,
                     labels=None) -> Conversation:
    turns = []
    for i in range(n):
        label = labels[i] if labels else rng.choice(TOY_LABELS)
        turns.append(Turn(speaker="AB"[i % 2], text=toy_sentence(label, rng), emotion=label))
    return Conversation(id=cid, turns=tuple(turns))


def read_checkpoint(path):
    """(header, columns, C x K weights) of a version 5 checkpoint file."""
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    C, K = len(header["bias"]), header["n_columns"]
    weights = np.frombuffer(body, dtype="<f8", count=C * K, offset=4 * K).reshape(C, K)
    return header, np.frombuffer(body, dtype="<i4", count=K), weights


def write_checkpoint(path, header: dict, columns, weights: bytes) -> None:
    """A version 5 file of `header`, the `columns` as int32, then `weights`."""
    path.write_bytes(json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
                     + np.array(columns, dtype="<i4").tobytes() + weights)


def toy_templates(per_label: int = 12, seed: int = 999) -> dict:
    rng = random.Random(seed)
    return {label: [toy_sentence(label, rng) for _ in range(per_label)]
            for label in TOY_LABELS}


@pytest.fixture
def dim_1_14(monkeypatch):
    """Hash into 1 << 14 columns: the golden digests, the acceptance runs
    and the weak-labeler tests are pinned at that `weaklabel.DIM`."""
    monkeypatch.setattr(weaklabel, "DIM", 1 << 14)


@pytest.fixture
def toy_label_space() -> LabelSpace:
    return LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)


@pytest.fixture
def toy_dataset(toy_label_space) -> Dataset:
    rng = random.Random(7)
    return Dataset(
        label_space=toy_label_space,
        train=[toy_conversation(f"tr{i}", rng) for i in range(200)],
        validation=[toy_conversation(f"va{i}", rng) for i in range(200)],
    )


def mock_backend(noise_rate: float = 0.0, seed: int = 1) -> MockBackend:
    return MockBackend(MockGenConfig(templates=toy_templates(), noise_rate=noise_rate,
                                     seed=seed))


def run_scripted(scores, config: LoopConfig) -> LoopState:
    """Drive the loop's convergence automaton with a precomputed score
    sequence; stops exactly where a live loop would."""
    state = LoopState()
    for score in scores:
        if state.update(score, config):
            break
    return state
