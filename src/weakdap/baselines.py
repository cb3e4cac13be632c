"""Perturbation baselines (EDA, AEDA) over single-turn utterance records.

All operations are pure given their seed. EDA uses a bundled plain-text
synonym lexicon (word TAB comma-separated synonyms) instead of an external
lexical database. The context-free prompting baseline is the `random`
strategy of `weakdap.augment`, so it runs through the weak filter like the
other generators.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from importlib import resources

from .corpus import LabeledUtterance


class BaselineError(ValueError):
    pass


def load_lexicon(path=None) -> dict[str, list[str]]:
    if path is None:
        text = resources.files("weakdap.data").joinpath("lexicon.txt").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    lexicon = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, _, syns = line.partition("\t")
        entries = [s.strip() for s in syns.split(",") if s.strip()]
        if entries:
            lexicon[word.strip().lower()] = entries
    return lexicon


@dataclass
class EdaConfig:
    alpha_sr: float = 0.1
    alpha_ri: float = 0.1
    alpha_rs: float = 0.1
    alpha_rd: float = 0.1
    n_aug: int = 1
    seed: int = 0
    synonym_lexicon: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("alpha_sr", "alpha_ri", "alpha_rs", "alpha_rd"):
            if not (0 <= getattr(self, name) <= 1):
                raise BaselineError(f"{name} must be in [0, 1]")
        if self.n_aug < 1:
            raise BaselineError(f"n_aug must be >= 1, got {self.n_aug}")
        for word, syns in self.synonym_lexicon.items():
            if not syns:
                raise BaselineError(f"lexicon entry {word!r} has no synonyms")


PUNCTUATION = (".", ";", "?", ":", "!", ",")  # the marks AEDA inserts


@dataclass
class AedaConfig:
    alpha: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise BaselineError(f"alpha must be in [0, 1], got {self.alpha}")


def _synonym_replacement(words, alpha, lexicon, rng):
    out = []
    for w in words:
        syns = lexicon.get(w.lower())
        if syns and rng.random() < alpha:
            out.append(rng.choice(syns))
        else:
            out.append(w)
    return out


def _random_insertion(words, alpha, lexicon, rng):
    out = list(words)
    candidates = [w for w in words if w.lower() in lexicon]
    for w in words:
        if candidates and rng.random() < alpha:
            source = rng.choice(candidates)
            synonym = rng.choice(lexicon[source.lower()])
            out.insert(rng.randrange(len(out) + 1), synonym)
    return out


def _random_swap(words, alpha, rng):
    out = list(words)
    if len(out) < 2:
        return out
    for i in range(len(out)):
        if rng.random() < alpha:
            j = rng.randrange(len(out))
            out[i], out[j] = out[j], out[i]
    return out


def _random_deletion(words, alpha, rng):
    if alpha == 0:
        return list(words)
    out = [w for w in words if rng.random() >= alpha]
    if not out:
        out = [words[rng.randrange(len(words))]]  # guaranteed survivor
    return out


def eda_augment(text: str, cfg: EdaConfig) -> list[str]:
    """n_aug variants, each one seeded pass of synonym replacement, random
    insertion, random swap, and random deletion at their per-word rates.
    Deletion never empties the text."""
    words = text.split()
    if not words:
        raise BaselineError("empty text")
    out = []
    for i in range(cfg.n_aug):
        rng = random.Random(f"{cfg.seed}|{i}")
        w = _synonym_replacement(words, cfg.alpha_sr, cfg.synonym_lexicon, rng)
        w = _random_insertion(w, cfg.alpha_ri, cfg.synonym_lexicon, rng)
        w = _random_swap(w, cfg.alpha_rs, rng)
        w = _random_deletion(w, cfg.alpha_rd, rng)
        out.append(" ".join(w))
    return out


def aeda_augment(text: str, cfg: AedaConfig) -> str:
    """Insert r punctuation marks before distinct word positions, r uniform in
    [1, max(1, floor(alpha * n))]; the word sequence is unchanged."""
    words = text.split()
    n = len(words)
    if n == 0:
        raise BaselineError("empty text")
    rng = random.Random(cfg.seed)
    r_max = max(1, math.floor(cfg.alpha * n))
    r = rng.randint(1, r_max)
    positions = set(rng.sample(range(n), min(r, n)))
    out = []
    for i, w in enumerate(words):
        if i in positions:
            out.append(rng.choice(PUNCTUATION))
        out.append(w)
    return " ".join(out)


def perturb_records(records, method: str, seed: int = 0, lexicon_path=None,
                    **options) -> list[LabeledUtterance]:
    """Silver copies of utterance records: n_aug EDA variants each (ids
    <id>-eda<j>, synonyms from the lexicon at lexicon_path or the bundled
    one), or one AEDA variant each (<id>-aeda), seeded by (seed, record id).
    options are EdaConfig or AedaConfig fields; the rest keep their
    defaults."""
    if method == "eda":
        cfg = EdaConfig(synonym_lexicon=load_lexicon(lexicon_path), **options)
    elif method == "aeda":
        cfg = AedaConfig(**options)
    else:
        raise BaselineError(f"unknown baseline method {method!r}")
    out = []
    for rec in records:
        rec_cfg = replace(cfg, seed=f"{seed}|{rec.id}")
        if method == "eda":
            variants = [(f"eda{j}", text) for j, text in enumerate(eda_augment(rec.text, rec_cfg))]
        else:
            variants = [("aeda", aeda_augment(rec.text, rec_cfg))]
        out.extend(LabeledUtterance(id=f"{rec.id}-{suffix}", text=text, intent=rec.intent,
                                    lang=rec.lang, provenance="silver", source_id=rec.id)
                   for suffix, text in variants)
    return out
