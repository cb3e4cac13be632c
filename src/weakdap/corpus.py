"""Data model and JSONL I/O for dialogue and single-turn classification datasets.

Two record shapes are supported:
  - dialogue: conversations of strictly alternating A/B turns, each turn
    optionally carrying an emotion and/or act label; gold conversations have
    at least two turns, a silver one may be a single context-free turn
  - utterance: single labeled utterances with an intent label and a language tag

Generated data lives here too: a Candidate (a silver record, its generated
turns and the filter's verdict), the classifier instances of records and
candidates, and the candidates.jsonl line that keeps the turns they read.
Records are immutable after load; the filter sets a candidate's verdict,
silver label and entropy. Loading and sampling are single-threaded.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import MISSING, dataclass, field, replace

SPEAKERS = ("A", "B")

# Previous turns folded into a dialogue instance's text.
CONTEXT_WINDOW = 1

# the record shape each task labels: emotion and act are turn labels of
# dialogues, intent a label of single utterances
TASK_SCHEMAS = {"emotion": "dialogue", "act": "dialogue", "intent": "utterance"}


class CorpusError(ValueError):
    """Malformed record, invariant violation, or unknown label."""


@dataclass(frozen=True)
class Turn:
    speaker: str
    text: str
    emotion: str | None = None
    act: str | None = None

    def __post_init__(self):
        if self.speaker not in SPEAKERS:
            raise CorpusError(f"speaker must be one of {SPEAKERS}, got {self.speaker!r}")
        if not isinstance(self.text, str):
            raise CorpusError(f"turn text must be a string, got {self.text!r}")
        if not self.text.strip():
            raise CorpusError("turn text is empty after trimming")

    def label(self, task: str) -> str | None:
        """The label field named after the task; a task that does not label
        dialogues raises CorpusError."""
        if TASK_SCHEMAS.get(task) != "dialogue":
            raise CorpusError(f"turns carry no {task!r} label")
        return getattr(self, task)


def _check_record(kind: str, record) -> None:
    """A record's id is a string, its provenance gold or silver, and its
    source_id None or a string."""
    if not isinstance(record.id, str):
        raise CorpusError(f"{kind} id must be a string, got {record.id!r}")
    if record.provenance not in ("gold", "silver"):
        raise CorpusError(f"{kind} {record.id!r}: provenance must be gold or silver, "
                          f"got {record.provenance!r}")
    if record.source_id is not None and not isinstance(record.source_id, str):
        raise CorpusError(f"{kind} {record.id!r}: source_id must be a string, "
                          f"got {record.source_id!r}")


@dataclass(frozen=True)
class Conversation:
    id: str
    turns: tuple[Turn, ...]
    provenance: str = "gold"
    source_id: str | None = None

    def __post_init__(self):
        _check_record("conversation", self)
        object.__setattr__(self, "turns", tuple(self.turns))
        least = 1 if self.provenance == "silver" else 2
        if len(self.turns) < least:
            raise CorpusError(f"conversation {self.id!r}: needs >= {least} turns")
        for prev, cur in zip(self.turns, self.turns[1:]):
            if prev.speaker == cur.speaker:
                raise CorpusError(f"conversation {self.id!r}: non-alternating speakers")
        if self.provenance == "silver" and self.source_id is None:
            raise CorpusError(f"conversation {self.id!r}: silver record requires source_id")

    @property
    def n(self) -> int:
        return len(self.turns)


@dataclass(frozen=True)
class LabeledUtterance:
    id: str
    text: str
    intent: str
    lang: str
    provenance: str = "gold"
    source_id: str | None = None

    def __post_init__(self):
        _check_record("utterance", self)
        if not isinstance(self.text, str):
            raise CorpusError(f"utterance {self.id!r}: text must be a string, got {self.text!r}")
        if not self.text.strip():
            raise CorpusError(f"utterance {self.id!r}: empty text")
        if self.lang not in ("en", "es"):
            raise CorpusError(f"utterance {self.id!r}: lang must be en or es, got {self.lang!r}")
        if self.provenance == "silver" and self.source_id is None:
            raise CorpusError(f"utterance {self.id!r}: silver record requires source_id")


@dataclass(frozen=True)
class LabelSpace:
    task: str  # emotion | act | intent
    labels: tuple[str, ...]
    majority: int | None = None

    def __post_init__(self):
        if not isinstance(self.task, str) or self.task not in TASK_SCHEMAS:
            raise CorpusError(f"task must be one of {tuple(TASK_SCHEMAS)}, got {self.task!r}")
        if isinstance(self.labels, str):
            raise CorpusError("labels must be a list of label names, not a string")
        if not isinstance(self.labels, (list, tuple)) or \
                not all(isinstance(label, str) for label in self.labels):
            raise CorpusError(f"labels must be a list of label names, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise CorpusError("duplicate label names")
        if self.majority is not None and type(self.majority) is not int:
            raise CorpusError(f"majority must be a label index, got {self.majority!r}")
        if self.majority is not None and not (0 <= self.majority < len(self.labels)):
            raise CorpusError("majority index out of range")

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise CorpusError(f"unknown label {label!r}") from None

    @property
    def schema(self) -> str:
        """The shape of the records the task labels: dialogue or utterance."""
        return TASK_SCHEMAS[self.task]


@dataclass
class Candidate:
    id: str
    payload: Conversation | LabeledUtterance | None
    prescribed_label: str
    strategy: str
    source_id: str
    generated_turns: tuple[int, ...] = ()  # 0-based indices into payload.turns
    silver_label: str | None = None
    entropy: float | None = None
    verdict: str = "pending"
    hidden_label: str | None = None  # planted true label of the final generated turn (mock only)


@dataclass
class Dataset:
    label_space: LabelSpace
    train: list = field(default_factory=list)
    validation: list = field(default_factory=list)

    def __post_init__(self):
        seen = {}
        for name, part in (("train", self.train), ("validation", self.validation)):
            for rec in part:
                if rec.id in seen and seen[rec.id] != name:
                    raise CorpusError(f"id {rec.id!r} appears in both {seen[rec.id]} and {name}")
                seen[rec.id] = name
        for part in (self.train, self.validation):
            for rec in part:
                for label in record_labels(rec, self.label_space.task):
                    if label not in self.label_space:
                        raise CorpusError(f"unknown label {label!r} in dataset")


def record_labels(record, task: str) -> list[str]:
    """All task labels carried by a record (one per turn for conversations)."""
    if isinstance(record, Conversation):
        return [t.label(task) for t in record.turns if t.label(task) is not None]
    return [record.intent]


def dialogue_instance_text(conv: Conversation, turn_idx: int) -> str:
    """Instance text for one turn: up to CONTEXT_WINDOW previous turns, then
    the target utterance. Context words are speaker-tagged token by token so
    they occupy a separate feature namespace from the target's own words."""
    parts = []
    for j in range(max(0, turn_idx - CONTEXT_WINDOW), turn_idx):
        t = conv.turns[j]
        parts.extend(f"{t.speaker}:{w}" for w in t.text.split())
    parts.append(conv.turns[turn_idx].text)
    return " ".join(parts)


def instances_of(records, label_space: LabelSpace):
    """(texts, labels) of the classifier instances of gold records and
    candidates: every labeled turn of a conversation, every generated turn of
    a dialogue candidate in its generated context under its prescribed label,
    and the text of an utterance or utterance candidate."""
    texts, labels = [], []
    for rec in records:
        turns = None
        if isinstance(rec, Candidate):
            rec, turns = rec.payload, rec.generated_turns
        if isinstance(rec, LabeledUtterance):
            texts.append(rec.text)
            labels.append(rec.intent)
            continue
        for i in (range(rec.n) if turns is None else turns):
            label = rec.turns[i].label(label_space.task)
            if label is not None:
                texts.append(dialogue_instance_text(rec, i))
                labels.append(label)
    return texts, labels


def to_dict(obj) -> dict:
    """A record, turn or label space as a JSON object: each field that
    differs from its default, in field order; a conversation's turns the
    same way."""
    d = {}
    for name, f in obj.__dataclass_fields__.items():
        value = getattr(obj, name)
        if value != f.default:
            d[name] = [to_dict(t) for t in value] if name == "turns" else value
    return d


def from_dict(cls, d: dict):
    """The `cls` of a JSON object written by `to_dict`: every field without a
    default, each other field that `d` holds; keys that are not fields are
    ignored."""
    kwargs = {}
    for name, f in cls.__dataclass_fields__.items():
        if f.default is MISSING or name in d:
            kwargs[name] = [from_dict(Turn, t) for t in d[name]] if name == "turns" else d[name]
    return cls(**kwargs)


def record_from_dict(d: dict, schema: str):
    if schema not in ("dialogue", "utterance"):
        raise CorpusError(f"unknown schema {schema!r}")
    return from_dict(Conversation if schema == "dialogue" else LabeledUtterance, d)


def load_jsonl(path, schema: str, label_space: LabelSpace | None = None) -> list:
    """Load one dataset partition from a JSONL file, in file order.

    Raises CorpusError with the 1-based line number for malformed lines,
    duplicate ids, and (when a label space is given) unknown labels.
    """
    records = []
    seen_ids = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                rec = record_from_dict(d, schema)
            except (json.JSONDecodeError, KeyError, TypeError, CorpusError) as e:
                raise CorpusError(f"{path}:{lineno}: malformed record: {e}") from e
            if rec.id in seen_ids:
                raise CorpusError(f"{path}:{lineno}: duplicate id {rec.id!r}")
            seen_ids.add(rec.id)
            if label_space is not None:
                for label in record_labels(rec, label_space.task):
                    if label not in label_space:
                        raise CorpusError(f"{path}:{lineno}: unknown label {label!r}")
            records.append(rec)
    return records


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(to_dict(rec), ensure_ascii=False) + "\n")


def candidate_to_dict(cand: Candidate) -> dict:
    """One candidates.jsonl line. A dialogue candidate's payload keeps only
    the turns its instances read: from CONTEXT_WINDOW turns before its first
    generated turn on. `generated_turns` index the stored turns;
    `turn_offset`, written when nonzero, is the position of the first stored
    turn in the source dialogue, whose earlier turns are the gold record's
    own."""
    payload, generated = cand.payload, cand.generated_turns
    offset = max(0, generated[0] - CONTEXT_WINDOW) if generated else 0
    if offset:
        payload = replace(payload, turns=payload.turns[offset:])
        generated = tuple(i - offset for i in generated)
    d = {
        "id": cand.id,
        "strategy": cand.strategy,
        "source_id": cand.source_id,
        "prescribed_label": cand.prescribed_label,
        "payload": to_dict(payload) if payload is not None else None,
        "verdict": cand.verdict,
    }
    if generated:
        d["generated_turns"] = list(generated)
    if offset:
        d["turn_offset"] = offset
    if cand.silver_label is not None:
        d["silver_label"] = cand.silver_label
    if cand.entropy is not None:
        d["entropy"] = cand.entropy
    return d


# One encoder for every line: json.dumps with keywords builds one per call.
_CANDIDATE_JSON = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def write_candidates(candidates, path) -> None:
    ordered = sorted(candidates, key=lambda c: c.id)
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(_CANDIDATE_JSON.encode(candidate_to_dict(cand)) + "\n"
                        for cand in ordered))


def load_label_space(path) -> LabelSpace:
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    if not (isinstance(d, dict) and "task" in d and "labels" in d):
        raise CorpusError(f"{path}: a label space is a JSON object with task and labels")
    return from_dict(LabelSpace, d)


def _most_frequent(labels, label_space: LabelSpace) -> str:
    """The label of the space that occurs most often in labels; ties go to the
    lowest label index, since max keeps the first of equal keys."""
    counts = Counter(labels)
    return max(label_space.labels, key=counts.__getitem__)


def majority_label(partition, label_space: LabelSpace) -> str:
    """Most frequent task label in the partition; ties go to the lowest label index."""
    if not partition:
        raise CorpusError("empty partition")
    return _most_frequent((label for rec in partition
                           for label in record_labels(rec, label_space.task)), label_space)


def majority_index(partition, label_space: LabelSpace) -> int:
    """The label space's majority index if it sets one, else that of the
    partition's most frequent label."""
    if label_space.majority is not None:
        return label_space.majority
    return label_space.index(majority_label(partition, label_space))


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _conversation_stratum(conv: Conversation, label_space: LabelSpace, majority: str) -> str:
    """Stratum of a whole conversation: most frequent non-majority turn label,
    falling back to the majority label when no other label occurs."""
    labels = [l for l in record_labels(conv, label_space.task) if l != majority]
    return _most_frequent(labels, label_space) if labels else majority


def sample_few_shot(partition, fraction: float, seed: int, label_space: LabelSpace,
                    stratified: bool = True) -> list:
    """Seeded few-shot subsample keeping at least one record per occurring label.

    For each label with count c, picks max(1, round(fraction * c)) records
    uniformly without replacement (round = half away from zero). Dialogue
    partitions stratify on whole conversations by their dominant non-majority
    turn label. Output preserves partition order; identical (partition,
    fraction, seed) always yield identical output.
    """
    if not (0 < fraction <= 1):
        raise CorpusError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return list(partition)
    rng = random.Random(seed)
    if not stratified:
        k = max(1, _round_half_away(fraction * len(partition)))
        chosen = set(rng.sample(range(len(partition)), k))
        return [rec for i, rec in enumerate(partition) if i in chosen]

    majority = label_space.labels[majority_index(partition, label_space)]
    groups: dict[str, list[int]] = {label: [] for label in label_space.labels}
    for i, rec in enumerate(partition):
        if isinstance(rec, Conversation):
            groups[_conversation_stratum(rec, label_space, majority)].append(i)
        else:
            groups[rec.intent].append(i)

    chosen = set()
    for label in label_space.labels:
        idxs = groups[label]
        if not idxs:
            continue
        k = min(len(idxs), max(1, _round_half_away(fraction * len(idxs))))
        chosen.update(rng.sample(idxs, k))
    return [rec for i, rec in enumerate(partition) if i in chosen]
