"""Candidate silver-data production: the three dialogue strategies (LTA, ATA,
CTA), cross-lingual single-turn augmentation, deduplication, and the size-
multiplier budget scheduler.

All strategies replace turns; context turns are always copied byte-identical
from the gold conversation. Generation order never affects results: every
candidate's seed is derived from (plan seed, pass index, source id, position),
so the scheduler generates up to MAX_WORKERS source records at once and joins
their candidates in plan order.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .corpus import Conversation, CorpusError, LabelSpace, LabeledUtterance, Turn
from .genbackend import GenParams, generate
from .prompt import PromptSpec, RenderedPrompt, render_dialogue_prompt, render_intent_prompt

# Source records generated at once. Requests in flight are capped by the
# backend itself (HttpBackend's max_parallel), never by this constant: 8 kept
# two request slots busy on a localhost server, and 32 threads raised peak RSS
# by 7% for no gain.
MAX_WORKERS = 8

VERDICTS = ("pending", "kept", "dropped_mismatch", "dropped_parse", "dropped_duplicate")


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
class AugmentPlan:
    strategy: str  # lta | ata | cta | incontext
    multiplier: float = 2.0
    label_mode: str = "gold"  # gold | random
    seed: int = 0

    def __post_init__(self):
        if self.multiplier <= 0:
            raise ValueError("multiplier must be > 0")


def _labeled_turn(speaker: str, text: str, label: str, task: str) -> Turn:
    if task == "emotion":
        return Turn(speaker=speaker, text=text, emotion=label)
    if task == "act":
        return Turn(speaker=speaker, text=text, act=label)
    raise CorpusError(f"no dialogue turn label for task {task!r}")


def prescribe_label(gold_turn: Turn, label_space: LabelSpace, mode: str,
                    rng: random.Random) -> str:
    """Label for a replaced turn: the gold turn's own label, or a seeded
    uniform draw over the label space."""
    if mode == "random":
        return rng.choice(label_space.labels)
    label = gold_turn.label(label_space.task)
    if label is None:
        raise CorpusError(f"gold turn missing {label_space.task} label")
    return label


def _gen_params(base: GenParams, spec: PromptSpec, seed: int, **overrides) -> GenParams:
    stop = tuple(base.stop_markers) + tuple(f"{n} " for n in spec.speaker_names)
    return replace(base, seed=seed, stop_markers=stop, **overrides)


def _generate_turn(prompt: RenderedPrompt, params: GenParams, backend):
    """One completion for a dialogue turn; returns (parsed_or_None, hidden_label)."""
    completions = generate(prompt, params, backend)
    c = completions[0]
    return c.parsed, c.hidden_label


def last_turn_augment(conv: Conversation, plan: AugmentPlan, backend, spec: PromptSpec,
                      label_space: LabelSpace, params: GenParams, cand_id: str,
                      seed: int) -> Candidate:
    """Replace the last turn: one candidate with turns 1..n-1 gold."""
    rng = random.Random(seed)
    target = conv.turns[-1]
    label = prescribe_label(target, label_space, plan.label_mode, rng)
    prompt = render_dialogue_prompt(conv.turns[:-1], spec, label)
    text, hidden = _generate_turn(prompt, _gen_params(params, spec, seed), backend)
    if text is None:
        return Candidate(id=cand_id, payload=None, prescribed_label=label, strategy="lta",
                         source_id=conv.id, verdict="dropped_parse")
    new_turn = _labeled_turn(target.speaker, text, label, label_space.task)
    payload = Conversation(id=cand_id, turns=conv.turns[:-1] + (new_turn,),
                           provenance="silver", source_id=conv.id)
    return Candidate(id=cand_id, payload=payload, prescribed_label=label, strategy="lta",
                     source_id=conv.id, generated_turns=(conv.n - 1,), hidden_label=hidden)


def all_turn_augment(conv: Conversation, plan: AugmentPlan, backend, spec: PromptSpec,
                     label_space: LabelSpace, params: GenParams, id_prefix: str,
                     seed: int, keep: int | None = None) -> list[Candidate]:
    """Replace each turn i in 2..n against all-gold context: n-1 candidates of
    lengths 2 through n, or only the first `keep` of them. Parse failures drop
    only the affected candidate."""
    last = conv.n if keep is None else min(conv.n, keep + 1)
    out = []
    for i in range(2, last + 1):  # candidate length i, replacing turn i
        cand_id = f"{id_prefix}-t{i}"
        rng = random.Random(seed + i)
        target = conv.turns[i - 1]
        label = prescribe_label(target, label_space, plan.label_mode, rng)
        prompt = render_dialogue_prompt(conv.turns[: i - 1], spec, label)
        text, hidden = _generate_turn(prompt, _gen_params(params, spec, seed + i), backend)
        if text is None:
            out.append(Candidate(id=cand_id, payload=None, prescribed_label=label,
                                 strategy="ata", source_id=conv.id, verdict="dropped_parse"))
            continue
        new_turn = _labeled_turn(target.speaker, text, label, label_space.task)
        payload = Conversation(id=cand_id, turns=conv.turns[: i - 1] + (new_turn,),
                               provenance="silver", source_id=conv.id)
        out.append(Candidate(id=cand_id, payload=payload, prescribed_label=label,
                             strategy="ata", source_id=conv.id, generated_turns=(i - 1,),
                             hidden_label=hidden))
    return out


def trajectory_augment(conv: Conversation, plan: AugmentPlan, backend, spec: PromptSpec,
                       label_space: LabelSpace, params: GenParams, cand_id: str,
                       seed: int) -> Candidate:
    """Keep each speaker's first turn (turns 1-2) as gold, then autoregressively
    generate turns 3..n, feeding each generated turn back as context. One
    candidate of the original length; a parse failure aborts the candidate."""
    if conv.n < 3:
        raise CorpusError(f"conversation {conv.id!r}: trajectory augmentation needs >= 3 turns")
    rng = random.Random(seed)
    turns = list(conv.turns[:2])
    generated = []
    label = None
    hidden = None
    for i in range(3, conv.n + 1):
        target = conv.turns[i - 1]
        label = prescribe_label(target, label_space, plan.label_mode, rng)
        prompt = render_dialogue_prompt(turns, spec, label)
        text, hidden = _generate_turn(prompt, _gen_params(params, spec, seed + i), backend)
        if text is None:
            return Candidate(id=cand_id, payload=None, prescribed_label=label, strategy="cta",
                             source_id=conv.id, verdict="dropped_parse")
        turns.append(_labeled_turn(target.speaker, text, label, label_space.task))
        generated.append(i - 1)
    payload = Conversation(id=cand_id, turns=tuple(turns), provenance="silver",
                           source_id=conv.id)
    return Candidate(id=cand_id, payload=payload, prescribed_label=label, strategy="cta",
                     source_id=conv.id, generated_turns=tuple(generated), hidden_label=hidden)


def cross_lingual_augment(ref: LabeledUtterance, pool, plan: AugmentPlan, backend,
                          spec: PromptSpec, params: GenParams, id_prefix: str,
                          gold_texts=(), seed: int = 0) -> list[Candidate]:
    """Beam-generate up to three new Spanish utterances for the reference's
    intent, mixing it with seeded same-intent English examples; duplicates of
    gold or of earlier sequences are rejected."""
    rng = random.Random(seed)
    same_intent = [u for u in pool if u.intent == ref.intent]
    k = min(spec.k_examples, len(same_intent))
    examples = rng.sample(same_intent, k) if k else []
    prompt = render_intent_prompt(ref, examples, spec)
    beam_params = replace(params, seed=seed, mode="beam", num_return=min(params.num_return, 3))
    completions = generate(prompt, beam_params, backend)
    seen = {normalize_text(t) for t in gold_texts}
    out = []
    for j, c in enumerate(completions):
        if c.parsed is None:
            continue
        key = normalize_text(c.parsed)
        if key in seen:
            continue
        seen.add(key)
        cand_id = f"{id_prefix}-b{j}"
        payload = LabeledUtterance(id=cand_id, text=c.parsed, intent=ref.intent, lang="es",
                                   provenance="silver", source_id=ref.id)
        out.append(Candidate(id=cand_id, payload=payload, prescribed_label=ref.intent,
                             strategy="incontext", source_id=ref.id,
                             hidden_label=c.hidden_label))
    return out


def normalize_text(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip().lower())


def payload_text(payload) -> str:
    """Comparable surface text of a candidate payload (all turns joined for
    conversations)."""
    if isinstance(payload, Conversation):
        return " ".join(t.text for t in payload.turns)
    return payload.text


def dedup(candidates, gold_texts=()) -> list[Candidate]:
    """Drop candidates whose normalized text duplicates an earlier candidate
    or any gold instance; order preserved."""
    seen = {normalize_text(t) for t in gold_texts}
    out = []
    for cand in candidates:
        if cand.payload is None:
            out.append(cand)
            continue
        key = normalize_text(payload_text(cand.payload))
        if key in seen:
            cand.verdict = "dropped_duplicate"
            continue
        seen.add(key)
        out.append(cand)
    return out


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on up to MAX_WORKERS threads; results
    keep item order. After the first failure no further item starts, queued
    items are cancelled, and the failure raised is the first in item order."""
    items = list(items)
    if not items:
        return []
    failed = threading.Event()

    def job(item):
        if failed.is_set():
            return None  # a started item failed; its error is raised first
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(items)))
    try:
        futures = [pool.submit(job, item) for item in items]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _plan_jobs(gold, plan: AugmentPlan) -> list[tuple[Conversation, str, int, int]]:
    """Budget scheduler: repeated full passes over gold with fresh seeds until
    ceil(multiplier * |gold|) candidates are planned; the final partial pass
    visits a seeded uniform shuffle of gold. Returns one (conversation,
    candidate id prefix, seed, candidates kept) job per visit, in output order.
    ATA yields n-1 candidates per conversation, and the last job keeps only
    what is left of the budget."""
    target = math.ceil(plan.multiplier * len(gold))
    jobs = []
    planned = 0
    pass_idx = 0
    while planned < target:
        order = list(gold)
        if pass_idx > 0 or target < len(gold):
            random.Random(f"{plan.seed}|{pass_idx}").shuffle(order)
        for conv in order:
            if planned >= target:
                break
            keep = min(conv.n - 1 if plan.strategy == "ata" else 1, target - planned)
            jobs.append((conv, f"{conv.id}-s{plan.strategy}-p{pass_idx}",
                         _stable_pass_seed(plan.seed, pass_idx, conv.id), keep))
            planned += keep
        pass_idx += 1
    return jobs


def run_augmentation(gold, plan: AugmentPlan, backend, spec: PromptSpec,
                     label_space: LabelSpace, params: GenParams) -> list[Candidate]:
    """Candidates for the jobs of _plan_jobs, generated concurrently across
    conversations (see ordered_map) and returned in plan order. Never produces
    more than the budget; parse failures count as produced candidates."""
    if plan.strategy not in ("lta", "ata", "cta"):
        raise ValueError(f"unknown strategy {plan.strategy!r}")

    def run(job) -> list[Candidate]:
        conv, prefix, seed, keep = job
        if plan.strategy == "ata":
            return all_turn_augment(conv, plan, backend, spec, label_space,
                                    params, prefix, seed, keep)
        if plan.strategy == "cta" and conv.n >= 3:
            return [trajectory_augment(conv, plan, backend, spec, label_space,
                                       params, prefix, seed)]
        return [last_turn_augment(conv, plan, backend, spec, label_space,
                                  params, prefix, seed)]

    return [c for cands in ordered_map(run, _plan_jobs(list(gold), plan)) for c in cands]


def _stable_pass_seed(base: int, pass_idx: int, source_id: str) -> int:
    # stable across runs and process boundaries, unlike hash()
    digest = hashlib.sha256(f"{base}|{pass_idx}|{source_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def candidate_to_dict(cand: Candidate) -> dict:
    from .corpus import record_to_dict
    d = {
        "id": cand.id,
        "strategy": cand.strategy,
        "source_id": cand.source_id,
        "prescribed_label": cand.prescribed_label,
        "payload": record_to_dict(cand.payload) if cand.payload is not None else None,
        "verdict": cand.verdict,
    }
    if cand.generated_turns:
        d["generated_turns"] = list(cand.generated_turns)
    if cand.silver_label is not None:
        d["silver_label"] = cand.silver_label
    if cand.entropy is not None:
        d["entropy"] = cand.entropy
    return d


def candidate_from_dict(d: dict, schema: str) -> Candidate:
    from .corpus import record_from_dict
    payload = record_from_dict(d["payload"], schema) if d.get("payload") is not None else None
    return Candidate(
        id=d["id"],
        payload=payload,
        prescribed_label=d["prescribed_label"],
        strategy=d["strategy"],
        source_id=d["source_id"],
        generated_turns=tuple(d.get("generated_turns", ())),
        silver_label=d.get("silver_label"),
        entropy=d.get("entropy"),
        verdict=d.get("verdict", "pending"),
    )


def write_candidates(candidates, path) -> None:
    ordered = sorted(candidates, key=lambda c: c.id)
    with open(path, "w", encoding="utf-8") as f:
        for cand in ordered:
            f.write(json.dumps(candidate_to_dict(cand), ensure_ascii=False, sort_keys=True) + "\n")


def load_candidates(path, schema: str) -> list[Candidate]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(candidate_from_dict(json.loads(line), schema))
    return out
