"""Candidate silver-data production: one budget scheduler and one job runner
for every strategy.

Dialogue strategies replace turns of a gold conversation through one routine
(`replace_turns`): the context before the first replaced turn is copied
byte-identical from gold, and each generated turn is fed back as context for
the next. One function, `visit_steps`, defines which candidates a visit to a
gold conversation makes: LTA replaces the last turn, ATA each turn 2..n
against gold context (one candidate per turn), CTA turns 3..n in one
candidate; CTA on a dialogue of fewer than 3 turns makes an LTA candidate
instead. `random` is the context-free contrast condition: it plans and labels
like LTA, but its prompt holds seeded same-label gold turns of other
conversations instead of the dialogue, and its candidate is the generated
turn alone. The in-context strategy prompts with same-intent English examples
and a Spanish reference and keeps up to three beams that duplicate no gold
text; the Spanish gold utterances are the references, the English ones (or a
separate English pool) the examples.

Generation order never affects results: every candidate's seed is derived
from (plan seed, pass index, source id, position), so the scheduler generates
up to MAX_WORKERS source records at once and joins their candidates in plan
order.
"""
from __future__ import annotations

import json
import math
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .corpus import Conversation, CorpusError, LabelSpace, LabeledUtterance, Turn, record_to_dict
from .genbackend import GenParams, generate, stable_seed
from .prompt import (
    PromptSpec,
    render_context_free_prompt,
    render_dialogue_prompt,
    render_intent_prompt,
)

STRATEGIES = ("lta", "ata", "cta", "incontext", "random")
LABEL_MODES = ("gold", "random")

# Source records generated at once. Requests in flight are capped by the
# backend itself (HttpBackend's max_parallel), never by this constant: 8 kept
# two request slots busy on a localhost server, and 32 threads raised peak RSS
# by 7% for no gain.
MAX_WORKERS = 8

# Most beams one in-context prompt asks for.
BEAM_CAP = 3


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
    strategy: str  # one of STRATEGIES
    multiplier: float = 2.0
    label_mode: str = "gold"  # one of LABEL_MODES
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.label_mode not in LABEL_MODES:
            raise ValueError(f"unknown label mode {self.label_mode!r}")
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


def replace_turns(conv: Conversation, steps, rng: random.Random, strategy: str, cand_id: str,
                  plan: AugmentPlan, backend, spec: PromptSpec, label_space: LabelSpace,
                  params: GenParams, pool=None) -> Candidate:
    """One candidate from generating the 1-based turns of `steps`, a list of
    consecutive (turn index, generation seed) pairs. Turns before the first
    step are gold, every generated turn is context for the later steps, and
    the candidate ends at the last step. Labels are drawn from rng in step
    order; a parse failure drops the whole candidate. With a pool (label ->
    [(conversation id, turn text)]) a turn is generated without context: its
    prompt holds up to k_examples turns of other conversations drawn from rng
    after the label, and the candidate holds the generated turns alone."""
    turns = [] if pool is not None else list(conv.turns[: steps[0][0] - 1])
    stop = tuple(params.stop_markers) + tuple(f"{n} " for n in spec.speaker_names)
    for i, seed in steps:
        target = conv.turns[i - 1]
        label = prescribe_label(target, label_space, plan.label_mode, rng)
        if pool is None:
            prompt = render_dialogue_prompt(turns, spec, label)
        else:
            others = [text for cid, text in pool.get(label, ()) if cid != conv.id]
            examples = rng.sample(others, min(spec.k_examples, len(others)))
            prompt = render_context_free_prompt(examples, spec, target.speaker, label)
        completion = generate(prompt, replace(params, seed=seed, stop_markers=stop), backend)[0]
        if completion.parsed is None:
            return Candidate(id=cand_id, payload=None, prescribed_label=label,
                             strategy=strategy, source_id=conv.id, verdict="dropped_parse")
        turns.append(_labeled_turn(target.speaker, completion.parsed, label, label_space.task))
    payload = Conversation(id=cand_id, turns=tuple(turns), provenance="silver",
                           source_id=conv.id)
    return Candidate(id=cand_id, payload=payload, prescribed_label=label, strategy=strategy,
                     source_id=conv.id,
                     generated_turns=tuple(range(len(turns) - len(steps), len(turns))),
                     hidden_label=completion.hidden_label)


def visit_steps(conv: Conversation, strategy: str, seed: int) -> list[tuple]:
    """The candidates of one visit to a gold conversation, in output order:
    one (strategy name, id suffix, replace_turns steps, label rng seed) layout
    each. LTA and `random` replace the last turn; ATA replaces each turn i in
    2..n against gold context, one candidate per turn, seeded with seed + i;
    CTA replaces turns 3..n in one candidate, and falls back to LTA on a
    dialogue of fewer than 3 turns."""
    if strategy == "ata":
        return [("ata", f"-t{i}", [(i, seed + i)], seed + i) for i in range(2, conv.n + 1)]
    if strategy == "cta" and conv.n >= 3:
        return [("cta", "", [(i, seed + i) for i in range(3, conv.n + 1)], seed)]
    return [("random" if strategy == "random" else "lta", "", [(conv.n, seed)], seed)]


def cross_lingual_augment(ref: LabeledUtterance, pool, backend, spec: PromptSpec,
                          params: GenParams, id_prefix: str,
                          gold_keys=frozenset(), seed: int = 0) -> list[Candidate]:
    """Beam-generate up to BEAM_CAP new Spanish utterances for the reference's
    intent, mixing it with seeded same-intent English examples from the pool;
    duplicates of gold (gold_keys holds the gold texts after normalize_text)
    or of earlier sequences are rejected."""
    rng = random.Random(seed)
    same_intent = [u for u in pool if u.intent == ref.intent]
    k = min(spec.k_examples, len(same_intent))
    examples = rng.sample(same_intent, k) if k else []
    prompt = render_intent_prompt(ref, examples)
    beam_params = replace(params, seed=seed, mode="beam",
                          num_return=min(params.num_return, BEAM_CAP))
    completions = generate(prompt, beam_params, backend)
    seen = set(gold_keys)
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


def _plan_jobs(gold, plan: AugmentPlan, num_return: int = 1) -> list[tuple]:
    """Budget scheduler: repeated full passes over gold with fresh seeds until
    ceil(multiplier * |gold|) candidate slots are planned; the final partial
    pass visits a seeded uniform shuffle of gold. Returns one (record,
    candidate id prefix, seed, slots) job per visit, in output order. A visit
    has min(num_return, BEAM_CAP) slots in-context and one per layout of
    visit_steps otherwise; the last job keeps only what is left of the
    budget."""
    target = math.ceil(plan.multiplier * len(gold))
    jobs = []
    planned = 0
    pass_idx = 0
    while planned < target:
        order = list(gold)
        if pass_idx > 0 or target < len(gold):
            random.Random(f"{plan.seed}|{pass_idx}").shuffle(order)
        for rec in order:
            if planned >= target:
                break
            seed = stable_seed(f"{plan.seed}|{pass_idx}|{rec.id}")
            if plan.strategy == "incontext":
                slots = min(num_return, BEAM_CAP)
            else:
                slots = len(visit_steps(rec, plan.strategy, seed))
            keep = min(slots, target - planned)
            jobs.append((rec, f"{rec.id}-s{plan.strategy}-p{pass_idx}", seed, keep))
            planned += keep
        pass_idx += 1
    return jobs


def run_augmentation(gold, plan: AugmentPlan, backend, spec: PromptSpec,
                     label_space: LabelSpace, params: GenParams,
                     en_pool=None) -> list[Candidate]:
    """Candidates for the jobs of _plan_jobs, generated concurrently across
    source records (see ordered_map) and returned in plan order. Never
    produces more than the budget; parse failures count as produced
    candidates. The strategy must fit the records' schema. The `random`
    strategy draws its examples from the turns of all gold conversations.
    In-context, the references (and the budget's base) are the gold
    utterances not in English; the examples come from en_pool, or else from
    the English gold utterances, so no record is both."""
    gold = list(gold)
    dialogue = plan.strategy != "incontext"
    if any(isinstance(rec, Conversation) != dialogue for rec in gold):
        raise ValueError(f"strategy {plan.strategy!r} needs "
                         f"{'dialogue' if dialogue else 'utterance'} records")
    turn_pool = None
    if plan.strategy == "random":
        turn_pool = {}
        for conv in gold:
            for turn in conv.turns:
                turn_pool.setdefault(turn.label(label_space.task), []).append(
                    (conv.id, turn.text))
    if not dialogue:
        gold_keys = frozenset(normalize_text(u.text) for u in gold)
        english = [u for u in gold if u.lang == "en"]
        pool = en_pool if en_pool is not None else english
        gold = [u for u in gold if u.lang != "en"]
        if english and not gold:
            raise ValueError("in-context augmentation needs non-English references")

    def run(job) -> list[Candidate]:
        rec, prefix, seed, keep = job
        if plan.strategy == "incontext":
            return cross_lingual_augment(rec, pool, backend, spec,
                                         replace(params, num_return=keep), prefix,
                                         gold_keys, seed)
        # cut before generating: only kept layouts send requests
        return [replace_turns(rec, steps, random.Random(rng_seed), name, prefix + suffix,
                              plan, backend, spec, label_space, params, turn_pool)
                for name, suffix, steps, rng_seed in visit_steps(rec, plan.strategy, seed)[:keep]]

    jobs = _plan_jobs(gold, plan, params.num_return)
    return [c for cands in ordered_map(run, jobs) for c in cands]


def candidate_to_dict(cand: Candidate, window: int) -> dict:
    """One candidates.jsonl line. A dialogue candidate's payload keeps only
    the turns its instances read with this context window: from `window`
    turns before its first generated turn on. `generated_turns` index the
    stored turns; `turn_offset`, written when nonzero, is the position of the
    first stored turn in the source dialogue, whose earlier turns are the
    gold record's own."""
    payload, generated = cand.payload, cand.generated_turns
    offset = max(0, generated[0] - window) if generated else 0
    if offset:
        payload = replace(payload, turns=payload.turns[offset:])
        generated = tuple(i - offset for i in generated)
    d = {
        "id": cand.id,
        "strategy": cand.strategy,
        "source_id": cand.source_id,
        "prescribed_label": cand.prescribed_label,
        "payload": record_to_dict(payload) if payload is not None else None,
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


def write_candidates(candidates, path, window: int) -> None:
    ordered = sorted(candidates, key=lambda c: c.id)
    with open(path, "w", encoding="utf-8") as f:
        for cand in ordered:
            f.write(json.dumps(candidate_to_dict(cand, window), ensure_ascii=False,
                               sort_keys=True) + "\n")
