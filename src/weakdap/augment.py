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
separate English pool) the examples. Both draw their examples from one
label-keyed index through `draw_examples`.

Generation order never affects results: every candidate's seed is derived
from (plan seed, pass index, source id, position), so the scheduler generates
up to MAX_WORKERS source records at once and joins their candidates in plan
order.
"""
from __future__ import annotations

import math
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .corpus import Candidate, Conversation, CorpusError, LabelSpace, LabeledUtterance, Turn
from .genbackend import GenParams, generate, stable_seed
from .prompt import (
    K_EXAMPLES,
    SPEAKER_NAMES,
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

# Largest multiplier a plan takes, far above any in use: the job list grows with it.
MAX_MULTIPLIER = 100.0

# Most beams one in-context prompt asks for.
BEAM_CAP = 3


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
        if not 0 < self.multiplier <= MAX_MULTIPLIER:
            raise ValueError(f"multiplier must be in (0, {MAX_MULTIPLIER:g}], "
                             f"got {self.multiplier}")


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


def draw_examples(index, label: str, rng: random.Random, source=None) -> list[str]:
    """Up to K_EXAMPLES example texts of `label` from an example index (label
    -> [(source record id, text)]), drawn by rng.sample in index order; the
    texts of record `source` are left out."""
    texts = [text for record_id, text in index.get(label, ()) if record_id != source]
    return rng.sample(texts, min(K_EXAMPLES, len(texts)))


def replace_turns(conv: Conversation, steps, rng: random.Random, strategy: str, cand_id: str,
                  plan: AugmentPlan, backend, spec: PromptSpec, label_space: LabelSpace,
                  params: GenParams, index=None) -> Candidate:
    """One candidate from generating the 1-based turns of `steps`, a list of
    consecutive (turn index, generation seed) pairs. Turns before the first
    step are gold, every generated turn is context for the later steps, and
    the candidate ends at the last step. Labels are drawn from rng in step
    order; a parse failure drops the whole candidate. With an example index
    (see draw_examples) a turn is generated without context: its prompt holds
    up to K_EXAMPLES turns of other conversations drawn from rng after the
    label, and the candidate holds the generated turns alone."""
    turns = [] if index is not None else list(conv.turns[: steps[0][0] - 1])
    stop = tuple(params.stop_markers) + tuple(f"{n} " for n in SPEAKER_NAMES.values())
    for i, seed in steps:
        target = conv.turns[i - 1]
        label = prescribe_label(target, label_space, plan.label_mode, rng)
        if index is None:
            prompt = render_dialogue_prompt(turns, spec, label)
        else:
            examples = draw_examples(index, label, rng, conv.id)
            prompt = render_context_free_prompt(examples, spec, target.speaker, label)
        completion = generate(prompt, replace(params, seed=seed, stop_markers=stop), backend)[0]
        if completion.parsed is None:
            return Candidate(id=cand_id, payload=None, prescribed_label=label,
                             strategy=strategy, source_id=conv.id, verdict="dropped_parse")
        turns.append(Turn(speaker=target.speaker, text=completion.parsed,
                          **{label_space.task: label}))
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


def cross_lingual_augment(ref: LabeledUtterance, index, backend, params: GenParams,
                          id_prefix: str, gold_keys=frozenset(),
                          seed: int = 0) -> list[Candidate]:
    """Beam-generate params.num_return new Spanish utterances for the
    reference's intent, mixing it with up to K_EXAMPLES English examples of
    that intent drawn from the example index (see draw_examples) with a
    generator seeded by `seed`. A beam that does not parse is a dropped_parse
    candidate; one that duplicates gold (gold_keys holds the gold texts after
    normalize_text) or an earlier beam is discarded."""
    examples = draw_examples(index, ref.intent, random.Random(seed))
    prompt = render_intent_prompt(ref, examples)
    completions = generate(prompt, replace(params, seed=seed, mode="beam"), backend)
    seen = set()
    out = []
    for j, c in enumerate(completions):
        cand_id = f"{id_prefix}-b{j}"
        payload = None
        if c.parsed is not None:
            key = normalize_text(c.parsed)
            if key in gold_keys or key in seen:
                continue
            seen.add(key)
            payload = LabeledUtterance(id=cand_id, text=c.parsed, intent=ref.intent, lang="es",
                                       provenance="silver", source_id=ref.id)
        out.append(Candidate(id=cand_id, payload=payload, prescribed_label=ref.intent,
                             strategy="incontext", source_id=ref.id,
                             verdict="pending" if payload is not None else "dropped_parse",
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


def _plan_jobs(gold, plan: AugmentPlan) -> list[tuple]:
    """Budget scheduler: repeated full passes over gold with fresh seeds until
    ceil(multiplier * |gold|) candidate slots are planned. Every later pass,
    and a first pass the budget ends early, visits a seeded uniform shuffle
    of gold, so no record is favoured for its place in the file. Returns one
    (record, candidate id prefix, seed, slots) job per visit, in output
    order. A visit's slots are its beam indices range(BEAM_CAP) in-context
    and the layouts of visit_steps otherwise; the last job keeps only the
    first slots, as many as are left of the budget."""
    target = math.ceil(plan.multiplier * len(gold))
    jobs = []
    planned = 0
    pass_idx = 0
    while planned < target:
        visits = []
        for rec in gold:
            seed = stable_seed(f"{plan.seed}|{pass_idx}|{rec.id}")
            visits.append((rec, seed, range(BEAM_CAP) if plan.strategy == "incontext"
                           else visit_steps(rec, plan.strategy, seed)))
        if pass_idx > 0 or target < sum(len(slots) for _, _, slots in visits):
            random.Random(f"{plan.seed}|{pass_idx}").shuffle(visits)
        for rec, seed, slots in visits:
            if planned >= target:
                break
            slots = slots[: target - planned]
            jobs.append((rec, f"{rec.id}-s{plan.strategy}-p{pass_idx}", seed, slots))
            planned += len(slots)
        pass_idx += 1
    return jobs


def _example_index(entries) -> dict:
    """The example index (label -> [(source record id, text)]) of
    (label, record id, text) entries, in entry order."""
    index = {}
    for label, record_id, text in entries:
        index.setdefault(label, []).append((record_id, text))
    return index


def run_augmentation(gold, plan: AugmentPlan, backend, spec: PromptSpec,
                     label_space: LabelSpace, params: GenParams,
                     en_pool=None) -> list[Candidate]:
    """Candidates for the jobs of _plan_jobs, generated concurrently across
    source records (see ordered_map) and returned in plan order. Never
    produces more than the budget; parse failures count as produced
    candidates. The strategy must fit the records' schema. Examples come from
    one index built here: for `random` the turns of all gold conversations
    under their labels, in-context the utterances of en_pool, or else the
    English gold utterances, under their intents. In-context, the references
    (and the budget's base) are the gold utterances not in English, so no
    record is both."""
    gold = list(gold)
    dialogue = plan.strategy != "incontext"
    if any(isinstance(rec, Conversation) != dialogue for rec in gold):
        raise ValueError(f"strategy {plan.strategy!r} needs "
                         f"{'dialogue' if dialogue else 'utterance'} records")
    index = None
    if plan.strategy == "random":
        index = _example_index((turn.label(label_space.task), conv.id, turn.text)
                               for conv in gold for turn in conv.turns)
    if not dialogue:
        gold_keys = frozenset(normalize_text(u.text) for u in gold)
        english = [u for u in gold if u.lang == "en"]
        index = _example_index((u.intent, u.id, u.text)
                               for u in (en_pool if en_pool is not None else english))
        gold = [u for u in gold if u.lang != "en"]
        if english and not gold:
            raise ValueError("in-context augmentation needs non-English references")

    def run(job) -> list[Candidate]:
        rec, prefix, seed, slots = job
        if not dialogue:
            return cross_lingual_augment(rec, index, backend,
                                         replace(params, num_return=len(slots)), prefix,
                                         gold_keys, seed)
        return [replace_turns(rec, steps, random.Random(rng_seed), name, prefix + suffix,
                              plan, backend, spec, label_space, params, index)
                for name, suffix, steps, rng_seed in slots]

    jobs = _plan_jobs(gold, plan)
    return [c for cands in ordered_map(run, jobs) for c in cands]

