import json
import math
import random
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from weakdap import augment, corpus
from weakdap.augment import (
    BEAM_CAP,
    AugmentPlan,
    _plan_jobs,
    cross_lingual_augment,
    draw_examples,
    normalize_text,
    ordered_map,
    replace_turns,
    run_augmentation,
    visit_steps,
)
from weakdap.corpus import (
    Candidate,
    LabelSpace,
    LabeledUtterance,
    candidate_to_dict,
    instances_of,
    record_from_dict,
    write_candidates,
)
from weakdap.genbackend import Completion, GenParams, MockBackend, MockGenConfig
from weakdap.prompt import PromptSpec
from weakdap.weaklabel import FilterConfig, filter_candidates

from conftest import TOY_LABELS, mock_backend, toy_conversation, toy_templates

SPACE = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)
SPEC = PromptSpec(task="emotion")


def candidate_from_line(d: dict, gold=None) -> Candidate:
    """The candidate a candidates.jsonl document describes. With gold (id ->
    gold conversation), a dialogue payload is rebuilt whole: the first
    turn_offset turns of its source, then the stored turns; without it, the
    payload holds the stored turns alone."""
    offset = d.get("turn_offset", 0) if gold is not None else 0
    payload = d["payload"]
    if payload is not None:
        payload = record_from_dict(payload, "dialogue" if "turns" in payload else "utterance")
    if offset:
        payload = replace(payload, turns=gold[d["source_id"]].turns[:offset] + payload.turns)
    return Candidate(id=d["id"], payload=payload, prescribed_label=d["prescribed_label"],
                     strategy=d["strategy"], source_id=d["source_id"],
                     generated_turns=tuple(i + offset for i in d.get("generated_turns", ())),
                     silver_label=d.get("silver_label"), entropy=d.get("entropy"),
                     verdict=d["verdict"])


def set_window(monkeypatch, window: int) -> None:
    """Fold `window` previous turns into instances and candidate lines."""
    monkeypatch.setattr(corpus, "CONTEXT_WINDOW", window)


def read_candidates(path, gold=None) -> list[Candidate]:
    """The candidates of a candidates file, rebuilt as candidate_from_line does."""
    return [candidate_from_line(json.loads(line), gold)
            for line in path.read_text(encoding="utf-8").splitlines()]


class CountingBackend:
    """Passes every call on and records (generation params, prompt text)."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []
        self._lock = threading.Lock()

    @property
    def calls(self):
        return len(self.requests)

    def complete(self, prompt, params):
        with self._lock:
            self.requests.append((params, prompt.text))
        return self.inner.complete(prompt, params)


def visit(conv, strategy, backend=None):
    """The candidates of one visit to conv: a plan of exactly its slots."""
    plan = AugmentPlan(strategy=strategy, multiplier=len(visit_steps(conv, strategy, 0)))
    return run_augmentation([conv], plan, backend or mock_backend(), SPEC, SPACE, GenParams())


def lta(conv, backend=None):
    (cand,) = visit(conv, "lta", backend)
    return cand


def cta(conv, backend=None):
    (cand,) = visit(conv, "cta", backend)
    return cand


def generate_visit(conv, seed, plan, prefix="", backend=None):
    """Every candidate of visit_steps for one seed, through replace_turns."""
    return [replace_turns(conv, steps, random.Random(rng_seed), name, prefix + suffix, plan,
                          backend or mock_backend(), SPEC, SPACE, GenParams())
            for name, suffix, steps, rng_seed in visit_steps(conv, plan.strategy, seed)]


class TestLastTurn:
    def test_six_turn_conversation(self):
        conv = toy_conversation("c1", random.Random(0), n=6)
        cand = lta(conv)
        assert cand.payload.n == 6
        assert cand.payload.turns[:5] == conv.turns[:5]
        assert cand.generated_turns == (5,)
        assert cand.payload.provenance == "silver"
        assert cand.payload.source_id == "c1"

    def test_minimal_two_turns(self):
        conv = toy_conversation("c2", random.Random(1), n=2)
        cand = lta(conv)
        assert cand.payload.n == 2
        assert cand.payload.turns[0] == conv.turns[0]

    def test_gold_label_mode_prescribes_gold_label(self):
        conv = toy_conversation("c3", random.Random(2), n=4)
        cand = lta(conv)
        assert cand.prescribed_label == conv.turns[-1].emotion
        assert cand.payload.turns[-1].emotion == cand.prescribed_label

    def test_unparsable_completion_drops_candidate(self):
        backend = MockBackend(MockGenConfig(templates={l: ["   "] for l in TOY_LABELS}))
        conv = toy_conversation("c4", random.Random(3), n=2)
        cand = lta(conv, backend=backend)
        assert cand.verdict == "dropped_parse"
        assert cand.payload is None


class TestAllTurn:
    def test_counts_and_lengths_for_all_n(self):
        backend = mock_backend()
        for n in range(2, 13):
            conv = toy_conversation(f"a{n}", random.Random(n), n=n)
            cands = visit(conv, "ata", backend)
            assert len(cands) == n - 1
            assert sorted(c.payload.n for c in cands) == list(range(2, n + 1))

    def test_contexts_are_all_gold(self):
        conv = toy_conversation("a4", random.Random(4), n=4)
        for cand in visit(conv, "ata"):
            i = cand.generated_turns[0]
            assert cand.payload.turns[:i] == conv.turns[:i]

    def test_n2_degenerates_to_lta(self):
        conv = toy_conversation("a2", random.Random(5), n=2)
        cands = visit(conv, "ata")
        assert len(cands) == 1
        assert cands[0].payload.n == 2

    def test_aggregate_multiplier_matches_mean_length(self):
        # a corpus with average n turns yields ~ (n-1)x candidates per conversation
        rng = random.Random(6)
        convs = [toy_conversation(f"m{i}", rng, n=rng.choice([7, 8, 9])) for i in range(30)]
        total = sum(len(visit(c, "ata")) for c in convs)
        avg_n = sum(c.n for c in convs) / len(convs)
        assert total == sum(c.n - 1 for c in convs)
        assert avg_n - 1.5 < total / len(convs) < avg_n - 0.5


class TestTrajectory:
    def test_first_two_turns_gold_rest_generated(self):
        conv = toy_conversation("t4", random.Random(7), n=4)
        cand = cta(conv)
        assert cand.payload.turns[:2] == conv.turns[:2]
        assert cand.generated_turns == (2, 3)
        assert cand.payload.n == conv.n

    def test_generated_context_feeds_forward(self):
        # the turn-4 prompt must contain generated turn 3's text, not gold turn 3's
        conv = toy_conversation("t5", random.Random(8), n=4)
        cand = cta(conv)
        gen3 = cand.payload.turns[2].text
        assert gen3 != conv.turns[2].text  # template pool is disjoint from gold text

    def test_n3_single_generated_turn(self):
        conv = toy_conversation("t3", random.Random(9), n=3)
        cand = cta(conv)
        assert cand.generated_turns == (2,)

    def test_n2_falls_back_to_lta(self):
        conv = toy_conversation("t2", random.Random(10), n=2)
        cand = cta(conv)
        assert cand.strategy == "lta"
        assert cand.generated_turns == (1,)

    def test_random_label_mode_replays_seeded_stream(self):
        conv = toy_conversation("t6", random.Random(11), n=5)
        plan = AugmentPlan(strategy="cta", label_mode="random")
        (cand,) = generate_visit(conv, 42, plan)
        rng = random.Random(42)
        expected = [rng.choice(SPACE.labels) for _ in range(3, conv.n + 1)]
        got = [cand.payload.turns[i].emotion for i in cand.generated_turns]
        assert got == expected

    def test_instances_are_every_generated_turn_in_context(self):
        conv = toy_conversation("t8", random.Random(13), n=5)
        plan = AugmentPlan(strategy="cta", multiplier=1.0, label_mode="random", seed=4)
        (cand,) = run_augmentation([conv], plan, mock_backend(), SPEC, SPACE, GenParams())
        turns = cand.payload.turns
        assert cand.generated_turns == (2, 3, 4)
        expected = [" ".join([f"{turns[i - 1].speaker}:{w}" for w in turns[i - 1].text.split()]
                             + [turns[i].text]) for i in (2, 3, 4)]
        texts, labels = instances_of([cand], SPACE)
        assert texts == expected
        assert labels == [turns[i].emotion for i in (2, 3, 4)]
        assert labels[-1] == cand.prescribed_label
        assert turns[2].text != conv.turns[2].text and turns[3].text != conv.turns[3].text
        scored = []

        class RecordingModel:
            label_space = SPACE

            def predict_proba(self, texts):
                scored.extend(texts)
                return np.full((len(texts), len(SPACE.labels)), 1 / len(SPACE.labels))

        filter_candidates([cand], RecordingModel(), FilterConfig())
        assert scored == [expected[-1]]  # the filter scores the last generated turn

    def test_parse_failure_aborts_candidate(self):
        backend = MockBackend(MockGenConfig(templates={l: [" "] for l in TOY_LABELS}))
        conv = toy_conversation("t7", random.Random(12), n=4)
        cand = cta(conv, backend)
        assert cand.verdict == "dropped_parse"


class TestCrossLingual:
    def _setup(self):
        ref = LabeledUtterance(id="r", text="pon una alarma", intent="alarm/set", lang="es")
        pool = [LabeledUtterance(id=f"e{i}", text=f"set alarm {i}", intent="alarm/set",
                                 lang="en") for i in range(12)]
        templates = {"alarm/set": ["despiertame a las siete", "alarma para las ocho",
                                   "pon el despertador"]}
        backend = MockBackend(MockGenConfig(templates=templates))
        spec = PromptSpec(task="intent")
        return ref, pool, backend, spec

    @staticmethod
    def _index(pool):
        return {"alarm/set": [(u.id, u.text) for u in pool]}

    def test_distinct_beams_all_kept(self):
        ref, pool, backend, _ = self._setup()
        cands = cross_lingual_augment(ref, self._index(pool), backend,
                                      GenParams(num_return=3), "r")
        assert 1 <= len(cands) <= 3
        texts = [c.payload.text for c in cands]
        assert len(set(texts)) == len(texts)
        assert all(c.payload.intent == "alarm/set" for c in cands)
        assert all(c.payload.lang == "es" for c in cands)

    def test_gold_duplicate_dropped(self):
        ref, pool, backend, _ = self._setup()
        gold_keys = {"despiertame a las siete", "alarma para las ocho", "pon el despertador"}
        cands = cross_lingual_augment(ref, self._index(pool), backend,
                                      GenParams(num_return=3), "r", gold_keys=gold_keys)
        assert cands == []

    def test_cap_at_three_sequences(self):
        ref, pool, backend, spec = self._setup()
        counting = CountingBackend(backend)
        plan = AugmentPlan(strategy="incontext", multiplier=3.0)
        space = LabelSpace(task="intent", labels=("alarm/set",))
        cands = run_augmentation([ref], plan, counting, spec, space, GenParams(num_return=5),
                                 en_pool=pool)
        assert [params.num_return for params, _ in counting.requests] == [3]
        assert len(cands) <= 3

    def test_unparsable_beam_is_recorded_and_duplicate_discarded(self):
        ref, pool, _, _ = self._setup()

        class Fixed:
            def complete(self, prompt, params):
                return [Completion(raw=t, parsed=None, hidden_label="alarm/set")
                        for t in ("  ", "otra alarma", "Otra  ALARMA")]

        cands = cross_lingual_augment(ref, self._index(pool), Fixed(),
                                      GenParams(num_return=3), "r")
        assert [(c.id, c.verdict) for c in cands] == [("r-b0", "dropped_parse"),
                                                      ("r-b1", "pending")]
        assert cands[0].payload is None and cands[0].prescribed_label == "alarm/set"
        assert cands[1].payload.text == "otra alarma"

    def test_draws_keep_an_english_record_sharing_the_reference_id(self):
        ref, pool, backend, _ = self._setup()
        pool = pool[:3] + [replace(pool[3], id=ref.id)]
        counting = CountingBackend(backend)
        cross_lingual_augment(ref, self._index(pool), counting, GenParams(), "r")
        ((_, prompt),) = counting.requests
        assert sorted(prompt.split("\n")[:4]) == \
            sorted(f"English: {u.text} => intent: alarm/set" for u in pool)


class TestDrawExamples:
    INDEX = {"a": [("c1", "one"), ("c2", "two"), ("c1", "three"), ("c3", "four")],
             "b": [("c2", "five")]}

    def test_same_label_texts_of_other_records(self):
        drawn = draw_examples(self.INDEX, "a", random.Random(0), "c1")
        assert sorted(drawn) == ["four", "two"]
        assert draw_examples(self.INDEX, "b", random.Random(0), "c2") == []
        assert draw_examples(self.INDEX, "missing", random.Random(0)) == []

    def test_at_most_k_drawn_by_sample(self, monkeypatch):
        monkeypatch.setattr(augment, "K_EXAMPLES", 2)
        texts = ["one", "two", "three", "four"]
        assert draw_examples(self.INDEX, "a", random.Random(5)) == \
            random.Random(5).sample(texts, 2)


class TestDedup:
    """The normalization behind the in-context duplicate check."""

    def test_normalize(self):
        assert normalize_text("  A  b\tC ") == "a b c"


class TestBudgetScheduler:
    def test_lta_budget_exact(self):
        rng = random.Random(13)
        gold = [toy_conversation(f"g{i}", rng) for i in range(10)]
        plan = AugmentPlan(strategy="lta", multiplier=2.0, seed=1)
        cands = run_augmentation(gold, plan, mock_backend(), SPEC, SPACE, GenParams())
        assert len(cands) == 20

    def test_fractional_multiplier_ceil(self):
        rng = random.Random(14)
        gold = [toy_conversation(f"g{i}", rng) for i in range(10)]
        plan = AugmentPlan(strategy="lta", multiplier=0.55, seed=1)
        cands = run_augmentation(gold, plan, mock_backend(), SPEC, SPACE, GenParams())
        assert len(cands) == math.ceil(0.55 * 10) == 6

    def test_repeated_passes_use_fresh_seeds(self):
        rng = random.Random(15)
        gold = [toy_conversation(f"g{i}", rng) for i in range(5)]
        plan = AugmentPlan(strategy="lta", multiplier=2.0, seed=1)
        cands = run_augmentation(gold, plan, mock_backend(noise_rate=0.5), SPEC, SPACE,
                                 GenParams())
        by_source = {}
        for c in cands:
            by_source.setdefault(c.source_id, []).append(c)
        assert all(len(v) == 2 for v in by_source.values())

    def test_ata_budget_never_exceeded(self):
        rng = random.Random(16)
        gold = [toy_conversation(f"g{i}", rng, n=6) for i in range(4)]
        plan = AugmentPlan(strategy="ata", multiplier=3.0, seed=2)
        cands = run_augmentation(gold, plan, mock_backend(), SPEC, SPACE, GenParams())
        assert len(cands) == 12  # ceil(3.0 * 4)

    def test_ata_requests_only_kept_turns(self):
        rng = random.Random(18)
        gold = [toy_conversation(f"g{i}", rng, n=6) for i in range(10)]
        plan = AugmentPlan(strategy="ata", multiplier=0.55, seed=3)
        backend = CountingBackend(mock_backend(noise_rate=0.3))
        cands = run_augmentation(gold, plan, backend, SPEC, SPACE, GenParams())
        assert len(cands) == 6
        assert backend.calls == 6
        # generating every turn and cutting the list gives the same candidates
        jobs = _plan_jobs(gold, plan)
        assert all(slots == visit_steps(conv, "ata", seed)[:len(slots)]
                   for conv, _, seed, slots in jobs)
        expected = [c for conv, prefix, seed, slots in jobs
                    for c in generate_visit(conv, seed, plan, prefix,
                                            mock_backend(noise_rate=0.3))[:len(slots)]]
        assert cands == expected

    def test_deterministic(self):
        rng = random.Random(17)
        gold = [toy_conversation(f"g{i}", rng) for i in range(8)]
        plan = AugmentPlan(strategy="lta", multiplier=1.5, seed=9)
        a = run_augmentation(gold, plan, mock_backend(noise_rate=0.3), SPEC, SPACE, GenParams())
        b = run_augmentation(gold, plan, mock_backend(noise_rate=0.3), SPEC, SPACE, GenParams())
        assert [(c.id, c.prescribed_label, c.hidden_label) for c in a] == \
               [(c.id, c.prescribed_label, c.hidden_label) for c in b]

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            AugmentPlan(strategy="lta", multiplier=0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            AugmentPlan(strategy="xta")

    def test_unknown_label_mode(self):
        with pytest.raises(ValueError, match="label mode"):
            AugmentPlan(strategy="lta", label_mode="bogus")


class TestRandomStrategy:
    """`random` plans and labels like LTA, but its candidate is the generated
    turn with no dialogue context."""

    def _run(self, strategy, label_mode="gold", backend=None):
        rng = random.Random(41)
        gold = [toy_conversation(f"g{i}", rng, n=4) for i in range(8)]
        plan = AugmentPlan(strategy=strategy, multiplier=1.5, label_mode=label_mode, seed=7)
        return run_augmentation(gold, plan, backend or mock_backend(), SPEC, SPACE,
                                GenParams())

    @pytest.mark.parametrize("label_mode", ["gold", "random"])
    def test_budget_labels_and_sources_match_lta(self, label_mode):
        lta_cands, random_cands = self._run("lta", label_mode), self._run("random", label_mode)
        assert len(random_cands) == len(lta_cands) == 12
        assert [c.id for c in random_cands] == \
               [c.id.replace("-slta-", "-srandom-") for c in lta_cands]
        assert [(c.source_id, c.prescribed_label) for c in random_cands] == \
               [(c.source_id, c.prescribed_label) for c in lta_cands]
        assert {c.strategy for c in random_cands} == {"random"}

    def test_training_instance_is_the_bare_text(self, tmp_path, monkeypatch):
        set_window(monkeypatch, 2)
        cands = self._run("random")
        for cand in cands:
            (turn,) = cand.payload.turns
            assert cand.generated_turns == (0,)
            assert instances_of([cand], SPACE) == \
                ([turn.text], [cand.prescribed_label])
        write_candidates(cands, tmp_path / "c.jsonl")
        loaded = {c.id: c.payload for c in read_candidates(tmp_path / "c.jsonl")}
        assert all(loaded[c.id] == c.payload for c in cands)

    def test_speaker_cues_are_stop_markers(self):
        for strategy in ("lta", "random"):
            backend = CountingBackend(mock_backend())
            self._run(strategy, backend=backend)
            assert backend.calls == 12
            assert all({"Alice ", "Bob "} <= set(params.stop_markers)
                       for params, _ in backend.requests)


INTENTS = ("alarm/set", "weather/find")
INTENT_SPACE = LabelSpace(task="intent", labels=INTENTS)
INTENT_SPEC = PromptSpec(task="intent")


def intent_backend():
    rng = random.Random(31)
    templates = {intent: [f"plantilla {intent} {rng.random():.6f}" for _ in range(20)]
                 for intent in INTENTS}
    return CountingBackend(MockBackend(MockGenConfig(templates=templates)))


def utterances(prefix, lang, per_intent):
    return [LabeledUtterance(id=f"{prefix}{i}", text=f"{lang} frase {prefix} {i}",
                             intent=intent, lang=lang)
            for i, intent in enumerate(INTENTS * per_intent)]


class TestInContextBudget:
    def _run(self, gold, multiplier, en_pool=None):
        plan = AugmentPlan(strategy="incontext", multiplier=multiplier, seed=5)
        backend = intent_backend()
        cands = run_augmentation(gold, plan, backend, INTENT_SPEC, INTENT_SPACE, GenParams(),
                                 en_pool=en_pool)
        return plan, backend, cands

    def test_second_pass_has_fresh_prompts(self):
        refs, pool = utterances("r", "es", 4), utterances("e", "en", 12)
        plan, backend, cands = self._run(refs, 2.0 * BEAM_CAP, en_pool=pool)
        jobs = _plan_jobs(refs, plan)
        assert [len(slots) for *_, slots in jobs] == [BEAM_CAP] * 16
        assert backend.calls == 16
        assert [params.num_return for params, _ in backend.requests] == [BEAM_CAP] * 16
        assert len(cands) == 16 * BEAM_CAP - 1  # the seeded mock repeats one beam
        assert len({c.id for c in cands}) == len(cands)
        pass_of = {seed: prefix.rsplit("-p", 1)[1] for _, prefix, seed, _ in jobs}
        prompts = {"0": set(), "1": set()}
        for params, text in backend.requests:
            prompts[pass_of[params.seed]].add(text)
        assert len(prompts["0"]) == len(prompts["1"]) == 8
        assert not prompts["0"] & prompts["1"]

    def test_three_beams_fill_three_slots_per_call(self):
        refs, pool = utterances("r", "es", 4), utterances("e", "en", 12)
        _, backend, cands = self._run(refs, 3.0, en_pool=pool)
        assert backend.calls == len({text for _, text in backend.requests}) == len(refs)
        assert len(cands) <= 24
        assert {c.source_id for c in cands} == {r.id for r in refs}

    def test_last_job_requests_only_the_budget_left(self):
        refs, pool = utterances("r", "es", 4), utterances("e", "en", 12)
        _, backend, cands = self._run(refs, 1.0, en_pool=pool)
        assert sorted(params.num_return for params, _ in backend.requests) == [2, 3, 3]
        assert len(cands) <= 8

    def test_partial_first_pass_visits_a_seeded_shuffle(self):
        # 8 references at multiplier 1 plan 3 visits of BEAM_CAP slots: which
        # 3 depends on the seed, not on where the references sit in the file
        refs = utterances("r", "es", 4)
        visited = set()
        for seed in range(10):
            plan = AugmentPlan(strategy="incontext", multiplier=1.0, seed=seed)
            order = list(refs)
            random.Random(f"{seed}|0").shuffle(order)
            jobs = _plan_jobs(refs, plan)
            assert [rec for rec, *_ in jobs] == order[:3]
            visited.update(rec.id for rec, *_ in jobs)
        assert visited == {r.id for r in refs}

    def test_english_gold_are_examples_and_spanish_gold_references(self):
        spanish, english = utterances("r", "es", 4), utterances("e", "en", 4)
        _, backend, cands = self._run(english[:4] + spanish + english[4:], float(BEAM_CAP))
        assert backend.calls == len(spanish)
        assert len(cands) == BEAM_CAP * len(spanish) - 2  # two beams repeat earlier ones
        assert {c.source_id for c in cands} == {u.id for u in spanish}

        def texts(prompt, tag):
            return [line[len(tag):].split(" => ")[0]
                    for line in prompt.split("\n") if line.startswith(tag)]

        english_texts = {u.text for u in english}
        references = set()
        for _, prompt in backend.requests:
            examples, (reference,) = texts(prompt, "English: "), texts(prompt, "Spanish: ")
            assert examples and set(examples) <= english_texts
            assert reference not in examples
            references.add(reference)
        assert references == {u.text for u in spanish}

    def test_unparsable_beams_are_dropped_parse_candidates(self):
        refs = utterances("r", "es", 2)
        backend = MockBackend(MockGenConfig(templates={intent: ["   "] for intent in INTENTS}))
        for multiplier in (1.0, 3.0):
            plan = AugmentPlan(strategy="incontext", multiplier=multiplier, seed=5)
            cands = run_augmentation(refs, plan, backend, INTENT_SPEC, INTENT_SPACE,
                                     GenParams())
            assert [c.id for c in cands] == [f"{prefix}-b{j}"
                                             for _, prefix, _, slots in _plan_jobs(refs, plan)
                                             for j in slots]
            assert len(cands) == 4 * multiplier
            assert all(c.verdict == "dropped_parse" and c.payload is None for c in cands)

    def test_english_only_gold_has_no_references(self):
        with pytest.raises(ValueError, match="non-English"):
            self._run(utterances("e", "en", 4), 1.0)

    def test_beams_repeating_gold_are_dropped(self):
        gold = [LabeledUtterance(id=f"r{i}", text=f"Pon  una ALARMA {i}",
                                 intent="alarm/set", lang="es") for i in range(2)]
        templates = {"alarm/set": ["pon una alarma 0", "pon una alarma 1"]}
        backend = MockBackend(MockGenConfig(templates=templates))
        plan = AugmentPlan(strategy="incontext", multiplier=3.0)
        assert run_augmentation(gold, plan, backend, INTENT_SPEC, INTENT_SPACE,
                                GenParams(num_return=3)) == []

    def test_strategy_must_fit_schema(self):
        rng = random.Random(19)
        convs = [toy_conversation(f"g{i}", rng) for i in range(3)]
        with pytest.raises(ValueError, match="utterance"):
            run_augmentation(convs, AugmentPlan(strategy="incontext"), mock_backend(),
                             SPEC, SPACE, GenParams())
        with pytest.raises(ValueError, match="dialogue"):
            run_augmentation(utterances("r", "es", 2), AugmentPlan(strategy="lta"),
                             intent_backend(), INTENT_SPEC, INTENT_SPACE, GenParams())


class TestOrderedMap:
    def test_results_keep_item_order(self):
        def later_items_finish_first(i):
            time.sleep(0.01 * (6 - i))
            return i * i

        assert ordered_map(later_items_finish_first, range(6)) == [i * i for i in range(6)]

    def test_first_failure_in_item_order_is_raised(self):
        def odd_items_fail_last_first(i):
            if i % 2:
                time.sleep(0.05 * (6 - i))
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as exc:
            ordered_map(odd_items_fail_last_first, range(6))
        assert exc.value.args == (1,)

    def test_empty(self):
        assert ordered_map(str, []) == []


class TestCandidatePersistence:
    def test_round_trip(self, tmp_path):
        rng = random.Random(18)
        gold = [toy_conversation(f"g{i}", rng, n=5 + i % 3) for i in range(4)]
        plan = AugmentPlan(strategy="lta", multiplier=1.0, seed=3)
        cands = run_augmentation(gold, plan, mock_backend(), SPEC, SPACE, GenParams())
        path = tmp_path / "c.jsonl"
        write_candidates(cands, path)
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert all(len(d["payload"]["turns"]) == 2 for d in lines)  # context + generated
        loaded = read_candidates(path, {g.id: g for g in gold})
        assert sorted(c.id for c in loaded) == sorted(c.id for c in cands)
        by_id = {c.id: c for c in cands}
        for c in loaded:
            assert c.payload == by_id[c.id].payload
            assert c.generated_turns == by_id[c.id].generated_turns
            assert c.prescribed_label == by_id[c.id].prescribed_label


class TestCandidateLine:
    """A candidate's line stores only the turns its instances read with the
    context window: the generated turns and up to `window` turns before the
    first. Gold's first turn_offset turns and the stored turns rebuild the
    payload, and generated_turns index the stored turns."""

    def _candidates(self, strategy):
        """(gold, label space, candidates) of one augmentation run."""
        plan = AugmentPlan(strategy=strategy, multiplier=2.0, seed=4)
        if strategy == "incontext":
            gold = utterances("r", "es", 3)
            return gold, INTENT_SPACE, run_augmentation(
                gold, plan, intent_backend(), INTENT_SPEC, INTENT_SPACE,
                GenParams(mode="beam", num_return=3), en_pool=utterances("e", "en", 6))
        rng = random.Random(23)
        gold = [toy_conversation(f"g{i}", rng, n=5 + i % 3) for i in range(6)]
        return gold, SPACE, run_augmentation(gold, plan, mock_backend(), SPEC, SPACE,
                                             GenParams())

    @pytest.mark.parametrize("window", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["lta", "ata", "cta", "random", "incontext"])
    def test_line_holds_the_turns_instances_read(self, strategy, window, monkeypatch):
        set_window(monkeypatch, window)
        gold, space, cands = self._candidates(strategy)
        gold_by_id = {g.id: g for g in gold}
        assert cands and all(c.payload is not None for c in cands)
        for cand in cands:
            d = json.loads(json.dumps(candidate_to_dict(cand)))
            whole = candidate_from_line(d, gold_by_id)
            assert (whole.payload, whole.generated_turns) == (cand.payload, cand.generated_turns)
            stored = candidate_from_line(d)
            assert instances_of([stored], space) == instances_of([cand], space)
            if strategy == "incontext":
                assert "generated_turns" not in d and "turn_offset" not in d
                continue
            generated = [cand.payload.turns[i] for i in cand.generated_turns]
            assert [stored.payload.turns[i] for i in d["generated_turns"]] == generated
            # nothing but the read turns: the context window and the generated turns
            first = cand.generated_turns[0]
            assert len(stored.payload.turns) == min(first, window) + len(generated)
            assert d.get("turn_offset", 0) == first - min(first, window)
