import math
import random
import threading
import time

import pytest

from weakdap.augment import (
    AugmentPlan,
    _plan_jobs,
    all_turn_augment,
    cross_lingual_augment,
    last_turn_augment,
    load_candidates,
    normalize_text,
    ordered_map,
    run_augmentation,
    trajectory_augment,
    write_candidates,
)
from weakdap.corpus import CorpusError, LabelSpace, LabeledUtterance
from weakdap.genbackend import GenParams, MockBackend, MockGenConfig
from weakdap.prompt import PromptSpec

from conftest import TOY_LABELS, mock_backend, toy_conversation, toy_templates

SPACE = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)
SPEC = PromptSpec(task="emotion")


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


def lta(conv, backend=None, plan=None, seed=0):
    backend = backend or mock_backend()
    plan = plan or AugmentPlan(strategy="lta")
    return last_turn_augment(conv, plan, backend, SPEC, SPACE, GenParams(), f"{conv.id}-s", seed)


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
        plan = AugmentPlan(strategy="ata")
        backend = mock_backend()
        for n in range(2, 13):
            conv = toy_conversation(f"a{n}", random.Random(n), n=n)
            cands = all_turn_augment(conv, plan, backend, SPEC, SPACE, GenParams(),
                                     conv.id, seed=0)
            assert len(cands) == n - 1
            assert sorted(c.payload.n for c in cands) == list(range(2, n + 1))

    def test_contexts_are_all_gold(self):
        conv = toy_conversation("a4", random.Random(4), n=4)
        cands = all_turn_augment(conv, AugmentPlan(strategy="ata"), mock_backend(),
                                 SPEC, SPACE, GenParams(), conv.id, seed=0)
        for cand in cands:
            i = cand.generated_turns[0]
            assert cand.payload.turns[:i] == conv.turns[:i]

    def test_n2_degenerates_to_lta(self):
        conv = toy_conversation("a2", random.Random(5), n=2)
        cands = all_turn_augment(conv, AugmentPlan(strategy="ata"), mock_backend(),
                                 SPEC, SPACE, GenParams(), conv.id, seed=0)
        assert len(cands) == 1
        assert cands[0].payload.n == 2

    def test_aggregate_multiplier_matches_mean_length(self):
        # a corpus with average n turns yields ~ (n-1)x candidates per conversation
        rng = random.Random(6)
        convs = [toy_conversation(f"m{i}", rng, n=rng.choice([7, 8, 9])) for i in range(30)]
        total = sum(len(all_turn_augment(c, AugmentPlan(strategy="ata"), mock_backend(),
                                         SPEC, SPACE, GenParams(), c.id, seed=0))
                    for c in convs)
        avg_n = sum(c.n for c in convs) / len(convs)
        assert total == sum(c.n - 1 for c in convs)
        assert avg_n - 1.5 < total / len(convs) < avg_n - 0.5


class TestTrajectory:
    def test_first_two_turns_gold_rest_generated(self):
        conv = toy_conversation("t4", random.Random(7), n=4)
        cand = trajectory_augment(conv, AugmentPlan(strategy="cta"), mock_backend(),
                                  SPEC, SPACE, GenParams(), "t4-s", seed=0)
        assert cand.payload.turns[:2] == conv.turns[:2]
        assert cand.generated_turns == (2, 3)
        assert cand.payload.n == conv.n

    def test_generated_context_feeds_forward(self):
        # the turn-4 prompt must contain generated turn 3's text, not gold turn 3's
        conv = toy_conversation("t5", random.Random(8), n=4)
        cand = trajectory_augment(conv, AugmentPlan(strategy="cta"), mock_backend(),
                                  SPEC, SPACE, GenParams(), "t5-s", seed=0)
        gen3 = cand.payload.turns[2].text
        assert gen3 != conv.turns[2].text  # template pool is disjoint from gold text

    def test_n3_single_generated_turn(self):
        conv = toy_conversation("t3", random.Random(9), n=3)
        cand = trajectory_augment(conv, AugmentPlan(strategy="cta"), mock_backend(),
                                  SPEC, SPACE, GenParams(), "t3-s", seed=0)
        assert cand.generated_turns == (2,)

    def test_n2_rejected(self):
        conv = toy_conversation("t2", random.Random(10), n=2)
        with pytest.raises(CorpusError):
            trajectory_augment(conv, AugmentPlan(strategy="cta"), mock_backend(),
                               SPEC, SPACE, GenParams(), "t2-s", seed=0)

    def test_random_label_mode_replays_seeded_stream(self):
        conv = toy_conversation("t6", random.Random(11), n=5)
        plan = AugmentPlan(strategy="cta", label_mode="random")
        cand = trajectory_augment(conv, plan, mock_backend(), SPEC, SPACE,
                                  GenParams(), "t6-s", seed=42)
        rng = random.Random(42)
        expected = [rng.choice(SPACE.labels) for _ in range(3, conv.n + 1)]
        got = [cand.payload.turns[i].emotion for i in cand.generated_turns]
        assert got == expected

    def test_parse_failure_aborts_candidate(self):
        backend = MockBackend(MockGenConfig(templates={l: [" "] for l in TOY_LABELS}))
        conv = toy_conversation("t7", random.Random(12), n=4)
        cand = trajectory_augment(conv, AugmentPlan(strategy="cta"), backend,
                                  SPEC, SPACE, GenParams(), "t7-s", seed=0)
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

    def test_distinct_beams_all_kept(self):
        ref, pool, backend, spec = self._setup()
        cands = cross_lingual_augment(ref, pool, AugmentPlan(strategy="incontext"),
                                      backend, spec, GenParams(num_return=3), "r")
        assert 1 <= len(cands) <= 3
        texts = [c.payload.text for c in cands]
        assert len(set(texts)) == len(texts)
        assert all(c.payload.intent == "alarm/set" for c in cands)
        assert all(c.payload.lang == "es" for c in cands)

    def test_gold_duplicate_dropped(self):
        ref, pool, backend, spec = self._setup()
        gold_keys = {"despiertame a las siete", "alarma para las ocho", "pon el despertador"}
        cands = cross_lingual_augment(ref, pool, AugmentPlan(strategy="incontext"),
                                      backend, spec, GenParams(num_return=3), "r",
                                      gold_keys=gold_keys)
        assert cands == []

    def test_cap_at_three_sequences(self):
        ref, pool, backend, spec = self._setup()
        cands = cross_lingual_augment(ref, pool, AugmentPlan(strategy="incontext"),
                                      backend, spec, GenParams(num_return=5), "r")
        assert len(cands) <= 3


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
        expected = [c for conv, prefix, seed, keep in _plan_jobs(gold, plan)
                    for c in all_turn_augment(conv, plan, mock_backend(noise_rate=0.3), SPEC,
                                              SPACE, GenParams(), prefix, seed)[:keep]]
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


INTENTS = ("alarm/set", "weather/find")
INTENT_SPACE = LabelSpace(task="intent", labels=INTENTS)
INTENT_SPEC = PromptSpec(task="intent", k_examples=3)


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
    def _run(self, gold, multiplier, num_return, en_pool=None):
        plan = AugmentPlan(strategy="incontext", multiplier=multiplier, seed=5)
        backend = intent_backend()
        params = GenParams(mode="beam", num_return=num_return)
        cands = run_augmentation(gold, plan, backend, INTENT_SPEC, INTENT_SPACE, params,
                                 en_pool=en_pool)
        return plan, backend, cands

    def test_second_pass_has_fresh_prompts(self):
        refs, pool = utterances("r", "es", 4), utterances("e", "en", 12)
        plan, backend, cands = self._run(refs, 2.0, 1, en_pool=pool)
        jobs = _plan_jobs(refs, plan, 1)
        assert sum(keep for *_, keep in jobs) == 16
        assert backend.calls == 16
        assert len(cands) == 16
        assert len({c.id for c in cands}) == 16
        pass_of = {seed: prefix.rsplit("-p", 1)[1] for _, prefix, seed, _ in jobs}
        prompts = {"0": set(), "1": set()}
        for params, text in backend.requests:
            prompts[pass_of[params.seed]].add(text)
        assert len(prompts["0"]) == len(prompts["1"]) == 8
        assert not prompts["0"] & prompts["1"]

    def test_three_beams_fill_three_slots_per_call(self):
        refs, pool = utterances("r", "es", 4), utterances("e", "en", 12)
        _, backend, cands = self._run(refs, 3.0, 3, en_pool=pool)
        assert backend.calls == len({text for _, text in backend.requests}) == len(refs)
        assert len(cands) <= 24
        assert {c.source_id for c in cands} == {r.id for r in refs}

    def test_last_job_requests_only_the_budget_left(self):
        refs, pool = utterances("r", "es", 4), utterances("e", "en", 12)
        _, backend, cands = self._run(refs, 1.0, 3, en_pool=pool)
        assert sorted(params.num_return for params, _ in backend.requests) == [2, 3, 3]
        assert len(cands) <= 8

    def test_english_gold_are_examples_and_spanish_gold_references(self):
        spanish, english = utterances("r", "es", 4), utterances("e", "en", 4)
        _, backend, cands = self._run(english[:4] + spanish + english[4:], 1.0, 1)
        assert backend.calls == len(cands) == len(spanish)
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

    def test_english_only_gold_has_no_references(self):
        with pytest.raises(ValueError, match="non-English"):
            self._run(utterances("e", "en", 4), 1.0, 1)

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
        gold = [toy_conversation(f"g{i}", rng) for i in range(4)]
        plan = AugmentPlan(strategy="lta", multiplier=1.0, seed=3)
        cands = run_augmentation(gold, plan, mock_backend(), SPEC, SPACE, GenParams())
        path = tmp_path / "c.jsonl"
        write_candidates(cands, path)
        loaded = load_candidates(path, "dialogue")
        assert sorted(c.id for c in loaded) == sorted(c.id for c in cands)
        by_id = {c.id: c for c in cands}
        for c in loaded:
            assert c.payload.turns == by_id[c.id].payload.turns
            assert c.prescribed_label == by_id[c.id].prescribed_label
