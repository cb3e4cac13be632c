import random

import pytest

from weakdap import augment
from weakdap.augment import AugmentPlan, _plan_jobs, run_augmentation
from weakdap.baselines import (
    PUNCTUATION,
    AedaConfig,
    BaselineError,
    EdaConfig,
    aeda_augment,
    eda_augment,
    load_lexicon,
    perturb_records,
)
from weakdap.corpus import LabelSpace, LabeledUtterance
from weakdap.genbackend import GenParams
from weakdap.prompt import K_EXAMPLES, PromptSpec, render_context_free_prompt

from conftest import TOY_LABELS, mock_backend, toy_conversation, toy_templates

SPACE = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)


class TestLexicon:
    def test_bundled_lexicon_loads(self):
        lex = load_lexicon()
        assert "good" in lex
        assert all(syns for syns in lex.values())

    def test_custom_file(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# comment\nfoo\tbar, baz\nempty\t\n")
        lex = load_lexicon(p)
        assert lex == {"foo": ["bar", "baz"]}


class TestEda:
    def test_zero_alphas_identity(self):
        cfg = EdaConfig(alpha_sr=0, alpha_ri=0, alpha_rs=0, alpha_rd=0, n_aug=3,
                        synonym_lexicon=load_lexicon())
        assert eda_augment("a good day today", cfg) == ["a good day today"] * 3

    def test_full_deletion_leaves_one_survivor(self):
        cfg = EdaConfig(alpha_sr=0, alpha_ri=0, alpha_rs=0, alpha_rd=1.0, seed=3)
        out = eda_augment("a b c", cfg)
        assert len(out) == 1
        assert out[0] in ("a", "b", "c")

    def test_two_word_swap(self):
        cfg = EdaConfig(alpha_sr=0, alpha_ri=0, alpha_rs=1.0, alpha_rd=0, seed=0)
        out = eda_augment("a b", cfg)[0]
        assert sorted(out.split()) == ["a", "b"]

    def test_deterministic(self):
        lex = load_lexicon()
        cfg = EdaConfig(n_aug=4, seed=7, synonym_lexicon=lex)
        text = "it was a good movie and I think you would like it"
        assert eda_augment(text, cfg) == eda_augment(text, cfg)

    def test_output_tokens_come_from_input_or_lexicon(self):
        lex = load_lexicon()
        cfg = EdaConfig(alpha_sr=0.9, alpha_ri=0.9, alpha_rs=0.5, alpha_rd=0.3,
                        n_aug=5, seed=1, synonym_lexicon=lex)
        text = "a good movie with a happy friend"
        allowed = set(text.split())
        for syns in lex.values():
            allowed.update(s for syn in syns for s in syn.split())
        for variant in eda_augment(text, cfg):
            assert set(variant.split()) <= allowed

    def test_empty_text_rejected(self):
        with pytest.raises(BaselineError):
            eda_augment("   ", EdaConfig())

    def test_alpha_out_of_range(self):
        with pytest.raises(BaselineError):
            EdaConfig(alpha_sr=1.5)


class TestAeda:
    def test_single_word_gets_one_mark(self):
        cfg = AedaConfig(seed=2)
        out = aeda_augment("hello", cfg)
        tokens = out.split()
        marks = [t for t in tokens if t in PUNCTUATION]
        assert len(marks) == 1
        assert [t for t in tokens if t not in PUNCTUATION] == ["hello"]

    def test_token_sequence_preserved(self):
        cfg = AedaConfig(seed=4)
        text = "the quick brown fox jumps over the lazy dog today"
        out = aeda_augment(text, cfg)
        words = [t for t in out.split() if t not in PUNCTUATION]
        assert words == text.split()

    def test_mark_count_range(self):
        text = " ".join(f"w{i}" for i in range(10))
        for seed in range(50):
            cfg = AedaConfig(seed=seed, alpha=0.3)
            out = aeda_augment(text, cfg)
            marks = [t for t in out.split() if t in PUNCTUATION]
            assert 1 <= len(marks) <= 3  # floor(0.3 * 10)

    def test_deterministic(self):
        cfg = AedaConfig(seed=11)
        text = "one two three four"
        assert aeda_augment(text, cfg) == aeda_augment(text, cfg)

    def test_empty_text_rejected(self):
        with pytest.raises(BaselineError):
            aeda_augment("", AedaConfig())


class TestPerturbRecords:
    def _records(self):
        return [LabeledUtterance(id=f"u{i}", text="the good dog runs fast today",
                                 intent="alarm/set", lang="es") for i in range(3)]

    def test_silver_ids_and_fields(self):
        out = perturb_records(self._records(), "eda", seed=1, n_aug=2)
        assert [u.id for u in out] == ["u0-eda0", "u0-eda1", "u1-eda0", "u1-eda1",
                                       "u2-eda0", "u2-eda1"]
        assert all(u.provenance == "silver" and u.intent == "alarm/set" and u.lang == "es"
                   for u in out)
        assert [u.source_id for u in out] == ["u0", "u0", "u1", "u1", "u2", "u2"]

    def test_each_record_has_its_own_seed(self):
        rec = self._records()[0]
        (out,) = perturb_records([rec], "aeda", seed=4, alpha=0.5)
        assert out.id == "u0-aeda"
        assert out.text == aeda_augment(rec.text, AedaConfig(alpha=0.5, seed="4|u0"))

    def test_unset_options_keep_config_defaults(self):
        rec = self._records()[0]
        (out,) = perturb_records([rec], "eda", seed=2)
        expected = eda_augment(rec.text, EdaConfig(synonym_lexicon=load_lexicon(), seed="2|u0"))
        assert out.text == expected[0]

    def test_unknown_method(self):
        with pytest.raises(BaselineError):
            perturb_records(self._records(), "incontext")


class TestRandomInContext:
    """The context-free prompting baseline: the `random` strategy's prompts
    and candidates."""

    def _gold(self, n_convs=6):
        rng = random.Random(3)
        return [toy_conversation(f"g{i}", rng, n=4) for i in range(n_convs)]

    def _run(self, gold, seed=0):
        """(candidate, its prompt) pairs of one `random` pass over gold."""
        prompts = {}
        inner = mock_backend()

        class Recording:
            def complete(self, prompt, params):
                prompts[params.seed] = prompt
                return inner.complete(prompt, params)

        plan = AugmentPlan(strategy="random", multiplier=1.0, seed=seed)
        cands = run_augmentation(gold, plan, Recording(), PromptSpec(task="emotion"), SPACE,
                                 GenParams())
        seeds = {prefix: s for _, prefix, s, _ in _plan_jobs(gold, plan)}
        return [(c, prompts[seeds[c.id]]) for c in cands]

    def test_prompt_has_k_example_lines(self):
        spec = PromptSpec(task="emotion")
        examples = [f"happy utterance number {i}" for i in range(10)]
        rp = render_context_free_prompt(examples, spec, "A", "happiness")
        lines = rp.text.split("\n")
        assert len(lines) == 11
        assert lines[-1] == "Alice in a happy mood:"
        assert lines[:-1] == [f"Alice in a happy mood: {e}" for e in examples]
        assert rp.prescribed_label == "happiness"

    def test_pool_limited(self, monkeypatch):
        # each prompt holds min(k, |pool|) same-label turns, none of its source
        gold = self._gold()
        by_id = {c.id: c for c in gold}
        for k in (2, K_EXAMPLES):
            monkeypatch.setattr(augment, "K_EXAMPLES", k)
            for cand, prompt in self._run(gold):
                source = by_id[cand.source_id]
                pool = [t.text for c in gold if c is not source for t in c.turns
                        if t.emotion == cand.prescribed_label]
                *lines, cue = prompt.text.split("\n")
                examples = [line[len(cue) + 1:] for line in lines]
                assert len(examples) == min(k, len(pool))
                assert set(examples) <= set(pool)
                assert not set(examples) & {t.text for t in source.turns}

    def test_deterministic_selection(self):
        gold = self._gold()
        a, b, c = ([p.text for _, p in self._run(gold, seed)] for seed in (0, 0, 1))
        assert a == b != c

    def test_label_without_pooled_turns_gets_bare_cue(self):
        assert render_context_free_prompt([], PromptSpec(task="emotion"), "B",
                                          "sadness").text == "Bob in a sad mood:"
        rng = random.Random(4)
        gold = [toy_conversation("g0", rng, labels=["neutral", "sadness"]),
                toy_conversation("g1", rng, labels=["neutral", "neutral"])]
        (cand, prompt), _ = self._run(gold)
        assert (cand.source_id, cand.prescribed_label) == ("g0", "sadness")
        assert prompt.text == "Bob in a sad mood:"

    def test_candidate_carries_label_without_context(self):
        pairs = self._run(self._gold())
        assert len(pairs) == 6
        for cand, _ in pairs:
            assert cand.strategy == "random"
            assert cand.payload.n == 1
            assert cand.payload.turns[0].emotion == cand.prescribed_label
            assert cand.payload.turns[0].text in toy_templates()[cand.prescribed_label]
