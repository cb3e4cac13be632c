import json
import math
import random
import socket

import pytest

from weakdap.cli import main
from weakdap.corpus import LabeledUtterance, write_jsonl

from conftest import TOY_LABELS, toy_conversation, toy_sentence, toy_templates


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Data files shared by every CLI invocation in this module."""
    root = tmp_path_factory.mktemp("cli")
    rng = random.Random(7)
    write_jsonl([toy_conversation(f"tr{i}", rng) for i in range(30)],
                root / "train.jsonl")
    write_jsonl([toy_conversation(f"va{i}", rng) for i in range(30)],
                root / "val.jsonl")
    utterances = [
        LabeledUtterance(id=f"u{i}", text=toy_sentence(label, rng),
                         intent=label, lang="en")
        for i, label in enumerate(TOY_LABELS * 8)
    ]
    write_jsonl(utterances, root / "utterances.jsonl")
    # in-context gold: 32 Spanish references and 16 English examples
    write_jsonl([LabeledUtterance(id=f"es{i}", text=toy_sentence(label, rng),
                                  intent=label, lang="es")
                 for i, label in enumerate(TOY_LABELS * 8)]
                + [LabeledUtterance(id=f"en{i}", text=toy_sentence(label, rng),
                                    intent=label, lang="en")
                   for i, label in enumerate(TOY_LABELS * 4)],
                root / "intent_train.jsonl")
    write_jsonl([LabeledUtterance(id=f"v{i}", text=toy_sentence(label, rng),
                                  intent=label, lang="es")
                 for i, label in enumerate(TOY_LABELS * 4)],
                root / "val_utterances.jsonl")
    (root / "labels.json").write_text(json.dumps(
        {"task": "emotion", "labels": list(TOY_LABELS), "majority": 0}))
    (root / "templates.json").write_text(json.dumps(toy_templates()))
    return root


def _weakdap_args(workspace, out, extra=()):
    return ["weakdap",
            "--train", str(workspace / "train.jsonl"),
            "--val", str(workspace / "val.jsonl"),
            "--labels", str(workspace / "labels.json"),
            "--backend", "mock",
            "--mock-templates", str(workspace / "templates.json"),
            "--noise-rate", "0.3",
            "--max-iterations", "2",
            "--seed", "5",
            "--out", str(out), *extra]


class TestSample:
    def test_manifest_and_output(self, workspace, tmp_path):
        rc = main(["sample", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--fraction", "0.25", "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fraction"] == 0.25
        assert manifest["seed"] == 3
        assert manifest["stratified"] is True
        assert manifest["input_records"] == 30
        assert set(manifest["label_counts"]) == set(TOY_LABELS)
        lines = (tmp_path / "sampled.jsonl").read_text().strip().split("\n")
        assert len(lines) == manifest["sampled_records"] > 0

    def test_reproducible(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["sample", "--data", str(workspace / "train.jsonl"),
                  "--labels", str(workspace / "labels.json"),
                  "--fraction", "0.25", "--seed", "3", "--out", str(out)])
        assert (a / "sampled.jsonl").read_bytes() == (b / "sampled.jsonl").read_bytes()

    def test_bad_fraction_is_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit):
            main(["sample", "--data", str(workspace / "train.jsonl"),
                  "--labels", str(workspace / "labels.json"),
                  "--fraction", "1.5", "--out", str(tmp_path)])

    def test_config_file_overridden_by_flag(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fraction": 0.5, "seed": 1}))
        main(["--config", str(cfg),
              "sample", "--data", str(workspace / "train.jsonl"),
              "--labels", str(workspace / "labels.json"),
              "--seed", "9", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fraction"] == 0.5  # from config file
        assert manifest["seed"] == 9  # flag wins


class TestAugment:
    def test_budget_and_output(self, workspace, tmp_path):
        out = tmp_path / "cands.jsonl"
        rc = main(["augment", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--strategy", "lta", "--multiplier", "1.5", "--seed", "2",
                   "--backend", "mock",
                   "--mock-templates", str(workspace / "templates.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(rows) == math.ceil(1.5 * 30)
        assert all(r["strategy"] == "lta" for r in rows)

    def test_unreachable_backend_is_clean_error(self, workspace, tmp_path, capsys):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]  # closed once the block ends
        rc = main(["augment", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--backend", "http", "--endpoint", f"http://127.0.0.1:{port}",
                   "--out", str(tmp_path / "c.jsonl")])
        err = capsys.readouterr().err
        assert rc != 0
        assert err.startswith("error: backend unreachable after 3 attempts")
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_in_context_reads_utterances(self, workspace, tmp_path):
        out = tmp_path / "cands.jsonl"
        rc = main(["augment", "--data", str(workspace / "intent_train.jsonl"),
                   "--labels", str(workspace / "labels.json"), "--strategy", "incontext",
                   "--multiplier", "1.0", "--seed", "2", "--backend", "mock",
                   "--mock-templates", str(workspace / "templates.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert 0 < len(rows) <= 32
        assert all(r["strategy"] == "incontext" for r in rows)
        assert {r["source_id"][:2] for r in rows} == {"es"}

    def test_mock_backend_requires_templates(self, workspace, tmp_path):
        with pytest.raises(SystemExit):
            main(["augment", "--data", str(workspace / "train.jsonl"),
                  "--labels", str(workspace / "labels.json"),
                  "--backend", "mock", "--out", str(tmp_path / "c.jsonl")])


class TestTrainEval:
    def test_round_trip(self, workspace, tmp_path):
        model_path = tmp_path / "model.json"
        rc = main(["train", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--seed", "0", "--out", str(model_path)])
        assert rc == 0
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--model", str(model_path),
                   "--data", str(workspace / "val.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["micro_f1_no_majority"] <= 1.0

    def test_corpus_error_exit_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "id": "x", "turns": [
                {"speaker": "A", "text": "hi", "emotion": "nosuchlabel"},
                {"speaker": "B", "text": "yo", "emotion": "neutral"}]}) + "\n")
        rc = main(["train", "--data", str(bad),
                   "--labels", str(workspace / "labels.json"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2


class TestWeakdapCommand:
    def test_defaults_echoed_into_run_record(self, workspace, tmp_path):
        rc = main(_weakdap_args(workspace, tmp_path))
        assert rc == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["filter"]["percentile"] == 80.0
        assert run["config"]["loop"]["epsilon"] == 0.005
        assert run["config"]["loop"]["patience"] == 3
        assert run["config"]["loop"]["regen"] == "fresh"
        assert len(run["iterations"]) == 2
        assert run["best"]["iteration"] == run["state"]["best_iteration"]

    def test_filter_percentile_override(self, workspace, tmp_path):
        main(_weakdap_args(workspace, tmp_path, ["--filter-percentile", "90"]))
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["filter"]["percentile"] == 90.0

    def test_regen_mode_recorded(self, workspace, tmp_path):
        main(_weakdap_args(workspace, tmp_path, ["--regen", "refilter"]))
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["loop"]["regen"] == "refilter"

    def _utterance_args(self, workspace, out, extra):
        return ["weakdap", "--schema", "utterance",
                "--train", str(workspace / "intent_train.jsonl"),
                "--val", str(workspace / "val_utterances.jsonl"),
                "--labels", str(workspace / "labels.json"),
                "--backend", "mock",
                "--mock-templates", str(workspace / "templates.json"),
                "--max-iterations", "1", "--seed", "5", "--out", str(out), *extra]

    def test_strategy_schema_mismatch_is_usage_error(self, workspace, tmp_path, capsys):
        rc = main(self._utterance_args(workspace, tmp_path, ["--strategy", "lta"]))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_in_context_loop_honours_multiplier(self, workspace, tmp_path):
        rc = main(self._utterance_args(workspace, tmp_path,
                                       ["--strategy", "incontext", "--multiplier", "2.0"]))
        assert rc == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["plan"]["strategy"] == "incontext"
        assert 32 < run["iterations"][0]["counts"]["produced"] <= 64

    def test_utterance_schema_defaults_to_in_context(self, workspace, tmp_path):
        assert main(self._utterance_args(workspace, tmp_path, [])) == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["plan"]["strategy"] == "incontext"

    def test_in_context_strategy_implies_utterance_schema(self, workspace, tmp_path):
        args = self._utterance_args(workspace, tmp_path, ["--strategy", "incontext"])
        args.remove("--schema")
        args.remove("utterance")
        assert main(args) == 0

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(_weakdap_args(workspace, a))
        main(_weakdap_args(workspace, b))
        rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert rel_a == rel_b
        for rel in rel_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestBaselineCommand:
    def test_eda(self, workspace, tmp_path):
        out = tmp_path / "eda.jsonl"
        rc = main(["baseline", "--method", "eda",
                   "--data", str(workspace / "utterances.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--n-aug", "2", "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(rows) == 2 * 32
        assert all(r["provenance"] == "silver" for r in rows)

    def test_aeda(self, workspace, tmp_path):
        out = tmp_path / "aeda.jsonl"
        rc = main(["baseline", "--method", "aeda",
                   "--data", str(workspace / "utterances.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(rows) == 32
        assert all(r["source_id"] for r in rows)

    def test_incontext(self, workspace, tmp_path):
        out = tmp_path / "ic.jsonl"
        rc = main(["baseline", "--method", "incontext",
                   "--data", str(workspace / "utterances.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--backend", "mock",
                   "--mock-templates", str(workspace / "templates.json"),
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert {r["prescribed_label"] for r in rows} == set(TOY_LABELS)
