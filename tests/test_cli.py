import argparse
import base64
import json
import math
import random
import re
import shlex
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

import weakdap.loop
from weakdap.cli import CONFIG_TYPES, OPTIONS, _fill_options, _make_backend, build_parser, main
from weakdap.corpus import LabeledUtterance, to_dict, write_jsonl
from weakdap.genbackend import MockBackend
from weakdap.weaklabel import WeakLabeler, _featurizer_block

from conftest import (
    TOY_LABELS,
    read_checkpoint,
    toy_conversation,
    toy_sentence,
    toy_templates,
    write_checkpoint,
)


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
    (root / "intent_labels.json").write_text(json.dumps(
        {"task": "intent", "labels": list(TOY_LABELS)}))
    (root / "templates.json").write_text(json.dumps(toy_templates()))
    return root


def _files(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


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

    def test_bad_fraction_is_usage_error(self, workspace, tmp_path, capsys):
        rc = main(["sample", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--fraction", "1.5", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: fraction must be in (0, 1], got 1.5\n"

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

    def test_config_value_a_flag_overrides_is_still_checked(self, workspace, tmp_path,
                                                            capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "x", "fraction": 0.5}))
        rc = main(["--config", str(cfg),
                   "sample", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--seed", "5", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: config key 'seed': 'x' is not int\n"
        assert not (tmp_path / "out").exists()

    def test_config_key_of_an_option_the_command_lacks_is_ignored(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": "x", "fraction": 0.5}))
        rc = main(["--config", str(cfg),
                   "sample", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"), "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["fraction"] == 0.5

    @pytest.mark.parametrize("field,value", [
        ("majority", "0"), ("majority", 1.5), ("majority", [0]), ("majority", True),
        ("labels", 5), ("labels", ["neutral", 3]), ("task", ["emotion"]),
    ], ids=["majority-string", "majority-float", "majority-list", "majority-bool",
            "labels-number", "labels-non-string", "task-list"])
    def test_malformed_label_space_is_usage_error(self, workspace, tmp_path, capsys,
                                                  field, value):
        labels = {"task": "emotion", "labels": list(TOY_LABELS), "majority": 0, field: value}
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        rc = main(["sample", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(tmp_path / "labels.json"),
                   "--fraction", "0.25", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


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
        assert rc == 1
        assert err.startswith("error: backend unreachable after 3 attempts")
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_in_context_reads_utterances(self, workspace, tmp_path):
        out = tmp_path / "cands.jsonl"
        rc = main(["augment", "--data", str(workspace / "intent_train.jsonl"),
                   "--labels", str(workspace / "intent_labels.json"), "--strategy", "incontext",
                   "--multiplier", "1.0", "--seed", "2", "--backend", "mock",
                   "--mock-templates", str(workspace / "templates.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert 0 < len(rows) <= 32
        assert all(r["strategy"] == "incontext" for r in rows)
        assert {r["source_id"][:2] for r in rows} == {"es"}

    def test_random_strategy_is_context_free(self, workspace, tmp_path):
        out = tmp_path / "cands.jsonl"
        rc = main(["augment", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"), "--strategy", "random",
                   "--multiplier", "1.5", "--seed", "2", "--backend", "mock",
                   "--mock-templates", str(workspace / "templates.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(rows) == math.ceil(1.5 * 30)
        assert all(r["strategy"] == "random" for r in rows)
        assert all(len(r["payload"]["turns"]) == 1 and r["generated_turns"] == [0]
                   for r in rows)

    @pytest.mark.parametrize("flags", [
        [], ["--endpoint", "ftp://localhost"], ["--endpoint", "localhost:8080"],
        ["--endpoint", "http://:8080"], ["--endpoint", "http://localhost:port"],
        ["--endpoint", "http://localhost:0"], ["--endpoint", "http://localhost:70000"],
        ["--endpoint", "http://local host"], ["--endpoint", "http://user:pw@localhost"],
        ["--endpoint", "http://localhost/v1?key=k"],
    ], ids=["missing", "ftp-scheme", "no-scheme", "no-host", "port-not-a-number",
            "port-zero", "port-out-of-range", "space", "credentials", "query"])
    def test_bad_endpoint_is_usage_error(self, workspace, tmp_path, capsys, monkeypatch,
                                         flags):
        monkeypatch.delenv("WEAKDAP_ENDPOINT", raising=False)
        rc = main(["augment", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--backend", "http", *flags, "--out", str(tmp_path / "c.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_endpoint_flag_beats_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv("WEAKDAP_ENDPOINT", "http://env")
        parser = build_parser()

        def endpoint(flags, config):
            args = parser.parse_args(["augment", "--data", "d", "--labels", "l",
                                      "--out", "o", "--backend", "http", *flags])
            _fill_options(args, config)
            return _make_backend(args, ()).endpoint

        assert endpoint([], {}) == "http://env"
        assert endpoint([], {"endpoint": "http://config"}) == "http://config"
        assert endpoint(["--endpoint", "http://flag"],
                        {"endpoint": "http://config"}) == "http://flag"

    def test_answer_without_completions_is_clean_error(self, workspace, tmp_path, capsys):
        class Empty(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.end_headers()
                self.wfile.write(b'{"completions": []}')

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Empty)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            rc = main(["augment", "--data", str(workspace / "train.jsonl"),
                       "--labels", str(workspace / "labels.json"), "--backend", "http",
                       "--endpoint", f"http://127.0.0.1:{server.server_port}",
                       "--out", str(tmp_path / "c.jsonl")])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: backend request failed: 0 completions, asked for 1\n"
        assert not (tmp_path / "c.jsonl").exists()

    def test_mock_backend_requires_templates(self, workspace, tmp_path, capsys):
        rc = main(["augment", "--data", str(workspace / "train.jsonl"),
                   "--labels", str(workspace / "labels.json"),
                   "--backend", "mock", "--out", str(tmp_path / "c.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == "error: mock backend needs --mock-templates\n"


class TestTrainEval:
    def _train(self, workspace, model_path):
        assert main(["train", "--data", str(workspace / "train.jsonl"),
                     "--labels", str(workspace / "labels.json"),
                     "--seed", "0", "--out", str(model_path)]) == 0

    def test_round_trip(self, workspace, tmp_path):
        model_path = tmp_path / "model.ckpt"
        self._train(workspace, model_path)
        assert read_checkpoint(model_path)[0]["version"] == 5
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--model", str(model_path),
                   "--data", str(workspace / "val.jsonl"),
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["micro_f1_no_majority"] <= 1.0

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["header"].pop("n_columns"),
        lambda doc: doc.update(columns=[-1] + doc["columns"][1:]),
        lambda doc: doc.update(columns=doc["columns"][:1] * len(doc["columns"])),
        lambda doc: doc.update(weights=doc["weights"][:-2]),
        lambda doc: doc["header"].update(bias=doc["header"]["bias"][:1]),
        lambda doc: "{not json",
    ], ids=["missing-key", "negative-column", "duplicate-columns", "short-weights",
            "short-bias", "not-json"])
    def test_corrupt_checkpoint_is_clean_error(self, workspace, tmp_path, capsys, corrupt):
        """`corrupt` edits the header, the column list or the list of
        weights of a v5 checkpoint, or returns the file's whole text."""
        model_path = tmp_path / "model.ckpt"
        self._train(workspace, model_path)
        header, columns, weights = read_checkpoint(model_path)
        doc = {"header": header, "columns": columns.tolist(), "weights": weights.ravel().tolist()}
        text = corrupt(doc)
        if isinstance(text, str):
            model_path.write_text(text)
        else:
            write_checkpoint(model_path, doc["header"], doc["columns"],
                             np.array(doc["weights"], dtype="<f8").tobytes())
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_path),
                   "--data", str(workspace / "val.jsonl"),
                   "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_v2_checkpoint_is_usage_error(self, workspace, tmp_path, capsys):
        """Version 2 stored `weights` as JSON rows over `columns`; only the
        version 5 that `train` writes loads."""
        model_path = tmp_path / "model.json"
        self._train(workspace, model_path)
        model = WeakLabeler.load(model_path)
        model_path.write_text(json.dumps({
            "version": 2, "featurizer": _featurizer_block(),
            "label_space": to_dict(model.label_space), "columns": model.columns.tolist(),
            "weights": model.block.T.tolist(), "bias": model.bias.tolist()}))
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_path),
                   "--data", str(workspace / "val.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == "error: unsupported checkpoint version 2\n"

    def test_v3_checkpoint_is_usage_error(self, workspace, tmp_path, capsys):
        """Version 3 held base64 weights under a featurizer block that also
        named its word n-gram orders and char n-gram size."""
        model_path = tmp_path / "model.json"
        self._train(workspace, model_path)
        model = WeakLabeler.load(model_path)
        block = np.asarray(model.block.T, dtype="<f8").tobytes()
        model_path.write_text(json.dumps({
            "version": 3,
            "featurizer": {**_featurizer_block(), "char_ngram": 3, "word_ngrams": [1, 2]},
            "label_space": to_dict(model.label_space), "columns": model.columns.tolist(),
            "weights": base64.b64encode(block).decode("ascii"), "bias": model.bias.tolist()},
            sort_keys=True))
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_path),
                   "--data", str(workspace / "val.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == "error: unsupported checkpoint version 3\n"

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

    def test_non_string_text_exit_code(self, workspace, tmp_path, capsys):
        """A turn text, record id or source id that is not a string, or a
        provenance other than gold or silver, is a malformed line, reported
        with its path and line."""
        turns = [{"speaker": "A", "text": "hi", "emotion": "neutral"},
                 {"speaker": "B", "text": "yo", "emotion": "neutral"}]
        lines = [
            {"id": "x", "turns": [{**turns[0], "text": 5}, turns[1]]},
            {"id": ["x"], "turns": turns},
            {"id": 5, "turns": turns},
            {"id": "x", "turns": turns, "source_id": ["q"]},
            {"id": "x", "turns": turns, "source_id": 5},
            {"id": "x", "turns": turns, "provenance": ["q"]},
            {"id": "x", "turns": turns, "provenance": "bronze"},
        ]
        for line in lines:
            bad = tmp_path / "bad.jsonl"
            bad.write_text(json.dumps(line) + "\n")
            rc = main(["train", "--data", str(bad),
                       "--labels", str(workspace / "labels.json"),
                       "--out", str(tmp_path / "m.json")])
            err = capsys.readouterr().err
            assert rc == 2, line
            assert err.startswith(f"error: {bad}:1: ") and "Traceback" not in err
            assert not (tmp_path / "m.json").exists()


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

    def test_filter_percentile_override(self, workspace, tmp_path):
        main(_weakdap_args(workspace, tmp_path, ["--filter-percentile", "90"]))
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["filter"]["percentile"] == 90.0

    def test_regen_mode_recorded(self, workspace, tmp_path):
        main(_weakdap_args(workspace, tmp_path, ["--regen", "refilter"]))
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["loop"]["regen"] == "refilter"

    def test_strategy_task_mismatch_is_usage_error(self, workspace, tmp_path, capsys):
        """Checked before any data file is read: the data paths do not exist."""
        missing = str(tmp_path / "missing.jsonl")
        rc = main(["weakdap", "--train", missing, "--val", missing,
                   "--labels", str(workspace / "intent_labels.json"),
                   "--strategy", "lta", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: strategy 'lta' does not fit task 'intent', whose records are utterances\n")
        rc = main(["augment", "--data", missing, "--labels", str(workspace / "labels.json"),
                   "--strategy", "incontext", "--out", str(tmp_path / "c.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("error: strategy 'incontext' does not fit task 'emotion', "
                       "whose records are dialogues\n")
        assert not (tmp_path / "run").exists() and not (tmp_path / "c.jsonl").exists()

    def test_in_context_loop_honours_multiplier(self, workspace, tmp_path):
        rc = main(["weakdap", "--train", str(workspace / "intent_train.jsonl"),
                   "--val", str(workspace / "val_utterances.jsonl"),
                   "--labels", str(workspace / "intent_labels.json"),
                   "--backend", "mock", "--mock-templates", str(workspace / "templates.json"),
                   "--max-iterations", "1", "--seed", "5", "--out", str(tmp_path),
                   "--strategy", "incontext", "--multiplier", "2.0"])
        assert rc == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["plan"]["strategy"] == "incontext"
        assert 32 < run["iterations"][0]["counts"]["produced"] <= 64

    def test_random_strategy_runs_through_the_filter(self, workspace, tmp_path):
        rc = main(_weakdap_args(workspace, tmp_path, ["--strategy", "random"]))
        assert rc == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["plan"]["strategy"] == "random"
        counts = run["iterations"][1]["counts"]
        assert counts["produced"] == 60
        assert counts["kept"] + counts["dropped_mismatch"] + counts["dropped_parse"] == 60

    @pytest.mark.parametrize("seed", [5, 9])
    def test_seed_reaches_the_trainer(self, workspace, tmp_path, monkeypatch, seed):
        seeds = []
        train = weakdap.loop.train

        def spy(*args, **kwargs):
            seeds.append(args[4].seed)
            return train(*args, **kwargs)

        monkeypatch.setattr(weakdap.loop, "train", spy)
        args = _weakdap_args(workspace, tmp_path)
        args[args.index("--seed") + 1] = str(seed)
        assert main(args) == 0
        assert seeds == [seed, seed]

    @pytest.mark.parametrize("config,error", [
        ({"regen": "bogus"}, "unknown regen mode 'bogus'"),
        ({"label_mode": "bogus"}, "unknown label mode 'bogus'"),
        ({"metric": "f1"}, "unknown metric 'f1'"),
        ({"regen": "refilter"}, None),
        ({"filter_precentile": 90}, "unknown config key 'filter_precentile'"),
        ({"out": "elsewhere"}, "unknown config key 'out'"),
        ({"epsilon": None}, "config key 'epsilon': None is not float"),
        ([{"regen": "refilter"}], "a config file holds a JSON object, not list"),
        ({"schema": "utterance"}, "unknown config key 'schema'"),
        ({"max_iterations": 2.9}, "config key 'max_iterations': 2.9 is not int"),
        ({"seed": True}, "config key 'seed': True is not int"),
        ({"patience": 1.5}, "config key 'patience': 1.5 is not int"),
        ({"mock_templates": 1}, "config key 'mock_templates': 1 is not str"),
        ({"endpoint": 5, "backend": "http"}, "config key 'endpoint': 5 is not str"),
    ])
    def test_config_file_value_checked_before_generation(self, workspace, tmp_path,
                                                         monkeypatch, capsys, config, error):
        """A config key that names an option drops that option's flag from
        the command, so the config file's value is the one read."""
        calls = []
        complete = MockBackend.complete

        def counting(self, prompt, params):
            calls.append(prompt)
            return complete(self, prompt, params)

        monkeypatch.setattr(MockBackend, "complete", counting)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        args = _weakdap_args(workspace, out)
        for key in config if isinstance(config, dict) else ():
            flag = "--" + key.replace("_", "-")
            if key in CONFIG_TYPES and flag in args:
                del args[args.index(flag):args.index(flag) + 2]
        rc = main(["--config", str(config_path), *args])
        err = capsys.readouterr().err
        if error is None:  # the control: a valid value runs and generates
            assert rc == 0 and calls
            return
        assert rc == 2
        assert err == f"error: {error}\n"
        assert calls == []
        assert not (out / "run.json").exists()

    def test_negative_seed_exits_2_before_generation(self, workspace, tmp_path, monkeypatch,
                                                     capsys):
        """The trainer's seed is checked when its config is built, before
        iteration 0 generates."""
        calls = []
        complete = MockBackend.complete

        def counting(self, prompt, params):
            calls.append(prompt)
            return complete(self, prompt, params)

        monkeypatch.setattr(MockBackend, "complete", counting)
        out = tmp_path / "out"
        rc = main(_weakdap_args(workspace, out, ["--seed=-1"]))
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert calls == []
        assert not out.exists()

    def test_templates_missing_a_label_exit_2_before_generation(self, workspace, tmp_path,
                                                                capsys):
        templates = {label: ["some text"] for label in TOY_LABELS if label != "anger"}
        (tmp_path / "templates.json").write_text(json.dumps(templates))
        args = _weakdap_args(workspace, tmp_path / "out")
        args[args.index("--mock-templates") + 1] = str(tmp_path / "templates.json")
        rc = main(args)
        assert rc == 2
        assert capsys.readouterr().err == "error: mock templates have no label 'anger'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--train", "--val"])
    def test_empty_partition_is_usage_error(self, workspace, tmp_path, capsys, flag):
        (tmp_path / "empty.jsonl").write_text("")
        args = _weakdap_args(workspace, tmp_path / "out")
        args[args.index(flag) + 1] = str(tmp_path / "empty.jsonl")
        assert main(args) == 2
        assert capsys.readouterr().err == \
            "error: gold dataset needs train and validation partitions\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    @pytest.mark.parametrize("flag", ["--multiplier", "--epsilon"])
    def test_unbounded_number_is_usage_error(self, workspace, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        rc = main(_weakdap_args(workspace, out, [f"{flag}={value}"]))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flag[2:]} must be in (0, ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "run.json").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(_weakdap_args(workspace, a))
        main(_weakdap_args(workspace, b))
        assert _files(a) == _files(b)

    def test_config_values_are_typed_like_flags(self, workspace, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"epsilon": 1, "max_iterations": "2", "filter_percentile": 90, "seed": "5"}))
        by_config = _weakdap_args(workspace, tmp_path / "config")
        for flag in ("--max-iterations", "--seed"):
            at = by_config.index(flag)
            del by_config[at:at + 2]
        assert main(["--config", str(config_path), *by_config]) == 0
        assert main(_weakdap_args(workspace, tmp_path / "flags",
                                  ["--epsilon", "1", "--filter-percentile", "90"])) == 0
        assert _files(tmp_path / "config") == _files(tmp_path / "flags")
        run = (tmp_path / "config" / "run.json").read_text()
        assert '"epsilon": 1.0' in run
        assert '"max_iterations": 2' in run
        assert '"percentile": 90.0' in run


def test_intent_data_needs_no_schema_or_strategy(workspace, tmp_path):
    """The intent labels file alone makes every command read utterances, and
    augment and weakdap default to the in-context strategy."""
    labels = ["--labels", str(workspace / "intent_labels.json")]
    generate = ["--backend", "mock", "--mock-templates", str(workspace / "templates.json")]
    train, val = str(workspace / "intent_train.jsonl"), str(workspace / "val_utterances.jsonl")
    model = tmp_path / "model.json"
    assert main(["sample", "--data", train, *labels, "--fraction", "0.5",
                 "--out", str(tmp_path / "sample")]) == 0
    assert main(["augment", "--data", train, *labels, *generate,
                 "--out", str(tmp_path / "c.jsonl")]) == 0
    assert main(["train", "--data", train, *labels, "--out", str(model)]) == 0
    assert main(["eval", "--model", str(model), "--data", val]) == 0
    assert main(["weakdap", "--train", train, "--val", val, *labels, *generate,
                 "--max-iterations", "1", "--out", str(tmp_path / "run")]) == 0
    rows = [json.loads(l) for l in (tmp_path / "c.jsonl").read_text().splitlines()]
    assert rows and {r["strategy"] for r in rows} == {"incontext"}
    run = json.loads((tmp_path / "run" / "run.json").read_text())
    assert run["config"]["plan"]["strategy"] == "incontext"


class TestBaselineCommand:
    def test_eda(self, workspace, tmp_path):
        out = tmp_path / "eda.jsonl"
        rc = main(["baseline", "--method", "eda",
                   "--data", str(workspace / "utterances.jsonl"),
                   "--labels", str(workspace / "intent_labels.json"),
                   "--n-aug", "2", "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(rows) == 2 * 32
        assert all(r["provenance"] == "silver" for r in rows)

    def test_aeda(self, workspace, tmp_path):
        out = tmp_path / "aeda.jsonl"
        rc = main(["baseline", "--method", "aeda",
                   "--data", str(workspace / "utterances.jsonl"),
                   "--labels", str(workspace / "intent_labels.json"),
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(rows) == 32
        assert all(r["source_id"] for r in rows)

    def _aeda(self, workspace, out, config=None, flags=()):
        head = ["--config", str(config)] if config else []
        assert main([*head, "baseline", "--method", "aeda",
                     "--data", str(workspace / "utterances.jsonl"),
                     "--labels", str(workspace / "intent_labels.json"),
                     "--seed", "0", "--out", str(out), *flags]) == 0
        return out.read_bytes()

    def test_config_alpha_reaches_aeda_and_flag_beats_it(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.0}))
        default = self._aeda(workspace, tmp_path / "default.jsonl")
        from_config = self._aeda(workspace, tmp_path / "config.jsonl", cfg)
        from_flag = self._aeda(workspace, tmp_path / "flag.jsonl", cfg, ["--alpha", "0.3"])
        assert from_config != default
        assert from_config == self._aeda(workspace, tmp_path / "flag1.jsonl",
                                         flags=["--alpha", "1.0"])
        assert from_flag == default

    def test_lexicon_that_is_not_a_path_is_usage_error(self, workspace, tmp_path, capsys):
        """A config lexicon must be a path: 0 would open standard input."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lexicon": 0}))
        out = tmp_path / "eda.jsonl"
        rc = main(["--config", str(cfg), "baseline", "--method", "eda",
                   "--data", str(workspace / "utterances.jsonl"),
                   "--labels", str(workspace / "intent_labels.json"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: config key 'lexicon': 0 is not str\n"
        assert not out.exists()

    def test_dialogue_task_is_usage_error(self, workspace, tmp_path, capsys):
        """Checked before the data is read: the data path does not exist."""
        out = tmp_path / "eda.jsonl"
        rc = main(["baseline", "--method", "eda", "--data", str(tmp_path / "missing.jsonl"),
                   "--labels", str(workspace / "labels.json"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: baseline perturbs utterances; task 'emotion' labels dialogues\n")
        assert not out.exists()


@pytest.mark.parametrize("name,text", [
    ("config.json", '{"backend": "grpc"}'),
    ("config.json", "{not json"),
    ("labels.json", '{"labels": ["neutral"]}'),
    ("templates.json", '["neutral"]'),
    ("templates.json", '{"neutral": "ok then"}'),
    ("templates.json", '{"neutral": ["ok then"]}'),
    ("train.jsonl", None),
], ids=["unknown-backend", "config-not-json", "labels-without-task", "templates-not-object",
        "template-string", "templates-missing-labels", "missing-data"])
def test_usage_errors_exit_2(workspace, tmp_path, capsys, name, text):
    """One input file of an augment run replaced by text, or missing if None."""
    paths = {n: workspace / n for n in ("labels.json", "templates.json", "train.jsonl")}
    paths[name] = tmp_path / name
    if text is not None:
        paths[name].write_text(text)
    head = ["--config", str(paths["config.json"])] if "config.json" in paths else []
    rc = main([*head, "augment", "--data", str(paths["train.jsonl"]),
               "--labels", str(paths["labels.json"]),
               "--mock-templates", str(paths["templates.json"]),
               "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "c.jsonl").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Every `weakdap ...` command in the README's sh blocks, as argv lists."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in text.split("```sh\n")[1:]:
        block = block.split("```", 1)[0].replace("\\\n", " ")
        for line in block.splitlines():
            if line.startswith("weakdap "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


STRATEGIES = ["lta", "ata", "cta", "incontext", "random"]
BACKEND = {
    "--backend": ("backend", False, ["mock", "http"], None, None),
    "--mock-templates": ("mock_templates", False, None, None, None),
    "--noise-rate": ("noise_rate", False, None, "float", None),
    "--endpoint": ("endpoint", False, None, None, None),
    "--top-p": ("top_p", False, None, "float", None),
    "--max-new-tokens": ("max_new_tokens", False, None, "int", None),
}
# Every option of every subcommand: (dest, required, choices, type, nargs).
OPTION_SURFACE = {
    None: {"--config": ("config", False, None, None, None)},
    "sample": {
        "--data": ("data", True, None, None, None),
        "--labels": ("labels", True, None, None, None),
        "--fraction": ("fraction", False, None, "float", None),
        "--seed": ("seed", False, None, "int", None),
        "--no-stratify": ("no_stratify", False, None, None, 0),
        "--out": ("out", True, None, None, None),
    },
    "augment": {
        "--data": ("data", True, None, None, None),
        "--labels": ("labels", True, None, None, None),
        "--strategy": ("strategy", False, STRATEGIES, None, None),
        "--multiplier": ("multiplier", False, None, "float", None),
        "--label-mode": ("label_mode", False, ["gold", "random"], None, None),
        "--seed": ("seed", False, None, "int", None),
        "--out": ("out", True, None, None, None),
        **BACKEND,
    },
    "train": {
        "--data": ("data", True, None, None, None),
        "--labels": ("labels", True, None, None, None),
        "--seed": ("seed", False, None, "int", None),
        "--out": ("out", True, None, None, None),
    },
    "weakdap": {
        "--train": ("train", True, None, None, None),
        "--val": ("val", True, None, None, None),
        "--labels": ("labels", True, None, None, None),
        "--strategy": ("strategy", False, STRATEGIES, None, None),
        "--multiplier": ("multiplier", False, None, "float", None),
        "--label-mode": ("label_mode", False, ["gold", "random"], None, None),
        "--filter-percentile": ("filter_percentile", False, None, "float", None),
        "--epsilon": ("epsilon", False, None, "float", None),
        "--patience": ("patience", False, None, "int", None),
        "--max-iterations": ("max_iterations", False, None, "int", None),
        "--metric": ("metric", False, ["micro_f1_no_majority", "macro_f1", "accuracy"],
                     None, None),
        "--regen": ("regen", False, ["fresh", "refilter"], None, None),
        "--seed": ("seed", False, None, "int", None),
        "--out": ("out", True, None, None, None),
        **BACKEND,
    },
    "eval": {
        "--model": ("model", True, None, None, None),
        "--data": ("data", True, None, None, None),
        "--out": ("out", False, None, None, None),
    },
    "baseline": {
        "--method": ("method", True, ["eda", "aeda"], None, None),
        "--data": ("data", True, None, None, None),
        "--labels": ("labels", True, None, None, None),
        "--lexicon": ("lexicon", False, None, None, None),
        "--alpha-sr": ("alpha_sr", False, None, "float", None),
        "--alpha-ri": ("alpha_ri", False, None, "float", None),
        "--alpha-rs": ("alpha_rs", False, None, "float", None),
        "--alpha-rd": ("alpha_rd", False, None, "float", None),
        "--alpha": ("alpha", False, None, "float", None),
        "--n-aug": ("n_aug", False, None, "int", None),
        "--seed": ("seed", False, None, "int", None),
        "--out": ("out", True, None, None, None),
    },
}


def _documented_values():
    """(flag, command) -> whether a number is one the flag takes there, from
    README's table of numeric options."""
    takes = {}
    for flags, commands, values in re.findall(r"^\| (`--.+?) \| (`.+?) \| (.+?) \|$",
                                              README.read_text(encoding="utf-8"), re.M):
        interval = re.fullmatch(r"([(\[])(\S+), (\S+)([)\]])", values)
        if interval:
            left, lo, hi, right = interval.groups()
            ok = (lambda v, lo=float(lo), hi=float(hi), lo_in=left == "[", hi_in=right == "]":
                  (lo <= v if lo_in else lo < v) and (v <= hi if hi_in else v < hi))
        elif values == "any integer":
            ok = lambda v: True
        else:
            least = float(re.fullmatch(r"integer >= (\S+)", values).group(1))
            ok = lambda v, least=least: v >= least
        for flag in re.findall(r"`(--[\w-]+)`", flags):
            for command in re.findall(r"`(\w+)`", commands):
                takes[flag, command] = ok
    return takes


NUMERIC_OPTIONS = [(flag, command.rstrip("!"))
                   for flag, keywords, commands in OPTIONS if keywords.get("type") in (float, int)
                   for command in commands.split()]


@pytest.mark.parametrize("flag,command", NUMERIC_OPTIONS,
                         ids=[f"{command}{flag}" for flag, command in NUMERIC_OPTIONS])
def test_numeric_option_extremes_exit_0_in_range_or_2(workspace, tmp_path, capsys, flag,
                                                      command):
    """Every numeric option, given each extreme value, exits 0 with a value
    README documents for it, or 2 with one error line, and never raises."""
    takes = _documented_values()[flag, command]
    data = {name: str(workspace / name) for name in (
        "train.jsonl", "val.jsonl", "utterances.jsonl", "labels.json", "intent_labels.json",
        "templates.json")}
    base = {
        "sample": ["--data", data["train.jsonl"], "--labels", data["labels.json"],
                   "--fraction", "0.5"],
        "augment": ["--data", data["train.jsonl"], "--labels", data["labels.json"],
                    "--mock-templates", data["templates.json"]],
        "train": ["--data", data["train.jsonl"], "--labels", data["labels.json"]],
        "weakdap": ["--train", data["train.jsonl"], "--val", data["val.jsonl"],
                    "--labels", data["labels.json"], "--mock-templates", data["templates.json"],
                    "--max-iterations", "1"],
        "baseline": ["--method", "aeda" if flag == "--alpha" else "eda",
                     "--data", data["utterances.jsonl"],
                     "--labels", data["intent_labels.json"]],
    }[command]
    integer = {f: kw for f, kw, _ in OPTIONS}[flag]["type"] is int
    for value in ("nan", "inf", "-inf", "-1", "0", "1e308"):
        argv = [command, *base, "--out", str(tmp_path / value), f"{flag}={value}"]
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse: text that an integer option cannot parse
            assert e.code == 2 and integer, (command, flag, value)
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        if rc == 0:
            assert takes(float(value)), (command, flag, value)
        else:
            assert rc == 2, (command, flag, value, err)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert flag[2:].replace("-", "_").removeprefix("filter_") in err, err
            assert not takes(float(value)), (command, flag, value, err)


def _subparsers(parser):
    """The top-level parser under None, then each subcommand's parser."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {None: parser, **sub.choices}


def _surface(parser):
    """Each option string of a parser, help aside, with what argparse does with it."""
    return {option: (action.dest, action.required,
                     None if action.choices is None else list(action.choices),
                     action.type and action.type.__name__, action.nargs)
            for action in parser._actions if action.dest != "help"
            for option in action.option_strings}


def test_option_surface_is_pinned():
    parsers = _subparsers(build_parser())
    assert list(parsers) == list(OPTION_SURFACE)
    for command, parser in parsers.items():
        assert _surface(parser) == OPTION_SURFACE[command], command


def test_readme_names_every_option():
    text = README.read_text(encoding="utf-8")
    options = {option for parser in _subparsers(build_parser()).values()
               for action in parser._actions for option in action.option_strings}
    assert [option for option in sorted(options)
            if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)] == []
