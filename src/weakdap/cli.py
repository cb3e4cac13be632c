"""Command-line entry point.

Subcommands: sample | augment | train | weakdap | eval | baseline. Every flag
is one row of OPTIONS, which names the subcommands that take it.
Option precedence: CLI flags > --config file > defaults. A config-file key is
the flag's name with underscores (--filter-percentile: filter_percentile), its
value is converted like the flag's, and a key that nothing reads is rejected.
An option neither sets keeps the default of the dataclass it fills
(AugmentPlan, GenParams, MockGenConfig, FilterConfig, LoopConfig, EdaConfig,
AedaConfig); only seed, schema and backend default here. The mock backend is
configured by a JSON template file mapping each label to a list of
utterances; the HTTP backend reads its endpoint from --endpoint, the config
file, or else WEAKDAP_ENDPOINT. Exit code 2 means a usage or input error, 1 a
backend that failed for good.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import baselines
from .augment import LABEL_MODES, STRATEGIES, AugmentPlan, run_augmentation, write_candidates
from .corpus import (
    Dataset,
    load_jsonl,
    load_label_space,
    majority_label,
    record_labels,
    sample_few_shot,
    write_jsonl,
)
from .genbackend import BackendError, GenParams, HttpBackend, MockBackend, MockGenConfig
from .loop import REGENS, LoopConfig, evaluate_model, run_weakdap
from .metrics import METRICS
from .prompt import PromptSpec
from .weaklabel import (
    FeaturizerConfig,
    FilterConfig,
    HashedFeaturizer,
    TrainConfig,
    WeakLabeler,
    instances_of,
    train,
)

DEFAULTS = {"seed": 0, "schema": "dialogue", "backend": "mock"}

BASELINE_OPTIONS = {
    "eda": ("alpha_sr", "alpha_ri", "alpha_rs", "alpha_rd", "n_aug"),
    "aeda": ("alpha",),
}

_GENERATE = "augment weakdap"
# (flag, argparse keywords, the subcommands that take it; "!" marks it required there)
OPTIONS = [
    ("--data", {}, "sample! augment! train! eval! baseline!"),
    ("--train", {}, "weakdap!"),
    ("--val", {}, "weakdap!"),
    ("--model", {}, "eval!"),
    ("--method", {"choices": list(BASELINE_OPTIONS)}, "baseline!"),
    ("--labels", {}, "sample! augment! train! weakdap! eval! baseline!"),
    ("--schema", {"choices": ["dialogue", "utterance"]}, "sample train weakdap eval"),
    ("--fraction", {"type": float}, "sample"),
    ("--no-stratify", {"action": "store_true"}, "sample"),
    ("--strategy", {"choices": STRATEGIES}, _GENERATE),
    ("--multiplier", {"type": float}, _GENERATE),
    ("--label-mode", {"choices": LABEL_MODES}, _GENERATE),
    ("--filter-percentile", {"type": float}, "weakdap"),
    ("--epsilon", {"type": float}, "weakdap"),
    ("--patience", {"type": int}, "weakdap"),
    ("--max-iterations", {"type": int}, "weakdap"),
    ("--metric", {"choices": METRICS}, "weakdap"),
    ("--regen", {"choices": REGENS}, "weakdap"),
    ("--lexicon", {}, "baseline"),
    ("--alpha-sr", {"type": float}, "baseline"),
    ("--alpha-ri", {"type": float}, "baseline"),
    ("--alpha-rs", {"type": float}, "baseline"),
    ("--alpha-rd", {"type": float}, "baseline"),
    ("--alpha", {"type": float}, "baseline"),
    ("--n-aug", {"type": int}, "baseline"),
    ("--seed", {"type": int}, "sample augment train weakdap baseline"),
    ("--out", {}, "sample! augment! train! weakdap! eval baseline!"),
    ("--backend", {"choices": ["mock", "http"]}, _GENERATE),
    ("--mock-templates", {"help": "JSON file: label -> list of template utterances"}, _GENERATE),
    ("--noise-rate", {"type": float}, _GENERATE),
    ("--endpoint", {}, _GENERATE),
    ("--top-p", {"type": float}, _GENERATE),
    ("--max-new-tokens", {"type": int}, _GENERATE),
]
# config-file key -> the type its flag converts to (None: kept as given). The
# flags a command requires and the switches are read from the command line only.
CONFIG_TYPES = {flag[2:].replace("-", "_"): keywords.get("type")
                for flag, keywords, commands in OPTIONS
                if "!" not in commands and "action" not in keywords}


def _load_config(path) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError(f"a config file holds a JSON object, not {type(config).__name__}")
    for key in config:
        if key not in CONFIG_TYPES:
            raise ValueError(f"unknown config key {key!r}")
    return config


def resolve(args, config: dict, key: str):
    """flags > config file (converted like the flag) > DEFAULTS, else None."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        convert = CONFIG_TYPES[key]
        try:
            return convert(config[key]) if convert else config[key]
        except (TypeError, ValueError):
            raise ValueError(f"config key {key!r}: {config[key]!r} is not "
                             f"{convert.__name__}") from None
    return DEFAULTS.get(key)


def _given(args, config, *keys, **renamed) -> dict:
    """Keyword arguments for a dataclass: the options among keys (and the
    field=option pairs of renamed) that a flag or the config file sets, so
    the rest keep the dataclass's defaults."""
    fields = {**{key: key for key in keys}, **renamed}
    values = {field: resolve(args, config, key) for field, key in fields.items()}
    return {field: value for field, value in values.items() if value is not None}


def _make_backend(args, config):
    backend = resolve(args, config, "backend")
    if backend == "mock":
        templates_path = resolve(args, config, "mock_templates")
        if not templates_path:
            raise ValueError("mock backend needs --mock-templates")
        with open(templates_path, encoding="utf-8") as f:
            templates = json.load(f)
        return MockBackend(MockGenConfig(templates=templates, seed=resolve(args, config, "seed"),
                                         **_given(args, config, "noise_rate")))
    if backend == "http":
        return HttpBackend(endpoint=resolve(args, config, "endpoint"))
    raise ValueError(f"unknown backend {backend!r}")


def _generation(args, config, strategy: str, task: str):
    """The (AugmentPlan, PromptSpec, backend, GenParams) of augment and weakdap."""
    seed = resolve(args, config, "seed")
    plan = AugmentPlan(strategy=strategy, seed=seed,
                       **_given(args, config, "multiplier", "label_mode"))
    params = GenParams(seed=seed, **_given(args, config, "top_p", "max_new_tokens"))
    return plan, PromptSpec(task=task, strategy=strategy), _make_backend(args, config), params


def cmd_sample(args, config):
    label_space = load_label_space(args.labels)
    schema = resolve(args, config, "schema")
    fraction = resolve(args, config, "fraction")
    seed = resolve(args, config, "seed")
    if fraction is None:
        raise ValueError("sample needs --fraction")
    partition = load_jsonl(args.data, schema, label_space)
    sampled = sample_few_shot(partition, fraction, seed, label_space,
                              stratified=not args.no_stratify)
    os.makedirs(args.out, exist_ok=True)
    write_jsonl(sampled, os.path.join(args.out, "sampled.jsonl"))
    counts = Counter()
    for rec in sampled:
        counts.update(record_labels(rec, label_space.task))
    manifest = {
        "fraction": fraction,
        "seed": seed,
        "stratified": not args.no_stratify,
        "input_records": len(partition),
        "sampled_records": len(sampled),
        "label_counts": {l: counts.get(l, 0) for l in label_space.labels},
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
    print(f"sampled {len(sampled)}/{len(partition)} records -> {args.out}")


def _strategy_and_schema(args, config, schema=None) -> tuple[str, str]:
    """The strategy and the schema of the records it reads: utterances for
    incontext, dialogues for the others. A given schema picks the default
    strategy (incontext for utterances, else lta) and must fit the strategy."""
    strategy = resolve(args, config, "strategy") or (
        "incontext" if schema == "utterance" else "lta")
    needed = "utterance" if strategy == "incontext" else "dialogue"
    if schema not in (None, needed):
        raise ValueError(f"strategy {strategy!r} needs {needed} records, not {schema}")
    return strategy, needed


def cmd_augment(args, config):
    label_space = load_label_space(args.labels)
    strategy, schema = _strategy_and_schema(args, config)
    gold = load_jsonl(args.data, schema, label_space)
    plan, spec, backend, params = _generation(args, config, strategy, label_space.task)
    candidates = run_augmentation(gold, plan, backend, spec, label_space, params)
    write_candidates(candidates, args.out)
    produced = len(candidates)
    dropped = sum(1 for c in candidates if c.verdict.startswith("dropped"))
    print(f"produced {produced} candidates ({dropped} dropped) -> {args.out}")


def _load_dataset(train_path, val_path, schema, label_space) -> Dataset:
    return Dataset(
        label_space=label_space,
        train=load_jsonl(train_path, schema, label_space),
        validation=load_jsonl(val_path, schema, label_space),
    )


def cmd_train(args, config):
    label_space = load_label_space(args.labels)
    schema = resolve(args, config, "schema")
    records = load_jsonl(args.data, schema, label_space)
    featurizer = HashedFeaturizer(FeaturizerConfig())
    texts, labels = instances_of(records, label_space, featurizer.config.context_window)
    model = train(texts, labels, label_space, featurizer,
                  TrainConfig(seed=resolve(args, config, "seed")))
    model.save(args.out)
    print(f"trained on {len(texts)} instances -> {args.out}")


def cmd_weakdap(args, config):
    label_space = load_label_space(args.labels)
    strategy, schema = _strategy_and_schema(args, config,
                                            args.schema or config.get("schema"))
    dataset = _load_dataset(args.train, args.val, schema, label_space)
    plan, spec, backend, params = _generation(args, config, strategy, label_space.task)
    filter_cfg = FilterConfig(**_given(args, config, percentile="filter_percentile"))
    loop_cfg = LoopConfig(**_given(args, config, "epsilon", "patience", "max_iterations",
                                   "metric", "regen"))
    _, _, state = run_weakdap(dataset, plan, filter_cfg, loop_cfg, backend, spec,
                              gen_params=params,
                              train_cfg=TrainConfig(seed=resolve(args, config, "seed")),
                              out_dir=args.out)
    print(f"ran {state.iteration + 1} iterations; best score "
          f"{state.best_score:.4f} at iteration {state.best_iteration} -> {args.out}")


def cmd_eval(args, config):
    label_space = load_label_space(args.labels)
    schema = resolve(args, config, "schema")
    model = WeakLabeler.load(args.model, expected_label_space=label_space)
    records = load_jsonl(args.data, schema, label_space)
    majority = label_space.majority if label_space.majority is not None \
        else label_space.index(majority_label(records, label_space))
    texts, gold = instances_of(records, label_space, model.featurizer.config.context_window)
    report = evaluate_model(model, texts, gold, label_space, majority)
    print(report.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report.to_json())


def cmd_baseline(args, config):
    label_space = load_label_space(args.labels)
    records = load_jsonl(args.data, "utterance", label_space)
    out_records = baselines.perturb_records(
        records, args.method, resolve(args, config, "seed"),
        resolve(args, config, "lexicon"),
        **_given(args, config, *BASELINE_OPTIONS[args.method]))
    write_jsonl(out_records, args.out)
    print(f"{args.method}: wrote {len(out_records)} augmented records -> {args.out}")


COMMANDS = {
    "sample": (cmd_sample, "few-shot subsample of a training split"),
    "augment": (cmd_augment, "produce candidate silver data"),
    "train": (cmd_train, "train the weak labeler on a split"),
    "weakdap": (cmd_weakdap, "run the full iterative loop"),
    "eval": (cmd_eval, "score a checkpoint on a split"),
    "baseline": (cmd_baseline, "EDA / AEDA perturbation baselines"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weakdap")
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (func, help_text) in COMMANDS.items():
        parsers[name] = sub.add_parser(name, help=help_text)
        parsers[name].set_defaults(func=func)
    for flag, keywords, commands in OPTIONS:
        for command in commands.split():
            parsers[command.rstrip("!")].add_argument(
                flag, required=command.endswith("!"), **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args, _load_config(args.config))
    except (ValueError, OSError) as e:  # bad input, CorpusError included; unreadable files
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BackendError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
