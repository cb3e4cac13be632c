"""Command-line entry point.

Subcommands: sample | augment | train | weakdap | eval | baseline. Every flag
is one row of OPTIONS, which names the subcommands that take it.
The task of the --labels file (or of an eval checkpoint) fixes the record
shape: intent labels utterances, emotion and act label dialogues.
Option precedence: CLI flags > --config file > defaults, applied once in main
before the command runs. A config-file key is the flag's name with
underscores (--filter-percentile: filter_percentile), its value is converted
like the flag's, and a key that nothing reads is rejected. An option neither
sets keeps the default of the dataclass it fills (AugmentPlan, GenParams,
MockGenConfig, FilterConfig, LoopConfig, EdaConfig, AedaConfig); only seed
and backend default here. The mock backend is configured by a JSON template
file mapping each label of the label space to a list of utterances, checked
before any generation; the HTTP backend reads its endpoint from --endpoint,
the config file, or else WEAKDAP_ENDPOINT. Exit code 2 means a usage or
input error, 1 a backend that failed for good.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import baselines
from .augment import LABEL_MODES, STRATEGIES, AugmentPlan, run_augmentation
from .corpus import (
    Dataset,
    instances_of,
    load_jsonl,
    load_label_space,
    majority_index,
    record_labels,
    sample_few_shot,
    write_candidates,
    write_jsonl,
)
from .genbackend import BackendError, GenParams, HttpBackend, MockBackend, MockGenConfig
from .loop import REGENS, LoopConfig, evaluate_model, run_weakdap
from .metrics import METRICS
from .prompt import PromptSpec
from .weaklabel import (
    FilterConfig,
    HashedFeaturizer,
    TrainConfig,
    WeakLabeler,
    train,
)

DEFAULTS = {"seed": 0, "backend": "mock"}

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
    ("--labels", {}, "sample! augment! train! weakdap! baseline!"),
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


def _config_value(key: str, value):
    """A config-file value converted as its flag's text would be. An option
    with a type takes a string or a JSON number (a bool is not one), every
    other option a string; anything else raises ValueError."""
    convert = CONFIG_TYPES[key] or str
    text = str(value) if convert is not str and type(value) in (int, float) else value
    if isinstance(text, str):
        try:
            return convert(text)
        except ValueError:
            pass
    raise ValueError(f"config key {key!r}: {value!r} is not {convert.__name__}")


def _fill_options(args, config: dict) -> None:
    """Set each option of the command that no flag set: from the config file
    (converted like the flag), else from DEFAULTS. The config value of every
    option the command takes is converted, also where a flag sets the
    option; keys of options the command lacks are ignored."""
    for key in CONFIG_TYPES:
        if not hasattr(args, key):
            continue
        value = _config_value(key, config[key]) if key in config else DEFAULTS.get(key)
        if getattr(args, key) is None:
            setattr(args, key, value)


def _given(args, *keys, **renamed) -> dict:
    """Keyword arguments for a dataclass: the options among keys (and the
    field=option pairs of renamed) that are set, so the rest keep the
    dataclass's defaults."""
    fields = {**{key: key for key in keys}, **renamed}
    values = {field: getattr(args, key) for field, key in fields.items()}
    return {field: value for field, value in values.items() if value is not None}


def _make_backend(args, labels):
    if args.backend == "mock":
        if not args.mock_templates:
            raise ValueError("mock backend needs --mock-templates")
        with open(args.mock_templates, encoding="utf-8") as f:
            templates = json.load(f)
        config = MockGenConfig(templates=templates, seed=args.seed, **_given(args, "noise_rate"))
        missing = [label for label in labels if label not in templates]
        if missing:
            raise ValueError(f"mock templates have no label {', '.join(map(repr, missing))}")
        return MockBackend(config)
    if args.backend == "http":
        return HttpBackend(endpoint=args.endpoint)
    raise ValueError(f"unknown backend {args.backend!r}")


def _generation(args, strategy: str, label_space):
    """The (AugmentPlan, PromptSpec, backend, GenParams) of augment and weakdap."""
    plan = AugmentPlan(strategy=strategy, seed=args.seed,
                       **_given(args, "multiplier", "label_mode"))
    params = GenParams(**_given(args, "top_p", "max_new_tokens"))
    backend = _make_backend(args, label_space.labels)
    return plan, PromptSpec(task=label_space.task), backend, params


def cmd_sample(args):
    label_space = load_label_space(args.labels)
    if args.fraction is None:
        raise ValueError("sample needs --fraction")
    partition = load_jsonl(args.data, label_space.schema, label_space)
    sampled = sample_few_shot(partition, args.fraction, args.seed, label_space,
                              stratified=not args.no_stratify)
    os.makedirs(args.out, exist_ok=True)
    write_jsonl(sampled, os.path.join(args.out, "sampled.jsonl"))
    counts = Counter()
    for rec in sampled:
        counts.update(record_labels(rec, label_space.task))
    manifest = {
        "fraction": args.fraction,
        "seed": args.seed,
        "stratified": not args.no_stratify,
        "input_records": len(partition),
        "sampled_records": len(sampled),
        "label_counts": {l: counts.get(l, 0) for l in label_space.labels},
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
    print(f"sampled {len(sampled)}/{len(partition)} records -> {args.out}")


def _strategy(args, label_space) -> str:
    """The strategy, which must fit the task's records: incontext reads
    utterances, the others dialogues. Defaults to incontext for intent, else
    lta."""
    utterances = label_space.schema == "utterance"
    strategy = args.strategy or ("incontext" if utterances else "lta")
    if (strategy == "incontext") != utterances:
        raise ValueError(f"strategy {strategy!r} does not fit task {label_space.task!r}, "
                         f"whose records are {label_space.schema}s")
    return strategy


def cmd_augment(args):
    label_space = load_label_space(args.labels)
    strategy = _strategy(args, label_space)
    gold = load_jsonl(args.data, label_space.schema, label_space)
    plan, spec, backend, params = _generation(args, strategy, label_space)
    candidates = run_augmentation(gold, plan, backend, spec, label_space, params)
    write_candidates(candidates, args.out)
    produced = len(candidates)
    dropped = sum(1 for c in candidates if c.verdict.startswith("dropped"))
    print(f"produced {produced} candidates ({dropped} dropped) -> {args.out}")


def cmd_train(args):
    label_space = load_label_space(args.labels)
    records = load_jsonl(args.data, label_space.schema, label_space)
    texts, labels = instances_of(records, label_space)
    model = train(texts, labels, label_space, HashedFeaturizer(), TrainConfig(seed=args.seed))
    model.save(args.out)
    print(f"trained on {len(texts)} instances -> {args.out}")


def cmd_weakdap(args):
    label_space = load_label_space(args.labels)
    strategy = _strategy(args, label_space)
    dataset = Dataset(label_space=label_space,
                      train=load_jsonl(args.train, label_space.schema, label_space),
                      validation=load_jsonl(args.val, label_space.schema, label_space))
    plan, spec, backend, params = _generation(args, strategy, label_space)
    filter_cfg = FilterConfig(**_given(args, percentile="filter_percentile"))
    loop_cfg = LoopConfig(**_given(args, "epsilon", "patience", "max_iterations",
                                   "metric", "regen"))
    _, _, state = run_weakdap(dataset, plan, filter_cfg, loop_cfg, backend, spec,
                              gen_params=params, train_cfg=TrainConfig(seed=args.seed),
                              out_dir=args.out)
    print(f"ran {len(state.score_history)} iterations; best score "
          f"{state.best_score:.4f} at iteration {state.best_iteration} -> {args.out}")


def cmd_eval(args):
    model = WeakLabeler.load(args.model)
    label_space = model.label_space
    records = load_jsonl(args.data, label_space.schema, label_space)
    texts, gold = instances_of(records, label_space)
    report = evaluate_model(model, texts, gold, majority_index(records, label_space))
    print(report.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report.to_json())


def cmd_baseline(args):
    label_space = load_label_space(args.labels)
    if label_space.schema != "utterance":
        raise ValueError(f"baseline perturbs utterances; task {label_space.task!r} "
                         f"labels {label_space.schema}s")
    records = load_jsonl(args.data, label_space.schema, label_space)
    out_records = baselines.perturb_records(
        records, args.method, args.seed, args.lexicon,
        **_given(args, *BASELINE_OPTIONS[args.method]))
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
        _fill_options(args, _load_config(args.config))
        args.func(args)
    except (ValueError, OSError) as e:  # bad input, CorpusError included; unreadable files
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BackendError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
