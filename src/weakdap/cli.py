"""Command-line entry point.

Subcommands: sample | augment | train | weakdap | eval | baseline.
Option precedence: CLI flags > --config file > built-in defaults. The mock
backend is configured by a JSON template file mapping each label to a list of
utterances; the HTTP backend reads its endpoint from --endpoint, the config
file, or else WEAKDAP_ENDPOINT.
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
    CorpusError,
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

DEFAULTS = {
    "seed": 0,
    "schema": "dialogue",
    "multiplier": 2.0,
    "label_mode": "gold",
    "backend": "mock",
    "noise_rate": 0.0,
    "top_p": 0.92,
    "max_new_tokens": 48,
    "filter_percentile": 80.0,
    "epsilon": 0.005,
    "patience": 3,
    "max_iterations": 20,
    "metric": "micro_f1_no_majority",
    "regen": "fresh",
}


def _load_config(path):
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def resolve(args, config: dict, key: str):
    """flags > config file > defaults."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return DEFAULTS.get(key)


def _make_backend(args, config):
    backend = resolve(args, config, "backend")
    if backend == "mock":
        templates_path = resolve(args, config, "mock_templates")
        if not templates_path:
            raise SystemExit("mock backend needs --mock-templates")
        with open(templates_path, encoding="utf-8") as f:
            templates = json.load(f)
        return MockBackend(MockGenConfig(
            templates=templates,
            noise_rate=float(resolve(args, config, "noise_rate")),
            seed=int(resolve(args, config, "seed")),
        ))
    if backend == "http":
        return HttpBackend(endpoint=resolve(args, config, "endpoint"))
    raise SystemExit(f"unknown backend {backend!r}")


def _generation(args, config, strategy: str, task: str):
    """The (AugmentPlan, PromptSpec, backend, GenParams) of augment and weakdap."""
    seed = int(resolve(args, config, "seed"))
    plan = AugmentPlan(
        strategy=strategy,
        multiplier=float(resolve(args, config, "multiplier")),
        label_mode=resolve(args, config, "label_mode"),
        seed=seed,
    )
    params = GenParams(
        top_p=float(resolve(args, config, "top_p")),
        max_new_tokens=int(resolve(args, config, "max_new_tokens")),
        seed=seed,
    )
    return plan, PromptSpec(task=task, strategy=strategy), _make_backend(args, config), params


def cmd_sample(args, config):
    label_space = load_label_space(args.labels)
    schema = resolve(args, config, "schema")
    fraction = float(resolve(args, config, "fraction") or 0)
    seed = int(resolve(args, config, "seed"))
    if not (0 < fraction <= 1):
        raise SystemExit(f"--fraction must be in (0, 1], got {fraction}")
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
        train=load_jsonl(train_path, schema, label_space) if train_path else [],
        validation=load_jsonl(val_path, schema, label_space) if val_path else [],
    )


def cmd_train(args, config):
    label_space = load_label_space(args.labels)
    schema = resolve(args, config, "schema")
    records = load_jsonl(args.data, schema, label_space)
    featurizer = HashedFeaturizer(FeaturizerConfig())
    texts, labels = instances_of(records, label_space, featurizer.config.context_window)
    model = train(texts, labels, label_space, featurizer,
                  TrainConfig(seed=int(resolve(args, config, "seed"))))
    model.save(args.out)
    print(f"trained on {len(texts)} instances -> {args.out}")


def cmd_weakdap(args, config):
    label_space = load_label_space(args.labels)
    strategy, schema = _strategy_and_schema(args, config,
                                            args.schema or config.get("schema"))
    dataset = _load_dataset(args.train, args.val, schema, label_space)
    plan, spec, backend, params = _generation(args, config, strategy, label_space.task)
    filter_cfg = FilterConfig(percentile=float(resolve(args, config, "filter_percentile")))
    loop_cfg = LoopConfig(
        epsilon=float(resolve(args, config, "epsilon")),
        patience=int(resolve(args, config, "patience")),
        max_iterations=int(resolve(args, config, "max_iterations")),
        metric=resolve(args, config, "metric"),
        regen=resolve(args, config, "regen"),
    )
    _, _, state = run_weakdap(dataset, plan, filter_cfg, loop_cfg, backend, spec,
                              gen_params=params,
                              train_cfg=TrainConfig(seed=int(resolve(args, config, "seed"))),
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
    report = evaluate_model(model, records, label_space, majority)
    print(report.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report.to_json())


BASELINE_OPTIONS = {
    "eda": ("alpha_sr", "alpha_ri", "alpha_rs", "alpha_rd", "n_aug"),
    "aeda": ("alpha",),
}


def cmd_baseline(args, config):
    label_space = load_label_space(args.labels)
    records = load_jsonl(args.data, "utterance", label_space)
    options = {key: resolve(args, config, key) for key in BASELINE_OPTIONS[args.method]}
    out_records = baselines.perturb_records(
        records, args.method, int(resolve(args, config, "seed")),
        resolve(args, config, "lexicon"),
        **{key: value for key, value in options.items() if value is not None})
    write_jsonl(out_records, args.out)
    print(f"{args.method}: wrote {len(out_records)} augmented records -> {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weakdap")
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flags(p):
        p.add_argument("--backend", choices=["mock", "http"])
        p.add_argument("--mock-templates", dest="mock_templates",
                       help="JSON file: label -> list of template utterances")
        p.add_argument("--noise-rate", dest="noise_rate", type=float)
        p.add_argument("--endpoint")
        p.add_argument("--top-p", dest="top_p", type=float)
        p.add_argument("--max-new-tokens", dest="max_new_tokens", type=int)

    p = sub.add_parser("sample", help="few-shot subsample of a training split")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--schema", choices=["dialogue", "utterance"])
    p.add_argument("--fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("augment", help="produce candidate silver data")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--multiplier", type=float)
    p.add_argument("--label-mode", dest="label_mode", choices=LABEL_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    add_backend_flags(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train the weak labeler on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--schema", choices=["dialogue", "utterance"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("weakdap", help="run the full iterative loop")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--schema", choices=["dialogue", "utterance"])
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--multiplier", type=float)
    p.add_argument("--label-mode", dest="label_mode", choices=LABEL_MODES)
    p.add_argument("--filter-percentile", dest="filter_percentile", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--metric", choices=METRICS)
    p.add_argument("--regen", choices=REGENS)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    add_backend_flags(p)
    p.set_defaults(func=cmd_weakdap)

    p = sub.add_parser("eval", help="score a checkpoint on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--schema", choices=["dialogue", "utterance"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="EDA / AEDA perturbation baselines")
    p.add_argument("--method", required=True, choices=list(BASELINE_OPTIONS))
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--alpha-sr", dest="alpha_sr", type=float)
    p.add_argument("--alpha-ri", dest="alpha_ri", type=float)
    p.add_argument("--alpha-rs", dest="alpha_rs", type=float)
    p.add_argument("--alpha-rd", dest="alpha_rd", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-aug", dest="n_aug", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _load_config(args.config)
    try:
        args.func(args, config)
    except (CorpusError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BackendError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
