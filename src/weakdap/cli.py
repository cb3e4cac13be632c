"""Command-line entry point.

Subcommands: sample | augment | train | weakdap | eval | baseline.
Option precedence: CLI flags > --config file > environment > built-in
defaults. The mock backend is configured by a JSON template file mapping each
label to a list of utterances; the HTTP backend reads its endpoint from
--endpoint or WEAKDAP_ENDPOINT.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import baselines, metrics
from .augment import STRATEGIES, AugmentPlan, run_augmentation, write_candidates
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
from .loop import LoopConfig, evaluate_model, instances_of, run_weakdap
from .prompt import PromptSpec
from .weaklabel import FeaturizerConfig, FilterConfig, TrainConfig, WeakLabeler, train

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
    "k": 10,
}


def _load_config(path):
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def resolve(args, config: dict, key: str, env_var: str | None = None):
    """flags > config file > env > defaults."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    if env_var and os.environ.get(env_var) is not None:
        return os.environ[env_var]
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
        return HttpBackend(endpoint=resolve(args, config, "endpoint", "WEAKDAP_ENDPOINT"))
    raise SystemExit(f"unknown backend {backend!r}")


def _gen_params(args, config) -> GenParams:
    return GenParams(
        top_p=float(resolve(args, config, "top_p")),
        max_new_tokens=int(resolve(args, config, "max_new_tokens")),
        seed=int(resolve(args, config, "seed")),
    )


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
    plan = AugmentPlan(
        strategy=strategy,
        multiplier=float(resolve(args, config, "multiplier")),
        label_mode=resolve(args, config, "label_mode"),
        seed=int(resolve(args, config, "seed")),
    )
    backend = _make_backend(args, config)
    spec = PromptSpec(task=label_space.task, strategy=plan.strategy)
    candidates = run_augmentation(gold, plan, backend, spec, label_space,
                                  _gen_params(args, config))
    write_candidates(candidates, args.out)
    produced = len(candidates)
    dropped = sum(1 for c in candidates if c.verdict.startswith("dropped"))
    print(f"produced {produced} candidates ({dropped} dropped) -> {args.out}")


def _load_dataset(train_path, val_path, test_path, schema, label_space) -> Dataset:
    return Dataset(
        label_space=label_space,
        train=load_jsonl(train_path, schema, label_space) if train_path else [],
        validation=load_jsonl(val_path, schema, label_space) if val_path else [],
        test=load_jsonl(test_path, schema, label_space) if test_path else [],
    )


def cmd_train(args, config):
    label_space = load_label_space(args.labels)
    schema = resolve(args, config, "schema")
    records = load_jsonl(args.data, schema, label_space)
    feat_cfg = FeaturizerConfig()
    texts, labels = instances_of(records, label_space, feat_cfg.context_window)
    model = train(texts, labels, label_space, feat_cfg,
                  TrainConfig(seed=int(resolve(args, config, "seed"))))
    model.save(args.out)
    print(f"trained on {len(texts)} instances -> {args.out}")


def cmd_weakdap(args, config):
    label_space = load_label_space(args.labels)
    strategy, schema = _strategy_and_schema(args, config,
                                            args.schema or config.get("schema"))
    dataset = _load_dataset(args.train, args.val, None, schema, label_space)
    plan = AugmentPlan(
        strategy=strategy,
        multiplier=float(resolve(args, config, "multiplier")),
        label_mode=resolve(args, config, "label_mode"),
        seed=int(resolve(args, config, "seed")),
    )
    filter_cfg = FilterConfig(percentile=float(resolve(args, config, "filter_percentile")))
    loop_cfg = LoopConfig(
        epsilon=float(resolve(args, config, "epsilon")),
        patience=int(resolve(args, config, "patience")),
        max_iterations=int(resolve(args, config, "max_iterations")),
        metric=resolve(args, config, "metric"),
        regen=resolve(args, config, "regen"),
    )
    backend = _make_backend(args, config)
    spec = PromptSpec(task=label_space.task, strategy=plan.strategy)
    _, _, state = run_weakdap(dataset, plan, filter_cfg, loop_cfg, backend, spec,
                              gen_params=_gen_params(args, config), out_dir=args.out)
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


def cmd_baseline(args, config):
    label_space = load_label_space(args.labels)
    seed = int(resolve(args, config, "seed"))
    method = args.method
    if method in ("eda", "aeda"):
        records = load_jsonl(args.data, "utterance", label_space)
        out_records = []
        if method == "eda":
            lexicon = baselines.load_lexicon(args.lexicon)
            cfg = baselines.EdaConfig(alpha_sr=args.alpha_sr, alpha_ri=args.alpha_ri,
                                      alpha_rs=args.alpha_rs, alpha_rd=args.alpha_rd,
                                      n_aug=args.n_aug, synonym_lexicon=lexicon)
            for rec in records:
                eda_cfg = baselines.EdaConfig(**{**cfg.__dict__, "seed": f"{seed}|{rec.id}"})
                for j, variant in enumerate(baselines.eda_augment(rec.text, eda_cfg)):
                    out_records.append(rec.__class__(
                        id=f"{rec.id}-eda{j}", text=variant, intent=rec.intent,
                        lang=rec.lang, provenance="silver", source_id=rec.id))
        else:
            for rec in records:
                cfg = baselines.AedaConfig(alpha=args.alpha, seed=f"{seed}|{rec.id}")
                out_records.append(rec.__class__(
                    id=f"{rec.id}-aeda", text=baselines.aeda_augment(rec.text, cfg),
                    intent=rec.intent, lang=rec.lang, provenance="silver",
                    source_id=rec.id))
        write_jsonl(out_records, args.out)
        print(f"{method}: wrote {len(out_records)} augmented records -> {args.out}")
        return
    if method == "incontext":
        records = load_jsonl(args.data, "utterance", label_space)
        backend = _make_backend(args, config)
        spec = PromptSpec(task=label_space.task, strategy="incontext")
        params = _gen_params(args, config)
        k = int(resolve(args, config, "k"))
        candidates = []
        for label in label_space.labels:
            pool = [u.text for u in records if u.intent == label]
            if not pool:
                continue
            candidates.append(baselines.random_in_context_augment(
                label, pool, backend, spec, label_space, params,
                cand_id=f"ic-{label}", k=k, seed=seed))
        write_candidates(candidates, args.out)
        print(f"incontext: wrote {len(candidates)} candidates -> {args.out}")
        return
    raise SystemExit(f"unknown baseline method {method!r}")


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
    p.add_argument("--label-mode", dest="label_mode", choices=["gold", "random"])
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
    p.add_argument("--label-mode", dest="label_mode", choices=["gold", "random"])
    p.add_argument("--filter-percentile", dest="filter_percentile", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--metric", choices=["micro_f1_no_majority", "macro_f1", "accuracy"])
    p.add_argument("--regen", choices=["fresh", "refilter"])
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

    p = sub.add_parser("baseline", help="EDA / AEDA / random in-context baselines")
    p.add_argument("--method", required=True, choices=["eda", "aeda", "incontext"])
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--alpha-sr", dest="alpha_sr", type=float, default=0.1)
    p.add_argument("--alpha-ri", dest="alpha_ri", type=float, default=0.1)
    p.add_argument("--alpha-rs", dest="alpha_rs", type=float, default=0.1)
    p.add_argument("--alpha-rd", dest="alpha_rd", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--n-aug", dest="n_aug", type=int, default=1)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    add_backend_flags(p)
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
