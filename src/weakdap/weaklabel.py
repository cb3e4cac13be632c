"""The weak labeler: hashed n-gram features + multinomial logistic regression,
prediction-entropy computation, and the percentile filter that accepts or
rejects generated candidates.

The classifier is deliberately lightweight so the whole pipeline runs at desk
scale, but it produces exactly what the filtering math needs: a full softmax
probability vector over the label space, with one previous turn of speaker-
tagged context folded into the features.
"""
from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse

from .augment import Candidate
from .corpus import Conversation, CorpusError, LabelSpace, LabeledUtterance


class WeakLabelError(ValueError):
    pass


@dataclass(frozen=True)
class FeaturizerConfig:
    dim: int = 1 << 15
    word_ngrams: tuple[int, ...] = (1, 2)
    char_ngram: int = 3
    context_window: int = 1  # previous turns folded into the instance text

    def __post_init__(self):
        if self.dim < 1:
            raise WeakLabelError("hash dimension must be >= 1")


@dataclass
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 60
    batch_size: int = 32
    l2: float = 1e-4
    patience: int = 8
    val_fraction: float = 0.1
    seed: int = 0


@dataclass
class FilterConfig:
    percentile: float = 80.0
    enabled: bool = True

    def __post_init__(self):
        if not (0 <= self.percentile <= 100):
            raise WeakLabelError("percentile must be in [0, 100]")


def dialogue_instance_text(conv: Conversation, turn_idx: int, window: int = 1) -> str:
    """Instance text for one turn: up to `window` previous turns, then the
    target utterance. Context words are speaker-tagged token by token so they
    occupy a separate feature namespace from the target's own words."""
    parts = []
    for j in range(max(0, turn_idx - window), turn_idx):
        t = conv.turns[j]
        parts.extend(f"{t.speaker}:{w}" for w in t.text.split())
    parts.append(conv.turns[turn_idx].text)
    return " ".join(parts)


def dialogue_instances(conv: Conversation, task: str, window: int = 1):
    """All (text, label) turn instances of a conversation that carry the task label."""
    out = []
    for i, turn in enumerate(conv.turns):
        label = turn.label(task)
        if label is not None:
            out.append((dialogue_instance_text(conv, i, window), label))
    return out

def candidate_instance_text(cand: Candidate, window: int = 1) -> str:
    """Scoring instance for a candidate: its final generated turn in context,
    or the utterance itself for single-turn payloads."""
    if cand.payload is None:
        raise WeakLabelError(f"candidate {cand.id!r} has no payload")
    if isinstance(cand.payload, LabeledUtterance):
        return cand.payload.text
    idx = cand.generated_turns[-1] if cand.generated_turns else len(cand.payload.turns) - 1
    return dialogue_instance_text(cand.payload, idx, window)


def candidate_training_instances(cand: Candidate, task: str, window: int = 1):
    """(text, label) pairs contributed by a kept candidate: every generated
    turn under its prescribed turn label, or the single utterance."""
    if isinstance(cand.payload, LabeledUtterance):
        return [(cand.payload.text, cand.payload.intent)]
    out = []
    for idx in cand.generated_turns:
        label = cand.payload.turns[idx].label(task)
        out.append((dialogue_instance_text(cand.payload, idx, window), label))
    return out


class HashedFeaturizer:
    """Sparse hashed word n-gram + character trigram features (crc32, stable
    across processes)."""

    def __init__(self, config: FeaturizerConfig):
        self.config = config

    def _indices(self, text: str):
        cfg = self.config
        tokens = text.lower().split()
        grams = []
        for n in cfg.word_ngrams:
            grams.extend("_".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
        compact = "".join(tokens)
        n = cfg.char_ngram
        grams.extend("#" + compact[i:i + n] for i in range(len(compact) - n + 1))
        return [zlib.crc32(g.encode("utf-8")) % cfg.dim for g in grams]

    def transform(self, texts) -> sparse.csr_matrix:
        data, indices, indptr = [], [], [0]
        for text in texts:
            counts: dict[int, float] = {}
            for idx in self._indices(text):
                counts[idx] = counts.get(idx, 0.0) + 1.0
            for idx in sorted(counts):
                indices.append(idx)
                data.append(counts[idx])
            indptr.append(len(indices))
        X = sparse.csr_matrix((data, indices, indptr),
                              shape=(len(indptr) - 1, self.config.dim), dtype=np.float64)
        # l2 row normalization keeps gradients comparable across text lengths
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
        norms[norms == 0] = 1.0
        return sparse.diags(1.0 / norms) @ X


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class WeakLabeler:
    """Trained multinomial logistic regression over hashed text features."""

    def __init__(self, featurizer: HashedFeaturizer, weights: np.ndarray,
                 bias: np.ndarray, label_space: LabelSpace):
        self.featurizer = featurizer
        self.weights = weights  # C x D
        self.bias = bias  # C
        self.label_space = label_space

    def predict_proba(self, texts) -> np.ndarray:
        X = self.featurizer.transform(list(texts))
        return _softmax(X @ self.weights.T + self.bias)

    def predict(self, texts) -> list[str]:
        probs = self.predict_proba(texts)
        return [self.label_space.labels[i] for i in probs.argmax(axis=1)]

    def save(self, path) -> None:
        """Checkpoint v2: only the feature columns with a nonzero weight are
        written, as `columns` plus a C x len(columns) `weights` block."""
        columns = np.flatnonzero(np.any(self.weights != 0, axis=0))
        doc = {
            "version": 2,
            "featurizer": asdict(self.featurizer.config),
            "label_space": self.label_space.to_dict(),
            "columns": columns.tolist(),
            "weights": self.weights[:, columns].tolist(),
            "bias": [float(b) for b in self.bias],
        }
        # json.dumps runs the C encoder; json.dump streams through the Python one
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(doc, sort_keys=True))

    @classmethod
    def load(cls, path, expected_label_space: LabelSpace | None = None) -> "WeakLabeler":
        """Read a v2 (sparse columns) or v1 (dense C x dim) checkpoint."""
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        version = doc.get("version")
        if version not in (1, 2):
            raise WeakLabelError(f"unsupported checkpoint version {version!r}")
        label_space = LabelSpace.from_dict(doc["label_space"])
        if expected_label_space is not None and tuple(label_space.labels) != tuple(expected_label_space.labels):
            raise WeakLabelError("checkpoint label space does not match data label space")
        fcfg = doc["featurizer"]
        fcfg["word_ngrams"] = tuple(fcfg["word_ngrams"])
        featurizer = HashedFeaturizer(FeaturizerConfig(**fcfg))
        if version == 1:
            weights = np.array(doc["weights"], dtype=np.float64)
        else:
            columns = np.array(doc["columns"], dtype=np.intp)
            block = np.array(doc["weights"], dtype=np.float64).reshape(len(label_space), len(columns))
            weights = np.zeros((len(label_space), featurizer.config.dim))
            weights[:, columns] = block
        return cls(featurizer, weights, np.array(doc["bias"], dtype=np.float64), label_space)


def train(instances, labels, label_space: LabelSpace,
          feat_cfg: FeaturizerConfig | None = None,
          train_cfg: TrainConfig | None = None) -> WeakLabeler:
    """Fit the weak labeler with seeded mini-batch gradient descent and early
    stopping on the loss of an internal validation split (the training loss
    when that split is empty). Deterministic under the config seed; a step
    costs O(nonzeros in the batch x classes)."""
    feat_cfg = feat_cfg or FeaturizerConfig()
    cfg = train_cfg or TrainConfig()
    instances = list(instances)
    labels = list(labels)
    present = set(labels)
    for label in label_space.labels:
        if label not in present:
            raise WeakLabelError(f"label {label!r} has no training instances")

    featurizer = HashedFeaturizer(feat_cfg)
    y = np.array([label_space.index(l) for l in labels])
    X = featurizer.transform(instances)
    n, C = X.shape[0], len(label_space)

    rng = random.Random(cfg.seed)
    order = list(range(n))
    rng.shuffle(order)
    n_val = max(1, int(cfg.val_fraction * n)) if n > 2 else 0
    val_idx, train_idx = order[:n_val], order[n_val:]
    if not train_idx:
        train_idx, val_idx = order, []
    Xtr, ytr = X[train_idx], y[train_idx]
    Xval, yval = (X[val_idx], y[val_idx]) if val_idx else (Xtr, ytr)
    # W = s * V.T: the L2 decay of every step only rescales s, so a step
    # touches just the rows of V for the batch's feature columns.
    decay = 1.0 - cfg.learning_rate * cfg.l2
    if decay <= 0:
        raise WeakLabelError("learning_rate * l2 must be < 1")
    V = np.zeros((feat_cfg.dim, C))
    s = 1.0
    b = np.zeros(C)
    best = (math.inf, np.zeros((C, feat_cfg.dim)), b.copy())
    stall = 0
    np_rng = np.random.default_rng(cfg.seed)
    ntr = Xtr.shape[0]
    onehot = np.eye(C)[ytr]

    for _ in range(cfg.epochs):
        perm = np_rng.permutation(ntr)
        Xp, Yp = Xtr[perm], onehot[perm]
        for start in range(0, ntr, cfg.batch_size):
            stop = min(start + cfg.batch_size, ntr)
            lo, hi = Xp.indptr[start], Xp.indptr[stop]
            cols, local = np.unique(Xp.indices[lo:hi], return_inverse=True)
            Xb = sparse.csr_matrix((Xp.data[lo:hi], local, Xp.indptr[start:stop + 1] - lo),
                                   shape=(stop - start, len(cols)))
            Vb = V[cols]
            err = _softmax(s * (Xb @ Vb) + b) - Yp[start:stop]
            s *= decay
            V[cols] = Vb - cfg.learning_rate / ((stop - start) * s) * (Xb.T @ err)
            b -= cfg.learning_rate * err.mean(axis=0)
            if s < 1e-6:
                V *= s
                s = 1.0
        P = _softmax(s * (Xval @ V) + b)
        val_loss = -np.log(np.clip(P[np.arange(len(yval)), yval], 1e-12, None)).mean()
        if val_loss < best[0] - 1e-9:
            W = np.empty((C, feat_cfg.dim))
            np.multiply(V.T, s, out=W)
            best = (val_loss, W, b.copy())
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    _, W, b = best
    return WeakLabeler(featurizer, W, b, label_space)


def entropy_bits(p) -> float:
    """Shannon entropy of a probability vector in bits; zero terms contribute 0."""
    total = 0.0
    for pi in p:
        if pi > 0:
            total -= pi * math.log2(pi)
    return total


def nearest_rank_threshold(entropies, percentile: float) -> float:
    """Entropy value at the nearest-rank P-th percentile of the ascending
    sorted batch: index ceil(P/100 * m), clamped into range. With the keep
    rule `entropy >= threshold`, P=0 keeps everything and P=100 keeps only
    ties with the maximum."""
    s = sorted(entropies)
    m = len(s)
    if m == 0:
        raise WeakLabelError("no entropies to rank")
    idx = min(math.ceil(percentile / 100.0 * m), m - 1)
    return s[idx]


def filter_candidates(candidates, model: WeakLabeler, config: FilterConfig,
                      window: int | None = None) -> list[Candidate]:
    """Assign silver labels and entropies, then apply the percentile rule.

    Candidates whose silver label matches the prescription are kept
    unconditionally. Among the mismatched ones, those at or above the P-th
    entropy percentile of the mismatched batch survive as high-uncertainty
    candidates; the rest are dropped. Disabled filtering keeps everything but
    still annotates.
    """
    if window is None:
        window = model.featurizer.config.context_window
    scorable = [c for c in candidates if c.payload is not None and c.verdict == "pending"]
    if not scorable:
        return list(candidates)
    probs = model.predict_proba([candidate_instance_text(c, window) for c in scorable])
    mismatched = []
    for cand, p in zip(scorable, probs):
        cand.silver_label = model.label_space.labels[int(p.argmax())]
        cand.entropy = entropy_bits(p)
        if not config.enabled or cand.silver_label == cand.prescribed_label:
            cand.verdict = "kept"
        else:
            mismatched.append(cand)
    if mismatched:
        tau = nearest_rank_threshold([c.entropy for c in mismatched], config.percentile)
        for cand in mismatched:
            cand.verdict = "kept" if cand.entropy >= tau else "dropped_mismatch"
    return list(candidates)


def planted_noise_retention(candidates, model: WeakLabeler, config: FilterConfig) -> dict:
    """Noise accounting over mock-generated candidates: the fraction of planted
    wrong-label instances overall vs. among the kept set. Requires the mock
    backend's hidden labels."""
    scored = [c for c in candidates if c.payload is not None]
    if any(c.hidden_label is None for c in scored):
        raise WeakLabelError("planted-noise accounting needs mock-backend candidates")
    if not scored:
        return {"overall_noise_rate": 0.0, "kept_noise_rate": 0.0, "kept": 0, "total": 0}
    noisy = [c for c in scored if c.hidden_label != c.prescribed_label]
    kept = [c for c in scored if c.verdict == "kept"]
    kept_noisy = [c for c in kept if c.hidden_label != c.prescribed_label]
    return {
        "overall_noise_rate": len(noisy) / len(scored),
        "kept_noise_rate": len(kept_noisy) / len(kept) if kept else 0.0,
        "kept": len(kept),
        "total": len(scored),
    }
