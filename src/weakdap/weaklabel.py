"""The weak labeler: hashed n-gram features + multinomial logistic regression,
prediction-entropy computation, and the percentile filter that accepts or
rejects generated candidates.

The classifier is deliberately lightweight so the whole pipeline runs at desk
scale, but it produces exactly what the filtering math needs: a full softmax
probability vector over the label space, with one previous turn of speaker-
tagged context folded into the features.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .augment import CONTEXT_WINDOW, Candidate
from .corpus import Conversation, LabelSpace, LabeledUtterance, from_dict, to_dict


class WeakLabelError(ValueError):
    pass


# Characters in a char n-gram. Words are hashed as unigrams and bigrams.
CHAR_NGRAM = 3
DIM = 1 << 15  # hashed feature columns
FEATURIZE_BATCH = 256  # new texts whose rows are built at once

# The trainer's step: mini-batch gradient descent with L2 decay, early
# stopping on a held-out share of the instances.
LEARNING_RATE = 0.5
BATCH_SIZE = 32
L2 = 1e-4
VAL_FRACTION = 0.1


@dataclass
class TrainConfig:
    epochs: int = 60
    patience: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise WeakLabelError("epochs must be >= 0")
        if self.patience < 1:
            raise WeakLabelError("patience must be >= 1")
        if self.seed < 0:  # numpy's generator takes no negative seed
            raise WeakLabelError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FilterConfig:
    percentile: float = 80.0

    def __post_init__(self):
        if not (0 <= self.percentile <= 100):
            raise WeakLabelError("percentile must be in [0, 100]")


def dialogue_instance_text(conv: Conversation, turn_idx: int) -> str:
    """Instance text for one turn: up to CONTEXT_WINDOW previous turns, then
    the target utterance. Context words are speaker-tagged token by token so
    they occupy a separate feature namespace from the target's own words."""
    parts = []
    for j in range(max(0, turn_idx - CONTEXT_WINDOW), turn_idx):
        t = conv.turns[j]
        parts.extend(f"{t.speaker}:{w}" for w in t.text.split())
    parts.append(conv.turns[turn_idx].text)
    return " ".join(parts)


def instances_of(records, label_space: LabelSpace):
    """(texts, labels) of the classifier instances of gold records and
    candidates: every labeled turn of a conversation, every generated turn of
    a dialogue candidate in its generated context under its prescribed label,
    and the text of an utterance or utterance candidate."""
    texts, labels = [], []
    for rec in records:
        turns = None
        if isinstance(rec, Candidate):
            rec, turns = rec.payload, rec.generated_turns
        if isinstance(rec, LabeledUtterance):
            texts.append(rec.text)
            labels.append(rec.intent)
            continue
        for i in (range(rec.n) if turns is None else turns):
            label = rec.turns[i].label(label_space.task)
            if label is not None:
                texts.append(dialogue_instance_text(rec, i))
                labels.append(label)
    return texts, labels


def _columns(grams) -> list[int]:
    """The hashed column of each gram."""
    return [zlib.crc32(g.encode("utf-8")) % DIM for g in grams]


class HashedFeaturizer:
    """Sparse hashed word unigram and bigram + character trigram features
    (crc32, stable across processes).

    It remembers the finished, l2-normalized row of every text it has
    featurized, so a text is hashed once however often it is asked for: one
    featurizer serves a whole `run_weakdap` run, and every model trained in
    the run scores through it. It also remembers, per lowercased token, the
    columns of its unigram and of the char trigrams inside it, and per
    adjacent token pair (a, b), the columns of its bigram and of the char
    trigrams that start in a and end in b, so a new text is mostly looked up.
    A pair whose b is shorter than CHAR_NGRAM - 1 is not remembered: a gram
    that starts in a can run past b, so such a pair is hashed in its text. No
    memo is locked; call it from the main thread only."""

    def __init__(self):
        self._rows = sparse.csr_matrix((0, DIM))  # every row built so far
        self._row_of: dict[str, int] = {}  # text -> its row in self._rows
        self._token_columns: dict[str, list[int]] = {}  # token -> columns of its own grams
        # (a, b) -> columns of the grams that span exactly the pair
        self._pair_columns: dict[tuple[str, str], list[int]] = {}

    def _indices(self, text: str) -> list[int]:
        """The hashed column of every gram of `text`, repeats included: each
        word unigram and bigram of the lowercased tokens, a bigram joined by
        "_", and "#" plus each char trigram of the tokens run together."""
        n = CHAR_NGRAM
        tokens = text.lower().split()
        cols = []
        for token in tokens:
            own = self._token_columns.get(token)
            if own is None:
                own = self._token_columns[token] = _columns(
                    [token] + ["#" + token[i:i + n] for i in range(len(token) - n + 1)])
            cols += own
        # bigrams, and char trigrams that start in a token and end past it
        compact = "".join(tokens)
        last = len(compact) - n + 1  # one past the last start of a whole gram
        end = 0
        for a, b in zip(tokens, tokens[1:]):
            start, end = end, end + len(a)
            pair = self._pair_columns.get((a, b))
            if pair is None:
                pair = _columns(
                    [a + "_" + b] + ["#" + compact[i:i + n]
                                     for i in range(max(start, end - n + 1), min(end, last))])
                if len(b) >= n - 1:  # every gram that starts in a ends in b
                    self._pair_columns[a, b] = pair
            cols += pair
        return cols

    def _featurize(self, texts: list[str]) -> sparse.csr_matrix:
        """Rows of `texts`, each l2-normalized. Each row stores its columns
        in descending order: the trainer's floating-point sums run in the
        stored order, so every model's weights depend on it."""
        grams = [self._indices(text) for text in texts]
        cols = np.fromiter(itertools.chain.from_iterable(grams), dtype=np.int64)
        rows = np.repeat(np.arange(len(texts), dtype=np.int64), [len(g) for g in grams])
        # sorted (row, DIM - 1 - column) keys: each row's columns descending
        keys, counts = np.unique(rows * DIM + (DIM - 1 - cols), return_counts=True)
        row_of = keys // DIM
        # l2 row normalization keeps gradients comparable across text lengths;
        # the squared counts are integers, so their sum is exact in any order
        norms = np.sqrt(np.bincount(row_of, weights=counts * counts, minlength=len(texts)))
        norms[norms == 0] = 1.0
        indptr = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=len(texts)), out=indptr[1:])
        return sparse.csr_matrix((counts * (1.0 / norms)[row_of], DIM - 1 - keys % DIM, indptr),
                                 shape=(len(texts), DIM))

    def transform(self, texts) -> sparse.csr_matrix:
        texts = list(texts)
        new = [text for text in dict.fromkeys(texts) if text not in self._row_of]
        if new:
            first = self._rows.shape[0]
            self._row_of.update(zip(new, range(first, first + len(new))))
            # a batch at a time bounds the memory of the (row, column) keys
            batches = [self._featurize(new[i:i + FEATURIZE_BATCH])
                       for i in range(0, len(new), FEATURIZE_BATCH)]
            self._rows = sparse.vstack([self._rows, *batches], format="csr")
        return self._rows[[self._row_of[text] for text in texts]]


def _softmax(z: np.ndarray) -> np.ndarray:
    """The softmax of each row of z, written over z and returned."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


class WeakLabeler:
    """Trained multinomial logistic regression over hashed text features.

    Only the hashed columns with a nonzero weight are kept: `columns`,
    ascending, and `block`, their len(columns) x C weights. Every other column
    of the featurizer has zero weight, so a score over `columns` alone is the
    same, to the bit, as one over all of them."""

    def __init__(self, featurizer: HashedFeaturizer, columns: np.ndarray,
                 block: np.ndarray, bias: np.ndarray, label_space: LabelSpace):
        self.featurizer = featurizer
        self.columns = columns  # K, ascending
        self.block = block  # K x C, C-contiguous
        self.bias = bias  # C
        self.label_space = label_space

    @property
    def weights(self) -> np.ndarray:
        """The dense C x DIM weight matrix, built on each access."""
        W = np.zeros((self.block.shape[1], DIM))
        W[:, self.columns] = self.block.T
        return W

    def predict_proba(self, texts) -> np.ndarray:
        # Selecting the ascending `columns` keeps each row's entries in order,
        # so every kept product is summed as over all columns.
        X = self.featurizer.transform(list(texts))[:, self.columns]
        return _softmax(X @ self.block + self.bias)

    def predict(self, texts) -> list[str]:
        probs = self.predict_proba(texts)
        return [self.label_space.labels[i] for i in probs.argmax(axis=1)]

    def save(self, path) -> None:
        """Checkpoint v5: one line of JSON header, then the K `columns` as
        little-endian int32, then the C x K block of weights, row-major
        little-endian float64."""
        header = {
            "version": 5,
            "featurizer": _featurizer_block(),
            "label_space": to_dict(self.label_space),
            "bias": [float(b) for b in self.bias],
            "n_columns": len(self.columns),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
            f.write(np.asarray(self.columns, dtype="<i4").tobytes())
            f.write(np.asarray(self.block.T, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "WeakLabeler":
        """Read a v5 checkpoint, the format `save` writes. Any other version,
        or a malformed checkpoint, raises WeakLabelError."""
        with open(path, "rb") as f:
            head, body = f.readline(), f.read()
        try:
            header = json.loads(head)
        except ValueError as e:
            raise WeakLabelError(f"checkpoint {path} does not start with a JSON line: {e}") from e
        if not isinstance(header, dict):
            raise WeakLabelError(f"checkpoint {path} does not start with a JSON object")
        version = header.get("version")
        if type(version) is not int or version != 5:
            raise WeakLabelError(f"unsupported checkpoint version {version!r}")
        missing = [key for key in ("featurizer", "label_space", "bias", "n_columns")
                   if key not in header]
        if missing:
            raise WeakLabelError(f"checkpoint {path} lacks {', '.join(missing)}")
        try:
            model = cls(*_checkpoint_parts(header, body))
        except (KeyError, TypeError, ValueError) as e:
            raise WeakLabelError(f"malformed checkpoint {path}: {e}") from e
        return model


def _featurizer_block() -> dict:
    """A checkpoint's record of the featurizer its columns come from."""
    return {"context_window": CONTEXT_WINDOW, "dim": DIM}


def _checkpoint_parts(header: dict, body: bytes):
    """(featurizer, columns, block, bias, label space) of a v5 checkpoint's
    header and the bytes after it, checked against each other."""
    label_space = from_dict(LabelSpace, header["label_space"])
    if header["featurizer"] != _featurizer_block():
        raise WeakLabelError(f"the featurizer must have hash dimension {DIM} and "
                             f"context window {CONTEXT_WINDOW}")
    C = len(label_space)
    bias = np.array(header["bias"], dtype=np.float64)
    if bias.shape != (C,):
        raise WeakLabelError(f"bias must hold {C} values, one per label")
    K = header["n_columns"]
    if type(K) is not int or not 0 <= K <= DIM:
        raise WeakLabelError(f"n_columns must be an integer in [0, {DIM}], got {K!r}")
    if len(body) != 4 * K + 8 * C * K:
        raise WeakLabelError(f"the body must hold {K} int32 columns and {C} x {K} float64 "
                             f"weights, {4 * K + 8 * C * K} bytes, not {len(body)}")
    columns = np.frombuffer(body, dtype="<i4", count=K).astype(np.intp)
    if K and (columns[0] < 0 or columns[-1] >= DIM or np.any(np.diff(columns) <= 0)):
        raise WeakLabelError(f"columns must be strictly ascending and within [0, {DIM})")
    values = np.frombuffer(body, dtype="<f8", count=C * K, offset=4 * K)
    block = np.array(values.reshape(C, K).T, dtype=np.float64, order="C")
    return HashedFeaturizer(), columns, block, bias, label_space


def _csr_matmul(indptr, indices, data, n_cols: int, M: np.ndarray, out: np.ndarray,
                transpose: bool = False) -> np.ndarray:
    """Add to `out` the CSR matrix (indptr, indices, data) of n_cols columns,
    or its transpose, times the dense C-contiguous M, without building the
    matrix, and return `out`: the kernel and summation order of scipy's
    `csr_matrix @ M` (`.T @ M`, which reads the same arrays as CSC), so into
    a zeroed `out` it gives scipy's product bit for bit.

    `indptr` may be a slice of a larger matrix's: the rows it delimits are
    read from `indices` and `data` at the positions it holds, unrebased.
    `out` is a C-contiguous float64 buffer the caller owns. The kernel checks
    no bounds: indptr must ascend and every index it delimits lie in
    [0, n_cols). This checks what it can in O(1), the ends of indptr and the
    shapes, and raises ValueError on a mismatch."""
    shape = (n_cols, len(indptr) - 1) if transpose else (len(indptr) - 1, n_cols)
    if (M.shape[0] != shape[1] or out.shape != (shape[0], M.shape[1])
            or not out.flags.c_contiguous or out.dtype != np.float64
            or not 0 <= indptr[0] <= indptr[-1] <= len(indices) == len(data)):
        raise ValueError("the CSR arrays, the dense operand and the buffer do not fit together")
    kernel = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
    kernel(*shape, M.shape[1], indptr, indices, data, M.ravel(), out.ravel())
    return out


def train(instances, labels, label_space: LabelSpace, featurizer: HashedFeaturizer,
          cfg: TrainConfig) -> WeakLabeler:
    """Fit the weak labeler on `featurizer`'s rows of the instances with
    mini-batch gradient descent, and early stopping under `cfg` on the loss of
    an internal validation split of VAL_FRACTION of the instances (the
    training loss when that split is empty). Deterministic under `cfg.seed`.

    It trains over the K hashed columns its instances use, not all of the
    featurizer's, renumbered 0..K-1 in ascending order through a mark array
    over the hashed columns. A step runs against the whole K x C block and
    costs O(nonzeros in the batch x classes + K x classes): the gradient
    product writes, and the update reads, every row. At K of 30k that is
    faster than touching only the batch's rows at 4 classes, about even at 7
    and 1.4x slower at 12 (README). Each step reads its rows of the epoch's
    shuffled matrix in place and works in two buffers made once per call, a
    batch x C one for the scores and a K x C one for the gradient. The model
    keeps the columns of the best snapshot that carry a nonzero weight, and
    scores through `featurizer`, so rows it has built are reused."""
    instances = list(instances)
    labels = list(labels)
    present = set(labels)
    for label in label_space.labels:
        if label not in present:
            raise WeakLabelError(f"label {label!r} has no training instances")

    y = np.array([label_space.index(l) for l in labels])
    X = featurizer.transform(instances)
    n, C = X.shape[0], len(label_space)
    # Renumber the used columns 0..K-1 in their order: every product and sum
    # runs as it would over all DIM columns, so the weights are the same. It
    # also keeps every index in [0, K), which the unchecked kernels need.
    mark = np.zeros(X.shape[1], dtype=bool)
    mark[X.indices] = True
    used = np.flatnonzero(mark)
    K = len(used)
    remap = np.zeros(X.shape[1], dtype=X.indices.dtype)
    remap[used] = np.arange(K)
    X.indices[:] = remap[X.indices]  # transform's own gather: the featurizer's rows stay
    X = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=(n, K))

    rng = random.Random(cfg.seed)
    order = list(range(n))
    rng.shuffle(order)
    n_val = max(1, int(VAL_FRACTION * n)) if n > 2 else 0
    val_idx, train_idx = order[:n_val], np.array(order[n_val:], dtype=np.intp)
    ytr = y[train_idx]
    Xval, yval = (X[val_idx], y[val_idx]) if val_idx else (X[train_idx], ytr)
    # W = s * V.T: the L2 decay of every step only rescales s, so a step
    # changes just the rows of V for the batch's feature columns.
    decay = 1.0 - LEARNING_RATE * L2
    V = np.zeros((K, C))
    s = 1.0
    b = np.zeros(C)
    best = (math.inf, V.copy(), b.copy())  # best s * V, K x C
    stall = 0
    np_rng = np.random.default_rng(cfg.seed)
    ntr = len(train_idx)
    onehot = np.eye(C)[ytr]
    scores = np.empty((min(BATCH_SIZE, ntr), C))
    G = np.empty((K, C))
    G_bytes = G.view(np.uint8)  # all-zero bytes are +0.0, and a byte fill is faster

    for _ in range(cfg.epochs):
        perm = np_rng.permutation(ntr)
        Xp = batch = None  # free the last epoch's rows before the next gather
        Xp, Yp = X[train_idx[perm]], onehot[perm]
        for start in range(0, ntr, BATCH_SIZE):
            stop = min(start + BATCH_SIZE, ntr)
            batch = (Xp.indptr[start:stop + 1], Xp.indices, Xp.data, K)
            err = scores[:stop - start]
            err.fill(0.0)
            _csr_matmul(*batch, V, err)
            err *= s
            err += b
            _softmax(err)
            err -= Yp[start:stop]
            s *= decay
            # The K x C gradient is exactly zero off the batch's columns, and
            # V - 0.0 == V (-0.0 included), so only those rows change.
            G_bytes.fill(0)
            _csr_matmul(*batch, err, G, transpose=True)
            G *= LEARNING_RATE / ((stop - start) * s)
            V -= G
            b -= LEARNING_RATE * (err.sum(axis=0) / (stop - start))  # err.mean, bit for bit
            if s < 1e-6:
                V *= s
                s = 1.0
        P = _softmax(s * (Xval @ V) + b)
        val_loss = -np.log(np.clip(P[np.arange(len(yval)), yval], 1e-12, None)).mean()
        if val_loss < best[0] - 1e-9:
            best = (val_loss, V * s, b.copy())
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    _, V, b = best
    nonzero = np.any(V != 0, axis=1)
    return WeakLabeler(featurizer, used[nonzero], V[nonzero], b, label_space)


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


def filter_candidates(candidates, model: WeakLabeler, config: FilterConfig) -> None:
    """Assign silver labels and entropies, then apply the percentile rule, in
    place. A candidate with a payload and a pending verdict is scored by the
    last text of its instances_of, so a dialogue candidate by its final
    generated turn in context.

    Candidates whose silver label matches the prescription are kept
    unconditionally. Among the mismatched ones, those at or above the P-th
    entropy percentile of the mismatched batch survive as high-uncertainty
    candidates; the rest are dropped. P = 0 keeps everything but still
    annotates: it is the no-filter condition.
    """
    scorable = [c for c in candidates if c.payload is not None and c.verdict == "pending"]
    if not scorable:
        return
    probs = model.predict_proba([instances_of([c], model.label_space)[0][-1]
                                 for c in scorable])
    mismatched = []
    for cand, p in zip(scorable, probs):
        cand.silver_label = model.label_space.labels[int(p.argmax())]
        cand.entropy = entropy_bits(p)
        if cand.silver_label == cand.prescribed_label:
            cand.verdict = "kept"
        else:
            mismatched.append(cand)
    if mismatched:
        tau = nearest_rank_threshold([c.entropy for c in mismatched], config.percentile)
        for cand in mismatched:
            cand.verdict = "kept" if cand.entropy >= tau else "dropped_mismatch"


def planted_noise_retention(candidates) -> dict:
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
