import json
import math
import random
import zlib

import numpy as np
import pytest
from scipy import sparse

from weakdap import weaklabel
from weakdap.augment import AugmentPlan, Candidate, run_augmentation
from weakdap.corpus import LabelSpace, LabeledUtterance
from weakdap.genbackend import GenParams
from weakdap.prompt import PromptSpec
from weakdap.weaklabel import (
    CHAR_NGRAM,
    FilterConfig,
    HashedFeaturizer,
    TrainConfig,
    WeakLabeler,
    WeakLabelError,
    _csr_matmul,
    entropy_bits,
    filter_candidates,
    nearest_rank_threshold,
    planted_noise_retention,
    train,
)

from conftest import (
    KEYWORDS,
    TOY_LABELS,
    mock_backend,
    read_checkpoint,
    write_checkpoint,
    toy_conversation,
    toy_sentence,
)

SPACE = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)

pytestmark = pytest.mark.usefixtures("dim_1_14")  # a test may pin another DIM


def pin(monkeypatch, constants: dict):
    """Set each named module constant of `weaklabel` for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(weaklabel, name, value)


def zero_model(bias):
    """A model with no nonzero weight: empty `columns` and block."""
    return WeakLabeler(HashedFeaturizer(), np.zeros(0, dtype=np.intp),
                       np.zeros((0, len(SPACE))), bias, SPACE)


def softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def dense_reference_train(texts, labels, cfg):
    """Independent oracle for `train` with an internal validation split (the
    training set at 2 instances or fewer): the textbook dense minibatch step
    W -= lr * (err.T @ Xb / B + l2 * W) on the full C x DIM matrix, with the
    same permutation draws and stopping rule, at weaklabel's constants."""
    lr, l2, batch_size = weaklabel.LEARNING_RATE, weaklabel.L2, weaklabel.BATCH_SIZE
    X = HashedFeaturizer().transform(texts)
    y = np.array([SPACE.index(l) for l in labels])
    n, C = X.shape[0], len(SPACE)
    order = list(range(n))
    random.Random(cfg.seed).shuffle(order)
    n_val = max(1, int(weaklabel.VAL_FRACTION * n)) if n > 2 else 0
    Xtr, ytr = X[order[n_val:]], y[order[n_val:]]
    Xval, yval = (X[order[:n_val]], y[order[:n_val]]) if n_val else (Xtr, ytr)
    W, b = np.zeros((C, weaklabel.DIM)), np.zeros(C)
    best = (math.inf, W.copy(), b.copy())
    stall = 0
    np_rng = np.random.default_rng(cfg.seed)
    onehot = np.eye(C)[ytr]
    for _ in range(cfg.epochs):
        perm = np_rng.permutation(Xtr.shape[0])
        for start in range(0, Xtr.shape[0], batch_size):
            idx = perm[start:start + batch_size]
            Xb = Xtr[idx]
            err = softmax(Xb @ W.T + b) - onehot[idx]
            W -= lr * ((err.T @ Xb) / len(idx) + l2 * W)
            b -= lr * err.mean(axis=0)
        P = softmax(Xval @ W.T + b)
        val_loss = -np.log(np.clip(P[np.arange(len(yval)), yval], 1e-12, None)).mean()
        if val_loss < best[0] - 1e-9:
            best, stall = (val_loss, W.copy(), b.copy()), 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    return best[1], best[2]


def unique_step_reference_train(texts, labels, featurizer, cfg, space=SPACE):
    """The lazy-L2 trainer as it was before it trained over the used columns
    only: V spans every hashed column, and each batch finds its distinct
    columns with np.unique. `train` must give exactly its weights."""
    dim, lr, batch_size = weaklabel.DIM, weaklabel.LEARNING_RATE, weaklabel.BATCH_SIZE
    y = np.array([space.index(l) for l in labels])
    X = featurizer.transform(texts)
    n, C = X.shape[0], len(space)
    order = list(range(n))
    random.Random(cfg.seed).shuffle(order)
    n_val = max(1, int(weaklabel.VAL_FRACTION * n)) if n > 2 else 0
    Xtr, ytr = X[order[n_val:]], y[order[n_val:]]
    Xval, yval = (X[order[:n_val]], y[order[:n_val]]) if n_val else (Xtr, ytr)
    decay = 1.0 - lr * weaklabel.L2
    V, s, b = np.zeros((dim, C)), 1.0, np.zeros(C)
    best = (math.inf, np.zeros((C, dim)), b.copy())
    stall = 0
    np_rng = np.random.default_rng(cfg.seed)
    ntr = Xtr.shape[0]
    onehot = np.eye(C)[ytr]
    for _ in range(cfg.epochs):
        perm = np_rng.permutation(ntr)
        Xp, Yp = Xtr[perm], onehot[perm]
        for start in range(0, ntr, batch_size):
            stop = min(start + batch_size, ntr)
            lo, hi = Xp.indptr[start], Xp.indptr[stop]
            cols, local = np.unique(Xp.indices[lo:hi], return_inverse=True)
            Xb = sparse.csr_matrix((Xp.data[lo:hi], local, Xp.indptr[start:stop + 1] - lo),
                                   shape=(stop - start, len(cols)))
            Vb = V[cols]
            err = softmax(s * (Xb @ Vb) + b) - Yp[start:stop]
            s *= decay
            V[cols] = Vb - lr / ((stop - start) * s) * (Xb.T @ err)
            b -= lr * err.mean(axis=0)
            if s < 1e-6:
                V *= s
                s = 1.0
        P = softmax(s * (Xval @ V) + b)
        val_loss = -np.log(np.clip(P[np.arange(len(yval)), yval], 1e-12, None)).mean()
        if val_loss < best[0] - 1e-9:
            best, stall = (val_loss, V.T * s, b.copy()), 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    return best[1], best[2]


def reference_grams(text):
    """The grams of `text` by the featurizer's spec: each word unigram and
    bigram of the lowercased tokens, a bigram joined by "_", and "#" plus
    each char n-gram of CHAR_NGRAM characters of the lowercased text with its
    whitespace removed."""
    tokens = text.lower().split()
    grams = tokens + [a + "_" + b for a, b in zip(tokens, tokens[1:])]
    compact = "".join(ch for ch in text.lower() if not ch.isspace())
    n = CHAR_NGRAM
    return grams + ["#" + compact[i:i + n] for i in range(len(compact) - n + 1)]


def reference_transform(texts):
    """Independent oracle for `HashedFeaturizer.transform`: per-text dict
    counting over the crc32 columns of `reference_grams`, columns sorted,
    rows l2-normalized, with no memo."""
    data, indices, indptr = [], [], [0]
    for text in texts:
        counts = {}
        for gram in reference_grams(text):
            idx = zlib.crc32(gram.encode("utf-8")) % weaklabel.DIM
            counts[idx] = counts.get(idx, 0.0) + 1.0
        for idx in sorted(counts):
            indices.append(idx)
            data.append(counts[idx])
        indptr.append(len(indices))
    X = sparse.csr_matrix((data, indices, indptr),
                          shape=(len(indptr) - 1, weaklabel.DIM), dtype=np.float64)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
    norms[norms == 0] = 1.0
    return sparse.diags(1.0 / norms) @ X


def toy_instances(n, seed):
    rng = random.Random(seed)
    texts, labels = [], []
    for _ in range(n):
        label = rng.choice(TOY_LABELS)
        texts.append(toy_sentence(label, rng))
        labels.append(label)
    return texts, labels


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy_bits([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log2_c(self):
        for c in (2, 4, 7, 12):
            assert entropy_bits([1.0 / c] * c) == pytest.approx(math.log2(c), abs=1e-12)

    def test_worked_example(self):
        assert entropy_bits([0.9, 0.05, 0.05]) == pytest.approx(0.5690, abs=1e-4)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(7))
            oracle = float(-(p * np.log2(p)).sum())
            assert entropy_bits(p) == pytest.approx(oracle, abs=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(5))
        assert entropy_bits(p) == pytest.approx(entropy_bits(p[::-1]), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = int(rng.integers(2, 13))
            p = rng.dirichlet(np.ones(c))
            h = entropy_bits(p)
            assert 0 <= h <= math.log2(c) + 1e-12


FEATURIZER_TEXTS = [
    "",
    "   \t\n ",
    "again and again and again and again",
    "aaaaaaaa",
    "¿Dónde está el baño? ñandú über straße 東京 😀",
    "A:okay A:fine B:furious outrage angry",
    "okay",
]


def assert_same_csr(got, want):
    assert isinstance(got, sparse.csr_matrix)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestFeaturizer:
    def test_cold_matches_reference(self):
        texts = FEATURIZER_TEXTS + FEATURIZER_TEXTS[2:5]  # repeats within one batch
        assert_same_csr(HashedFeaturizer().transform(texts), reference_transform(texts))

    def test_memo_matches_reference(self):
        featurizer = HashedFeaturizer()
        featurizer.transform(FEATURIZER_TEXTS)
        texts = list(reversed(FEATURIZER_TEXTS)) + FEATURIZER_TEXTS[:3]
        assert_same_csr(featurizer.transform(texts), reference_transform(texts))

    def test_mixed_batch_matches_reference(self):
        featurizer = HashedFeaturizer()
        featurizer.transform(FEATURIZER_TEXTS[::2])
        texts, _ = toy_instances(30, seed=13)
        texts = FEATURIZER_TEXTS + texts + texts[:7] + FEATURIZER_TEXTS[1::2]
        assert_same_csr(featurizer.transform(texts), reference_transform(texts))

    def test_rows_store_columns_descending(self):
        """The trainer sums each row's products in the order its columns are
        stored, so that order is part of every model's weights: it is pinned
        here, over more new texts than one FEATURIZE_BATCH."""
        featurizer = HashedFeaturizer()
        featurizer.transform(FEATURIZER_TEXTS)
        texts, _ = toy_instances(weaklabel.FEATURIZE_BATCH + 50, seed=16)
        texts = [f"{text} {i}" for i, text in enumerate(texts)] + FEATURIZER_TEXTS
        X = featurizer.transform(texts)
        assert_same_csr(X, reference_transform(texts))
        for rows in (X, featurizer._rows):
            for i in range(rows.shape[0]):
                assert np.all(np.diff(rows.indices[rows.indptr[i]:rows.indptr[i + 1]]) < 0), i

    def test_small_dimension_collisions_match_reference(self, monkeypatch):
        monkeypatch.setattr(weaklabel, "DIM", 7)
        texts, _ = toy_instances(20, seed=14)
        texts = FEATURIZER_TEXTS + texts
        assert_same_csr(HashedFeaturizer().transform(texts), reference_transform(texts))

    @pytest.mark.parametrize("dim", [1 << 14, 7], ids=["default", "dim7"])
    def test_token_boundaries_match_reference(self, dim, monkeypatch):
        texts = [
            "a b cd e fg h ij k",  # tokens of 1 and 2 characters
            "ab", "A b", "x", "",  # shorter than CHAR_NGRAM, and empty
            "¿Qué tal? Señor Ñandú, ¿dónde está el baño? ¡Qué día más bonito! Él está aquí",
            "again and again and again",
        ]
        monkeypatch.setattr(weaklabel, "DIM", dim)
        featurizer = HashedFeaturizer()
        assert_same_csr(featurizer.transform(texts), reference_transform(texts))
        # new texts made of tokens it has seen, in new orders
        texts = ["ij k a b cd", "está él aquí ¡qué día!", "k fg ab x señor", "and ab again"]
        assert_same_csr(featurizer.transform(texts), reference_transform(texts))

    def test_pair_memo_matches_reference(self):
        texts = [
            "hello a world",  # a short token in the middle
            "hello world a",  # and at the end, after a pair seen with another b
            "hello a b world",  # two short tokens: one gram spans three tokens
            "hello ab world",
            "hello a b",
            "hello",  # one token
            "so so so so good",  # a pair repeated within one text
            "world hello a world hello ab",
            "a b c hello a",
        ]
        assert_same_csr(HashedFeaturizer().transform(texts), reference_transform(texts))
        one = HashedFeaturizer()
        singly = sparse.vstack([one.transform([text]) for text in texts], format="csr")
        assert_same_csr(singly, reference_transform(texts))
        backwards = HashedFeaturizer().transform(texts[::-1])[::-1]
        assert_same_csr(backwards, reference_transform(texts))

    def test_hashes_each_distinct_text_once(self, monkeypatch):
        featurizer = HashedFeaturizer()
        hashed, indices = [], featurizer._indices
        monkeypatch.setattr(featurizer, "_indices",
                            lambda text: hashed.append(text) or indices(text))
        featurizer.transform(FEATURIZER_TEXTS * 2)
        featurizer.transform(FEATURIZER_TEXTS[::-1])
        assert sorted(hashed) == sorted(FEATURIZER_TEXTS)

    def test_empty_batch(self):
        featurizer = HashedFeaturizer()
        for _ in range(2):  # cold, then with a filled memo
            X = featurizer.transform([])
            assert_same_csr(X, reference_transform([]))
            assert X.shape == (0, weaklabel.DIM)
            featurizer.transform(FEATURIZER_TEXTS)


class TestTraining:
    def test_separable_training_accuracy(self):
        texts, labels = toy_instances(120, seed=0)
        model = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=1))
        assert model.predict(texts) == labels

    def test_deterministic_weights(self):
        texts, labels = toy_instances(80, seed=2)
        m1 = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=5))
        m2 = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=5))
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)

    def test_validation_accuracy_beats_nearest_centroid_floor(self):
        texts, labels = toy_instances(200, seed=3)
        val_texts, val_labels = toy_instances(120, seed=4)
        model = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=1))
        pred = model.predict(val_texts)
        acc = sum(p == g for p, g in zip(pred, val_labels)) / len(val_labels)
        assert acc > 0.9
        # independent oracle: keyword-overlap nearest centroid also exceeds 0.9
        def centroid_label(text):
            words = set(text.split())
            return max(TOY_LABELS, key=lambda l: len(words & set(KEYWORDS[l])))
        oracle_acc = sum(centroid_label(t) == g for t, g in zip(val_texts, val_labels)) \
            / len(val_labels)
        assert oracle_acc > 0.9

    def test_missing_label_named(self):
        texts, labels = toy_instances(50, seed=5)
        filtered = [(t, l) for t, l in zip(texts, labels) if l != "sadness"]
        texts, labels = zip(*filtered)
        with pytest.raises(WeakLabelError, match="sadness"):
            train(list(texts), list(labels), SPACE, HashedFeaturizer(), TrainConfig())

    def test_zero_weights_give_uniform_probs(self):
        model = zero_model(np.zeros(4))
        p = model.predict_proba(["anything at all"])[0]
        np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_probs_sum_to_one(self):
        texts, labels = toy_instances(60, seed=6)
        model = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=1))
        probs = model.predict_proba(texts)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("constants,cfg", [
        ({}, TrainConfig(seed=1)),
        ({"BATCH_SIZE": 1}, TrainConfig(seed=2, epochs=4)),
        # decay 0.95 a step for ~1600 steps: s drops below 1e-6 several times
        ({"L2": 0.1, "BATCH_SIZE": 7}, TrainConfig(seed=3, epochs=60, patience=60)),
    ], ids=["default", "batch1", "l2-renormalize"])
    def test_matches_dense_reference(self, constants, cfg, monkeypatch):
        pin(monkeypatch, constants)
        texts, labels = toy_instances(200, seed=11)
        model = train(texts, labels, SPACE, HashedFeaturizer(), cfg)
        W, b = dense_reference_train(texts, labels, cfg)
        assert isinstance(model.weights, np.ndarray) and not sparse.issparse(model.weights)
        assert model.weights.dtype == np.float64
        assert model.weights.shape == (len(SPACE), weaklabel.DIM)
        assert np.any(W != 0)
        np.testing.assert_allclose(model.weights, W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.bias, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("constants,cfg,empty", [
        ({}, TrainConfig(seed=1), 0),
        ({"BATCH_SIZE": 1}, TrainConfig(seed=2, epochs=4), 0),
        ({"L2": 0.1, "BATCH_SIZE": 7}, TrainConfig(seed=3, epochs=60, patience=60), 0),
        # nearly every hashed column in use
        ({"DIM": 256}, TrainConfig(seed=4), 0),
        # batches of one empty text: a step with no nonzeros
        ({"BATCH_SIZE": 1}, TrainConfig(seed=5, epochs=3), 12),
    ], ids=["default", "batch1", "l2-renormalize", "dim256", "empty-batches"])
    def test_equals_unique_step_trainer(self, constants, cfg, empty, monkeypatch):
        pin(monkeypatch, constants)
        texts, labels = toy_instances(200, seed=11)
        texts = texts + [""] * empty
        labels = labels + [TOY_LABELS[i % len(TOY_LABELS)] for i in range(empty)]
        model = train(texts, labels, SPACE, HashedFeaturizer(), cfg)
        W, b = unique_step_reference_train(texts, labels, HashedFeaturizer(), cfg)
        assert np.any(W != 0)
        assert np.array_equal(model.weights, W)
        assert np.array_equal(model.bias, b)
        if weaklabel.DIM == 256:
            assert np.count_nonzero(np.any(W != 0, axis=0)) > 0.8 * weaklabel.DIM

    def test_leaves_the_featurizers_rows_alone(self):
        """`train` renumbers the columns of its own copy of the rows."""
        texts, labels = toy_instances(60, seed=8)
        featurizer = HashedFeaturizer()
        before = featurizer.transform(texts)
        rows = featurizer._rows.copy()
        train(texts, labels, SPACE, featurizer, TrainConfig(seed=1, epochs=3))
        assert_same_csr(featurizer._rows, rows)
        assert_same_csr(featurizer.transform(texts), before)

    def test_two_instances_train_on_every_instance(self):
        """With 2 instances or fewer there is no validation split."""
        space = LabelSpace(task="emotion", labels=TOY_LABELS[:2])
        rng = random.Random(15)
        labels = list(space.labels)
        texts = [f"{toy_sentence(label, rng)} only{i}" for i, label in enumerate(labels)]
        cfg = TrainConfig(seed=6, epochs=5)
        model = train(texts, labels, space, HashedFeaturizer(), cfg)
        # every instance's own columns, used by no other instance, were trained
        X = HashedFeaturizer().transform(texts)
        uses = np.bincount(X.indices, minlength=weaklabel.DIM)
        for i in range(len(texts)):
            own = [c for c in X.indices[X.indptr[i]:X.indptr[i + 1]] if uses[c] == 1]
            assert own and np.all(np.any(model.weights[:, own] != 0, axis=0)), i
        W, b = unique_step_reference_train(texts, labels, HashedFeaturizer(), cfg, space)
        assert np.array_equal(model.weights, W)
        assert np.array_equal(model.bias, b)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_direct_kernels_equal_scipy_products(self, index_dtype):
        """`train` calls scipy's private `_sparsetools` kernels itself, on a
        batch of rows of its K-column training matrix, read in place from the
        epoch's arrays (an unrebased `indptr` slice over the whole `indices`
        and `data`) and added into a reused buffer that it zero-fills; they
        must give, bit for bit, what the public `Xb @ V` and `Xb.T @ err`
        give, or a scipy upgrade has changed them under the trainer. The
        transpose product is the whole K x C gradient: at the batch's columns
        it equals the product over those columns alone, and elsewhere it is
        +0.0."""
        rng = np.random.default_rng(3)
        K = 20
        X = sparse.random(9, K, density=0.3, format="csr", random_state=4)
        X.data[:] = rng.random(X.nnz)
        X.data[X.indptr[4]:X.indptr[5]] = 0
        X.eliminate_zeros()
        assert X.indptr[4] == X.indptr[5]  # an empty row
        indices = X.indices.astype(index_dtype)
        # reused buffers, left dirty between products, one pair per class count
        scores = {C: np.full((9, C), np.nan) for C in (3, 7, 12)}
        grads = {C: np.full((K, C), np.nan) for C in (3, 7, 12)}
        # the start, the middle and the end of the epoch's arrays
        for start, stop, C in [(0, 9, 12), (0, 3, 7), (3, 6, 7), (4, 5, 12), (6, 9, 3)]:
            indptr = X.indptr[start:stop + 1].astype(index_dtype)
            batch = (indptr, indices, X.data, K)
            Xb = X[start:stop]
            V, err = rng.standard_normal((K, C)), rng.standard_normal((stop - start, C))
            out = np.zeros((stop - start, C))
            assert _csr_matmul(*batch, V, out) is out
            assert np.array_equal(out, Xb @ V)
            # a zero-filled view of a reused buffer, as `train` passes it
            buf = scores[C][:stop - start]
            buf.fill(0.0)
            assert np.array_equal(_csr_matmul(*batch, V, buf), Xb @ V)
            G = grads[C]
            G.fill(0.0)
            _csr_matmul(*batch, err, G, transpose=True)
            assert np.array_equal(G, Xb.T @ err)
            lo, hi = X.indptr[start], X.indptr[stop]
            cols, local = np.unique(X.indices[lo:hi], return_inverse=True)
            Xc = sparse.csr_matrix((X.data[lo:hi], local, X.indptr[start:stop + 1] - lo),
                                   shape=(stop - start, len(cols)))
            assert np.array_equal(G[cols], Xc.T @ err)
            off = np.delete(G, cols, axis=0)
            assert not np.any(off) and not np.any(np.signbit(off))
        # an indptr that runs past the arrays, or a mis-sized operand or
        # buffer, would make the kernel read or write out of bounds: it raises
        B = stop - start
        for bad in [
            (indptr + 1, indices, X.data, K, V, np.zeros((B, C))),
            (indptr - 1 - indptr[0], indices, X.data, K, V, np.zeros((B, C))),
            (indptr, indices, X.data[:-1], K, V, np.zeros((B, C))),
            (indptr, indices, X.data, K, np.zeros((K + 1, C)), np.zeros((B, C))),
            (indptr, indices, X.data, K, V, np.zeros((B + 1, C))),
            (indptr, indices, X.data, K, V, np.zeros((B, C + 1))),
            (indptr, indices, X.data, K, V, np.zeros((C, B)).T),
            (indptr, indices, X.data, K, V, np.zeros((B, C), dtype=np.float32)),
        ]:
            with pytest.raises(ValueError, match="fit"):
                _csr_matmul(*bad)
        with pytest.raises(ValueError, match="fit"):
            _csr_matmul(indptr, indices, X.data, K, err, np.zeros((K, C + 1)), transpose=True)
        with pytest.raises(ValueError, match="fit"):
            _csr_matmul(indptr, indices, X.data, K, V, np.zeros((K, C)), transpose=True)

    @pytest.mark.parametrize("field,value", [("epochs", -1)])
    def test_invalid_train_config_rejected(self, field, value):
        with pytest.raises(WeakLabelError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [("patience", 0)])
    def test_invalid_train_config_values_rejected(self, field, value):
        with pytest.raises(WeakLabelError, match=field):
            TrainConfig(**{field: value})

    def test_zero_epochs_give_an_all_zero_model(self):
        texts, labels = toy_instances(40, seed=12)
        model = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(epochs=0))
        assert not np.any(model.weights) and not np.any(model.bias)
        assert model.weights.shape == (len(SPACE), weaklabel.DIM)

    def test_checkpoint_round_trip(self, tmp_path):
        texts, labels = toy_instances(60, seed=7)
        model = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=1))
        path = tmp_path / "model.ckpt"
        model.save(path)
        header, columns, block = read_checkpoint(path)
        assert header["version"] == 5
        nonzero = np.flatnonzero(np.any(model.weights != 0, axis=0))
        assert header["n_columns"] == len(nonzero) and np.array_equal(columns, nonzero)
        assert 0 < len(nonzero) < weaklabel.DIM
        assert np.array_equal(block, model.weights[:, nonzero])
        loaded = WeakLabeler.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert np.array_equal(loaded.columns, model.columns)
        assert loaded.block.flags.c_contiguous
        assert loaded.weights.shape == (len(SPACE), weaklabel.DIM)
        assert loaded.predict(texts[:5]) == model.predict(texts[:5])


class TestCheckpoint:
    def test_all_zero_model_round_trip(self, tmp_path):
        model = zero_model(np.array([0.5, 0.0, -0.5, 1.0]))
        path = tmp_path / "model.ckpt"
        model.save(path)
        header, _, _ = read_checkpoint(path)
        assert header["n_columns"] == 0 and path.read_bytes().endswith(b"}\n")
        loaded = WeakLabeler.load(path)
        assert loaded.columns.shape == (0,) and loaded.block.shape == (0, 4)
        np.testing.assert_array_equal(loaded.weights, np.zeros((4, weaklabel.DIM)))
        np.testing.assert_array_equal(loaded.bias, model.bias)
        np.testing.assert_array_equal(loaded.predict_proba(["anything at all", ""]),
                                      softmax(np.tile(model.bias, (2, 1))))

        uniform = zero_model(np.zeros(4))
        uniform.save(path)
        assert np.array_equal(WeakLabeler.load(path).predict_proba(["any text"]),
                              np.full((1, 4), 0.25))

    @pytest.mark.parametrize("version", [None, 0, "5", "4", "3", "2", 1, 2, 3, 4, 6],
                             ids=["None", "0", "5", "4", "3", "2", "v1", "v2", "v3", "v4", "6"])
    def test_unknown_version_rejected(self, tmp_path, version):
        model = zero_model(np.zeros(4))
        path = tmp_path / "model.ckpt"
        model.save(path)
        header = read_checkpoint(path)[0]
        if version is None:
            del header["version"]
        else:
            header["version"] = version
        write_checkpoint(path, header, [], b"")
        with pytest.raises(WeakLabelError, match="version"):
            WeakLabeler.load(path)

    def test_v4_checkpoint_rejected_by_version(self, tmp_path):
        """A version 4 file is one JSON line with `columns` as a list and
        `weights` as base64 text; it is read as a header and refused."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "version": 4, "featurizer": weaklabel._featurizer_block(),
            "label_space": {"task": "emotion", "labels": list(TOY_LABELS), "majority": 0},
            "columns": [], "weights": "", "bias": [0.0] * 4}, sort_keys=True))
        with pytest.raises(WeakLabelError, match="^unsupported checkpoint version 4$"):
            WeakLabeler.load(path)

    def test_round_trip_is_exact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(weaklabel, "DIM", 512)
        texts, labels = toy_instances(80, seed=13)
        model = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=2, epochs=8))
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = WeakLabeler.load(path)
        assert np.array_equal(loaded.columns, model.columns)
        assert np.array_equal(loaded.block, model.block)
        assert np.array_equal(loaded.bias, model.bias)
        assert np.array_equal(loaded.predict_proba(texts), model.predict_proba(texts))
        K, C = model.block.shape
        head = path.read_bytes().split(b"\n", 1)[0]
        assert path.stat().st_size == len(head) + 1 + 4 * K + 8 * C * K
        loaded.save(tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("change,match", [
        (lambda h, b: h.pop("n_columns"), "lacks n_columns"),
        (lambda h, b: h.pop("bias"), "lacks bias"),
        (lambda h, b: b.update(weights=b""), "body must hold"),
        (lambda h, b: b.update(columns=[1, 999]), "within"),
        (lambda h, b: b.update(columns=[-1, 3]), "within"),
        (lambda h, b: b.update(columns=[3, 3]), "ascending"),
        (lambda h, b: b.update(columns=[5, 3]), "ascending"),
        (lambda h, b: h.update(bias=[0.0]), "bias"),
        (lambda h, b: h.update(bias=[[0.0, 1.0]]), "bias"),
        (lambda h, b: b.update(weights=b["weights"][:-8]), "body must hold"),
        (lambda h, b: b.update(weights=b["weights"][:-1]), "72 bytes, not 71"),
        (lambda h, b: b.update(weights=b["weights"] + b"\0"), "72 bytes, not 73"),
        (lambda h, b: h.update(n_columns=True), "n_columns must be an integer"),
        (lambda h, b: h.update(n_columns=-1), "n_columns must be an integer"),
        (lambda h, b: h.update(n_columns=65), r"in \[0, 64\], got 65"),
        (lambda h, b: h.update(label_space={"labels": ["a", "b"]}), "malformed"),
        (lambda h, b: h["featurizer"].update(dim=0), "dimension"),
        (lambda h, b: h["featurizer"].update(context_window=-2), "malformed.*context window"),
        (lambda h, b: h["featurizer"].update(dim=128), "dimension 64"),
        (lambda h, b: h["featurizer"].update(context_window=2), "context window 1"),
        (lambda h, b: h["featurizer"].update(unknown=1), "malformed"),
        (lambda h, b: h["label_space"].update(labels="abcd"), "malformed.*string"),
    ], ids=["no-columns", "no-bias", "no-weights", "column-past-dim", "negative-column",
            "duplicate-columns", "descending-columns", "short-bias", "nested-bias",
            "short-weights", "short-body", "long-body", "bool-count", "negative-count",
            "count-past-dim", "bad-label-space", "bad-featurizer", "negative-context-window",
            "other-dimension", "other-context-window", "unknown-featurizer-field",
            "string-labels"])
    def test_malformed_v3_checkpoint_rejected(self, tmp_path, change, match, monkeypatch):
        """`change` edits the header `h` in place, or `b`: the `columns`
        list and the `weights` bytes written after it."""
        monkeypatch.setattr(weaklabel, "DIM", 64)
        model = WeakLabeler(HashedFeaturizer(), np.array([1, 3]),
                            np.arange(8.0).reshape(2, 4), np.zeros(4), SPACE)
        path = tmp_path / "model.ckpt"
        model.save(path)
        header, columns, weights = read_checkpoint(path)
        body = {"columns": columns.tolist(), "weights": weights.tobytes()}
        change(header, body)
        write_checkpoint(path, header, body["columns"], body["weights"])
        with pytest.raises(WeakLabelError, match=match):
            WeakLabeler.load(path)

    @pytest.mark.parametrize("text", ["", "[1, 2]", '{"version": 3', "\xff\xfe"])
    def test_checkpoint_that_is_not_a_document_rejected(self, tmp_path, text):
        path = tmp_path / "model.ckpt"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(WeakLabelError):
            WeakLabeler.load(path)


class TestCompactScoring:
    """`predict_proba` over the nonzero columns equals the dense product over
    every column, to the bit."""

    def _model(self):
        texts, labels = toy_instances(120, seed=14)
        return train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=1)), texts

    def _dense(self, model, texts):
        X = HashedFeaturizer().transform(texts)
        return softmax(X @ model.weights.T + model.bias)

    def test_equals_dense_product(self):
        model, texts = self._model()
        assert 0 < len(model.columns) < weaklabel.DIM
        batch = texts[:40] + ["okay furious crying thrilled unseen words", "okay"]
        assert np.array_equal(model.predict_proba(batch), self._dense(model, batch))

    def test_texts_with_only_unseen_columns(self):
        model, _ = self._model()
        batch = ["zq", "zzq xxj", ""]
        cols = HashedFeaturizer().transform(batch).indices
        assert not np.isin(cols, model.columns).any()
        P = model.predict_proba(batch)
        assert np.array_equal(P, self._dense(model, batch))
        assert np.array_equal(P, softmax(np.tile(model.bias, (3, 1))))

    def test_empty_batch(self):
        model, _ = self._model()
        P = model.predict_proba([])
        assert P.shape == (0, len(SPACE))
        assert np.array_equal(P, self._dense(model, []))

    def test_train_keeps_only_nonzero_columns_ascending(self):
        model, _ = self._model()
        assert np.all(np.diff(model.columns) > 0)
        assert model.block.shape == (len(model.columns), len(SPACE))
        assert model.block.flags.c_contiguous
        assert np.all(np.any(model.block != 0, axis=1))


def brute_force_filter_oracle(matched_flags, entropies, percentile):
    """Independent nearest-rank oracle: ascending sort, value at index
    ceil(P/100*m) clamped to the last element; keep mismatched >= that value."""
    kept = []
    mismatched = [e for flag, e in zip(matched_flags, entropies) if not flag]
    tau = None
    if mismatched:
        s = sorted(mismatched)
        idx = math.ceil(percentile / 100.0 * len(s))
        tau = s[min(idx, len(s) - 1)]
    for i, (flag, e) in enumerate(zip(matched_flags, entropies)):
        if flag or e >= tau:
            kept.append(i)
    return kept


class _StubModel:
    """Emits a fixed (prob vector) per instance, keyed by instance text."""

    def __init__(self, table, label_space):
        self.table = table
        self.label_space = label_space

    def predict_proba(self, texts):
        return np.array([self.table[t] for t in texts])


def stub_candidates(probs, prescribed):
    cands, table = [], {}
    for i, (p, label) in enumerate(zip(probs, prescribed)):
        text = f"instance {i}"
        table[text] = p
        payload = LabeledUtterance(id=f"c{i}", text=text, intent=label, lang="en",
                                   provenance="silver", source_id="g")
        cands.append(Candidate(id=f"c{i}", payload=payload, prescribed_label=label,
                               strategy="lta", source_id="g"))
    return cands, table


class TestFilter:
    def _prob_with_entropy(self, rng, argmax, c=4):
        p = rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0))
        top = np.argmax(p)
        p[top], p[argmax] = p[argmax], p[top]
        return p

    def test_fifty_mismatched_p80_keeps_top_entropy_fifth(self):
        rng = np.random.default_rng(0)
        probs = [self._prob_with_entropy(rng, argmax=1) for _ in range(50)]
        prescribed = ["neutral"] * 50  # argmax is anger -> all mismatched
        cands, table = stub_candidates(probs, prescribed)
        model = _StubModel(table, SPACE)
        filter_candidates(cands, model, FilterConfig(percentile=80))
        kept = [c for c in cands if c.verdict == "kept"]
        assert len(kept) == 10
        dropped_max = max(c.entropy for c in cands if c.verdict == "dropped_mismatch")
        assert all(c.entropy >= dropped_max for c in kept)

    def test_all_matched_all_kept(self):
        rng = np.random.default_rng(1)
        probs = [self._prob_with_entropy(rng, argmax=0) for _ in range(20)]
        cands, table = stub_candidates(probs, ["neutral"] * 20)
        filter_candidates(cands, _StubModel(table, SPACE), FilterConfig(percentile=80))
        assert all(c.verdict == "kept" for c in cands)

    def test_p100_keeps_only_max_entropy_ties(self):
        rng = np.random.default_rng(2)
        probs = [self._prob_with_entropy(rng, argmax=1) for _ in range(30)]
        cands, table = stub_candidates(probs, ["neutral"] * 30)
        filter_candidates(cands, _StubModel(table, SPACE), FilterConfig(percentile=100))
        max_e = max(c.entropy for c in cands)
        for c in cands:
            assert (c.verdict == "kept") == (c.entropy == max_e)

    def test_p0_keeps_everything(self):
        rng = np.random.default_rng(3)
        probs = [self._prob_with_entropy(rng, argmax=1) for _ in range(15)]
        cands, table = stub_candidates(probs, ["neutral"] * 15)
        filter_candidates(cands, _StubModel(table, SPACE), FilterConfig(percentile=0))
        assert all(c.verdict == "kept" for c in cands)

    def test_single_mismatched_is_kept(self):
        rng = np.random.default_rng(4)
        probs = [self._prob_with_entropy(rng, argmax=1)]
        cands, table = stub_candidates(probs, ["neutral"])
        filter_candidates(cands, _StubModel(table, SPACE), FilterConfig(percentile=80))
        assert cands[0].verdict == "kept"

    def test_disabled_keeps_all_but_annotates(self):
        # P = 0 is the no-filter condition
        rng = np.random.default_rng(5)
        probs = [self._prob_with_entropy(rng, argmax=1) for _ in range(10)]
        cands, table = stub_candidates(probs, ["neutral"] * 10)
        filter_candidates(cands, _StubModel(table, SPACE), FilterConfig(percentile=0))
        assert all(c.verdict == "kept" for c in cands)
        assert all(c.silver_label is not None and c.entropy is not None for c in cands)

    def test_empty_list(self):
        assert filter_candidates([], _StubModel({}, SPACE), FilterConfig()) is None

    def test_matches_brute_force_oracle_random_batches(self):
        rng = np.random.default_rng(6)
        for trial in range(60):
            m = int(rng.integers(1, 60))
            probs, prescribed, matched = [], [], []
            for _ in range(m):
                is_match = bool(rng.random() < 0.4)
                p = self._prob_with_entropy(rng, argmax=0 if is_match else 1)
                probs.append(p)
                prescribed.append("neutral")
                matched.append(is_match)
            percentile = float(rng.choice([0, 50, 80, 100]))
            cands, table = stub_candidates(probs, prescribed)
            filter_candidates(cands, _StubModel(table, SPACE),
                              FilterConfig(percentile=percentile))
            entropies = [c.entropy for c in cands]
            expected = brute_force_filter_oracle(matched, entropies, percentile)
            got = [i for i, c in enumerate(cands) if c.verdict == "kept"]
            assert got == expected

    def test_invalid_percentile(self):
        with pytest.raises(WeakLabelError):
            FilterConfig(percentile=101)


class TestNearestRank:
    def test_empty_rejected(self):
        with pytest.raises(WeakLabelError):
            nearest_rank_threshold([], 80)

    def test_known_values(self):
        s = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert nearest_rank_threshold(s, 0) == 0.1
        assert nearest_rank_threshold(s, 100) == 0.5
        assert nearest_rank_threshold(s, 80) == 0.5  # ceil(4.0) = 4 -> s[4]
        assert nearest_rank_threshold(s, 50) == 0.4  # ceil(2.5) = 3 -> s[3]


class TestPlantedNoise:
    def _filtered_candidates(self, q, seed=1):
        rng = random.Random(seed)
        gold = [toy_conversation(f"g{i}", rng) for i in range(80)]
        plan = AugmentPlan(strategy="lta", multiplier=1.0, seed=seed)
        spec = PromptSpec(task="emotion")
        cands = run_augmentation(gold, plan, mock_backend(noise_rate=q), spec,
                                 SPACE, GenParams())
        texts, labels = toy_instances(200, seed=seed + 1)
        model = train(texts, labels, SPACE, HashedFeaturizer(), TrainConfig(seed=1))
        return cands, model

    def test_zero_noise_zero_kept_noise(self):
        cands, model = self._filtered_candidates(q=0.0)
        filter_candidates(cands, model, FilterConfig())
        report = planted_noise_retention(cands)
        assert report["kept_noise_rate"] == 0.0

    def test_competent_model_reduces_noise(self):
        cands, model = self._filtered_candidates(q=0.4)
        filter_candidates(cands, model, FilterConfig())
        report = planted_noise_retention(cands)
        assert report["overall_noise_rate"] > 0.2
        assert report["kept_noise_rate"] < 0.4
        assert report["kept_noise_rate"] < report["overall_noise_rate"]

    def test_disabled_filtering_identity(self):
        cands, model = self._filtered_candidates(q=0.4)
        filter_candidates(cands, model, FilterConfig(percentile=0))
        report = planted_noise_retention(cands)
        assert report["kept_noise_rate"] == pytest.approx(report["overall_noise_rate"])

    def test_non_mock_candidates_rejected(self):
        payload = LabeledUtterance(id="c", text="x", intent="neutral", lang="en",
                                   provenance="silver", source_id="g")
        cand = Candidate(id="c", payload=payload, prescribed_label="neutral",
                         strategy="lta", source_id="g")
        with pytest.raises(WeakLabelError):
            planted_noise_retention([cand])
