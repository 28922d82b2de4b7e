import math
import os
import subprocess
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reportable_triage.backend import baseline
from reportable_triage.backend.base import decide
from reportable_triage.backend.baseline import (
    BLOCK_TOKENS,
    BaselineModel,
    FeatureRows,
    TrainHyper,
    crc_shift,
    load_baseline,
    save_baseline,
    score_batch,
    sgd_step,
    train_baseline,
)
from reportable_triage.errors import ValidationError
from reportable_triage.preprocess import NormalizedInput

from oracles import (
    reference_example_objective,
    reference_hash,
    reference_rows,
    reference_score,
    reference_train,
)

ROOT = Path(__file__).resolve().parents[1]


def ni(text):
    toks = text.split()
    return NormalizedInput(text=text, approx_token_count=len(toks), truncated=False,
                           sections_used=("diagnosis",))


def separable_set(n_per_class=10):
    pos = [(ni(f"carcinoma invasive doc{i}"), 1) for i in range(n_per_class)]
    neg = [(ni(f"benign tissue doc{i}"), 0) for i in range(n_per_class)]
    return pos + neg


# --- scores and decisions ----------------------------------------------------

def test_decide_threshold_and_tie():
    assert decide(0.7, 0.5) is True
    assert decide(0.5, 0.5) is True
    assert decide(0.49, 0.5) is False


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.01, max_value=0.99))
def test_threshold_monotonicity(p, t_low, t_high):
    lo, hi = sorted((t_low, t_high))
    if decide(p, hi):
        assert decide(p, lo)
    if 0 < p < 1:
        # the flip happens exactly at p == threshold: the tie goes positive
        assert decide(p, p)
        nudged = min(p + 1e-9, 1.0 - 1e-12)
        if nudged > p:
            assert not decide(p, nudged)


# --- feature hashing ---------------------------------------------------------

def row_items(rows, r):
    a, b = rows.indptr[r], rows.indptr[r + 1]
    return list(zip(rows.indices[a:b].tolist(), rows.values[a:b].tolist()))


def test_hashing_matches_frozen_indices():
    dim = 1 << 18
    feats = row_items(FeatureRows.hash_texts(["carcinoma"], dim), 0)
    assert feats == [(zlib.crc32(b"u\x00carcinoma") & (dim - 1), 1.0)]
    # frozen values guard cross-platform / cross-run drift
    assert (zlib.crc32(b"u\x00carcinoma") & (dim - 1)) == 46042
    assert (zlib.crc32(b"u\x00benign") & (dim - 1)) == 120657
    assert (zlib.crc32(b"b\x00invasive\x1fcarcinoma") & (dim - 1)) == 219243


def test_hashing_includes_bigrams_and_counts():
    dim = 1 << 10
    feats = dict(row_items(FeatureRows.hash_texts(["a b a"], dim), 0))
    ua = zlib.crc32(b"u\x00a") & (dim - 1)
    ub = zlib.crc32(b"u\x00b") & (dim - 1)
    bab = zlib.crc32(b"b\x00a\x1fb") & (dim - 1)
    bba = zlib.crc32(b"b\x00b\x1fa") & (dim - 1)
    assert feats[ua] == 2.0
    assert feats[ub] == 1.0
    assert feats[bab] == 1.0 and feats[bba] == 1.0


def test_hashing_deterministic_across_calls():
    a = row_items(FeatureRows.hash_texts(["one two three two"], 1 << 18), 0)
    b = row_items(FeatureRows.hash_texts(["one two three two"], 1 << 18), 0)
    assert a == b


TEXTS = st.lists(st.lists(st.sampled_from(["a", "b", "carcinoma", "é", "\U0001f600", "x" * 300])
                          | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                          max_size=30).map(" ".join),
                 max_size=12)


@given(texts=TEXTS, feature_dim=st.sampled_from([2, 16, 1 << 10, 1 << 18, 1 << 24]),
       block=st.sampled_from([1, 3, 16, BLOCK_TOKENS]))
@example(texts=[], feature_dim=16, block=BLOCK_TOKENS)
@example(texts=[""], feature_dim=16, block=BLOCK_TOKENS)
@example(texts=["carcinoma"], feature_dim=1 << 18, block=BLOCK_TOKENS)
@example(texts=["a a b a a"], feature_dim=2, block=BLOCK_TOKENS)
@example(texts=["", "", ""], feature_dim=2, block=1)
@example(texts=["a a a b a a", "", "a"], feature_dim=2, block=3)
# tokens an earlier text of the batch brought in change nothing
@example(texts=["a b carcinoma é", "é carcinoma b"], feature_dim=1 << 10, block=BLOCK_TOKENS)
# empty texts count against the rows of a block
@example(texts=["", "", "", "a b", "", "", "c"], feature_dim=16, block=2)
# blocks of 3 tokens: the first two texts share one, the third is longer
# than a block and has one to itself, the fourth starts a new one
@example(texts=["a b", "c", "d e f g h i j", "k é", "\U0001f600 " * 5], feature_dim=1 << 24,
         block=3)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_hashing_equals_reference_item_by_item_in_order(texts, feature_dim, block):
    with mock.patch.object(baseline, "BLOCK_TOKENS", block):
        rows = FeatureRows.hash_texts(texts, feature_dim)
    indptr, indices, values = reference_rows(texts, feature_dim)
    assert rows.indptr.tolist() == indptr
    assert rows.indices.tolist() == indices
    assert rows.values.tolist() == values


def test_crc_shift_continues_crc32_from_any_state():
    rng = np.random.default_rng(8)
    states = np.concatenate(([0, 0xFFFFFFFF], rng.integers(0, 1 << 32, size=30))).astype(np.uint32)
    for n in range(301):
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        shifted = crc_shift(states, np.full(len(states), n)) ^ np.uint32(zlib.crc32(data))
        assert shifted.tolist() == [zlib.crc32(data, s) for s in states.tolist()]
    # one call with a different length per state
    lengths = rng.integers(0, 301, size=len(states))
    blobs = [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes() for n in lengths]
    shifted = crc_shift(states, lengths) ^ np.array([zlib.crc32(b) for b in blobs], dtype=np.uint32)
    assert shifted.tolist() == [zlib.crc32(b, s) for b, s in zip(blobs, states.tolist())]


def test_text_hashes_the_same_alone_in_a_batch_and_after_another_batch():
    dim = 1 << 10
    text = "invasive carcinoma margin invasive carcinoma node"
    alone = FeatureRows.hash_texts([text], dim)
    FeatureRows.hash_texts(["benign tissue margin", "carcinoma node grade"], dim)
    FeatureRows.hash_texts([text, "carcinoma node"], 16)
    after = FeatureRows.hash_texts([text], dim)
    batch = FeatureRows.hash_texts(["carcinoma grade", "", text, "node node"], dim)
    expected = list(reference_hash(text.split(), dim).items())
    assert row_items(alone, 0) == row_items(after, 0) == row_items(batch, 2) == expected
    assert row_items(batch, 1) == []
    assert row_items(batch, 3) == list(reference_hash(["node", "node"], dim).items())


def test_logits_equal_a_sequential_sum_per_row():
    rng = np.random.default_rng(5)
    dim = 1 << 18
    # rows of 0 to over 1,000 features, in mixed order; weights of mixed
    # magnitudes, so that any other order of addition moves the last bits
    widths = [0, 1, 700, 0, 2, 1300, 37, 1, 0, 513]
    texts = [" ".join(f"w{rng.integers(10**9)}" for _ in range((n + 1) // 2)) for n in widths]
    rows = FeatureRows.hash_texts(texts, dim)
    lengths = np.diff(rows.indptr).tolist()
    assert lengths[0] == 0 and max(lengths) > 1000 and min(x for x in lengths if x) == 1
    weights = rng.normal(size=dim) * 10.0 ** rng.integers(-8, 8, size=dim)
    bias = -0.37
    products = weights[rows.indices] * rows.values
    expected = [bias + (np.cumsum(products[a:b])[-1] if b > a else 0.0)
                for a, b in zip(rows.indptr[:-1], rows.indptr[1:])]
    assert rows.logits(weights, bias) == expected
    assert FeatureRows.hash_texts([], dim).logits(weights, bias) == []


# --- training ----------------------------------------------------------------

def test_train_separable_reaches_perfect_training_accuracy():
    data = separable_set(10)
    model = train_baseline(data, TrainHyper(epochs=5), seed=1)
    scores = score_batch(model, model.featurize([inp for inp, _ in data]))
    preds = [1 if s >= 0.5 else 0 for s in scores]
    assert preds == [y for _, y in data]


def test_train_deterministic():
    data = separable_set(6)
    m1 = train_baseline(data, TrainHyper(epochs=3), seed=9)
    m2 = train_baseline(data, TrainHyper(epochs=3), seed=9)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    assert m1.final_loss == m2.final_loss
    m3 = train_baseline(data, TrainHyper(epochs=3), seed=10)
    assert not np.array_equal(m1.weights, m3.weights)


def test_train_rejects_degenerate_sets():
    with pytest.raises(ValidationError, match="degenerate"):
        train_baseline([(ni("carcinoma"), 1), (ni("invasive"), 1)],
                       TrainHyper(), seed=1)
    with pytest.raises(ValidationError):
        train_baseline([], TrainHyper(), seed=1)


def test_train_final_loss_is_finite_and_below_the_zero_model():
    data = separable_set(5)
    model = train_baseline(data, TrainHyper(epochs=4), seed=2)
    assert np.isfinite(model.final_loss)
    # training lowers the loss from that of the zero model, which scores every
    # input 1/2 and so has loss ln 2
    assert model.final_loss < math.log(2)


def test_hyper_validation():
    with pytest.raises(ValidationError):
        TrainHyper(feature_dim=300)  # not a power of two
    with pytest.raises(ValidationError):
        TrainHyper(epochs=0)


def test_all_zero_weights_scores_half():
    model = BaselineModel(feature_dim=16, weights=np.zeros(16), bias=0.0, seed=0,
                          epochs=0, learning_rate=0.1, l2=0.0, final_loss=0.0)
    scores = score_batch(model, model.featurize([ni("anything at all")]))
    assert scores[0] == 0.5


def test_score_batch_requires_nonempty_and_preserves_order():
    model = train_baseline(separable_set(4), TrainHyper(epochs=2), seed=3)
    with pytest.raises(ValidationError):
        score_batch(model, model.featurize([]))
    inputs = [ni("carcinoma"), ni("benign"), ni("carcinoma")]
    scores = score_batch(model, model.featurize(inputs))
    assert scores[0] == scores[2]
    assert scores[0] > scores[1]


def test_scoring_is_pure_and_thread_safe():
    model = train_baseline(separable_set(6), TrainHyper(epochs=2), seed=4)
    inputs = [ni(f"carcinoma doc{i}") for i in range(20)]
    serial = score_batch(model, model.featurize(inputs))
    before = model.weights.copy()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: score_batch(model, model.featurize(inputs)),
                                range(8)))
    assert all(r == serial for r in results)
    assert np.array_equal(model.weights, before)


@given(logits=st.lists(st.floats(allow_nan=False), min_size=1, max_size=300))
@example(logits=[35.0, -35.0, 700.0, -700.0, 0.0, -0.0, 35.000000000000004, -34.99999999999999,
                 float("inf"), float("-inf"), 5e-324, 1e-300])
@settings(max_examples=300, derandomize=True, deadline=None)
def test_batch_probabilities_equal_sigmoid_per_value_bit_for_bit(logits):
    n = len(logits)
    model = BaselineModel(feature_dim=n, weights=np.array(logits), bias=0.0, seed=0,
                          epochs=1, learning_rate=0.1, l2=0.0, final_loss=0.0)
    # row r holds feature r once, so its logit is 0.0 + logits[r]
    rows = FeatureRows(np.arange(n + 1), np.arange(n, dtype=np.uint32),
                       np.ones(n, dtype=np.uint32))
    expected = [float(baseline._sigmoid(z)) for z in rows.logits(model.weights, model.bias)]
    got = score_batch(model, rows)
    # probabilities are positive and never NaN, so == compares their bits
    assert got == expected
    assert all(type(p) is float for p in got)


# --- bit-exactness against the per-example dict code ------------------------

EXACT_VOCAB = ["carcinoma", "invasive", "benign", "tissue", "margin", "grade", "node", "2cm"]


def exact_texts(seed, n):
    rng = np.random.default_rng(seed)
    return [" ".join(rng.choice(EXACT_VOCAB, size=int(rng.integers(1, 30)))) for _ in range(n)]


def test_hashing_matches_reference():
    texts = exact_texts(11, 50)
    for dim in (16, 1 << 18):
        rows = FeatureRows.hash_texts(texts, dim)
        for r, text in enumerate(texts):
            assert row_items(rows, r) == list(reference_hash(text.split(), dim).items())


def test_score_batch_equals_dict_sum_scorer():
    rng = np.random.default_rng(12)
    for dim in (16, 1 << 10):
        model = BaselineModel(feature_dim=dim, weights=rng.normal(scale=0.7, size=dim),
                              bias=-0.37, seed=0, epochs=0, learning_rate=0.1, l2=0.0,
                              final_loss=0.0)
        texts = exact_texts(13, 40) + [""]
        scores = score_batch(model, model.featurize([ni(t) for t in texts]))
        assert scores == [
            reference_score(model.weights, model.bias, t) for t in texts]
        # an empty input has no features and scores sigmoid(bias)
        assert scores[-1] == 1.0 / (1.0 + np.exp(0.37))


def test_train_equals_per_example_dict_sgd():
    # feature_dim 16 folds many unigrams and bigrams onto one index; the
    # hashing merges them, so every row still has unique indices
    texts = exact_texts(14, 60) + [""]
    labels = [int(("carcinoma" in t) or ("invasive" in t)) for t in texts]
    collided = FeatureRows.hash_texts(texts, 16)
    assert (collided.values > 1.0).any()
    uni = {zlib.crc32(b"u\x00" + w.encode()) & 15 for w in EXACT_VOCAB}
    assert any(i in uni for t in texts
               for a, b in zip(t.split(), t.split()[1:])
               for i in [zlib.crc32(b"b\x00" + a.encode() + b"\x1f" + b.encode()) & 15])
    hyper = TrainHyper(epochs=4, learning_rate=0.3, feature_dim=16, l2=1e-3)
    model = train_baseline(list(zip(map(ni, texts), labels)), hyper, seed=21)
    weights, bias, history = reference_train(texts, labels, 16, 4, 0.3, 1e-3, 21)
    assert np.array_equal(model.weights, weights)
    assert model.bias == bias
    assert model.final_loss == history[-1]


def test_train_equals_per_example_dict_sgd_at_the_step_edges(monkeypatch):
    # a large learning rate drives logits past the clamp at +-35; repeated
    # tokens give counts above 1, an empty text a row without features, and
    # the random words rows of several hundred features, whose sums any
    # other order of addition would change in the last bits
    rng = np.random.default_rng(5)
    words = [" ".join(f"w{i}" for i in rng.integers(0, 5000, size=n)) for n in (400, 250, 600)]
    texts = ["carcinoma " * 300, "", "benign tissue " * 40, *words,
             "invasive carcinoma grade 3", "benign margin"]
    labels = [1, 0, 0, 1, 0, 1, 1, 0]
    rows = FeatureRows.hash_texts(texts, 1024)
    assert (rows.values > 1).any() and np.diff(rows.indptr).max() >= 300
    logits = []
    clamped_sigmoid = baseline._sigmoid

    def sigmoid(z):
        logits.append(z)
        return clamped_sigmoid(z)

    monkeypatch.setattr(baseline, "_sigmoid", sigmoid)
    hyper = TrainHyper(epochs=3, learning_rate=1.0, feature_dim=1024, l2=1e-3)
    model = train_baseline(list(zip(map(ni, texts), labels)), hyper, seed=4)
    assert max(logits) > 35.0 and min(logits) < -35.0
    weights, bias, history = reference_train(texts, labels, 1024, 3, 1.0, 1e-3, 4)
    assert np.array_equal(model.weights, weights)
    assert model.bias == bias
    assert model.final_loss == history[-1]


# --- gradient check ----------------------------------------------------------

def test_gradient_matches_central_finite_differences():
    # steps in sequence from random weights, on rows typed as the trainer types
    # them: each moves its example's coordinates and the bias by lr times the
    # gradient of the example's objective, and nothing else
    rng = np.random.default_rng(7)
    dim = 1 << 8
    texts = [" ".join(rng.choice(["alpha", "beta", "gamma", "delta", "eps"],
                                 size=rng.integers(3, 8)))
             for _ in range(10)]
    rows = FeatureRows.hash_texts(texts, dim)
    labels = [int(rng.integers(0, 2)) for _ in range(10)]
    weights = rng.normal(scale=0.5, size=dim)
    bias = 0.3
    lr, l2, h = 0.2, 1e-3, 1e-6

    for (idx, val), y in zip(rows.row_slices(), labels):
        idx, val = idx.astype(np.int64), val.astype(np.float64)
        feats = dict(zip(idx.tolist(), val.tolist()))
        before = weights.copy()
        new_bias = sgd_step(weights, bias, idx, val, y, lr, l2)
        for i in feats:
            w_plus, w_minus = before.copy(), before.copy()
            w_plus[i] += h
            w_minus[i] -= h
            fd = (reference_example_objective(w_plus, bias, feats, y, l2)
                  - reference_example_objective(w_minus, bias, feats, y, l2)) / (2 * h)
            step = (before[i] - weights[i]) / lr
            assert abs(step - fd) / max(abs(fd), abs(step), 1e-8) < 1e-5
        fd_b = (reference_example_objective(before, bias + h, feats, y, l2)
                - reference_example_objective(before, bias - h, feats, y, l2)) / (2 * h)
        step_b = (bias - new_bias) / lr
        assert abs(step_b - fd_b) / max(abs(fd_b), abs(step_b), 1e-8) < 1e-5
        bias = new_bias
        # the coordinates the example does not hold are unchanged by the step
        others = np.ones(dim, dtype=bool)
        others[idx] = False
        assert np.array_equal(weights[others], before[others])


# --- persistence -------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    model = train_baseline(separable_set(5), TrainHyper(epochs=3), seed=5)
    path = tmp_path / "model.bin"
    save_baseline(model, path)
    loaded = load_baseline(path)
    save_baseline(loaded, tmp_path / "again.bin")
    # every field the file holds, compared as the bytes it holds them in
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.seed == 5 and loaded.epochs == 3


TRAIN_AND_SAVE = """
import sys
import numpy as np
from reportable_triage.backend.baseline import TrainHyper, save_baseline, train_baseline
from reportable_triage.preprocess import NormalizedInput
rng = np.random.default_rng(0)
vocab = [f"w{i}" for i in range(2000)]
train = [(NormalizedInput(" ".join(rng.choice(vocab, size=60)), 60, False, ("diagnosis",)),
          i % 2) for i in range(80)]
save_baseline(train_baseline(train, TrainHyper(epochs=2, l2=1e-3), seed=3), sys.argv[1])
"""


def test_model_file_bytes_do_not_depend_on_blas_threads(tmp_path):
    # ||w||^2 over 2^18 weights is long enough for OpenBLAS to split a dot
    # product across threads, which moved final_loss by an ulp
    files = []
    for threads in ("1", "2"):
        path = tmp_path / f"model_{threads}.bin"
        result = subprocess.run(
            [sys.executable, "-c", TRAIN_AND_SAVE, str(path)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                 "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(ValidationError) as exc:
        load_baseline(path)
    assert str(exc.value) == f"{path}: not a baseline model file"


def test_load_rejects_version_mismatch(tmp_path):
    model = train_baseline(separable_set(4), TrainHyper(epochs=1, feature_dim=16), seed=6)
    path = tmp_path / "model.bin"
    save_baseline(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")  # bump format_version
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError) as exc:
        load_baseline(path)
    assert str(exc.value) == f"{path}: unsupported format version 99 (expected 1)"


def test_load_rejects_truncated_file(tmp_path):
    model = train_baseline(separable_set(4), TrainHyper(epochs=1, feature_dim=16), seed=6)
    path = tmp_path / "model.bin"
    save_baseline(model, path)
    size = len(path.read_bytes())
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ValidationError) as exc:
        load_baseline(path)
    assert str(exc.value) == f"{path}: expected {size} bytes, found {size - 9}"


def test_load_rejects_feature_dim_not_power_of_two(tmp_path):
    model = train_baseline(separable_set(4), TrainHyper(epochs=1, feature_dim=4), seed=6)
    path = tmp_path / "model.bin"
    save_baseline(model, path)
    raw = bytearray(path.read_bytes()[:-8])  # three weights for a dim of 3
    raw[8:16] = (3).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError) as exc:
        load_baseline(path)
    assert str(exc.value).startswith(f"{path}: feature_dim must be a power of two in [2, ")
    assert str(exc.value).endswith("], got 3")


def test_baseline_model_is_a_backend():
    model = train_baseline(separable_set(4), TrainHyper(epochs=2), seed=8)
    inputs = [ni("carcinoma"), ni("benign")]
    rows = model.featurize(inputs)
    assert model.send(rows) is None
    scores = model.score_features(rows)
    assert scores == score_batch(model, model.featurize(inputs))
    assert len(scores) == 2 and scores[0] > 0.5 > scores[1]
