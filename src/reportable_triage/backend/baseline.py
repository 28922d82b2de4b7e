"""Natively trainable baseline: logistic regression over hashed token features.

Features are unigrams and bigrams of the (already normalized) whitespace
tokens, hashed with CRC-32 into a fixed power-of-two dimension, so no
vocabulary file exists and hashing is identical across runs and platforms.
Training is plain per-example SGD on the L2-regularized logistic loss, with a
seeded shuffle each epoch, so equal data + hyperparameters + seed reproduce
the weight vector bit-for-bit.

Each scoring or training call hashes its batch once into CSR arrays
(`FeatureRows`). Within that call each distinct token is encoded and hashed
once: CRC-32 continues across concatenation, crc32(x + y) == crc32(y,
crc32(x)), so a bigram's hash is its right token's bytes run through the
CRC state its left token leaves. A row's logit is the bias plus a
left-to-right sum of weight * count over the row, in the order hashing
first saw each index, so it is the same float as a sum over the row's dict.
Sums stay sequential, one vectorized step per column position across the
batch: `np.sum`, `np.add.reduceat` and `np.dot` add in other orders and
would move the last bits.

Model files are little-endian binary: a fixed header (magic, format version,
feature_dim, seed, epochs, learning_rate, l2, bias, final_loss) followed by
the float64 weight vector. The loader rejects unknown versions.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import BaselineFormatError, ValidationError
from ..preprocess import NormalizedInput
from ..util import atomic_write_bytes
from .base import ClassifierScore

DEFAULT_FEATURE_DIM = 1 << 18
MAX_FEATURE_DIM = 1 << 24  # 128 MiB of float64 weights

_MAGIC = b"RTBL"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQqIddddd")  # magic, ver, dim, seed, epochs, lr, l2, bias, loss, reserved
_MAX_LOGIT = 35.0


_UNIGRAM_STATE = zlib.crc32(b"u\x00")
_BIGRAM_STATE = zlib.crc32(b"b\x00")

# token -> (UTF-8 bytes, unigram CRC, CRC state after b"b\x00" + token + b"\x1f")
TokenCodes = dict[str, tuple[bytes, int, int]]


def hash_token_features(tokens: Sequence[str], feature_dim: int,
                        codes: TokenCodes | None = None) -> Counter[int]:
    """Hashed unigram+bigram counts; stable across runs and platforms.

    Unigram t hashes as crc32(b"u\\x00" + t), bigram (a, b) as
    crc32(b"b\\x00" + a + b"\\x1f" + b). Indices appear in the order hashing
    first sees them: unigrams left to right, then bigrams. `codes` carries
    the token codes from one text to the next within a batch; tokens it
    lacks are added to it.
    """
    if codes is None:
        codes = {}
    for tok in set(tokens).difference(codes):
        raw = tok.encode("utf-8")
        codes[tok] = (raw, zlib.crc32(raw, _UNIGRAM_STATE),
                      zlib.crc32(b"\x1f", zlib.crc32(raw, _BIGRAM_STATE)))
    if not tokens:
        return Counter()
    raw, unigrams, states = zip(*map(codes.__getitem__, tokens))
    bigrams = map(zlib.crc32, raw[1:], states)
    return Counter(map((feature_dim - 1).__and__, chain(unigrams, bigrams)))


@dataclass(frozen=True)
class FeatureRows:
    """Hashed features of a batch in CSR form: row r is
    indices[indptr[r]:indptr[r + 1]] with the counts at the same places in
    values. Indices are unique within a row, because hashing merges them."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[int, int]]) -> "FeatureRows":
        """Pack integer-count rows, one at a time, into CSR arrays."""
        # typed buffers, not lists of Python ints: a batch of long reports
        # holds a million entries
        indptr, indices, counts = array("q", [0]), array("q"), array("q")
        for row in rows:
            indices.extend(row.keys())
            counts.extend(row.values())
            indptr.append(len(indices))
        return cls(np.frombuffer(indptr, dtype=np.int64),
                   np.frombuffer(indices, dtype=np.int64),
                   np.frombuffer(counts, dtype=np.int64).astype(np.float64))

    @classmethod
    def hash_texts(cls, texts: Iterable[str], feature_dim: int) -> "FeatureRows":
        # one memo per batch: it dies with the call, so it is never shared
        # between threads and never outgrows the batch's vocabulary
        codes: TokenCodes = {}
        return cls.from_rows(hash_token_features(t.split(), feature_dim, codes)
                             for t in texts)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row_slices(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(indices, values) views of each row."""
        bounds = self.indptr.tolist()
        return [(self.indices[a:b], self.values[a:b]) for a, b in zip(bounds, bounds[1:])]

    def logits(self, weights: np.ndarray, bias: float) -> list[float]:
        """bias + each row's weight * count products summed left to right.

        Rows are visited widest first, so the rows that have a j-th product
        are a prefix of that order, and column j is added to all of them in
        one step: each row's sum is still ((p0 + p1) + p2) + ...
        """
        products = weights[self.indices] * self.values
        lengths = np.diff(self.indptr)
        order = np.argsort(-lengths, kind="stable")
        starts = self.indptr[:-1][order]
        # active[j]: how many rows have more than j products
        active = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)),
                                 side="left").tolist()
        sums = np.zeros(len(lengths))
        if active:
            sums[:active[0]] = products[starts[:active[0]]]
        for j, k in enumerate(active[1:], start=1):
            sums[:k] += products[starts[:k] + j]
        unsorted = np.empty_like(sums)
        unsorted[order] = sums
        return (bias + unsorted).tolist()


def _sequential_sum(values: np.ndarray) -> float:
    return np.cumsum(values)[-1] if len(values) else 0.0


def _sigmoid(z: float) -> float:
    z = max(min(z, _MAX_LOGIT), -_MAX_LOGIT)
    return 1.0 / (1.0 + np.exp(-z))


def check_feature_dim(feature_dim: int) -> None:
    """The hash mask is feature_dim - 1, so the dimension must be a power of two.

    At most MAX_FEATURE_DIM, so that a dimension read from a config or a model
    file cannot ask for more weights than a machine holds.
    """
    if not 2 <= feature_dim <= MAX_FEATURE_DIM or feature_dim & (feature_dim - 1):
        raise ValidationError(
            f"feature_dim must be a power of two in [2, {MAX_FEATURE_DIM}], got {feature_dim}")


@dataclass(frozen=True)
class TrainHyper:
    epochs: int = 5
    learning_rate: float = 0.2
    feature_dim: int = DEFAULT_FEATURE_DIM
    l2: float = 1e-6

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.learning_rate <= 0 or self.l2 < 0:
            raise ValidationError("epochs and learning_rate must be positive, l2 >= 0")
        check_feature_dim(self.feature_dim)


@dataclass
class BaselineModel:
    feature_dim: int
    weights: np.ndarray
    bias: float
    seed: int
    epochs: int
    learning_rate: float
    l2: float
    final_loss: float
    loss_history: list[float] = field(default_factory=list, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BaselineModel):
            return NotImplemented
        return (
            self.feature_dim == other.feature_dim
            and np.array_equal(self.weights, other.weights)
            and self.bias == other.bias
            and self.seed == other.seed
            and self.epochs == other.epochs
            and self.learning_rate == other.learning_rate
            and self.l2 == other.l2
            and self.final_loss == other.final_loss
        )


def _as_rows(features: FeatureRows | Sequence[Mapping[int, int]]) -> FeatureRows:
    return features if isinstance(features, FeatureRows) else FeatureRows.from_rows(features)


def regularized_loss(
    weights: np.ndarray,
    bias: float,
    features: FeatureRows | Sequence[Mapping[int, int]],
    labels: Sequence[int],
    l2: float,
) -> float:
    """Mean logistic NLL plus (l2/2)*||w||^2 (bias unregularized).

    features is a FeatureRows batch or a sequence of hash_token_features rows.
    """
    rows = _as_rows(features)
    z = np.array(rows.logits(weights, bias))
    # softplus(z) - y*z, computed stably, summed in row order
    nll = np.logaddexp(0.0, z) - np.asarray(labels) * z
    # ||w||^2 without BLAS: np.dot splits the sum across BLAS threads, so its
    # last bits, and the model file's final_loss, would follow the thread count
    return (float(_sequential_sum(nll)) / len(rows)
            + 0.5 * l2 * float(np.sum(weights * weights)))


def regularized_gradient(
    weights: np.ndarray,
    bias: float,
    features: FeatureRows | Sequence[Mapping[int, int]],
    labels: Sequence[int],
    l2: float,
) -> tuple[np.ndarray, float]:
    rows = _as_rows(features)
    grad_w = l2 * weights.copy()
    grad_b = 0.0
    n = len(rows)
    for (idx, val), z, y in zip(rows.row_slices(), rows.logits(weights, bias), labels):
        err = _sigmoid(z) - y
        grad_w[idx] += err * val / n
        grad_b += err / n
    return grad_w, grad_b


def train_baseline(
    train: Sequence[tuple[NormalizedInput, int]],
    hyper: TrainHyper,
    seed: int,
) -> BaselineModel:
    """Fit the baseline with seeded per-example SGD; deterministic throughout."""
    if not train:
        raise ValidationError("empty training set")
    labels = {y for _, y in train}
    if not labels <= {0, 1}:
        raise ValidationError(f"labels must be 0/1, got {sorted(labels)}")
    if len(labels) < 2:
        raise ValidationError("degenerate training set: only one class present")

    rows = FeatureRows.hash_texts((inp.text for inp, _ in train), hyper.feature_dim)
    examples = rows.row_slices()
    ys = [y for _, y in train]

    rng = np.random.default_rng(seed)
    weights = np.zeros(hyper.feature_dim, dtype=np.float64)
    bias = 0.0
    lr = hyper.learning_rate
    history: list[float] = []
    for _ in range(hyper.epochs):
        for k in rng.permutation(len(examples)):
            idx, val = examples[k]
            w = weights[idx]
            err = _sigmoid(bias + _sequential_sum(w * val)) - ys[k]
            # l2 applied lazily to the active coordinates of this example;
            # the indices of a row are unique, so one scattered write is exact
            weights[idx] = w - lr * (err * val + hyper.l2 * w)
            bias -= lr * err
        history.append(regularized_loss(weights, bias, rows, ys, hyper.l2))

    return BaselineModel(
        feature_dim=hyper.feature_dim,
        weights=weights,
        bias=bias,
        seed=seed,
        epochs=hyper.epochs,
        learning_rate=lr,
        l2=hyper.l2,
        final_loss=history[-1],
        loss_history=history,
    )


def score_batch(model: BaselineModel, inputs: Sequence[NormalizedInput]) -> list[ClassifierScore]:
    if not inputs:
        raise ValidationError("score_batch requires a non-empty input batch")
    rows = FeatureRows.hash_texts((inp.text for inp in inputs), model.feature_dim)
    return [ClassifierScore(float(_sigmoid(z))) for z in rows.logits(model.weights, model.bias)]


def save_baseline(model: BaselineModel, path: str | Path) -> None:
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        model.feature_dim,
        model.seed,
        model.epochs,
        model.learning_rate,
        model.l2,
        model.bias,
        model.final_loss,
        0.0,
    )
    body = np.ascontiguousarray(model.weights, dtype="<f8").tobytes()
    atomic_write_bytes(path, header + body)


def load_baseline(path: str | Path) -> BaselineModel:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise BaselineFormatError(f"{path}: truncated model file")
    magic, version, dim, seed, epochs, lr, l2, bias, final_loss, _ = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise BaselineFormatError(f"{path}: not a baseline model file")
    if version != _FORMAT_VERSION:
        raise BaselineFormatError(
            f"{path}: unsupported format version {version} (expected {_FORMAT_VERSION})"
        )
    try:
        check_feature_dim(dim)
    except ValidationError as exc:
        raise BaselineFormatError(f"{path}: {exc}") from None
    expected = _HEADER.size + 8 * dim
    if len(raw) != expected:
        raise BaselineFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    weights = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(weights)) or not np.isfinite(bias):
        raise BaselineFormatError(f"{path}: non-finite weights")
    return BaselineModel(
        feature_dim=dim,
        weights=weights,
        bias=bias,
        seed=seed,
        epochs=epochs,
        learning_rate=lr,
        l2=l2,
        final_loss=final_loss,
    )


@dataclass
class BaselineBackend:
    """ClassifierBackend adapter around an immutable trained BaselineModel."""

    model: BaselineModel
    backend_id: str

    def score_batch(self, inputs: Sequence[NormalizedInput]) -> list[ClassifierScore]:
        return score_batch(self.model, inputs)
