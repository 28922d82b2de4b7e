"""Natively trainable baseline: logistic regression over hashed token features.

Features are unigrams and bigrams of the (already normalized) whitespace
tokens, hashed with CRC-32 into a fixed power-of-two dimension, so no
vocabulary file exists and hashing is identical across runs and platforms.
Training is per-example SGD (`sgd_step`) with a seeded shuffle each epoch, so
equal data + hyperparameters + seed reproduce the weight vector bit-for-bit.
A step descends its example's logistic loss plus L2 on that example's active
coordinates only (lazy L2). The model's final_loss is regularized_loss, with
L2 over every coordinate, evaluated once after the last epoch; the steps do
not descend it exactly. A step's scalar arithmetic runs on Python floats,
which give the same IEEE double bits as numpy scalars for the same operations
in the same order; its sigmoid keeps np.exp, because math.exp differs in the
last bit.

Each scoring or training call hashes its batch once into CSR arrays
(`FeatureRows`), with numpy array operations rather than per-feature Python:

- Ids. The only per-text Python step splits the text. A block's tokens
  are mapped to ids in one pass through a vocabulary that lives for one
  call, a defaultdict that gives a token new to it the next id, so ids
  follow first occurrence; the block's token strings die with it. Each
  distinct token is encoded and CRC'd once: its unigram CRC, the CRC state
  after b"b\\x00" + token + b"\\x1f", and the CRC of its bytes alone.
- Shift tables. CRC-32 is affine in its starting state: crc32(d, s) ==
  crc32(d) ^ A^len(d)(s), where A is the linear map one zero byte applies
  to the register (the identity behind zlib's crc32_combine). So a bigram
  hashes as crc32(right) ^ A^len(right)(state of left), for all bigrams of
  a batch at once. A^n is a (4, 256) uint32 table gathered one byte of the
  state at a time. The tables of A^n for n = 0..63 are built at import,
  each A applied to the one before; a call composes the table of each
  longer token length it meets from the 32 tables of A^(2^j). Each
  vocabulary token keeps its length's table offset, so the bigrams of a
  block are four gathers from one flat array.
- First-seen dedupe. A row's elements are its unigrams left to right, then
  its bigrams. One sort of (row, index, position) keys groups equal
  (row, index) pairs, first occurrence first; that gives each pair's count,
  and the first occurrences are kept in element order.
- Blocks. A batch is hashed BLOCK_TOKENS tokens at a time (a longer text
  is a block alone), so its transient arrays, and with them peak RSS, stay
  bounded however large the batch.

A row's logit is the bias plus a left-to-right sum of weight * count over
the row, in the order hashing first saw each index, so it is the same float
as a sum over the row's dict. Sums stay sequential: a batch with fewer rows
than its widest row sums each row with one `np.cumsum`, and any other batch
takes one vectorized step per column position across its rows. Both add in
the same order; `np.sum`, `np.add.reduceat` and `np.dot` add in other
orders and would move the last bits.

Model files are little-endian binary: a fixed header (magic, format version,
feature_dim, seed, epochs, learning_rate, l2, bias, final_loss) followed by
the float64 weight vector. The loader rejects unknown versions.
"""

from __future__ import annotations

import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import ValidationError
from ..preprocess import NormalizedInput
from ..util import atomic_write_bytes

DEFAULT_FEATURE_DIM = 1 << 18
MAX_FEATURE_DIM = 1 << 24  # 128 MiB of float64 weights

_MAGIC = b"RTBL"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQqIddddd")  # magic, ver, dim, seed, epochs, lr, l2, bias, loss, reserved
_MAX_LOGIT = 35.0


_UNIGRAM_STATE = zlib.crc32(b"u\x00")
_BIGRAM_STATE = zlib.crc32(b"b\x00")

# Tokens per block of a batch hashed at once; a longer text is a block alone.
# Bounds the transient arrays, and with them peak RSS, on large batches: a
# 256-text long_raw batch holds 131,072 tokens.
BLOCK_TOKENS = 1 << 14


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """A linear map of the CRC register, given as its (4, 256) table of byte
    images, applied to each state."""
    return (table[0, states & 0xFF] ^ table[1, (states >> 8) & 0xFF]
            ^ table[2, (states >> 16) & 0xFF] ^ table[3, states >> 24])


def _shift_tables() -> np.ndarray:
    """Tables of A^(2^j), j = 0..31: A is the map one zero byte applies to the
    CRC register, so crc32(d, s) == crc32(d) ^ A^len(d)(s) for any state s.

    Each table squares the one before: no run of 2^j zero bytes is made.
    """
    zero = zlib.crc32(b"\0")
    table = np.array([[zlib.crc32(b"\0", byte << 8 * k) ^ zero for byte in range(256)]
                      for k in range(4)], dtype=np.uint32)
    tables = [table]
    for _ in range(31):
        table = _apply(table, table)
        tables.append(table)
    return np.stack(tables)


_SHIFT_TABLES = _shift_tables()


def _length_tables() -> np.ndarray:
    """Tables of A^n, n = 0..63, each A applied to the one before; A^0 maps
    each byte to itself in its place."""
    table = np.array([[byte << 8 * k for byte in range(256)] for k in range(4)],
                     dtype=np.uint32)
    tables = [table]
    for _ in range(63):
        table = _apply(_SHIFT_TABLES[0], table)
        tables.append(table)
    return np.stack(tables)


# 256 KB: a table for every byte count of a token up to 63
_LENGTH_TABLES = _length_tables()


def _tables_for(nbytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A flat array of (4, 256) tables and, for each byte count n, the offset
    of A^n's table in it, as int64.

    Counts of 64 or more get tables composed for this call from the
    power-of-two tables of their higher set bits, after the constant ones.
    """
    n_fixed = len(_LENGTH_TABLES)
    offsets = nbytes.astype(np.int64)
    is_long = offsets >= n_fixed
    if not is_long.any():
        return _LENGTH_TABLES.reshape(-1), offsets << 10
    counts, which = np.unique(offsets[is_long], return_inverse=True)
    composed = []
    for n in counts.tolist():
        table = _LENGTH_TABLES[n % n_fixed]
        for j in range(n_fixed.bit_length() - 1, n.bit_length()):
            if n >> j & 1:
                table = _apply(_SHIFT_TABLES[j], table)
        composed.append(table)
    offsets[is_long] = n_fixed + which
    return np.concatenate((_LENGTH_TABLES, np.stack(composed))).reshape(-1), offsets << 10


def _shift(tables: np.ndarray, offsets: np.ndarray, states: np.ndarray) -> np.ndarray:
    """_apply for each state with its own table, at its offset in the flat tables."""
    return (tables[offsets + (states & 0xFF)] ^ tables[offsets + 256 + ((states >> 8) & 0xFF)]
            ^ tables[offsets + 512 + ((states >> 16) & 0xFF)]
            ^ tables[offsets + 768 + (states >> 24)])


def crc_shift(states: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """A^n(s) for each uint32 state s and byte count n, one table per count:
    crc32(d, s) == crc32(d) ^ crc_shift(s, len(d))."""
    return _shift(*_tables_for(nbytes), states)


def hash_token_features(tokens: Sequence[str], codes: defaultdict[str, int]) -> np.ndarray:
    """The vocabulary ids of a block's tokens, in order, as int64.

    `codes`, the batch's vocabulary, gives a token new to it the next id, so
    ids follow the order tokens first occur. `FeatureRows.hash_texts` calls
    this once per block, with the block's texts' tokens one after another;
    it is the step the benchmark's tracer times and counts as `baseline.hash`.
    """
    return np.fromiter(map(codes.__getitem__, tokens), np.int64, len(tokens))


def _token_id_blocks(texts: Iterable[str],
                     codes: defaultdict[str, int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block of consecutive texts, its token ids and its texts' token
    counts, as int64.

    A block holds at most BLOCK_TOKENS tokens, unless one text is longer and
    is a block alone, and at most BLOCK_TOKENS texts (empty ones), so that a
    key's row, index and position bits always fit in 64. Only one block's
    token strings are alive at a time.
    """
    tokens: list[str] = []
    lengths: list[int] = []
    for text in texts:
        row = text.split()
        if lengths and (len(tokens) + len(row) > BLOCK_TOKENS or len(lengths) == BLOCK_TOKENS):
            yield hash_token_features(tokens, codes), np.array(lengths, dtype=np.int64)
            tokens, lengths = [], []
        tokens += row
        lengths.append(len(row))
    if lengths:
        yield hash_token_features(tokens, codes), np.array(lengths, dtype=np.int64)


@dataclass(frozen=True)
class _TokenCodes:
    """Per vocabulary id: unigram CRC, CRC state after b"b\\x00" + token +
    b"\\x1f", CRC of the token's bytes alone, and the offset in `tables` of
    the shift table for its number of bytes."""

    unigram: np.ndarray
    left: np.ndarray
    right: np.ndarray
    offset: np.ndarray
    tables: np.ndarray

    @classmethod
    def of(cls, vocabulary: Iterable[str]) -> "_TokenCodes":
        raw = [tok.encode("utf-8") for tok in vocabulary]

        def column(values, dtype=np.uint32):
            return np.fromiter(values, dtype, len(raw))

        tables, offset = _tables_for(column(map(len, raw), np.int64))
        return cls(column(zlib.crc32(r, _UNIGRAM_STATE) for r in raw),
                   column(zlib.crc32(b"\x1f", zlib.crc32(r, _BIGRAM_STATE)) for r in raw),
                   column(map(zlib.crc32, raw)), offset, tables)

    def hash_block(self, ids: np.ndarray, lengths: np.ndarray,
                   feature_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indices, counts, row lengths) of consecutive texts' token ids, the
        first two as uint32.

        A row's elements are its unigrams left to right, then its bigrams;
        a bigram hashes as crc32(right) ^ A^len(right)(left state). Sorting
        (row, index, position) keys once groups equal (row, index) pairs
        with their first position first, which gives each pair's count and
        the order the first occurrences are kept in.
        """
        n_rows = len(lengths)
        n_elements = np.maximum(2 * lengths - 1, 0)
        eptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(n_elements, out=eptr[1:])
        tptr = np.cumsum(lengths)
        # where each token's unigram goes, and its bigram if it has a right neighbour
        unigram_at = np.arange(len(ids)) + np.repeat(eptr[:-1] - tptr + lengths, lengths)
        bigram_at = unigram_at + np.repeat(lengths, lengths)
        has_next = np.ones(len(ids), dtype=bool)
        has_next[tptr[lengths > 0] - 1] = False
        left = np.flatnonzero(has_next)
        left_ids, right_ids = ids[left], ids[left + 1]

        hashes = np.empty(eptr[-1], dtype=np.uint32)
        hashes[unigram_at] = self.unigram[ids]
        hashes[bigram_at[left]] = (_shift(self.tables, self.offset[right_ids],
                                          self.left[left_ids]) ^ self.right[right_ids])
        hashes &= np.uint32(feature_dim - 1)

        # (row, index, position) keys, built in place to keep one array of them
        n_bits = len(hashes).bit_length()
        pos_bits, pos_mask = np.uint64(n_bits), np.uint64((1 << n_bits) - 1)
        keys = np.repeat(np.arange(n_rows, dtype=np.uint64) * np.uint64(feature_dim),
                         n_elements)
        keys += hashes
        keys <<= pos_bits
        keys |= np.arange(len(hashes), dtype=np.uint64)
        keys.sort()
        pair = keys >> pos_bits
        is_start = np.ones(len(pair), dtype=bool)
        is_start[1:] = pair[1:] != pair[:-1]
        starts = np.flatnonzero(is_start)
        counts = np.zeros(len(hashes), dtype=np.uint32)
        counts[keys[starts] & pos_mask] = np.diff(starts, append=len(keys))
        first = np.flatnonzero(counts)
        return hashes[first], counts[first], np.diff(np.searchsorted(first, eptr))


@dataclass(frozen=True)
class FeatureRows:
    """Hashed features of a batch in CSR form: row r is
    indices[indptr[r]:indptr[r + 1]] with the counts at the same places in
    values. Indices are unique within a row, because hashing merges them.

    Hashing gives uint32 indices and counts (feature_dim is at most 2^24),
    8 bytes a feature; logits are the same floats as from int64 and
    float64, because uint32 converts to float64 exactly."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def hash_texts(cls, texts: Iterable[str], feature_dim: int) -> "FeatureRows":
        """Hashed unigram+bigram counts of each text; stable across runs and platforms.

        Unigram t hashes as crc32(b"u\\x00" + t), bigram (a, b) as
        crc32(b"b\\x00" + a + b"\\x1f" + b), masked to feature_dim - 1. A row
        holds each index once, in the order hashing first sees it: unigrams
        left to right, then bigrams.
        """
        # one vocabulary per batch: it dies with the call, so it is never
        # shared and never outgrows the batch
        codes: defaultdict[str, int] = defaultdict(count().__next__)
        blocks = list(_token_id_blocks(texts, codes))
        token_codes = _TokenCodes.of(codes)

        # blocks give uint32 pieces, joined as they are: 8 bytes a feature
        empty = np.zeros(0, dtype=np.uint32)
        pieces = [(empty, empty, np.zeros(1, dtype=np.int64))]
        pieces += [token_codes.hash_block(ids, block_lengths, feature_dim)
                   for ids, block_lengths in blocks]
        indices, values, row_lengths = zip(*pieces)
        del pieces, blocks
        return cls(np.cumsum(np.concatenate(row_lengths)), np.concatenate(indices),
                   np.concatenate(values))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row_slices(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(indices, values) views of each row."""
        bounds = self.indptr.tolist()
        return [(self.indices[a:b], self.values[a:b]) for a, b in zip(bounds, bounds[1:])]

    def logits(self, weights: np.ndarray, bias: float) -> list[float]:
        """bias + each row's weight * count products summed left to right.

        A batch with fewer rows than its widest row sums each row with one
        cumsum. Otherwise rows are visited widest first, so the rows that
        have a j-th product are a prefix of that order, and column j is added
        to all of them in one step: each row's sum is still
        ((p0 + p1) + p2) + ...
        """
        products = weights[self.indices] * self.values
        lengths = np.diff(self.indptr)
        if len(lengths) < lengths.max(initial=0):
            bounds = self.indptr.tolist()
            sums = np.array([_sequential_sum(products[a:b]) for a, b in zip(bounds, bounds[1:])])
            return (bias + sums).tolist()
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
    return float(values.cumsum()[-1]) if len(values) else 0.0


def _sigmoid(z: float) -> float:
    z = max(min(z, _MAX_LOGIT), -_MAX_LOGIT)
    return 1.0 / (1.0 + float(np.exp(-z)))


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


@dataclass(eq=False)
class BaselineModel:
    feature_dim: int
    weights: np.ndarray
    bias: float
    seed: int
    epochs: int
    learning_rate: float
    l2: float
    final_loss: float

    # The ClassifierBackend contract: a loaded model is a triage member's backend.

    def featurize(self, inputs: Sequence[NormalizedInput]) -> FeatureRows:
        """The hashed rows of the inputs' texts; they depend on feature_dim only."""
        return FeatureRows.hash_texts((inp.text for inp in inputs), self.feature_dim)

    def send(self, rows: FeatureRows) -> None:
        pass  # scored in-process, by score_features

    def score_features(self, rows: FeatureRows) -> list[float]:
        return score_batch(self, rows)


def regularized_loss(
    weights: np.ndarray,
    bias: float,
    rows: FeatureRows,
    labels: Sequence[int],
    l2: float,
) -> float:
    """Mean logistic NLL plus (l2/2)*||w||^2 (bias unregularized)."""
    z = np.array(rows.logits(weights, bias))
    # softplus(z) - y*z, computed stably, summed in row order
    nll = np.logaddexp(0.0, z) - np.asarray(labels) * z
    # ||w||^2 without BLAS: np.dot splits the sum across BLAS threads, so its
    # last bits, and the model file's final_loss, would follow the thread count
    return (_sequential_sum(nll) / len(rows)
            + 0.5 * l2 * float(np.sum(weights * weights)))


def sgd_step(weights: np.ndarray, bias: float, idx: np.ndarray, val: np.ndarray,
             y: int, lr: float, l2: float) -> float:
    """One SGD step on an example (unique indices idx, counts val, label y):
    updates weights[idx] in place and returns the new bias. It descends
    softplus(z) - y*z + (l2/2)*||w[idx]||^2, z = bias + w[idx] . val summed
    left to right: L2 lazily, on the active coordinates only, none on the bias.
    """
    w = weights[idx]
    err = _sigmoid(bias + _sequential_sum(w * val)) - y
    # the indices of a row are unique, so one scattered write is exact
    weights[idx] = w - lr * (err * val + l2 * w)
    return bias - lr * err


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
    # SGD takes one small numpy step per example, and steps that mix uint32
    # with float64 take about half again as long
    rows = FeatureRows(rows.indptr, rows.indices.astype(np.int64),
                       rows.values.astype(np.float64))
    examples = rows.row_slices()
    ys = [y for _, y in train]

    rng = np.random.default_rng(seed)
    weights = np.zeros(hyper.feature_dim, dtype=np.float64)
    bias = 0.0
    lr = hyper.learning_rate
    for _ in range(hyper.epochs):
        for k in rng.permutation(len(examples)).tolist():
            idx, val = examples[k]
            bias = sgd_step(weights, bias, idx, val, ys[k], lr, hyper.l2)

    return BaselineModel(
        feature_dim=hyper.feature_dim,
        weights=weights,
        bias=bias,
        seed=seed,
        epochs=hyper.epochs,
        learning_rate=lr,
        l2=hyper.l2,
        final_loss=regularized_loss(weights, bias, rows, ys, hyper.l2),
    )


def score_batch(model: BaselineModel, rows: FeatureRows) -> list[float]:
    """One probability per row of rows model.featurize made."""
    if not len(rows):
        raise ValidationError("score_batch requires a non-empty input batch")
    z = np.array(rows.logits(model.weights, model.bias))
    # _sigmoid's clamp and formula, over the whole batch in one step
    return (1.0 / (1.0 + np.exp(-np.clip(z, -_MAX_LOGIT, _MAX_LOGIT)))).tolist()


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
        raise ValidationError(f"{path}: truncated model file")
    magic, version, dim, seed, epochs, lr, l2, bias, final_loss, _ = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValidationError(f"{path}: not a baseline model file")
    if version != _FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported format version {version} (expected {_FORMAT_VERSION})"
        )
    try:
        check_feature_dim(dim)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    expected = _HEADER.size + 8 * dim
    if len(raw) != expected:
        raise ValidationError(f"{path}: expected {expected} bytes, found {len(raw)}")
    weights = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(weights)) or not np.isfinite(bias):
        raise ValidationError(f"{path}: non-finite weights")
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
