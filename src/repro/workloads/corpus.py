"""Synthetic book corpus.

The paper's dataset: 348 plain-text books (~11.3 GB total), individually
compressed with bzip2 and gzip.  We cannot ship those books, so this module
generates a statistically similar corpus:

- Zipf-distributed words from a synthetic vocabulary (compression ratios
  land in the real-English range: ~0.33-0.42 for gzip level 6);
- newline-terminated lines of ~8-14 words (grep/gawk are line-based);
- a **needle token** injected at a known rate, so search results have exact
  expected values;
- deterministic from the seed: same spec, same corpus, bit for bit.

Set-up cost is kept low in two ways.  A book's codec output is computed
the first time ``BookFile.compressed`` (or ``compressed_size``/``ratio``)
is read, then cached: most runs stage plain text only and never pay for
bzip2/zlib.  Text is assembled from whole-book numpy draws (line lengths in
batches, one join, newlines written by offset) that consume exactly the
same RNG stream as a per-line loop, so the bytes never depend on the path.

``CorpusSpec.paper_scale()`` reproduces the full 348-file/11.3 GB dataset
(analytic mode recommended at that size); the default is a scaled-down
corpus that keeps functional simulations fast.
"""

from __future__ import annotations

import bz2
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["BookCorpus", "BookFile", "CorpusSpec", "partition_round_robin"]

_VOCAB_SIZE = 4096
_MAX_WORDS_PER_LINE = 14  # lines hold 8-14 words


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """Parameters of a generated corpus.

    ``mean_file_bytes`` is the plain-text (uncompressed) size; compressed
    sizes emerge from the actual compressors.
    """

    files: int = 12
    mean_file_bytes: int = 256 * 1024
    size_spread: float = 0.5  # lognormal-ish spread around the mean
    needle: str = "xylophone"
    needle_rate: float = 1.0 / 2000.0  # probability per word
    seed: int = 2018  # the paper's year
    compressions: tuple[str, ...] = ("gzip", "bzip2")  # alternated per file

    def __post_init__(self) -> None:
        if self.files < 1 or self.mean_file_bytes < 1024:
            raise ValueError("need at least one file of at least 1 KiB")
        if not 0 <= self.needle_rate < 1:
            raise ValueError("needle_rate must be in [0, 1)")
        bad = set(self.compressions) - {"gzip", "bzip2", "none"}
        if bad:
            raise ValueError(f"unknown compressions: {bad}")

    @classmethod
    def paper_scale(cls) -> "CorpusSpec":
        """The full dataset: 348 books, ~11.3 GB compressed.

        At gzip/bzip2 text ratios (~0.35) that is ~32 GB of plain text, i.e.
        ~93 MB per book.  Use analytic staging at this scale.
        """
        return cls(files=348, mean_file_bytes=93 * 1024 * 1024)


@dataclass(slots=True)
class BookFile:
    """One generated book, plain and (on first use) compressed.

    A functional book carries ``plain`` and compresses it lazily; an
    analytic one carries only sizes, with ``compressed`` always ``None``.
    """

    name: str
    plain_size: int
    compression: str
    plain: bytes | None = None
    needle_count: int = 0
    analytic_compressed_size: int = 0  # used only when ``plain is None``
    _compressed: bytes | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def compressed(self) -> bytes | None:
        if self._compressed is None and self.plain is not None:
            self._compressed = _compress(self.plain, self.compression)
        return self._compressed

    @property
    def compressed_size(self) -> int:
        if self.plain is None:
            return self.analytic_compressed_size
        return len(self.compressed)

    @property
    def compressed_name(self) -> str:
        ext = {"gzip": ".gz", "bzip2": ".bz2", "none": ""}[self.compression]
        return self.name + ext

    @property
    def ratio(self) -> float:
        return self.compressed_size / self.plain_size if self.plain_size else 0.0


def _make_vocabulary(rng: np.random.Generator) -> list[bytes]:
    """A synthetic vocabulary with English-like word lengths.

    One letter draw for the whole vocabulary, split by cumulative length:
    the same stream as one ``choice`` per word.
    """
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    lengths = rng.integers(2, 11, size=_VOCAB_SIZE)
    blob = rng.choice(letters, size=int(lengths.sum())).tobytes()
    ends = np.cumsum(lengths).tolist()
    return [blob[end - n : end] for end, n in zip(ends, lengths.tolist())]


class BookCorpus:
    """Generates and stages the corpus."""

    def __init__(self, spec: CorpusSpec | None = None):
        self.spec = spec or CorpusSpec()
        self._rng = np.random.default_rng(self.spec.seed)
        self._vocab = _make_vocabulary(self._rng)
        self._mean_word = float(np.mean([len(w) for w in self._vocab])) + 1.0
        # word table indexed by vocabulary rank; index _VOCAB_SIZE is the needle
        needle = self.spec.needle.encode()
        self._words = np.empty(_VOCAB_SIZE + 1, dtype=object)
        self._words[:] = self._vocab + [needle]
        # bytes each word takes in the text, its separator included
        self._word_bytes = np.array([len(w) for w in self._vocab] + [len(needle)]) + 1
        # Zipf-ish weights over the vocabulary (s ~ 1.1)
        ranks = np.arange(1, _VOCAB_SIZE + 1, dtype=float)
        weights = ranks ** -1.1
        self._weights = weights / weights.sum()

    # -- generation -----------------------------------------------------------
    def _file_sizes(self) -> np.ndarray:
        spec = self.spec
        mu = np.log(spec.mean_file_bytes)
        sizes = self._rng.lognormal(mean=mu, sigma=spec.size_spread, size=spec.files)
        return np.maximum(sizes, 1024).astype(np.int64)

    def _generate_text(self, nbytes: int) -> tuple[bytes, int]:
        """~``nbytes`` of Zipfian text; returns (text, needle_count).

        Lines of 8-14 words, each word followed by one separator: a space,
        or a newline after a line's last word.
        """
        spec = self.spec
        rng = self._rng
        n_words = max(16, int(nbytes / self._mean_word))
        idx = rng.choice(_VOCAB_SIZE, size=n_words, p=self._weights)
        needle_count = 0
        if spec.needle_rate > 0:
            hits = np.flatnonzero(rng.random(n_words) < spec.needle_rate)
            idx[hits] = _VOCAB_SIZE
            needle_count = len(hits)
        # Line lengths, drawn in batches of ceil(remaining / 14): the first
        # batch - 1 lines hold at most 14 * (batch - 1) < remaining words, so
        # a per-line loop would have drawn every length in the batch too.
        line_ends = []
        covered = 0
        while covered < n_words:
            lines = -(-(n_words - covered) // _MAX_WORDS_PER_LINE)
            batch = rng.integers(8, _MAX_WORDS_PER_LINE + 1, size=lines)
            line_ends.append(covered + np.cumsum(batch))
            covered = int(line_ends[-1][-1])
        last_words = np.minimum(np.concatenate(line_ends), n_words) - 1
        text = bytearray(b" ".join(self._words[idx].tolist()) + b"\n")
        np.frombuffer(text, dtype=np.uint8)[
            np.cumsum(self._word_bytes[idx])[last_words] - 1
        ] = ord("\n")
        return bytes(text[:nbytes]), needle_count

    def generate(self, functional: bool = True) -> list[BookFile]:
        """Produce the corpus.

        ``functional=False`` skips byte generation and compression, using
        the analytic ratio instead — instant at paper scale.
        """
        spec = self.spec
        books: list[BookFile] = []
        sizes = self._file_sizes()
        for i, size in enumerate(sizes):
            compression = spec.compressions[i % len(spec.compressions)]
            name = f"book{i:04d}.txt"
            if functional:
                plain, needles = self._generate_text(int(size))
                books.append(
                    BookFile(
                        name=name,
                        plain_size=len(plain),
                        compression=compression,
                        plain=plain,
                        needle_count=needles,
                    )
                )
            else:
                ratio = {"gzip": 0.36, "bzip2": 0.30, "none": 1.0}[compression]
                expected_needles = int(size / 7.0 * spec.needle_rate)
                books.append(
                    BookFile(
                        name=name,
                        plain_size=int(size),
                        compression=compression,
                        analytic_compressed_size=max(1, int(size * ratio)),
                        needle_count=expected_needles,
                    )
                )
        return books


def _compress(data: bytes, algorithm: str) -> bytes:
    if algorithm == "gzip":
        return zlib.compress(data, 6)
    if algorithm == "bzip2":
        return bz2.compress(data, 9)
    if algorithm == "none":
        return data
    raise ValueError(f"unknown algorithm {algorithm!r}")


def partition_round_robin(items: Sequence, buckets: int) -> list[list]:
    """Distribute items across ``buckets`` (file->device placement)."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    out: list[list] = [[] for _ in range(buckets)]
    for i, item in enumerate(items):
        out[i % buckets].append(item)
    return out
