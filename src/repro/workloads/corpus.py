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

Set-up cost is kept low in three ways.  A book's codec output is computed
the first time ``BookFile.compressed`` (or ``compressed_size``/``ratio``)
is read, then cached: most runs stage plain text only and never pay for
bzip2/zlib.  Text is assembled from whole-book numpy draws (line lengths in
batches, one join over words that carry their own space or newline) that
consume exactly the same RNG stream as a per-line loop, so the bytes never
depend on the path.
Words come from an inverse-CDF table built once per corpus
(:class:`_InverseCdf`), which returns exactly what
``rng.choice(p=weights)`` would, from the same draws, without rebuilding
and bisecting the CDF for every book.

``CorpusSpec(files=348, mean_file_bytes=93 MiB)`` reproduces the full
348-file/11.3 GB dataset (analytic mode recommended at that size); the
default is a scaled-down corpus that keeps functional simulations fast.
"""

from __future__ import annotations

import bz2
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.calibration import ANALYTIC_COMPRESSION_RATIO

__all__ = ["BookCorpus", "BookFile", "CorpusSpec", "partition_round_robin"]

_VOCAB_SIZE = 4096
_MAX_WORDS_PER_LINE = 14  # lines hold 8-14 words
_GUIDE_BUCKETS = 2**16  # a power of two, so k / 2**16 and u * 2**16 are exact


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


class _InverseCdf:
    """Draws indices with probabilities ``p`` exactly as
    ``Generator.choice(len(p), size=n, p=p)`` does, without its per-call
    set-up.

    ``choice`` normalises ``p.cumsum()``, draws ``rng.random(n)`` and
    returns ``cdf.searchsorted(u, side="right")``.  Here the CDF is built
    once, plus a guide table ``guide[k] = cdf.searchsorted(k / 2**16,
    side="right")``; each draw starts at its bucket's entry and steps
    forward while ``cdf[i] <= u``.  Because ``u >= k / 2**16`` in bucket
    ``k`` (both exact) and searchsorted is monotone, the walk starts at or
    below the answer and stops exactly on it (``cdf[-1] == 1.0 > u``
    bounds it).
    """

    __slots__ = ("_cdf", "_guide")

    def __init__(self, p: np.ndarray):
        cdf = np.asarray(p, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        # guide[k] = #{i: cdf[i] <= k / 2**16} = #{i: ceil(cdf[i] * 2**16) <= k}
        # (exact), so it rises to i + 1 at bucket ceil(cdf[i] * 2**16); a
        # repeat builds it at a tenth of searchsorted's cost
        steps = np.ceil(cdf * _GUIDE_BUCKETS).astype(np.intp)
        counts = np.arange(len(cdf) + 1, dtype=np.min_scalar_type(len(cdf)))
        self._guide = np.repeat(counts, np.diff(steps, prepend=0, append=_GUIDE_BUCKETS))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cdf = self._cdf
        u = rng.random(n)
        idx = self._guide[(u * _GUIDE_BUCKETS).astype(np.intp)].astype(np.intp)
        behind = np.flatnonzero(cdf[idx] <= u)
        while behind.size:
            idx[behind] += 1
            behind = behind[cdf[idx[behind]] <= u[behind]]
        return idx


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
        # word table indexed by vocabulary rank; index _VOCAB_SIZE is the
        # needle.  Each word carries its separator: a space in the first
        # half, a newline (a line's last word) in the second.
        words = self._vocab + [self.spec.needle.encode()]
        self._words = np.empty(2 * len(words), dtype=object)
        self._words[:] = [w + b" " for w in words] + [w + b"\n" for w in words]
        # Zipf-ish weights over the vocabulary (s ~ 1.1)
        ranks = np.arange(1, _VOCAB_SIZE + 1, dtype=float)
        weights = ranks ** -1.1
        self._weights = weights / weights.sum()
        self._word_sampler = _InverseCdf(self._weights)

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
        idx = self._word_sampler.draw(rng, n_words)
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
        idx[last_words] += _VOCAB_SIZE + 1
        return b"".join(self._words[idx].tolist())[:nbytes], needle_count

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
                ratio = ANALYTIC_COMPRESSION_RATIO.get(compression, 1.0)
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
