"""Black-box wake-detector abstraction.

``WakeOracle`` is the minimal interface the search loop needs: one boolean
trial per query. ``SimulatedDetector`` is a configurable stand-in with hidden
per-unit weights for desk-scale experiments; ``ExternalOracle`` adapts any
line-oriented subprocess (e.g. driving real hardware) to the same interface.
"""
from __future__ import annotations

import hashlib
import math
import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .embedding import embedding_table, word_units
from .errors import OracleFailure, OracleTimeout, ParseFailure, ProtocolError
from .phonemes import ALPHABET, LetterWord
from .pinyin import parse_pinyin


class WakeOracle(Protocol):
    def query(self, word: str) -> bool:
        """One activation trial for the given word text."""


@dataclass(frozen=True)
class WakeRateReport:
    word: str
    trials: int
    positives: int

    @property
    def rate(self) -> float:
        return self.positives / self.trials


def estimate_wake_rate(oracle: WakeOracle, word: str, k: int = 10) -> WakeRateReport:
    """Wake rate over k independent trials."""
    if k < 1:
        raise ValueError("k must be at least 1")
    positives = sum(1 for _ in range(k) if oracle.query(word))
    return WakeRateReport(word, k, positives)


def _parse_units(word: str, language: str) -> list[tuple[str, str]]:
    try:
        if language == "zh":
            return word_units(parse_pinyin(word))
        if set(word) - set(ALPHABET):
            raise ValueError(f"symbols outside the alphabet in {word!r}")
        return word_units(LetterWord(word)) if word.strip() else []
    except Exception as exc:
        raise ParseFailure(str(exc)) from exc


def _trial_rng(seed: int, word: str, trial: int) -> np.random.Generator:
    digest = hashlib.blake2b(
        f"{seed}:{trial}:{word}".encode("utf-8"), digest_size=8
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


@dataclass
class SimulatedDetector:
    """Positional-template detector with hidden decisive weights.

    The match score is the weight-averaged per-unit similarity against the
    target's unit sequence (missing positions count as zero similarity), and
    a trial wakes with probability logistic((score - threshold) / temperature).
    Trial outcomes depend only on (seed, word, per-word trial index), so
    results are reproducible under any query interleaving.
    """

    target: str
    language: str = "en"
    unit_weights: tuple[float, ...] | None = None
    threshold: float = 0.7
    temperature: float = 0.05
    substitution_floor: float = 0.7
    seed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _trial_counts: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._target_units = _parse_units(self.target, self.language)
        if not self._target_units:
            raise ParseFailure(f"target {self.target!r} has no units")
        if self.unit_weights is None:
            n = len(self._target_units)
            self.unit_weights = tuple(1.0 / n for _ in range(n))
        if len(self.unit_weights) != len(self._target_units):
            raise ValueError("unit_weights needs one weight per target unit")
        if any(w < 0 for w in self.unit_weights):
            raise ValueError("unit_weights must be nonnegative")
        if abs(sum(self.unit_weights) - 1.0) > 1e-9:
            raise ValueError("unit_weights must sum to 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    def score(self, word: str) -> float:
        units = _parse_units(word, self.language)
        emb = embedding_table()
        total = 0.0
        for i, (weight, (kind, target_sym)) in enumerate(
                zip(self.unit_weights, self._target_units)):
            if i >= len(units):
                continue
            u_kind, u_sym = units[i]
            if u_kind != kind:
                continue
            if u_sym == target_sym:
                dist = 0.0
            else:
                # template behavior: any substitution costs at least the floor
                dist = max(emb.unit_feature_distance(kind, u_sym, target_sym),
                           self.substitution_floor)
            total += weight * (1.0 - dist)
        return total

    def wake_probability(self, word: str) -> float:
        z = (self.score(word) - self.threshold) / self.temperature
        return 1.0 / (1.0 + math.exp(-z))

    def query(self, word: str) -> bool:
        prob = self.wake_probability(word)
        with self._lock:
            trial = self._trial_counts.get(word, 0)
            self._trial_counts[word] = trial + 1
        return bool(_trial_rng(self.seed, word, trial).random() < prob)


class ExternalOracle:
    """Adapter for an external detector process.

    Wire protocol: one candidate word per line on stdin; one reply line on
    stdout, ``1`` for wake and ``0`` for no wake. Queries are serialized per
    handle. A timeout stops the process, so a late reply cannot answer the
    next query.
    """

    def __init__(self, command: str, timeout: float = 30.0):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.command = command
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                shlex.split(command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1,
            )
        except OSError as exc:
            raise OracleFailure(f"cannot start oracle process: {exc}") from exc
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self._lock = threading.Lock()

    def _pump(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def query(self, word: str) -> bool:
        with self._lock:
            if self._proc.poll() is not None:
                raise OracleFailure("oracle process has exited")
            try:
                self._proc.stdin.write(word + "\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError) as exc:
                raise OracleFailure(f"cannot write to oracle: {exc}") from exc
            try:
                line = self._lines.get(timeout=self.timeout)
            except queue.Empty:
                self.close()
                raise OracleTimeout(
                    f"no reply within {self.timeout}s for {word!r}") from None
            if line is None:
                raise OracleFailure("oracle process closed its output")
            reply = line.strip()
            if reply == "1":
                return True
            if reply == "0":
                return False
            raise ProtocolError(f"unexpected oracle reply: {reply!r}")

    def close(self):
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
