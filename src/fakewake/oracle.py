"""Black-box wake-detector abstraction.

``WakeOracle`` is the minimal interface the search loop needs: one query
runs a word's activation trials and returns how many woke the detector.
``SimulatedDetector`` is a configurable stand-in with hidden per-unit weights
for desk-scale experiments; ``ExternalOracle`` adapts any line-oriented
subprocess (e.g. driving real hardware) to the same interface.
"""
from __future__ import annotations

import hashlib
import math
import os
import select
import shlex
import subprocess
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .embedding import embedding_table, word_units
from .errors import OracleFailure, OracleTimeout, ParseFailure, ProtocolError
from .phonemes import ALPHABET, LetterWord
from .pinyin import parse_pinyin


class WakeOracle(Protocol):
    def query(self, word: str, trials: int = 1) -> int:
        """Wakes in ``trials`` activation trials of the given word text."""


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
    return WakeRateReport(word, k, oracle.query(word, k))


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
    # word -> (wake probability, index of its next trial)
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

    def query(self, word: str, trials: int = 1) -> int:
        state = self._trial_counts.get(word)
        prob, first = (state if state is not None
                       else (self.wake_probability(word), 0))
        self._trial_counts[word] = (prob, first + trials)
        return sum(int(_trial_rng(self.seed, word, t).random() < prob)
                   for t in range(first, first + trials))


class ExternalOracle:
    """Adapter for an external detector process.

    Wire protocol: one candidate word per line on stdin; one reply line on
    stdout, ``1`` for wake and ``0`` for no wake. A query's ``trials`` lines
    go out in one write and are answered in order; each reply must arrive
    within ``timeout`` seconds. A handle has no lock, so only one thread at
    a time may query it. Any failure (a timeout, the end of the output, a
    reply other than ``0`` or ``1``) stops the process, so a reply that
    was never read cannot answer a later query. Stdout is read with
    ``select``, so it must be a pipe.
    """

    def __init__(self, command: str, timeout: float = 30.0):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.command = command
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                shlex.split(command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise OracleFailure(f"cannot start oracle process: {exc}") from exc
        self._stdout = self._proc.stdout.fileno()
        self._pending = b""           # read but not yet consumed

    def query(self, word: str, trials: int = 1) -> int:
        if self._proc.poll() is not None:
            raise OracleFailure("oracle process has exited")
        try:
            self._proc.stdin.write(f"{word}\n".encode() * trials)
            self._proc.stdin.flush()
            return sum(self._reply(word) for _ in range(trials))
        except BrokenPipeError as exc:
            self.close()
            raise OracleFailure(f"cannot write to oracle: {exc}") from exc
        except BaseException:
            # replies left unread must never answer a later query
            self.close()
            raise

    def _reply(self, word: str) -> int:
        """The next reply line as 1 (wake) or 0."""
        deadline = time.monotonic() + self.timeout
        while (end := self._pending.find(b"\n")) < 0:
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([self._stdout], [], [], wait)[0]:
                raise OracleTimeout(
                    f"no reply within {self.timeout}s for {word!r}")
            chunk = os.read(self._stdout, 65536)
            if not chunk:
                raise OracleFailure("oracle process closed its output")
            self._pending += chunk
        reply = self._pending[:end].strip()
        self._pending = self._pending[end + 1:]
        if reply in (b"0", b"1"):
            return int(reply == b"1")
        raise ProtocolError(
            f"unexpected oracle reply: {reply.decode(errors='replace')!r}")

    def close(self):
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            with suppress(OSError):
                pipe.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
