"""Black-box wake-detector abstraction.

``WakeOracle`` is the minimal interface the search loop needs: one call
takes a generation's new words and yields, word by word in order, how many
of each word's activation trials woke the detector. ``build_oracle`` makes
one from a config's ``oracle`` block: a ``SimulatedDetector``, a stand-in
with hidden per-unit weights for desk-scale experiments, or an
``ExternalOracle``, which adapts any line-oriented subprocess (e.g. driving
real hardware). Both also answer one word through ``query``.

``ExternalOracle.query_many`` sends all of a call's lines when it is called
and reads the replies as its iterator is advanced, so the caller's own work
falls between the send and the reads. ``SimulatedDetector`` seeds each
trial from a hash of (seed, trial, word) and draws the first uniform of
``np.random.default_rng`` of that seed. ``query`` computes each draw with
numpy's integer arithmetic in plain Python (``first_random``), and
``query_many`` computes all of a batch's draws in one vectorised pass of it
(``default_rng_random``), so both equal numpy's outcomes bit for bit without
building a generator. Only ``query_many`` and ``default_rng_random`` import
numpy, and ``ExternalOracle`` imports the process modules it needs when it
is built, so a process that only answers ``query`` loads none of them.
"""
from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol

from .embedding import embedding_table, parse_text
from .errors import OracleFailure, OracleTimeout, ParseFailure, ProtocolError
from .params import OracleConfig

if TYPE_CHECKING:
    import numpy as np


class WakeOracle(Protocol):
    def query_many(self, words: list[str],
                   trials: int = 1) -> Iterable[int]:
        """Each word's wakes in ``trials`` activation trials, in order."""


def _parse_units(word: str, language: str) -> list[tuple[str, str]]:
    """The units of ``parse_text``; an empty English word has none."""
    if not word and language != "zh":
        return []
    return parse_text(word, language)[0]


def _trial_seed(seed: int, word: str, trial: int) -> int:
    digest = hashlib.blake2b(
        f"{seed}:{trial}:{word}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


# --- default_rng(seed).random() without a Generator ---------------------------
# numpy seeds PCG64 through SeedSequence: a 4-word uint32 pool is hash-mixed
# from the seed's two 32-bit words, and 8 words drawn from it form the PCG64
# state and stream (O'Neill 2014). Every hash step xors and multiplies by a
# constant that does not depend on the data, so the constants are listed here,
# once for the scalar draw and the vectorised one. In the vectorised one,
# Python int operands keep the arrays' dtype (uint32 or uint64), which wraps.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, steps: int) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of ``steps`` successive hash steps."""
    pairs, h = [], init
    for _ in range(steps):
        product = h * mult & _M32
        pairs.append((h, product))
        h = product
    return tuple(pairs)


# mix_entropy: one step per pool word, then 3 per source word (4 sources)
_POOL_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
# the (source, destination) pool words of each of the 12 mixing steps
_MIX_STEPS = tuple(zip(((src, dst) for src in range(4) for dst in range(4)
                        if dst != src), _POOL_STEPS[4:]))
# generate_state(4, uint64): one step per output uint32
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Seeding steps the LCG, adds the state, steps again, and random() steps once
# more: state = (inc + init) * MULT**2 + inc * (MULT + 1), mod 2**128.
_PCG_MULT_SQ = _PCG_MULT * _PCG_MULT & _M128
_PCG_MULT_PLUS_1 = _PCG_MULT + 1


def first_random(seed: int) -> float:
    """``np.random.default_rng(seed).random()``, bit for bit, for a seed in
    [0, 2**64)."""
    # SeedSequence pool; a seed below 2**32 mixes like a high word of 0
    pool = []
    for word, (xor, mult) in zip((seed & _M32, seed >> 32, 0, 0), _POOL_STEPS):
        word = (word ^ xor) * mult & _M32
        pool.append(word ^ word >> 16)
    for (src, dst), (xor, mult) in _MIX_STEPS:
        hashed = (pool[src] ^ xor) * mult & _M32
        mixed = _MIX_L * pool[dst] - _MIX_R * (hashed ^ hashed >> 16) & _M32
        pool[dst] = mixed ^ mixed >> 16
    words = []
    for word, (xor, mult) in zip(pool + pool, _STATE_STEPS):
        word = (word ^ xor) * mult & _M32
        words.append(word ^ word >> 16)
    # uint64 k is words[2k] | words[2k + 1] << 32; the state is (u0 << 64 |
    # u1) and the stream (u2 << 64 | u3), whose increment is (stream << 1) | 1
    init = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
    inc = (words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6]) << 1 | 1
    state = (inc + init) * _PCG_MULT_SQ + inc * _PCG_MULT_PLUS_1 & _M128
    # XSL-RR output, then random()'s 53-bit double
    upper = state >> 64
    xored = upper ^ state & _M64
    rot = upper >> 58
    return ((xored >> rot | xored << (64 - rot) & _M64) >> 11) * 2.0**-53


# The same arithmetic for many seeds at once, on rows of uint32 and uint64
# arrays; a 128-bit number is four rows of 32-bit limbs.
@lru_cache(maxsize=None)
def _batch_constants() -> SimpleNamespace:
    """The constant arrays of ``default_rng_random``, built on its first
    call."""
    import numpy as np

    def limbs(x: int) -> np.ndarray:
        """The four 32-bit limbs of ``x`` mod 2**128, least significant
        first."""
        return np.array([x >> (32 * i) & _M32 for i in range(4)],
                        dtype=np.uint64)

    pool_xor, pool_mul = np.array(_POOL_STEPS, dtype=np.uint32).T[..., None]
    state_xor, state_mul = np.array(_STATE_STEPS,
                                    dtype=np.uint32).T[..., None]
    # Sum the 4x4 limb products a_i * b_j of a multiplication into columns:
    # the low half of a product goes to column i + j, the high half to
    # i + j + 1.
    low, high = (
        np.array([[int(i + j + shift == k) for i in range(4)
                   for j in range(4)] for k in range(4)], dtype=np.uint64)
        for shift in (0, 1))
    return SimpleNamespace(
        pool_xor=pool_xor, pool_mul=pool_mul, state_xor=state_xor,
        state_mul=state_mul, mult_sq=limbs(_PCG_MULT_SQ),
        mult_plus_1=limbs(_PCG_MULT_PLUS_1), low_column=low,
        high_column=high)


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _times(limbs: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Column sums of ``limbs * const`` mod 2**128, each below 2**35."""
    tables = _batch_constants()
    products = (limbs[:, None, :] * const[None, :, None]).reshape(16, -1)
    columns = tables.high_column @ (products >> 32)
    products &= _M32
    columns += tables.low_column @ products
    return columns


def _carry(limbs: np.ndarray) -> np.ndarray:
    """Normalise column sums to 32-bit limbs, dropping the carry out."""
    for i in range(3):
        limbs[i + 1] += limbs[i] >> 32
        limbs[i] &= _M32
    limbs[3] &= _M32
    return limbs


def default_rng_random(seeds) -> np.ndarray:
    """``[np.random.default_rng(s).random() for s in seeds]`` as a float64
    array, bit for bit, for seeds in [0, 2**64)."""
    import numpy as np

    tables = _batch_constants()
    seeds = np.asarray(seeds, dtype=np.uint64)
    # SeedSequence pool; a seed below 2**32 mixes like a high word of 0
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _M32
    pool[1] = seeds >> 32
    pool = _hash(pool, tables.pool_xor[:4], tables.pool_mul[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        step = 4 + 3 * src
        hashed = _hash(pool[src], tables.pool_xor[step:step + 3],
                       tables.pool_mul[step:step + 3])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hash(np.concatenate([pool, pool]), tables.state_xor,
                  tables.state_mul).astype(np.uint64)
    # uint64 k of the state is words[2k] | words[2k + 1] << 32; the state
    # is (u0 << 64 | u1) and the stream (u2 << 64 | u3), as 32-bit limbs
    init = words[[2, 3, 0, 1]]
    stream = words[[6, 7, 4, 5]]
    inc = np.empty_like(stream)                      # (stream << 1) | 1
    inc[0] = (stream[0] << 1 | 1) & _M32
    inc[1:] = (stream[1:] << 1 | stream[:-1] >> 31) & _M32
    state = _carry(_times(_carry(inc + init), tables.mult_sq)
                   + _times(inc, tables.mult_plus_1))
    # XSL-RR output, then random()'s 53-bit double
    upper = state[3] << 32 | state[2]
    xored = upper ^ (state[1] << 32 | state[0])
    rot = upper >> 58
    out = xored >> rot | xored << ((64 - rot) & 63)
    return (out >> 11).astype(np.float64) * 2.0**-53


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
    threshold: float = OracleConfig.threshold
    temperature: float = OracleConfig.temperature
    substitution_floor: float = OracleConfig.substitution_floor
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

    def _next_trials(self, word: str, trials: int) -> tuple[float, int]:
        """The word's wake probability and the index of the first of its
        next ``trials`` trials, which this call counts as taken."""
        state = self._trial_counts.get(word)
        prob, first = (state if state is not None
                       else (self.wake_probability(word), 0))
        self._trial_counts[word] = (prob, first + trials)
        return prob, first

    def query(self, word: str, trials: int = 1) -> int:
        prob, first = self._next_trials(word, trials)
        return sum(first_random(_trial_seed(self.seed, word, t)) < prob
                   for t in range(first, first + trials))

    def query_many(self, words: list[str], trials: int = 1) -> list[int]:
        """``[self.query(w, trials) for w in words]``, with the same results
        and trial counters, drawing every trial in one vectorised pass."""
        import numpy as np

        seeds, probs = [], []
        for word in words:
            prob, first = self._next_trials(word, trials)
            seeds.extend(_trial_seed(self.seed, word, t)
                         for t in range(first, first + trials))
            probs.append(prob)
        draws = default_rng_random(seeds).reshape(len(words), trials)
        return (draws < np.array(probs)[:, None]).sum(axis=1).tolist()


class ExternalOracle:
    """Adapter for an external detector process.

    Wire protocol: one candidate word per line on stdin; one reply line on
    stdout, ``1`` for wake and ``0`` for no wake. ``query_many`` sends a
    call's lines, ``trials`` copies of each word's, in one write (or, past
    what the pipe holds, in writes interleaved with the reads), and the
    replies come back in order, each within ``timeout`` seconds of the
    previous one. A handle has no lock, so only one thread at a time may
    query it. Any failure (a timeout, the end of the output, a reply other
    than ``0`` or ``1``) stops the process, so a reply that was never read
    cannot answer a later query. A reply answers no query, and is a
    protocol error, if more replies are buffered than the call still owes,
    or if it is waiting when a call starts or after its last reply is read.
    Replies carry no word, so a count yielded before a surplus reply was
    read may already be shifted by it, and a surplus reply that arrives
    after the last of those checks answers the next call's first line.
    Stdout is read with ``select``, so it must be a pipe.
    """

    def __init__(self, command: str,
                 timeout: float = OracleConfig.timeout):
        import shlex        # only an exec oracle needs the process modules
        import subprocess
        self.command = command
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                shlex.split(command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise OracleFailure(f"cannot start oracle process: {exc}") from exc
        self._stdin = self._proc.stdin.fileno()
        os.set_blocking(self._stdin, False)   # see ``_send``
        self._stdout = self._proc.stdout.fileno()
        self._unsent = memoryview(b"")  # lines not yet taken by the pipe
        self._lines: list[bytes] = []   # reply lines read, from ``_next`` on
        self._next = 0                  # not yet consumed
        self._partial = b""             # read after the last newline
        self._deadline = None           # of the next reply; None: unread

    def query(self, word: str, trials: int = 1) -> int:
        return next(self.query_many([word], trials))

    def query_many(self, words: list[str], trials: int = 1) -> Iterator[int]:
        """Send every line of ``words`` now, and return an iterator of
        each word's wakes in ``trials`` trials, read as it is advanced. No
        words need no process."""
        if not words:
            return iter(())
        if self._proc.poll() is not None:
            raise OracleFailure("oracle process has exited")
        try:
            self._check_idle()
            self._unsent = memoryview(
                "".join([f"{word}\n" * trials for word in words]).encode())
            self._deadline = None
            self._send()
        except BaseException:
            self.close()
            raise
        return self._counts(words, trials)

    def _counts(self, words: list[str], trials: int) -> Iterator[int]:
        owed = len(words)
        try:
            for word in words:
                while len(self._lines) - self._next < trials:
                    self._read(word)
                replies = self._lines[self._next:self._next + trials]
                self._next += trials
                owed -= 1
                # a word's count is yielded only while no more replies are
                # buffered than the words after it owe, and the last one
                # only while no output at all is waiting
                surplus = len(self._lines) - self._next - owed * trials
                if surplus > 0:
                    raise ProtocolError(
                        f"oracle replied to no query: {surplus} more "
                        f"line(s) than were sent")
                if not owed:
                    self._check_idle()
                yield sum(map(_wake, replies))
        except BaseException as exc:
            # ``zip`` leaves the iterator suspended after its last word,
            # which owes no reply; replies left unread must never answer a
            # later query
            if owed or not isinstance(exc, GeneratorExit):
                self.close()
            raise

    def _send(self):
        """Write as much of the unsent lines as the pipe takes now. The
        pipe does not block, so a full one never waits on a process that
        is itself waiting for its replies to be read. Once the process
        has closed its input, the rest is dropped: the replies it sent
        before still count, and the reads then meet the end of output."""
        try:
            while self._unsent:
                self._unsent = self._unsent[os.write(self._stdin,
                                                     self._unsent):]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            self._unsent = memoryview(b"")

    def _read(self, word: str):
        """Read until at least one more reply line is buffered, sending the
        unsent lines as the pipe takes them."""
        import select
        if self._deadline is None:
            self._deadline = time.monotonic() + self.timeout
        while True:
            wait = max(self._deadline - time.monotonic(), 0.0)
            readable, writable, _ = select.select(
                [self._stdout], [self._stdin] if self._unsent else [], [],
                wait)
            if writable:
                self._send()
            if readable:
                chunk = os.read(self._stdout, 65536)
                if not chunk:
                    raise OracleFailure("oracle process closed its output")
                *lines, self._partial = (self._partial + chunk).split(b"\n")
                if lines:
                    self._lines = self._lines[self._next:] + lines
                    self._next = 0
                    self._deadline = time.monotonic() + self.timeout
                    return
            elif not writable:
                raise OracleTimeout(
                    f"no reply within {self.timeout}s for {word!r}")

    def _check_idle(self):
        """Raise if output is waiting that no query asked for. The end of
        the output is left to the next read, so the words whose replies
        were read keep their counts."""
        import select
        waiting = b"\n".join([*self._lines[self._next:], self._partial])
        if not waiting and select.select([self._stdout], [], [], 0)[0]:
            waiting = os.read(self._stdout, 65536)
        if waiting:
            raise ProtocolError(f"oracle replied to no query: "
                                f"{waiting.decode(errors='replace')!r}")

    def close(self):
        import subprocess
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


def _wake(reply: bytes) -> int:
    """A reply line as 1 (wake) or 0."""
    reply = reply.strip()
    if reply in (b"0", b"1"):
        return int(reply == b"1")
    raise ProtocolError(
        f"unexpected oracle reply: {reply.decode(errors='replace')!r}")


def build_oracle(block: OracleConfig, language: str, wake_word: str,
                 seed: int) -> tuple[WakeOracle, str]:
    """The oracle of a config's ``oracle`` block and the spec string the
    archive records. An ``exec`` oracle (``exec:<command>``) reads only
    ``command`` and ``timeout``. A ``sim`` one is a ``SimulatedDetector`` of
    ``target`` (default the wake word) seeded with ``seed`` (default the run
    seed + 1000); a ``decisive_unit`` past the target's last unit raises
    ``ValueError``."""
    if block.kind == "exec":
        return (ExternalOracle(block.command, block.timeout),
                f"exec:{block.command}")
    target = block.target or wake_word
    weights = block.unit_weights
    if block.decisive_unit is not None:   # the block allows one of the two
        n = len(_parse_units(target, language))
        if block.decisive_unit >= n:   # the block checks that it is >= 0
            raise ValueError(f"decisive_unit out of range 0..{n - 1}")
        w = block.decisive_weight
        rest = (1.0 - w) / (n - 1) if n > 1 else 0.0
        weights = [w if i == block.decisive_unit else rest for i in range(n)]
    return SimulatedDetector(
        target=target, language=language,
        unit_weights=None if weights is None else tuple(weights),
        threshold=block.threshold, temperature=block.temperature,
        substitution_floor=block.substitution_floor,
        seed=block.seed if block.seed is not None else seed + 1000), "sim"
