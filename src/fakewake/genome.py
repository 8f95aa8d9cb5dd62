"""Integer-vector word encodings and the variation operators.

Chinese genomes hold (initial, final, tone) triples per character; English
genomes hold one value per letter slot with 27 meaning space. All operators
are pure functions of their inputs and the supplied RNG stream.

A Chinese genome's text is rendered triple by triple through the memo of
``pinyin.render_units``. Repair takes the nearest valid final of each
(initial, invalid final) pair from a memo too, filled lazily on first use and
bounded by the inventory: at most 24 x 37 pairs.
"""
from __future__ import annotations

import math

import numpy as np

from .dataio import table_memo
from .embedding import embedding_table
from .errors import LengthMismatch
from .params import LENGTH_RATIO, VariationConfig
from .phonemes import ALPHABET, LetterWord
from .pinyin import (ChineseWord, is_valid_pair, parse_pinyin, render_units,
                     unit_tables)


class ChineseGenome(tuple):
    """3n genes: per character an initial, a final and a tone, each in its
    range of ``unit_tables().gene_ranges``."""

    language = "zh"

    def __new__(cls, genes):
        genes = tuple(int(g) for g in genes)
        if not genes or len(genes) % 3:
            raise ValueError("Chinese genome length must be a positive multiple of 3")
        (ini_lo, ini_hi), (fin_lo, fin_hi), (tone_lo, tone_hi) = \
            unit_tables().gene_ranges
        for ini, fin, tone in _triples(genes):
            if not ini_lo <= ini <= ini_hi:
                raise ValueError(f"initial gene out of range: {ini}")
            if not fin_lo <= fin <= fin_hi:
                raise ValueError(f"final gene out of range: {fin}")
            if not tone_lo <= tone <= tone_hi:
                raise ValueError(f"tone gene out of range: {tone}")
        return super().__new__(cls, genes)

    def gene_range(self, position: int) -> tuple[int, int]:
        return unit_tables().gene_ranges[position % 3]


class EnglishGenome(tuple):
    """L genes, each a letter of ``ALPHABET``: 1..26 -> a..z, 27 -> space."""

    language = "en"
    RANGE = (1, len(ALPHABET))

    def __new__(cls, genes):
        genes = tuple(int(g) for g in genes)
        if not genes:
            raise ValueError("English genome must be nonempty")
        lo, hi = cls.RANGE
        for g in genes:
            if not lo <= g <= hi:
                raise ValueError(f"letter gene out of range: {g}")
        return super().__new__(cls, genes)

    def gene_range(self, position: int) -> tuple[int, int]:
        return self.RANGE


Genome = ChineseGenome | EnglishGenome


def _triples(genes):
    return ((genes[i], genes[i + 1], genes[i + 2]) for i in range(0, len(genes), 3))


def encode_chinese(word: ChineseWord) -> ChineseGenome:
    genes = []
    for s in word.syllables:
        genes.extend((s.initial, s.final, s.tone))
    return ChineseGenome(genes)


def encode_english(text: str, length: int | None = None) -> EnglishGenome:
    """Letters to genes, right-padded with spaces to ``length`` when given."""
    if length is None:
        length = len(text)
    if len(text) > length:
        raise LengthMismatch(f"{text!r} longer than genome length {length}")
    # a symbol outside the alphabet becomes gene 0, which the genome rejects
    return EnglishGenome([ALPHABET.find(c) + 1 for c in text.ljust(length)])


def english_genome_length(wake_word: str, ratio: float = LENGTH_RATIO) -> int:
    return math.floor(ratio * len(wake_word))


def wake_genome(language: str, wake_word: str, length_ratio: float) -> Genome:
    """The genome of ``wake_word``: its syllables for zh, else its letters
    padded to ``english_genome_length``; an unparseable word raises."""
    if language == "zh":
        return encode_chinese(parse_pinyin(wake_word))
    LetterWord(wake_word)   # symbols outside a-z/space fail here
    return encode_english(wake_word,
                          english_genome_length(wake_word, length_ratio))


def decode_text(genome: "Genome") -> str:
    """Word text for any genome: English spaces trimmed and collapsed, an
    empty string for a space-only English one."""
    if isinstance(genome, ChineseGenome):
        return " ".join(map(render_units, genome[0::3], genome[1::3],
                            genome[2::3]))
    return " ".join("".join([ALPHABET[g - 1] for g in genome]).split())


@table_memo
def nearest_valid_final(initial: int, final: int) -> int:
    """The valid final for ``initial`` whose embedding is nearest that of
    ``final``; ties break to the lowest final index."""
    emb = embedding_table()
    tables = unit_tables()
    symbol = tables.final_by_index
    target = symbol[final]
    best, best_dist = None, None
    for cand in tables.finals_for_initial[initial]:
        d = emb.unit_gap("final", symbol[cand], target)
        if best is None or d < best_dist:
            best, best_dist = cand, d
    return best


def repair_chinese(g: ChineseGenome) -> ChineseGenome:
    """Replace each invalid final with ``nearest_valid_final`` for its
    initial; a genome without one comes back as it is."""
    genes = list(g)
    for i in range(0, len(genes), 3):
        ini, fin = genes[i], genes[i + 1]
        if not is_valid_pair(ini, fin):
            genes[i + 1] = nearest_valid_final(ini, fin)
    return g if genes == list(g) else ChineseGenome(genes)


def _repaired(genome: Genome) -> Genome:
    return repair_chinese(genome) if isinstance(genome, ChineseGenome) else genome


def mutate(g: Genome, cfg: VariationConfig, rng: np.random.Generator) -> Genome:
    """Resample each gene uniformly from its range with the configured
    probability; Chinese results are repaired."""
    flips = rng.random(len(g)) < cfg.mutation_rate
    genes = list(g)
    for i, flip in enumerate(flips):
        if flip:
            lo, hi = g.gene_range(i)
            genes[i] = int(rng.integers(lo, hi + 1))
    return _repaired(type(g)(genes))


def crossover(g1: Genome, g2: Genome,
              rng: np.random.Generator) -> tuple[Genome, Genome]:
    """Single-point crossover at a uniform cut in 1..len-1."""
    if len(g1) != len(g2) or type(g1) is not type(g2):
        raise LengthMismatch("crossover operands must match in type and length")
    if len(g1) == 1:
        return _repaired(g1), _repaired(g2)
    cut = int(rng.integers(1, len(g1)))
    c1 = type(g1)(g1[:cut] + g2[cut:])
    c2 = type(g1)(g2[:cut] + g1[cut:])
    return _repaired(c1), _repaired(c2)


def random_genome(kind: type, length: int, rng: np.random.Generator) -> Genome:
    if kind is ChineseGenome:
        ranges = unit_tables().gene_ranges
        genes = [int(rng.integers(lo, hi + 1))
                 for lo, hi in (ranges[i % 3] for i in range(length))]
        return repair_chinese(ChineseGenome(genes))
    lo, hi = EnglishGenome.RANGE
    return EnglishGenome(rng.integers(lo, hi + 1, size=length))


def seed_genomes(wake_word: Genome, count: int,
                 rng: np.random.Generator) -> list[Genome]:
    """Initial population: the wake word, near perturbations of it, and
    uniform random individuals."""
    if count < 3:
        raise ValueError("population needs at least 3 individuals")
    population = [_repaired(wake_word)]
    n_perturbed = math.ceil((count - 1) / 2)
    for _ in range(n_perturbed):
        # Re-draw rather than repair so perturbations stay within two genes
        # of the wake word.
        for _attempt in range(100):
            genes = list(wake_word)
            n_changes = int(rng.integers(1, 3))
            positions = rng.choice(len(genes), size=min(n_changes, len(genes)),
                                   replace=False)
            for pos in positions:
                lo, hi = wake_word.gene_range(int(pos))
                genes[int(pos)] = int(rng.integers(lo, hi + 1))
            candidate = type(wake_word)(genes)
            if candidate == _repaired(candidate):
                break
        population.append(_repaired(candidate))
    while len(population) < count:
        population.append(random_genome(type(wake_word), len(wake_word), rng))
    return population
