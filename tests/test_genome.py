import numpy as np
import pytest

import fakewake.genome
from fakewake.dataio import data_dir
from fakewake.embedding import embedding_table
from fakewake.errors import InvalidCombination, LengthMismatch
from fakewake.genome import (ChineseGenome, EnglishGenome, VariationConfig,
                             crossover, decode_text, encode_chinese,
                             encode_english, english_genome_length, mutate,
                             nearest_valid_final, random_genome,
                             repair_chinese, seed_genomes, wake_genome)
from fakewake.pinyin import parse_pinyin, unit_tables
from tests.conftest import tables_from
from tests.reference import decode_chinese, render_word

T = unit_tables()
CFG = VariationConfig()


def test_decode_chinese_baidu():
    word = parse_pinyin("xiǎo dù xiǎo dù")
    genome = encode_chinese(word)
    assert len(genome) == 12
    assert render_word(decode_chinese(genome)) == "xiǎo dù xiǎo dù"


def test_chinese_roundtrip_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_genome(ChineseGenome, 12, rng)
        assert encode_chinese(decode_chinese(g)) == g


def test_decode_chinese_invalid_pair():
    bad = list(encode_chinese(parse_pinyin("xiǎo")))
    bad[1] = T.final_index["ang"]          # x + ang is unpronounceable
    with pytest.raises(InvalidCombination):
        decode_chinese(ChineseGenome(bad))
    for _ in range(3):                     # the render memo caches no failure
        with pytest.raises(InvalidCombination):
            decode_text(ChineseGenome(bad))


def test_decode_text_matches_the_word_path():
    rng = np.random.default_rng(4)
    for length in (3, 12, 30):
        for _ in range(100):
            g = random_genome(ChineseGenome, length, rng)
            assert decode_text(g) == render_word(decode_chinese(g))


def test_decode_english_trims_and_collapses():
    g = encode_english("alexa", 7)
    assert decode_text(g) == "alexa"
    spaced = EnglishGenome([27, 8, 5, 25, 27, 27, 19, 9, 18, 9, 27, 27])
    assert decode_text(spaced) == "hey siri"


def test_decode_english_all_spaces():
    assert decode_text(EnglishGenome([27])) == ""
    assert decode_text(EnglishGenome([27] * 7)) == ""


def test_english_genome_length_ratio():
    assert english_genome_length("alexa") == 7
    assert english_genome_length("hey google") == 15


def test_genome_range_validation():
    with pytest.raises(ValueError):
        EnglishGenome([0, 1, 2])
    with pytest.raises(ValueError):
        ChineseGenome([24, 1, 1])
    with pytest.raises(ValueError):
        ChineseGenome([1, 1])
    with pytest.raises(ValueError):
        encode_english("Alexa")


def test_genome_range_bounds():
    """Each gene's range, ends included, with the message naming it."""
    for pos, (name, lo, hi) in enumerate((("initial", 0, 23),
                                          ("final", 1, 37),
                                          ("tone", 1, 4))):
        for value in (lo, hi):
            genes = [0, 1, 1]
            genes[pos] = value
            assert list(ChineseGenome(genes)) == genes
        for value in (lo - 1, hi + 1):
            genes = [0, 1, 1, 0, 1, 1]
            genes[3 + pos] = value
            with pytest.raises(ValueError, match=f"^{name} gene out of "
                                                 f"range: {value}$"):
                ChineseGenome(genes)
            assert ChineseGenome([0, 1, 1]).gene_range(3 + pos) == (lo, hi)
    for value in (1, 27):
        EnglishGenome([value, 1])
    for value in (0, 28):
        with pytest.raises(ValueError,
                           match=f"^letter gene out of range: {value}$"):
            EnglishGenome([1, value])
    assert EnglishGenome([1]).gene_range(5) == (1, 27)


def inline_random_genome(kind, length, rng):
    """random_genome before the gene table: its ranges written inline."""
    if kind is ChineseGenome:
        genes = []
        for i in range(length):
            lo, hi = (0, 23) if i % 3 == 0 else \
                     (1, 37) if i % 3 == 1 else (1, 4)
            genes.append(int(rng.integers(lo, hi + 1)))
        return repair_chinese(ChineseGenome(genes))
    return EnglishGenome(rng.integers(1, 28, size=length))


@pytest.mark.parametrize("kind, length", [(ChineseGenome, 3),
                                          (ChineseGenome, 12),
                                          (EnglishGenome, 1),
                                          (EnglishGenome, 7)])
def test_random_genome_equals_the_inline_ranges(kind, length):
    for seed in range(25):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert random_genome(kind, length, ours) == \
                inline_random_genome(kind, length, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_mutate_rate_zero_identity():
    rng = np.random.default_rng(0)
    g = encode_english("alexa", 7)
    assert mutate(g, VariationConfig(mutation_rate=0.0), rng) == g


def test_mutate_deterministic():
    g = encode_english("alexa", 7)
    a = mutate(g, CFG, np.random.default_rng(42))
    b = mutate(g, CFG, np.random.default_rng(42))
    assert a == b


def test_mutate_chinese_stays_valid():
    rng = np.random.default_rng(9)
    g = encode_chinese(parse_pinyin("xiǎo dù xiǎo dù"))
    for _ in range(50):
        g = mutate(g, VariationConfig(mutation_rate=1.0), rng)
        decode_chinese(g)   # raises if any pair invalid


def test_crossover_produces_known_recombinations():
    g1 = encode_english("alexa")
    g2 = encode_english("olive")
    children = set()
    for seed in range(40):
        c1, c2 = crossover(g1, g2, np.random.default_rng(seed))
        children.add(decode_text(c1))
        children.add(decode_text(c2))
        # per-position gene multisets preserved
        for i in range(len(g1)):
            assert {c1[i], c2[i]} == {g1[i], g2[i]}
    assert "alive" in children and "olexa" in children


def test_crossover_self_identity():
    g = encode_english("alexa")
    c1, c2 = crossover(g, g, np.random.default_rng(1))
    assert c1 == g and c2 == g


def test_crossover_length_mismatch():
    with pytest.raises(LengthMismatch):
        crossover(encode_english("ab"), encode_english("abc"),
                  np.random.default_rng(0))


def test_repair_valid_unchanged():
    g = encode_chinese(parse_pinyin("xiǎo dù xiǎo dù"))
    assert repair_chinese(g) is g


def test_repair_nearest_final_from_embedding():
    x = T.initial_index["x"]
    ang = T.final_index["ang"]
    genome = ChineseGenome([x, ang, 1, x, ang, 1, x, ang, 1, x, ang, 1])
    repaired = repair_chinese(genome)
    final_vec = table_final_vec(embedding_table())
    target = final_vec(ang)
    candidates = T.finals_for_initial[x]
    gaps = [float(np.linalg.norm(final_vec(f) - target)) for f in candidates]
    expected = candidates[int(np.argmin(gaps))]
    assert repaired[1] == expected
    assert repair_chinese(repaired) == repaired   # idempotent
    decode_chinese(repaired)


def table_final_vec(emb):
    """The embedding of a final given by its index."""
    return lambda index: emb.unit_vec("final", T.final_by_index[index])


def _nearest_by_loop(final_vec, initial, final):
    """Reference repair: the lowest-indexed of the valid finals nearest
    ``final``, with ``final_vec`` the embedding of a final's index."""
    target = final_vec(final)
    return min(T.finals_for_initial[initial],
               key=lambda c: (float(np.linalg.norm(final_vec(c) - target)),
                              c))


def _invalid_pairs():
    return [(i, f) for i in range(24) for f in range(1, 38)
            if (i, f) not in T.valid_pairs]


def test_repair_memo_matches_the_loop_on_every_pair():
    final_vec = table_final_vec(embedding_table())
    for ini, fin in _invalid_pairs():
        expected = _nearest_by_loop(final_vec, ini, fin)
        assert nearest_valid_final(ini, fin) == expected
        assert nearest_valid_final(ini, fin) == expected
        genome = ChineseGenome([ini, fin, 2, ini, fin, 4])
        assert list(repair_chinese(genome)) == [ini, expected, 2,
                                                ini, expected, 4]


class _TiedFinals:
    """Final embeddings on three points, so most repairs see exact ties."""

    def final_vec(self, index):
        return np.array([float(index % 3), 0.0])

    def unit_gap(self, kind, a, b):
        assert kind == "final"
        return float(np.linalg.norm(self.final_vec(T.final_index[a])
                                    - self.final_vec(T.final_index[b])))


@pytest.fixture
def tied_embedding(monkeypatch):
    monkeypatch.setattr(fakewake.genome, "embedding_table", _TiedFinals)
    with tables_from(data_dir()):
        yield _TiedFinals()


def test_repair_memo_breaks_exact_ties_to_the_lowest_index(tied_embedding):
    ties = 0
    for ini, fin in _invalid_pairs():
        target = tied_embedding.final_vec(fin)
        gaps = [float(np.linalg.norm(tied_embedding.final_vec(c) - target))
                for c in T.finals_for_initial[ini]]
        ties += gaps.count(min(gaps)) > 1
        expected = _nearest_by_loop(tied_embedding.final_vec, ini, fin)
        assert nearest_valid_final(ini, fin) == expected
        assert nearest_valid_final(ini, fin) == expected
    assert ties > 400


def test_seed_genomes_partition():
    wake = encode_english("alexa", 7)
    rng = np.random.default_rng(7)
    pop = seed_genomes(wake, 3, rng)
    assert len(pop) == 3
    assert pop[0] == wake
    # second member: a perturbation within two genes
    assert sum(a != b for a, b in zip(pop[1], wake)) <= 2


def test_seed_genomes_perturbation_budget():
    wake = encode_chinese(parse_pinyin("xiǎo dù xiǎo dù"))
    rng = np.random.default_rng(3)
    pop = seed_genomes(wake, 21, rng)
    n_perturbed = 10   # ceil((21 - 1) / 2)
    for member in pop[1:1 + n_perturbed]:
        assert sum(a != b for a, b in zip(member, wake)) <= 2
        decode_chinese(member)


def test_seed_genomes_deterministic():
    wake = encode_english("alexa", 7)
    a = seed_genomes(wake, 12, np.random.default_rng(5))
    b = seed_genomes(wake, 12, np.random.default_rng(5))
    assert a == b


def test_seed_genomes_minimum():
    with pytest.raises(ValueError):
        seed_genomes(encode_english("alexa", 7), 2,
                     np.random.default_rng(0))


def test_wake_genome_shapes():
    """An English wake word's letters padded to its genome length; a
    Mandarin one's three genes per syllable."""
    en = wake_genome("en", "alexa", 1.5)
    assert type(en) is EnglishGenome and len(en) == 7
    assert en == encode_english("alexa", english_genome_length("alexa"))
    assert decode_text(en) == "alexa"
    zh = wake_genome("zh", "xiǎo dù xiǎo dù", 1.5)
    assert type(zh) is ChineseGenome and len(zh) == 12
    assert zh == encode_chinese(parse_pinyin("xiǎo dù xiǎo dù"))
