"""Command-line entry point.

Subcommands: generate (search for fuzzy words), explain (train the proxy and
extract decisive factors), mitigate (screening coverage and detector
strengthening), dist (ad-hoc distance between two words), validate (check a
word against the language). Exit codes: 0 success, 2 configuration error,
3 oracle failure, 130 (SIGINT) or 143 (SIGTERM) for an interrupted
``generate``.

Importing this module loads only the configuration; each subcommand imports
the pipeline modules it runs when it starts.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .config import RunConfig, checked, write_reference
from .dataio import atomic_write, write_json
from .errors import ConfigError, FakewakeError, OracleFailure, ParseFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_INTERRUPTED = 128 + 2    # SIGINT
EXIT_TERMINATED = 128 + 15    # SIGTERM


def _load_archive(path):
    from .archive import FuzzyArchive

    try:
        return FuzzyArchive.load(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"archive not found: {path}") from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"archive {path} is not readable: {exc!r}") \
            from exc


def _wake_genome(cfg: RunConfig):
    from .genome import wake_genome

    try:
        return wake_genome(cfg.language, cfg.wake_word, cfg.length_ratio)
    except ParseFailure as exc:
        raise ConfigError(f"wake word not parseable: {exc}") from exc


def _slots(cfg: RunConfig, language: str, wake_word: str) -> int:
    from .explain import default_slots

    slots = cfg.explain.slots
    return slots if slots is not None else default_slots(
        language, wake_word, cfg.length_ratio)


def _check_output(path: str):
    """Exit 2 before any work when ``--output`` cannot become a directory:
    it must be one, or be absent with a directory as its nearest existing
    ancestor. Creates nothing; ``_out_dir`` does, after every other check."""
    out = Path(path)
    # lexists: a dangling symlink exists here and is no directory
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{existing} is not a directory")


def _out_dir(args) -> Path:
    """The output directory, created, without the manifest of an earlier
    run. Commands call this only once every check has passed, so a rejected
    config leaves no directory behind, and write the manifest last, so a
    directory without one holds an unfinished run."""
    out = Path(args.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from exc
    (out / "run_manifest.json").unlink(missing_ok=True)
    return out


def _write_manifest(out: Path, command: str, cfg: RunConfig, seed,
                    extra: dict | None = None):
    """The command's last writes: the reference config, then the manifest
    that marks the directory's outputs complete."""
    doc = {"command": command, "seed": seed, "config": cfg.snapshot()}
    if extra:
        doc.update(extra)
    write_reference(out / "config_reference.json")
    write_json(out / "run_manifest.json", doc)


# ------------------------------------------------------------------ generate

class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised in the search as an interrupt."""


def _terminate(signum, frame):
    raise _Terminated


def cmd_generate(args) -> int:
    import signal

    from .evolve import run
    from .oracle import build_oracle

    cfg = RunConfig.load(args.config, _overrides(args))
    seed = cfg.require_seed()
    wake = _wake_genome(cfg)
    with checked("oracle"):
        oracle, oracle_spec = build_oracle(cfg.oracle, cfg.language,
                                           cfg.wake_word, seed)
    sigterm = signal.signal(signal.SIGTERM, _terminate)
    try:
        out = _out_dir(args)
        archive = run(wake, cfg.wake_word, oracle, cfg.evolve, cfg.variation,
                      cfg.distance, seed, oracle_spec=oracle_spec)
    except (OracleFailure, KeyboardInterrupt) as exc:
        # the archive of every word answered before the stop; no manifest
        partial = getattr(exc, "partial_archive", None)
        if partial is not None:
            _write_archive(out, partial)
        if isinstance(exc, OracleFailure):
            raise
        print("interrupted: " + (
            f"{len(partial.candidates)} fuzzy words archived "
            f"({partial.query_count} oracle queries) -> {out}"
            if partial is not None else "nothing archived"), file=sys.stderr)
        return (EXIT_TERMINATED if isinstance(exc, _Terminated)
                else EXIT_INTERRUPTED)
    finally:
        signal.signal(signal.SIGTERM, sigterm)
        if hasattr(oracle, "close"):
            oracle.close()
    _write_archive(out, archive)
    _write_manifest(out, "generate", cfg, seed,
                    {"query_count": archive.query_count,
                     "archived": len(archive.candidates)})
    print(f"{len(archive.candidates)} fuzzy words archived "
          f"({archive.query_count} oracle queries) -> {out}")
    return EXIT_OK


def _write_archive(out: Path, archive):
    """``archive.json`` and ``summary.tsv``, its candidates by dissimilarity
    descending."""
    from .archive import bucket

    archive.save(out / "archive.json")
    with atomic_write(out / "summary.tsv") as fh:
        fh.write("word\twake_rate\tbucket\tdissimilarity\n")
        for cand in archive.sorted_candidates():
            fh.write(f"{cand.word}\t{cand.objectives.wake_rate}"
                     f"\t{bucket(cand.objectives.wake_rate).value}"
                     f"\t{cand.objectives.dissimilarity}\n")


# ------------------------------------------------------------------- explain

def cmd_explain(args) -> int:
    from .explain import (ArchiveWords, cross_validate, group_factors,
                          rank_decisive_units)

    cfg = RunConfig.load(args.config, _overrides(args))
    archive = _load_archive(args.archive)
    slots = _slots(cfg, archive.language, archive.wake_word)
    words = ArchiveWords(archive, slots)
    wake_units, wake_spoken = words.wake   # fails before any work
    seed = cfg.seed if cfg.seed is not None else archive.seed

    dataset, model, factor_sets = _proxy(cfg, words, seed)
    accuracy = cross_validate(dataset, cfg.proxy, folds=cfg.explain.folds,
                              seed=seed)
    ranked = rank_decisive_units(factor_sets)
    grouping = group_factors(factor_sets, wake_units)

    separation = _separation_report(model, dataset, wake_spoken)
    report = {
        "cv_accuracy": accuracy,
        "samples": {"fuzzy": dataset.count(1), "non_fuzzy": dataset.count(0)},
        "slots": slots,
        "beta": cfg.explain.beta,
        "explained_words": len(factor_sets),
        "difference_spread": grouping.spread,
        "mean_difference": grouping.mean_difference,
        "separation": separation,
        "top_units": [asdict(u) for u in ranked[:10]],
    }
    out = _out_dir(args)
    model.save(out / "model.json")
    write_json(out / "explain_report.json", report)
    with atomic_write(out / "factors.tsv") as fh:
        fh.write("word\tunit\tkind\tposition\tcontribution\tgroup\n")
        for entry in grouping.entries:
            fh.write(f"{entry.word}\t{entry.unit.symbol}\t{entry.unit.kind}"
                     f"\t{entry.unit.position}\t{entry.contribution}"
                     f"\t{entry.group.value}\n")
    with atomic_write(out / "grouping.tsv") as fh:
        fh.write("position\tgroup\tmean_contribution\tcount\n")
        for pos, grp, mean, count in grouping.position_table():
            fh.write(f"{pos}\t{grp}\t{mean}\t{count}\n")
    _write_manifest(out, "explain", cfg, seed,
                    {"archive": str(args.archive)})
    print(f"cv accuracy {accuracy:.4f}; top unit "
          f"{ranked[0].symbol if ranked else 'n/a'} -> {out}")
    return EXIT_OK


def _proxy(cfg: RunConfig, words, seed: int):
    """The explain proxy: its dataset, the model trained on it and the
    decisive factors of the fuzzy words (an ``ArchiveWords``) it classifies
    correctly."""
    from .explain import build_dataset, explain_archive
    from .gbdt import train_gbdt

    dataset = build_dataset(words, seed=seed)
    model = train_gbdt(dataset.features, dataset.labels, cfg.proxy)
    factor_sets = explain_archive(words, model, beta=cfg.explain.beta)
    return dataset, model, factor_sets


def _separation_report(model, dataset, wake_spoken) -> dict:
    """Medians of the proxy dissimilarity score and the plain edit-distance
    baseline over pronunciations (``wake_spoken`` is the wake word's), per
    class."""
    from .distance import levenshtein_many
    from .explain import dissimilarity_score

    scores = dissimilarity_score(model, dataset.features)
    lev = levenshtein_many(dataset.pronunciations, wake_spoken)
    fuzzy = dataset.labels == 1
    return {
        "dissimilarity_score": {"fuzzy_median": _median(scores[fuzzy]),
                                "non_fuzzy_median": _median(scores[~fuzzy])},
        "levenshtein": {"fuzzy_median": _median(lev[fuzzy]),
                        "non_fuzzy_median": _median(lev[~fuzzy])},
    }


def _median(xs) -> float | None:
    """``float(np.median(xs))`` of a NaN-free float array, bit for bit, or
    None for an empty one: the mean of the middle element or of the two
    middle ones, summed from 0.0 as ``np.mean`` does (so -0.0 comes out as
    0.0). ``np.median`` imports ``numpy.ma``, which a cold ``explain`` would
    pay for these four numbers. The separation inputs hold no NaN: proxy
    scores lie in [0, 1] and edit distances are finite."""
    import numpy as np

    if not xs.size:
        return None
    ordered = np.sort(xs)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(0.0 + ordered[mid])
    return float((0.0 + ordered[mid - 1] + ordered[mid]) / 2)


# ------------------------------------------------------------------ mitigate

def cmd_mitigate(args) -> int:
    import numpy as np

    from .archive import Bucket, bucket
    from .explain import ArchiveWords, rank_decisive_units
    from .mitigate import (assemble_triple, evaluate, fuzzy_rate,
                           screening_coverage, strengthen, train_original)

    cfg = RunConfig.load(args.config, _overrides(args))
    seed = cfg.require_seed()
    archive = _load_archive(args.archive)
    if not archive.candidates:
        raise ConfigError("archive has no fuzzy words")
    block, params = cfg.mitigate, cfg.detector

    # which fuzzy words, in the order of ``words.fuzzy``, summary.tsv
    # bands as high
    is_high = [bucket(cand.objectives.wake_rate) is Bucket.HIGH
               for cand in archive.sorted_candidates()]

    words = ArchiveWords(archive, _slots(cfg, archive.language,
                                         archive.wake_word))
    try:
        # parses the wake word first, so a bad one fails before any work
        triple = assemble_triple(words, block, seed, cfg.length_ratio)
    except ConfigError:
        raise   # a data table
    except (OSError, UnicodeDecodeError) as exc:   # or not UTF-8
        raise ConfigError(f"mitigate.collective_path: {exc}") from exc
    conventional, fuzzy, collective = (triple.conventional, triple.fuzzy,
                                       triple.collective)

    original = train_original(conventional.train, params)
    strengthened = strengthen(fuzzy, conventional.train, params)
    report_original = evaluate(original, conventional.test,
                               fuzzy_rate(original, collective))
    report_strengthened = evaluate(strengthened, conventional.test,
                                   fuzzy_rate(strengthened, collective))

    high = fuzzy.take(is_high)
    high_rejected = (int(np.sum(strengthened.predict(high.features) == 0))
                     / len(high)) if high else None

    # screening coverage needs the proxy's decisive-unit ranking
    _, _, factor_sets = _proxy(cfg, words, seed)
    ranked = rank_decisive_units(factor_sets)
    coverage = {str(n): screening_coverage(words.fuzzy.units, ranked, n)
                for n in range(1, block.screening_top_n + 1)}

    report = {
        "original": asdict(report_original),
        "strengthened": asdict(report_strengthened),
        "high_wake_rate_rejected": high_rejected,
        "screening_coverage": coverage,
        "collective_size": len(collective),
        "fuzzy_words": len(fuzzy),
    }
    out = _out_dir(args)
    write_json(out / "mitigation_report.json", report)
    _write_mitigation_table(out / "mitigation_report.txt",
                            report_original, report_strengthened,
                            high_rejected, coverage)
    _write_datasets(out, conventional, fuzzy, collective)
    original.save(out / "detector_original.json")
    strengthened.save(out / "detector_strengthened.json")
    _write_manifest(out, "mitigate", cfg, seed, {"archive": str(args.archive)})
    print(f"fuzzy rate {report_original.fuzzy_rate:.4f} -> "
          f"{report_strengthened.fuzzy_rate:.4f} -> {out}")
    return EXIT_OK


def _write_mitigation_table(path, original, strengthened, high_rejected,
                            coverage):
    rows = [
        ("false positive rate", original.false_positive_rate,
         strengthened.false_positive_rate),
        ("false negative rate", original.false_negative_rate,
         strengthened.false_negative_rate),
        ("accuracy", original.accuracy, strengthened.accuracy),
        ("fuzzy rate", original.fuzzy_rate, strengthened.fuzzy_rate),
    ]
    with atomic_write(path) as fh:
        fh.write(f"{'metric':<22}{'original':>12}{'strengthened':>14}\n")
        for name, a, b in rows:
            fh.write(f"{name:<22}{a:>12.4f}{b:>14.4f}\n")
        if high_rejected is not None:
            fh.write(f"\nhigh-wake-rate fuzzy words rejected: "
                     f"{high_rejected:.4f}\n")
        for n, cov in coverage.items():
            fh.write(f"screening coverage top-{n}: {cov:.4f}\n")


def _write_datasets(out: Path, conventional, fuzzy, collective):
    data_dir = out / "datasets"
    (data_dir / "conventional").mkdir(parents=True, exist_ok=True)
    for path, rows in ((data_dir / "conventional" / "train.tsv",
                        conventional.train),
                       (data_dir / "conventional" / "test.tsv",
                        conventional.test),
                       (data_dir / "fuzzy.tsv", fuzzy)):
        with atomic_write(path) as fh:
            fh.write("word\tlabel\n")
            for text, label in zip(rows.texts, rows.labels.tolist()):
                fh.write(f"{text}\t{label}\n")
    with atomic_write(data_dir / "collective.txt") as fh:
        for text in collective.texts:
            fh.write(text + "\n")


# ---------------------------------------------------------------- dist etc.

def cmd_dist(args) -> int:
    from .distance import objective

    cfg = RunConfig.load(args.config, _overrides(args))
    print(objective(args.word2, cfg.language, cfg.distance)(args.word1))
    return EXIT_OK


def cmd_validate(args) -> int:
    from .phonemes import LetterWord, g2p
    from .pinyin import parse_pinyin, unit_tables

    cfg = RunConfig.load(args.config, _overrides(args))
    word = args.word
    if cfg.language == "zh":
        parsed = parse_pinyin(word)
        tables = unit_tables()
        for syl, text in zip(parsed.syllables, word.split()):
            print(f"{text}\tinitial={tables.initial_by_index[syl.initial]}"
                  f"\tfinal={tables.final_by_index[syl.final]}\ttone={syl.tone}")
    else:
        phones = ["|" if p == " " else p for p in g2p(LetterWord(word))]
        print(f"{word}\tphonemes={' '.join(phones)}")
    return EXIT_OK


# ------------------------------------------------------------------- parser

def _overrides(args) -> dict:
    out: dict = {}
    if getattr(args, "language", None):
        out["language"] = args.language
    if getattr(args, "wake_word", None):
        out["wake_word"] = args.wake_word
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    oracle = getattr(args, "oracle", None)
    if oracle:
        if oracle == "sim":
            out["oracle"] = {"kind": "sim"}
        elif oracle.startswith("exec:"):
            out["oracle"] = {"kind": "exec", "command": oracle[5:]}
        else:
            raise ConfigError(f"--oracle must be 'sim' or 'exec:<command>', "
                              f"got {oracle!r}")
    if getattr(args, "generations", None) is not None:
        out.setdefault("evolve", {})["generations"] = args.generations
    if getattr(args, "population", None) is not None:
        out.setdefault("evolve", {})["population_size"] = args.population
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fakewake",
        description="Fuzzy wake-word laboratory: generate, explain, mitigate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--language", choices=["en", "zh"])
        p.add_argument("--wake-word", dest="wake_word")
        p.add_argument("--seed", type=int)
        if output:
            p.add_argument("--output", default="out",
                           help="output directory (default: ./out)")

    p = sub.add_parser("generate", help="search for fuzzy words")
    common(p)
    p.add_argument("--oracle", help="sim or exec:<command>")
    p.add_argument("--generations", type=int)
    p.add_argument("--population", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("explain", help="train the proxy and extract factors")
    common(p)
    p.add_argument("--archive", required=True, help="archive.json from generate")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("mitigate", help="screening coverage and strengthening")
    common(p)
    p.add_argument("--archive", required=True, help="archive.json from generate")
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("dist", help="distance between two words")
    common(p, output=False)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("validate", help="check a word against the language")
    common(p, output=False)
    p.add_argument("word")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "output"):
            _check_output(args.output)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except FakewakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
