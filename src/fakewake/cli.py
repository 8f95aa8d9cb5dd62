"""Command-line entry point.

Subcommands: generate (search for fuzzy words), explain (train the proxy and
extract decisive factors), mitigate (screening coverage and detector
strengthening), dist (ad-hoc distance between two words), validate (check a
word against the language). Exit codes: 0 success, 2 configuration error,
3 oracle failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, write_reference
from .dataio import atomic_write, write_json
from .distance import chinese_dist, english_dist, levenshtein_dist
from .errors import ConfigError, FakewakeError, OracleFailure
from .evolve import FuzzyArchive, bucket, run
from .explain import (build_dataset, cross_validate, default_slots,
                      dissimilarity_score, explain_archive, feature_matrix,
                      group_factors, rank_decisive_units, _parse_word)
from .gbdt import train_gbdt
from .genome import encode_chinese, encode_english, english_genome_length
from .mitigate import (assemble_triple, evaluate, fuzzy_rate,
                       screening_coverage, strengthen, train_original)
from .oracle import ExternalOracle, SimulatedDetector
from .phonemes import ALPHABET, g2p
from .pinyin import parse_pinyin

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3


def _load_archive(path) -> FuzzyArchive:
    try:
        return FuzzyArchive.load(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"archive not found: {path}") from exc
    except (json.JSONDecodeError, KeyError) as exc:
        raise ConfigError(f"archive file is not readable: {exc}") from exc


def _wake_genome(cfg: RunConfig):
    word = cfg.wake_word
    try:
        if cfg.language == "zh":
            return encode_chinese(parse_pinyin(word))
        bad = set(word) - set(ALPHABET)
        if bad:
            raise ConfigError(
                f"wake word has symbols outside a-z/space: {sorted(bad)}")
        length = english_genome_length(word, cfg.length_ratio)
        return encode_english(word, length)
    except ConfigError:
        raise
    except FakewakeError as exc:
        raise ConfigError(f"wake word not parseable: {exc}") from exc


def _build_oracle(cfg: RunConfig, seed: int):
    block = cfg.raw["oracle"]
    kind = block["kind"]
    if kind == "sim":
        target = block["target"] or cfg.wake_word
        weights = block["unit_weights"]
        if weights is None and block["decisive_unit"] is not None:
            from .oracle import _parse_units

            n = len(_parse_units(target, cfg.language))
            heavy = int(block["decisive_unit"])
            if not 0 <= heavy < n:
                raise ConfigError(f"decisive_unit out of range 0..{n - 1}")
            w = float(block["decisive_weight"])
            rest = (1.0 - w) / (n - 1) if n > 1 else 0.0
            weights = [w if i == heavy else rest for i in range(n)]
        oracle_seed = block["seed"] if block["seed"] is not None else seed + 1000
        det = SimulatedDetector(
            target=target, language=cfg.language,
            unit_weights=tuple(weights) if weights else None,
            threshold=float(block["threshold"]),
            temperature=float(block["temperature"]),
            substitution_floor=float(block["substitution_floor"]),
            seed=int(oracle_seed),
        )
        return det, "sim"
    if kind == "exec":
        if not block["command"]:
            raise ConfigError("oracle kind 'exec' requires a command")
        return (ExternalOracle(block["command"], float(block["timeout"])),
                f"exec:{block['command']}")
    raise ConfigError(f"unknown oracle kind: {kind!r}")


def _slots(cfg: RunConfig, language: str, wake_word: str) -> int:
    configured = cfg.raw["explain"]["slots"]
    if configured is not None:
        return int(configured)
    return default_slots(language, wake_word, cfg.length_ratio)


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, cfg: RunConfig, seed,
                    extra: dict | None = None):
    doc = {"command": command, "seed": seed, "config": cfg.snapshot()}
    if extra:
        doc.update(extra)
    write_json(out / "run_manifest.json", doc)
    write_reference(out / "config_reference.json")


# ------------------------------------------------------------------ generate

def cmd_generate(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    seed = cfg.require_seed()
    out = _out_dir(args)
    wake = _wake_genome(cfg)
    oracle, oracle_spec = _build_oracle(cfg, seed)
    try:
        archive = run(wake, cfg.wake_word, oracle, cfg.evolve_config(),
                      cfg.variation_config(), cfg.distance_config(), seed,
                      oracle_spec=oracle_spec)
    except OracleFailure as exc:
        if exc.partial_archive is not None:
            exc.partial_archive.save(out / "archive.json")
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    finally:
        if hasattr(oracle, "close"):
            oracle.close()
    archive.save(out / "archive.json")
    with atomic_write(out / "summary.tsv") as fh:
        fh.write("word\twake_rate\tbucket\tdissimilarity\n")
        for cand in archive.sorted_candidates():
            fh.write(f"{cand.word}\t{cand.objectives.wake_rate}"
                     f"\t{bucket(cand.objectives.wake_rate).value}"
                     f"\t{cand.objectives.dissimilarity}\n")
    _write_manifest(out, "generate", cfg, seed,
                    {"query_count": archive.query_count,
                     "archived": len(archive.candidates)})
    print(f"{len(archive.candidates)} fuzzy words archived "
          f"({archive.query_count} oracle queries) -> {out}")
    return EXIT_OK


# ------------------------------------------------------------------- explain

def cmd_explain(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    archive = _load_archive(args.archive)
    seed = cfg.seed if cfg.seed is not None else archive.seed
    out = _out_dir(args)
    slots = _slots(cfg, archive.language, archive.wake_word)
    folds = int(cfg.raw["explain"]["folds"])

    dataset, model, factor_sets = _proxy(cfg, archive, slots, seed)
    model.save(out / "model.json")
    accuracy = cross_validate(dataset, cfg.explain_params(), folds=folds,
                              seed=seed)
    ranked = rank_decisive_units(factor_sets)
    wake_parsed = _parse_word(archive.wake_word, archive.language)
    grouping = group_factors(factor_sets, wake_parsed)

    separation = _separation_report(archive, model, dataset)
    report = {
        "cv_accuracy": accuracy,
        "samples": {"fuzzy": dataset.count(1), "non_fuzzy": dataset.count(0)},
        "slots": slots,
        "beta": float(cfg.raw["explain"]["beta"]),
        "explained_words": len(factor_sets),
        "difference_spread": grouping.spread,
        "mean_difference": grouping.mean_difference,
        "separation": separation,
        "top_units": [
            {"symbol": u.symbol, "kind": u.kind,
             "contribution": u.contribution, "words": u.words}
            for u in ranked[:10]
        ],
    }
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


def _proxy(cfg: RunConfig, archive: FuzzyArchive, slots: int, seed: int):
    """The explain proxy: its dataset, the model trained on it and the
    decisive factors of the fuzzy words it classifies correctly."""
    dataset = build_dataset(archive, slots, seed=seed)
    model = train_gbdt(dataset.features, dataset.labels, cfg.explain_params())
    factor_sets = explain_archive(archive, model, slots,
                                  beta=float(cfg.raw["explain"]["beta"]))
    return dataset, model, factor_sets


def _separation_report(archive, model, dataset) -> dict:
    """Medians of the proxy dissimilarity score and the plain edit-distance
    baseline, per class."""
    fuzzy_scores, nonfuzzy_scores = [], []
    fuzzy_lev, nonfuzzy_lev = [], []
    if archive.language == "zh":
        wake_units = [s for s in archive.wake_word.split()]
    else:
        wake_units = g2p(archive.wake_word)
    scores = dissimilarity_score(model, dataset.features)
    for sample, score in zip(dataset.samples, scores.tolist()):
        units = (sample.word.split() if archive.language == "zh"
                 else g2p(sample.word))
        lev = levenshtein_dist(units, wake_units)
        if sample.label == 1:
            fuzzy_scores.append(score)
            fuzzy_lev.append(lev)
        else:
            nonfuzzy_scores.append(score)
            nonfuzzy_lev.append(lev)
    med = lambda xs: float(np.median(xs)) if xs else None
    return {
        "dissimilarity_score": {"fuzzy_median": med(fuzzy_scores),
                                "non_fuzzy_median": med(nonfuzzy_scores)},
        "levenshtein": {"fuzzy_median": med(fuzzy_lev),
                        "non_fuzzy_median": med(nonfuzzy_lev)},
    }


# ------------------------------------------------------------------ mitigate

def cmd_mitigate(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    seed = cfg.require_seed()
    archive = _load_archive(args.archive)
    if not archive.candidates:
        raise ConfigError("archive has no fuzzy words")
    out = _out_dir(args)
    slots = _slots(cfg, archive.language, archive.wake_word)
    block = cfg.raw["mitigate"]
    params = cfg.detector_params()

    triple = assemble_triple(
        archive, slots, n_pos=int(block["n_pos"]), n_neg=int(block["n_neg"]),
        jitter=float(block["jitter"]), seed=seed,
        collective_path=block["collective_path"],
        collective_limit=block["collective_limit"],
        length_ratio=cfg.length_ratio)
    conventional, fuzzy, collective = (triple.conventional, triple.fuzzy,
                                       triple.collective)

    original = train_original(conventional.train, params)
    strengthened = strengthen(fuzzy, conventional.train, params)
    report_original = evaluate(original, conventional.test,
                               fuzzy_rate(original, collective))
    report_strengthened = evaluate(strengthened, conventional.test,
                                   fuzzy_rate(strengthened, collective))

    high = [s for s in fuzzy
            if archive.candidates[s.word].objectives.wake_rate >= 0.8]
    high_rejected = (int(np.sum(strengthened.predict(feature_matrix(high))
                                == 0)) / len(high)) if high else None

    # screening coverage needs the proxy's decisive-unit ranking
    _, _, factor_sets = _proxy(cfg, archive, slots, seed)
    ranked = rank_decisive_units(factor_sets)
    fuzzy_words = [c.word for c in archive.sorted_candidates()]
    top_n = int(block["screening_top_n"])
    coverage = {
        str(n): screening_coverage(fuzzy_words, archive.language, ranked, n)
        for n in range(1, top_n + 1)
    }

    report = {
        "original": report_original.to_json(),
        "strengthened": report_strengthened.to_json(),
        "high_wake_rate_rejected": high_rejected,
        "screening_coverage": coverage,
        "collective_size": len(collective),
        "fuzzy_words": len(fuzzy),
    }
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
    for name, rows in (("train", conventional.train),
                       ("test", conventional.test)):
        with atomic_write(data_dir / "conventional" / f"{name}.tsv") as fh:
            fh.write("word\tlabel\n")
            for s in rows:
                fh.write(f"{s.word}\t{s.label}\n")
    with atomic_write(data_dir / "fuzzy.tsv") as fh:
        fh.write("word\tlabel\n")
        for s in fuzzy:
            fh.write(f"{s.word}\t{s.label}\n")
    with atomic_write(data_dir / "collective.txt") as fh:
        for s in collective:
            fh.write(s.word + "\n")


# ---------------------------------------------------------------- dist etc.

def cmd_dist(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    dist_cfg = cfg.distance_config()
    if cfg.language == "zh":
        value = chinese_dist(parse_pinyin(args.word1), parse_pinyin(args.word2),
                             dist_cfg)
    else:
        value = english_dist(g2p(args.word1.lower()), g2p(args.word2.lower()),
                             dist_cfg)
    print(value)
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = RunConfig.load(args.config, _overrides(args))
    word = args.word
    if cfg.language == "zh":
        parsed = parse_pinyin(word)
        from .pinyin import unit_tables

        tables = unit_tables()
        for syl, text in zip(parsed.syllables, word.split()):
            print(f"{text}\tinitial={tables.initial_by_index[syl.initial]}"
                  f"\tfinal={tables.final_by_index[syl.final]}\ttone={syl.tone}")
    else:
        bad = set(word) - set(ALPHABET)
        if bad:
            raise ConfigError(f"symbols outside a-z/space: {sorted(bad)}")
        phones = ["|" if p == " " else p for p in g2p(word)]
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
