"""fakewake benchmark.

    python3 perfbench/run.py --workload en-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Every stage runs through ``fakewake.cli.main`` with the argv a user
would type, in this process, one invocation at a time.

Workloads (the reason for each is in BENCHMARK.json):

* ``en-pipeline``: generate, explain, mitigate on the alexa fixture (search
  seed 7, decisive unit 3, weight 0.6, simulated oracle seed 1007). The
  explain proxy has 50 trees and 5 folds instead of the defaults 100 and 10,
  which halves the TreeSHAP and training time of a repetition so that two
  repetitions of each workload fit in a run.
* ``zh-pipeline``: the same stages and proxy size on "xiǎo dù xiǎo dù"
  (search seed 9, decisive unit 1, oracle seed 2024). The bundled collective
  is English-only and ``mitigate`` on a zh wake word exits 2 on it, so the
  run writes a collective of 5,600 distinct valid four-syllable Mandarin
  words drawn from the workload seed and passes it through
  ``mitigate.collective_path``.
* ``en-exec-sweep``: generate only, for search seeds 1 to 10, against
  ``--oracle exec:`` running ``oracle_stub.py`` (the fixture detector behind
  the line protocol).

The workload seed sets the ``--seed`` of explain and mitigate (fold shuffle,
downsampling, the synthetic conventional dataset), the Mandarin collective,
and the order of the exec sweep, whose first seed is also cross-checked
against ``--oracle sim``. The search seeds stay fixed: query and fuzzy-word
counts vary by about 30% from one search seed to the next, which would
swamp any bound.

One run:

1. The lazy tables are built in this process, then the workload repeats (a
   repetition runs every invocation once, always into the same directory)
   at least twice and while another repetition fits in ``--seconds``.
   ``pipeline_s`` is the median time of a repetition.
2. ``setup_s``: the median time of several fresh interpreters that import
   ``fakewake.cli`` and build the lazy tables.
3. Checks, which count towards ``failed``: every invocation exits 0,
   ``cv_accuracy`` >= 0.80, every repetition's output files are
   byte-identical to the first one's and, on the exec sweep, the archive
   equals the ``--oracle sim`` archive except for the oracle spec.

Every timed interval is scaled to a reference machine speed measured by
``probe()`` just before and after it (see there); the wall times are in the
detail line. The run pins itself, and so the oracle subprocess and the
set-up interpreters it starts, to one CPU: exec-oracle round trips between
two CPUs of a shared VM took up to 5 times as long from one repetition to
the next, and on one CPU they vary by about a tenth.

With ``--trace 1`` the run makes one untraced repetition and one with the
shims of ``spans.py`` installed, checks that their outputs are
byte-identical and reports the per-layer metrics of the traced one. The
spans are written to ``.perfbench_work/<workload>/spans.jsonl``.

Stdout ends with a line holding the run's details (environment, seeds,
every repetition's times, output quality) and then the result line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")   # relative to ROOT, the working directory

WORKLOADS = ("en-pipeline", "zh-pipeline", "en-exec-sweep")
FIXTURES = {
    "en": {"language": "en", "wake_word": "alexa", "seed": 7,
           "oracle": {"decisive_unit": 3, "decisive_weight": 0.6,
                      "seed": 1007},
           "explain": {"folds": 5, "n_trees": 50}},
    "zh": {"language": "zh", "wake_word": "xiǎo dù xiǎo dù", "seed": 9,
           "oracle": {"decisive_unit": 1, "decisive_weight": 0.6,
                      "seed": 2024},
           "explain": {"folds": 5, "n_trees": 50}},
}
HEAVY_UNIT = {"en": "K", "zh": "iao"}   # symbol of each oracle's decisive unit
SWEEP_SEEDS = range(1, 11)
COLLECTIVE_WORDS = 5600
MIN_CV_ACCURACY = 0.80
SETUP_REPEATS = 9
TRACE_SETUP_REPEATS = 3   # the traced run only needs the table build time
# Nominal time of probe(): the fast state of a 2-vCPU Intel Xeon VM
# (Python 3.11.7). Timings are scaled to it; see probe().
PROBE_REF_S = 0.00875
SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import fakewake.cli
from fakewake.embedding import embedding_table
from fakewake.phonemes import g2p_converter, inventory
from fakewake.pinyin import unit_tables
t1 = time.perf_counter()
embedding_table()
t2 = time.perf_counter()
inventory(); g2p_converter(); unit_tables()
print(json.dumps({"import_s": t1 - t0, "table_build_s": t2 - t1}))
"""


def environment(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "workload_seed": seed}


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    On a shared VM the same work takes up to 1.7 times longer from one
    second to the next, and a batch of runs can drift by 30%. Every timed
    interval is therefore scaled by PROBE_REF_S over the mean of the probes
    taken just before and just after it, which reports it in seconds at the
    reference speed. A probe is the median of five short loops, so that one
    hiccup does not move it. The raw wall times are in the detail line."""
    loops = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        loops.append(time.perf_counter() - t0)
    return statistics.median(loops)


class Clock:
    """Times a sequence of intervals with a probe between each two."""

    def __init__(self):
        self.last_probe = probe()

    def time(self, fn, *args, **kwargs):
        """(result, wall seconds, seconds at the reference speed)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        before, self.last_probe = self.last_probe, probe()
        return result, wall, wall * 2 * PROBE_REF_S / (before +
                                                        self.last_probe)


def measure_setup(repeats: int) -> tuple[list[float], list[float],
                                         list[float]]:
    """Wall and reference-speed times of fresh interpreters doing the set-up
    every CLI invocation pays, and the embedding-table build time each of
    them reports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scaled, builds = [], [], []
    clock = Clock()
    for _ in range(repeats):
        proc, wall, at_ref = clock.time(
            subprocess.run, [sys.executable, "-c", SETUP_CODE], env=env,
            capture_output=True, text=True, check=True)
        walls.append(wall)
        scaled.append(at_ref)
        builds.append(json.loads(proc.stdout)["table_build_s"])
    return walls, scaled, builds


def warm_tables():
    from fakewake.embedding import embedding_table
    from fakewake.phonemes import g2p_converter, inventory
    from fakewake.pinyin import unit_tables
    embedding_table(), inventory(), g2p_converter(), unit_tables()


def write_collective(path: Path, seed: int):
    """Distinct valid four-syllable Mandarin words drawn from the seed."""
    from fakewake.pinyin import (Syllable, parse_pinyin, render_syllable,
                                 unit_tables)
    pairs = sorted(unit_tables().valid_pairs)
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < COLLECTIVE_WORDS:
        word = " ".join(
            render_syllable(Syllable(*rng.choice(pairs), rng.randint(1, 4)))
            for _ in range(4))
        if word != FIXTURES["zh"]["wake_word"]:
            parse_pinyin(word)   # the rendering must read back
            words.add(word)
    path.write_text("".join(w + "\n" for w in sorted(words)),
                    encoding="utf-8")


def stub_command(fixture: dict) -> str:
    oracle = fixture["oracle"]
    return shlex.join([
        sys.executable, "perfbench/oracle_stub.py",
        "--language", fixture["language"], "--wake-word", fixture["wake_word"],
        "--decisive-unit", str(oracle["decisive_unit"]),
        "--decisive-weight", str(oracle["decisive_weight"]),
        "--seed", str(oracle["seed"])])


class Workload:
    """The CLI invocations of one repetition, written against a fixed
    directory so that every repetition's outputs can be byte-compared."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.language = "zh" if name == "zh-pipeline" else "en"
        fixture = dict(FIXTURES[self.language])
        self.stage_seed = seed % 2 ** 32
        self.sweep = random.Random(seed).sample(list(SWEEP_SEEDS),
                                                len(SWEEP_SEEDS))
        if self.language == "zh":
            collective = work / "collective.txt"
            write_collective(collective, seed)
            fixture["mitigate"] = {"collective_path": str(collective)}
        self.config = work / "config.json"
        self.config.write_text(json.dumps(fixture, ensure_ascii=False,
                                          indent=2), encoding="utf-8")
        self.oracle = stub_command(fixture)

    def invocations(self, live: Path) -> list[tuple[str, str, list[str]]]:
        """(stage, output subdirectory, argv) in order."""
        config = ["--config", str(self.config)]
        if self.name == "en-exec-sweep":
            return [("generate", f"generate-{k}",
                     ["generate", *config, "--seed", str(k),
                      "--oracle", "exec:" + self.oracle,
                      "--output", str(live / f"generate-{k}")])
                    for k in self.sweep]
        archive = str(live / "generate" / "archive.json")
        seed = ["--seed", str(self.stage_seed)]
        return [
            ("generate", "generate",
             ["generate", *config, "--output", str(live / "generate")]),
            ("explain", "explain",
             ["explain", *config, *seed, "--archive", archive,
              "--output", str(live / "explain")]),
            ("mitigate", "mitigate",
             ["mitigate", *config, *seed, "--archive", archive,
              "--output", str(live / "mitigate")]),
        ]


def invoke(argv: list[str], tracer=None, stage: str = "", label: str = ""):
    """One CLI invocation: (exit code, or None if it raised; its stderr)."""
    from fakewake.cli import main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = (tracer.stage(stage, label, main, argv) if tracer
                    else main(argv))
        except Exception:
            code = None
            traceback.print_exc(file=err)
    return code, err.getvalue()


def run_rep(plan, live: Path, index: int, tracer=None) -> dict:
    shutil.rmtree(live, ignore_errors=True)
    live.mkdir()
    times, failures = [], []
    clock = Clock()
    for stage, name, argv in plan:
        (code, err), wall, at_ref = clock.time(invoke, argv, tracer, stage,
                                               name)
        times.append([stage, name, wall, at_ref])
        if code != 0:
            failures.append({"rep": index, "invocation": name, "exit": code,
                             "stderr": err[-2000:]})
    return {"wall_s": sum(t[2] for t in times),
            "total_s": sum(t[3] for t in times),
            "times": times, "failures": failures}


def stage_median(reps: list[dict], stage: str) -> float:
    """Median over repetitions of the time spent in one stage, at the
    reference speed."""
    return statistics.median(sum(t[3] for t in r["times"] if t[0] == stage)
                             for r in reps)


def digest(tree: Path) -> dict[str, str]:
    return {str(p.relative_to(tree)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tree.rglob("*")) if p.is_file()}


def read_json(path: Path):
    with contextlib.suppress(OSError, ValueError):
        return json.loads(path.read_text(encoding="utf-8"))
    return None


def quality(workload: Workload, out: Path) -> dict:
    """Counts and output quality read from one repetition's files."""
    names = [name for stage, name, _ in workload.invocations(out)
             if stage == "generate"]
    archives = [read_json(out / n / "archive.json") or {} for n in names]
    queries = sum(a.get("run", {}).get("query_count", 0) for a in archives)
    fuzzy = sum(len(a.get("candidates", [])) for a in archives)
    result = {"oracle_queries": queries, "fuzzy_words": fuzzy,
              "queries_per_fuzzy_word": queries / fuzzy if fuzzy else 0.0,
              "cv_accuracy": 0.0, "fuzzy_rate_ratio": 0.0,
              "decisive_unit_top3": 0}
    if workload.name == "en-exec-sweep":
        return result
    report = read_json(out / "explain" / "explain_report.json") or {}
    result["cv_accuracy"] = report.get("cv_accuracy", 0.0)
    top3 = [u["symbol"] for u in report.get("top_units", [])[:3]]
    result["decisive_unit_top3"] = int(HEAVY_UNIT[workload.language] in top3)
    mitigation = read_json(out / "mitigate" / "mitigation_report.json")
    if mitigation:
        original = mitigation["original"]["fuzzy_rate"]
        strengthened = mitigation["strengthened"]["fuzzy_rate"]
        result["fuzzy_rate_ratio"] = (strengthened / original
                                      if original else 0.0)
    return result


def sim_cross_check(workload: Workload, work: Path, exec_archive: Path):
    """Run the first sweep seed with ``--oracle sim``; the archive must equal
    the exec-oracle one except for ``run.oracle``. Returns a failure record
    or None."""
    seed = workload.sweep[0]
    out = work / "sim-check"
    code, err = invoke(["generate", "--config", str(workload.config),
                        "--seed", str(seed), "--oracle", "sim",
                        "--output", str(out)])
    if code != 0:
        return {"invocation": "sim-check", "exit": code, "stderr": err[-2000:]}
    docs = [read_json(p) for p in (exec_archive, out / "archive.json")]
    for doc in docs:
        if doc is not None:
            doc["run"].pop("oracle")
    if docs[0] is None or docs[0] != docs[1]:
        return {"invocation": "sim-check",
                "check": f"exec archive of seed {seed} differs from sim"}
    return None


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def output_bytes(tree: Path) -> int:
    return sum(p.stat().st_size for p in tree.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fakewake benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fakewake" / "cli.py").is_file():
        print(f"no fakewake package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)   # before pinning, for the CPU count
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warm_tables()
    workload = Workload(args.workload, args.seed, work)
    live, first = work / "live", work / "rep0"

    tracer = None
    reps: list[dict] = []
    mismatched: list[dict] = []
    started = time.perf_counter()
    plan = workload.invocations(live)
    while True:
        if args.trace and len(reps) == 1:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            rep = run_rep(plan, live, len(reps), tracer)
        finally:
            if tracer:
                tracer.uninstall()
        rep["output_bytes"] = output_bytes(live)
        rep["quality"] = quality(workload, live)
        reps.append(rep)
        if len(reps) == 1:
            live.rename(first)
        else:
            for _, name, _ in plan:
                if digest(live / name) != digest(first / name):
                    mismatched.append({"rep": len(reps) - 1,
                                       "invocation": name,
                                       "check": "outputs differ from rep 0"})
            shutil.rmtree(live)
        if len(reps) >= 2 and (args.trace or time.perf_counter() - started
                               + statistics.median(r["wall_s"] for r in reps)
                               > args.seconds):
            break
    # after the repetitions: a child process slows this one for a moment
    setup_walls, setup_s, table_builds = measure_setup(
        TRACE_SETUP_REPEATS if args.trace else SETUP_REPEATS)

    failures = mismatched + [f for r in reps for f in r["failures"]]
    failures += [{"rep": i, "invocation": "explain",
                  "check": f"cv_accuracy {r['quality']['cv_accuracy']}"}
                 for i, r in enumerate(reps)
                 if workload.name != "en-exec-sweep"
                 and r["quality"]["cv_accuracy"] < MIN_CV_ACCURACY]
    attempted = len(plan) * len(reps)
    if args.workload == "en-exec-sweep":
        attempted += 1
        check = sim_cross_check(
            workload, work, first / f"generate-{workload.sweep[0]}" /
            "archive.json")
        if check:
            failures.append(check)
    # an invocation that fails several checks counts once
    failed = len({(f.get("rep"), f["invocation"]) for f in failures})

    q = reps[0]["quality"]
    untraced = reps[:1] if args.trace else reps
    stage_s = {stage: stage_median(untraced, stage)
               for stage in ("generate", "explain", "mitigate")}

    if args.trace:
        from spans import layer_metrics
        tracer.write_spans(work / "spans.jsonl")
        values = layer_metrics(tracer)
        values.update({
            "embedding.table_build_s": statistics.median(table_builds),
            "cli.output_bytes": reps[1]["output_bytes"],
            "trace.overhead_ratio": reps[1]["total_s"] / reps[0]["total_s"],
            "stage.generate_s": stage_s["generate"],
            "stage.explain_s": stage_s["explain"],
            "stage.mitigate_s": stage_s["mitigate"],
            "explain.cv_accuracy": q["cv_accuracy"],
            "explain.decisive_unit_top3": q["decisive_unit_top3"],
            "mitigate.fuzzy_rate_ratio": q["fuzzy_rate_ratio"],
        })
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "pipeline_s": statistics.median(r["total_s"] for r in reps),
            "peak_rss_mb": rss_mb(),
            "oracle_queries": q["oracle_queries"],
            "fuzzy_words": q["fuzzy_words"],
            "queries_per_fuzzy_word": q["queries_per_fuzzy_word"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "pinned_cpu": cpu,
        "stage_seed": workload.stage_seed, "sweep": workload.sweep,
        "setup_wall_s": setup_walls, "setup_s": setup_s,
        "table_build_s": table_builds,
        "reps": [{k: r[k] for k in ("wall_s", "total_s", "times",
                                    "output_bytes")}
                 for r in reps],
        "quality": q, "failures": failures, "peak_rss_mb": rss_mb(),
    }
    (work / "detail.json").write_text(json.dumps(detail, indent=2),
                                      encoding="utf-8")
    shutil.rmtree(first)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
