"""Line-protocol wake oracle backed by the simulated detector.

Speaks the ``--oracle exec:<command>`` protocol: one candidate word per line
on stdin, one reply line on stdout, ``1`` for wake and ``0`` for no wake.
The detector is built the way ``--oracle sim`` builds it from a config with
``oracle.decisive_unit`` and ``oracle.decisive_weight``, so an archive found
through this stub equals the ``sim`` archive for the same seed except for
the oracle spec string.

    python3 perfbench/oracle_stub.py --language en --wake-word alexa \
        --decisive-unit 3 --decisive-weight 0.6 --seed 1007
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fakewake.embedding import word_units  # noqa: E402
from fakewake.oracle import SimulatedDetector  # noqa: E402
from fakewake.phonemes import LetterWord  # noqa: E402
from fakewake.pinyin import parse_pinyin  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--language", choices=["en", "zh"], required=True)
    parser.add_argument("--wake-word", required=True)
    parser.add_argument("--decisive-unit", type=int, required=True)
    parser.add_argument("--decisive-weight", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    word = (parse_pinyin(args.wake_word) if args.language == "zh"
            else LetterWord(args.wake_word))
    n = len(word_units(word))
    w = args.decisive_weight
    rest = (1.0 - w) / (n - 1) if n > 1 else 0.0
    detector = SimulatedDetector(
        target=args.wake_word, language=args.language,
        unit_weights=tuple(w if i == args.decisive_unit else rest
                           for i in range(n)),
        seed=args.seed)

    for line in iter(sys.stdin.readline, ""):
        sys.stdout.write("1\n" if detector.query(line.rstrip("\n")) else "0\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
