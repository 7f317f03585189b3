"""Self-tests of the benchmark's checks on hand-worked and corrupted cases.

    python3 bench/selftest.py

Every benchmark run calls check_self_tests() first and stops on a failure;
each run also corrupts one of its own real outputs and requires the
workload's checks to reject it (Workload.self_test).
"""

from __future__ import annotations

import sys

import checks
from levenshtein import word_errors
from world import Truth

LEVENSHTEIN_CASES = (
    ("", "", 0),
    ("da", "", 1),
    ("", "da re", 2),
    ("da re mi", "da re mi", 0),
    ("da re mi", "da fa mi", 1),  # one substitution
    ("da re mi", "da mi", 1),  # one deletion
    ("da mi", "da re mi", 1),  # one insertion
    ("da re mi fa", "re mi fa so", 2),  # shift: delete da, insert so
    ("da re da re", "re da re da", 2),
    ("da re mi", "so fa da re", 3),
)


def _truth() -> Truth:
    return Truth(10.0, ((1.0, 1.16, "da"), (1.2, 1.36, "re"), (6.0, 6.16, "mi")), ((5.5, 5.8),))


def failures() -> list[str]:
    out = []
    for ref, hyp, want in LEVENSHTEIN_CASES:
        got = word_errors(ref.split(), hyp.split())
        if got != want:
            out.append(f"word_errors({ref!r}, {hyp!r}) = {got}, want {want}")

    truth = _truth()
    good = [(0.9, 1.4), (5.4, 6.2)]
    if checks.coverage_problems(good, truth, 30.0):
        out.append("coverage rejects a correct segmentation")
    bad_cases = {
        "a dropped segment": good[:1],
        "a span over silence only": good + [(8.0, 9.0)],
        "a span over clicks only": [(0.9, 1.4), (5.5, 5.8), (5.9, 6.2)],
        "unsorted spans": good[::-1],
        "a span over max_speech": [(0.0, 7.0)],
    }
    for what, spans in bad_cases.items():
        if not checks.coverage_problems(spans, truth, 5.0):
            out.append(f"coverage accepts {what}")

    if checks.wer_problems(checks.word_error_rate("da re mi fa".split(), "da re mi fa".split()), 0.0):
        out.append("WER check rejects an exact transcript")
    if not checks.wer_problems(checks.word_error_rate("da re mi fa".split(), "da re so fa".split()), 0.2):
        out.append("WER check accepts one changed word in four at a 20% bound")

    if checks.joint_score(-30.0, -50.0, -20.0, 0.5, 0.5) != -50.0:
        out.append("joint score of (-30, -50, -20) at weights 0.5 is not -50")
    if checks.score_problems(-50.0, -50.0):
        out.append("score check rejects an exact decomposition")
    if not checks.score_problems(-50.0 + 1e-3, -50.0):
        out.append("score check accepts a score shifted by 1e-3")

    if checks.gradient_problems(-0.010005, -0.0100):
        out.append("gradient check rejects a 0.05% agreement")
    if not checks.gradient_problems(0.0100, -0.0100):
        out.append("gradient check accepts a flipped sign")
    return out


def check_self_tests() -> None:
    bad = failures()
    if bad:
        for line in bad:
            print(f"self-test: {line}", file=sys.stderr)
        raise SystemExit(3)


if __name__ == "__main__":
    bad = failures()
    for line in bad:
        print(line)
    print("self-tests:", "FAILED" if bad else "ok")
    sys.exit(1 if bad else 0)
