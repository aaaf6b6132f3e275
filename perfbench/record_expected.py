"""Record the outputs the benchmark checks against, from the current sources.

    python3 perfbench/record_expected.py

Writes, under perfbench/expected/:
  verify_rows.json     the verify row texts per suite, at the default caps
                       and at the small cap the self-test uses
  chord_tallies.json   the chord-lift cases with a digest of each tally
  cli_seed0.json       argv digest -> output digest of each cli-session item
                       of the first sessions of the default seed

Run it only on a commit whose outputs are known to be right: the files in
the repository were recorded from the seed commit, and later changes are
checked against them.  It refuses to record a failing verify row.
"""

import json
import sys

from worker import _run_item
from workloads import (
    CLI_RECORDED_PASSES, DEFAULT_SEED, EXPECTED, SMALL_VERIFY_CAP, cli_session, digest, tally_text,
)

CHORD_CASES = ((4, 3), (3, 2), (3, 3), (3, 4))


def _write(name: str, obj) -> None:
    with open(EXPECTED / name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=0)
        fh.write("\n")


def main() -> int:
    sys.path.insert(0, str(EXPECTED.parent.parent / "src"))
    import qskein
    import qskein.cli
    from qskein.chords import all_diagrams
    from qskein.verify import SUITE_ORDER

    rows = {}
    for size, cap in (("default", None), ("small", SMALL_VERIFY_CAP)):
        rows[size] = {}
        for tag in SUITE_ORDER:
            got = _run_item(qskein, ["verify", tag, cap])["rows"]
            bad = [text for ok, text in got if not ok]
            if bad:
                print("refusing to record: FAIL %s" % bad[0], file=sys.stderr)
                return 1
            rows[size][tag] = [text for _, text in got]
    _write("verify_rows.json", rows)

    cases = []
    for n, m in CHORD_CASES:
        for d in all_diagrams(n):
            pairs = [list(p) for p in d.pairs]
            tally = _run_item(qskein, ["chords", pairs, m])["tally"]
            cases.append({"pairs": pairs, "m": m, "digest": digest(tally_text(tally))})
    _write("chord_tallies.json", cases)

    session = {}
    for k in range(CLI_RECORDED_PASSES):
        for argv in cli_session(DEFAULT_SEED, k):
            out = _run_item(qskein, ["cli", argv])
            if out["rc"] != 0:
                print("refusing to record: qskein %s exited %d" % (" ".join(argv), out["rc"]), file=sys.stderr)
                return 1
            session[digest(json.dumps(argv))] = digest(out["out"])
    _write("cli_seed%d.json" % DEFAULT_SEED, session)
    return 0


if __name__ == "__main__":
    sys.exit(main())
