"""Workload inputs and output checks for the qskein benchmark.

Inputs depend only on the workload name, the seed and the size, and the
program under test receives them as plain data.  The checks run in the
parent process, outside every timed window.  Each compares an output with
an independent route through the library, and with what the seed commit
printed where that was recorded (see record_expected.py).

Item shapes, as JSON lists:
  ["verify", tag, cap]        run_suite(tag, cap); cap None is the default
  ["cli", argv]               qskein.cli.main(argv), stdout captured
  ["chords", pairs, m]        psi_chords(ChordDiagram(pairs), m)
"""

import hashlib
import json
import math
import random
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("verify-default", "cli-session", "chord-lifts")

# Outputs of this seed were recorded from the seed commit and are compared
# digest by digest, on top of the independent-route checks.
DEFAULT_SEED = 0

SMALL_CLI_ITEMS = 20
CLI_RECORDED_PASSES = 12   # sessions of the default seed with recorded digests
SMALL_VERIFY_CAP = 2
SMALL_CHORD_CASES = ((3, 2),)

TORUS_PAIRS = [
    (m, p)
    for m in range(2, 6)
    for p in range(1, 19)
    if (m - 1) * p <= 18 and math.gcd(m, p) == 1
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def load_expected(name: str):
    with open(EXPECTED / name, encoding="utf-8") as fh:
        return json.load(fh)


def _partition_text(rng, size: int) -> str:
    parts = []
    left = size
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return "(" + ",".join(str(k) for k in sorted(parts, reverse=True)) + ")"


def _closure_argv(rng, n: int, length: int) -> list:
    letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
    argv = ["closure", " ".join(str(j) for j in letters), "--json"]
    if rng.random() < 0.5:
        argv += ["--strands", str(n)]
    return argv


def cli_session(seed: int, pass_index: int) -> list:
    """The argv lists of one session: 135 closures (56%), 44 torus (18%),
    21 q, 20 lr and 20 pm, shuffled.

    The sizes are stratified, so that sessions differ in their random
    letters and partitions but not in their mix: closures cycle through
    2-4 strands and 6-20 letters, torus items take each (m, p) of
    TORUS_PAIRS twice, q items cycle through 1-5 cells and pm through 1-6.
    """
    rng = random.Random("%d/%d" % (seed, pass_index))
    session = []
    for j in range(135):
        session.append(_closure_argv(rng, 2 + j % 3, 6 + (j // 3) % 15))
    for m, p in TORUS_PAIRS * 2:
        sl = rng.randint(2, 4)
        session.append(["torus", str(m), str(p), "--sl", str(sl), "--h-order", "4", "--normalize", "--json"])
    form = lambda: ["--json"] if rng.random() < 0.5 else []  # noqa: E731
    for j in range(21):
        session.append(["q", _partition_text(rng, 1 + j % 5)] + form())
    for _ in range(20):
        session.append(["lr", _partition_text(rng, rng.randint(1, 4)), _partition_text(rng, rng.randint(1, 4))] + form())
    for j in range(20):
        session.append(["pm", str(1 + j % 6)] + form())
    rng.shuffle(session)
    return session


def make_items(workload: str, seed: int, small: bool, pass_index: int = 0) -> list:
    """The items of one pass.  Only cli-session depends on the seed, and
    there each pass is a session of its own, so that a run's median spans
    several sessions; the other workloads repeat fixed inputs."""
    if workload == "verify-default":
        rows = load_expected("verify_rows.json")["small" if small else "default"]
        cap = SMALL_VERIFY_CAP if small else None
        return [["verify", tag, cap] for tag in rows]
    if workload == "cli-session":
        session = cli_session(seed, pass_index)
        return [["cli", argv] for argv in session[:SMALL_CLI_ITEMS if small else None]]
    if workload == "chord-lifts":
        cases = load_expected("chord_tallies.json")
        if small:
            cases = [c for c in cases if (len(c["pairs"]), c["m"]) in SMALL_CHORD_CASES]
        return [["chords", c["pairs"], c["m"]] for c in cases]
    raise ValueError("unknown workload %r" % workload)


def item_label(item) -> str:
    if item[0] == "verify":
        return "verify " + item[1]
    if item[0] == "cli":
        return "qskein " + " ".join(item[1])
    return "psi_chords %s m=%d" % (item[1], item[2])


def tally_text(tally) -> str:
    """Printed form of a chord tally, as `qskein psi-chords` prints it."""
    return "\n".join("%d  %s" % (n, d) for d, n in tally)


class Checker:
    """Checks outputs of one workload.  Verdicts are memoised by item and
    output, so repeated passes with identical outputs cost one check."""

    def __init__(self, workload: str, seed: int, small: bool):
        self._memo: dict = {}
        self._digests: dict = {}
        if workload == "verify-default":
            self._rows = load_expected("verify_rows.json")["small" if small else "default"]
        elif workload == "cli-session" and seed == DEFAULT_SEED:
            # argv digest -> output digest
            self._digests = load_expected("cli_seed%d.json" % DEFAULT_SEED)
        elif workload == "chord-lifts":
            for c in load_expected("chord_tallies.json"):
                self._digests[json.dumps([c["pairs"], c["m"]])] = c["digest"]

    def attempts(self, item) -> int:
        """How many checked outcomes the item stands for."""
        if item[0] == "verify":
            return len(self._rows[item[1]])
        return 1

    def check(self, item, out) -> tuple[int, list[str]]:
        """Return (failed count, messages) for one item's output; out is
        None when the item never finished."""
        if out is None:
            return self.attempts(item), ["%s: did not finish" % item_label(item)]
        if "error" in out:
            return self.attempts(item), ["%s: raised %s" % (item_label(item), out["error"])]
        key = json.dumps([item, out], sort_keys=True)
        verdict = self._memo.get(key)
        if verdict is None:
            kind = item[0]
            try:
                if kind == "verify":
                    verdict = self._check_verify(item, out)
                elif kind == "cli":
                    verdict = self._check_cli(item[1], out)
                else:
                    verdict = self._check_chords(item, out)
            except Exception as err:  # a malformed output fails its item, not the run
                verdict = self.attempts(item), ["%s: check raised %s: %s" % (item_label(item), type(err).__name__, err)]
            self._memo[key] = verdict
        return verdict

    def _check_verify(self, item, out):
        tag = item[1]
        want = self._rows[tag]
        got = out["rows"]
        failed = 0
        msgs = []
        for i, text in enumerate(want):
            if i >= len(got):
                failed += 1
                msgs.append("verify %s: missing row %r" % (tag, text))
                continue
            ok, got_text = got[i]
            if not ok or got_text != text:
                failed += 1
                msgs.append("verify %s: %s %r, want PASS %r" % (tag, "PASS" if ok else "FAIL", got_text, text))
        if len(got) > len(want):
            failed += len(got) - len(want)
            msgs.append("verify %s: %d extra rows" % (tag, len(got) - len(want)))
        return failed, msgs

    def _check_chords(self, item, out):
        _, pairs, m = item
        tally = out["tally"]
        msgs = []
        total = sum(n for _, n in tally)
        if total != m ** (2 * len(pairs)):
            msgs.append("%s: tally totals %d, want %d" % (item_label(item), total, m ** (2 * len(pairs))))
        want = self._digests.get(json.dumps([pairs, m]))
        if want is not None and digest(tally_text(tally)) != want:
            msgs.append("%s: tally differs from the recorded one" % item_label(item))
        return (1 if msgs else 0), msgs

    def _check_cli(self, argv, out):
        label = "qskein " + " ".join(argv)
        if out["rc"] != 0:
            return 1, ["%s: exit %d: %s" % (label, out["rc"], out["err"].strip())]
        msgs = []
        want = self._digests.get(digest(json.dumps(argv)))
        if want is not None and digest(out["out"]) != want:
            msgs.append("%s: output differs from the recorded one" % label)
        if not _cli_matches(argv, out["out"]):
            msgs.append("%s: output disagrees with the independent route" % label)
        return (1 if msgs else 0), msgs


def _cli_matches(argv, printed: str) -> bool:
    """Recompute a CLI answer by another route and compare.

    closure: through the Hecke algebra, closure(from_word(w)), instead of
    descending resolution on the word.  torus: the same, then specialised
    and expanded.  q: theta of the one-term diagram vector.  pm: the power
    sum image theta(psi_m) * [m].  lr: the product in the other order.
    """
    from qskein import jsonio
    from qskein.adams_skein import power_sum_image, torus_braid
    from qskein.annulus import closure, epsilon_plane, theta
    from qskein.diagram_ring import DiagramVector
    from qskein.hecke import BraidWord, from_word
    from qskein.partitions import Partition, lr_product
    from qskein.scalars import Scalar, h_expand, specialize_sln

    def partition(text):
        return Partition(tuple(int(k) for k in text.strip("()").split(",")))

    cmd = argv[0]
    as_json = "--json" in argv
    text = printed.rstrip("\n")
    if cmd == "closure":
        letters = [int(t) for t in argv[1].split()]
        if "--strands" in argv:
            strands = int(argv[argv.index("--strands") + 1])
        else:
            strands = max(abs(j) for j in letters) + 1
        want = closure(from_word(BraidWord(strands, letters)))
        decode = jsonio.decode_annulus
    elif cmd == "torus":
        m, p, sl = int(argv[1]), int(argv[2]), int(argv[argv.index("--sl") + 1])
        order = int(argv[argv.index("--h-order") + 1])
        w = p * (m - 1)
        value = epsilon_plane(closure(from_word(torus_braid(m, p)))) * Scalar.monomial(-w, w, 0)
        want = h_expand(specialize_sln(value, sl), sl, order)
        if not as_json:
            raise ValueError("torus items are checked in their --json form")
        return list(jsonio.decode_hseries(json.loads(text))) == list(want)
    elif cmd == "q":
        want = theta(DiagramVector.term(partition(argv[1])))
        decode = jsonio.decode_annulus
    elif cmd == "pm":
        want = power_sum_image(int(argv[1]))
        decode = jsonio.decode_annulus
    elif cmd == "lr":
        terms = lr_product(partition(argv[2]), partition(argv[1]))
        want = DiagramVector({lam: Scalar(c) for lam, c in terms.items()})
        decode = jsonio.decode_diagrams
    else:
        raise ValueError("no check for command %r" % cmd)
    if as_json:
        return decode(json.loads(text)) == want
    return text == str(want)
