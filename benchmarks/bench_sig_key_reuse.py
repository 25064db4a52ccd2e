"""Signature verification by how often a key has signed: the per-key comb's curve.

E22 reuses 16 senders on every workload, so it only ever shows a key's
hundredth verification.  This measures the other end in one process: N keys
the comb memo has never seen verify 20 signatures each, round robin across
the keys (round i verifies every key's i-th signature), for N = 64 (the
memo's size, so every key fits) and N = 65, 128, 256 (more active keys than
the memo holds).  Each pass runs through ``PublicKey.verify`` twice on the
same inputs:

- **comb**: as shipped — the wNAF pass for a key's first ``_COMB_AFTER``
  verifications, then the key's comb, built at the next one;
- **wnaf**: the comb threshold out of reach, so every verification runs the
  wNAF pass (``_double_mul``), i.e. the verify the comb replaced.

Each round is timed, so the cost of "k signatures per key" is the sum of the
first k rounds.  The two sides alternate which runs first; each repeat
starts both from a fresh comb memo.  Gates (exit 1 if broken):

- k <= ``_COMB_AFTER``: both sides do the same point operations (counted);
- N <= the memo: the worst k reads <= 1.7x the wnaf side's cost, k = 20
  reads <= 0.7x;
- N > the memo: no comb is built, and k = 20 reads <= 1.1x.

    PYTHONPATH=src python benchmarks/bench_sig_key_reuse.py [--fast] [--json PATH]
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table

from repro.common import signatures as sigs
from repro.common.signatures import PrivateKey

KEY_COUNTS = (64, 65, 128, 256)
ROUNDS = 20
REPEATS = 3
FAST = {"key_counts": (16, 65), "rounds": 20, "repeats": 1}
MAX_WORST_RATIO = 1.7
MAX_RATIO_AT_20 = 0.7
MAX_RATIO_ABOVE_MEMO = 1.1
COUNTED = ("_jac_double", "_jac_add_affine", "_batch_to_affine")


def _corpus(keys: int, rounds: int):
    """``keys`` keys, each with ``rounds`` signatures over distinct messages."""
    rng = random.Random(27)
    corpus = []
    for _ in range(keys):
        private = PrivateKey(rng.randrange(1, sigs._N))
        public = private.public_key()
        signed = []
        for _ in range(rounds):
            message = rng.randbytes(40)
            signed.append((message, private.sign(message, public)))
        corpus.append((public, signed))
    return corpus


def _rounds(side: str, corpus, rounds: int, after_round) -> None:
    """Every key's first ``rounds`` signatures, round robin, under a fresh
    memo; ``after_round(i)`` runs after round ``i``."""
    shipped, saved = sigs._COMB_AFTER, sigs._COMBS
    sigs._COMBS = sigs._CombMemo(sigs._COMB_MEMO_SIZE)
    if side == "wnaf":
        sigs._COMB_AFTER = 1 << 62
    try:
        for i in range(rounds):
            for public, signed in corpus:
                if not public.verify(*signed[i]):
                    raise AssertionError("a valid signature failed to verify")
            after_round(i)
    finally:
        sigs._COMB_AFTER, sigs._COMBS = shipped, saved


def _time_side(side: str, corpus, rounds: int):
    """(seconds of each round, combs built by the end of each round)."""
    seconds, built = [], []
    builds = [0]
    comb_table = sigs._comb_table

    def counted_build(point):
        builds[0] += 1
        return comb_table(point)

    def after_round(_):
        now = time.perf_counter()
        seconds.append(now - start[0])
        built.append(builds[0])
        start[0] = time.perf_counter()

    sigs._comb_table = counted_build
    try:
        start = [time.perf_counter()]
        _rounds(side, corpus, rounds, after_round)
    finally:
        sigs._comb_table = comb_table
    return seconds, built


def _count_side(side: str, corpus, rounds: int) -> list:
    """Point operations of one side's pass, by the end of each round."""
    calls = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(sigs, name) for name in COUNTED}
    per_round = []

    def counting(name):
        def counted(*args):
            calls[name] += 1
            return originals[name](*args)

        return counted

    for name in COUNTED:
        setattr(sigs, name, counting(name))
    try:
        _rounds(side, corpus, rounds, lambda _: per_round.append(dict(calls)))
    finally:
        for name, original in originals.items():
            setattr(sigs, name, original)
    return per_round


def _curve(corpus, rounds: int, repeats: int):
    """One row per k = 1..rounds for this corpus."""
    keys = len(corpus)
    cumulative = {"comb": [], "wnaf": []}
    for repeat in range(repeats):
        order = ("comb", "wnaf") if (keys + repeat) % 2 else ("wnaf", "comb")
        for side in order:
            seconds, built = _time_side(side, corpus, rounds)
            sums = [sum(seconds[: k + 1]) for k in range(rounds)]
            cumulative[side].append(sums)
            if side == "comb":
                combs_built = built
    counts = {side: _count_side(side, corpus, sigs._COMB_AFTER) for side in ("comb", "wnaf")}
    rows = []
    for k in range(1, rounds + 1):
        comb = [sums[k - 1] for sums in cumulative["comb"]]
        wnaf = [sums[k - 1] for sums in cumulative["wnaf"]]
        row = {
            "keys": keys,
            "k": k,
            "wnaf_ms_per_verify": statistics.median(wnaf) * 1000 / (keys * k),
            "comb_ms_per_verify": statistics.median(comb) * 1000 / (keys * k),
            "ratio": statistics.median(c / w for c, w in zip(comb, wnaf)),
            "combs_built": combs_built[k - 1],
        }
        if k <= sigs._COMB_AFTER:
            row["same_counts"] = counts["comb"][k - 1] == counts["wnaf"][k - 1]
        rows.append(row)
    return rows


def run_experiment(key_counts=KEY_COUNTS, rounds=ROUNDS, repeats=REPEATS):
    corpus = _corpus(max(key_counts), rounds)
    _time_side("wnaf", corpus[:1], 1)  # the static tables of G, built before timing
    rows = []
    for keys in key_counts:
        rows += _curve(corpus[:keys], rounds, repeats)
    return rows


def report(rows):
    table = format_table(
        "Verify cost by signatures per key: N fresh keys round robin, comb side / wnaf side "
        f"(comb memo holds {sigs._COMB_MEMO_SIZE} keys)",
        ["N", "k", "wnaf (ms/verify)", "comb (ms/verify)", "comb / wnaf", "combs built",
         "same counts"],
        [
            [r["keys"], r["k"], r["wnaf_ms_per_verify"], r["comb_ms_per_verify"], r["ratio"],
             r["combs_built"], r.get("same_counts", "")]
            for r in rows
        ],
    )
    emit("sig_key_reuse", table)


def _failures(rows):
    failures = [f"N={r['keys']} k={r['k']}: point operations differ" for r in rows
                if r.get("same_counts") is False]
    for keys in sorted({r["keys"] for r in rows}):
        curve = [r for r in rows if r["keys"] == keys]
        worst, last = max(curve, key=lambda r: r["ratio"]), curve[-1]
        if keys <= sigs._COMB_MEMO_SIZE:
            if worst["ratio"] > MAX_WORST_RATIO:
                failures.append(f"N={keys} worst k={worst['k']}: "
                                f"{worst['ratio']:.2f}x > {MAX_WORST_RATIO}x")
            if last["k"] == ROUNDS and last["ratio"] > MAX_RATIO_AT_20:
                failures.append(f"N={keys} k={ROUNDS}: {last['ratio']:.2f}x > {MAX_RATIO_AT_20}x")
        else:
            if last["combs_built"]:
                failures.append(f"N={keys}: {last['combs_built']} combs built, expected none")
            if last["ratio"] > MAX_RATIO_ABOVE_MEMO:
                failures.append(f"N={keys} k={last['k']}: "
                                f"{last['ratio']:.2f}x > {MAX_RATIO_ABOVE_MEMO}x")
    return failures


def test_sig_key_reuse(benchmark):
    rows = benchmark.pedantic(lambda: run_experiment(**FAST), rounds=1, iterations=1)
    report(rows)
    assert all(r["same_counts"] for r in rows if r["k"] <= sigs._COMB_AFTER)
    below, above = FAST["key_counts"]
    assert [r for r in rows if r["keys"] == below][-1]["ratio"] <= MAX_RATIO_AT_20
    assert not any(r["combs_built"] for r in rows if r["keys"] == above)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help=f"N in {FAST['key_counts']}, one repeat")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} envelope to PATH")
    args = parser.parse_args(argv)
    params = FAST if args.fast else {"key_counts": KEY_COUNTS, "rounds": ROUNDS,
                                     "repeats": REPEATS}
    rows = run_experiment(**params)
    report(rows)
    emit_json(args.json, "sig_key_reuse",
              {**params, "key_counts": list(params["key_counts"])}, {"rows": rows})
    failures = _failures(rows)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
