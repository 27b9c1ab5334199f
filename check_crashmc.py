#!/usr/bin/env python3
"""Compare an `nvbench -exp crashmc` CSV dump against crashmc_baseline.json.

Usage: check_crashmc.py <out-dir>

Enforced (see the baseline's comment field):
  - serial sweep: per-allocator boundary floors, 100% coverage, zero
    oracle violations, every required torn line class exercised;
  - concurrent families: per-family conflicting-pair floors, DPOR
    pruning at or above min_pruning, at least min_schedules_run variant
    schedules executed, and zero violations across every explored
    schedule x boundary;
  - fence-elision, write-back, publish and compaction families: their own
    boundary floors, 100% coverage, zero violations, and the events each
    trace must still reach.

Exits non-zero with a list of regressions. Regenerate the baseline
(never in CI) with: go run ./cmd/nvbench -exp crashmc -crashmc.update
"""
import csv
import json
import sys

outdir = sys.argv[1] if len(sys.argv) > 1 else "crashmc_out"
base = json.load(open("crashmc_baseline.json"))
fail = []

# Table 0: headline serial coverage. Table 1: torn classes.
head = {r["allocator"]: r for r in csv.DictReader(open(f"{outdir}/crashmc_table0.csv"))
        if r["allocator"]}
torn = {}
for r in csv.DictReader(open(f"{outdir}/crashmc_table1.csv")):
    if int(r["torn"] or 0) > 0:
        torn.setdefault(r["allocator"], set()).add(r["class"])

for name, floor in base["min_boundaries"].items():
    r = head.get(name)
    if r is None:
        fail.append(f"{name}: missing from report")
        continue
    try:
        b, e, v = int(r["boundaries"]), int(r["explored"]), int(r["violations"])
    except ValueError:
        fail.append(f"{name}: {r['boundaries']}")
        continue
    if b < floor:
        fail.append(f"{name}: {b} boundaries < baseline floor {floor}")
    if e < b:
        fail.append(f"{name}: coverage {e}/{b} < 100%")
    if v and base["require_zero_violations"]:
        fail.append(f"{name}: {v} oracle violations")
    print(f"{name}: {b} boundaries (floor {floor}), {e} explored, {v} violations")
for name, req in base["required_torn_classes"].items():
    missing = set(req) - torn.get(name, set())
    if missing:
        fail.append(f"{name}: torn sweep missed line classes {sorted(missing)}")

# Table 3: the concurrent families' DPOR schedule enumeration.
conc = base.get("concurrent")
if conc:
    rows = [r for r in csv.DictReader(open(f"{outdir}/crashmc_table3.csv"))
            if r["allocator"]]
    seen = set()
    for r in rows:
        who = f"{r['allocator']}/{r['family']}"
        try:
            conflicts = int(r["conflicts"])
            run = int(r["schedules_run"])
            pruning = float(r["pruning"].rstrip("%")) / 100
            v = int(r["violations"])
        except ValueError:
            fail.append(f"{who}: {r['conflicts']}")
            continue
        seen.add(r["family"])
        floor = conc["min_conflicts"].get(r["family"])
        if floor is not None and conflicts < floor:
            fail.append(f"{who}: {conflicts} conflicting pairs < baseline floor {floor}")
        if run < conc["min_schedules_run"]:
            fail.append(f"{who}: only {run} variant schedules executed")
        if pruning < conc["min_pruning"]:
            fail.append(f"{who}: DPOR pruned {pruning:.0%} of the naive "
                        f"schedule space < floor {conc['min_pruning']:.0%}")
        if v and conc["require_zero_violations"]:
            fail.append(f"{who}: {v} oracle violations under variant schedules")
        print(f"{who}: {conflicts} conflicts (floor {floor}), {run} schedules, "
              f"{pruning:.0%} pruned, {v} violations")
    missing = set(conc["min_conflicts"]) - seen
    if missing:
        fail.append(f"concurrent families missing from report: {sorted(missing)}")

# Table 4: the fence-elision family. Every merged post-commit fence on
# the LOG hot paths is proven by this trace: full coverage, zero
# violations, and both at-risk line classes (wal-entry, bitmap-stripe)
# explored clean and torn.
fence = base.get("fence_elision")
if fence:
    rows = [r for r in csv.DictReader(open(f"{outdir}/crashmc_table4.csv"))
            if r["allocator"]]
    if not rows:
        fail.append("fence-elision family missing from report")
    for r in rows:
        who = f"{r['allocator']}/fence-elision"
        try:
            b, e, v = int(r["boundaries"]), int(r["explored"]), int(r["violations"])
            cls = {"wal-entry": (int(r["wal_clean"]), int(r["wal_torn"])),
                   "bitmap-stripe": (int(r["bitmap_clean"]), int(r["bitmap_torn"]))}
        except ValueError:
            fail.append(f"{who}: {r['boundaries']}")
            continue
        if b < fence["min_boundaries"]:
            fail.append(f"{who}: {b} boundaries < baseline floor {fence['min_boundaries']}")
        if e < b:
            fail.append(f"{who}: coverage {e}/{b} < 100%")
        if v and base["require_zero_violations"]:
            fail.append(f"{who}: {v} oracle violations")
        for c in fence["require_classes_clean"]:
            if cls.get(c, (0, 0))[0] == 0:
                fail.append(f"{who}: no clean boundary with a {c} line in flight")
        for c in fence["require_classes_torn"]:
            if cls.get(c, (0, 0))[1] == 0:
                fail.append(f"{who}: no torn variant of an in-flight {c} line")
        print(f"{who}: {b} boundaries (floor {fence['min_boundaries']}), "
              f"{e} explored, {v} violations, classes {cls}")

# Table 5: the write-back family. NVAlloc-LOG leaves bitmap bits in the
# cache image until its WAL checkpoint moves; this trace wraps the minimum
# ring through every kind of commit, recovery itself is crashed after each
# of its flushes, and the process is killed (recovery from the cache image,
# which keeps every store) after each flush of the trace's operations
# (cache_cuts). Besides coverage and violations, the trace must still reach
# the events the argument rests on.
wback = base.get("write_back")
if wback:
    rows = [r for r in csv.DictReader(open(f"{outdir}/crashmc_table5.csv"))
            if r["allocator"]]
    if not rows:
        fail.append("write-back family missing from report")
    for r in rows:
        who = f"{r['allocator']}/write-back"
        try:
            b, e, v = int(r["boundaries"]), int(r["explored"]), int(r["violations"])
            got = {"min_boundaries": b,
                   "min_checkpoint_moves": int(r["checkpoint_moves"]),
                   "min_morphs": int(r["morphs"]),
                   "min_foreign_reformats": int(r["foreign_reformats"]),
                   "min_recovery_cuts": int(r["recovery_cuts"]),
                   "min_cache_cuts": int(r["cache_cuts"])}
        except ValueError:
            fail.append(f"{who}: {r['boundaries']}")
            continue
        for key, val in got.items():
            if val < wback.get(key, 0):
                fail.append(f"{who}: {key[4:]} {val} < baseline floor {wback[key]}")
        if e < b:
            fail.append(f"{who}: coverage {e}/{b} < 100%")
        if v and base["require_zero_violations"]:
            fail.append(f"{who}: {v} oracle violations")
        print(f"{who}: {b} boundaries, {e} explored, {v} violations, "
              + ", ".join(f"{k[4:]} {n} (floor {wback.get(k, 0)})" for k, n in got.items() if k != "min_boundaries"))

# Tables 6 and 7: the publish and compaction families. Each section of the
# baseline names, as min_<column>, a floor on a column of the family's
# table.
#
# Publish: one WAL entry names a slot, the block it gains and the block it
# supersedes; the trace drives every kind of such group over the minimum
# ring and the oracle demands that the recovered heap's objects are exactly
# the blocks the trace holds.
#
# Compaction: Open compacts a bookkeeping-log shard only when it is over
# its slow-GC threshold; the trace holds the log there for long runs of
# operations, and every recovery that compacts is itself crashed after
# each of its flushes.
for section, table in (("publish", 6), ("compaction", 7)):
    floors = base.get(section)
    if not floors:
        continue
    rows = [r for r in csv.DictReader(open(f"{outdir}/crashmc_table{table}.csv"))
            if r["allocator"]]
    if not rows:
        fail.append(f"{section} family missing from report")
    for r in rows:
        who = f"{r['allocator']}/{section}"
        try:
            b, e, v = int(r["boundaries"]), int(r["explored"]), int(r["violations"])
            got = {"min_boundaries": b}
            for key in floors:
                if key != "min_boundaries":
                    got[key] = int(r[key[4:]])
        except (ValueError, KeyError):
            fail.append(f"{who}: {r['boundaries']}")
            continue
        for key, val in got.items():
            if val < floors[key]:
                fail.append(f"{who}: {key[4:]} {val} < baseline floor {floors[key]}")
        if e < b:
            fail.append(f"{who}: coverage {e}/{b} < 100%")
        if v and base["require_zero_violations"]:
            fail.append(f"{who}: {v} oracle violations")
        print(f"{who}: {b} boundaries, {e} explored, {v} violations, "
              + ", ".join(f"{k[4:]} {n} (floor {floors[k]})" for k, n in got.items() if k != "min_boundaries"))

if fail:
    sys.exit("crashmc coverage regression:\n  " + "\n  ".join(fail))
print("coverage baseline satisfied")
