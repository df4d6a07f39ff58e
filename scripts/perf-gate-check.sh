#!/usr/bin/env bash
# perf-gate-check: feed the comparison in scripts/perf-gate.jq canned
# benchmark records and require the verdict each case calls for. Needs
# only jq (one invocation); run from the repository root
# (make perf-gate-check).
#
# Every case is ten seed pairs of one workload "w" under a canned
# benchmark definition with one lower-is-better metric (run_p50_s) and
# one higher-is-better metric (shards_per_s), both bound at 25%. Values
# vary ±2% by seed around each side's nominal one; a case's failed
# count, correctness and exit code apply to the head side's seed 1.
set -euo pipefail

jq -n -r -L scripts '
include "perf-gate";

def bench: {
  workloads: [{name: "w"}],
  end_to_end: [
    {name: "run_p50_s", unit: "s", better: "lower", bound: 0.25},
    {name: "shards_per_s", unit: "1/s", better: "higher", bound: 0.25}
  ]
};

# records(case): the twenty run records of one case.
def records($c):
  [
    range(1; 11) as $s
    | (1 + ($s % 5 - 2) / 100) as $j
    | ({side: "base", p50: $c.bp, sps: $c.bs, failed: 0, correct: true, exit: 0},
       {side: "head", p50: $c.hp, sps: $c.hs,
        failed: (if $s == 1 then $c.failed // 0 else 0 end),
        correct: ($s != 1 or $c.correct != false),
        exit: (if $s == 1 then $c.exit // 0 else 0 end)})
    | {side, workload: "w", seed: $s, exit,
       result: {correct, attempted: 100, failed,
                metrics: {run_p50_s: {value: (.p50 * $j), unit: "s"},
                          shards_per_s: {value: (.sps * $j), unit: "1/s"}}}}
  ];

[
  {name: "identical sides pass", bp: 0.030, hp: 0.030, bs: 100, hs: 100, ok: true},
  {name: "an in-bound change passes", bp: 0.030, hp: 0.036, bs: 100, hs: 80, ok: true},
  {name: "a lower-is-better regression past its bound", bp: 0.030, hp: 0.040, bs: 100, hs: 100,
   ok: false, want: "run_p50_s"},
  {name: "a higher-is-better regression past its bound", bp: 0.030, hp: 0.030, bs: 100, hs: 70,
   ok: false, want: "shards_per_s"},
  {name: "a correct: false run", bp: 0.030, hp: 0.030, bs: 100, hs: 100, correct: false,
   ok: false, want: "correct: false"},
  {name: "a higher failed share", bp: 0.030, hp: 0.030, bs: 100, hs: 100, failed: 1,
   ok: false, want: "failed-operation share"},
  {name: "a run that exits non-zero", bp: 0.030, hp: 0.030, bs: 100, hs: 100, exit: 1,
   ok: false, want: "exited 1"}
]
| map(. as $c
      | (records($c) | gate(bench)) as $r
      | {name: $c.name,
         pass: ($r.ok == $c.ok and ($c.want == null or ($r.failures | any(contains($c.want))))),
         report: $r})
| (.[] | if .pass then "perf-gate-check: ok: \(.name)"
         else "perf-gate-check: FAIL: \(.name): \(.report | tojson)" end),
  (if all(.pass) then empty else error("perf-gate-check: a case failed") end)
'
