"""Workload definitions and frozen constants.

Every workload runs the same pipeline (perfbench/run.py): rounds of
`autotest train`, `autotest check` over the labeled tables and a serve
cold start, with one long-lived `autotest serve` sent a block of load
after each check: an open loop at a fixed rate, then a closed loop. The
workloads differ in the tables the serve phases send,
which decides the layer that dominates a request; why each was chosen is
in BENCHMARK.json and perfbench/README.md.

The open-loop rates are frozen constants, set at about a quarter of the
closed-loop throughput the seed commit reached on the host in
HOST_OF_RATES, so that the server stays far from saturation when the
host is busy. Open loops take OPEN_SHARE of --seconds. `closed_rps`
sizes the closed loops (closed_rps * seconds * (1 - OPEN_SHARE) requests
in all) so that they last about the rest of the run there; it is a
request count, not a target rate. Changing any constant here changes the
benchmark, not the program: re-measure the baseline after.
"""

HOST_OF_RATES = "4-core Intel Xeon (Firecracker VM), GCC 12.2, Release (-O2)"

WORKLOADS = {
    "serve_repeat": {
        "rate_rps": 120.0,
        "closed_rps": 300.0,
        "tables": {"pool": 32, "rows-min": 100, "rows-max": 400,
                   "cols-min": 3, "cols-max": 6, "machine-permille": 500},
    },
    "serve_fresh": {
        "rate_rps": 110.0,
        "closed_rps": 300.0,
        "tables": {"warmup": 32, "rows-min": 40, "rows-max": 100,
                   "cols-min": 2, "cols-max": 3, "machine-permille": 1000},
    },
}

OPEN_SHARE = 0.75

# The training recipe (the CLI default; perfbench_tool.cc mirrors it).
TRAIN_ARGS = ["--corpus", "relational", "--columns", "2000",
              "--centroids", "120", "--synthetic", "800", "--shards", "8"]

# Labeled check set: RT-Bench columns at the workload seed with +20%
# synthetic errors (the paper's Table 4 setting). Quality is scored over
# the union of the check reports.
CHECK_COLUMNS = 1800
SYNTHETIC_PERMILLE = 200

# An untraced run makes ROUNDS rounds of one `autotest train`, one
# `autotest check` over 1/ROUNDS of the labeled set and one serve cold
# start, plus the cold start of the server that takes the load. Reported
# times are medians over these samples.
ROUNDS = 3

# Load blocks, one per round. Latency percentiles and closed-loop
# throughput are taken per block and reported as the median over the
# blocks, so that a host stall during one block does not move the result.
# A block's open loop must hold at least 200 samples, so that its p95 has
# 10 beyond it.
BLOCKS = ROUNDS

# Requests per slice of the traced library run.
TRACE_REQUESTS = 48
