#ifndef AUTOTEST_UTIL_PARALLEL_STATS_H_
#define AUTOTEST_UTIL_PARALLEL_STATS_H_

#include <cstdint>
#include <string>

#include "util/metrics.h"

namespace autotest::util::parallel {

/// Process-wide counters for the parallel runtime: references into
/// metrics::Registry::Global() (`parallel.*` family), so one JSON dump
/// covers them alongside every other component. The accessors below all
/// have production callers: GlobalStats() is the pool's own counter
/// block, SnapshotStats()/ResetStats() feed the benchmark helper and
/// FormatStats() the CLI's --parallel-stats. Updates stay relaxed-atomic:
/// diagnostics, not synchronization.
struct Stats {
  /// Parallel-region entries, including ones that fell back to serial.
  metrics::Counter& invocations;
  /// Subset of invocations executed inline on the caller (n too small,
  /// one thread requested, or a nested call inside a running region).
  metrics::Counter& serial_invocations;
  /// Loop items (indices) executed across all invocations.
  metrics::Counter& items;
  /// Chunks executed across all invocations.
  metrics::Counter& chunks;
  /// Chunks a worker claimed from another worker's range.
  metrics::Counter& steals;
  /// Sum over parallel invocations of participants that actually joined
  /// (submitter included).
  metrics::Counter& participants;
  /// Sum over parallel invocations of participant slots offered.
  metrics::Counter& slots_offered;
};

/// The global counter block shared by every pool invocation.
Stats& GlobalStats();

/// Copies of the counters at one instant (relaxed loads).
struct StatsSnapshot {
  uint64_t invocations = 0;
  uint64_t serial_invocations = 0;
  uint64_t items = 0;
  uint64_t chunks = 0;
  uint64_t steals = 0;
  uint64_t participants = 0;
  uint64_t slots_offered = 0;

  /// Fraction of offered participant slots that were actually manned.
  double utilization() const {
    return slots_offered == 0
               ? 1.0
               : static_cast<double>(participants) /
                     static_cast<double>(slots_offered);
  }
};

StatsSnapshot SnapshotStats();
void ResetStats();

/// One-line human-readable dump, e.g. for benches and `--parallel-stats`.
std::string FormatStats();

}  // namespace autotest::util::parallel

#endif  // AUTOTEST_UTIL_PARALLEL_STATS_H_
