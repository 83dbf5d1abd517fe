// The gangd workload: the shipped daemon on loopback TCP, warm-booted
// from a snapshot of the working set, driven open-loop at one fixed
// offered rate by a single client thread over four connections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "gang/params.hpp"

namespace perfbench {

/// What the request mix draws on.
struct MixPool {
  /// Scenarios the snapshot holds; repeats of them are cache hits, and
  /// rate perturbations of them are warm-started misses.
  std::vector<gs::gang::SystemParams> working_set;
  /// Bases of the small quantum_mean sweep requests.
  std::vector<gs::gang::SystemParams> sweep_bases;
};

/// The gangd workload's own pool: P = 8 systems of the paper's four
/// classes with varied rates, quanta and Erlang orders.
MixPool gangd_pool();

struct SessionOptions {
  std::string gangd;     ///< daemon binary
  std::string work_dir;  ///< snapshot, port file, daemon log, trace
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double rate = 45.0;     ///< offered send events per second
  int setup_spawns = 61;  ///< daemon starts timed for setup_s
  bool traced = false;    ///< daemon runs with --obs 1 --trace-out
};

/// Client-side view of one session.
struct SessionReport {
  std::vector<double> setup_s;  ///< spawn-to-ready, one per start
  /// Latencies from due time: cache hits, solves that missed the cache
  /// (warm, cold, coalesced riders), and sweep requests.
  std::vector<double> hit_ms, solve_ms, sweep_ms;
  std::vector<double> late_ms;   ///< send time minus due time
  long requests = 0;
  long scenarios = 0;      ///< scenarios answered (sweep points count)
  long unconverged = 0;    ///< answers reporting converged = false
  double window_s = 0.0;   ///< first due time to last response
  double daemon_cpu_s = 0.0;
  /// Speed of the daemon's cores over the reference during the load
  /// (SpeedProbe).
  double speed = 1.0;
  double daemon_rss_mb = 0.0;
  double cache_hit_share = 0.0;  ///< from the daemon's stats op
  double warm_share = 0.0;
  double coalesced = 0.0;
  std::string trace_file;  ///< daemon trace (traced sessions)
};

/// Make the snapshot, start the daemon `setup_spawns` times, drive the
/// mix, verify every answer against cold library solves, shut down.
/// Check failures go to `out`.
SessionReport run_session(const MixPool& pool, const SessionOptions& opts,
                          RunResult& out);

/// The request lines of the mix, in due order (the same lines
/// run_session sends), for in-process replays of the serve layer.
std::vector<std::string> mix_lines(const MixPool& pool, std::uint64_t seed,
                                   double seconds, double rate);

/// The snapshot run_session loads, as NDJSON text.
std::string make_snapshot(const MixPool& pool);

}  // namespace perfbench
