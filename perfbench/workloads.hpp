// workloads.hpp — the benchmark's four workloads, each driven in-process
// through the library entry points the matching `profisched` subcommand
// calls, plus a traced replay that calls each layer's public functions
// itself so spans can sit at the layer boundaries.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The serialized product of one pass: the bytes `--csv` / `--json` write.
struct Output {
  std::string csv;
  std::string json;

  /// FNV-1a 64 over csv, a NUL separator, then json; 16 hex digits.
  [[nodiscard]] std::string digest() const;
};

struct PassResult {
  Output out;
  std::uint64_t cells = 0;      ///< (scenario, policy) cells the pass computed
  std::uint64_t bad_cells = 0;  ///< cells breaking the workload's per-pass invariant
};

/// Counts a traced pass takes at the layer boundaries besides its spans.
struct TraceCounts {
  /// Σ time inside run_scenarios callbacks (shard_cache: inside pool tasks).
  double pool_busy_s = 0.0;
  /// threads × run_scenarios wall (shard_cache: threads × the shard runs' wall).
  double pool_capacity_s = 0.0;
  std::uint64_t sim_runs = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t tokens_lost = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t probes = 0;
  std::uint64_t loads = 0;
  std::uint64_t load_hits = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t heals = 0;
  std::uint64_t artifact_bytes = 0;

  TraceCounts& operator+=(const TraceCounts& o);
};

struct TracedPass : PassResult {
  /// Replayed cells whose verdict / bound differs from the product pass's.
  std::uint64_t mismatched_cells = 0;
  TraceCounts counts;
  Window timed;        ///< spans of the replay of the timed phase
  Window setup;        ///< spans of the replayed set-up (shard_cache's cold fill)
  bool replayed_setup = false;  ///< `setup` holds a replay (first pass only)
  Window generation;   ///< shard_cache only: make_scenario replayed beside the shards
  double wall_s = 0.0; ///< wall time of the timed-phase replay
};

/// Registry counters the product pass moves; main.cpp reads them around an
/// untraced pass and hands the deltas to the traced pass for cross-checks.
struct ProductCounts {
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t opt_probes = 0;  ///< Σ opt.probes.*
  std::uint64_t sim_events = 0;
  std::uint64_t tokens_lost = 0;
  std::uint64_t retransmissions = 0;
};

[[nodiscard]] ProductCounts read_product_counts();
[[nodiscard]] ProductCounts operator-(const ProductCounts& a, const ProductCounts& b);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Command lines (argv after the program name) of the `profisched` runs
  /// that produce this workload's output; the last one writes the CSV/JSON
  /// to `csv` / `json`. Files they need go under `dir`.
  [[nodiscard]] virtual std::vector<std::vector<std::string>> cli(
      const std::string& dir, const std::string& csv, const std::string& json) const = 0;

  /// Untimed work, once, before the set-ups. shard_cache fills its cache cold
  /// here: on an ext4 disk mounted with discard, a cold fill's time varied
  /// 5-20x with what the disk had written minutes before, so it stays out of
  /// setup_s (the traced run still times every store).
  virtual void prepare() {}

  /// Everything before the timed phase: spec build, pool start, warm-up pass
  /// (shard_cache: opening the filled cache). Returns the warm-up output.
  virtual PassResult setup() = 0;

  [[nodiscard]] virtual std::uint64_t scenarios() const = 0;

  /// One timed pass through the product entry points.
  virtual PassResult pass() = 0;

  /// Whole-run invariants, checked once after the timed phase against the
  /// reference output. Returns the number of failing cells; kAllCells when
  /// the output as a whole is wrong.
  virtual std::uint64_t check_once(const Output& reference) = 0;

  /// Replay the last pass() layer by layer with spans on. Must follow a
  /// pass(); compares its cells with that pass's.
  virtual TracedPass traced_pass(const ProductCounts& product) = 0;

  static constexpr std::uint64_t kAllCells = ~std::uint64_t{0};
};

/// sweep_edf, optimize, combined_faulted or shard_cache; nullptr for an
/// unknown name. `work_dir` receives scratch files (cache directories, shard
/// artifacts).
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                                      const std::string& work_dir);

}  // namespace perfbench
