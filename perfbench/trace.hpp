// trace.hpp — in-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent span, request id). Spans are recorded
// from the benchmark's own code around each call into a library layer; the
// library itself is not instrumented. Each thread appends to its own buffer,
// so worker threads of the engine's pool record without locking. A span's
// parent is the innermost open span on the same thread or, when that thread
// has none open, the "ambient" span the calling thread published before
// handing work to the pool (see AmbientParent).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records. Names are "<layer>.<operation>",
/// with the layer named after the src/ module whose function the span wraps.
enum class SpanName : std::uint8_t {
  Scenario,    ///< engine.scenario — one scenario's whole replay (root, request id)
  Generate,    ///< workload.generate — SweepRunner::make_scenario
  Timing,      ///< profibus.timing — compute_timing
  Fcfs,        ///< profibus.fcfs
  Dm,          ///< profibus.dm
  EdfBusy,     ///< profibus.edf_busy — edf_busy_periods
  Edf,         ///< profibus.edf
  Opa,         ///< profibus.opa — audsley_stream_orders + analyze_fixed_priority
  Degraded,    ///< profibus.degraded — degraded_network/timing + analyze_degraded
  Sim,         ///< sim.run — one SimulationEngine::simulate replication
  OptSearch,   ///< opt.search — optimize_policy (probes are its children)
  OptProbe,    ///< opt.probe — one feasibility-predicate evaluation
  Aggregate,   ///< engine.aggregate — aggregate / consistency_table / aggregate_optimize
  Serialize,   ///< engine.serialize — to_csv + to_json
  Shard,       ///< dist.shard — ShardRunner::run
  CacheLoad,   ///< dist.cache.load — ResultCache::load
  CacheStore,  ///< dist.cache.store — ResultCache::store
  Encode,      ///< dist.artifact.encode — ShardArtifact::to_text
  Decode,      ///< dist.artifact.decode — ShardArtifact::from_text
  Merge,       ///< dist.merge — merge_shards
  kCount,
};

[[nodiscard]] const char* to_string(SpanName name) noexcept;

/// Start/stop recording (process-wide). While off, Scope is a no-op.
void set_tracing(bool on) noexcept;

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// RAII span. `request` 0 inherits the parent's request id.
class Scope {
 public:
  explicit Scope(SpanName name, std::uint64_t request = 0) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void* buf_ = nullptr;
  std::uint32_t index_ = 0;
};

/// While alive, spans opened on threads with no open span of their own get
/// the calling thread's innermost open span as their parent. Construct it
/// around a call that fans work across the pool and blocks until it is done.
class AmbientParent {
 public:
  AmbientParent() noexcept;
  ~AmbientParent();
  AmbientParent(const AmbientParent&) = delete;
  AmbientParent& operator=(const AmbientParent&) = delete;

 private:
  std::uint64_t previous_;
};

/// Per-name totals over one window of recorded spans.
struct LayerStats {
  std::uint64_t calls = 0;
  /// Duration minus the part of it that child spans cover (union of the
  /// children's intervals, so children running in parallel count once).
  double self_s = 0.0;
};

/// Everything recorded since the last take(): per-name stats plus the share
/// of [t0, t1] that no span covers.
struct Window {
  LayerStats by_name[static_cast<int>(SpanName::kCount)];
  double covered_s = 0.0;  ///< |union of all span intervals ∩ [t0, t1]|
};

/// While `path` is non-empty, every take() appends the raw spans it
/// summarizes to that file as TSV: id, parent (-1 for none), thread, request,
/// name, start_ns, end_ns, with times relative to the window's t0. Only
/// spans of the first 64 request ids, and spans outside any request, are
/// written.
void dump_spans_to(std::string path);

/// Summarize every span recorded since the previous take() and clear the
/// buffers. Call only while no thread is recording.
[[nodiscard]] Window take(std::int64_t t0_ns, std::int64_t t1_ns);

}  // namespace perfbench
