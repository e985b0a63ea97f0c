// metrics.hpp — process-wide telemetry registry: named monotonic counters,
// max-gauges, fixed-bin (power-of-two) latency histograms, and count/total
// timers with an RAII Span. The design rule is the same zero-perturbation
// discipline the dist layer runs under: instrumentation must never change a
// primary artifact byte and must never add locks, syscalls, or allocations
// to a sweep/sim inner loop.
//
//   * Counter increments are relaxed atomic adds into per-thread shards
//     (cache-line padded, indexed by a cached thread hash) that are summed
//     only at snapshot() time — no contention on the hot path.
//   * Gauges are single relaxed atomics supporting set() and update_max()
//     (high-water tracking, e.g. queue depth).
//   * Histograms bin by bit-width (bin k holds values with bit_width == k,
//     bin 0 holds zero), so record() is two relaxed adds and no float math.
//   * Timers accumulate {count, total_ns}; Span reads the steady clock only
//     when obs::enabled() was set (the CLI sets it iff --metrics was given),
//     so with the flag off a Span is a single relaxed bool load.
//
// Handles (Counter/Gauge/Timer/Histogram) are trivially copyable pointers
// into registry-owned, address-stable state; a default-constructed handle is
// a safe no-op. The global() registry is created on first use and never
// destroyed, so static-duration handles in any TU stay valid forever.
// reset() zeroes every value but keeps registration (handles stay live) —
// used by tests and by anything computing per-run deltas.
//
// Series naming scheme (documented in README "Observability"):
//   phase.*   sequential top-level CLI phases; sum(total_ns) <= run wall time
//   runner.*  SweepRunner stage spans and scenario counters (per-worker,
//             so timer totals may exceed wall time)
//   pool.*    ThreadPool task accounting
//   cache.*   runner-level memo/result-cache accounting;
//   cache.file.*  ResultCache file-level accounting (bytes, heals)
//   engine.*  analysis-engine memoisation
//   analysis.*  analysis effort (EDF offsets examined), published once per
//             analysis call
//   sim.*     simulation kernel bridges (events, pool recycles, faults)
//   opt.*     optimizer bisection probe counts
//   dist.*    shard/merge row + spec-validation accounting
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace profisched::obs {

/// Global switch for the *timed* instrumentation (clock reads in Span and
/// the per-task latency histogram). Counters/gauges stay live regardless —
/// they are plain relaxed arithmetic and feed always-on surfaces like the
/// CLI cache print. Set by the CLI iff --metrics was given.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic nanosecond clock (steady_clock under the hood).
[[nodiscard]] std::int64_t now_ns() noexcept;

namespace detail {

inline constexpr std::size_t kCounterShards = 16;
inline constexpr std::size_t kHistogramBins = 64;

/// One cache line per shard so concurrent writers never false-share.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> v{0};
};

/// Stable per-thread shard index in [0, kCounterShards).
[[nodiscard]] std::size_t shard_index() noexcept;

struct CounterState {
  std::string name;
  std::array<CounterCell, kCounterShards> cells{};
};

struct GaugeState {
  std::string name;
  std::atomic<std::uint64_t> v{0};
};

struct TimerState {
  std::string name;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
};

struct HistogramState {
  std::string name;
  std::atomic<std::uint64_t> sum{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBins> bins{};
};

}  // namespace detail

/// Monotonic counter. add() is one relaxed fetch_add into this thread's
/// shard; value() sums shards (approximate only while writers are live).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) noexcept {
    if (s_ != nullptr) {
      s_->cells[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  friend class Registry;
  explicit Counter(detail::CounterState* s) noexcept : s_(s) {}
  detail::CounterState* s_ = nullptr;
};

/// Last-value / high-water gauge.
class Gauge {
 public:
  Gauge() = default;
  void set(std::uint64_t v) noexcept {
    if (s_ != nullptr) s_->v.store(v, std::memory_order_relaxed);
  }
  /// Raise the gauge to v if v is larger (lock-free CAS loop).
  void update_max(std::uint64_t v) noexcept {
    if (s_ == nullptr) return;
    std::uint64_t cur = s_->v.load(std::memory_order_relaxed);
    while (cur < v && !s_->v.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return s_ == nullptr ? 0 : s_->v.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeState* s) noexcept : s_(s) {}
  detail::GaugeState* s_ = nullptr;
};

/// Accumulating timer: record() adds one observation of `ns` nanoseconds.
class Timer {
 public:
  Timer() = default;
  void record(std::uint64_t ns) noexcept {
    if (s_ != nullptr) {
      s_->count.fetch_add(1, std::memory_order_relaxed);
      s_->total_ns.fetch_add(ns, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return s_ == nullptr ? 0 : s_->count.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return s_ == nullptr ? 0 : s_->total_ns.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Timer(detail::TimerState* s) noexcept : s_(s) {}
  detail::TimerState* s_ = nullptr;
};

/// Fixed-bin latency histogram: bin 0 holds value 0, bin k holds values
/// whose bit width is k (i.e. [2^(k-1), 2^k)), capped at the last bin.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) noexcept {
    if (s_ == nullptr) return;
    std::size_t bin = 0;
    std::uint64_t x = v;
    while (x != 0) {
      ++bin;
      x >>= 1;
    }
    if (bin >= detail::kHistogramBins) bin = detail::kHistogramBins - 1;
    s_->bins[bin].fetch_add(1, std::memory_order_relaxed);
    s_->sum.fetch_add(v, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramState* s) noexcept : s_(s) {}
  detail::HistogramState* s_ = nullptr;
};

/// RAII phase timer. Records wall nanoseconds into a Timer on stop()/dtor,
/// but only when obs::enabled() was true at construction — with metrics off
/// the constructor is one relaxed load and the destructor a branch.
class Span {
 public:
  explicit Span(Timer t) noexcept : t_(t), t0_(enabled() ? now_ns() : -1) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }
  void stop() noexcept {
    if (t0_ >= 0) {
      t_.record(static_cast<std::uint64_t>(now_ns() - t0_));
      t0_ = -1;
    }
  }

 private:
  Timer t_;
  std::int64_t t0_;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct TimerSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;  ///< sum of bins
  std::uint64_t sum = 0;    ///< sum of recorded values
  std::vector<std::uint64_t> bins;  ///< trailing zero bins trimmed
};

/// Point-in-time merge of every registered series, each kind sorted by name.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<CounterSample> gauges;
  std::vector<TimerSample> timers;
  std::vector<HistogramSample> histograms;

  /// Value of a counter/gauge by name; 0 if absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  [[nodiscard]] std::uint64_t gauge(std::string_view name) const noexcept;
  /// Timer sample by name; zero-valued sample (empty name) if absent.
  [[nodiscard]] TimerSample timer(std::string_view name) const noexcept;
};

/// Named-series registry. Lookup/creation takes a mutex; the returned
/// handles do not. Series state lives in deques so addresses are stable for
/// the registry's lifetime. Asking for an existing name returns a handle to
/// the same state (kinds are independent namespaces).
class Registry {
 public:
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Timer timer(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every value; registration (and all handles) stay valid.
  void reset();

  /// The process-wide registry: created on first use, never destroyed.
  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mu_;
  std::deque<detail::CounterState> counters_;
  std::deque<detail::GaugeState> gauges_;
  std::deque<detail::TimerState> timers_;
  std::deque<detail::HistogramState> histograms_;
};

}  // namespace profisched::obs
