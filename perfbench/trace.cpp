#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};
/// The dump keeps the spans of the first requests only (and every span
/// outside a request): optimize records ~600 spans per scenario.
constexpr std::uint64_t kDumpRequests = 64;

struct SpanRec {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t parent = kNoSpan;
  std::uint64_t request = 0;
  SpanName name = SpanName::Scenario;
};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<SpanRec> spans;
  std::vector<std::uint32_t> open;  ///< indices into spans, innermost last
};

std::atomic<bool> g_on{false};
/// Encoded id and request of the span published by AmbientParent.
std::atomic<std::uint64_t> g_ambient{kNoSpan};
std::atomic<std::uint64_t> g_ambient_request{0};

std::mutex g_mu;
std::deque<Buffer> g_buffers;  // guarded by g_mu; deque keeps addresses stable
std::string g_dump;            // guarded by g_mu
thread_local Buffer* t_buf = nullptr;

Buffer& local_buffer() {
  if (t_buf == nullptr) {
    const std::lock_guard lock(g_mu);
    g_buffers.emplace_back();
    g_buffers.back().thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    t_buf = &g_buffers.back();
  }
  return *t_buf;
}

std::uint64_t encode(std::uint32_t thread, std::uint32_t index) {
  return (static_cast<std::uint64_t>(thread) << 32) | index;
}

/// Length of the union of [start, end) intervals, each clipped to [lo, hi].
double union_s(std::vector<std::pair<std::int64_t, std::int64_t>>& iv, std::int64_t lo,
               std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return static_cast<double>(total) * 1e-9;
}

}  // namespace

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::Scenario: return "engine.scenario";
    case SpanName::Generate: return "workload.generate";
    case SpanName::Timing: return "profibus.timing";
    case SpanName::Fcfs: return "profibus.fcfs";
    case SpanName::Dm: return "profibus.dm";
    case SpanName::EdfBusy: return "profibus.edf_busy";
    case SpanName::Edf: return "profibus.edf";
    case SpanName::Opa: return "profibus.opa";
    case SpanName::Degraded: return "profibus.degraded";
    case SpanName::Sim: return "sim.run";
    case SpanName::OptSearch: return "opt.search";
    case SpanName::OptProbe: return "opt.probe";
    case SpanName::Aggregate: return "engine.aggregate";
    case SpanName::Serialize: return "engine.serialize";
    case SpanName::Shard: return "dist.shard";
    case SpanName::CacheLoad: return "dist.cache.load";
    case SpanName::CacheStore: return "dist.cache.store";
    case SpanName::Encode: return "dist.artifact.encode";
    case SpanName::Decode: return "dist.artifact.decode";
    case SpanName::Merge: return "dist.merge";
    case SpanName::kCount: break;
  }
  return "?";
}

void set_tracing(bool on) noexcept { g_on.store(on); }

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(SpanName name, std::uint64_t request) noexcept {
  if (!g_on.load(std::memory_order_relaxed)) return;
  Buffer& b = local_buffer();
  SpanRec r;
  r.name = name;
  if (b.open.empty()) {
    r.parent = g_ambient.load(std::memory_order_acquire);
    r.request = request != 0 ? request : g_ambient_request.load(std::memory_order_relaxed);
  } else {
    r.parent = encode(b.thread, b.open.back());
    r.request = request != 0 ? request : b.spans[b.open.back()].request;
  }
  index_ = static_cast<std::uint32_t>(b.spans.size());
  buf_ = &b;
  b.open.push_back(index_);
  r.start = now_ns();
  b.spans.push_back(r);
}

Scope::~Scope() {
  if (buf_ == nullptr) return;
  Buffer& b = *static_cast<Buffer*>(buf_);
  b.spans[index_].end = now_ns();
  b.open.pop_back();
}

AmbientParent::AmbientParent() noexcept : previous_(g_ambient.load()) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  Buffer& b = local_buffer();
  if (b.open.empty()) return;
  g_ambient_request.store(b.spans[b.open.back()].request);
  g_ambient.store(encode(b.thread, b.open.back()), std::memory_order_release);
}

AmbientParent::~AmbientParent() { g_ambient.store(previous_, std::memory_order_release); }

void dump_spans_to(std::string path) {
  const std::lock_guard lock(g_mu);
  g_dump = std::move(path);
}

Window take(std::int64_t t0_ns, std::int64_t t1_ns) {
  const std::lock_guard lock(g_mu);
  struct Flat {
    const SpanRec* rec;
    std::uint64_t id;
    std::uint32_t thread;
  };
  std::vector<Flat> all;
  for (const Buffer& b : g_buffers) {
    for (std::uint32_t i = 0; i < b.spans.size(); ++i) {
      all.push_back({&b.spans[i], encode(b.thread, i), b.thread});
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) index_of.emplace(all[i].id, i);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(all.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> every;
  every.reserve(all.size());
  for (const Flat& f : all) {
    every.emplace_back(f.rec->start, f.rec->end);
    const auto it = index_of.find(f.rec->parent);
    if (it != index_of.end()) children[it->second].emplace_back(f.rec->start, f.rec->end);
  }

  Window w;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& r = *all[i].rec;
    LayerStats& s = w.by_name[static_cast<int>(r.name)];
    const double dur = static_cast<double>(r.end - r.start) * 1e-9;
    ++s.calls;
    s.self_s += dur - union_s(children[i], r.start, r.end);
  }
  w.covered_s = union_s(every, t0_ns, t1_ns);

  if (!g_dump.empty()) {
    if (std::FILE* f = std::fopen(g_dump.c_str(), "a")) {
      for (const Flat& fl : all) {
        const SpanRec& r = *fl.rec;
        if (r.request > kDumpRequests) continue;
        const long long parent =
            r.parent == kNoSpan ? -1 : static_cast<long long>(r.parent);
        std::fprintf(f, "%llu\t%lld\t%u\t%llu\t%s\t%lld\t%lld\n",
                     static_cast<unsigned long long>(fl.id), parent, fl.thread,
                     static_cast<unsigned long long>(r.request), to_string(r.name),
                     static_cast<long long>(r.start - t0_ns),
                     static_cast<long long>(r.end - t0_ns));
      }
      std::fclose(f);
    }
  }
  for (Buffer& b : g_buffers) b.spans.clear();
  return w;
}

}  // namespace perfbench
