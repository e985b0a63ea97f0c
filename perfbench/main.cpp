// perfbench — the end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect DIGEST] [--work DIR] [--spans FILE]
//   perfbench --workload NAME --seed N --emit DIR
//
// Untraced (--trace 0): set-up is repeated at least kMinSetups times and for
// at least kMinSetupSeconds (median reported), then product passes repeat
// until S seconds have elapsed; the rate is the timed phase's scenarios over
// its seconds.
// Traced (--trace 1): untraced product passes alternate with traced
// layer-by-layer replays for S seconds; per-layer metrics are per-pass means
// over the replays. --emit runs set-up once and writes the
// workload's CSV/JSON plus the equivalent `profisched` command lines (used by
// test_bench.py). The last stdout line is always one JSON object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect;
  std::string work = ".bench_build/work";
  std::string spans;
  std::string emit;
};

/// Set-up repeats: a short set-up is repeated until two seconds have gone by,
/// so its median does not hang on a few samples.
constexpr std::size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v.c_str(), &end, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v.c_str(), &end);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--expect") o.expect = v;
    else if (a == "--work") o.work = v;
    else if (a == "--spans") o.spans = v;
    else if (a == "--emit") o.emit = v;
    else usage(("unknown flag " + a).c_str());
    if (end != nullptr && *end != '\0') usage(("bad number for " + a).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// VmHWM of this process image. getrusage's ru_maxrss would also count the
/// pre-exec image of a parent that forked us (it survives exec on Linux).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string host_json() {
  return std::string("{\"compiler\": ") + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
         ", \"simd_backend\": " + json_string(profisched::simd::backend_name()) + "}";
}

void print_result(const Options& o, const std::string& digest, bool correct,
                  std::uint64_t attempted, std::uint64_t failed, const std::vector<Metric>& ms,
                  std::size_t passes) {
  for (const Metric& m : ms) std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"host\": %s, "
              "\"digest\": %s, \"passes\": %zu, \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, host_json().c_str(), json_string(digest).c_str(), passes,
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i == 0 ? "" : ", ",
                json_string(ms[i].name).c_str(), json_number(ms[i].value).c_str(),
                json_string(ms[i].unit).c_str());
  }
  std::printf("}}\n");
}

/// Failed cells of a pass whose output should equal the reference digest.
std::uint64_t failed_cells(const PassResult& p, const std::string& reference) {
  return p.out.digest() == reference ? p.bad_cells : p.cells;
}

int run_untraced(const Options& o, Workload& w) {
  std::vector<double> setup_s;
  PassResult warm;  // the last set-up's warm-up pass
  std::string reference = o.expect;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::int64_t setups_start = now_ns();
  while (setup_s.size() < kMinSetups ||
         seconds_between(setups_start, now_ns()) < kMinSetupSeconds) {
    const std::int64_t t0 = now_ns();
    warm = w.setup();
    setup_s.push_back(seconds_between(t0, now_ns()));
    if (reference.empty()) reference = warm.out.digest();
    attempted += warm.cells;
    failed += failed_cells(warm, reference);
  }

  // The host's speed shifts between phases a few seconds long; a rate over
  // the whole phase weighs them by their length, where a median of pass
  // rates would snap to whichever phase held more passes.
  std::vector<double> rates;
  double timed_s = 0.0;
  const std::int64_t start = now_ns();
  while (rates.size() < 3 || seconds_between(start, now_ns()) < o.seconds) {
    const std::int64_t t0 = now_ns();
    try {
      const PassResult p = w.pass();
      const double pass_s = seconds_between(t0, now_ns());
      rates.push_back(static_cast<double>(w.scenarios()) / pass_s);
      timed_s += pass_s;
      attempted += p.cells;
      failed += failed_cells(p, reference);
    } catch (const std::exception& e) {  // every cell of a pass that throws fails
      std::fprintf(stderr, "perfbench: pass failed: %s\n", e.what());
      attempted += warm.cells;
      failed += warm.cells;
      if (seconds_between(start, now_ns()) >= o.seconds) break;
    }
  }
  const double rate =
      timed_s > 0.0 ? static_cast<double>(w.scenarios() * rates.size()) / timed_s : 0.0;
  if (rates.empty()) rates.push_back(0.0);
  const std::uint64_t once = w.check_once(warm.out);
  failed = once == Workload::kAllCells ? attempted : std::min(attempted, failed + once);

  std::sort(rates.begin(), rates.end());
  std::printf("pass rates over %zu passes: q1 %.1f, median %.1f, q3 %.1f\n", rates.size(),
              rates[rates.size() / 4], median(rates), rates[rates.size() * 3 / 4]);
  std::sort(setup_s.begin(), setup_s.end());
  std::printf("setup_s over %zu set-ups: min %.4f, median %.4f, max %.4f", setup_s.size(),
              setup_s.front(), median(setup_s), setup_s.back());
  const double fail_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("\nfail_frac %.6g (%llu of %llu cells)\n", fail_frac,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  const std::vector<Metric> ms = {
      {"scenarios_per_s", rate, "scenarios/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"pass_frac", 1.0 - fail_frac, "ratio"},
  };
  print_result(o, warm.out.digest(), failed == 0, attempted, failed, ms, rates.size());
  return 0;
}

int run_traced(const Options& o, Workload& w) {
  PassResult first = w.setup();
  const std::string reference = o.expect.empty() ? first.out.digest() : o.expect;
  std::uint64_t attempted = first.cells;
  std::uint64_t failed = failed_cells(first, reference);

  // Sums over the traced replays; divided by their count at the end.
  double n = 0;
  std::vector<double> untraced_wall, traced_wall;
  LayerStats sums[static_cast<int>(SpanName::kCount)]{};
  LayerStats setup_sums[static_cast<int>(SpanName::kCount)]{};
  TraceCounts counts;
  ProductCounts product_total;
  double covered = 0, cells = 0, output_bytes = 0, setup_replays = 0;
  const auto add = [](LayerStats* into, const Window& w) {
    for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
      into[i].calls += w.by_name[i].calls;
      into[i].self_s += w.by_name[i].self_s;
    }
  };

  if (!o.spans.empty()) {
    std::filesystem::create_directories(std::filesystem::path(o.spans).parent_path());
    std::filesystem::remove(o.spans);
  }
  const std::int64_t start = now_ns();
  while (n < 2 || seconds_between(start, now_ns()) < o.seconds) {
    const ProductCounts before = read_product_counts();
    const std::int64_t t0 = now_ns();
    const PassResult p = w.pass();
    untraced_wall.push_back(seconds_between(t0, now_ns()));
    const ProductCounts product = read_product_counts() - before;
    attempted += p.cells;
    failed += failed_cells(p, reference);

    // Keep the raw spans of the first replay only: later ones repeat it.
    if (n == 0) dump_spans_to(o.spans);
    set_tracing(true);
    const TracedPass tp = w.traced_pass(product);
    set_tracing(false);
    dump_spans_to({});
    traced_wall.push_back(tp.wall_s);
    attempted += tp.cells;
    failed += std::min(tp.cells, tp.mismatched_cells + failed_cells(tp, reference));
    add(sums, tp.timed);
    add(sums, tp.generation);
    if (tp.replayed_setup) {
      add(setup_sums, tp.setup);
      ++setup_replays;
    }
    counts += tp.counts;
    product_total.memo_hits += product.memo_hits;
    product_total.memo_misses += product.memo_misses;
    covered += tp.timed.covered_s / tp.wall_s;
    cells += static_cast<double>(tp.cells);
    output_bytes += static_cast<double>(tp.out.csv.size() + tp.out.json.size());
    ++n;
  }
  failed = std::min(attempted, failed);

  const auto per = [&](double v) { return v / n; };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto self = [&](SpanName s) { return per(sums[static_cast<int>(s)].self_s); };
  const auto calls = [&](SpanName s) {
    return per(static_cast<double>(sums[static_cast<int>(s)].calls));
  };
  const LayerStats& store = setup_sums[static_cast<int>(SpanName::CacheStore)];
  const double sim_self = self(SpanName::Sim);
  const double untraced = median(untraced_wall);
  const std::vector<Metric> ms = {
      {"workload.generate.calls", calls(SpanName::Generate), "count"},
      {"workload.generate.self_s", self(SpanName::Generate), "s"},
      {"profibus.timing.calls", calls(SpanName::Timing), "count"},
      {"profibus.timing.self_s", self(SpanName::Timing), "s"},
      {"profibus.edf.calls", calls(SpanName::Edf), "count"},
      {"profibus.edf.self_s", self(SpanName::Edf), "s"},
      {"profibus.edf_busy.self_s", self(SpanName::EdfBusy), "s"},
      {"profibus.dm.self_s", self(SpanName::Dm), "s"},
      {"profibus.fcfs.self_s", self(SpanName::Fcfs), "s"},
      {"profibus.opa.self_s", self(SpanName::Opa), "s"},
      {"profibus.degraded.self_s", self(SpanName::Degraded), "s"},
      {"engine.scenario.self_s", self(SpanName::Scenario), "s"},
      {"engine.memo.hit_ratio",
       ratio(static_cast<double>(product_total.memo_hits),
             static_cast<double>(product_total.memo_hits + product_total.memo_misses)),
       "ratio"},
      {"engine.aggregate.self_s", self(SpanName::Aggregate), "s"},
      {"engine.serialize.self_s", self(SpanName::Serialize), "s"},
      {"engine.output_bytes", per(output_bytes), "bytes"},
      {"engine.pool.idle_frac",
       counts.pool_capacity_s > 0 ? 1.0 - counts.pool_busy_s / counts.pool_capacity_s : 0.0,
       "ratio"},
      {"sim.runs", per(static_cast<double>(counts.sim_runs)), "count"},
      {"sim.events", per(static_cast<double>(counts.sim_events)), "count"},
      {"sim.self_s", sim_self, "s"},
      {"sim.events_per_s", ratio(per(static_cast<double>(counts.sim_events)), sim_self), "1/s"},
      {"sim.faults.tokens_lost", per(static_cast<double>(counts.tokens_lost)), "count"},
      {"sim.faults.retransmissions", per(static_cast<double>(counts.retransmissions)), "count"},
      {"opt.probes", per(static_cast<double>(counts.probes)), "count"},
      {"opt.probes_per_cell", ratio(static_cast<double>(counts.probes), cells), "count"},
      {"opt.probe.self_s", self(SpanName::OptProbe), "s"},
      {"opt.search.self_s", self(SpanName::OptSearch), "s"},
      {"dist.shard.self_s", self(SpanName::Shard), "s"},
      {"dist.cache.load.calls", per(static_cast<double>(counts.loads)), "count"},
      {"dist.cache.load.self_s", self(SpanName::CacheLoad), "s"},
      {"dist.cache.hit_ratio",
       ratio(static_cast<double>(counts.load_hits), static_cast<double>(counts.loads)), "ratio"},
      {"dist.cache.bytes_read", per(static_cast<double>(counts.bytes_read)), "bytes"},
      {"dist.cache.store.calls", ratio(static_cast<double>(store.calls), setup_replays), "count"},
      {"dist.cache.store.self_s", ratio(store.self_s, setup_replays), "s"},
      {"dist.cache.bytes_written", ratio(static_cast<double>(counts.bytes_written), setup_replays),
       "bytes"},
      {"dist.cache.heals", per(static_cast<double>(counts.heals)), "count"},
      {"dist.artifact.encode.self_s", self(SpanName::Encode), "s"},
      {"dist.artifact.decode.self_s", self(SpanName::Decode), "s"},
      {"dist.artifact.bytes", per(static_cast<double>(counts.artifact_bytes)), "bytes"},
      {"dist.merge.self_s", self(SpanName::Merge), "s"},
      {"trace.overhead_frac", ratio(median(traced_wall) - untraced, untraced), "ratio"},
      {"trace.uncovered_frac", 1.0 - per(covered), "ratio"},
  };
  print_result(o, first.out.digest(), failed == 0, attempted, failed, ms,
               traced_wall.size());
  return 0;
}

int run_emit(const Options& o, Workload& w) {
  std::filesystem::create_directories(o.emit);
  const PassResult p = w.setup();
  const std::string csv = o.emit + "/" + o.workload + ".csv";
  const std::string json = o.emit + "/" + o.workload + ".json";
  std::ofstream(csv, std::ios::binary) << p.out.csv;
  std::ofstream(json, std::ios::binary) << p.out.json;
  std::string cmds = "[";
  const auto runs = w.cli(o.emit + "/cli", o.emit + "/cli/" + o.workload + ".csv",
                          o.emit + "/cli/" + o.workload + ".json");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    cmds += i == 0 ? "[" : ", [";
    for (std::size_t j = 0; j < runs[i].size(); ++j) {
      cmds += (j == 0 ? "" : ", ") + json_string(runs[i][j]);
    }
    cmds += "]";
  }
  std::printf("{\"csv\": %s, \"json\": %s, \"digest\": %s, \"cli\": %s]}\n",
              json_string(csv).c_str(), json_string(json).c_str(),
              json_string(p.out.digest()).c_str(), cmds.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    std::filesystem::create_directories(o.work);
    const auto w = make_workload(o.workload, o.seed, o.work);
    if (!w) usage(("unknown workload " + o.workload).c_str());
    w->prepare();
    if (!o.emit.empty()) return run_emit(o, *w);
    return o.trace ? run_traced(o, *w) : run_untraced(o, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
