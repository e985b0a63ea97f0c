// ResultCache contract: hit-after-miss determinism (cached results
// bit-identical to recomputed ones, across all three sweep modes),
// version-mismatch invalidation, corrupted-pack rejection and healing,
// incremental policy-set re-sweeps, pack rolling and sealing, visibility at
// seal, pack merging under a low descriptor limit, and concurrent writers
// sharing one directory (this suite runs under the CI TSan job via the dist_
// test-name filter).
#include "dist/result_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"

namespace profisched::dist {
namespace {

namespace fs = std::filesystem;

/// Fresh cache directory per test, removed on destruction.
class CacheDir {
 public:
  explicit CacheDir(const char* name)
      : path_((fs::temp_directory_path() / "profisched_cache_test" / name).string()) {
    fs::remove_all(path_);
  }
  ~CacheDir() { fs::remove_all(fs::path(path_).parent_path()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

/// Rewrites `path` in place (same inode), as a bit rot or a stray writer
/// would: an instance that already opened the file sees the new bytes.
void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

/// Regular files under `dir`, recursively, whose name ends with `suffix`.
std::vector<fs::path> regular_files(const std::string& dir, const std::string& suffix = "") {
  std::vector<fs::path> out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().filename().string().ends_with(suffix)) {
      out.push_back(e.path());
    }
  }
  return out;
}

/// The one sealed pack in `dir`.
fs::path only_pack(const std::string& dir) {
  const std::vector<fs::path> packs = regular_files(dir, ".pack");
  EXPECT_EQ(packs.size(), 1u);
  return packs.empty() ? fs::path(dir) / "missing.pack" : packs.front();
}

std::uint64_t file_counter(const char* name) {
  return obs::Registry::global().snapshot().counter(name);
}

/// Seals `payload` under `key` as one new pack of `dir`. The pack is written
/// in a staging directory next to `dir`, so its writer's open never merges
/// the packs of `dir`.
void add_pack(const std::string& dir, const engine::CacheKey& key, const std::string& payload) {
  const std::string stage = (fs::path(dir).parent_path() / "stage").string();
  {
    ResultCache writer(stage);
    writer.store(key, payload);
  }
  const fs::path pack = only_pack(stage);
  fs::rename(pack, fs::path(dir) / pack.filename());
}

std::string payload_of(std::size_t i) { return "record " + std::to_string(i); }

/// Lowers this process's soft descriptor limit for one scope.
class FdLimit {
 public:
  explicit FdLimit(rlim_t soft) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ::setrlimit(RLIMIT_NOFILE, &lowered);
  }
  ~FdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  FdLimit(const FdLimit&) = delete;
  FdLimit& operator=(const FdLimit&) = delete;

 private:
  rlimit saved_{};
};

/// True when this process can still open a file.
bool can_open_a_file() {
  const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

engine::SweepSpec small_sweep() {
  engine::SweepSpec spec;
  spec.base.n_masters = 2;
  spec.base.streams_per_master = 3;
  spec.base.ttr = 3'000;
  spec.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.8, 0.5, 1.0}};
  spec.scenarios_per_point = 5;
  spec.policies = {engine::Policy::Fcfs, engine::Policy::Dm};
  spec.seed = 7;
  return spec;
}

void expect_same_outcomes(const engine::SweepResult& a, const engine::SweepResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].seed, b.outcomes[i].seed);
    EXPECT_EQ(a.outcomes[i].tcycle, b.outcomes[i].tcycle);
    EXPECT_EQ(a.outcomes[i].schedulable, b.outcomes[i].schedulable);
    EXPECT_EQ(a.outcomes[i].worst_slack, b.outcomes[i].worst_slack);
  }
}

TEST(ResultCache, PayloadRoundTrip) {
  const CacheDir dir("roundtrip");
  ResultCache cache(dir.path());
  const engine::CacheKey key{0x1234'5678'9abc'def0ULL, 42};
  std::string payload;
  EXPECT_FALSE(cache.load(key, payload));
  cache.store(key, "a1 100 1 7\nwith embedded newline");
  ASSERT_TRUE(cache.load(key, payload));
  EXPECT_EQ(payload, "a1 100 1 7\nwith embedded newline");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stores(), 1u);
}

TEST(ResultCache, HitAfterMissIsBitIdentical) {
  const CacheDir dir("deterministic");
  const engine::SweepSpec spec = small_sweep();
  engine::SweepRunner runner(2);
  const engine::SweepResult plain = runner.run(spec);

  ResultCache cache(dir.path());
  const engine::SweepResult cold = runner.run(spec, &cache);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, spec.total_scenarios() * spec.policies.size());

  const engine::SweepResult warm = runner.run(spec, &cache);
  EXPECT_EQ(warm.cache_hits, spec.total_scenarios() * spec.policies.size());
  EXPECT_EQ(warm.cache_misses, 0u);

  expect_same_outcomes(plain, cold);
  expect_same_outcomes(plain, warm);
  EXPECT_EQ(engine::aggregate(spec, warm).to_csv(), engine::aggregate(spec, plain).to_csv());
}

TEST(ResultCache, SimAndCombinedModesHitWarm) {
  const CacheDir dir("sim");
  engine::SimSweepSpec spec;
  spec.sweep = small_sweep();
  spec.replications = 2;
  engine::SweepRunner runner(2);
  ResultCache cache(dir.path());

  const engine::SimSweepResult plain = runner.run_sim(spec);
  const engine::SimSweepResult cold = runner.run_sim(spec, &cache);
  const engine::SimSweepResult warm = runner.run_sim(spec, &cache);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(engine::aggregate_sim(spec, warm).to_csv(),
            engine::aggregate_sim(spec, plain).to_csv());

  // Combined records are keyed separately (they carry the joined columns):
  // the sim-mode entries above must not leak into combined mode.
  const engine::CombinedResult cplain = runner.run_combined(spec);
  const engine::CombinedResult ccold = runner.run_combined(spec, &cache);
  EXPECT_EQ(ccold.cache_hits, 0u);
  const engine::CombinedResult cwarm = runner.run_combined(spec, &cache);
  EXPECT_EQ(cwarm.cache_misses, 0u);
  EXPECT_EQ(engine::consistency_table(spec, cwarm).to_csv(),
            engine::consistency_table(spec, cplain).to_csv());
}

TEST(ResultCache, PolicySetChangeRecomputesOnlyMisses) {
  const CacheDir dir("policies");
  engine::SweepSpec spec = small_sweep();
  spec.policies = {engine::Policy::Fcfs};
  engine::SweepRunner runner(2);
  ResultCache cache(dir.path());
  (void)runner.run(spec, &cache);

  // Adding DM and EDF re-sweeps the same scenarios: FCFS entries hit, only
  // the new policies compute (ROADMAP's "incremental re-sweep" item).
  spec.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  const engine::SweepResult extended = runner.run(spec, &cache);
  EXPECT_EQ(extended.cache_hits, spec.total_scenarios());
  EXPECT_EQ(extended.cache_misses, 2 * spec.total_scenarios());

  engine::SweepRunner reference(2);
  expect_same_outcomes(reference.run(spec), extended);
}

TEST(ResultCache, AddedUPointsReuseExistingEntries) {
  const CacheDir dir("upoints");
  engine::SweepSpec spec = small_sweep();
  engine::SweepRunner runner(2);
  ResultCache cache(dir.path());
  (void)runner.run(spec, &cache);

  // Appending a u-point keeps the existing points' ids — and the cache is
  // content-addressed anyway, so every previously-swept scenario hits.
  engine::SweepSpec wider = spec;
  wider.points.push_back(engine::SweepPoint{1.1, 0.5, 1.0});
  const engine::SweepResult r = runner.run(wider, &cache);
  EXPECT_EQ(r.cache_hits, spec.total_scenarios() * spec.policies.size());
  EXPECT_EQ(r.cache_misses, wider.scenarios_per_point * wider.policies.size());
}

TEST(ResultCache, VersionMismatchInvalidates) {
  const CacheDir dir("version");
  const engine::CacheKey key{1, 2};
  {
    ResultCache seeder(dir.path());
    seeder.store(key, "payload");
  }
  // Rewrite the sealed pack as a future format version: the whole pack is
  // refused, and a store/load cycle recovers the record into a new pack.
  const fs::path pack = only_pack(dir.path());
  const std::string bytes = read_file(pack);
  ASSERT_EQ(bytes.rfind("profisched-cache v2\n", 0), 0u);
  write_file(pack, "profisched-cache v999\n" + bytes.substr(20));
  std::string payload;
  {
    ResultCache cache(dir.path());
    EXPECT_FALSE(cache.load(key, payload));
    cache.store(key, "payload");
    ASSERT_TRUE(cache.load(key, payload));
    EXPECT_EQ(payload, "payload");
  }
  ResultCache reopened(dir.path());
  ASSERT_TRUE(reopened.load(key, payload));
  EXPECT_EQ(payload, "payload");
}

TEST(ResultCache, CorruptedPacksAreRejected) {
  const CacheDir dir("corrupt");
  const engine::CacheKey key{3, 4};
  {
    ResultCache seeder(dir.path());
    seeder.store(key, "intact payload bytes");
  }
  const fs::path pack = only_pack(dir.path());
  const std::string intact = read_file(pack);
  std::string payload;
  const auto refused = [&](const std::string& bytes) {
    write_file(pack, bytes);
    ResultCache cache(dir.path());
    return !cache.load(key, payload);
  };
  // A pack truncated inside the frame, garbage, and an empty file must all
  // read as misses.
  EXPECT_TRUE(refused(intact.substr(0, intact.size() - 5)));
  EXPECT_TRUE(refused(intact.substr(0, 30)));
  EXPECT_TRUE(refused("complete garbage"));
  EXPECT_TRUE(refused(""));
  write_file(pack, intact);
  ResultCache control(dir.path());
  ASSERT_TRUE(control.load(key, payload));
  EXPECT_EQ(payload, "intact payload bytes");
}

TEST(ResultCache, ForeignKeyEchoIsAHealNotAHit) {
  const CacheDir dir("foreign");
  const CacheDir other_dir("foreign_other");
  const engine::CacheKey key{5, 6};
  const engine::CacheKey other{5, 7};
  {
    ResultCache seeder(dir.path());
    seeder.store(key, "abc");
    ResultCache other_seeder(other_dir.path());
    other_seeder.store(other, "xyz");
  }
  // The reader indexes the pack; the pack then turns into another intact
  // pack whose frame at the same offset is a different key's (a stale index
  // over a rewritten file, or a 128-bit collision). Its checksum holds, so
  // only the key echo can refuse it — as a heal, never as a hit.
  const fs::path pack = only_pack(dir.path());
  ResultCache reader(dir.path());
  write_file(pack, read_file(only_pack(other_dir.path())));
  const std::uint64_t heals0 = file_counter("cache.file.corruption_heals");
  std::string payload;
  EXPECT_FALSE(reader.load(key, payload));
  EXPECT_EQ(file_counter("cache.file.corruption_heals") - heals0, 1u);
  // ...and the recomputed record stored after the heal is served.
  reader.store(key, "abc");
  ASSERT_TRUE(reader.load(key, payload));
  EXPECT_EQ(payload, "abc");
}

TEST(ResultCache, ChecksumCatchesEveryFlippedPayloadOrChecksumByte) {
  const CacheDir dir("checksum");
  const engine::CacheKey key{7, 8};
  const std::string stored = "0123456789abcdef0123";
  {
    ResultCache seeder(dir.path());
    seeder.store(key, stored);
  }
  const fs::path pack = only_pack(dir.path());
  const std::string intact = read_file(pack);
  // Frame: 16 key bytes, 4 length bytes, payload, 8 checksum bytes. Flip
  // each payload and checksum byte in turn; none may be served.
  const std::size_t payload_at = 20 + 20;
  ASSERT_EQ(intact.size(), payload_at + stored.size() + 8);
  for (std::size_t at = payload_at; at < intact.size(); ++at) {
    std::string bytes = intact;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
    write_file(pack, bytes);
    ResultCache cache(dir.path());
    const std::uint64_t heals0 = file_counter("cache.file.corruption_heals");
    std::string payload;
    EXPECT_FALSE(cache.load(key, payload)) << "byte " << at;
    EXPECT_EQ(file_counter("cache.file.corruption_heals") - heals0, 1u) << "byte " << at;
  }
}

TEST(ResultCache, JunkedPacksAreRecomputedAndHealed) {
  const CacheDir dir("junk");
  const engine::SweepSpec spec = small_sweep();
  const std::size_t lookups = spec.total_scenarios() * spec.policies.size();
  engine::SweepRunner runner(2);
  engine::SweepRunner reference(2);
  {
    ResultCache filler(dir.path());
    (void)runner.run(spec, &filler);
  }
  // A reader indexes the sealed pack, then every file in the directory turns
  // to junk under it: every record is refused (a heal), recomputed, and
  // served from this instance's own pack on the next run.
  ResultCache swept(dir.path());
  for (const fs::path& f : regular_files(dir.path())) write_file(f, "junk");
  const std::uint64_t heals0 = file_counter("cache.file.corruption_heals");
  const engine::SweepResult healed = runner.run(spec, &swept);
  EXPECT_EQ(healed.cache_hits, 0u);  // every record was junk
  EXPECT_EQ(file_counter("cache.file.corruption_heals") - heals0, lookups);
  const engine::SweepResult warm = runner.run(spec, &swept);
  EXPECT_EQ(warm.cache_misses, 0u);  // ...and every record got rewritten
  expect_same_outcomes(reference.run(spec), warm);

  // The same again with the live writer's own temp pack junked.
  for (const fs::path& f : regular_files(dir.path())) write_file(f, "junk");
  EXPECT_EQ(runner.run(spec, &swept).cache_hits, 0u);
  const engine::SweepResult rewarm = runner.run(spec, &swept);
  EXPECT_EQ(rewarm.cache_misses, 0u);
  expect_same_outcomes(reference.run(spec), rewarm);
}

TEST(ResultCache, EqualContentDifferentSeedScenariosDoNotShareSimRecords) {
  // Adversarial construction: one stream per master with every generator
  // knob pinned (fixed frame sizes, beta_lo == beta_hi, no LP traffic,
  // UUniFast with n = 1 is deterministic) makes every scenario of a point
  // byte-identical in CONTENT while keeping distinct RNG seeds. Simulation
  // outcomes still differ across them (replication draws derive from the
  // seed), so a cache that keyed sim records by content alone would serve
  // scenario 0's record to every sibling and silently corrupt the sweep.
  const CacheDir dir("seeded");
  engine::SimSweepSpec spec;
  spec.sweep.base.n_masters = 1;
  spec.sweep.base.streams_per_master = 1;
  spec.sweep.base.request_chars_min = spec.sweep.base.request_chars_max = 20;
  spec.sweep.base.response_chars_min = spec.sweep.base.response_chars_max = 20;
  spec.sweep.base.low_priority_traffic = false;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {engine::SweepPoint{0.9, 1.0, 1.0}};
  spec.sweep.scenarios_per_point = 4;
  spec.sweep.policies = {engine::Policy::Fcfs};
  spec.sweep.seed = 5;
  spec.replications = 3;  // reps >= 1 draw random phases from the seed
  spec.sim.cycle_model.kind = sim::CycleModel::Kind::UniformFraction;

  const engine::Scenario s0 = engine::SweepRunner::make_scenario(spec.sweep, 0);
  const engine::Scenario s1 = engine::SweepRunner::make_scenario(spec.sweep, 1);
  ASSERT_EQ(engine::canonical_hash(s0), engine::canonical_hash(s1));  // setup is adversarial
  ASSERT_NE(s0.seed, s1.seed);

  engine::SweepRunner runner(2);
  const engine::SimSweepResult plain = runner.run_sim(spec);
  // The distinct seeds genuinely matter: sibling scenarios observe different
  // maxima (uniform cycle draws + random phases).
  EXPECT_NE(plain.outcomes[0].observed_max, plain.outcomes[1].observed_max);

  ResultCache cache(dir.path());
  (void)runner.run_sim(spec, &cache);
  const engine::SimSweepResult warm = runner.run_sim(spec, &cache);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(engine::aggregate_sim(spec, warm).to_csv(),
            engine::aggregate_sim(spec, plain).to_csv());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(warm.outcomes[i].observed_max, plain.outcomes[i].observed_max) << i;
    EXPECT_EQ(warm.outcomes[i].misses, plain.outcomes[i].misses) << i;
  }
}

TEST(ResultCache, OpenSweepsOldOrphanTmpPacksButSparesFreshOnes) {
  const CacheDir dir("orphans");
  const engine::CacheKey key{0xabcd, 0xef01};
  {
    ResultCache seeder(dir.path());
    seeder.store(key, "kept payload");
  }
  // Plant temp packs around the sealed one as if two writers died before
  // sealing: one long ago, one a moment ago. The sweep is non-recursive, so
  // an old temp pack in a subdirectory is not the cache's to reap.
  const fs::path old_orphan = fs::path(dir.path()) / "4242-00000000000000aa.pack.tmp";
  const fs::path fresh_orphan = fs::path(dir.path()) / "4243-00000000000000bb.pack.tmp";
  const fs::path nested = fs::path(dir.path()) / "sub" / "4244-00000000000000cc.pack.tmp";
  fs::create_directories(nested.parent_path());
  std::ofstream(old_orphan) << "half-written";
  std::ofstream(fresh_orphan) << "still being written";
  std::ofstream(nested) << "someone else's";
  const auto two_hours_ago = fs::file_time_type::clock::now() - std::chrono::hours(2);
  fs::last_write_time(old_orphan, two_hours_ago);
  fs::last_write_time(nested, two_hours_ago);

  ResultCache cache(dir.path(), /*orphan_min_age=*/std::chrono::minutes(5));
  EXPECT_EQ(cache.orphans_reaped(), 1u);
  EXPECT_FALSE(fs::exists(old_orphan));   // the dead writer's leak is gone
  EXPECT_TRUE(fs::exists(fresh_orphan));  // a live writer's pack survives
  EXPECT_TRUE(fs::exists(nested));
  std::string payload;
  EXPECT_TRUE(cache.load(key, payload));  // sealed packs are never touched
  EXPECT_EQ(payload, "kept payload");
}

TEST(ResultCache, OrphanSweepIgnoresNonTmpNamesAndEmptyDirs) {
  const CacheDir dir("orphans_safe");
  const engine::CacheKey key{7, 9};
  {
    // Opening a brand-new (empty) directory sweeps nothing and must not throw.
    ResultCache first(dir.path(), std::chrono::seconds(0));
    EXPECT_EQ(first.orphans_reaped(), 0u);
    first.store(key, "payload");
  }
  // With min_age 0 every temp pack qualifies immediately; sealed packs and
  // oddly-named bystanders still survive because only `*.pack.tmp` is reaped.
  const fs::path pack = only_pack(dir.path());
  const fs::path bystander = fs::path(dir.path()) / "README";
  const fs::path orphan = fs::path(dir.path()) / "1-0000000000000002.pack.tmp";
  std::ofstream(bystander) << "not a scratch file";
  std::ofstream(orphan) << "orphan";

  ResultCache second(dir.path(), std::chrono::seconds(0));
  EXPECT_EQ(second.orphans_reaped(), 1u);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(bystander));
  EXPECT_TRUE(fs::exists(pack));
  std::string payload;
  EXPECT_TRUE(second.load(key, payload));
  EXPECT_EQ(payload, "payload");
}

TEST(ResultCache, StoreFreeInstanceLeavesTheDirectoryAsItWas) {
  const CacheDir dir("store_free");
  {
    ResultCache cache(dir.path());
    std::string payload;
    EXPECT_FALSE(cache.load(engine::CacheKey{1, 1}, payload));
  }
  EXPECT_TRUE(regular_files(dir.path()).empty());

  // A warm run only reads: it adds no pack.
  const engine::SweepSpec spec = small_sweep();
  engine::SweepRunner runner(2);
  {
    ResultCache cold(dir.path());
    (void)runner.run(spec, &cold);
  }
  ASSERT_EQ(regular_files(dir.path()).size(), 1u);
  {
    ResultCache warm(dir.path());
    EXPECT_EQ(runner.run(spec, &warm).cache_misses, 0u);
  }
  EXPECT_EQ(regular_files(dir.path()).size(), 1u);
}

TEST(ResultCache, V1FanOutDirectoryReadsAsMissesThenHealsIntoAPack) {
  const CacheDir dir("v1");
  const engine::SweepSpec spec = small_sweep();
  const std::size_t lookups = spec.total_scenarios() * spec.policies.size();
  engine::SweepRunner runner(2);
  // A format-1 directory: one file per record, fanned out on the first hex
  // byte of the key. Plant one such entry per fan-out slot a real one used.
  for (int slot = 0; slot < 256; slot += 17) {
    char sub[3];
    std::snprintf(sub, sizeof sub, "%02x", slot);
    const fs::path entry = fs::path(dir.path()) / sub / (std::string(sub) + std::string(30, '0'));
    fs::create_directories(entry.parent_path());
    std::ofstream(entry) << "profisched-cache v1\nkey " << entry.filename().string()
                         << "\nlen 3\nabc";
  }
  const std::size_t v1_files = regular_files(dir.path()).size();
  {
    ResultCache cache(dir.path());
    const engine::SweepResult cold = runner.run(spec, &cache);
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_EQ(cold.cache_misses, lookups);
  }
  EXPECT_EQ(regular_files(dir.path()).size(), v1_files + 1);  // one new pack
  ASSERT_TRUE(fs::exists(only_pack(dir.path())));
  ResultCache warm_cache(dir.path());
  const engine::SweepResult warm = runner.run(spec, &warm_cache);
  EXPECT_EQ(warm.cache_misses, 0u);
  engine::SweepRunner reference(2);
  expect_same_outcomes(reference.run(spec), warm);
}

TEST(ResultCache, PacksRollAndStayReadable) {
  const CacheDir dir("roll");
  // Enough 64 KiB records to pass the roll size once.
  const std::size_t n = ResultCache::kRollBytes / (64 << 10) + 4;
  const auto payload_of = [](std::size_t i) {
    return std::string(64 << 10, static_cast<char>('a' + i % 26)) + std::to_string(i);
  };
  {
    ResultCache writer(dir.path());
    for (std::size_t i = 0; i < n; ++i) writer.store(engine::CacheKey{i, 1}, payload_of(i));
    // The first pack is sealed (visible to other readers) while the writer
    // lives; every record, before and after the roll, still hits here.
    EXPECT_EQ(regular_files(dir.path(), ".pack").size(), 1u);
    std::string payload;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(writer.load(engine::CacheKey{i, 1}, payload)) << i;
      ASSERT_EQ(payload, payload_of(i)) << i;
    }
  }
  EXPECT_EQ(regular_files(dir.path(), ".pack").size(), 2u);
  EXPECT_TRUE(regular_files(dir.path(), ".tmp").empty());
  ResultCache reader(dir.path());
  std::string payload;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(reader.load(engine::CacheKey{i, 1}, payload)) << i;
    ASSERT_EQ(payload, payload_of(i)) << i;
  }
}

TEST(ResultCache, WritersRecordsBecomeVisibleToOtherReadersAtSeal) {
  const CacheDir dir("visibility");
  const engine::CacheKey key{11, 12};
  std::string payload;
  auto writer = std::make_unique<ResultCache>(dir.path());
  writer->store(key, "sealed later");
  ASSERT_TRUE(writer->load(key, payload));  // hit-after-store in the writer

  // A reader opened while the writer is live does not see its records, not
  // even after the writer seals: the index is built once, at open.
  ResultCache early(dir.path());
  EXPECT_FALSE(early.load(key, payload));
  writer.reset();  // seal
  EXPECT_FALSE(early.load(key, payload));

  ResultCache late(dir.path());
  ASSERT_TRUE(late.load(key, payload));
  EXPECT_EQ(payload, "sealed later");
}

TEST(ResultCache, ConcurrentWritersSharingOneDirectory) {
  const CacheDir dir("concurrent");
  const engine::SweepSpec spec = small_sweep();
  engine::SweepRunner reference(2);
  const engine::SweepResult plain = reference.run(spec);

  // Two populators race on one cold directory — as two processes sharing a
  // cache would. Each uses its own multi-threaded runner, so stores collide
  // both within and across ResultCache instances. Their records become
  // visible to other instances when they seal, at destruction.
  {
    ResultCache a(dir.path()), b(dir.path());
    engine::SweepResult ra, rb;
    std::thread ta([&] { ra = engine::SweepRunner(2).run(spec, &a); });
    std::thread tb([&] { rb = engine::SweepRunner(2).run(spec, &b); });
    ta.join();
    tb.join();
    expect_same_outcomes(plain, ra);
    expect_same_outcomes(plain, rb);
  }

  ResultCache warm_cache(dir.path());
  const engine::SweepResult warm = reference.run(spec, &warm_cache);
  EXPECT_EQ(warm.cache_misses, 0u);
  expect_same_outcomes(plain, warm);
}

TEST(ResultCache, ManyPacksMergeIntoOneUnderALowDescriptorLimit) {
  const CacheDir dir("many_packs");
  fs::create_directories(dir.path());
  // More packs than the process may hold descriptors: as many runs sharing
  // one directory would leave behind.
  constexpr rlim_t kLimit = 64;
  constexpr std::size_t kPacks = 96;
  for (std::size_t i = 0; i < kPacks; ++i) add_pack(dir.path(), engine::CacheKey{i, 1}, payload_of(i));
  ASSERT_EQ(regular_files(dir.path(), ".pack").size(), kPacks);

  const FdLimit limit(kLimit);
  {
    ResultCache cache(dir.path());
    EXPECT_EQ(regular_files(dir.path(), ".pack").size(), 1u);  // merged, absorbed packs gone
    EXPECT_TRUE(can_open_a_file());
    std::string payload;
    for (std::size_t i = 0; i < kPacks; ++i) {
      ASSERT_TRUE(cache.load(engine::CacheKey{i, 1}, payload)) << i;
      EXPECT_EQ(payload, payload_of(i));
    }
    cache.store(engine::CacheKey{kPacks, 1}, payload_of(kPacks));
  }
  EXPECT_EQ(regular_files(dir.path(), ".pack").size(), 2u);
  EXPECT_TRUE(regular_files(dir.path(), ".tmp").empty());
  ResultCache reader(dir.path());
  std::string payload;
  for (std::size_t i = 0; i <= kPacks; ++i) {
    ASSERT_TRUE(reader.load(engine::CacheKey{i, 1}, payload)) << i;
    EXPECT_EQ(payload, payload_of(i));
  }
  EXPECT_TRUE(can_open_a_file());
}

TEST(ResultCache, OpenerThatFindsTheMergeLockTakenHoldsAtMostTheCap) {
  const CacheDir dir("merge_locked");
  fs::create_directories(dir.path());
  const std::size_t packs = ResultCache::kMaxOpenPacks + 8;
  for (std::size_t i = 0; i < packs; ++i) add_pack(dir.path(), engine::CacheKey{i, 1}, payload_of(i));

  // Another process merging right now holds the directory's flock.
  const int dir_fd = ::open(dir.path().c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  ASSERT_GE(dir_fd, 0);
  ASSERT_EQ(::flock(dir_fd, LOCK_EX | LOCK_NB), 0);
  {
    ResultCache cache(dir.path());
    EXPECT_EQ(regular_files(dir.path(), ".pack").size(), packs);  // nothing merged
    std::size_t served = 0;
    std::string payload;
    for (std::size_t i = 0; i < packs; ++i) {
      if (!cache.load(engine::CacheKey{i, 1}, payload)) continue;
      ++served;
      EXPECT_EQ(payload, payload_of(i));
    }
    EXPECT_EQ(served, ResultCache::kMaxOpenPacks);  // the rest are misses
  }
  ::close(dir_fd);

  ResultCache merged(dir.path());
  EXPECT_EQ(regular_files(dir.path(), ".pack").size(), 1u);
  std::string payload;
  for (std::size_t i = 0; i < packs; ++i) {
    ASSERT_TRUE(merged.load(engine::CacheKey{i, 1}, payload)) << i;
    EXPECT_EQ(payload, payload_of(i));
  }
}

TEST(ResultCache, MergeKeepsEachIntactRecordOnceAndLeavesOtherVersionsAlone) {
  const CacheDir dir("merge_content");
  fs::create_directories(dir.path());
  const std::size_t keys = ResultCache::kMaxOpenPacks;
  for (std::size_t i = 0; i < keys; ++i) add_pack(dir.path(), engine::CacheKey{i, 1}, payload_of(i));
  // Duplicates of record 0, a pack whose only record has a flipped payload
  // byte, and a pack of a future format version.
  add_pack(dir.path(), engine::CacheKey{0, 1}, payload_of(0));
  add_pack(dir.path(), engine::CacheKey{0, 1}, payload_of(0));
  const engine::CacheKey flipped_key{keys, 1};
  const std::string stage = (fs::path(dir.path()).parent_path() / "stage").string();
  {
    ResultCache writer(stage);
    writer.store(flipped_key, "flipped");
  }
  std::string flipped = read_file(only_pack(stage));
  flipped[flipped.size() - 9] ^= 0x01;  // last payload byte
  fs::remove(only_pack(stage));
  write_file(fs::path(dir.path()) / "1-00000000000000f1.pack", flipped);
  const fs::path future = fs::path(dir.path()) / "1-00000000000000f2.pack";
  write_file(future, "profisched-cache v999\nnot ours to read or delete");

  ResultCache cache(dir.path());
  const std::vector<fs::path> left = regular_files(dir.path(), ".pack");
  ASSERT_EQ(left.size(), 2u);  // the merged pack and the future-version one
  EXPECT_TRUE(fs::exists(future));
  const fs::path merged = left[0] == future ? left[1] : left[0];
  std::size_t frames_bytes = 0;
  for (std::size_t i = 0; i < keys; ++i) frames_bytes += 28 + payload_of(i).size();
  EXPECT_EQ(fs::file_size(merged), std::string("profisched-cache v2\n").size() + frames_bytes);
  std::string payload;
  for (std::size_t i = 0; i < keys; ++i) {
    ASSERT_TRUE(cache.load(engine::CacheKey{i, 1}, payload)) << i;
    EXPECT_EQ(payload, payload_of(i));
  }
  EXPECT_FALSE(cache.load(flipped_key, payload));
}

TEST(ResultCache, QuietWriterWhoseTempPackWasReapedStillSealsItsRecords) {
  const CacheDir dir("reaped_writer");
  const engine::CacheKey key{21, 22};
  {
    ResultCache writer(dir.path());
    writer.store(key, "outlived the age gate");
    // Another process opens the directory while this writer is quiet, with
    // an age gate its temp pack has passed.
    ResultCache reaper(dir.path(), std::chrono::seconds(0));
    ASSERT_EQ(reaper.orphans_reaped(), 1u);
    ASSERT_TRUE(regular_files(dir.path()).empty());
    std::string payload;
    ASSERT_TRUE(writer.load(key, payload));  // the writer still reads its own records
  }
  EXPECT_TRUE(regular_files(dir.path(), ".tmp").empty());
  ResultCache reader(dir.path());
  std::string payload;
  ASSERT_TRUE(reader.load(key, payload));
  EXPECT_EQ(payload, "outlived the age gate");
}

}  // namespace
}  // namespace profisched::dist
