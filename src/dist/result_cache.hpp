// dist/result_cache.hpp — the persistent, content-addressed scenario-result
// store behind `profisched sweep/simulate/optimize/shard --cache <dir>`.
//
// One append-only pack per writer, in the top level of the directory (the
// log-structured layout of Rosenblum & Ousterhout, SOSP 1991). A pack is a
// versioned header followed by record frames:
//
//   header  "profisched-cache v<kFormatVersion>\n"
//   frame   scenario u64 | params u64 | length u32 | payload | checksum u64
//
// Integers are little-endian; the 128-bit key echo leads each frame and the
// checksum covers key, length and payload. A format bump therefore
// invalidates every old pack wholesale, and a truncated, corrupted or foreign
// frame is rejected as a miss — the engine recomputes the record and appends
// it again (a "heal").
//
// Writing: the first store() opens `<pid>-<nonce>.pack.tmp`; stores append to
// it, and the pack is sealed — flushed, then rename()d to `<pid>-<nonce>.pack`
// — when it reaches kRollBytes and when the cache is destroyed. The random
// 64-bit nonce keeps names unique across processes and hosts sharing the
// directory, and the rename publishes a pack whole: a reader never sees a
// torn one. An instance that stores nothing leaves no file.
//
// Reading: the constructor scans the sealed packs once and builds a flat,
// sorted index of key hash -> (pack, offset, length): 16 bytes a record, no
// payload bytes. load() is a lock-free binary search plus at most one
// pread(), and checks the key echo, the length and the checksum. Each thread
// keeps the last 4 KiB it read from a sealed pack, and a warm run reads
// records back in about the order they were stored, so one pread serves
// several loads. This instance's own stores go to a mutex-guarded side index
// consulted after the sealed one, so a record stored here hits here at once;
// another writer's records become visible to caches opened after that
// writer seals its pack.
//
// Compaction: an open that finds more than kMaxOpenPacks sealed packs first
// merges them into one new pack (each intact record once) and unlinks the
// packs it absorbed, under an exclusive flock on the directory so that one
// opener merges while the others go on. A cache therefore holds at most
// kMaxOpenPacks sealed packs open, however many runs shared the directory.
//
// The cache is strictly advisory: every I/O failure degrades to a miss or a
// dropped store, never an exception out of load()/store() — a flaky disk
// must not kill a sweep that could simply recompute.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"

namespace profisched::dist {

class ResultCache final : public engine::ScenarioCache {
 public:
  /// Bump to invalidate every existing pack (the header carries it).
  static constexpr std::uint32_t kFormatVersion = 2;

  /// A writer seals its pack and starts a new one once the pack holds this
  /// many bytes, so a killed run loses at most this much of its work.
  static constexpr std::uint64_t kRollBytes = std::uint64_t{16} << 20;

  /// An open that finds more sealed packs than this merges them into one,
  /// and a cache never holds more than this many sealed packs open.
  static constexpr std::size_t kMaxOpenPacks = 32;

  /// A `*.pack.tmp` file untouched for this long at open time is treated as
  /// an orphan (its writer died before sealing it) and reaped. A live writer
  /// flushes to its temp pack at least once a minute while it stores, and
  /// seals it when done, so 15 minutes is a wide safety margin for processes
  /// sharing the directory. (A writer that goes quiet for longer and has its
  /// temp pack reaped still seals a copy of it: its records survive.)
  static constexpr std::chrono::seconds kDefaultOrphanMinAge{15 * 60};

  /// Creates `dir` (and parents) if missing; throws std::runtime_error when
  /// the directory cannot be created at all. On open, reaps orphaned temp
  /// packs at least `orphan_min_age` old, then indexes the sealed packs.
  explicit ResultCache(std::string dir,
                       std::chrono::seconds orphan_min_age = kDefaultOrphanMinAge);
  /// Seals this instance's pack, if it stored anything.
  ~ResultCache() override;
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool load(const engine::CacheKey& key, std::string& payload) override;
  void store(const engine::CacheKey& key, const std::string& payload) override;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_.load(); }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_.load(); }
  [[nodiscard]] std::uint64_t stores() const noexcept { return stores_.load(); }
  /// Orphaned temp packs reaped by the open-time sweep.
  [[nodiscard]] std::uint64_t orphans_reaped() const noexcept { return orphans_reaped_.load(); }

 private:
  /// An open pack and where it starts in its index's address space: the
  /// packs of one index are laid end to end, so an index entry names a pack
  /// and an offset with one address.
  struct Pack {
    int fd;
    std::uint64_t base;
  };
  /// Index entry: a 64-bit hash of the key, and `loc`, the frame's address
  /// << 24 | frame bytes. A frame has at least 28 bytes, so loc is never 0
  /// and loc 0 marks an empty side_ slot.
  struct Slot {
    std::uint64_t hash;
    std::uint64_t loc;
  };

  /// Delete top-level `*.pack.tmp` files whose mtime is at least `min_age`
  /// in the past. Advisory like all cache I/O: any filesystem error just
  /// leaves the file for the next open.
  void sweep_orphaned_tmp(std::chrono::seconds min_age);
  /// Open and index the sealed packs of dir_, merging them first when there
  /// are more than kMaxOpenPacks (constructor only).
  void index_sealed_packs();

  /// The loc stored under `hash` in side_, or 0.
  [[nodiscard]] std::uint64_t side_find(std::uint64_t hash) const;
  void side_insert(std::uint64_t hash, std::uint64_t loc);

  // Writer side; all of these run with mu_ held.
  bool open_pack();
  bool flush();
  void seal();
  /// Seals a copy of the temp pack after another process reaped it.
  bool republish();
  void abandon();

  const std::uint64_t id_;  ///< tags this cache's read-ahead windows
  std::string dir_;
  std::vector<Pack> sealed_;  ///< immutable after construction
  std::vector<Slot> index_;   ///< sorted by hash; immutable after construction

  std::mutex mu_;
  std::vector<Pack> own_;  ///< this instance's packs; the last one may be open for writing
  /// Own records: open addressing with linear probing, a power-of-two size
  /// at most 7/8 full; locs address own_. Flat rather than a node-based map:
  /// a writer that fills a cache holds one entry per record, and on
  /// perfbench's shard_cache (13,824 records) std::unordered_map raised
  /// peak_rss_mb by ~0.4 MiB, ~4% (Intel Xeon 4 vCPU, gcc 12 Release).
  std::vector<Slot> side_;
  std::size_t side_count_ = 0;
  std::string tmp_path_;   ///< the temp pack being written; empty when none is open
  std::string pending_;    ///< appended bytes not yet written to the temp pack
  std::uint64_t written_ = 0;  ///< bytes of the temp pack already on disk
  std::chrono::steady_clock::time_point last_flush_;
  std::uint64_t own_end_ = 0;  ///< address just past the last of own_
  bool store_failed_ = false;  ///< a write failed: drop every later store

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> orphans_reaped_{0};

  // File-level telemetry, distinct from the runner's record-level cache.*
  // series: bytes moved and "heals" — records that were found but refused
  // (foreign key echo / bad length / bad checksum / short read) and will be
  // recomputed and appended again.
  obs::Counter obs_hits_ = obs::Registry::global().counter("cache.file.hits");
  obs::Counter obs_misses_ = obs::Registry::global().counter("cache.file.misses");
  obs::Counter obs_heals_ = obs::Registry::global().counter("cache.file.corruption_heals");
  obs::Counter obs_stores_ = obs::Registry::global().counter("cache.file.stores");
  obs::Counter obs_orphans_ = obs::Registry::global().counter("cache.file.orphans_reaped");
  obs::Counter obs_bytes_read_ = obs::Registry::global().counter("cache.file.bytes_read");
  obs::Counter obs_bytes_written_ = obs::Registry::global().counter("cache.file.bytes_written");
};

}  // namespace profisched::dist
