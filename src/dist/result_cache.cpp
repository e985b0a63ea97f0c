#include "dist/result_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <system_error>
#include <unordered_set>
#include <utility>

namespace profisched::dist {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kMaxPayload = std::uint64_t{8} << 20;  ///< a longer store is dropped
constexpr std::size_t kFrameHead = 20;      ///< key echo (16) + payload length (4)
constexpr std::size_t kFrameOverhead = 28;  ///< head + checksum (8)
constexpr int kLenBits = 24;                ///< low bits of a loc: frame bytes
constexpr std::uint64_t kLenMask = (std::uint64_t{1} << kLenBits) - 1;
constexpr std::uint64_t kMaxAddress = std::uint64_t{1} << (64 - kLenBits);
constexpr std::size_t kIoChunk = std::size_t{64} << 10;  ///< scan reads and write batches
constexpr std::size_t kReadAhead = 4096;                 ///< load()'s window on a sealed pack
/// A storing writer flushes at least this often, so its temp pack's mtime
/// stays far inside the orphan sweep's age gate.
constexpr std::chrono::seconds kFlushInterval{60};
constexpr const char* kPackSuffix = ".pack";
constexpr const char* kTmpSuffix = ".pack.tmp";

static_assert(kFrameOverhead + kMaxPayload <= kLenMask);

const std::string& pack_header() {
  static const std::string header =
      "profisched-cache v" + std::to_string(ResultCache::kFormatVersion) + "\n";
  return header;
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  return v;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Frame checksum over key echo, length and payload. Each step is a
/// bijection of the running state, so any single corrupted word changes it.
std::uint64_t checksum(const char* p, std::size_t n) {
  std::uint64_t h = mix64(0x9e3779b97f4a7c15ULL ^ n);
  for (; n >= 8; p += 8, n -= 8) h = mix64(h ^ get_le(p, 8));
  return n == 0 ? h : mix64(h ^ get_le(p, static_cast<int>(n)));
}

/// pread until `n` bytes, EOF or an error; returns the bytes read.
std::size_t pread_full(int fd, char* buf, std::size_t n, std::uint64_t offset) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got, static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

bool pwrite_full(int fd, const char* buf, std::size_t n, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pwrite(fd, buf + done, n - done, static_cast<off_t>(offset + done));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

/// Calls visit(scenario, params, offset, frame_bytes) for each frame of the
/// `size`-byte pack open on `fd`, from just past the header; stops at the
/// first frame whose length is out of bounds or runs past the end. Only the
/// frame heads are parsed — load() checks the rest.
template <class Visit>
void walk_frames(int fd, std::uint64_t size, std::string& buf, Visit&& visit) {
  std::uint64_t at = pack_header().size();
  std::uint64_t buf_at = 0;
  std::size_t buf_len = 0;
  while (at + kFrameOverhead <= size) {
    if (at + kFrameHead > buf_at + buf_len) {
      buf_at = at;
      buf_len = pread_full(fd, buf.data(), std::min<std::uint64_t>(buf.size(), size - at), at);
      if (buf_len < kFrameHead) return;
    }
    const char* head = buf.data() + (at - buf_at);
    const std::uint64_t len = get_le(head + 16, 4);
    if (len > kMaxPayload || at + kFrameOverhead + len > size) return;
    visit(get_le(head, 8), get_le(head + 8, 8), at, kFrameOverhead + len);
    at += kFrameOverhead + len;
  }
}

/// A frame's place on disk, resolved from an index loc.
struct Where {
  int fd = -1;
  std::size_t pack = 0;  ///< position in its packs vector
  std::uint64_t offset = 0;
  std::size_t bytes = 0;
};

/// Resolves `loc` (address << kLenBits | frame bytes) against packs laid end
/// to end from their `base`; fd -1 when no pack holds the address.
template <class Packs>
Where locate(const Packs& packs, std::uint64_t loc) {
  const std::uint64_t address = loc >> kLenBits;
  const auto next = std::upper_bound(packs.begin(), packs.end(), address,
                                     [](std::uint64_t a, const auto& p) { return a < p.base; });
  if (next == packs.begin()) return {};
  const auto& pack = *std::prev(next);
  return Where{pack.fd, static_cast<std::size_t>(std::prev(next) - packs.begin()),
               address - pack.base, static_cast<std::size_t>(loc & kLenMask)};
}

/// Copies the payload out when the `bytes` at `f` are an intact record of
/// `key`. Every check a frame can fail: too short, foreign key echo, a length
/// that disagrees with the index, bad checksum.
bool take_record(const char* f, std::size_t bytes, const engine::CacheKey& key,
                 std::string& payload) {
  if (bytes < kFrameOverhead) return false;
  const std::size_t len = bytes - kFrameOverhead;
  if (get_le(f, 8) != key.scenario || get_le(f + 8, 8) != key.params ||
      get_le(f + 16, 4) != len || get_le(f + kFrameHead + len, 8) != checksum(f, kFrameHead + len)) {
    return false;
  }
  payload.assign(f + kFrameHead, len);
  return true;
}

/// pread the frame at `at` and take its record; a short read (a truncated or
/// rewritten pack) is a refusal like any other.
bool read_frame(const Where& at, const engine::CacheKey& key, std::string& payload) {
  if (at.fd < 0 || at.bytes < kFrameOverhead) return false;
  char small[512];  // every analysis record fits; longer frames take the heap
  std::string large;
  char* f = small;
  if (at.bytes > sizeof small) {
    large.resize(at.bytes);
    f = large.data();
  }
  return pread_full(at.fd, f, at.bytes, at.offset) == at.bytes &&
         take_record(f, at.bytes, key, payload);
}

/// The last stretch of a sealed pack this thread read, tagged with the
/// cache that read it (ids are never reused, so a stale window can never
/// match another cache's packs).
struct ReadAhead {
  std::uint64_t owner = 0;  ///< 0: empty
  std::size_t pack = 0;
  std::uint64_t at = 0;
  std::size_t len = 0;
  char bytes[kReadAhead];
};
thread_local ReadAhead t_read_ahead;
std::atomic<std::uint64_t> g_next_cache_id{1};

/// Sealed packs never change, so a frame inside this thread's window is
/// served from memory; otherwise one pread refills the window from the frame
/// on. A warm run loads records in about the order they were stored, so one
/// pread serves dozens of loads.
bool read_sealed(std::uint64_t owner, const Where& at, const engine::CacheKey& key,
                 std::string& payload) {
  ReadAhead& w = t_read_ahead;
  if (w.owner != owner || w.pack != at.pack || at.offset < w.at ||
      at.offset + at.bytes > w.at + w.len) {
    if (at.fd < 0 || at.bytes > sizeof w.bytes) return read_frame(at, key, payload);
    w.owner = 0;
    const std::size_t got = pread_full(at.fd, w.bytes, sizeof w.bytes, at.offset);
    if (got < at.bytes) return false;
    w.owner = owner;
    w.pack = at.pack;
    w.at = at.offset;
    w.len = got;
  }
  return take_record(w.bytes + (at.offset - w.at), at.bytes, key, payload);
}

/// What the indexes hold of a 128-bit key. Two keys sharing a hash are
/// told apart by the frame's key echo, so a collision costs a read, never a
/// wrong record.
std::uint64_t key_hash(std::uint64_t scenario, std::uint64_t params) {
  return mix64(scenario ^ mix64(params));
}

std::uint64_t random_nonce() {
  try {
    std::random_device rd;
    return (std::uint64_t{rd()} << 32) ^ rd();
  } catch (...) {
    // No entropy source: the clock still separates writers in practice.
    return mix64(static_cast<std::uint64_t>(
        std::chrono::high_resolution_clock::now().time_since_epoch().count()));
  }
}

/// Creates a new, empty `<pid>-<nonce>.pack.tmp` in `dir`; returns its fd
/// (-1 on failure) and sets `path`.
int create_tmp_pack(const std::string& dir, std::string& path) {
  char name[64];
  std::snprintf(name, sizeof name, "/%ld-%016llx", static_cast<long>(::getpid()),
                static_cast<unsigned long long>(random_nonce()));
  path = dir + name + kTmpSuffix;
  return ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
}

/// The temp pack's name without ".tmp".
std::string sealed_name(const std::string& tmp_path) {
  return tmp_path.substr(0, tmp_path.size() - 4);
}

/// Opens `path` read-only when it is a regular file that starts with this
/// format's header, and sets `size`; -1 otherwise.
int open_pack_file(const std::string& path, std::uint64_t& size) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  const std::string& header = pack_header();
  std::string head(header.size(), '\0');
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) ||
      pread_full(fd, head.data(), head.size(), 0) != head.size() || head != header) {
    ::close(fd);
    return -1;
  }
  size = static_cast<std::uint64_t>(st.st_size);
  return fd;
}

/// Top-level `*.pack` names of `dir`, sorted.
std::vector<std::string> sealed_pack_names(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(dir, fs::directory_options::skip_permission_denied, ec);
  const fs::directory_iterator end;
  while (!ec && it != end) {
    std::string name = it->path().filename().string();
    if (name.ends_with(kPackSuffix)) names.push_back(std::move(name));
    it.increment(ec);
  }
  std::sort(names.begin(), names.end());
  return names;
}

struct KeyHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k) const noexcept {
    return static_cast<std::size_t>(key_hash(k.first, k.second));
  }
};

/// Merges every sealed pack of `dir` into one new pack: each intact record
/// once, in the order found. The new pack is sealed before the packs it
/// absorbed are unlinked, so a crash in between leaves duplicates, never a
/// loss. Readers that already opened an absorbed pack keep reading it
/// through their descriptor. Packs of another format version, and any the
/// merge cannot read, are left alone. Runs only under an exclusive flock on
/// the directory, so concurrent openers do not each copy the whole cache;
/// an opener that finds the lock taken skips the merge.
void compact(const std::string& dir) {
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return;
  if (::flock(dir_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(dir_fd);
    return;
  }
  // Listed under the lock: a merge that just finished has already unlinked
  // what it absorbed.
  const std::vector<std::string> names = sealed_pack_names(dir);
  std::string tmp_path;
  const int out = names.size() > ResultCache::kMaxOpenPacks ? create_tmp_pack(dir, tmp_path) : -1;
  if (out >= 0) {
    std::string pending = pack_header();
    std::uint64_t written = 0;
    bool ok = true;
    std::size_t copied = 0;
    std::vector<std::string> absorbed;
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, KeyHash> seen;
    std::string buf(kIoChunk, '\0');
    std::string frame;
    std::string payload;
    for (const std::string& name : names) {
      std::uint64_t size = 0;
      const int fd = open_pack_file(dir + '/' + name, size);
      if (fd < 0) continue;
      walk_frames(fd, size, buf,
                  [&](std::uint64_t scenario, std::uint64_t params, std::uint64_t offset,
                      std::uint64_t bytes) {
                    frame.resize(bytes);
                    if (!ok || pread_full(fd, frame.data(), bytes, offset) != bytes ||
                        !take_record(frame.data(), bytes, engine::CacheKey{scenario, params},
                                     payload) ||
                        !seen.emplace(scenario, params).second) {
                      return;
                    }
                    pending += frame;
                    ++copied;
                    if (pending.size() >= kIoChunk) {
                      ok = pwrite_full(out, pending.data(), pending.size(), written);
                      written += pending.size();
                      pending.clear();
                    }
                  });
      ::close(fd);
      absorbed.push_back(name);
    }
    ok = ok && pwrite_full(out, pending.data(), pending.size(), written);
    ::close(out);
    // A merge that found no intact record publishes nothing.
    const bool published =
        ok && copied > 0 && ::rename(tmp_path.c_str(), sealed_name(tmp_path).c_str()) == 0;
    if (!published) ::unlink(tmp_path.c_str());
    if (published || (ok && copied == 0)) {
      for (const std::string& name : absorbed) ::unlink((dir + '/' + name).c_str());
    }
  }
  ::close(dir_fd);  // releases the lock
}

}  // namespace

ResultCache::ResultCache(std::string dir, std::chrono::seconds orphan_min_age)
    : id_(g_next_cache_id.fetch_add(1)), dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!fs::is_directory(dir_, ec)) {
    throw std::runtime_error("ResultCache: cannot create cache directory '" + dir_ + "'");
  }
  sweep_orphaned_tmp(orphan_min_age);
  index_sealed_packs();
}

ResultCache::~ResultCache() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    seal();
  }
  for (const Pack& p : sealed_) ::close(p.fd);
  for (const Pack& p : own_) ::close(p.fd);
}

void ResultCache::sweep_orphaned_tmp(std::chrono::seconds min_age) {
  // A writer that died before sealing leaves its temp pack behind forever —
  // nothing else ever opens a `*.pack.tmp` name. The age gate is what makes
  // the sweep safe against writers that are merely alive in another process
  // right now: every flush touches their temp pack.
  std::uint64_t reaped = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  fs::directory_iterator it(dir_, fs::directory_options::skip_permission_denied, ec);
  const fs::directory_iterator end;
  while (!ec && it != end) {
    const fs::path path = it->path();
    const bool is_file = it->is_regular_file(ec);
    if (!ec && is_file && path.filename().string().ends_with(kTmpSuffix)) {
      const auto mtime = fs::last_write_time(path, ec);
      if (!ec && now - mtime >= min_age) {
        std::error_code rm_ec;
        if (fs::remove(path, rm_ec)) ++reaped;
      }
    }
    ec.clear();
    it.increment(ec);
  }
  if (reaped > 0) {
    orphans_reaped_.fetch_add(reaped);
    obs_orphans_.add(reaped);
  }
}

void ResultCache::index_sealed_packs() {
  std::vector<std::string> names = sealed_pack_names(dir_);
  if (names.size() > kMaxOpenPacks) {
    compact(dir_);
    names = sealed_pack_names(dir_);
  }

  // Two walks over each pack: count the frames, then fill an index of
  // exactly that size, so the index never holds growth slack. At most
  // kMaxOpenPacks packs are held open; the records of any beyond (only when
  // another process holds the merge lock) are misses for this instance.
  std::string buf(kIoChunk, '\0');
  std::vector<std::uint64_t> sizes;
  std::uint64_t base = 0;
  std::size_t frames = 0;
  for (const std::string& name : names) {
    if (sealed_.size() == kMaxOpenPacks) break;
    std::uint64_t size = 0;
    const int fd = open_pack_file(dir_ + '/' + name, size);
    if (fd < 0) continue;
    std::size_t n = 0;
    if (base + size <= kMaxAddress) {
      walk_frames(fd, size, buf,
                  [&](std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t) { ++n; });
    }
    if (n == 0) {
      ::close(fd);
      continue;
    }
    sealed_.push_back(Pack{fd, base});
    sizes.push_back(size);
    base += size;
    frames += n;
  }
  index_.reserve(frames);
  for (std::size_t i = 0; i < sealed_.size(); ++i) {
    const std::uint64_t pack_base = sealed_[i].base;
    walk_frames(sealed_[i].fd, sizes[i], buf,
                [&](std::uint64_t scenario, std::uint64_t params, std::uint64_t offset,
                    std::uint64_t bytes) {
                  index_.push_back(
                      Slot{key_hash(scenario, params), (pack_base + offset) << kLenBits | bytes});
                });
  }
  std::sort(index_.begin(), index_.end(),
            [](const Slot& a, const Slot& b) { return a.hash < b.hash; });
}

std::uint64_t ResultCache::side_find(std::uint64_t hash) const {
  if (side_.empty()) return 0;
  const std::size_t mask = side_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    if (side_[i].loc == 0 || side_[i].hash == hash) return side_[i].loc;
  }
}

void ResultCache::side_insert(std::uint64_t hash, std::uint64_t loc) {
  if ((side_count_ + 1) * 8 > side_.size() * 7) {
    std::vector<Slot> old(std::max<std::size_t>(1024, side_.size() * 2), Slot{0, 0});
    old.swap(side_);
    side_count_ = 0;
    for (const Slot& s : old) {
      if (s.loc != 0) side_insert(s.hash, s.loc);
    }
  }
  const std::size_t mask = side_.size() - 1;
  std::size_t i = hash & mask;
  while (side_[i].loc != 0 && side_[i].hash != hash) i = (i + 1) & mask;
  if (side_[i].loc == 0) ++side_count_;
  side_[i] = Slot{hash, loc};
}

bool ResultCache::load(const engine::CacheKey& key, std::string& payload) {
  // `refused` distinguishes "no record" from "record present but refused":
  // the refused record will be recomputed and appended again — a self-heal
  // worth counting separately from cold misses.
  bool refused = false;
  const auto hit = [&] {
    ++hits_;
    obs_hits_.add(1);
    obs_bytes_read_.add(payload.size());
    return true;
  };
  const std::uint64_t hash = key_hash(key.scenario, key.params);
  auto it = std::lower_bound(index_.begin(), index_.end(), hash,
                             [](const Slot& s, std::uint64_t h) { return s.hash < h; });
  for (; it != index_.end() && it->hash == hash; ++it) {
    if (read_sealed(id_, locate(sealed_, it->loc), key, payload)) return hit();
    refused = true;
  }
  if (stores_.load() != 0) {
    std::unique_lock<std::mutex> lock(mu_);
    if (const std::uint64_t loc = side_find(hash); loc != 0) {
      const std::uint64_t frame_end = (loc >> kLenBits) + (loc & kLenMask);
      if (!tmp_path_.empty() && frame_end > own_.back().base + written_) flush();
      const Where at = locate(own_, loc);
      lock.unlock();
      if (read_frame(at, key, payload)) return hit();
      refused = true;
    }
  }
  ++misses_;
  obs_misses_.add(1);
  if (refused) obs_heals_.add(1);
  return false;
}

void ResultCache::store(const engine::CacheKey& key, const std::string& payload) {
  if (payload.size() > kMaxPayload) return;  // advisory: a dropped store is a future miss
  try {
    const std::lock_guard<std::mutex> lock(mu_);
    if (tmp_path_.empty() && !open_pack()) return;
    const std::uint64_t bytes = kFrameOverhead + payload.size();
    const std::uint64_t address = own_.back().base + written_ + pending_.size();
    if (address + bytes > kMaxAddress) return;
    const std::size_t frame_at = pending_.size();
    put_le(pending_, key.scenario, 8);
    put_le(pending_, key.params, 8);
    put_le(pending_, payload.size(), 4);
    pending_ += payload;
    put_le(pending_, checksum(pending_.data() + frame_at, kFrameHead + payload.size()), 8);
    // A re-store, or another key with the same hash, replaces the old record.
    side_insert(key_hash(key.scenario, key.params), address << kLenBits | bytes);
    ++stores_;
    obs_stores_.add(1);
    obs_bytes_written_.add(payload.size());
    const auto now = std::chrono::steady_clock::now();
    if ((pending_.size() >= kIoChunk || now - last_flush_ >= kFlushInterval) && !flush()) return;
    if (written_ + pending_.size() >= kRollBytes) seal();
  } catch (...) {
    // Never let cache I/O take down the sweep.
  }
}

bool ResultCache::open_pack() {
  if (store_failed_) return false;
  std::string path;
  const int fd = create_tmp_pack(dir_, path);
  if (fd < 0) {
    store_failed_ = true;
    return false;
  }
  own_.push_back(Pack{fd, own_end_});
  tmp_path_ = path;
  pending_ = pack_header();
  written_ = 0;
  last_flush_ = std::chrono::steady_clock::now();
  return true;
}

bool ResultCache::flush() {
  if (pending_.empty()) return true;
  if (!pwrite_full(own_.back().fd, pending_.data(), pending_.size(), written_)) {
    abandon();
    return false;
  }
  written_ += pending_.size();
  pending_.clear();
  last_flush_ = std::chrono::steady_clock::now();
  return true;
}

void ResultCache::seal() {
  if (tmp_path_.empty() || !flush()) return;
  if (::rename(tmp_path_.c_str(), sealed_name(tmp_path_).c_str()) != 0 &&
      !(errno == ENOENT && republish())) {
    ::unlink(tmp_path_.c_str());
  }
  own_end_ = own_.back().base + written_;
  tmp_path_.clear();
}

bool ResultCache::republish() {
  // The temp pack was reaped as an orphan by another process's open: this
  // writer went quiet for longer than the age gate. The unlinked file is
  // still readable through our descriptor, so seal a copy under a new name.
  std::string path;
  const int fd = create_tmp_pack(dir_, path);
  if (fd < 0) return false;
  std::string buf(kIoChunk, '\0');
  bool ok = true;
  for (std::uint64_t at = 0; ok && at < written_; at += buf.size()) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(), written_ - at));
    ok = pread_full(own_.back().fd, buf.data(), n, at) == n && pwrite_full(fd, buf.data(), n, at);
  }
  ::close(fd);
  if (ok && ::rename(path.c_str(), sealed_name(path).c_str()) == 0) return true;
  ::unlink(path.c_str());
  return false;
}

void ResultCache::abandon() {
  // The pack's fd stays open until destruction, so no index entry can ever
  // name a reused descriptor; reads of its lost frames just come up short.
  ::unlink(tmp_path_.c_str());
  own_end_ = own_.back().base + written_ + pending_.size();
  pending_.clear();
  tmp_path_.clear();
  store_failed_ = true;
}

}  // namespace profisched::dist
