// Totality of the ResultCache pack parser: the open-time index scan, the
// open-time merge of many packs, and load() must end every input — random buffers (bare, or behind a valid
// header), every truncation, and byte flips or insertions of a valid pack —
// in an index and a hit or a miss per key. A hit must serve exactly the bytes
// stored under that key; anything else (a wrong payload, a crash, a hang, a
// sanitizer report) is a parser bug. The sanitizer and TSan CI jobs run this
// suite through the dist_ test-name filter.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../support/mutations.hpp"
#include "dist/result_cache.hpp"

namespace profisched::dist {
namespace {

namespace fs = std::filesystem;

struct Record {
  engine::CacheKey key;
  std::string payload;
};

/// Payload lengths around the checksum's 8-byte words, an empty one, and
/// bytes that look like the frame's own fields.
std::vector<Record> records() {
  return {
      {{0x0123456789abcdefULL, 1}, ""},
      {{0x0123456789abcdefULL, 2}, "a"},
      {{0xfedcba9876543210ULL, 3}, "1 2 3 4"},
      {{0x8000000000000000ULL, 4}, "12345678"},
      {{0x0000000000000007ULL, 5}, "profisched-cache v2\n"},
      {{0x7fffffffffffffffULL, 6}, std::string(40, '\0') + "tail"},
  };
}

class PackFuzz : public ::testing::Test {
 protected:
  PackFuzz() : dir_((fs::temp_directory_path() / "profisched_pack_fuzz").string()) {
    fs::remove_all(dir_);
    {
      ResultCache writer(dir_);
      for (const Record& r : records()) writer.store(r.key, r.payload);
    }
    for (const auto& e : fs::directory_iterator(dir_)) pack_ = e.path();
    std::ifstream is(pack_, std::ios::binary);
    valid_.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  ~PackFuzz() override { fs::remove_all(dir_); }

  /// Rewrites the pack in place (same inode), so an instance that already
  /// indexed it reads the new bytes.
  void write_pack(const std::string& bytes) const {
    std::ofstream os(pack_, std::ios::binary | std::ios::trunc);
    os << bytes;
  }

  /// Loads every stored key plus one never stored; a hit must serve the
  /// stored bytes. Returns how many stored keys hit.
  std::size_t check_loads(ResultCache& cache, const std::string& label) {
    std::size_t served = 0;
    for (const Record& r : records()) {
      std::string payload;
      if (!cache.load(r.key, payload)) continue;
      ++served;
      EXPECT_EQ(payload, r.payload) << label;
    }
    std::string payload;
    EXPECT_FALSE(cache.load(engine::CacheKey{42, 42}, payload)) << label;
    return served;
  }

  std::string dir_;
  fs::path pack_;
  std::string valid_;
};

TEST_F(PackFuzz, OpenTimeScanOfEveryMutationIndexesOrMisses) {
  ResultCache intact(dir_);
  ASSERT_EQ(check_loads(intact, "intact pack"), records().size());

  std::size_t all = 0, some = 0, none = 0;
  const auto check = [&](const std::string& input, const std::string& label) {
    write_pack(input);
    ResultCache cache(dir_);
    const std::size_t served = check_loads(cache, label);
    (served == records().size() ? all : served > 0 ? some : none) += 1;
  };
  test_support::for_each_mutation(valid_, 0xcac4e0001ULL, 400, check);
  // Random frames behind a valid header reach the frame walk itself.
  const std::string header = valid_.substr(0, valid_.find('\n') + 1);
  test_support::Xorshift64 rng(0xcac4e0002ULL);
  for (int i = 0; i < 400; ++i) {
    std::string frames(rng.below(257), '\0');
    for (char& c : frames) c = static_cast<char>(rng.next() % 256);
    check(header + frames, "random frames " + std::to_string(i));
  }
  EXPECT_GT(all, 0u);   // e.g. a byte inserted after the last frame
  EXPECT_GT(some, 0u);  // truncations keep the frames before the cut
  EXPECT_GT(none, 0u);  // random buffers and a broken header index nothing
}

TEST_F(PackFuzz, LoadAgainstAPackRewrittenUnderItsIndex) {
  // The index is built from the intact pack; the bytes then change under it,
  // so load() alone must catch every stale or corrupted frame.
  std::size_t all = 0, refused = 0;
  test_support::for_each_mutation(
      valid_, 0xcac4e0003ULL, 400, [&](const std::string& input, const std::string& label) {
        write_pack(valid_);
        ResultCache cache(dir_);
        write_pack(input);
        const std::size_t served = check_loads(cache, label);
        (served == records().size() ? all : refused) += 1;
      });
  EXPECT_GT(all, 0u);
  EXPECT_GT(refused, 0u);
}

TEST_F(PackFuzz, MergeOfAMutatedPackKeepsOnlyIntactRecords) {
  // The mutated pack plus enough one-record packs to pass the merge
  // threshold: the merge copies only frames that pass every check, so a
  // record served from the merged pack must still be the stored one.
  const engine::CacheKey filler_key{99, 99};
  std::string filler;
  {
    const std::string stage = dir_ + "_stage";
    fs::remove_all(stage);
    {
      ResultCache writer(stage);
      writer.store(filler_key, "filler");
    }
    for (const auto& e : fs::directory_iterator(stage)) {
      std::ifstream is(e.path(), std::ios::binary);
      filler.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
    }
    fs::remove_all(stage);
  }
  std::size_t merged = 0;
  test_support::for_each_mutation(
      valid_, 0xcac4e0004ULL, 150, [&](const std::string& input, const std::string& label) {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        write_pack(input);
        for (std::size_t i = 0; i < ResultCache::kMaxOpenPacks; ++i) {
          std::ofstream(fs::path(dir_) / ("filler-" + std::to_string(i) + ".pack"),
                        std::ios::binary)
              << filler;
        }
        ResultCache cache(dir_);
        std::size_t packs = 0;
        for (const auto& e : fs::directory_iterator(dir_)) packs += e.path().extension() == ".pack";
        merged += packs == 1;
        check_loads(cache, label);
        std::string payload;
        ASSERT_TRUE(cache.load(filler_key, payload)) << label;
        EXPECT_EQ(payload, "filler") << label;
      });
  EXPECT_GT(merged, 0u);
}

}  // namespace
}  // namespace profisched::dist
