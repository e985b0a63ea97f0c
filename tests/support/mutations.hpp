// support/mutations.hpp — deterministic byte-level mutations of a parser's
// input, for totality tests: every parser of external bytes must end each
// case in a value or its typed error, never a crash, hang or UB (the
// sanitizer CI job runs these suites under ASan+UBSan). The generator is
// xorshift64-seeded, so a failing case reproduces from its label.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace profisched::test_support {

class Xorshift64 {
 public:
  explicit Xorshift64(std::uint64_t seed) : state_(seed == 0 ? 0x9e3779b97f4a7c15ULL : seed) {}

  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Calls check(input, label) on `rounds` random buffers (up to 256 bytes),
/// on every proper prefix of `valid`, and on `rounds` single-byte flips plus
/// `rounds` single-byte insertions of `valid`. Half the flipped/inserted
/// bytes are drawn from `valid` itself (digits, separators, newlines), which
/// reaches far deeper into a line-oriented parser than uniform noise.
template <class Check>
void for_each_mutation(const std::string& valid, std::uint64_t seed, int rounds, Check&& check) {
  Xorshift64 rng(seed);
  const auto some_byte = [&]() {
    return !valid.empty() && rng.next() % 2 == 0 ? valid[rng.below(valid.size())]
                                                 : static_cast<char>(rng.next() % 256);
  };
  for (int i = 0; i < rounds; ++i) {
    std::string buffer(rng.below(257), '\0');
    for (char& c : buffer) c = static_cast<char>(rng.next() % 256);
    check(buffer, "random buffer " + std::to_string(i));
  }
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    check(valid.substr(0, cut), "truncated at " + std::to_string(cut));
  }
  if (valid.empty()) return;
  for (int i = 0; i < rounds; ++i) {
    std::string flipped = valid;
    const std::size_t at = rng.below(valid.size());
    flipped[at] = some_byte();
    check(flipped, "byte " + std::to_string(at) + " flipped (round " + std::to_string(i) + ")");

    std::string inserted = valid;
    const std::size_t pos = rng.below(valid.size() + 1);
    inserted.insert(pos, 1, some_byte());
    check(inserted, "byte inserted at " + std::to_string(pos) + " (round " + std::to_string(i) +
                        ")");
  }
}

}  // namespace profisched::test_support
