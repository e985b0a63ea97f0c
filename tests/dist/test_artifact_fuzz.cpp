// Totality of the shard artifact codec: ShardArtifact::from_text followed by
// merge_shards must end every input — random buffers, every truncation, and
// byte flips or insertions of a valid artifact — in a merged sweep or a
// std::invalid_argument, for artifacts of all four modes. Anything else (a
// crash, another exception type, a sanitizer report) is a parser bug.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <typeinfo>

#include "../support/mutations.hpp"
#include "dist/shard.hpp"

namespace profisched::dist {
namespace {

ShardSpec small_spec(SweepMode mode) {
  ShardSpec sh;
  sh.mode = mode;
  sh.spec.sweep.base.n_masters = 2;
  sh.spec.sweep.base.streams_per_master = 3;
  sh.spec.sweep.base.ttr = 3'000;
  sh.spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  sh.spec.sweep.scenarios_per_point = 2;
  sh.spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  sh.spec.sweep.seed = 7;
  if (mode == SweepMode::Combined) {
    // Faults add the spec's faults line and the degraded row columns.
    sh.spec.sim.faults.token_loss_prob = 0.02;
    sh.spec.sim.faults.token_recovery = 600;
  }
  return sh;
}

class ArtifactFuzz : public ::testing::TestWithParam<SweepMode> {};

TEST_P(ArtifactFuzz, EveryMutationEndsInAMergeOrInvalidArgument) {
  const ShardSpec spec = small_spec(GetParam());
  ShardRunner runner(1);
  // Shard 0 of two is the one mutated; the intact shard 1 keeps the merge's
  // cross-shard checks (spec equality, tiling) in play.
  const std::string valid = runner.run(spec, 0, 2).to_text();
  const ShardArtifact sibling = runner.run(spec, 1, 2);
  ASSERT_NO_THROW((void)merge_shards({ShardArtifact::from_text(valid), sibling}));

  std::size_t merged = 0, rejected = 0;
  test_support::for_each_mutation(
      valid, 0x5eed0000ULL + static_cast<std::uint64_t>(GetParam()), 1'500,
      [&](const std::string& input, const std::string& label) {
        try {
          (void)merge_shards({ShardArtifact::from_text(input), sibling});
          ++merged;
        } catch (const std::invalid_argument&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << label << ": " << typeid(e).name() << ": " << e.what();
        }
      });
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(merged, 0u);  // e.g. flips that rewrite a byte with itself
}

INSTANTIATE_TEST_SUITE_P(AllModes, ArtifactFuzz,
                         ::testing::Values(SweepMode::Analysis, SweepMode::Sim,
                                           SweepMode::Combined, SweepMode::Optimize),
                         [](const ::testing::TestParamInfo<SweepMode>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace profisched::dist
