// Exhaustive coverage of AlgorithmConfig::Validate error paths: every
// rejection branch, the exact status code, and a message that names the
// offending field, plus the accepting boundary cases next to each branch.
// One validator serves every method, so each case also runs through
// CreateAlgorithm under every registered name and alias.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/status.h"
#include "core/sparse_allreduce.h"
#include "sparse/sparse_vector.h"

namespace spardl {
namespace {

AlgorithmConfig GoodConfig() {
  AlgorithmConfig config;
  config.n = 1000;
  config.k = 10;
  config.num_workers = 8;
  config.num_teams = 2;
  return config;
}

// Every name CreateAlgorithm accepts: the methods and SparDL's aliases.
std::vector<std::string> AllNames() {
  std::vector<std::string> names = AlgorithmNames();
  names.push_back("spardl-rsag");
  names.push_back("spardl-bsag");
  return names;
}

void ExpectInvalid(const AlgorithmConfig& config, const std::string& fragment,
                   const std::vector<std::string>& names = AllNames()) {
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(fragment), std::string::npos)
      << "message was: " << status.message();
  for (const std::string& name : names) {
    auto created = CreateAlgorithm(name, config);
    ASSERT_FALSE(created.ok()) << name;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(created.status().message().find(fragment), std::string::npos)
        << name << ": " << created.status().message();
  }
}

void ExpectValid(const AlgorithmConfig& config) {
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  for (const std::string& name : AllNames()) {
    auto created = CreateAlgorithm(name, config);
    ASSERT_TRUE(created.ok()) << name << ": " << created.status().ToString();
    EXPECT_NE(created.value(), nullptr) << name;
  }
}

TEST(ConfigValidateTest, GoodConfigPasses) {
  EXPECT_TRUE(GoodConfig().Validate().ok());
}

TEST(ConfigValidateTest, RejectsZeroN) {
  AlgorithmConfig config = GoodConfig();
  config.n = 0;
  ExpectInvalid(config, "n must be positive");
}

TEST(ConfigValidateTest, RejectsNBeyondGradIndex) {
  // Gradient indices are 32-bit: n = 2^32 would wrap Ok-Topk's region
  // end, and any larger n wraps indices too.
  constexpr size_t kMaxN = std::numeric_limits<GradIndex>::max();
  AlgorithmConfig config = GoodConfig();
  for (size_t n : {kMaxN + 1, (size_t{1} << 32) + 10}) {
    config.n = n;
    ExpectInvalid(config, "n must be at most");
  }
  // The largest addressable n passes (not constructed: 16 GiB of floats).
  config.n = kMaxN;
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
}

TEST(ConfigValidateTest, RejectsZeroK) {
  AlgorithmConfig config = GoodConfig();
  config.k = 0;
  ExpectInvalid(config, "k must be in [1, n]");
}

TEST(ConfigValidateTest, RejectsKAboveN) {
  AlgorithmConfig config = GoodConfig();
  config.k = config.n + 1;
  ExpectInvalid(config, "k must be in [1, n]");
}

TEST(ConfigValidateTest, KBoundariesAccepted) {
  AlgorithmConfig config = GoodConfig();
  config.k = 1;
  ExpectValid(config);
  config.k = config.n;  // k = n degrades to a dense all-reduce but is legal
  ExpectValid(config);
}

TEST(ConfigValidateTest, RejectsNonPositiveWorkers) {
  AlgorithmConfig config = GoodConfig();
  config.num_workers = 0;
  config.num_teams = 1;
  ExpectInvalid(config, "num_workers must be positive");
  config.num_workers = -4;
  ExpectInvalid(config, "num_workers must be positive");
}

TEST(ConfigValidateTest, RejectsNonPositiveTeams) {
  AlgorithmConfig config = GoodConfig();
  config.num_teams = 0;
  ExpectInvalid(config, "num_teams must be positive");
  config.num_teams = -2;
  ExpectInvalid(config, "num_teams must be positive");
}

TEST(ConfigValidateTest, RejectsTeamsNotDividingWorkers) {
  AlgorithmConfig config = GoodConfig();
  config.num_workers = 8;
  config.num_teams = 3;
  ExpectInvalid(config, "must divide num_workers");
  // Every divisor of 8 is accepted, including d = P (teams of one).
  for (int d : {1, 2, 4, 8}) {
    config.num_teams = d;
    ExpectValid(config);
  }
}

TEST(ConfigValidateTest, RecursiveSagNeedsPowerOfTwoTeams) {
  AlgorithmConfig config = GoodConfig();
  config.num_workers = 12;
  config.num_teams = 6;
  config.sag_mode = SagMode::kRecursive;
  // Every name rejects it but the spardl-bsag alias, which replaces the
  // R-SAG request with B-SAG.
  std::vector<std::string> names = AllNames();
  std::erase(names, "spardl-bsag");
  ExpectInvalid(config, "power-of-two", names);
  EXPECT_TRUE(CreateAlgorithm("spardl-bsag", config).ok());
  // Power-of-two team counts are fine, as is d = 1 (SAG disabled, so the
  // R-SAG restriction does not apply).
  config.num_teams = 4;
  ExpectValid(config);
  config.num_teams = 1;
  ExpectValid(config);
  // B-SAG and kAuto accept any divisor; the spardl-rsag alias, which
  // forces R-SAG, does not.
  config.num_teams = 6;
  for (SagMode mode : {SagMode::kBruck, SagMode::kAuto}) {
    config.sag_mode = mode;
    EXPECT_TRUE(config.Validate().ok());
    auto rsag = CreateAlgorithm("spardl-rsag", config);
    ASSERT_FALSE(rsag.ok());
    EXPECT_EQ(rsag.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ConfigValidateTest, RejectsUnsupportedValueBits) {
  AlgorithmConfig config = GoodConfig();
  for (int bits : {0, -8, 1, 2, 12, 24, 64}) {
    config.value_bits = bits;
    ExpectInvalid(config, "value_bits");
  }
  for (int bits : {4, 8, 16, 32}) {
    config.value_bits = bits;
    ExpectValid(config);
  }
}

TEST(ConfigValidateTest, CreatePropagatesValidationError) {
  AlgorithmConfig config = GoodConfig();
  config.k = 0;
  for (const std::string& name : AllNames()) {
    auto result = CreateAlgorithm(name, config);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(ConfigValidateTest, CreateSucceedsOnValidConfig) {
  ExpectValid(GoodConfig());
}

TEST(ConfigValidateTest, UnknownNameIsNotFoundEvenWhenInvalid) {
  AlgorithmConfig config = GoodConfig();
  config.k = 0;
  config.num_teams = 3;
  for (const char* name : {"nccl", "SparDL", "spardl-xsag", ""}) {
    auto result = CreateAlgorithm(name, config);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound) << name;
  }
}

}  // namespace
}  // namespace spardl
