#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace spardl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("k too large");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "k too large");
  EXPECT_EQ(s.ToString(), "InvalidArgument: k too large");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeName(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int x) {
  SPARDL_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutOfTemporary) {
  auto make = []() -> Result<std::string> { return std::string("abc"); };
  std::string value = std::move(*make());
  EXPECT_EQ(value, "abc");
}

TEST(ResultTest, AccessingErrorValueAborts) {
  Result<int> r = Status::Internal("boom");
  EXPECT_DEATH({ (void)r.value(); }, "boom");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanBytes(1536.0 * 1024 * 1024), "1.50 GiB");
}

TEST(HumanSecondsTest, PicksUnits) {
  EXPECT_EQ(HumanSeconds(2.0), "2.000 s");
  EXPECT_EQ(HumanSeconds(2e-3), "2.000 ms");
  EXPECT_EQ(HumanSeconds(2e-6), "2.000 us");
  EXPECT_EQ(HumanSeconds(2e-9), "2.0 ns");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  const uint64_t first = a();
  a.Seed(7);
  EXPECT_EQ(a(), first);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / samples;
  const double var = sum_sq / samples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

}  // namespace
}  // namespace spardl
