// Shared gtest main for every suite. gtest's default "fast" death-test
// style forks straight out of the running process, which is undefined
// behaviour once that process has started threads — and `bench::Sweep`,
// which some suites drive, runs its points on carrier threads.
// "threadsafe" re-executes the test binary instead. Set before
// InitGoogleTest so --gtest_death_test_style on the command line still
// wins.
//
// `--schedule-seed=N` makes every cluster the suite builds resume its
// fibers in an order shuffled by seed N (`Cluster::
// set_default_schedule_seed`, which a test may override for its own
// clusters with `testing::ScopedScheduleSeed`); CTest runs the
// cluster-heavy suites a second time that way, so each of their
// assertions also holds under a non-rank-order schedule. A death test's
// child re-executes with the same arguments and so the same seed.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simnet/cluster.h"

int main(int argc, char** argv) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::testing::InitGoogleTest(&argc, argv);
  // InitGoogleTest consumed its own flags; anything left must be ours.
  static constexpr char kSeedFlag[] = "--schedule-seed=";
  const size_t flag_len = std::strlen(kSeedFlag);
  for (int i = 1; i < argc; ++i) {
    bool ok = std::strncmp(argv[i], kSeedFlag, flag_len) == 0;
    unsigned long long seed = 0;
    if (ok) {
      const char* value = argv[i] + flag_len;
      char* end = nullptr;
      errno = 0;
      seed = std::strtoull(value, &end, 10);
      ok = end != value && *end == '\0' && errno == 0 && *value != '-';
    }
    if (!ok) {
      std::fprintf(stderr, "%s: unknown argument '%s' (usage: %s "
                   "[gtest flags] [--schedule-seed=N])\n",
                   argv[0], argv[i], argv[0]);
      return 2;
    }
    spardl::Cluster::set_default_schedule_seed(static_cast<uint64_t>(seed));
  }
  return RUN_ALL_TESTS();
}
