#include "topo/topology_spec.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "common/strings.h"
#include "topo/topologies.h"

namespace spardl {

namespace {

// strtol reads into a long; a value outside int must be rejected, not
// wrapped by a cast into a different fabric than the one asked for.
bool FitsInt(long value) {
  return value >= std::numeric_limits<int>::min() &&
         value <= std::numeric_limits<int>::max();
}

}  // namespace

std::string_view TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFlat:
      return "flat";
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kFatTree:
      return "fattree";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kTorus:
      return "torus";
  }
  return "?";
}

TopologySpec TopologySpec::Flat(int num_workers, CostModel cost) {
  TopologySpec spec;
  spec.kind = TopologyKind::kFlat;
  spec.num_workers = num_workers;
  spec.cost = cost;
  return spec;
}

TopologySpec TopologySpec::Star(int num_workers, CostModel cost) {
  TopologySpec spec = Flat(num_workers, cost);
  spec.kind = TopologyKind::kStar;
  return spec;
}

TopologySpec TopologySpec::FatTree(int num_workers, int rack_size,
                                   double oversubscription, CostModel cost,
                                   int num_cores) {
  TopologySpec spec = Flat(num_workers, cost);
  spec.kind = TopologyKind::kFatTree;
  spec.rack_size = rack_size;
  spec.oversubscription = oversubscription;
  spec.num_cores = num_cores;
  return spec;
}

TopologySpec TopologySpec::Ring(int num_workers, CostModel cost) {
  TopologySpec spec = Flat(num_workers, cost);
  spec.kind = TopologyKind::kRing;
  return spec;
}

TopologySpec TopologySpec::Torus(int width, int height, CostModel cost) {
  // A grid too large for an int worker count gets 0, which Build rejects.
  const int64_t cells = int64_t{width} * height;
  TopologySpec spec =
      Flat(FitsInt(cells) ? static_cast<int>(cells) : 0, cost);
  spec.kind = TopologyKind::kTorus;
  spec.torus_width = width;
  spec.torus_height = height;
  return spec;
}

Result<TopologySpec> TopologySpec::Parse(std::string_view text,
                                         int num_workers, CostModel cost) {
  // The "event" suffix once selected the event engine, which now charges
  // every non-flat fabric: strip it as a no-op. The "busy" suffix
  // selected the removed busy-until engine. Only these literal suffixes
  // are special — a '+' can also legitimately appear inside a numeric
  // parameter (e.g. "fattree:4x1e+1"), so anything else is left for the
  // kind parsers.
  const size_t plus = text.rfind('+');
  if (plus != std::string_view::npos) {
    const std::string_view suffix = text.substr(plus + 1);
    if (suffix == "busy") {
      return Status::InvalidArgument(
          "the busy-until charge engine was removed; drop the 'busy' "
          "suffix (every non-flat fabric runs the event engine)");
    }
    if (suffix == "event") text = text.substr(0, plus);
  }

  if (text == "flat") return Flat(num_workers, cost);
  if (text == "star") return Star(num_workers, cost);
  if (text == "ring") return Ring(num_workers, cost);
  if (text == "fattree") return FatTree(num_workers, 4, 4.0, cost);
  constexpr std::string_view kFatTreePrefix = "fattree:";
  if (text.substr(0, kFatTreePrefix.size()) == kFatTreePrefix) {
    const std::string params(text.substr(kFatTreePrefix.size()));
    char* after_rack = nullptr;
    const long rack = std::strtol(params.c_str(), &after_rack, 10);
    if (after_rack == params.c_str() || *after_rack != 'x') {
      return Status::InvalidArgument(StrFormat(
          "bad fat-tree params '%s' (want <rack_size>x<oversub>[x<cores>])",
          params.c_str()));
    }
    char* after_oversub = nullptr;
    const double oversub = std::strtod(after_rack + 1, &after_oversub);
    if (after_oversub == after_rack + 1 ||
        (*after_oversub != '\0' && *after_oversub != 'x')) {
      return Status::InvalidArgument(
          StrFormat("bad fat-tree oversub in '%s'", params.c_str()));
    }
    long cores = 1;
    if (*after_oversub == 'x') {
      char* after_cores = nullptr;
      cores = std::strtol(after_oversub + 1, &after_cores, 10);
      if (after_cores == after_oversub + 1 || *after_cores != '\0') {
        return Status::InvalidArgument(
            StrFormat("bad fat-tree core count in '%s'", params.c_str()));
      }
    }
    if (!FitsInt(rack) || !FitsInt(cores)) {
      return Status::InvalidArgument(StrFormat(
          "fat-tree rack size or core count out of range in '%s'",
          params.c_str()));
    }
    return FatTree(num_workers, static_cast<int>(rack), oversub, cost,
                   static_cast<int>(cores));
  }
  constexpr std::string_view kTorusPrefix = "torus:";
  if (text.substr(0, kTorusPrefix.size()) == kTorusPrefix) {
    const std::string params(text.substr(kTorusPrefix.size()));
    char* after_width = nullptr;
    const long width = std::strtol(params.c_str(), &after_width, 10);
    if (after_width == params.c_str() || *after_width != 'x') {
      return Status::InvalidArgument(StrFormat(
          "bad torus params '%s' (want <width>x<height>)", params.c_str()));
    }
    char* after_height = nullptr;
    const long height = std::strtol(after_width + 1, &after_height, 10);
    if (after_height == after_width + 1 || *after_height != '\0') {
      return Status::InvalidArgument(
          StrFormat("bad torus height in '%s'", params.c_str()));
    }
    if (!FitsInt(width) || !FitsInt(height)) {
      return Status::InvalidArgument(
          StrFormat("torus dimensions out of range in '%s'", params.c_str()));
    }
    TopologySpec spec =
        Torus(static_cast<int>(width), static_cast<int>(height), cost);
    // Keep the caller's worker count so Build can reject a mismatched
    // grid instead of silently resizing the cluster.
    spec.num_workers = num_workers;
    return spec;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown topology '%.*s' (want flat|star|ring|fattree[:RxO[xC]]|"
      "torus:WxH)",
      static_cast<int>(text.size()), text.data()));
}

Result<std::unique_ptr<Topology>> TopologySpec::Build() const {
  if (num_workers < 1) {
    return Status::InvalidArgument("topology needs num_workers >= 1");
  }
  switch (kind) {
    case TopologyKind::kFlat:
      return std::unique_ptr<Topology>(
          std::make_unique<FlatTopology>(num_workers, cost));
    case TopologyKind::kStar:
      return std::unique_ptr<Topology>(
          std::make_unique<StarTopology>(num_workers, cost));
    case TopologyKind::kFatTree: {
      if (rack_size < 1) {
        return Status::InvalidArgument("fat-tree needs rack_size >= 1");
      }
      // Written so NaN fails too; an infinite trunk beta would turn every
      // cross-rack time into inf.
      if (!(oversubscription > 0.0) || !std::isfinite(oversubscription)) {
        return Status::InvalidArgument(
            "fat-tree needs a finite oversubscription > 0");
      }
      if (num_cores < 1) {
        return Status::InvalidArgument("fat-tree needs num_cores >= 1");
      }
      // More core switches than workers is no real fabric, and the cap
      // bounds the trunk table (two links per rack-core pair) by 2 P^2
      // links. Node and link ids are ints, so both counts must fit one.
      if (num_cores > num_workers) {
        return Status::InvalidArgument(StrFormat(
            "fat-tree has %d cores for %d workers; it needs num_cores <= "
            "num_workers",
            num_cores, num_workers));
      }
      const int64_t racks = (int64_t{num_workers} + rack_size - 1) / rack_size;
      const int64_t nodes = int64_t{num_workers} + racks + num_cores;
      const int64_t links = 2 * (int64_t{num_workers} + racks * num_cores);
      if (!FitsInt(nodes) || !FitsInt(links)) {
        return Status::InvalidArgument(StrFormat(
            "fat-tree with %d workers, racks of %d and %d cores has more "
            "nodes or links than an int can number",
            num_workers, rack_size, num_cores));
      }
      return std::unique_ptr<Topology>(std::make_unique<FatTreeTopology>(
          num_workers, rack_size, oversubscription, cost, num_cores));
    }
    case TopologyKind::kRing:
      return std::unique_ptr<Topology>(
          std::make_unique<RingTopology>(num_workers, cost));
    case TopologyKind::kTorus: {
      if (torus_width < 1 || torus_height < 1) {
        return Status::InvalidArgument(
            "torus needs torus_width and torus_height >= 1");
      }
      const int64_t cells = int64_t{torus_width} * torus_height;
      if (cells != num_workers) {
        return Status::InvalidArgument(StrFormat(
            "torus %dx%d holds %lld workers, but num_workers is %d",
            torus_width, torus_height, static_cast<long long>(cells),
            num_workers));
      }
      return std::unique_ptr<Topology>(
          std::make_unique<TorusTopology>(torus_width, torus_height, cost));
    }
  }
  return Status::Internal("unreachable topology kind");
}

std::string TopologySpec::Describe() const {
  switch (kind) {
    case TopologyKind::kFatTree:
      if (num_cores > 1) {
        return StrFormat(
            "fattree(P=%d, racks of %d, oversub %.1f, %d cores)",
            num_workers, rack_size, oversubscription, num_cores);
      }
      return StrFormat("fattree(P=%d, racks of %d, oversub %.1f)",
                       num_workers, rack_size, oversubscription);
    case TopologyKind::kTorus:
      return StrFormat("torus(P=%d, %dx%d)", num_workers, torus_width,
                       torus_height);
    default:
      return StrFormat("%.*s(P=%d)",
                       static_cast<int>(TopologyKindName(kind).size()),
                       TopologyKindName(kind).data(), num_workers);
  }
}

}  // namespace spardl
