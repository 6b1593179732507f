#include "topo/placement.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "topo/topology_spec.h"

namespace spardl {

std::string_view PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kContiguous:
      return "contiguous";
    case PlacementPolicy::kRackLocal:
      return "rack-local";
    case PlacementPolicy::kInterleaved:
      return "interleaved";
  }
  return "?";
}

Result<PlacementPolicy> ParsePlacementPolicy(std::string_view text) {
  if (text == "contiguous") return PlacementPolicy::kContiguous;
  if (text == "rack" || text == "rack-local" || text == "racklocal") {
    return PlacementPolicy::kRackLocal;
  }
  if (text == "interleaved" || text == "interleave") {
    return PlacementPolicy::kInterleaved;
  }
  return Status::InvalidArgument(
      StrFormat("unknown placement policy '%.*s' (want "
                "contiguous|rack|interleaved)",
                static_cast<int>(text.size()), text.data()));
}

std::vector<PlacementPolicy> AllPlacementPolicies() {
  return {PlacementPolicy::kContiguous, PlacementPolicy::kRackLocal,
          PlacementPolicy::kInterleaved};
}

int TeamPlacement::TeamOf(int rank) const {
  SPARDL_CHECK_GE(rank, 0);
  SPARDL_CHECK_LT(rank, num_workers());
  return team_of_[static_cast<size_t>(rank)];
}

int TeamPlacement::PositionOf(int rank) const {
  SPARDL_CHECK_GE(rank, 0);
  SPARDL_CHECK_LT(rank, num_workers());
  return pos_of_[static_cast<size_t>(rank)];
}

Result<TeamPlacement> TeamPlacement::FromMembers(std::vector<int> member,
                                                 int num_teams) {
  const int num_workers = static_cast<int>(member.size());
  if (num_teams < 1 || num_workers < 1) {
    return Status::InvalidArgument(
        "placement needs at least one team and one worker");
  }
  if (num_workers % num_teams != 0) {
    return Status::InvalidArgument(StrFormat(
        "placement team count (%d) must divide the worker count (%d)",
        num_teams, num_workers));
  }
  TeamPlacement placement;
  placement.num_teams_ = num_teams;
  placement.team_of_.assign(static_cast<size_t>(num_workers), -1);
  placement.pos_of_.assign(static_cast<size_t>(num_workers), -1);
  const int team_size = num_workers / num_teams;
  for (int slot = 0; slot < num_workers; ++slot) {
    const int rank = member[static_cast<size_t>(slot)];
    if (rank < 0 || rank >= num_workers) {
      return Status::InvalidArgument(StrFormat(
          "placement slot %d names rank %d, outside [0, %d)", slot, rank,
          num_workers));
    }
    if (placement.team_of_[static_cast<size_t>(rank)] != -1) {
      return Status::InvalidArgument(StrFormat(
          "placement assigns rank %d to two slots (not a permutation)",
          rank));
    }
    placement.team_of_[static_cast<size_t>(rank)] = slot / team_size;
    placement.pos_of_[static_cast<size_t>(rank)] = slot % team_size;
  }
  placement.member_ = std::move(member);
  return placement;
}

std::vector<std::vector<int>> LocalityGroups(const TopologySpec& spec,
                                             int num_workers) {
  // Group width: ranks sharing a cheap (non-trunk) neighbourhood. Flat,
  // star and ring links are uniform, so the whole cluster is one group.
  int width = num_workers;
  switch (spec.kind) {
    case TopologyKind::kFatTree:
      width = spec.rack_size;
      break;
    case TopologyKind::kTorus:
      width = spec.torus_width;
      break;
    default:
      break;
  }
  if (width < 1) width = num_workers;
  std::vector<std::vector<int>> groups;
  for (int start = 0; start < num_workers; start += width) {
    std::vector<int> group;
    for (int r = start; r < std::min(start + width, num_workers); ++r) {
      group.push_back(r);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

namespace {

// Pack teams inside locality groups: every group carves as many whole
// teams as fit, then the leftovers (in group order, so racks stay adjacent)
// fill the remaining teams. When team_size divides every group size this
// is straddle-free; otherwise only the leftover teams cross groups.
std::vector<int> RackLocalMembers(const std::vector<std::vector<int>>& groups,
                                  int num_workers, int team_size) {
  std::vector<int> member;
  member.reserve(static_cast<size_t>(num_workers));
  std::vector<int> leftovers;
  for (const std::vector<int>& group : groups) {
    size_t whole = (group.size() / static_cast<size_t>(team_size)) *
                   static_cast<size_t>(team_size);
    member.insert(member.end(), group.begin(),
                  group.begin() + static_cast<ptrdiff_t>(whole));
    leftovers.insert(leftovers.end(),
                     group.begin() + static_cast<ptrdiff_t>(whole),
                     group.end());
  }
  member.insert(member.end(), leftovers.begin(), leftovers.end());
  return member;
}

// Deal consecutive ranks round-robin to teams: slot (team, pos) gets rank
// pos * d + team, so each team's members are spread d apart — maximally
// cross-group whenever teams could have been group-local.
std::vector<int> InterleavedMembers(int num_workers, int num_teams) {
  const int team_size = num_workers / num_teams;
  std::vector<int> member(static_cast<size_t>(num_workers));
  for (int t = 0; t < num_teams; ++t) {
    for (int i = 0; i < team_size; ++i) {
      member[static_cast<size_t>(t * team_size + i)] = i * num_teams + t;
    }
  }
  return member;
}

}  // namespace

Result<TeamPlacement> PlanPlacement(const TopologySpec& spec,
                                    int num_workers, int num_teams,
                                    PlacementPolicy policy) {
  if (num_workers < 1) {
    return Status::InvalidArgument("placement needs num_workers >= 1");
  }
  if (num_teams < 1) {
    return Status::InvalidArgument("placement needs num_teams >= 1");
  }
  if (num_workers % num_teams != 0) {
    return Status::InvalidArgument(StrFormat(
        "num_teams (%d) must divide num_workers (%d)", num_teams,
        num_workers));
  }
  if (spec.num_workers != 0 && spec.num_workers != num_workers) {
    return Status::InvalidArgument(StrFormat(
        "topology spec is for %d workers, but the placement is for %d",
        spec.num_workers, num_workers));
  }
  const int team_size = num_workers / num_teams;
  std::vector<int> member;
  switch (policy) {
    case PlacementPolicy::kContiguous:
      member.resize(static_cast<size_t>(num_workers));
      for (int r = 0; r < num_workers; ++r) {
        member[static_cast<size_t>(r)] = r;
      }
      break;
    case PlacementPolicy::kRackLocal:
      member = RackLocalMembers(LocalityGroups(spec, num_workers),
                                num_workers, team_size);
      break;
    case PlacementPolicy::kInterleaved:
      member = InterleavedMembers(num_workers, num_teams);
      break;
  }
  return TeamPlacement::FromMembers(std::move(member), num_teams);
}

}  // namespace spardl
