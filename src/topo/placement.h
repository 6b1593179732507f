#ifndef SPARDL_TOPO_PLACEMENT_H_
#define SPARDL_TOPO_PLACEMENT_H_

#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace spardl {

struct TopologySpec;

/// How SparDL's d teams are laid out over the fabric's workers.
///
/// The paper's team decomposition (SRS within a team, SAG across teams,
/// §III-D) is layout-agnostic: any partition of the P workers into d
/// equal teams computes the same gradient. On a flat fabric the layout is
/// also cost-neutral — but on a hierarchical fabric it decides whether the
/// bandwidth-heavy SRS rounds stay on cheap intra-rack links or queue
/// through the oversubscribed trunk.
enum class PlacementPolicy {
  /// Teams of consecutive global ranks: team t holds ranks
  /// t*(P/d) .. (t+1)*(P/d)-1. The default everywhere.
  kContiguous,
  /// Teams packed within the fabric's locality groups (fat-tree racks,
  /// torus rows; one group on flat/star/ring, where it degenerates to
  /// kContiguous). When the team size divides the group size, no team
  /// straddles an oversubscribed trunk.
  kRackLocal,
  /// Teams dealt round-robin across locality groups (consecutive ranks go
  /// to different teams), so every SRS exchange crosses the trunk — the
  /// adversarial baseline a placement comparison needs.
  kInterleaved,
};

std::string_view PlacementPolicyName(PlacementPolicy policy);

/// Parses "contiguous", "rack" (or "rack-local"), "interleaved".
Result<PlacementPolicy> ParsePlacementPolicy(std::string_view text);

/// All policies, in comparison order (contiguous, rack-local, interleaved).
std::vector<PlacementPolicy> AllPlacementPolicies();

/// A validated global-rank -> (team, position) permutation: `d` teams of
/// exactly `P / d` members each, every worker in exactly one slot. Plan one
/// with `PlanPlacement`; a cluster plans its own from its fabric and keeps
/// it (`Network::TeamLayout`).
class TeamPlacement {
 public:
  int num_workers() const { return static_cast<int>(member_.size()); }
  int num_teams() const { return num_teams_; }
  int team_size() const { return num_workers() / num_teams_; }

  /// The team / in-team position of global rank `rank`.
  int TeamOf(int rank) const;
  int PositionOf(int rank) const;
  /// The whole table: `members()[team * team_size() + pos]` is the global
  /// rank at `pos` of `team`.
  std::span<const int> members() const { return member_; }

  /// Builds from an explicit member table (`member[team * (P/d) + pos]` =
  /// global rank); InvalidArgument unless it is a bijection on 0..P-1
  /// partitioned into d equal teams.
  static Result<TeamPlacement> FromMembers(std::vector<int> member,
                                           int num_teams);

 private:
  TeamPlacement() = default;

  std::vector<int> member_;   // member_[team * team_size + pos]
  std::vector<int> team_of_;  // per global rank
  std::vector<int> pos_of_;   // per global rank
  int num_teams_ = 0;
};

/// The fabric's locality groups, each a list of worker ranks sharing cheap
/// links: fat-tree racks and torus rows; flat, star and ring fabrics have a
/// single group (their links are uniform, so rank-contiguity is already as
/// local as it gets). Exposed for tests and planners.
std::vector<std::vector<int>> LocalityGroups(const TopologySpec& spec,
                                             int num_workers);

/// Plans where each of `num_teams` teams sits on `spec`'s fabric.
/// InvalidArgument when `num_teams` does not divide `num_workers`, either
/// is non-positive, or the spec's own worker count (when set) disagrees
/// with `num_workers`.
Result<TeamPlacement> PlanPlacement(const TopologySpec& spec,
                                    int num_workers, int num_teams,
                                    PlacementPolicy policy);

}  // namespace spardl

#endif  // SPARDL_TOPO_PLACEMENT_H_
