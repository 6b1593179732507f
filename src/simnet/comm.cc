#include "simnet/comm.h"

namespace spardl {

CommGroup CommGroup::World(const Comm& comm) {
  return Team(comm, 1, PlacementPolicy::kContiguous);
}

CommGroup CommGroup::Team(const Comm& comm, int num_teams,
                          PlacementPolicy policy) {
  const TeamPlacement& layout =
      comm.network_->TeamLayout(num_teams, policy);
  const ptrdiff_t first =
      static_cast<ptrdiff_t>(layout.TeamOf(comm.rank())) * layout.team_size();
  return CommGroup(layout.members().data() + first, layout.team_size(), 1,
                   layout.PositionOf(comm.rank()));
}

CommGroup CommGroup::CrossTeam(const Comm& comm, int num_teams,
                               PlacementPolicy policy) {
  const TeamPlacement& layout =
      comm.network_->TeamLayout(num_teams, policy);
  const int position = layout.PositionOf(comm.rank());
  return CommGroup(layout.members().data() + position, layout.num_teams(),
                   layout.team_size(), layout.TeamOf(comm.rank()));
}

}  // namespace spardl
