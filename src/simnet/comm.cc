#include "simnet/comm.h"

namespace spardl {

CommGroup CommGroup::World(const Comm& comm) {
  CommGroup group;
  group.ranks.resize(static_cast<size_t>(comm.size()));
  for (int i = 0; i < comm.size(); ++i) {
    group.ranks[static_cast<size_t>(i)] = i;
  }
  group.my_pos = comm.rank();
  return group;
}

CommGroup CommGroup::Team(const Comm& comm,
                          const TeamPlacement& placement) {
  SPARDL_CHECK(!placement.empty());
  SPARDL_CHECK_EQ(placement.num_workers(), comm.size())
      << "placement is laid out for a different cluster size";
  CommGroup group;
  group.ranks = placement.TeamMembers(placement.TeamOf(comm.rank()));
  group.my_pos = placement.PositionOf(comm.rank());
  return group;
}

CommGroup CommGroup::CrossTeam(const Comm& comm,
                               const TeamPlacement& placement) {
  SPARDL_CHECK(!placement.empty());
  SPARDL_CHECK_EQ(placement.num_workers(), comm.size())
      << "placement is laid out for a different cluster size";
  const int position = placement.PositionOf(comm.rank());
  CommGroup group;
  group.ranks.resize(static_cast<size_t>(placement.num_teams()));
  for (int t = 0; t < placement.num_teams(); ++t) {
    group.ranks[static_cast<size_t>(t)] = placement.GlobalRank(t, position);
  }
  group.my_pos = placement.TeamOf(comm.rank());
  return group;
}

}  // namespace spardl
