// The traffic manager's packet replication engine: multicast groups map a
// group id to a set of (egress port, replication id) pairs. P4CE configures
// the replication id to be the endpoint identifier of the destination
// replica so the egress pipeline can look up the right connection structure
// (paper §IV-B "Inside the switch").
#pragma once

#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace p4ce::sw {

struct McastCopy {
  u32 egress_port = 0;
  u16 replication_id = 0;  ///< delivered to the egress pipeline as metadata
  bool operator==(const McastCopy&) const = default;
};

class MulticastEngine {
 public:
  Status create_group(u32 group_id, std::vector<McastCopy> copies);
  Status update_group(u32 group_id, std::vector<McastCopy> copies);
  Status delete_group(u32 group_id);

  /// Data-plane lookup; empty vector means unknown group (packet dropped).
  const std::vector<McastCopy>& lookup(u32 group_id) const noexcept;

 private:
  std::vector<std::pair<u32, std::vector<McastCopy>>> groups_;
  static const std::vector<McastCopy> kEmpty;

  std::vector<McastCopy>* find(u32 group_id) noexcept;
};

}  // namespace p4ce::sw
