// Layered operating-point plan for one group.
//
// The unit of FD configuration is (group, remote): one NFD-S monitor runs
// per (remote, group), and a cluster with one bad WAN link must not pay
// that link's delta on every clean LAN link. A plan therefore layers an
// optional group-wide default under per-remote refinements:
//
//   resolve(remote) = per-remote refinement, else group default, else
//                     nothing (the monitor is unpinned: delta = T^U_D - eta,
//                     and the per-link configurator picks the eta it asks
//                     for once the link estimate is warm).
//
// `fd_manager` keeps one plan per group; the adaptation engine writes the
// group default from its robust cluster aggregate and refines per remote
// from each peer's own tracked link window.
#pragma once

#include <optional>
#include <unordered_map>

#include "common/ids.hpp"
#include "fd/qos.hpp"

namespace omega::fd {

class param_plan {
 public:
  void set_group_default(fd_params params) { group_default_ = params; }
  void set_remote(node_id remote, fd_params params) {
    remotes_[remote] = params;
  }
  void clear_remote(node_id remote) { remotes_.erase(remote); }

  /// Most specific layer that applies to `remote`.
  [[nodiscard]] std::optional<fd_params> resolve(node_id remote) const {
    auto it = remotes_.find(remote);
    if (it != remotes_.end()) return it->second;
    return group_default_;
  }

  [[nodiscard]] std::optional<fd_params> group_default() const {
    return group_default_;
  }
  [[nodiscard]] bool has_remote(node_id remote) const {
    return remotes_.find(remote) != remotes_.end();
  }
  [[nodiscard]] bool empty() const {
    return !group_default_.has_value() && remotes_.empty();
  }
  [[nodiscard]] std::size_t remote_count() const { return remotes_.size(); }

 private:
  std::optional<fd_params> group_default_;
  std::unordered_map<node_id, fd_params> remotes_;
};

}  // namespace omega::fd
