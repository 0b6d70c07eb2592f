#include "core/cluster.hpp"

namespace p4ce::core {

std::string_view backend_name(consensus::Mode mode) noexcept {
  switch (mode) {
    case consensus::Mode::kMu: return "mu";
    case consensus::Mode::kP4ce: return "p4ce";
    case consensus::Mode::kOneSided: return "one_sided";
  }
  return "unknown";
}

Host::Host(sim::Simulator& sim, std::string name, Ipv4Addr ip, u64 seed)
    : memory(seed),
      nic(sim, std::move(name), ip, 0xEE'0000'0000ull | ip, memory),
      cpu(sim) {}

std::unique_ptr<Cluster> Cluster::create(const ClusterOptions& options) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->options_ = options;
  sim::Simulator& sim = cluster->sim_;

  const u32 total_hosts = options.machines * options.domains;

  // Switches. The backup runs the same program with no groups installed: a
  // plain forwarding device on an alternative route (§III-A).
  cluster->primary_ = std::make_unique<sw::SwitchDevice>(sim, "tofino0", kPrimarySwitchIp);
  cluster->dataplane_ = std::make_unique<p4::P4ceDataplane>(
      sim, cluster->primary_->name(), kPrimarySwitchIp);
  cluster->primary_->load_program(cluster->dataplane_.get());
  cluster->control_plane_ = std::make_unique<p4::ControlPlane>(
      sim, *cluster->primary_, *cluster->dataplane_);

  cluster->backup_ = std::make_unique<sw::SwitchDevice>(sim, "backup0", kBackupSwitchIp);
  cluster->backup_dataplane_ = std::make_unique<p4::P4ceDataplane>(
      sim, cluster->backup_->name(), kBackupSwitchIp);
  cluster->backup_->load_program(cluster->backup_dataplane_.get());

  // Hosts and links.
  for (u32 i = 0; i < total_hosts; ++i) {
    auto host = std::make_unique<Host>(sim, "host" + std::to_string(i), host_ip(i),
                                       /*seed=*/0x1234 + i);

    const u32 port = cluster->primary_->add_port();
    auto link = std::make_unique<net::Link>(sim, options.link_gbps, options.link_propagation);
    link->attach(&host->nic, &cluster->primary_->port(port));
    host->nic.attach_link(link.get(), 0);
    cluster->primary_->port(port).attach_link(link.get(), 1);
    std::ignore = cluster->dataplane_->add_route(host_ip(i), port);
    cluster->primary_links_.push_back(std::move(link));

    const u32 bport = cluster->backup_->add_port();
    auto blink = std::make_unique<net::Link>(sim, options.link_gbps, options.link_propagation);
    blink->attach(&host->nic, &cluster->backup_->port(bport));
    host->nic.attach_link(blink.get(), 0);
    cluster->backup_->port(bport).attach_link(blink.get(), 1);
    std::ignore = cluster->backup_dataplane_->add_route(host_ip(i), bport);
    cluster->backup_links_.push_back(std::move(blink));

    cluster->hosts_.push_back(std::move(host));
  }

  // Consensus nodes: peers are confined to the node's own domain.
  for (u32 i = 0; i < total_hosts; ++i) {
    const u32 domain = i / options.machines;
    std::vector<consensus::PeerInfo> peers;
    for (u32 j = domain * options.machines; j < (domain + 1) * options.machines; ++j) {
      if (j != i) peers.push_back(consensus::PeerInfo{j, host_ip(j)});
    }
    consensus::NodeOptions node_options;
    node_options.id = i;
    node_options.domain = domain;
    node_options.mode = options.mode;
    node_options.log_size = options.log_size;
    node_options.cal = options.cal;
    node_options.switch_ip = kPrimarySwitchIp;
    Host& host = *cluster->hosts_[i];
    host.node = std::make_unique<consensus::Node>(sim, host.nic, host.memory, host.cpu,
                                                  node_options, std::move(peers));
  }

  return cluster;
}

bool Cluster::start(Duration max_wait) {
  for (auto& host : hosts_) host->node->start();
  const SimTime deadline = sim_.now() + max_wait;
  auto all_domains_led = [this] {
    for (u32 d = 0; d < options_.domains; ++d) {
      if (leader(d) == nullptr) return false;
    }
    return true;
  };
  while (sim_.now() < deadline) {
    if (all_domains_led()) return true;
    sim_.run_until(std::min(deadline, sim_.now() + 1'000'000));
  }
  return all_domains_led();
}

consensus::Node* Cluster::leader(u32 domain) noexcept {
  for (u32 i = domain * options_.machines;
       i < (domain + 1) * options_.machines && i < hosts_.size(); ++i) {
    if (hosts_[i]->node->leader_active()) return hosts_[i]->node.get();
  }
  return nullptr;
}

}  // namespace p4ce::core
