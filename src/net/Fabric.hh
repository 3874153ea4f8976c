/**
 * @file
 * Fabric: owns switches, adapters and links, wires topologies and
 * computes shortest-path routing tables.
 */

#ifndef SAN_NET_FABRIC_HH
#define SAN_NET_FABRIC_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/Adapter.hh"
#include "net/Link.hh"
#include "net/Packet.hh"
#include "net/Switch.hh"
#include "sim/Simulation.hh"

namespace san::net {

/**
 * Equal-cost tie-breaking rule of computeRoutes(). Both rules are
 * deterministic; they differ in how multipath topologies (fat-tree,
 * dragonfly) spread destinations over their redundant shortest paths.
 */
enum class RouteSpread {
    /** Always take the lowest-numbered output port among the
     * shortest-path candidates. Single-path topologies (chains,
     * trees) are unaffected; on a multipath fabric every destination
     * funnels through the same uplinks. The default, and the rule
     * the tie-break determinism test pins. */
    LowestPort,
    /** ECMP-style: candidate ports sorted ascending, destination d
     * takes candidate d mod #candidates. Deterministic per (switch,
     * destination) and independent of wiring order; the topology
     * builders use it so a fat-tree actually load-balances its core.
     */
    DestinationMod,
};

/**
 * A complete SAN: the container for every network component of one
 * simulated system.
 */
class Fabric
{
  public:
    explicit Fabric(sim::Simulation &sim, const LinkParams &link_params = {},
                    const AdapterParams &adapter_params = {});

    /**
     * Create a switch of type @p S (Switch or a subclass such as
     * ActiveSwitch). Extra constructor arguments follow the params.
     */
    template <typename S = Switch, typename... Extra>
    S &
    addSwitch(const SwitchParams &params, Extra &&...extra)
    {
        const NodeId id = nextNode_++;
        auto sw = std::make_unique<S>(
            sim_, "switch" + std::to_string(switches_.size()), id, params,
            std::forward<Extra>(extra)...);
        S &ref = *sw;
        switchAdj_.emplace_back(params.ports,
                                std::pair<int, int>{-1, -1});
        // Index cached at creation: connect/connectSwitches resolve
        // a switch in O(1), so wiring an n-switch fabric is linear.
        switchIndexOf_.emplace(&ref, switches_.size());
        switches_.push_back(std::move(sw));
        return ref;
    }

    /** Create an endpoint adapter (HCA or TCA). */
    Adapter &addAdapter(const std::string &name);

    /** Wire @p adapter to @p port of @p sw with a pair of links. */
    void connect(Switch &sw, unsigned port, Adapter &adapter);

    /** Wire two switches together. */
    void connectSwitches(Switch &a, unsigned port_a, Switch &b,
                         unsigned port_b);

    /**
     * Populate every switch's routing table (call after wiring).
     * Shortest paths come from a per-anchor BFS; equal-cost ties
     * break per @p spread. Idempotent: recomputing overwrites every
     * route with the same values.
     */
    void computeRoutes(RouteSpread spread = RouteSpread::LowestPort);

    sim::Simulation &sim() { return sim_; }
    const LinkParams &linkParams() const { return linkParams_; }
    unsigned mtu() const { return adapterParams_.mtu; }
    const std::vector<std::unique_ptr<Switch>> &switches() const
    {
        return switches_;
    }
    const std::vector<std::unique_ptr<Adapter>> &adapters() const
    {
        return adapters_;
    }
    const std::vector<std::unique_ptr<Link>> &links() const
    {
        return links_;
    }

  private:
    std::size_t switchIndex(const Switch &sw) const;
    Link &newLink(const std::string &name);

    sim::Simulation &sim_;
    LinkParams linkParams_;
    AdapterParams adapterParams_;
    NodeId nextNode_ = 0;

    std::vector<std::unique_ptr<Switch>> switches_;
    std::vector<std::unique_ptr<Adapter>> adapters_;
    std::vector<std::unique_ptr<Link>> links_;

    /** Per switch, per port: (neighbor switch index, its port), or
     * (-1,-1) when unused / endpoint-facing. */
    std::vector<std::vector<std::pair<int, int>>> switchAdj_;
    /** Per adapter: (home switch index, port). */
    std::vector<std::pair<int, unsigned>> adapterHome_;
    /** @{ Creation-time indices: wiring never scans the owner
     * vectors (a 1k-switch fat-tree builds in linear time). */
    std::unordered_map<const Switch *, std::size_t> switchIndexOf_;
    std::unordered_map<const Adapter *, std::size_t> adapterIndexOf_;
    /** @} */
};

} // namespace san::net

#endif // SAN_NET_FABRIC_HH
