#include "core/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/fleet_columns.hpp"
#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::core {

FleetParams FleetParams::paper_default(ServiceModel service,
                                       int max_parallel,
                                       util::Seconds cycle) {
  FleetParams p;
  p.client = ClientSpec::smart_beehive(Placement::kEdgeCloud, service, cycle);
  p.server = ServerSpec::cloud_server(service, max_parallel, cycle);
  return p;
}

bool FleetParams::valid() const noexcept {
  if (client.period != server.cycle || server.max_parallel < 1) return false;
  // The server LargeScaleSimulator plans with: loss model B folded in.
  ServerSpec planned = server;
  if (loss.transfer_stretch)
    planned.extra_transfer_per_client = loss.extra_transfer_per_client;
  const util::Seconds slot = planned.planning_slot_duration();
  const double slots = server.cycle / slot;
  // Written so NaN fails; the upper bound keeps slots_per_cycle()'s
  // conversion to int defined.
  return slot > 0.0 && slots >= 1.0 &&
         slots < static_cast<double>(std::numeric_limits<int>::max());
}

double CycleResult::edge_per_client() const noexcept {
  return initial_clients > 0
             ? edge_energy / static_cast<double>(initial_clients)
             : 0.0;
}

double CycleResult::cloud_per_client() const noexcept {
  return initial_clients > 0
             ? cloud_energy / static_cast<double>(initial_clients)
             : 0.0;
}

double CycleResult::total_per_client() const noexcept {
  return edge_per_client() + cloud_per_client();
}

double SweepPoint::mean_surviving() const noexcept {
  return static_cast<double>(initial_clients) - lost_clients.mean();
}

int SweepPoint::lost_clients_display() const noexcept {
  return static_cast<int>(std::lround(lost_clients.mean()));
}

double SweepPoint::edge_per_client() const noexcept {
  return initial_clients > 0
             ? edge_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double SweepPoint::cloud_per_client() const noexcept {
  return initial_clients > 0
             ? cloud_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double SweepPoint::total_per_client() const noexcept {
  return initial_clients > 0
             ? total_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double SweepPoint::total_per_client_ci95() const noexcept {
  if (initial_clients <= 0 || total_energy.count() < 2) return 0.0;
  return 1.96 * total_energy.sample_stddev() /
         std::sqrt(static_cast<double>(total_energy.count())) /
         static_cast<double>(initial_clients);
}

LargeScaleSimulator::LargeScaleSimulator(FleetParams params)
    : params_(std::move(params)), server_(params_.server) {
  if (params_.loss.transfer_stretch)
    server_.extra_transfer_per_client =
        params_.loss.extra_transfer_per_client;
  if (!params_.valid())
    throw std::invalid_argument(
        params_.client.period != params_.server.cycle
            ? "LargeScaleSimulator: client period and server cycle differ"
            : "ServerSpec: a slot does not fit in the cycle");
  if (params_.loss.client_dropout) {
    FleetParams ideal = params_;
    ideal.loss.client_dropout = false;
    ideal_ = std::make_shared<const LargeScaleSimulator>(std::move(ideal));
  }
}

util::Joules LargeScaleSimulator::server_energy(
    const CompactLayout& layout, int cls, std::uint64_t& saturated) const {
  util::Seconds active_time = 0.0;
  util::Joules active_energy = 0.0;
  for (int b = 0; b < layout.band_count[cls]; ++b) {
    const int k = layout.band_clients[cls][b];
    const int band_slots = layout.band_slots[cls][b];
    if (k <= 0 || band_slots <= 0) continue;
    const auto slots = static_cast<double>(band_slots);
    active_time += slots * server_.slot_duration(k);
    active_energy += slots * (server_.slot_active_energy(k) *
                              params_.loss.saturation_factor(
                                  k, server_.max_parallel));
    if (params_.loss.saturates(k, server_.max_parallel))
      saturated += static_cast<std::uint64_t>(band_slots) *
                   static_cast<std::uint64_t>(layout.servers[cls]);
  }
  if (active_time > server_.cycle)
    throw std::logic_error(
        "LargeScaleSimulator: active slots exceed the cycle");
  return server_.idle_power * (server_.cycle - active_time) + active_energy;
}

LargeScaleSimulator::CloudCycle LargeScaleSimulator::cloud_cycle(
    int surviving) const {
  // Stack-resident columnar layout: the whole allocation is a few fixed
  // arrays, no heap traffic.
  CompactLayout layout;
  allocate_compact_into(surviving, server_, params_.policy, layout);
  CloudCycle out;
  out.servers_used = static_cast<int>(layout.servers_used());
  out.active_slots = static_cast<int>(layout.active_slots());
  for (int c = 0; c < layout.class_count; ++c)
    out.cloud_energy += static_cast<double>(layout.servers[c]) *
                        server_energy(layout, c, out.saturated_slots);
  return out;
}

CycleResult LargeScaleSimulator::simulate_cycle(int clients,
                                                util::Rng& rng) const {
  return simulate_cycle(clients, rng, nullptr);
}

CycleResult LargeScaleSimulator::simulate_cycle(int clients, util::Rng& rng,
                                                CycleMemo* memo) const {
  if (clients < 0)
    throw std::invalid_argument("simulate_cycle: negative clients");
  CycleResult result;
  result.initial_clients = clients;
  result.lost_clients = params_.loss.draw_lost_clients(clients, rng);
  const int surviving = clients - result.lost_clients;

  result.edge_energy =
      static_cast<double>(surviving) * params_.client.cycle_energy() +
      static_cast<double>(result.lost_clients) *
          params_.client.sleep_cycle_energy();

  const CloudCycle cloud =
      memo != nullptr ? memo->get(*this, surviving) : cloud_cycle(surviving);
  result.servers_used = cloud.servers_used;
  result.active_slots = cloud.active_slots;
  result.cloud_energy = cloud.cloud_energy;

  if (obs::enabled()) {
    static auto& cycles = obs::registry().counter(obs::metric::kFleetCycles);
    static auto& hives =
        obs::registry().counter(obs::metric::kFleetHivesSimulated);
    static auto& edge_requests =
        obs::registry().counter(obs::metric::kFleetRequestsEdge);
    static auto& cloud_requests =
        obs::registry().counter(obs::metric::kFleetRequestsCloud);
    static auto& dropped =
        obs::registry().counter(obs::metric::kFleetRequestsDropped);
    static auto& max_servers =
        obs::registry().gauge(obs::metric::kFleetMaxServersUsed);
    static auto& saturated =
        obs::registry().counter(obs::metric::kLossSaturatedSlots);
    cycles.inc();
    hives.inc(static_cast<std::uint64_t>(clients));
    // Every surviving client both runs its edge routine and uploads to a
    // cloud slot (the Section VI clients are edge+cloud by construction);
    // dropped requests are the loss-C sleepers.
    edge_requests.inc(static_cast<std::uint64_t>(surviving));
    cloud_requests.inc(static_cast<std::uint64_t>(surviving));
    dropped.inc(static_cast<std::uint64_t>(result.lost_clients));
    max_servers.update_max(static_cast<double>(result.servers_used));
    // Counted per cycle, memo hit or not, so the total is exactly the
    // plain per-cycle loop's.
    if (cloud.saturated_slots > 0) saturated.inc(cloud.saturated_slots);
  }
  return result;
}

CycleResult LargeScaleSimulator::simulate_ideal_cycle(int clients) const {
  util::Rng unused(0);
  return ideal_ ? ideal_->simulate_cycle(clients, unused)
                : simulate_cycle(clients, unused);
}

std::vector<SweepPoint> LargeScaleSimulator::sweep(
    const std::vector<int>& client_counts, std::uint64_t seed,
    int cycles_per_point, unsigned threads) const {
  FleetColumns columns =
      FleetColumns::start(client_counts, seed, cycles_per_point);
  advance(columns, 0, threads);
  if (obs::enabled()) {
    static auto& points =
        obs::registry().counter(obs::metric::kFleetSweepPoints);
    static auto& sweep_threads =
        obs::registry().gauge(obs::metric::kFleetSweepThreads);
    points.inc(static_cast<std::uint64_t>(client_counts.size()));
    const auto used = std::min<std::size_t>(
        threads == 0 ? util::default_thread_count() : threads,
        std::max<std::size_t>(client_counts.size(), 1));
    sweep_threads.set(static_cast<double>(used));
  }
  return columns.points();
}

std::vector<int> client_range(int lo, int hi, int step) {
  if (lo < 0 || hi < lo || step <= 0)
    throw std::invalid_argument("client_range: bad range");
  std::vector<int> out;
  for (int n = lo; n <= hi; n += step) out.push_back(n);
  return out;
}

}  // namespace beesim::core
