#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/allocator.hpp"
#include "core/client.hpp"
#include "core/loss.hpp"
#include "core/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace beesim::core {

struct FleetColumns;

/// Everything that defines one large-scale deployment: the client type,
/// the server type, the allocator policy, and which losses apply.
struct FleetParams {
  ClientSpec client;
  ServerSpec server;
  FillPolicy policy = FillPolicy::kFillFirst;
  LossConfig loss;

  /// The simulator's physics preconditions: the client wakes once per
  /// server cycle (`client.period == server.cycle`), and at least one
  /// full slot — `max_parallel` >= 1 clients, stretched by loss model B
  /// when it is on — fits in the cycle. LargeScaleSimulator's constructor
  /// throws on a false result; serve admission rejects it as invalid.
  bool valid() const noexcept;

  /// The paper's Section VI configuration: edge+cloud smart-beehive
  /// clients on a 5-minute cycle, cloud servers running the given queen
  /// detection model with `max_parallel` clients per time slot.
  static FleetParams paper_default(ServiceModel service = ServiceModel::kCnn,
                                   int max_parallel = 10,
                                   util::Seconds cycle = 300.0);
};

/// Outcome of one simulated wake-up cycle across the whole fleet.
struct CycleResult {
  int initial_clients = 0;
  int lost_clients = 0;
  int servers_used = 0;
  int active_slots = 0;
  util::Joules edge_energy = 0.0;   // summed over all clients
  util::Joules cloud_energy = 0.0;  // summed over all servers

  int surviving_clients() const noexcept {
    return initial_clients - lost_clients;
  }
  /// Per-client metrics are divided by the *initial* client count, as in
  /// the paper's figures (their x-axis is the deployed fleet size).
  double edge_per_client() const noexcept;
  double cloud_per_client() const noexcept;
  double total_per_client() const noexcept;
};

/// Monte-Carlo statistics of one sweep point: `cycles` simulated cycles
/// at a fixed fleet size, accumulated as full streaming statistics
/// (mean/stddev/extrema) instead of the old truncated integer means —
/// rounding happens only at display time.
struct SweepPoint {
  int initial_clients = 0;
  int cycles = 0;
  int servers_used = 0;  // max across the point's cycles
  util::RunningStats lost_clients;
  util::RunningStats active_slots;
  util::RunningStats edge_energy;   // fleet-wide joules per cycle
  util::RunningStats cloud_energy;  // fleet-wide joules per cycle
  util::RunningStats total_energy;  // edge + cloud per cycle

  double mean_surviving() const noexcept;
  /// Display-time rounding of the mean dropout count.
  int lost_clients_display() const noexcept;
  /// Per-initial-client means, as in CycleResult.
  double edge_per_client() const noexcept;
  double cloud_per_client() const noexcept;
  double total_per_client() const noexcept;
  /// 95 % confidence half-width of total_per_client across the point's
  /// cycles (0 for fewer than 2 cycles).
  double total_per_client_ci95() const noexcept;
};

/// The analytic large-scale simulator of Section VI: allocates clients to
/// servers and time slots, applies the loss models, and accounts energy
/// for one cycle. Deterministic given the RNG (only loss C draws from
/// it).
class LargeScaleSimulator {
 public:
  explicit LargeScaleSimulator(FleetParams params);

  /// One cycle with `clients` deployed beehives. Always recomputes the
  /// cloud side — the plain oracle the memoized point loops of advance()
  /// (and so sweep()) and ResilientFleet are tested against.
  CycleResult simulate_cycle(int clients, util::Rng& rng) const;

  /// One cycle without any stochastic loss (ignores loss model C). The
  /// no-dropout sibling is built once at construction, so bench loops
  /// calling this per point never re-validate the server geometry.
  CycleResult simulate_ideal_cycle(int clients) const;

  /// Sweeps a range of fleet sizes; each point runs `cycles_per_point`
  /// cycles and accumulates statistics (loss C makes single cycles
  /// noisy). This is the uninterrupted columnar campaign:
  /// FleetColumns::start, one advance() to completion, points(). Points
  /// run under util::parallel_for (`threads` = 0 picks hardware
  /// concurrency, 1 runs inline), and every point derives its own RNG
  /// stream from (seed, fleet size) — results are bit-identical across
  /// thread counts AND across sweep ranges: the point at n=400 is the
  /// same whether the sweep is {400} or {100, ..., 400}.
  std::vector<SweepPoint> sweep(const std::vector<int>& client_counts,
                                std::uint64_t seed, int cycles_per_point = 1,
                                unsigned threads = 0) const;

  /// Resumable, columnar form of sweep(): runs up to `max_cycles` further
  /// cycles on every incomplete point of `columns` (0 = run each point to
  /// completion), updating the per-point statistic and RNG-cursor columns
  /// in place. Because the columns carry the exact accumulator
  /// representation and the generator state, any interleaving of advance
  /// calls — including stopping mid-point, checkpointing to disk, and
  /// resuming in another process — lands on results bit-identical to one
  /// uninterrupted sweep() (contract tested in tests/test_checkpoint.cpp
  /// and enforced on fig6 CSVs by scripts/check.sh). With `shard_count`
  /// > 1 only points whose index is congruent to `shard_index` advance —
  /// the fan-out used to split one campaign across processes, each
  /// checkpointing its own shard file for a later merge. Returns whether
  /// the whole campaign (all shards) is now complete.
  bool advance(FleetColumns& columns, int max_cycles = 0,
               unsigned threads = 0, int shard_index = 0,
               int shard_count = 1) const;

  /// The server spec with loss model B folded in (stretched slots).
  const ServerSpec& effective_server() const noexcept { return server_; }
  const FleetParams& params() const noexcept { return params_; }

 private:
  friend class ResilientFleet;

  /// The cloud side of one cycle: everything after the loss-C draw.
  struct CloudCycle {
    int servers_used = 0;
    int active_slots = 0;
    util::Joules cloud_energy = 0.0;
    /// Slots paying the loss-A penalty (core.loss.saturated_slots).
    std::uint64_t saturated_slots = 0;
  };

  /// Direct-mapped memo of cloud_cycle() keyed by survivor count. Each
  /// point loop owns one on its stack: a point's survivors cluster around
  /// one mean (12-14 distinct counts in 512 paper-default cycles, exactly
  /// one when loss-free), so almost every cycle is a hit. A hit returns
  /// the bits a recompute would, because cloud_cycle() is a pure function
  /// of the survivor count for a given simulator.
  class CycleMemo {
   public:
    const CloudCycle& get(const LargeScaleSimulator& sim, int surviving) {
      Entry& e = entries_[static_cast<unsigned>(surviving) & (kSize - 1)];
      if (e.surviving != surviving) {
        e.value = sim.cloud_cycle(surviving);
        e.surviving = surviving;
      }
      return e.value;
    }

   private:
    static constexpr unsigned kSize = 32;
    struct Entry {
      int surviving = -1;  // survivor counts are >= 0: -1 is "empty"
      CloudCycle value;
    };
    Entry entries_[kSize];
  };

  /// Allocates `surviving` clients through the O(1) occupancy-histogram
  /// layout (allocate_compact_into) and prices their slots. Pure apart
  /// from the allocator's own metrics.
  CloudCycle cloud_cycle(int surviving) const;
  /// simulate_cycle() with the cloud side looked up in `memo` (recomputed
  /// when `memo` is null). Records the same physics metrics either way.
  CycleResult simulate_cycle(int clients, util::Rng& rng,
                             CycleMemo* memo) const;

  /// Per-server energy of class `cls` of a flat columnar layout; the
  /// class multiplicity is read from the layout for exact saturated-slot
  /// accounting. Agrees with pricing the materialized per-slot
  /// allocate() vector slot by slot (tests/oracle.hpp
  /// vector_cloud_cycle, equivalence-tested).
  util::Joules server_energy(const CompactLayout& layout, int cls,
                             std::uint64_t& saturated) const;

  FleetParams params_;
  ServerSpec server_;  // params_.server with transfer stretch applied
  // Dropout-free sibling backing simulate_ideal_cycle (null when this
  // simulator is already dropout-free). Shared so the simulator stays
  // copyable; the sibling is immutable.
  std::shared_ptr<const LargeScaleSimulator> ideal_;
};

/// Convenience for sweeps: {lo, lo+step, ..., <= hi}.
std::vector<int> client_range(int lo, int hi, int step);

}  // namespace beesim::core
