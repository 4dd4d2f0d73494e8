#pragma once
// Deterministic fault oracle shared by the simulator and the host runtime.
//
// Every answer is a pure function of (plan seed, fault kind, object id,
// stream instance): the injector hashes the key into a private Rng, draws,
// and discards the generator.  No internal mutable state, no wall clock,
// no dependence on evaluation order — so the oracle is thread-safe by
// construction, the simulator replays bit-identically, and the host
// runtime observes the *same* fault sequence as the simulator for the same
// plan (the satellite determinism requirement).
//
// The only stateful fault is the one-shot Hang: firing is tracked by the
// executor (one flag per spec, under its own synchronization), because
// "first computation to reach the instance" is an executor-level event.

#include <cstddef>
#include <cstdint>

#include "fault/fault_plan.hpp"

namespace cellstream::fault {

/// Stateless deterministic oracle over a FaultPlan.
class FaultInjector {
 public:
  /// Transfer kinds keyed independently so an edge fetch and a memory
  /// read of the same ids draw from different streams.
  enum class TransferKind : std::uint64_t {
    kEdge = 1,
    kMemRead = 2,
    kMemWrite = 3,
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  // -- Permanent failure --------------------------------------------------

  bool has_pe_failure() const { return plan_.pe_failure.has_value(); }
  std::int64_t fail_instance() const { return plan_.pe_failure->at_instance; }

  /// True when `pe` is fail-stopped for stream instance `instance`: the
  /// PE must not start this computation and the executor has to run the
  /// drain -> remap -> resume protocol.
  bool fail_stop(PeId pe, std::int64_t instance) const {
    return plan_.pe_failure && plan_.pe_failure->pe == pe &&
           instance >= plan_.pe_failure->at_instance;
  }

  // -- Transient compute faults -------------------------------------------

  /// Multiplicative compute cost of instance `instance` on `pe` (>= 1;
  /// overlapping slowdown windows compose multiplicatively).
  double compute_factor(PeId pe, std::int64_t instance) const;

  /// Index of the hang spec triggered by (pe, instance), or npos.  The
  /// executor is responsible for firing each spec at most once.
  std::size_t hang_index(PeId pe, std::int64_t instance) const;

  double hang_seconds(std::size_t index) const {
    return plan_.hangs[index].seconds;
  }

  // -- Transient DMA faults -----------------------------------------------

  /// Number of failed attempts (0..max_retries) for the transfer of
  /// `object` (edge id or task id, per kind) at stream `instance`.
  int dma_failures(TransferKind kind, std::uint64_t object,
                   std::int64_t instance) const;

  /// Total backoff delay in seconds served before attempt `failures`
  /// succeeds: sum over failed attempts a of
  /// backoff_seconds * 2^a * (1 + jitter * u_a) with seeded jitter draws.
  double dma_backoff(TransferKind kind, std::uint64_t object,
                     std::int64_t instance, int failures) const;

  /// Convenience: failures + backoff in one call; returns the delay and
  /// adds the retry count to *retries.
  double dma_delay(TransferKind kind, std::uint64_t object,
                   std::int64_t instance, std::int64_t* retries) const;

 private:
  std::uint64_t key(std::uint64_t salt, std::uint64_t kind,
                    std::uint64_t object, std::int64_t instance) const;

  FaultPlan plan_;
};

}  // namespace cellstream::fault
