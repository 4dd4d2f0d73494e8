#pragma once
// Deterministic fault model for the scheduler/simulator/runtime pipeline.
//
// A FaultPlan is a seeded, serializable description of every fault a run
// will experience: at most one permanent fail-stop of a PE at a given
// stream instance, transient compute slowdown windows, one-shot worker
// hangs, and a transfer-level DMA failure process with bounded retry and
// exponential backoff.  The plan is pure data — the deterministic oracle
// that answers "does THIS transfer fail?" lives in fault/injector.hpp and
// is shared verbatim by sim::Simulator and runtime::Runtime, so a fuzz
// case that fails in one executor replays bit-identically in the other.
//
// Design rule: every draw is keyed by (plan seed, object, instance), never
// by call order or wall clock, so injection is independent of thread
// interleaving and of how many times a hook happens to be evaluated.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "platform/cell.hpp"

namespace cellstream::fault {

/// Permanent fail-stop: `pe` refuses to start any stream instance with
/// index >= `at_instance` (0-based).  The executor must drain, remap the
/// orphaned tasks onto the surviving PEs and resume.
struct PeFailure {
  PeId pe = 0;
  std::int64_t at_instance = 0;
};

/// Transient degradation: computations of instances in
/// [from_instance, to_instance] on `pe` take `factor` times their nominal
/// cost (factor >= 1).  The excess is accounted as overhead, not work, so
/// the steady-state occupation cross-check (I7/I9) stays exact.
struct Slowdown {
  PeId pe = 0;
  std::int64_t from_instance = 0;
  std::int64_t to_instance = 0;
  double factor = 1.0;
};

/// One-shot worker hang: the first computation of instance `at_instance`
/// on `pe` stalls for `seconds` before completing.  Long hangs are what
/// the runtime's progress watchdog exists to catch.
struct Hang {
  PeId pe = 0;
  std::int64_t at_instance = 0;
  double seconds = 0.0;
};

/// Transfer-level DMA failure process.  Each DMA command independently
/// fails with probability `rate` per attempt (geometric, clamped to
/// `max_retries`); attempt a waits backoff_seconds * 2^a, jittered by a
/// seeded uniform draw in [0, jitter].  A command that exhausts its
/// retries still completes (the hardware raises an interrupt and the
/// driver re-issues it out of band) — the plan bounds the *delay*, it
/// never loses data, so I8 is a property the executors must uphold even
/// under maximum fault pressure.
struct DmaFaults {
  double rate = 0.0;
  int max_retries = 4;
  double backoff_seconds = 2.0e-5;
  double jitter = 0.5;
};

/// A complete, deterministic fault scenario for one run.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::optional<PeFailure> pe_failure;
  std::vector<Slowdown> slowdowns;
  std::vector<Hang> hangs;
  DmaFaults dma;

  /// True when the plan injects nothing at all.
  bool empty() const {
    return !pe_failure && slowdowns.empty() && hangs.empty() &&
           dma.rate <= 0.0;
  }

  /// Throws Error on nonsense values (factor < 1, negative rate, PE index
  /// out of range for `platform`, ...).
  void validate(const CellPlatform& platform) const;

  /// Line-oriented text serialization; round-trips exactly.
  std::string to_text() const;
  static FaultPlan from_text(const std::string& text);

  /// Derive a random-but-reproducible plan from a 64-bit seed: usually one
  /// SPE fail-stop in the middle half of the stream, a moderate DMA
  /// failure rate, zero to two slowdown windows and an occasional
  /// sub-millisecond hang.  Only SPEs fail permanently — losing the last
  /// PPE is unsurvivable by construction (the remap needs a PE with
  /// transparent main-memory access) and is tested separately.
  static FaultPlan random(std::uint64_t seed, const CellPlatform& platform,
                          std::int64_t instances);
};

}  // namespace cellstream::fault
