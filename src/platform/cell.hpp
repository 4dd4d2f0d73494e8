#pragma once
// Model of the STI Cell Broadband Engine used throughout cellstream.
//
// The platform is the "theoretical view" of the paper's Fig. 1(b): a set of
// processing elements (PEs), each with a dedicated bidirectional
// communication interface of bandwidth `bw` in each direction, connected by
// the Element Interconnect Bus which is assumed contention-free (its
// aggregate bandwidth equals the sum of all interface bandwidths).
//
// PEs are indexed 0..n-1 with the paper's convention: indices
// [0, ppe_count) are PPEs, [ppe_count, n) are SPEs.  Compute costs follow
// the unrelated-machine model: a task has independent wPPE and wSPE values.

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace cellstream {

/// Kind of processing element.
enum class PeKind : std::uint8_t {
  kPpe,  ///< Power Processing Element: transparent main-memory access.
  kSpe,  ///< Synergistic Processing Element: 256 kB local store, DMA only.
};

/// Index of a processing element on a platform (0-based, PPEs first).
using PeId = std::size_t;

/// Parameters of a Cell-like platform.  All defaults follow the paper
/// (Section 2.1).  Bandwidths are in bytes/second, sizes in bytes, compute
/// costs in seconds.
struct CellPlatform {
  std::size_t ppe_count = 1;  ///< nP: number of PPE cores.
  std::size_t spe_count = 8;  ///< nS: number of SPE cores.

  /// Per-interface bandwidth in each direction (bw = 25 GB/s).
  double interface_bandwidth = 25.0e9;
  /// Aggregate EIB bandwidth (BW = 200 GB/s); informational only — the
  /// model assumes the ring never constrains (Section 2.1).
  double eib_bandwidth = 200.0e9;

  /// SPE local-store size (LS = 256 kB).
  std::size_t local_store_bytes = 256 * 1024;
  /// Bytes of the replicated application code resident in each local
  /// store; buffers must fit in local_store_bytes - code_bytes.
  std::size_t code_bytes = 64 * 1024;

  /// Max simultaneous DMA calls a SPE may issue (its own 16-deep stack).
  std::size_t spe_dma_slots = 16;
  /// Max simultaneous DMA calls PPEs may have outstanding toward one SPE
  /// (the separate 8-deep proxy stack).
  std::size_t ppe_to_spe_dma_slots = 8;

  /// Number of Cell chips this platform spans (a dual-Cell QS22 has 2).
  /// PPEs and SPEs are distributed across chips in contiguous blocks.
  /// With more than one chip, transfers between PEs on different chips
  /// additionally share the inter-chip link (the QS22's BIF) in each
  /// direction — the paper's Section 7 extension.
  std::size_t chip_count = 1;
  /// Inter-chip link bandwidth per direction (QS22 BIF: ~20 GB/s).
  double cross_chip_bandwidth = 20.0e9;

  /// Total number of processing elements n = nP + nS.
  std::size_t pe_count() const { return ppe_count + spe_count; }

  /// Kind of PE `pe` (PPEs occupy the low indices).
  PeKind kind(PeId pe) const {
    CS_ENSURE(pe < pe_count(), "kind: PE index out of range");
    return pe < ppe_count ? PeKind::kPpe : PeKind::kSpe;
  }

  bool is_ppe(PeId pe) const { return kind(pe) == PeKind::kPpe; }
  bool is_spe(PeId pe) const { return kind(pe) == PeKind::kSpe; }

  /// Local-store bytes available for stream buffers on each SPE.
  std::size_t buffer_budget() const {
    CS_ENSURE(code_bytes <= local_store_bytes,
              "buffer_budget: code does not fit in the local store");
    return local_store_bytes - code_bytes;
  }

  /// Chip hosting PE `pe` (block distribution of PPEs and SPEs).
  std::size_t chip_of(PeId pe) const;

  /// True if a transfer between the two PEs crosses the inter-chip link.
  bool crosses_chips(PeId a, PeId b) const {
    return chip_of(a) != chip_of(b);
  }

  /// Human-readable PE name ("PPE0", "SPE3", ...).
  std::string pe_name(PeId pe) const;

  /// Validate all parameters; throws Error on nonsense values.
  void validate() const;

  bool operator==(const CellPlatform&) const = default;
};

/// Platform presets used in the paper's evaluation.
namespace platforms {

/// Sony PlayStation 3: one Cell with only 6 usable SPEs and one PPE.
CellPlatform playstation3();

/// IBM QS22 restricted to a single Cell processor (1 PPE + 8 SPEs) — the
/// configuration of all experiments in the paper.
CellPlatform qs22_single_cell();

/// IBM QS22 with both Cell processors (2 PPEs + 16 SPEs).  The paper lists
/// this as future work; we expose it for the extension benches.
CellPlatform qs22_dual_cell();

/// qs22_single_cell with the SPE count overridden (0..8) — the x-axis of
/// the paper's Fig. 7.
CellPlatform qs22_with_spes(std::size_t spe_count);

}  // namespace platforms

}  // namespace cellstream
