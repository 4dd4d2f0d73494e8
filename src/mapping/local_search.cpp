#include "mapping/local_search.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "mapping/heuristics.hpp"

namespace cellstream::mapping {

namespace {

/// One of the two PEs a candidate moves a task off or onto, and the
/// candidate's changes to that PE's totals.
struct Side {
  PeId pe = 0;
  bool spe = false;
  double compute = 0.0;
  double incoming = 0.0;
  double outgoing = 0.0;
  double buffer = 0.0;
  std::ptrdiff_t transfers = 0;  ///< Incoming remote data (1j).
  std::ptrdiff_t to_ppe = 0;     ///< Data sent to PPEs (1k).
};

/// The state one improve_mapping call shares between its passes: the
/// account of the current mapping, the screen's view of it, the scratch
/// accounts of candidates, and the work counters.
class Search {
 public:
  Search(const SteadyStateAnalysis& analysis, const Mapping& start)
      : analysis_(analysis),
        platform_(analysis.platform()),
        tasks_(analysis.task_loads()),
        edges_(analysis.edge_loads()),
        chip_of_(analysis.chip_of()),
        shared_(analysis.buffer_policy() == BufferPolicy::kSharedColocated),
        proxy_(platform_.pe_count(), 0),
        link_out_(platform_.chip_count, 0.0),
        link_in_(platform_.chip_count, 0.0) {
    CS_ENSURE(evaluate(start),
              "improve_mapping: starting mapping is infeasible");
    std::swap(current_, scratch_);
    rank();

    // Rounding bound of the screen (docs/PERFORMANCE.md §11).  With
    // N = K + |E|, each total of an account is a left-to-right sum of at
    // most N terms, and a candidate's estimate adds to the current total
    // a sum of at most 2N + 2 changes whose magnitudes sum to at most 4G,
    // where G is the graph-wide sum of the magnitudes of that resource's
    // terms (it bounds every partial sum).  The estimate and the
    // candidate's account then differ by at most 10.2 (N + 1) 2^-53 G,
    // and the division by a bandwidth, the subtraction of the slack and
    // the comparison add 2^-53 G each; 16 (N + 8) 2^-53 G covers it all.
    double compute = 0.0, bytes = 0.0, buffers = 0.0, data = 0.0;
    for (const SteadyStateAnalysis::TaskLoad& t : tasks_) {
      compute += std::max(t.wppe, t.wspe);
      bytes += t.read_bytes + t.write_bytes;
      buffers += t.buffer_bytes;
    }
    for (const SteadyStateAnalysis::EdgeLoad& e : edges_) {
      data += e.data_bytes;
      buffers += e.buffer_bytes;
    }
    const double scale =
        16.0 * static_cast<double>(tasks_.size() + edges_.size() + 8) *
        0x1p-53;
    // An infinite load makes its resource's slack infinite, and the
    // estimates less that slack then never reject a candidate.
    compute_slack_ = scale * compute;
    interface_slack_ = scale * (bytes + data) / platform_.interface_bandwidth;
    buffer_slack_ = scale * buffers;
    link_slack_ = scale * data / platform_.cross_chip_bandwidth;
  }

  std::size_t pe_count() const { return platform_.pe_count(); }
  const ResourceUsage& current() const { return current_; }
  const ResourceUsage& scratch() const { return scratch_; }
  const LocalSearchWork& work() const { return work_; }

  /// Start a candidate that moves tasks between `from` and `to`.
  void begin(PeId from, PeId to) {
    ++work_.candidates;
    const PeId first_spe = platform_.ppe_count;
    sides_[0] = Side{from, from >= first_spe};
    sides_[1] = Side{to, to >= first_spe};
    links_move_ = chip_of_[from] != chip_of_[to];
    if (links_move_) {
      std::fill(link_out_.begin(), link_out_.end(), 0.0);
      std::fill(link_in_.begin(), link_in_.end(), 0.0);
    }
  }

  /// Add to the candidate the move of task `t` from `from` to `to`, two
  /// PEs of begin(), against `mapping`'s placement of every other task.
  void shift(const Mapping& mapping, TaskId t, PeId from, PeId to) {
    const SteadyStateAnalysis::TaskLoad& load = tasks_[t];
    Side& off = *find(from);
    off.compute -= off.spe ? load.wspe : load.wppe;
    off.incoming -= load.read_bytes;
    off.outgoing -= load.write_bytes;
    if (off.spe) off.buffer -= load.buffer_bytes;
    Side& on = *find(to);
    on.compute += on.spe ? load.wspe : load.wppe;
    on.incoming += load.read_bytes;
    on.outgoing += load.write_bytes;
    if (on.spe) on.buffer += load.buffer_bytes;

    const std::vector<PeId>& pe_of = mapping.raw();
    for (EdgeId e : analysis_.incident_edges(t)) {
      const SteadyStateAnalysis::EdgeLoad& edge = edges_[e];
      if (edge.from == t) {
        const PeId dst = pe_of[edge.to];
        charge(-1, edge, from, dst);
        charge(+1, edge, to, dst);
      } else {
        const PeId src = pe_of[edge.from];
        charge(-1, edge, src, from);
        charge(+1, edge, src, to);
      }
    }
  }

  /// False when the candidate built by begin() and shift() surely breaks
  /// a limit, or surely has a period of at least `threshold`: the full
  /// account would reject it.  True when only the full account can tell.
  bool promising(double threshold) {
    const std::size_t proxy_slots = platform_.ppe_to_spe_dma_slots;
    bool within = true;
    for (PeId pe : proxy_touched_) {
      if (proxy_[pe] > 0 &&
          current_.to_ppe_transfers[pe] + static_cast<std::size_t>(proxy_[pe]) >
              proxy_slots) {
        within = false;
      }
      proxy_[pe] = 0;
    }
    proxy_touched_.clear();
    if (!within) return false;

    for (const Side& s : sides_) {
      if (!s.spe) continue;
      const PeId pe = s.pe;
      if (static_cast<std::ptrdiff_t>(current_.incoming_transfers[pe]) +
                  s.transfers >
              static_cast<std::ptrdiff_t>(platform_.spe_dma_slots) ||
          static_cast<std::ptrdiff_t>(current_.to_ppe_transfers[pe]) +
                  s.to_ppe >
              static_cast<std::ptrdiff_t>(proxy_slots) ||
          current_.buffer_bytes[pe] + s.buffer - buffer_slack_ >
              analysis_.buffer_budget()) {
        return false;
      }
    }

    // A lower bound on the candidate's period: the untouched PEs' peak
    // is exact, the changed totals are estimates less their slack.
    double bound = 0.0;
    const auto raise = [&bound](double value) {
      if (value > bound) bound = value;
    };
    for (const auto& [value, pe] : top_) {
      if (pe != sides_[0].pe && pe != sides_[1].pe) {
        raise(value);
        break;
      }
    }
    if (links_move_) {
      const double xbw = platform_.cross_chip_bandwidth;
      for (std::size_t c = 0; c < link_out_.size(); ++c) {
        raise((current_.cross_chip_out_bytes[c] + link_out_[c]) / xbw -
              link_slack_);
        raise((current_.cross_chip_in_bytes[c] + link_in_[c]) / xbw -
              link_slack_);
      }
    } else {
      raise(link_peak_);
    }
    const double bw = platform_.interface_bandwidth;
    for (const Side& s : sides_) {
      const PeId pe = s.pe;
      raise(current_.compute_seconds[pe] + s.compute - compute_slack_);
      raise((current_.incoming_bytes[pe] + s.incoming) / bw - interface_slack_);
      raise((current_.outgoing_bytes[pe] + s.outgoing) / bw - interface_slack_);
    }
    return bound < threshold;
  }

  /// Account `mapping` into the scratch; true when it meets (1i)-(1k),
  /// and then scratch().period is its period.
  bool evaluate(const Mapping& mapping) {
    ++work_.evaluations;
    analysis_.account(mapping, scratch_);
    return analysis_.within_limits(scratch_);
  }

  /// Keep the scratch account as the best candidate so far.
  void keep() { std::swap(best_, scratch_); }
  /// The mapping moved to the kept candidate: make it current.
  void adopt_kept() {
    std::swap(current_, best_);
    rank();
  }
  /// The mapping moved to the scratch's candidate: make it current.
  void adopt_scratch() {
    std::swap(current_, scratch_);
    rank();
  }

 private:
  /// The side record of `pe`, or null when `pe` is neither side.
  Side* find(PeId pe) {
    if (pe == sides_[0].pe) return &sides_[0];
    if (pe == sides_[1].pe) return &sides_[1];
    return nullptr;
  }

  /// Add `sign` times what `edge` charges with its source on `src` and
  /// its target on `dst` (SteadyStateAnalysis::account's edge loop).
  /// Totals of a PE other than the two sides do not change when the
  /// moved endpoint stays remote from it, so only its proxy count is
  /// tracked: the data it sends may switch between a SPE and a PPE.
  void charge(int sign, const SteadyStateAnalysis::EdgeLoad& edge, PeId src,
              PeId dst) {
    const PeId first_spe = platform_.ppe_count;
    if (src == dst) {
      if (shared_ && src >= first_spe) {
        find(src)->buffer -= sign * edge.buffer_bytes;  // src is a side
      }
      return;
    }
    const bool to_ppe = src >= first_spe && dst < first_spe;
    if (Side* s = find(src)) {
      s->outgoing += sign * edge.data_bytes;
      if (to_ppe) s->to_ppe += sign;
    } else if (to_ppe) {
      proxy_[src] += sign;
      proxy_touched_.push_back(src);
    }
    if (Side* s = find(dst)) {
      s->incoming += sign * edge.data_bytes;
      s->transfers += sign;
    }
    if (links_move_ && chip_of_[src] != chip_of_[dst]) {
      link_out_[chip_of_[src]] += sign * edge.data_bytes;
      link_in_[chip_of_[dst]] += sign * edge.data_bytes;
    }
  }

  /// The three largest per-PE peaks and the largest link value of the
  /// current account, each computed as account() computes it.
  void rank() {
    top_.fill({-1.0, platform_.pe_count()});
    const double bw = platform_.interface_bandwidth;
    for (PeId pe = 0; pe < platform_.pe_count(); ++pe) {
      double peak = current_.compute_seconds[pe];
      peak = std::max(peak, current_.incoming_bytes[pe] / bw);
      peak = std::max(peak, current_.outgoing_bytes[pe] / bw);
      std::pair<double, PeId> entry{peak, pe};
      for (auto& slot : top_) {
        if (entry.first > slot.first) std::swap(entry, slot);
      }
    }
    link_peak_ = 0.0;
    const double xbw = platform_.cross_chip_bandwidth;
    for (std::size_t c = 0; c < platform_.chip_count; ++c) {
      link_peak_ = std::max(link_peak_, current_.cross_chip_out_bytes[c] / xbw);
      link_peak_ = std::max(link_peak_, current_.cross_chip_in_bytes[c] / xbw);
    }
  }

  const SteadyStateAnalysis& analysis_;
  const CellPlatform& platform_;
  const std::vector<SteadyStateAnalysis::TaskLoad>& tasks_;
  const std::vector<SteadyStateAnalysis::EdgeLoad>& edges_;
  const std::vector<std::size_t>& chip_of_;
  const bool shared_;

  ResourceUsage current_;  ///< The account of the current mapping.
  ResourceUsage scratch_;  ///< The account of the last candidate.
  ResourceUsage best_;     ///< The best candidate of a move sweep.
  LocalSearchWork work_;

  double compute_slack_ = 0.0;
  double interface_slack_ = 0.0;  ///< Seconds.
  double buffer_slack_ = 0.0;
  double link_slack_ = 0.0;  ///< Seconds; read only on cross-chip moves.
  std::array<std::pair<double, PeId>, 3> top_{};
  double link_peak_ = 0.0;

  std::array<Side, 2> sides_{};
  std::vector<std::ptrdiff_t> proxy_;  ///< Per PE, off the two sides.
  std::vector<PeId> proxy_touched_;
  bool links_move_ = false;
  std::vector<double> link_out_;  ///< Per chip.
  std::vector<double> link_in_;
};

/// Try every single-task move; apply the first strict improvement found
/// per task (first-improvement keeps a pass linear in K * n).
bool move_pass(Search& search, Mapping& mapping, double& period) {
  const std::size_t n = search.pe_count();
  bool improved = false;
  for (TaskId t = 0; t < mapping.task_count(); ++t) {
    const PeId original = mapping.pe_of(t);
    PeId best_pe = original;
    double best_period = period;
    for (PeId pe = 0; pe < n; ++pe) {
      if (pe == original) continue;
      search.begin(original, pe);
      search.shift(mapping, t, original, pe);
      if (!search.promising(best_period - 1e-15)) continue;
      mapping.assign(t, pe);
      if (search.evaluate(mapping) &&
          search.scratch().period < best_period - 1e-15) {
        best_period = search.scratch().period;
        best_pe = pe;
        search.keep();
      }
      mapping.assign(t, original);
    }
    if (best_pe != original) {
      mapping.assign(t, best_pe);
      search.adopt_kept();
      period = best_period;
      improved = true;
    }
  }
  return improved;
}

/// Try swapping the hosts of every task pair on distinct PEs.
bool swap_pass(Search& search, Mapping& mapping, double& period) {
  bool improved = false;
  for (TaskId a = 0; a < mapping.task_count(); ++a) {
    for (TaskId b = a + 1; b < mapping.task_count(); ++b) {
      const PeId pa = mapping.pe_of(a);
      const PeId pb = mapping.pe_of(b);
      if (pa == pb) continue;
      // The second half of the swap sees the first one applied.
      search.begin(pa, pb);
      search.shift(mapping, a, pa, pb);
      mapping.assign(a, pb);
      search.shift(mapping, b, pb, pa);
      mapping.assign(b, pa);
      if (search.promising(period - 1e-15) && search.evaluate(mapping) &&
          search.scratch().period < period - 1e-15) {
        period = search.scratch().period;
        search.adopt_scratch();
        improved = true;
        continue;  // keep the swap
      }
      mapping.assign(a, pa);
      mapping.assign(b, pb);
    }
  }
  return improved;
}

}  // namespace

double improve_mapping(const SteadyStateAnalysis& analysis, Mapping& mapping,
                       const LocalSearchOptions& options,
                       LocalSearchWork* work) {
  Search search(analysis, mapping);
  double period = search.current().period;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = move_pass(search, mapping, period);
    if (options.use_swaps) {
      improved = swap_pass(search, mapping, period) || improved;
    }
    if (!improved) break;
  }
  if (work != nullptr) {
    work->candidates += search.work().candidates + 1;  // + the start
    work->evaluations += search.work().evaluations;
  }
  return period;
}

Mapping local_search_heuristic(const SteadyStateAnalysis& analysis,
                               const LocalSearchOptions& options) {
  Mapping mapping = greedy_cpu(analysis);
  if (!analysis.feasible(mapping)) mapping = ppe_only(analysis);
  improve_mapping(analysis, mapping, options);
  return mapping;
}

}  // namespace cellstream::mapping
