// The flow layer against the test-local reference it replaced
// (des/reference_flow_network.hpp): seeded random start and completion
// sequences must give bit-identical rates and completion times.  Also
// pinned here: the steady state of the per-transfer path allocates
// nothing (this binary counts every allocation, so it runs alone).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <vector>

#include "des/flow_network.hpp"
#include "reference_flow_network.hpp"
#include "support/rng.hpp"

// Counts every allocation of this test binary; the steady-state case
// reads the count around its measured phase.  Kept out of line, so the
// compiler does not pair an inlined free() with operator new.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cellstream::des {
namespace {

/// Start a transfer over `count` resources through the brace-list call
/// both networks accept.
template <typename Net>
TransferId start_over(Net& net, const ResourceId* r, std::size_t count,
                      double bytes, InlineAction done) {
  switch (count) {
    case 1: return net.start_transfer_over({r[0]}, bytes, std::move(done));
    case 2:
      return net.start_transfer_over({r[0], r[1]}, bytes, std::move(done));
    case 3:
      return net.start_transfer_over({r[0], r[1], r[2]}, bytes,
                                     std::move(done));
    default: break;
  }
  return net.start_transfer_over({r[0], r[1], r[2], r[3]}, bytes,
                                 std::move(done));
}

/// One seeded scenario on network type `Net`: a few nodes (some with
/// infinite ports, like main memory), extra link resources, transfers of
/// 1-4 distinct resources and sometimes zero bytes, started at random
/// times and from completion callbacks.  Every draw is taken in event
/// order, so two networks that agree bit for bit see the same scenario;
/// `log` records the bits of each state they expose.
template <typename Net>
class Scenario {
 public:
  explicit Scenario(std::uint64_t seed) : rng_(seed) {
    nodes_ = static_cast<std::size_t>(rng_.uniform_int(2, 7));
    std::vector<double> out(nodes_), in(nodes_);
    for (std::size_t n = 0; n < nodes_; ++n) {
      const bool memory = rng_.bernoulli(0.2);
      out[n] = memory ? Net::infinity() : rng_.uniform(10.0, 200.0);
      in[n] = memory ? Net::infinity() : rng_.uniform(10.0, 200.0);
    }
    net_.emplace(engine_, out, in);
    const auto links = rng_.uniform_int(0, 3);
    for (std::int64_t l = 0; l < links; ++l) {
      net_->add_resource(rng_.uniform(5.0, 100.0));
    }
    resources_ = 2 * nodes_ + static_cast<std::size_t>(links);
    if (rng_.bernoulli(0.5)) net_->set_time_quantum(1e-3);
    budget_ = static_cast<std::size_t>(rng_.uniform_int(10, 80));
    const auto initial = rng_.uniform_int(1, 12);
    for (std::int64_t i = 0; i < initial; ++i) {
      engine_.schedule_at(rng_.uniform(0.0, 5.0), [this] { start(); });
    }
  }

  const std::vector<std::uint64_t>& run() {
    engine_.run();
    return log_;
  }

 private:
  void record(double v) { log_.push_back(std::bit_cast<std::uint64_t>(v)); }

  void start() {
    if (started_ == budget_) return;
    const std::uint64_t serial = started_++;
    const double bytes = rng_.bernoulli(0.1) ? 0.0 : rng_.uniform(1.0, 500.0);
    InlineAction done = [this, serial] { finish(serial); };
    TransferId id = 0;
    if (rng_.bernoulli(0.3)) {
      const auto src = static_cast<NodeId>(
          rng_.uniform_int(0, static_cast<std::int64_t>(nodes_) - 1));
      NodeId dst = static_cast<NodeId>(
          rng_.uniform_int(0, static_cast<std::int64_t>(nodes_) - 2));
      if (dst >= src) ++dst;
      id = net_->start_transfer(src, dst, bytes, std::move(done));
    } else {
      // 1-4 distinct resources, in random order.
      std::vector<ResourceId> pool(resources_);
      for (ResourceId r = 0; r < resources_; ++r) pool[r] = r;
      rng_.shuffle(pool);
      const auto count = static_cast<std::size_t>(rng_.uniform_int(
          1, static_cast<std::int64_t>(std::min<std::size_t>(4, resources_))));
      id = start_over(*net_, pool.data(), count, bytes, std::move(done));
    }
    log_.push_back(id);
    net_->for_each_active([this](TransferId flow, double remaining,
                                 double rate) {
      log_.push_back(flow);
      record(remaining);
      record(rate);
    });
  }

  void finish(std::uint64_t serial) {
    log_.push_back(serial);
    record(engine_.now());
    // Callbacks start transfers while the network hands out completions.
    const auto follow = rng_.uniform_int(0, 2);
    for (std::int64_t i = 0; i < follow; ++i) start();
  }

  Engine engine_;
  std::optional<Net> net_;
  Rng rng_;
  std::size_t nodes_ = 0;
  std::size_t resources_ = 0;
  std::size_t budget_ = 0;
  std::size_t started_ = 0;
  std::vector<std::uint64_t> log_;
};

TEST(FlowNetworkEquivalence, RatesAndCompletionTimesMatchTheReferenceBits) {
  std::size_t entries = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Scenario<FlowNetwork> flow(seed);
    Scenario<reference::FlowNetwork> ref(seed);
    const std::vector<std::uint64_t>& got = flow.run();
    const std::vector<std::uint64_t>& want = ref.run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(std::uint64_t)),
              0)
        << "seed " << seed;
    entries += got.size();
  }
  // The scenarios do exercise the networks.
  EXPECT_GT(entries, 10000u);
}

/// A self-sustaining transfer chain: each completion starts the next
/// transfer of its lane until `budget` transfers have started.
struct Chain {
  FlowNetwork* net = nullptr;
  std::vector<ResourceId> links;
  std::size_t started = 0;
  std::size_t budget = 0;

  void start(std::size_t lane) {
    if (started == budget) return;
    const std::size_t k = started++;
    InlineAction done = [this, lane] { start(lane); };
    const NodeId src = (lane + k) % 6;
    const NodeId dst = (src + 1 + k % 5) % 6;
    if (k % 3 == 0) {
      net->start_transfer_over({net->out_port(src), links[k % 2],
                                links[2 + (k + 1) % 2], net->in_port(dst)},
                               64.0 + static_cast<double>(k % 7),
                               std::move(done));
    } else {
      net->start_transfer(src, dst, k % 11 == 0 ? 0.0 : 32.0,
                          std::move(done));
    }
  }
};

TEST(FlowNetwork, SteadyStateAllocatesNothingAfterWarmUp) {
  Engine engine;
  std::vector<double> caps(6, 100.0);
  caps[5] = FlowNetwork::infinity();  // a memory-style node
  FlowNetwork net(engine, caps, caps);
  net.set_time_quantum(1e-3);
  Chain chain{&net, {}, 0, 0};
  for (int l = 0; l < 4; ++l) chain.links.push_back(net.add_resource(50.0));
  constexpr std::size_t kLanes = 12;
  constexpr std::size_t kRound = 4000;
  const auto round = [&] {
    chain.budget += kRound;
    for (std::size_t lane = 0; lane < kLanes; ++lane) chain.start(lane);
    engine.run();
  };
  round();  // warm-up: scratch and pools reach their peak sizes
  const std::uint64_t recomputations = net.recomputations();
  const std::uint64_t before = g_allocations.load();
  round();
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(chain.started, 2 * kRound);
  // One recomputation per start and one per completion event.
  EXPECT_GE(net.recomputations() - recomputations, kRound);
  EXPECT_LE(net.recomputations() - recomputations, 2 * kRound);
}

}  // namespace
}  // namespace cellstream::des
