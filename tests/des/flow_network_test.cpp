#include "des/flow_network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cellstream::des {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Fixture {
  Engine engine;
  std::vector<double> done_times;

  std::function<void()> recorder() {
    return [this] { done_times.push_back(engine.now()); };
  }
};

TEST(FlowNetwork, SingleTransferRunsAtFullPortSpeed) {
  Fixture f;
  FlowNetwork net(f.engine, {100.0, 100.0}, {100.0, 100.0});
  net.start_transfer(0, 1, 50.0, f.recorder());
  f.engine.run();
  ASSERT_EQ(f.done_times.size(), 1u);
  EXPECT_NEAR(f.done_times[0], 0.5, 1e-9);
}

TEST(FlowNetwork, TwoTransfersShareTheSourcePort) {
  Fixture f;
  FlowNetwork net(f.engine, {100.0, 100.0, 100.0}, {100.0, 100.0, 100.0});
  // Both leave node 0: each gets 50 B/s.
  net.start_transfer(0, 1, 50.0, f.recorder());
  net.start_transfer(0, 2, 50.0, f.recorder());
  f.engine.run();
  ASSERT_EQ(f.done_times.size(), 2u);
  EXPECT_NEAR(f.done_times[0], 1.0, 1e-9);
  EXPECT_NEAR(f.done_times[1], 1.0, 1e-9);
}

TEST(FlowNetwork, IncomingPortIsAlsoABottleneck) {
  Fixture f;
  FlowNetwork net(f.engine, {100.0, 100.0, 100.0}, {100.0, 100.0, 100.0});
  // Two sources into node 2: its incoming port splits 50/50.
  net.start_transfer(0, 2, 50.0, f.recorder());
  net.start_transfer(1, 2, 100.0, f.recorder());
  f.engine.run();
  ASSERT_EQ(f.done_times.size(), 2u);
  EXPECT_NEAR(f.done_times[0], 1.0, 1e-9);
  // After t=1 the remaining transfer gets the full 100 B/s:
  // 50 B left at t=1 -> finishes at 1.5.
  EXPECT_NEAR(f.done_times[1], 1.5, 1e-9);
}

TEST(FlowNetwork, MaxMinFairnessGivesUnbottleneckedFlowTheRest) {
  Fixture f;
  // Node 0 out: 100; node 1 in: 30.  Flow A 0->1 limited to 30; flow B
  // 0->2 gets the remaining 70.
  FlowNetwork net(f.engine, {100.0, 100.0, 100.0}, {100.0, 30.0, 100.0});
  TransferId a = net.start_transfer(0, 1, 30.0, f.recorder());
  TransferId b = net.start_transfer(0, 2, 70.0, f.recorder());
  EXPECT_NEAR(net.current_rate(a), 30.0, 1e-9);
  EXPECT_NEAR(net.current_rate(b), 70.0, 1e-9);
  f.engine.run();
  ASSERT_EQ(f.done_times.size(), 2u);
  EXPECT_NEAR(f.done_times[0], 1.0, 1e-9);
  EXPECT_NEAR(f.done_times[1], 1.0, 1e-9);
}

TEST(FlowNetwork, InfinitePortsCompleteImmediately) {
  Fixture f;
  FlowNetwork net(f.engine, {kInf, kInf}, {kInf, kInf});
  net.start_transfer(0, 1, 1e9, f.recorder());
  f.engine.run();
  ASSERT_EQ(f.done_times.size(), 1u);
  EXPECT_DOUBLE_EQ(f.done_times[0], 0.0);
}

TEST(FlowNetwork, MemoryStyleNodeOnlyConstrainedByPeSide) {
  Fixture f;
  // Node 1 is "memory" (infinite); node 0 has 10 B/s ports.
  FlowNetwork net(f.engine, {10.0, kInf}, {10.0, kInf});
  net.start_transfer(0, 1, 20.0, f.recorder());
  f.engine.run();
  EXPECT_NEAR(f.done_times.at(0), 2.0, 1e-9);
}

TEST(FlowNetwork, ZeroByteTransferCompletesAsynchronouslyAtNow) {
  Fixture f;
  FlowNetwork net(f.engine, {10.0, 10.0}, {10.0, 10.0});
  bool done = false;
  net.start_transfer(0, 1, 0.0, [&] { done = true; });
  EXPECT_FALSE(done);  // not synchronous
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(f.engine.now(), 0.0);
}

TEST(FlowNetwork, RatesRecomputeWhenTransfersJoin) {
  Fixture f;
  FlowNetwork net(f.engine, {100.0, 100.0, 100.0}, {100.0, 100.0, 100.0});
  net.start_transfer(0, 1, 100.0, f.recorder());  // alone: 1s
  f.engine.schedule_at(0.5, [&] {
    // Joins halfway: both now at 50 B/s.
    net.start_transfer(0, 2, 25.0, f.recorder());
  });
  f.engine.run();
  ASSERT_EQ(f.done_times.size(), 2u);
  // First transfer: 50 B by 0.5s, then 50 B/s -> 50 remaining takes 1s,
  // but the second finishes at 0.5 + 0.5 = 1.0 freeing capacity:
  // remaining 25 B at full speed -> 1.25 total.
  EXPECT_NEAR(f.done_times[0], 1.0, 1e-9);   // the 25 B joiner
  EXPECT_NEAR(f.done_times[1], 1.25, 1e-9);  // the 100 B original
}

TEST(FlowNetwork, CompletionCallbackCanStartNewTransfer) {
  Fixture f;
  FlowNetwork net(f.engine, {10.0, 10.0}, {10.0, 10.0});
  double second_done = -1.0;
  net.start_transfer(0, 1, 10.0, [&] {
    net.start_transfer(1, 0, 10.0, [&] { second_done = f.engine.now(); });
  });
  f.engine.run();
  EXPECT_NEAR(second_done, 2.0, 1e-9);
}

TEST(FlowNetwork, ValidatesArguments) {
  Fixture f;
  FlowNetwork net(f.engine, {10.0, 10.0}, {10.0, 10.0});
  EXPECT_THROW(net.start_transfer(0, 0, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_transfer(0, 5, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_transfer(0, 1, -4.0, nullptr), Error);
  EXPECT_THROW(FlowNetwork(f.engine, {10.0}, {10.0, 10.0}), Error);
  EXPECT_THROW(FlowNetwork(f.engine, {0.0}, {10.0}), Error);
}

TEST(FlowNetwork, RefusesMoreThanFourResources) {
  Fixture f;
  FlowNetwork net(f.engine, {10.0, 10.0}, {10.0, 10.0});
  const ResourceId link = net.add_resource(10.0);
  // Out port, two link resources and in port: the most a flow crosses.
  EXPECT_NO_THROW(net.start_transfer_over(
      {net.out_port(0), link, link, net.in_port(1)}, 10.0, nullptr));
  EXPECT_THROW(net.start_transfer_over(
                   {net.out_port(0), link, link, link, net.in_port(1)}, 10.0,
                   nullptr),
               Error);
}

TEST(FlowNetwork, ManyConcurrentTransfersConserveThroughput) {
  Fixture f;
  // 4 nodes, all-to-one: node 3's incoming 90 shared by 3 flows of 30.
  FlowNetwork net(f.engine, {100.0, 100.0, 100.0, 100.0},
                  {100.0, 100.0, 100.0, 90.0});
  for (NodeId s = 0; s < 3; ++s) {
    net.start_transfer(s, 3, 30.0, f.recorder());
  }
  f.engine.run();
  ASSERT_EQ(f.done_times.size(), 3u);
  for (double t : f.done_times) EXPECT_NEAR(t, 1.0, 1e-9);
}

}  // namespace
}  // namespace cellstream::des
