#include "net/simnet.hpp"

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace sp::net {
namespace {

TEST(Network, ZeroJitterIsDeterministicLinear) {
  LinkProfile link{"test", 8.0, 10.0, 5.0, 0.0};  // 8 Mbps -> 1 ms per KB
  Network n(link, crypto::Drbg("x"));
  // 1000 bytes = 8000 bits at 8 Mbps = 1 ms payload + rtt + overhead.
  EXPECT_DOUBLE_EQ(n.transfer_ms(1000), 1.0 + 10.0 + 5.0);
  EXPECT_DOUBLE_EQ(n.transfer_ms(2000), 2.0 + 15.0);
  // Extra round trips charge rtt + overhead again.
  EXPECT_DOUBLE_EQ(n.transfer_ms(1000, 3), 1.0 + 3 * 15.0);
}

TEST(Network, JitterBoundedAndSeeded) {
  LinkProfile link{"test", 8.0, 10.0, 5.0, 0.2};
  Network a(link, crypto::Drbg("seed")), b(link, crypto::Drbg("seed"));
  for (int i = 0; i < 50; ++i) {
    const double base = 1.0 + 15.0;
    const double da = a.transfer_ms(1000);
    EXPECT_GE(da, base);
    EXPECT_LT(da, base * 1.2 + 1e-9);
    EXPECT_DOUBLE_EQ(da, b.transfer_ms(1000));  // same seed, same jitter
  }
}

TEST(Network, LargerPayloadsCostMore) {
  Network n(wlan_80211n_to_ec2(), crypto::Drbg("x"));
  // 600 KB (the paper's I2 upload) vs 2 KB (a C1 puzzle): payload time must
  // dominate the fixed RTT+overhead by a clear margin even with jitter.
  EXPECT_GT(n.transfer_ms(600 * 1024), 2 * n.transfer_ms(2 * 1024));
}

TEST(Network, RejectsZeroRoundTrips) {
  Network n(loopback(), crypto::Drbg("x"));
  EXPECT_THROW(n.transfer_ms(10, 0), std::invalid_argument);
}

TEST(DeviceProfiles, TabletSlowerThanPc) {
  EXPECT_EQ(pc_profile().cpu_scale, 1.0);
  EXPECT_GT(tablet_profile().cpu_scale, 1.0);
}

TEST(CostLedger, DecomposesAndScales) {
  CostLedger pc(pc_profile());
  pc.add_local_measured(10.0);
  pc.add_network(5.0);
  pc.add_bytes(123);
  EXPECT_DOUBLE_EQ(pc.local_ms(), 10.0);
  EXPECT_DOUBLE_EQ(pc.network_ms(), 5.0);
  EXPECT_DOUBLE_EQ(pc.total_ms(), 15.0);
  EXPECT_EQ(pc.bytes_transferred(), 123u);

  CostLedger tablet(tablet_profile());
  tablet.add_local_measured(10.0);
  EXPECT_DOUBLE_EQ(tablet.local_ms(), 10.0 * tablet_profile().cpu_scale);
}

TEST(Network, MetricsCountTransfersBytesAndDelay) {
  // Process-wide link instruments (PR 4): assert deltas around two modeled
  // exchanges.
  auto& reg = sp::obs::MetricsRegistry::global();
  auto& transfers = reg.counter("net_transfers_total");
  auto& bytes = reg.counter("net_bytes_total");
  auto& delay = reg.histogram("net_transfer_ms");
  const auto transfers0 = transfers.value();
  const auto bytes0 = bytes.value();
  const auto delay0 = delay.count();

  Network n(wlan_80211n_to_ec2(), crypto::Drbg("metrics"));
  const double a = n.transfer_ms(1000);
  const double b = n.transfer_ms(2500, 2);
  EXPECT_EQ(transfers.value(), transfers0 + 2);
  EXPECT_EQ(bytes.value(), bytes0 + 3500);
  EXPECT_EQ(delay.count(), delay0 + 2);
  EXPECT_GE(delay.sum_ms(), 0.9 * (a + b));  // fixed-point µs rounding slack
}

}  // namespace
}  // namespace sp::net
