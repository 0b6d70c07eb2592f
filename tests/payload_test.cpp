// Zero-copy payload contract: PayloadRef ownership/slicing semantics (what
// shares a buffer is told by its data() address), and the end-to-end
// aliasing guarantee that mutating a source buffer after post_write cannot
// alter in-flight packets.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/payload.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"

namespace p4ce::net {
namespace {

Bytes pattern(std::size_t n, u8 seed = 0) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<u8>(seed + i);
  return out;
}

TEST(PayloadRef, TakesOwnershipWithoutCopying) {
  Bytes src = pattern(4096);
  const u8* raw = src.data();
  PayloadRef ref(std::move(src));
  EXPECT_EQ(ref.size(), 4096u);
  EXPECT_EQ(ref.data(), raw);  // same allocation, not a copy
}

TEST(PayloadRef, FilledWritesOneFreshBuffer) {
  const u8* filled_at = nullptr;
  const PayloadRef p = PayloadRef::filled(100, [&](u8* data) {
    filled_at = data;
    for (u8 i = 0; i < 100; ++i) data[i] = i;
  });
  EXPECT_EQ(p.data(), filled_at);  // the buffer `fill` wrote, not a copy of it
  EXPECT_EQ(p.size(), 100u);
  EXPECT_EQ(p, PayloadRef(pattern(100)));
  EXPECT_EQ(p.use_count(), 1);
  EXPECT_TRUE(PayloadRef::filled(0, [](u8*) { FAIL() << "nothing to fill"; }).empty());
}

TEST(PayloadRef, SlicesShareOneBuffer) {
  PayloadRef whole(pattern(2048));
  PayloadRef a = whole.slice(0, 1024);
  PayloadRef b = whole.slice(1024, 1024);
  EXPECT_EQ(whole.use_count(), 3);
  EXPECT_EQ(a.data(), whole.data());
  EXPECT_EQ(b.data(), whole.data() + 1024);
  EXPECT_EQ(b.view()[0], whole.view()[1024]);
}

TEST(PayloadRef, SliceOfSliceAndClamping) {
  PayloadRef whole(pattern(100));
  PayloadRef mid = whole.slice(10, 50);
  PayloadRef tail = mid.slice(40, 999);  // clamped to mid's view
  EXPECT_EQ(tail.size(), 10u);
  EXPECT_EQ(tail.view()[0], whole.view()[50]);
  EXPECT_TRUE(mid.slice(60, 10).empty());  // offset past the end
}

TEST(PayloadRef, CarbonCopiesShareWithoutCopying) {
  Packet p;
  p.payload = pattern(1024, 7);
  Packet replica = p;  // the switch replication engine does exactly this
  EXPECT_EQ(replica.payload.data(), p.payload.data());
  EXPECT_EQ(p.payload.use_count(), 2);
  EXPECT_EQ(replica.payload, p.payload);
}

TEST(PayloadRef, MaterializationMakesFreshBuffers) {
  PayloadRef ref(pattern(512, 3));
  Bytes owned = ref.to_bytes();
  EXPECT_NE(owned.data(), ref.data());
  EXPECT_EQ(owned, pattern(512, 3));

  Bytes dst(256, 0);
  EXPECT_EQ(ref.copy_to(std::span<u8>(dst)), 256u);
  EXPECT_EQ(dst[5], pattern(512, 3)[5]);

  PayloadRef dup = PayloadRef::copy_of(ref.view());
  EXPECT_NE(dup.data(), ref.data());
  EXPECT_EQ(dup, ref);
  EXPECT_EQ(ref.use_count(), 1);  // nothing above shares `ref`'s buffer
}

TEST(PayloadRef, EqualityIsByteWiseAcrossOffsets) {
  PayloadRef whole(pattern(64));
  PayloadRef via_slice = whole.slice(16, 16);
  PayloadRef via_copy = PayloadRef::copy_of(whole.view().subspan(16, 16));
  EXPECT_EQ(via_slice, via_copy);
  EXPECT_FALSE(via_slice == whole);
}

TEST(PayloadRef, BufferOutlivesSourceHandle) {
  PayloadRef tail;
  {
    PayloadRef whole(pattern(1000, 9));
    tail = whole.slice(900, 100);
  }  // `whole` gone; the shared buffer must survive through `tail`
  EXPECT_EQ(tail.size(), 100u);
  EXPECT_EQ(tail.view()[0], static_cast<u8>(9 + 900));
  EXPECT_EQ(tail.use_count(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end aliasing guarantee over the RDMA transport
// ---------------------------------------------------------------------------

struct AliasFixture : ::testing::Test {
  sim::Simulator sim;
  rdma::MemoryManager mem_a{1}, mem_b{2};
  Link link{sim, 100.0, 150};
  std::unique_ptr<rdma::Nic> nic_a, nic_b;
  rdma::CompletionQueue cq_a, cq_b;
  rdma::QueuePair* qp_a = nullptr;
  rdma::QueuePair* qp_b = nullptr;
  rdma::MemoryRegion* region_b = nullptr;

  void SetUp() override {
    nic_a = std::make_unique<rdma::Nic>(sim, "a", make_ip(0, 1), 0xA, mem_a);
    nic_b = std::make_unique<rdma::Nic>(sim, "b", make_ip(0, 2), 0xB, mem_b);
    link.attach(nic_a.get(), nic_b.get());
    nic_a->attach_link(&link, 0);
    nic_b->attach_link(&link, 1);
    qp_a = &nic_a->create_qp(cq_a, rdma::QpConfig{});
    qp_b = &nic_b->create_qp(cq_b, rdma::QpConfig{});
    qp_a->connect(nic_b->ip(), qp_b->qpn(), 100, 500);
    qp_b->connect(nic_a->ip(), qp_a->qpn(), 500, 100);
    region_b = &mem_b.register_region(1 << 20, rdma::kAccessRemoteRead | rdma::kAccessRemoteWrite);
  }
};

TEST_F(AliasFixture, MutatingSourceAfterPostWriteDoesNotAlterInFlightPackets) {
  const Bytes original = pattern(5000, 1);
  Bytes source = original;
  // post_write takes the buffer by value: the transport owns an immutable
  // snapshot from this point on.
  ASSERT_TRUE(qp_a->post_write(1, Bytes(source), region_b->vaddr(), region_b->rkey()).is_ok());
  // Scribble over the caller's buffer while 5 packets are still in flight.
  for (auto& b : source) b = 0xee;
  sim.run();
  EXPECT_EQ(Bytes(region_b->bytes(), region_b->bytes() + 5000), original);
}

/// Sits on the wire in front of a NIC: records where each packet's payload
/// lives, then hands the packet on.
struct RecordingSink : PacketSink {
  PacketSink* next = nullptr;
  std::vector<BytesView> payloads;
  void deliver(Packet&& packet) override {
    if (!packet.payload.empty()) payloads.push_back(packet.payload.view());
    next->deliver(std::move(packet));
  }
};

TEST_F(AliasFixture, MultiPacketWriteSharesOneBufferAcrossSegments) {
  RecordingSink wire;
  wire.next = nic_b.get();
  link.attach(nic_a.get(), &wire);
  const PayloadRef posted(pattern(8192, 4));
  ASSERT_TRUE(qp_a->post_write(2, posted, region_b->vaddr(), region_b->rkey()).is_ok());
  sim.run();
  EXPECT_EQ(Bytes(region_b->bytes(), region_b->bytes() + 8192), pattern(8192, 4));
  // Every segment on the wire is a slice of the posted buffer, in order:
  // nothing on the send path materializes a copy.
  ASSERT_GT(wire.payloads.size(), 1u);
  const u8* next = posted.begin();
  for (const BytesView segment : wire.payloads) {
    EXPECT_EQ(segment.data(), next);
    next = segment.data() + segment.size();
  }
  EXPECT_EQ(next, posted.end());
}

TEST_F(AliasFixture, PayloadRefPostWriteSendsSlicesOfCallerBuffer) {
  PayloadRef whole(pattern(3000, 5));
  ASSERT_TRUE(qp_a->post_write(3, whole.slice(1000, 1500), region_b->vaddr() + 16,
                               region_b->rkey())
                  .is_ok());
  sim.run();
  EXPECT_EQ(Bytes(region_b->bytes() + 16, region_b->bytes() + 16 + 1500),
            Bytes(whole.begin() + 1000, whole.begin() + 2500));
}

}  // namespace
}  // namespace p4ce::net
