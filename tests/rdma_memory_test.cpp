// Memory-registration semantics: R_keys, permissions, bounds, hooks —
// the enforcement layer the whole protocol's safety rests on.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "rdma/memory.hpp"

namespace p4ce::rdma {
namespace {

TEST(MemoryManager, RegistersDistinctKeysAndAddresses) {
  MemoryManager mm(1);
  auto& a = mm.register_region(4096, kAccessRemoteRead);
  auto& b = mm.register_region(4096, kAccessRemoteRead);
  EXPECT_NE(a.rkey(), b.rkey());
  EXPECT_NE(a.vaddr(), b.vaddr());
  // Regions never overlap or touch.
  EXPECT_GE(b.vaddr(), a.vaddr() + a.length());
  EXPECT_EQ(mm.region_count(), 2u);
}

TEST(MemoryManager, KeysAreSeedDeterministicButHostDistinct) {
  MemoryManager m1(7), m2(7), m3(8);
  EXPECT_EQ(m1.register_region(64, 0).rkey(), m2.register_region(64, 0).rkey());
  EXPECT_NE(m1.register_region(64, 0).rkey(), m3.register_region(64, 0).rkey());
}

TEST(MemoryManager, InvalidRkeyIsPermissionDenied) {
  MemoryManager mm(1);
  mm.register_region(64, kAccessRemoteWrite);
  const Bytes data = {1, 2, 3};
  const Status st = mm.remote_write(0xdeadbeef, 0, data);
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied);
}

TEST(MemoryRegion, WriteRequiresRemoteWriteAccess) {
  MemoryManager mm(1);
  auto& region = mm.register_region(64, kAccessRemoteRead);
  const Bytes data = {1};
  EXPECT_EQ(mm.remote_write(region.rkey(), region.vaddr(), data).code(),
            StatusCode::kPermissionDenied);
  region.set_access(kAccessRemoteRead | kAccessRemoteWrite);
  EXPECT_TRUE(mm.remote_write(region.rkey(), region.vaddr(), data).is_ok());
}

TEST(MemoryRegion, ReadRequiresRemoteReadAccess) {
  MemoryManager mm(1);
  auto& region = mm.register_region(64, kAccessRemoteWrite);
  EXPECT_EQ(mm.remote_read(region.rkey(), region.vaddr(), 8).status().code(),
            StatusCode::kPermissionDenied);
  region.set_access(kAccessRemoteRead);
  EXPECT_TRUE(mm.remote_read(region.rkey(), region.vaddr(), 8).is_ok());
}

TEST(MemoryRegion, BoundsAreEnforced) {
  MemoryManager mm(1);
  auto& region = mm.register_region(64, kAccessRemoteRead | kAccessRemoteWrite);
  const u64 base = region.vaddr();
  const Bytes data(32, 0xff);

  EXPECT_TRUE(mm.remote_write(region.rkey(), base + 32, data).is_ok());
  EXPECT_EQ(mm.remote_write(region.rkey(), base + 33, data).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(mm.remote_write(region.rkey(), base - 1, data).code(),
            StatusCode::kPermissionDenied);
  EXPECT_FALSE(mm.remote_read(region.rkey(), base + 60, 8).is_ok());
}

TEST(MemoryRegion, OverflowingRangeRejected) {
  MemoryManager mm(1);
  auto& region = mm.register_region(64, kAccessRemoteRead);
  // vaddr + len wraps around u64: must not be accepted.
  EXPECT_FALSE(region.contains(~0ull - 4, 16));
}

TEST(MemoryRegion, DataRoundTrips) {
  MemoryManager mm(1);
  auto& region = mm.register_region(128, kAccessRemoteRead | kAccessRemoteWrite);
  const Bytes data = to_bytes("consensus at line speed");
  ASSERT_TRUE(mm.remote_write(region.rkey(), region.vaddr() + 10, data).is_ok());
  auto back = mm.remote_read(region.rkey(), region.vaddr() + 10, data.size());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().to_bytes(), data);
}

TEST(MemoryRegion, WriteHookReportsOffsetAndLength) {
  MemoryManager mm(1);
  auto& region = mm.register_region(128, kAccessRemoteWrite);
  u64 hook_offset = ~0ull, hook_len = 0;
  int fires = 0;
  region.set_write_hook([&](u64 offset, u64 len) {
    hook_offset = offset;
    hook_len = len;
    ++fires;
  });
  const Bytes data(16, 1);
  ASSERT_TRUE(mm.remote_write(region.rkey(), region.vaddr() + 24, data).is_ok());
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(hook_offset, 24u);
  EXPECT_EQ(hook_len, 16u);
  // Failed writes never fire the hook.
  std::ignore = mm.remote_write(region.rkey(), region.vaddr() + 125, data);
  EXPECT_EQ(fires, 1);
}

TEST(MemoryManager, DeregisterInvalidatesKey) {
  MemoryManager mm(1);
  auto& region = mm.register_region(64, kAccessRemoteWrite);
  const RKey rkey = region.rkey();
  EXPECT_TRUE(mm.deregister(rkey).is_ok());
  EXPECT_EQ(mm.deregister(rkey).code(), StatusCode::kNotFound);
  const Bytes data = {1};
  EXPECT_EQ(mm.remote_write(rkey, 0, data).code(), StatusCode::kPermissionDenied);
}

// The process's resident set, from /proc/self/status (0 if unreadable).
u64 resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  return 0;
}

TEST(MemoryRegion, LargeRegionCostsOnlyTouchedPages) {
  constexpr u64 kMiB = u64{1} << 20;
  constexpr u64 kLength = 1024 * kMiB;
  MemoryManager mm(1);
  const u64 before = resident_bytes();
  ASSERT_GT(before, 0u);

  auto& region = mm.register_region(kLength, kAccessRemoteRead | kAccessRemoteWrite);
  const RKey rkey = region.rkey();
  EXPECT_LT(resident_bytes(), before + 16 * kMiB);

  for (const u64 offset : {u64{0}, kLength / 2, kLength - 1}) {
    EXPECT_EQ(region.bytes()[offset], 0) << "offset=" << offset;
  }
  const Bytes word = {1, 2, 3, 4, 5, 6, 7, 8};
  const u64 last = region.vaddr() + kLength - word.size();
  ASSERT_TRUE(mm.remote_write(rkey, last, word).is_ok());
  auto back = mm.remote_read(rkey, last, word.size());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().to_bytes(), word);
  EXPECT_LT(resident_bytes(), before + 16 * kMiB);

  // Pages that are written do become resident, and deregistering the
  // region gives them back.
  std::memset(region.bytes() + kLength / 4, 0xab, 8 * kMiB);
  const u64 filled = resident_bytes();
  EXPECT_GE(filled, before + 8 * kMiB);
  ASSERT_TRUE(mm.deregister(rkey).is_ok());
  EXPECT_LE(resident_bytes() + 8 * kMiB, filled);
}

class RandomAccessPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(RandomAccessPropertyTest, AccessGrantedIffInBoundsAndPermitted) {
  Rng rng(GetParam());
  MemoryManager mm(GetParam());
  auto& region = mm.register_region(4096, kAccessRemoteRead | kAccessRemoteWrite);
  for (int i = 0; i < 500; ++i) {
    const u64 offset = rng.next_below(8192);
    const u64 len = 1 + rng.next_below(512);
    const bool in_bounds = offset + len <= 4096;
    const Bytes data(len, 0x5a);
    const Status st = mm.remote_write(region.rkey(), region.vaddr() + offset, data);
    EXPECT_EQ(st.is_ok(), in_bounds) << "offset=" << offset << " len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAccessPropertyTest, ::testing::Values(3, 17, 4242));

}  // namespace
}  // namespace p4ce::rdma
