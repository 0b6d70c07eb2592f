// Replicated-log tests: entry encoding, writer/reader round trips, batch
// appends, ring-wrap behaviour, torn-entry invisibility, and the progress
// record used for leader recovery.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "consensus/log.hpp"
#include "rdma/memory.hpp"

namespace p4ce::consensus {
namespace {

/// Append a single value at `seq` in term 1.
StatusOr<LogWriter::Append> append_one(LogWriter& writer, u64 seq, const Bytes& value) {
  return writer.append(seq, 1, {&value, 1});
}

struct LogFixture : ::testing::Test {
  rdma::MemoryManager mm{1};
  rdma::MemoryRegion* region = nullptr;
  std::vector<LogEntry> delivered;
  std::unique_ptr<LogWriter> writer;
  std::unique_ptr<LogReader> reader;

  void SetUp() override { reset(1 << 16); }

  void reset(u64 size) {
    delivered.clear();
    region = &mm.register_region(size, rdma::kAccessRemoteRead | rdma::kAccessRemoteWrite);
    writer = std::make_unique<LogWriter>(*region);
    reader = std::make_unique<LogReader>(*region,
                                         [this](const LogEntry& e) { delivered.push_back(e); });
  }
};

TEST(EntryCodec, FootprintIsAlignedAndMinimal) {
  EXPECT_EQ(entry_footprint(0) % 8, 0u);
  EXPECT_GE(entry_footprint(0), kEntryHeaderBytes + 1u);
  EXPECT_EQ(entry_footprint(3), 24u);   // 20 + 3 + 1 = 24
  EXPECT_EQ(entry_footprint(4), 32u);   // 20 + 4 + 1 = 25 -> 32
  EXPECT_EQ(entry_footprint(64), 88u);
}

TEST(EntryCodec, EncodePlacesMarkerLast) {
  const Bytes e = encode_entry(7, 3, to_bytes("abc"));
  EXPECT_EQ(e.size(), entry_footprint(3));
  EXPECT_EQ(e[kEntryHeaderBytes + 3], kEntryMarker);
}

TEST_F(LogFixture, WriteThenReadDeliversInOrder) {
  for (u64 seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(append_one(*writer, seq, to_bytes("v" + std::to_string(seq))).is_ok());
  }
  EXPECT_EQ(reader->poll(), 5u);
  ASSERT_EQ(delivered.size(), 5u);
  for (u64 i = 0; i < 5; ++i) {
    EXPECT_EQ(delivered[i].seq, i + 1);
    EXPECT_EQ(delivered[i].term, 1u);
    EXPECT_EQ(delivered[i].payload, to_bytes("v" + std::to_string(i + 1)));
  }
  EXPECT_EQ(reader->last_seq(), 5u);
  EXPECT_EQ(reader->cursor(), writer->cursor());
}

TEST_F(LogFixture, PollIsIncrementalAndIdempotent) {
  std::ignore = append_one(*writer, 1, to_bytes("a"));
  EXPECT_EQ(reader->poll(), 1u);
  EXPECT_EQ(reader->poll(), 0u);  // nothing new
  std::ignore = append_one(*writer, 2, to_bytes("b"));
  EXPECT_EQ(reader->poll(), 1u);
  EXPECT_EQ(delivered.size(), 2u);
}

TEST_F(LogFixture, EachDeliverySeesItsOwnBytesAsPayloadsShrinkAndGrow) {
  // The reader decodes every entry into one reused LogEntry: a short
  // payload after a long one must not show the long one's tail, and a long
  // one after a short one must come out whole.
  const std::vector<std::size_t> sizes = {300, 5, 0, 64, 700, 1, 300, 0, 2};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_TRUE(append_one(*writer, i + 1, Bytes(sizes[i], static_cast<u8>(i + 1))).is_ok());
  }
  std::vector<bool> own_bytes;
  LogReader checking(*region, [&](const LogEntry& e) {
    own_bytes.push_back(e.payload == Bytes(sizes[e.seq - 1], static_cast<u8>(e.seq)));
  });
  EXPECT_EQ(checking.poll(), sizes.size());
  EXPECT_EQ(own_bytes, std::vector<bool>(sizes.size(), true));
}

TEST_F(LogFixture, TornEntryInvisibleUntilMarkerLands) {
  // Simulate a partially-arrived entry: copy all bytes except the marker.
  const Bytes entry = encode_entry(1, 1, to_bytes("partial"));
  std::copy(entry.begin(), entry.end() - entry.size() + kEntryHeaderBytes + 7,
            region->bytes());
  EXPECT_EQ(reader->poll(), 0u);
  // Marker arrives -> entry becomes visible.
  std::memcpy(region->bytes(), entry.data(), entry.size());
  EXPECT_EQ(reader->poll(), 1u);
}

TEST_F(LogFixture, BatchAppendIsContiguousAndSequential) {
  std::vector<Bytes> values = {to_bytes("one"), to_bytes("two"), to_bytes("three")};
  auto append = writer->append(1, 4, values);
  ASSERT_TRUE(append.is_ok());
  EXPECT_EQ(append.value().offset, 0u);
  u64 expected = 0;
  for (const auto& v : values) expected += entry_footprint(v.size());
  EXPECT_EQ(append.value().entry.size(), expected);
  EXPECT_EQ(reader->poll(), 3u);
  EXPECT_EQ(delivered[2].seq, 3u);
  EXPECT_EQ(delivered[2].term, 4u);
}

TEST_F(LogFixture, WrapMarkerSendsReaderBackToZero) {
  reset(1024);  // tiny log to force wrapping
  u64 seq = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(append_one(*writer, ++seq, Bytes(100, static_cast<u8>(i))).is_ok());
    reader->poll();
  }
  EXPECT_EQ(delivered.size(), 30u);
  for (u64 i = 0; i < delivered.size(); ++i) EXPECT_EQ(delivered[i].seq, i + 1);
}

TEST_F(LogFixture, EntryLargerThanLogRejected) {
  reset(256);
  const auto result = append_one(*writer, 1, Bytes(500, 1));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(LogFixture, OversizePayloadRejected) {
  const auto result = append_one(*writer, 1, Bytes(kMaxEntryPayload + 1, 1));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LogFixture, RemoteDmaFeedsReaderViaHook) {
  // The replica path: entry bytes arrive via remote_write (the NIC's DMA)
  // and the write hook drives consumption.
  int polls = 0;
  region->set_write_hook([&](u64, u64) { polls += static_cast<int>(reader->poll()); });
  const Bytes entry = encode_entry(1, 1, to_bytes("dma"));
  ASSERT_TRUE(mm.remote_write(region->rkey(), region->vaddr(), entry).is_ok());
  EXPECT_EQ(polls, 1);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, to_bytes("dma"));
}

TEST_F(LogFixture, StaleBytesFromPreviousLapNotRedelivered) {
  reset(2048);
  // Fill one lap.
  u64 seq = 0;
  for (int i = 0; i < 10; ++i) {
    std::ignore = append_one(*writer, ++seq, Bytes(150, 1));
    reader->poll();
  }
  // After wrapping, the reader must not resurrect stale entries whose seq
  // does not continue the sequence.
  const u64 count_before = delivered.size();
  EXPECT_EQ(reader->poll(), 0u);
  EXPECT_EQ(delivered.size(), count_before);
}

TEST(Progress, StoreLoadRoundTrip) {
  rdma::MemoryManager mm(1);
  auto& region = mm.register_region(Progress::kWireSize, rdma::kAccessRemoteRead);
  Progress p{.last_seq = 42, .last_term = 7, .tail_offset = 4096};
  p.store(region);
  const Progress q = Progress::load(region);
  EXPECT_EQ(q.last_seq, 42u);
  EXPECT_EQ(q.last_term, 7u);
  EXPECT_EQ(q.tail_offset, 4096u);
  const Progress r = Progress::parse(BytesView(region.bytes(), Progress::kWireSize));
  EXPECT_EQ(r.last_seq, 42u);
}

TEST(Progress, ParseShortBufferYieldsZeroes) {
  const Bytes short_buf(8, 0xff);
  const Progress p = Progress::parse(short_buf);
  EXPECT_EQ(p.last_seq, 0u);
}

class RandomLogPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(RandomLogPropertyTest, EveryAppendDeliveredExactlyOnceInOrder) {
  Rng rng(GetParam());
  rdma::MemoryManager mm(GetParam());
  auto& region = mm.register_region(1 << 16, rdma::kAccessRemoteWrite);
  LogWriter writer(region);
  u64 next_expected = 1;
  u64 delivered_count = 0;
  LogReader reader(region, [&](const LogEntry& e) {
    EXPECT_EQ(e.seq, next_expected);
    ++next_expected;
    ++delivered_count;
  });
  // Invariant under test matches the system's operating envelope: the
  // writer never laps the reader (in the protocol the in-flight window and
  // commit gating bound the reader's lag far below the log size).
  u64 seq = 0;
  u64 unpolled_bytes = 0;
  for (int round = 0; round < 500; ++round) {
    const int burst = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < burst; ++i) {
      Bytes payload(rng.next_below(900), static_cast<u8>(seq));
      unpolled_bytes += entry_footprint(payload.size());
      ASSERT_TRUE(append_one(writer, ++seq, payload).is_ok());
    }
    if (rng.next_bool(0.7) || unpolled_bytes > (1 << 14)) {
      reader.poll();
      unpolled_bytes = 0;
    }
  }
  reader.poll();
  EXPECT_EQ(delivered_count, seq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLogPropertyTest, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace p4ce::consensus
