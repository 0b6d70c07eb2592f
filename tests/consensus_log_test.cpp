// Replicated-log tests: entry encoding, writer/reader round trips, batch
// appends, ring-wrap behaviour (the offset-0 rule), torn-entry
// invisibility on every lap, and the progress record used for leader
// recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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
  EXPECT_GE(entry_footprint(0), kEntryFramingBytes + 1u);
  EXPECT_EQ(entry_footprint(3), 24u);   // 20 + 3 + 1 = 24
  EXPECT_EQ(entry_footprint(4), 32u);   // 20 + 4 + 1 = 25 -> 32
  EXPECT_EQ(entry_footprint(64), 88u);
}

TEST(EntryCodec, EncodePlacesMarkerLast) {
  const Bytes e = encode_entry(7, 3, to_bytes("abc"));
  EXPECT_EQ(e.size(), entry_footprint(3));
  EXPECT_EQ(e[kEntryFramingBytes + 3], kEntryMarker);
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
  std::copy(entry.begin(), entry.end() - entry.size() + kEntryFramingBytes + 7,
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

TEST_F(LogFixture, ReaderFollowsEveryWrapToOffsetZero) {
  reset(1024);  // tiny log to force wrapping
  u64 seq = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(append_one(*writer, ++seq, Bytes(100, static_cast<u8>(i))).is_ok());
    reader->poll();
  }
  EXPECT_EQ(delivered.size(), 30u);
  for (u64 i = 0; i < delivered.size(); ++i) EXPECT_EQ(delivered[i].seq, i + 1);
  EXPECT_EQ(reader->cursor(), writer->cursor());
}

TEST_F(LogFixture, AppendThatDoesNotFitStartsAtOffsetZero) {
  reset(1024);
  // 136-byte entries: seven fill 952 bytes, and the eighth does not fit in
  // the 72 that are left.
  for (u64 seq = 1; seq <= 7; ++seq) {
    ASSERT_EQ(append_one(*writer, seq, Bytes(108, 1)).value().offset, (seq - 1) * 136);
  }
  EXPECT_EQ(append_one(*writer, 8, Bytes(108, 1)).value().offset, 0u);
  EXPECT_EQ(writer->cursor(), 136u);
}

TEST_F(LogFixture, ReaderPastTheLastEntryLooksAtOffsetZero) {
  // The reader waits at 952, where the bytes of an unwritten tail read as
  // an empty entry with seq 0. Seq 8 landed at 0 meanwhile, and seq 9
  // after it: both are delivered in one poll.
  reset(1024);
  for (u64 seq = 1; seq <= 7; ++seq) std::ignore = append_one(*writer, seq, Bytes(108, 1));
  EXPECT_EQ(reader->poll(), 7u);
  EXPECT_EQ(reader->cursor(), 952u);
  std::ignore = append_one(*writer, 8, Bytes(108, 8));
  std::ignore = append_one(*writer, 9, Bytes(108, 9));
  EXPECT_EQ(reader->poll(), 2u);
  EXPECT_EQ(delivered.back().seq, 9u);
  EXPECT_EQ(delivered.back().payload, Bytes(108, 9));
  EXPECT_EQ(reader->cursor(), 272u);
}

TEST_F(LogFixture, ReaderWithNoRoomForAHeaderLooksAtOffsetZero) {
  // Three 128-byte entries fill a 387-byte log up to 3 bytes before its
  // end, too few for the next entry's length field.
  reset(387);
  for (u64 seq = 1; seq <= 3; ++seq) std::ignore = append_one(*writer, seq, Bytes(100, 1));
  EXPECT_EQ(reader->poll(), 3u);
  EXPECT_EQ(reader->cursor(), 384u);
  EXPECT_EQ(reader->poll(), 0u) << "offset 0 holds seq 1, which is not awaited";
  std::ignore = append_one(*writer, 4, Bytes(100, 4));
  EXPECT_EQ(reader->poll(), 1u);
  EXPECT_EQ(delivered.back().seq, 4u);
  EXPECT_EQ(reader->cursor(), 128u);
}

TEST_F(LogFixture, ReaderWaitsAtOffsetZeroForAnEntryStillLanding) {
  reset(387);
  for (u64 seq = 1; seq <= 3; ++seq) std::ignore = append_one(*writer, seq, Bytes(100, 1));
  EXPECT_EQ(reader->poll(), 3u);
  // Seq 4 lands at offset 0 in two parts: the trailer comes last.
  const Bytes entry = encode_entry(4, 1, Bytes(100, 4));
  std::memcpy(region->bytes(), entry.data(), 64);
  EXPECT_EQ(reader->poll(), 0u);
  std::memcpy(region->bytes() + 64, entry.data() + 64, entry.size() - 64);
  EXPECT_EQ(reader->poll(), 1u);
  EXPECT_EQ(delivered.back().payload, Bytes(100, 4));
}

TEST(LogLap, MultiPacketEntryOnTheSecondLapIsInvisibleUntilItsLastPacket) {
  // A replica's log receives each write as MTU-sized DMA slices in PSN
  // order, and its reader polls after every slice. Entries have one size,
  // so every lap lays them out alike: the second lap's entry at 4024 lands
  // over the first lap's, whose marker sits where the new one will.
  constexpr u64 kLog = 16384;
  constexpr u64 kMtu = 1024;
  constexpr u64 kValue = 4000;  // 4024-byte entries: 4 packets each
  rdma::MemoryManager mm(1);
  auto& leader = mm.register_region(kLog, rdma::kAccessRemoteWrite);
  auto& replica = mm.register_region(kLog, rdma::kAccessRemoteWrite);
  LogWriter writer(leader);
  std::vector<u64> seqs;
  std::vector<bool> whole;
  LogReader reader(replica, [&](const LogEntry& e) {
    seqs.push_back(e.seq);
    whole.push_back(e.payload == Bytes(kValue, static_cast<u8>(e.seq)));
  });
  replica.set_write_hook([&](u64, u64) { reader.poll(); });

  // Lap 1 (seqs 1-4), then the wrap (seq 5 at offset 0), each reach the
  // replica as a copy of the whole leader log.
  for (u64 seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(append_one(writer, seq, Bytes(kValue, static_cast<u8>(seq))).is_ok());
    if (seq >= 4) {
      ASSERT_TRUE(mm.remote_write(replica.rkey(), replica.vaddr(), leader.span()).is_ok());
    }
  }
  ASSERT_EQ(seqs, (std::vector<u64>{1, 2, 3, 4, 5}));

  auto append = append_one(writer, 6, Bytes(kValue, 6));
  ASSERT_TRUE(append.is_ok());
  const u64 offset = append.value().offset;
  ASSERT_EQ(offset, 4024u);
  const BytesView entry = append.value().entry.view();
  for (u64 at = 0; at < entry.size(); at += kMtu) {
    const u64 len = std::min(kMtu, entry.size() - at);
    ASSERT_TRUE(
        mm.remote_write(replica.rkey(), replica.vaddr() + offset + at, entry.subspan(at, len))
            .is_ok());
    if (at + len < entry.size()) {
      EXPECT_EQ(seqs.size(), 5u) << "seq 6 delivered with " << at + len << " of "
                                 << entry.size() << " bytes landed";
    }
  }
  EXPECT_EQ(seqs, (std::vector<u64>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(whole, std::vector<bool>(seqs.size(), true));
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
