#include "verify/datapath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <iterator>
#include <span>
#include <tuple>
#include <vector>

#include "verify/synth_kernels_internal.h"

namespace ftms {
namespace {

constexpr size_t kBlockBytes = 512;

TEST(DataPathTest, SynthesisIsDeterministicAndDistinct) {
  const Block a = SynthesizeDataBlock(1, 7, kBlockBytes);
  EXPECT_EQ(a, SynthesizeDataBlock(1, 7, kBlockBytes));
  EXPECT_NE(a, SynthesizeDataBlock(1, 8, kBlockBytes));
  EXPECT_NE(a, SynthesizeDataBlock(2, 7, kBlockBytes));
  EXPECT_EQ(a.size(), kBlockBytes);
}

// 64-bit FNV-1a over a block's bytes: a compact fingerprint for goldens.
uint64_t Fingerprint(const Block& block) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint8_t byte : block) {
    h = (h ^ byte) * 0x100000001b3ull;
  }
  return h;
}

// The ground-truth bytes every parity check compares against, pinned as
// they were produced by the original word-at-a-time SplitMix64 loop. Any
// faster synthesis must reproduce them exactly: lengths cover the empty
// block, sub-word and word-boundary tails, one-off-vector widths and a
// 50 KB track; the keys cover the uint32_t cast of a negative object id,
// INT32_MAX, and a track index that spills into the object's seed bits.
TEST(DataPathTest, SynthesizedBytesMatchGolden) {
  const int kObjects[] = {-1, 0, INT32_MAX};
  const int64_t kTracks[] = {0, 1, int64_t{1} << 40};
  const size_t kLengths[] = {0, 1, 7, 8, 9, 63, 64, 65, 127, 51200};
  // kGolden[object * 3 + track][length], indexed as the arrays above.
  static constexpr uint64_t kGolden[9][10] = {
      {0xcbf29ce484222325ull, 0xaf64664c8602d70aull, 0x225cebde39414c7full,
       0xa531609b49f522e2ull, 0xa809d7deab89f110ull, 0x44b540f15bc1a1faull,
       0x819f0d1eea05c329ull, 0x47069387a7cad358ull, 0x88eca9504cf3ed0eull,
       0xc2c04d4451ae377dull},
      {0xcbf29ce484222325ull, 0xaf64574c8602bd8dull, 0xcdece5dc5e60fbb6ull,
       0x4a85c8745ecad7a9ull, 0x6c2b72bd12acbeefull, 0x8f7382cddf981c48ull,
       0x5963afd2ef784b84ull, 0x5caeeb6ce967b4f8ull, 0x42a1b690112e4158ull,
       0x5cb951052ddcc439ull},
      {0xcbf29ce484222325ull, 0xaf63bd4c8601b7dfull, 0x63bd937cc0b60996ull,
       0x312b55fb7552855bull, 0xdf28d1485b3935f5ull, 0xc6bd045ddef643d4ull,
       0xa971aa81dc74440dull, 0x6068d8a9998fbefaull, 0x5c5ada19185c3669ull,
       0x6d65818b4aef7676ull},
      {0xcbf29ce484222325ull, 0xaf63e24c8601f6beull, 0x433c878b51d41e88ull,
       0x13f880bc0b6f49ddull, 0x5e8c61876e1a1e46ull, 0x881fff2179e406f5ull,
       0x32656ce21e77ba85ull, 0x1a120639c5711166ull, 0x455f5607c0a36635ull,
       0x16103d8a8a007138ull},
      {0xcbf29ce484222325ull, 0xaf63d34c8601dd41ull, 0xe0bacee43c067eb7ull,
       0xe3ec76d1ff09a5ebull, 0x5473ced45d64e938ull, 0xdce2d64e630b273dull,
       0x609935324bf35ccaull, 0x17b177770e857449ull, 0x0098423605b3eeb0ull,
       0x543726960436b0dbull},
      {0xcbf29ce484222325ull, 0xaf64194c86025433ull, 0x18dd3d73e07ac115ull,
       0xbab091e670963392ull, 0xd03bb0914f39f972ull, 0xc4b6b8885dd54ab1ull,
       0x17c658b7716e138bull, 0xd41c7db5be0b8bdaull, 0x3e566699eeb775d4ull,
       0xe1ccc5f69adef94eull},
      {0xcbf29ce484222325ull, 0xaf64484c8602a410ull, 0x3c1e46b0913c0a31ull,
       0x637cee06c9065f70ull, 0x13a7878795d38b96ull, 0x669a9ed0a13f2714ull,
       0x97e35781fe501601ull, 0x6763c5e3221583fcull, 0xa9faf984a26f7f44ull,
       0x6b256c97ee3ffd80ull},
      {0xcbf29ce484222325ull, 0xaf63cd4c8601d30full, 0xd46d84d2392a8fe7ull,
       0x20a8ad372352a934ull, 0xd147b2b10575cabaull, 0xbf70cbbf0d5a58e3ull,
       0xa702dda3b084a578ull, 0x4e83d024f164b5a9ull, 0xd998c07048a29224ull,
       0x217526443c5cc9b5ull},
      {0xcbf29ce484222325ull, 0xaf64134c86024a01ull, 0x05199e72e81e2f6full,
       0xc8b837406b4b85ceull, 0x5c8b897651541ac5ull, 0x5f5b27b559b7b7aaull,
       0xbf9c3727732d37daull, 0xc3a9a708b5d60b1dull, 0x74a1dceb549f96dfull,
       0x3331a8834a0f1abeull},
  };
  for (size_t o = 0; o < std::size(kObjects); ++o) {
    for (size_t t = 0; t < std::size(kTracks); ++t) {
      for (size_t l = 0; l < std::size(kLengths); ++l) {
        EXPECT_EQ(Fingerprint(SynthesizeDataBlock(kObjects[o], kTracks[t],
                                                  kLengths[l])),
                  kGolden[o * 3 + t][l])
            << "object " << kObjects[o] << " track " << kTracks[t]
            << " length " << kLengths[l];
      }
    }
  }
}

// Every synthesis kernel the binary carries and the CPU can run must
// write exactly the scalar stream: every length up to 200 bytes (all
// vector-body / tail splits) plus a 50 KB track, at every destination
// misalignment, with counters that wrap around 2^64 mid-block before
// and after the SplitMix64 gamma is added. Guard bytes around the
// destination catch stores past either end.
TEST(DataPathTest, EverySynthKernelMatchesScalar) {
  const std::span<const internal::SynthKernel> kernels =
      internal::CompiledSynthKernels();
  ASSERT_FALSE(kernels.empty());
  ASSERT_STREQ(kernels.front().name, "scalar");
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 200; ++n) lengths.push_back(n);
  lengths.push_back(51200);
  const uint64_t kCounters[] = {0, 0x0123456789abcdefull,
                                ~uint64_t{0} - 5,
                                uint64_t{0} - internal::kMixGamma - 3};
  constexpr size_t kGuard = 8;
  constexpr uint8_t kFill = 0xA5;
  for (const uint64_t counter : kCounters) {
    for (const size_t length : lengths) {
      std::vector<uint8_t> want(length + kGuard);
      internal::SynthFillScalar(want.data(), counter, length);
      for (const internal::SynthKernel& kernel : kernels) {
        if (!kernel.supported()) continue;
        for (size_t offset = 0; offset < 8; ++offset) {
          std::vector<uint8_t> buf(offset + length + kGuard, kFill);
          kernel.fill(buf.data() + offset, counter, length);
          ASSERT_TRUE(std::equal(want.begin(), want.begin() + length,
                                 buf.begin() + offset))
              << kernel.name << " diverges at length " << length
              << " offset " << offset << " counter " << counter;
          ASSERT_TRUE(std::all_of(buf.begin(), buf.begin() + offset,
                                  [](uint8_t b) { return b == kFill; }) &&
                      std::all_of(buf.begin() + offset + length, buf.end(),
                                  [](uint8_t b) { return b == kFill; }))
              << kernel.name << " writes outside length " << length
              << " offset " << offset;
        }
      }
    }
  }
}

// Dispatch picks the widest kernel the CPU supports.
TEST(DataPathTest, ActiveSynthKernelIsWidestSupported) {
  const internal::SynthKernel* widest = nullptr;
  for (const internal::SynthKernel& kernel :
       internal::CompiledSynthKernels()) {
    if (kernel.supported()) widest = &kernel;
  }
  ASSERT_NE(widest, nullptr);
  EXPECT_STREQ(internal::ActiveSynthKernel().name, widest->name);
}

TEST(DataPathTest, HealthyReadIsDirect) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  const TrackRead read =
      ReadTrackDegraded(*layout, 0, 3, 100, {}, kBlockBytes).value();
  EXPECT_FALSE(read.reconstructed);
  EXPECT_EQ(read.data, SynthesizeDataBlock(0, 3, kBlockBytes));
}

TEST(DataPathTest, DegradedReadReconstructsExactBytes) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  // Disk 2 holds track 2 of object 0's group 0.
  const TrackRead read =
      ReadTrackDegraded(*layout, 0, 2, 100, {2}, kBlockBytes).value();
  EXPECT_TRUE(read.reconstructed);
  EXPECT_EQ(read.data, SynthesizeDataBlock(0, 2, kBlockBytes));
}

TEST(DataPathTest, DoubleFailureInGroupIsUnavailable) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 2, 100, {1, 2}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
  // Data + parity disk of the same cluster: also catastrophic.
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 2, 100, {2, 4}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST(DataPathTest, ShortFinalGroupReconstructs) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  // Object of 6 tracks: final group holds only tracks 4, 5.
  const TrackRead read =
      ReadTrackDegraded(*layout, 0, 5, 6, {6}, kBlockBytes).value();
  EXPECT_TRUE(read.reconstructed);
  EXPECT_EQ(read.data, SynthesizeDataBlock(0, 5, kBlockBytes));
}

// The batched path must be equivalent to N single-track calls: same
// bytes, same reconstructed flags, for a mix of degraded and healthy
// tracks in one batch (the rebuilt disk holds only some of them).
TEST(DataPathTest, BatchedReconstructionMatchesSingleTrackReads) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  const int64_t object_tracks = 26;  // includes a short final group
  const DiskSet failed({2});
  std::vector<int64_t> tracks;
  for (int64_t t = 0; t < object_tracks; ++t) tracks.push_back(t);
  DegradedReadScratch scratch;
  std::vector<TrackRead> batched;
  ASSERT_TRUE(ReconstructTracksInto(*layout, 0, tracks, object_tracks,
                                    failed, kBlockBytes, &scratch,
                                    &batched)
                  .ok());
  ASSERT_EQ(batched.size(), tracks.size());
  int64_t reconstructed = 0;
  for (size_t i = 0; i < tracks.size(); ++i) {
    const TrackRead single =
        ReadTrackDegraded(*layout, 0, tracks[i], object_tracks, failed,
                          kBlockBytes)
            .value();
    EXPECT_EQ(batched[i].reconstructed, single.reconstructed)
        << "track " << tracks[i];
    EXPECT_EQ(batched[i].data, single.data) << "track " << tracks[i];
    if (batched[i].reconstructed) ++reconstructed;
  }
  EXPECT_GT(reconstructed, 0);  // disk 2 holds data of this object
}

TEST(DataPathTest, BatchedReconstructionRejectsDoubleFailure) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  const std::vector<int64_t> tracks = {2};
  DegradedReadScratch scratch;
  std::vector<TrackRead> out;
  EXPECT_EQ(ReconstructTracksInto(*layout, 0, tracks, 100, {1, 2},
                                  kBlockBytes, &scratch, &out)
                .code(),
            StatusCode::kUnavailable);
}

// Dual-parity (P+Q) layouts repair any TWO erasures per group. Cluster 0
// of the C=5 layout: data on disks 0-2, P on 3, Q on 4.
TEST(DataPathTest, DualParityTwoErasuresAreByteExact) {
  auto layout = CreateLayout(Scheme::kStreamingRaid2, 10, 5).value();
  const std::vector<DiskSet> patterns = {
      DiskSet({0, 1}),  // data + data: the full P+Q solve
      DiskSet({1, 3}),  // data + P: Q-only reconstruction
      DiskSet({2, 4}),  // data + Q: falls back to the XOR path
      DiskSet({3, 4}),  // P + Q: data reads stay direct
  };
  for (const DiskSet& failed : patterns) {
    for (int64_t track = 0; track < 3; ++track) {
      const TrackRead read =
          ReadTrackDegraded(*layout, 0, track, 100, failed, kBlockBytes)
              .value();
      EXPECT_EQ(read.data, SynthesizeDataBlock(0, track, kBlockBytes))
          << "track " << track;
    }
  }
}

TEST(DataPathTest, DualParityThreeErasuresAreUnavailable) {
  auto layout = CreateLayout(Scheme::kStreamingRaid2, 10, 5).value();
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 0, 100, {0, 1, 2}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 0, 100, {0, 3, 4}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST(DataPathTest, DualParityBatchedMatchesSingleTrackReads) {
  auto layout = CreateLayout(Scheme::kStreamingRaid2, 10, 5).value();
  const int64_t object_tracks = 20;  // short final group (3-track groups)
  const DiskSet failed({0, 1});
  std::vector<int64_t> tracks;
  for (int64_t t = 0; t < object_tracks; ++t) tracks.push_back(t);
  DegradedReadScratch scratch;
  std::vector<TrackRead> batched;
  ASSERT_TRUE(ReconstructTracksInto(*layout, 0, tracks, object_tracks,
                                    failed, kBlockBytes, &scratch,
                                    &batched)
                  .ok());
  ASSERT_EQ(batched.size(), tracks.size());
  int64_t reconstructed = 0;
  for (size_t i = 0; i < tracks.size(); ++i) {
    const TrackRead single =
        ReadTrackDegraded(*layout, 0, tracks[i], object_tracks, failed,
                          kBlockBytes)
            .value();
    EXPECT_EQ(batched[i].data, single.data) << "track " << tracks[i];
    EXPECT_EQ(batched[i].data,
              SynthesizeDataBlock(0, tracks[i], kBlockBytes))
        << "track " << tracks[i];
    if (batched[i].reconstructed) ++reconstructed;
  }
  EXPECT_GT(reconstructed, 0);
}

// The headline property: for every scheme, group size and single failed
// disk, EVERY track of an object reads back bit-exact.
class DataPathProperty
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(DataPathProperty, SingleFailureIsAlwaysByteExact) {
  const auto [scheme, c] = GetParam();
  const int disks = (scheme == Scheme::kImprovedBandwidth ? c - 1 : c) * 3;
  auto layout = CreateLayout(scheme, disks, c).value();
  const int64_t tracks = 6LL * (c - 1) + 1;  // includes a short group
  for (int failed = 0; failed < disks; ++failed) {
    StatusOr<int64_t> reconstructed = VerifyObjectReadback(
        *layout, /*object_id=*/1, tracks, {failed}, /*block_bytes=*/64);
    ASSERT_TRUE(reconstructed.ok())
        << SchemeName(scheme) << " C=" << c << " failed disk " << failed
        << ": " << reconstructed.status().ToString();
    // If the failed disk carries any of this object's data, something
    // must have been reconstructed; parity-only holders reconstruct 0.
    EXPECT_GE(*reconstructed, 0);
  }
}

TEST_P(DataPathProperty, HealthyReadbackNeverReconstructs) {
  const auto [scheme, c] = GetParam();
  const int disks = (scheme == Scheme::kImprovedBandwidth ? c - 1 : c) * 3;
  auto layout = CreateLayout(scheme, disks, c).value();
  EXPECT_EQ(VerifyObjectReadback(*layout, 2, 4LL * (c - 1), {}, 64).value(),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndGroups, DataPathProperty,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid,
                                         Scheme::kImprovedBandwidth),
                       ::testing::Values(2, 3, 5, 7)));

// Dual parity needs C >= 3 (two parity disks leave C-2 data slots).
INSTANTIATE_TEST_SUITE_P(
    DualParityGroups, DataPathProperty,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid2),
                       ::testing::Values(3, 5, 7)));

}  // namespace
}  // namespace ftms
