// Log-frame codec: checksummed framing roundtrip plus the two damage
// properties recovery depends on (docs/recovery.md) — truncation at any
// byte is a clean torn tail, and any bit flip in a complete frame is
// detected as DataLoss. Replay never sees garbage.
#include "log/log_codec.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.h"

namespace tdp::log {
namespace {

std::vector<RedoOp> SampleOps() {
  std::vector<RedoOp> ops;
  RedoOp put;
  put.kind = RedoOp::Kind::kPut;
  put.table = 3;
  put.key = 42;
  put.after = storage::Row{7, -8, 1 << 20};
  ops.push_back(put);
  RedoOp del;
  del.kind = RedoOp::Kind::kDelete;
  del.table = 1;
  del.key = 99;
  ops.push_back(del);
  return ops;
}

std::vector<uint8_t> SampleImage(int frames) {
  std::vector<uint8_t> image;
  for (int i = 0; i < frames; ++i) {
    AppendLogFrame(/*lsn=*/i + 1, /*txn_id=*/100 + i, SampleOps(), &image);
  }
  return image;
}

TEST(LogCodecTest, RoundTripPreservesEverything) {
  const std::vector<uint8_t> image = SampleImage(3);
  std::vector<RecoveredTxn> out;
  const LogDecodeResult r = DecodeLogImage(image, &out);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.frames, 3u);
  EXPECT_EQ(r.valid_bytes, image.size());
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(out[i].txn_id, static_cast<uint64_t>(100 + i));
    ASSERT_EQ(out[i].ops.size(), 2u);
    EXPECT_EQ(out[i].ops[0].kind, RedoOp::Kind::kPut);
    EXPECT_EQ(out[i].ops[0].table, 3u);
    EXPECT_EQ(out[i].ops[0].key, 42u);
    EXPECT_EQ(out[i].ops[0].after.cols,
              (std::vector<int64_t>{7, -8, 1 << 20}));
    EXPECT_EQ(out[i].ops[1].kind, RedoOp::Kind::kDelete);
    EXPECT_EQ(out[i].ops[1].key, 99u);
    EXPECT_TRUE(out[i].ops[1].after.cols.empty());
  }
}

TEST(LogCodecTest, EmptyImageIsCleanAndEmpty) {
  std::vector<RecoveredTxn> out;
  const LogDecodeResult r = DecodeLogImage(nullptr, 0, &out);
  EXPECT_TRUE(r.status.ok());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.frames, 0u);
  EXPECT_TRUE(out.empty());
}

TEST(LogCodecTest, EmptyTxnFrameRoundTrips) {
  std::vector<uint8_t> image;
  AppendLogFrame(1, 5, {}, &image);
  std::vector<RecoveredTxn> out;
  const LogDecodeResult r = DecodeLogImage(image, &out);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].ops.empty());
}

// Property: truncating the image at EVERY possible byte boundary either
// yields a clean decode (cut exactly between frames) or a torn tail — never
// DataLoss, never a partially-applied frame.
TEST(LogCodecTest, TruncationAtEveryByteIsTornOrClean) {
  const std::vector<uint8_t> image = SampleImage(2);
  // Frame boundaries: decode the full image once to learn the first frame's
  // end offset (valid_bytes of a decode of just past the first frame).
  std::vector<RecoveredTxn> full;
  ASSERT_TRUE(DecodeLogImage(image, &full).status.ok());
  const size_t frame1_end = image.size() / 2;  // identical frames
  for (size_t cut = 0; cut <= image.size(); ++cut) {
    std::vector<RecoveredTxn> out;
    const LogDecodeResult r = DecodeLogImage(image.data(), cut, &out);
    ASSERT_TRUE(r.status.ok()) << "cut=" << cut << ": " << r.status.ToString();
    const size_t whole_frames = cut / frame1_end;
    EXPECT_EQ(out.size(), whole_frames) << "cut=" << cut;
    EXPECT_EQ(r.torn_tail, cut % frame1_end != 0) << "cut=" << cut;
    EXPECT_EQ(r.valid_bytes, whole_frames * frame1_end) << "cut=" << cut;
    // Every recovered txn is bit-exact — re-encode and compare.
    std::vector<uint8_t> reencoded;
    for (const RecoveredTxn& t : out) {
      AppendLogFrame(t.lsn, t.txn_id, t.ops, &reencoded);
    }
    EXPECT_EQ(reencoded,
              std::vector<uint8_t>(image.begin(),
                                   image.begin() + r.valid_bytes))
        << "cut=" << cut;
  }
}

// Property: flipping ANY single bit of a complete image is detected —
// DataLoss (checksum / structure mismatch) or, for flips in a length field
// that make the last frame overrun the image, a torn tail. Never a clean
// decode of different data.
TEST(LogCodecTest, AnyBitFlipIsDetected) {
  const std::vector<uint8_t> image = SampleImage(2);
  std::vector<RecoveredTxn> truth;
  ASSERT_TRUE(DecodeLogImage(image, &truth).status.ok());
  std::vector<uint8_t> reencoded_truth;
  for (const RecoveredTxn& t : truth) {
    AppendLogFrame(t.lsn, t.txn_id, t.ops, &reencoded_truth);
  }
  ASSERT_EQ(reencoded_truth, image);

  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> damaged = image;
      damaged[byte] ^= static_cast<uint8_t>(1u << bit);
      std::vector<RecoveredTxn> out;
      const LogDecodeResult r = DecodeLogImage(damaged, &out);
      const bool detected = r.status.IsDataLoss() || r.torn_tail;
      EXPECT_TRUE(detected) << "byte=" << byte << " bit=" << bit;
      // Whatever prefix did decode must match the true prefix bit-exactly.
      std::vector<uint8_t> reencoded;
      for (const RecoveredTxn& t : out) {
        AppendLogFrame(t.lsn, t.txn_id, t.ops, &reencoded);
      }
      ASSERT_LE(reencoded.size(), image.size());
      EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(),
                             image.begin()))
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(LogCodecTest, CorruptionStopsAtLastValidPrefix) {
  std::vector<uint8_t> image = SampleImage(3);
  const size_t frame_len = image.size() / 3;
  // Smash a payload byte of the middle frame.
  image[frame_len + kFrameHeaderBytes + 2] ^= 0xFF;
  std::vector<RecoveredTxn> out;
  const LogDecodeResult r = DecodeLogImage(image, &out);
  EXPECT_TRUE(r.status.IsDataLoss());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.frames, 1u);  // frame 3 is unreachable past the damage
  EXPECT_EQ(r.valid_bytes, frame_len);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lsn, 1u);
}

TEST(LogCodecTest, DecodePublishesRecoveryMetrics) {
  metrics::Registry::Global().ResetAll();
  std::vector<uint8_t> image = SampleImage(2);
  image.resize(image.size() - 3);  // torn tail
  std::vector<RecoveredTxn> out;
  ASSERT_TRUE(DecodeLogImage(image, &out).status.ok());
  std::vector<uint8_t> corrupt = SampleImage(1);
  corrupt[kFrameHeaderBytes] ^= 1;  // payload damage -> DataLoss
  std::vector<RecoveredTxn> out2;
  ASSERT_TRUE(DecodeLogImage(corrupt, &out2).status.IsDataLoss());
  const metrics::MetricsSnapshot snap =
      metrics::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.counter("recovery.decodes"), 2u);
  EXPECT_EQ(snap.counter("recovery.frames"), 1u);
  EXPECT_EQ(snap.counter("recovery.torn_tails"), 1u);
  EXPECT_EQ(snap.counter("recovery.data_loss"), 1u);
}

}  // namespace
}  // namespace tdp::log
