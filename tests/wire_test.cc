// Wire-protocol codec tests: frame round-trips under arbitrary chunking,
// hostile input (oversized / truncated / garbage frames), and the
// result/error payload encodings. Pure byte-level tests — no sockets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "server/wire.h"

namespace orq {
namespace {

TEST(FrameDecoderTest, RoundTripsSingleFrame) {
  std::string bytes;
  AppendFrame(FrameType::kQuery, "SELECT 1", &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.type, FrameType::kQuery);
  EXPECT_EQ(frame.payload, "SELECT 1");
  // Stream drained: no second frame, no pending bytes.
  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameDecoderTest, RoundTripsEmptyPayload) {
  std::string bytes;
  AppendFrame(FrameType::kPing, "", &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameDecoderTest, ReassemblesByteAtATime) {
  // TCP may deliver any split; feeding one byte at a time is the worst
  // case. The decoder must return "need more" until the frame completes.
  std::string bytes;
  AppendFrame(FrameType::kSet, "threads 4", &bytes);
  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(&bytes[i], 1);
    Result<bool> got = decoder.Next(&frame);
    ASSERT_TRUE(got.ok()) << "byte " << i;
    ASSERT_FALSE(got.value()) << "frame completed early at byte " << i;
  }
  decoder.Feed(&bytes[bytes.size() - 1], 1);
  Result<bool> got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.type, FrameType::kSet);
  EXPECT_EQ(frame.payload, "threads 4");
}

TEST(FrameDecoderTest, SplitsCoalescedFrames) {
  // Pipelined senders coalesce frames into one segment; each Next call
  // must pop exactly one.
  std::string bytes;
  AppendFrame(FrameType::kQuery, "q1", &bytes);
  AppendFrame(FrameType::kAdmin, "metrics", &bytes);
  AppendFrame(FrameType::kPing, "", &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.payload, "q1");
  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.type, FrameType::kAdmin);
  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.type, FrameType::kPing);
  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(FrameDecoderTest, RejectsOversizedFrame) {
  // Length prefix claiming more than the 16 MiB cap: protocol error
  // before any payload is buffered (a hostile peer cannot make the
  // server allocate the claimed size).
  const uint32_t huge = kWireMaxFrameBytes + 1;
  std::string bytes;
  bytes.push_back(static_cast<char>(huge & 0xff));
  bytes.push_back(static_cast<char>((huge >> 8) & 0xff));
  bytes.push_back(static_cast<char>((huge >> 16) & 0xff));
  bytes.push_back(static_cast<char>((huge >> 24) & 0xff));
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, RejectsZeroLengthFrame) {
  FrameDecoder decoder;
  decoder.Feed(std::string(4, '\0'));  // length = 0: no type byte possible
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, RejectsUnknownFrameType) {
  std::string bytes;
  bytes.push_back(2);  // length 2
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back('z');  // not a FrameType
  bytes.push_back('x');
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, TruncatedFrameStaysPending) {
  std::string bytes;
  AppendFrame(FrameType::kQuery, "SELECT * FROM nation", &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes.substr(0, bytes.size() - 5));
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
  EXPECT_GT(decoder.pending_bytes(), 0u);
}

TEST(FrameDecoderTest, GarbageAfterValidFrameIsAnError) {
  std::string bytes;
  AppendFrame(FrameType::kQuery, "ok", &bytes);
  // Garbage tail whose first 4 bytes decode to an enormous length.
  bytes += std::string(8, '\xff');
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  Result<bool> got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.payload, "ok");
  got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
}

TEST(WireResultTest, RoundTrips) {
  WireResult result;
  result.columns = {"a", "b"};
  result.rows = {"1|'x'", "2|\xE2\x88\x85"};  // second row carries a NULL
  result.rows_produced = 1234567890123LL;
  Result<WireResult> decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->columns, result.columns);
  EXPECT_EQ(decoded->rows, result.rows);
  EXPECT_EQ(decoded->rows_produced, result.rows_produced);
}

TEST(WireResultTest, RoundTripsEmptyResult) {
  WireResult result;
  Result<WireResult> decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->columns.empty());
  EXPECT_TRUE(decoded->rows.empty());
}

TEST(WireResultTest, RejectsTruncatedPayload) {
  WireResult result;
  result.columns = {"a"};
  result.rows = {"1", "2", "3"};
  const std::string payload = EncodeResult(result);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Result<WireResult> decoded = DecodeResult(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "decoded a " << cut << "-byte prefix";
  }
}

TEST(WireResultTest, RejectsTrailingGarbage) {
  WireResult result;
  result.columns = {"a"};
  Result<WireResult> decoded = DecodeResult(EncodeResult(result) + "x");
  EXPECT_FALSE(decoded.ok());
}

TEST(WireResultTest, RejectsLyingStringLength) {
  // A declared inner-string length far past the payload end must not read
  // out of bounds.
  std::string payload;
  payload.append({1, 0, 0, 0});        // 1 column
  payload.append({'\xff', '\xff', '\xff', '\x7f'});  // name length 2^31-1
  Result<WireResult> decoded = DecodeResult(payload);
  EXPECT_FALSE(decoded.ok());
}

TEST(WireErrorTest, RoundTripsEveryCode) {
  const StatusCode codes[] = {
      StatusCode::kInvalidArgument,    StatusCode::kNotFound,
      StatusCode::kRuntimeError,       StatusCode::kCardinalityViolation,
      StatusCode::kUnsupported,        StatusCode::kInternal,
      StatusCode::kCancelled,          StatusCode::kDeadlineExceeded,
      StatusCode::kUnavailable,        StatusCode::kFailedPrecondition,
  };
  for (StatusCode code : codes) {
    Status original(code, "message for " + Status::CodeName(code));
    Status decoded = DecodeError(EncodeError(original));
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

TEST(WireErrorTest, RejectsUnknownCodeByte) {
  std::string payload;
  payload.push_back(static_cast<char>(0x7f));
  payload += "whatever";
  Status decoded = DecodeError(payload);
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
}

TEST(WireErrorTest, RejectsEmptyPayload) {
  EXPECT_EQ(DecodeError("").code(), StatusCode::kInternal);
}

TEST(WireResultTest, RoundTripsQueryId) {
  WireResult result;
  result.columns = {"a"};
  result.rows = {"1"};
  result.rows_produced = 1;
  result.query_id = "s3q17";
  Result<WireResult> decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->query_id, "s3q17");
}

TEST(WireErrorTest, CarriesQueryIdInItsOwnField) {
  Status original = Status::DeadlineExceeded("query timed out");
  const std::string payload = EncodeError(original, "s2q9");
  std::string query_id;
  Status decoded = DecodeError(payload, &query_id);
  EXPECT_EQ(decoded.code(), original.code());
  // The id travels as its own field; the message text is untouched (the
  // byte-for-byte serial-vs-wire comparison depends on this).
  EXPECT_EQ(decoded.message(), original.message());
  EXPECT_EQ(query_id, "s2q9");
  // Decoding without asking for the id yields the same status.
  Status plain = DecodeError(payload);
  EXPECT_EQ(plain.code(), original.code());
  EXPECT_EQ(plain.message(), original.message());
}

TEST(WireErrorTest, RejectsTruncatedQueryIdField) {
  const std::string payload =
      EncodeError(Status::RuntimeError("boom"), "s1q1");
  // Chop inside the id's length prefix: malformed, not a silent misparse.
  Status decoded = DecodeError(payload.substr(0, 3));
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace orq
