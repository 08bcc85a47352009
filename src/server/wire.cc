#include "server/wire.h"

#include <cstring>

namespace orq {

namespace {

void PutU32(uint32_t value, std::string* out) {
  char bytes[4];
  bytes[0] = static_cast<char>(value & 0xff);
  bytes[1] = static_cast<char>((value >> 8) & 0xff);
  bytes[2] = static_cast<char>((value >> 16) & 0xff);
  bytes[3] = static_cast<char>((value >> 24) & 0xff);
  out->append(bytes, 4);
}

void PutU64(uint64_t value, std::string* out) {
  PutU32(static_cast<uint32_t>(value & 0xffffffffu), out);
  PutU32(static_cast<uint32_t>(value >> 32), out);
}

void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Bounded little-endian reader over a payload; any read past the end
/// latches an error (malformed payload).
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  uint32_t U8() {
    if (pos_ + 1 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<unsigned char>(bytes_[pos_++]);
  }

  uint32_t U32() {
    if (pos_ + 4 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(bytes_.data()) +
                    pos_;
    pos_ += 4;
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  }

  uint64_t U64() {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    return lo | (hi << 32);
  }

  std::string Str() {
    const uint32_t size = U32();
    if (!ok_ || pos_ + size > bytes_.size()) {
      ok_ = false;
      return std::string();
    }
    std::string s = bytes_.substr(pos_, size);
    pos_ += size;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

bool IsValidFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kQuery:
    case FrameType::kSet:
    case FrameType::kAdmin:
    case FrameType::kPing:
    case FrameType::kPrepare:
    case FrameType::kExecute:
    case FrameType::kDeallocate:
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kInfo:
    case FrameType::kPong:
    case FrameType::kPrepared:
      return true;
  }
  return false;
}

void AppendFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  PutU32(static_cast<uint32_t>(payload.size()) + 1, out);
  out->push_back(static_cast<char>(type));
  out->append(payload);
}

Result<bool> FrameDecoder::Next(Frame* out) {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  if (buffer_.size() - pos_ < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(buffer_.data()) +
                  pos_;
  const uint32_t length = static_cast<uint32_t>(p[0]) |
                          (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  if (length == 0) {
    return Status::InvalidArgument("wire: zero-length frame");
  }
  if (length > kWireMaxFrameBytes) {
    return Status::InvalidArgument(
        "wire: frame of " + std::to_string(length) +
        " bytes exceeds the " + std::to_string(kWireMaxFrameBytes) +
        "-byte limit");
  }
  if (buffer_.size() - pos_ < 4u + length) return false;
  const uint8_t type = static_cast<uint8_t>(buffer_[pos_ + 4]);
  if (!IsValidFrameType(type)) {
    return Status::InvalidArgument("wire: unknown frame type byte " +
                                   std::to_string(type));
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(buffer_, pos_ + 5, length - 1);
  pos_ += 4u + length;
  return true;
}

std::string EncodeResult(const WireResult& result) {
  std::string out;
  PutU32(static_cast<uint32_t>(result.columns.size()), &out);
  for (const std::string& column : result.columns) PutStr(column, &out);
  PutU32(static_cast<uint32_t>(result.rows.size()), &out);
  for (const std::string& row : result.rows) PutStr(row, &out);
  PutU64(static_cast<uint64_t>(result.rows_produced), &out);
  PutStr(result.query_id, &out);
  return out;
}

Result<WireResult> DecodeResult(const std::string& payload) {
  Reader reader(payload);
  WireResult result;
  const uint32_t num_columns = reader.U32();
  for (uint32_t i = 0; i < num_columns && reader.ok(); ++i) {
    result.columns.push_back(reader.Str());
  }
  const uint32_t num_rows = reader.U32();
  for (uint32_t i = 0; i < num_rows && reader.ok(); ++i) {
    result.rows.push_back(reader.Str());
  }
  result.rows_produced = static_cast<int64_t>(reader.U64());
  result.query_id = reader.Str();
  if (!reader.ok() || !reader.AtEnd()) {
    return Status::InvalidArgument("wire: malformed result payload");
  }
  return result;
}

std::string EncodeError(const Status& status, const std::string& query_id) {
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  PutStr(query_id, &out);
  out.append(status.message());
  return out;
}

namespace {

bool ValidTypeByte(uint32_t byte) {
  return byte <= static_cast<uint32_t>(DataType::kDate);
}

void PutValue(const Value& value, std::string* out) {
  out->push_back(static_cast<char>(value.type()));
  out->push_back(value.is_null() ? 1 : 0);
  if (value.is_null()) return;
  switch (value.type()) {
    case DataType::kBool:
      out->push_back(value.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      PutU64(static_cast<uint64_t>(value.int64_value()), out);
      break;
    case DataType::kDouble: {
      uint64_t bits = 0;
      const double d = value.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(bits, out);
      break;
    }
    case DataType::kString:
      PutStr(value.string_value(), out);
      break;
    case DataType::kDate:
      PutU32(static_cast<uint32_t>(value.date_value()), out);
      break;
  }
}

Value ReadValue(Reader* reader, bool* ok) {
  const uint32_t type_byte = reader->U8();
  const uint32_t null_byte = reader->U8();
  if (!reader->ok() || !ValidTypeByte(type_byte) || null_byte > 1) {
    *ok = false;
    return Value();
  }
  const DataType type = static_cast<DataType>(type_byte);
  if (null_byte == 1) return Value::Null(type);
  switch (type) {
    case DataType::kBool:
      return Value::Bool(reader->U8() != 0);
    case DataType::kInt64:
      return Value::Int64(static_cast<int64_t>(reader->U64()));
    case DataType::kDouble: {
      const uint64_t bits = reader->U64();
      double d = 0.0;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case DataType::kString:
      return Value::String(reader->Str());
    case DataType::kDate:
      return Value::Date(static_cast<int32_t>(reader->U32()));
  }
  *ok = false;
  return Value();
}

}  // namespace

std::string EncodePrepare(const WirePrepare& prepare) {
  std::string out;
  PutStr(prepare.name, &out);
  PutStr(prepare.sql, &out);
  return out;
}

Result<WirePrepare> DecodePrepare(const std::string& payload) {
  Reader reader(payload);
  WirePrepare prepare;
  prepare.name = reader.Str();
  prepare.sql = reader.Str();
  if (!reader.ok() || !reader.AtEnd()) {
    return Status::InvalidArgument("wire: malformed prepare payload");
  }
  return prepare;
}

std::string EncodePrepared(const WirePrepared& prepared) {
  std::string out;
  PutU32(static_cast<uint32_t>(prepared.param_types.size()), &out);
  for (DataType type : prepared.param_types) {
    out.push_back(static_cast<char>(type));
  }
  PutU32(static_cast<uint32_t>(prepared.columns.size()), &out);
  for (const std::string& column : prepared.columns) PutStr(column, &out);
  return out;
}

Result<WirePrepared> DecodePrepared(const std::string& payload) {
  Reader reader(payload);
  WirePrepared prepared;
  const uint32_t num_params = reader.U32();
  for (uint32_t i = 0; i < num_params && reader.ok(); ++i) {
    const uint32_t type_byte = reader.U8();
    if (!reader.ok() || !ValidTypeByte(type_byte)) {
      return Status::InvalidArgument("wire: bad parameter type byte");
    }
    prepared.param_types.push_back(static_cast<DataType>(type_byte));
  }
  const uint32_t num_columns = reader.U32();
  for (uint32_t i = 0; i < num_columns && reader.ok(); ++i) {
    prepared.columns.push_back(reader.Str());
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return Status::InvalidArgument("wire: malformed prepared payload");
  }
  return prepared;
}

std::string EncodeExecute(const WireExecute& execute) {
  std::string out;
  PutStr(execute.name, &out);
  PutU32(static_cast<uint32_t>(execute.params.size()), &out);
  for (const Value& value : execute.params) PutValue(value, &out);
  return out;
}

Result<WireExecute> DecodeExecute(const std::string& payload) {
  Reader reader(payload);
  WireExecute execute;
  execute.name = reader.Str();
  const uint32_t num_params = reader.U32();
  bool ok = reader.ok();
  for (uint32_t i = 0; i < num_params && ok; ++i) {
    execute.params.push_back(ReadValue(&reader, &ok));
  }
  if (!ok || !reader.ok() || !reader.AtEnd()) {
    return Status::InvalidArgument("wire: malformed execute payload");
  }
  return execute;
}

Status DecodeError(const std::string& payload, std::string* query_id) {
  if (query_id != nullptr) query_id->clear();
  if (payload.empty()) {
    return Status::Internal("wire: empty error payload");
  }
  const auto code = static_cast<StatusCode>(
      static_cast<unsigned char>(payload[0]));
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kRuntimeError:
    case StatusCode::kCardinalityViolation:
    case StatusCode::kUnsupported:
    case StatusCode::kInternal:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kFailedPrecondition:
      break;
    default:
      return Status::Internal("wire: unknown error code in payload: " +
                              payload.substr(1));
  }
  // After the code byte: the query id as a length-prefixed string, then
  // the raw message (no length prefix — it runs to the payload's end, so
  // the message stays byte-identical to the engine's).
  const std::string rest = payload.substr(1);
  Reader reader(rest);
  std::string id = reader.Str();
  if (!reader.ok()) {
    return Status::Internal("wire: malformed error payload");
  }
  const size_t id_size = id.size();
  if (query_id != nullptr) *query_id = std::move(id);
  return Status(code, payload.substr(1 + 4 + id_size));
}

}  // namespace orq
