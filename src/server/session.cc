#include "server/session.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>

namespace orq {

namespace {

/// Splits "name value" / "name=value" / "name = value" into name + value.
bool SplitSet(const std::string& command, std::string* name,
              std::string* value) {
  size_t start = 0;
  while (start < command.size() &&
         std::isspace(static_cast<unsigned char>(command[start]))) {
    ++start;
  }
  size_t sep = start;
  while (sep < command.size() && command[sep] != '=' &&
         !std::isspace(static_cast<unsigned char>(command[sep]))) {
    ++sep;
  }
  if (sep == start || sep == command.size()) return false;
  *name = command.substr(start, sep - start);
  size_t vstart = sep;
  while (vstart < command.size() &&
         (command[vstart] == '=' ||
          std::isspace(static_cast<unsigned char>(command[vstart])))) {
    ++vstart;
  }
  size_t vend = command.size();
  while (vend > vstart &&
         std::isspace(static_cast<unsigned char>(command[vend - 1]))) {
    --vend;
  }
  if (vend == vstart) return false;
  *value = command.substr(vstart, vend - vstart);
  return true;
}

Result<int64_t> ParseInt(const std::string& name, const std::string& value,
                         int64_t min, int64_t max) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("SET " + name +
                                   ": not an integer: " + value);
  }
  if (parsed < min || parsed > max) {
    return Status::InvalidArgument(
        "SET " + name + ": " + value + " outside [" + std::to_string(min) +
        ", " + std::to_string(max) + "]");
  }
  return static_cast<int64_t>(parsed);
}

}  // namespace

Status Session::ApplySet(const std::string& command) {
  std::string name, value;
  if (!SplitSet(command, &name, &value)) {
    return Status::InvalidArgument(
        "SET expects \"name value\", got: " + command);
  }
  for (char& c : name) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  if (name == "threads") {
    ORQ_ASSIGN_OR_RETURN(int64_t n, ParseInt(name, value, 0, 64));
    options_.exec.num_threads = static_cast<int>(n);
  } else if (name == "exec") {
    if (value == "columnar") {
      options_.exec.batched = true;
    } else if (value == "row") {
      options_.exec.batched = false;
    } else if (value == "batch") {
      return Status::InvalidArgument(
          "SET exec batch: the row-batch mode was retired; columnar is the "
          "batched mode (SET exec columnar), row the row-at-a-time one");
    } else {
      return Status::InvalidArgument(
          "SET exec expects row|columnar, got: " + value);
    }
  } else if (name == "batch_size") {
    // Parse wide, then let ValidateBatchSize be the one place that knows
    // the legal range (engine execution rechecks the same predicate).
    ORQ_ASSIGN_OR_RETURN(int64_t n,
                         ParseInt(name, value, INT32_MIN, INT32_MAX));
    ORQ_RETURN_IF_ERROR(ValidateBatchSize(static_cast<int>(n)));
    options_.exec.batch_size = static_cast<int>(n);
  } else if (name == "morsel_rows") {
    ORQ_ASSIGN_OR_RETURN(int64_t n, ParseInt(name, value, 1, 1 << 24));
    options_.exec.morsel_rows = static_cast<int>(n);
  } else if (name == "timeout_ms") {
    ORQ_ASSIGN_OR_RETURN(int64_t n,
                         ParseInt(name, value, 0, int64_t{1} << 40));
    timeout_ms_ = n;
    return Status::OK();  // session-only: the engine never sees it
  } else if (name == "slow_query_ms") {
    ORQ_ASSIGN_OR_RETURN(int64_t n,
                         ParseInt(name, value, 0, int64_t{1} << 40));
    slow_query_ms_ = n;
    return Status::OK();  // session-only: the engine never sees it
  } else if (name == "plan_cache") {
    if (value == "on" || value == "true" || value == "1") {
      options_.plan_cache.enable = true;
    } else if (value == "off" || value == "false" || value == "0") {
      options_.plan_cache.enable = false;
    } else {
      return Status::InvalidArgument(
          "SET plan_cache expects on|off, got: " + value);
    }
  } else {
    return Status::InvalidArgument(
        "unknown SET option \"" + name +
        "\" (known: threads, exec, batch_size, morsel_rows, timeout_ms, "
        "slow_query_ms, plan_cache)");
  }
  ++options_generation_;
  return Status::OK();
}

Status Session::RegisterPrepared(const std::string& name,
                                 PreparedStatement stmt) {
  constexpr size_t kMaxPrepared = 256;
  if (prepared_.count(name) == 0 && prepared_.size() >= kMaxPrepared) {
    return Status::InvalidArgument(
        "session holds " + std::to_string(kMaxPrepared) +
        " prepared statements already; DEALLOCATE one first");
  }
  prepared_[name] = std::move(stmt);
  return Status::OK();
}

const PreparedStatement* Session::FindPrepared(
    const std::string& name) const {
  auto it = prepared_.find(name);
  return it != prepared_.end() ? &it->second : nullptr;
}

bool Session::DeallocatePrepared(const std::string& name) {
  return prepared_.erase(name) > 0;
}

}  // namespace orq
