// Status / StatusOr error handling in the RocksDB/Arrow idiom: functions that
// can fail return a Status (or StatusOr<T>) instead of throwing. Exceptions
// are not used for control flow anywhere in msplog.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace msplog {

/// Error taxonomy for the whole library.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kCorruption,       ///< Log/record/checksum damage detected.
  kInvalidArgument,
  kIOError,          ///< Simulated-disk or file failure.
  kTimedOut,         ///< RPC or flush wait exceeded its deadline.
  kBusy,             ///< Server is checkpointing/recovering; caller retries.
  kOrphan,           ///< State depends on a lost log record (see paper §3.1).
  kCrashed,          ///< The target MSP is crashed / endpoint unregistered.
  kAborted,
  kUnsupported,
  kInternal,
};

/// Result of an operation that can fail. Cheap to copy when OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m = "") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status IOError(std::string m = "") {
    return Status(StatusCode::kIOError, std::move(m));
  }
  static Status TimedOut(std::string m = "") {
    return Status(StatusCode::kTimedOut, std::move(m));
  }
  static Status Busy(std::string m = "") {
    return Status(StatusCode::kBusy, std::move(m));
  }
  static Status Orphan(std::string m = "") {
    return Status(StatusCode::kOrphan, std::move(m));
  }
  static Status Crashed(std::string m = "") {
    return Status(StatusCode::kCrashed, std::move(m));
  }
  static Status Aborted(std::string m = "") {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status Unsupported(std::string m = "") {
    return Status(StatusCode::kUnsupported, std::move(m));
  }
  static Status Internal(std::string m = "") {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }
  bool IsOrphan() const { return code_ == StatusCode::kOrphan; }
  bool IsCrashed() const { return code_ == StatusCode::kCrashed; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string name;
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kNotFound: name = "NotFound"; break;
      case StatusCode::kCorruption: name = "Corruption"; break;
      case StatusCode::kInvalidArgument: name = "InvalidArgument"; break;
      case StatusCode::kIOError: name = "IOError"; break;
      case StatusCode::kTimedOut: name = "TimedOut"; break;
      case StatusCode::kBusy: name = "Busy"; break;
      case StatusCode::kOrphan: name = "Orphan"; break;
      case StatusCode::kCrashed: name = "Crashed"; break;
      case StatusCode::kAborted: name = "Aborted"; break;
      case StatusCode::kUnsupported: name = "Unsupported"; break;
      case StatusCode::kInternal: name = "Internal"; break;
    }
    return msg_.empty() ? name : name + ": " + msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value of T or an error Status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status s) : status_(std::move(s)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok());
  }
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // The class invariant (value_ is engaged iff status_.ok()) is asserted
  // here but invisible to bugprone-unchecked-optional-access, hence the
  // targeted NOLINTs.
  T& value() & {
    assert(ok());
    return *value_;  // NOLINT(bugprone-unchecked-optional-access)
  }
  const T& value() const& {
    assert(ok());
    return *value_;  // NOLINT(bugprone-unchecked-optional-access)
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);  // NOLINT(bugprone-unchecked-optional-access)
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace msplog

/// Propagate a non-OK Status to the caller.
#define MSPLOG_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::msplog::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)
