// Error hierarchy shared by every dfgen module.
//
// All failures surfaced to users of the public API derive from dfg::Error so
// a host application can catch a single base type. Sub-classes carry enough
// structured context (sizes, positions) for programmatic handling; the
// what() string is always human readable on its own.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace dfg {

/// Base class of every exception thrown by dfgen.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a device buffer allocation would exceed the device's global
/// memory capacity. This is the condition behind the paper's failed GPU test
/// cases (Figures 5 and 6).
class DeviceOutOfMemory : public Error {
 public:
  DeviceOutOfMemory(std::string device, std::size_t requested_bytes,
                    std::size_t in_use_bytes, std::size_t capacity_bytes)
      : Error("device '" + device + "' out of global memory: requested " +
              std::to_string(requested_bytes) + " B with " +
              std::to_string(in_use_bytes) + " B in use of " +
              std::to_string(capacity_bytes) + " B capacity"),
        device_(std::move(device)),
        requested_bytes_(requested_bytes),
        in_use_bytes_(in_use_bytes),
        capacity_bytes_(capacity_bytes) {}

  const std::string& device() const { return device_; }
  std::size_t requested_bytes() const { return requested_bytes_; }
  std::size_t in_use_bytes() const { return in_use_bytes_; }
  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  std::string device_;
  std::size_t requested_bytes_;
  std::size_t in_use_bytes_;
  std::size_t capacity_bytes_;
};

/// Thrown when a device command (transfer enqueue or kernel launch) fails
/// transiently — the virtual analogue of a recoverable CL_OUT_OF_RESOURCES
/// or a dropped PCIe transaction. Retryable: the command queue re-enqueues
/// with bounded, seeded backoff before letting it propagate.
class DeviceError : public Error {
 public:
  DeviceError(std::string device, std::string site, std::string label)
      : Error("device '" + device + "' transient failure at " + site +
              " enqueue of '" + label + "'"),
        device_(std::move(device)),
        site_(std::move(site)),
        label_(std::move(label)) {}

  const std::string& device() const { return device_; }
  /// Injection site name ("Dev-W", "Dev-R" or "K-Exe").
  const std::string& site() const { return site_; }
  /// Label of the failed command (kernel or buffer name).
  const std::string& label() const { return label_; }

 private:
  std::string device_;
  std::string site_;
  std::string label_;
};

/// Thrown by the command queue's watchdog when a command's simulated
/// duration exceeds `deadline_factor` times its cost-model estimate — the
/// virtual analogue of a wedged kernel or a device running far off its
/// performance envelope. Retryable (a hang is usually one command); if it
/// survives the retry budget the fallback layer degrades the strategy; a
/// timeout on the last rung reaches the caller (Engine, EvalService or
/// DistributedEngine) as this error.
class DeviceTimeout : public Error {
 public:
  DeviceTimeout(std::string device, std::string site, std::string label,
                double estimate_seconds, double deadline_seconds)
      : Error("device '" + device + "' exceeded deadline at " + site +
              " '" + label + "': estimated " +
              std::to_string(estimate_seconds) + " s, deadline " +
              std::to_string(deadline_seconds) + " s"),
        device_(std::move(device)),
        site_(std::move(site)),
        label_(std::move(label)),
        estimate_seconds_(estimate_seconds),
        deadline_seconds_(deadline_seconds) {}

  const std::string& device() const { return device_; }
  const std::string& site() const { return site_; }
  const std::string& label() const { return label_; }
  double estimate_seconds() const { return estimate_seconds_; }
  double deadline_seconds() const { return deadline_seconds_; }

 private:
  std::string device_;
  std::string site_;
  std::string label_;
  double estimate_seconds_;
  double deadline_seconds_;
};

/// Thrown when a transfer's destination checksum does not match its source
/// — silent corruption made loud. The queue re-executes the transfer a
/// bounded number of times first; a corruption that persists past the
/// retry budget reaches the caller as this error (no strategy rung can fix
/// a corrupting device).
class DataCorruption : public Error {
 public:
  DataCorruption(std::string device, std::string site, std::string label)
      : Error("device '" + device + "' corrupted data detected at " + site +
              " of '" + label + "' (checksum mismatch)"),
        device_(std::move(device)),
        site_(std::move(site)),
        label_(std::move(label)) {}

  const std::string& device() const { return device_; }
  const std::string& site() const { return site_; }
  const std::string& label() const { return label_; }

 private:
  std::string device_;
  std::string site_;
  std::string label_;
};

/// Thrown when a device is lost outright (the virtual analogue of
/// CL_DEVICE_NOT_AVAILABLE after a hang or ECC shutdown). Not retryable on
/// the same device: every subsequent command fails until the device object
/// is replaced.
class DeviceLost : public Error {
 public:
  explicit DeviceLost(std::string device)
      : Error("device '" + device + "' lost; all further commands fail"),
        device_(std::move(device)) {}

  const std::string& device() const { return device_; }

 private:
  std::string device_;
};

/// Thrown by the expression front-end on lexical or syntactic errors.
/// Carries the 1-based source line and column of the offending token.
class ParseError : public Error {
 public:
  ParseError(const std::string& message, int line, int column)
      : Error(message + " (line " + std::to_string(line) + ", column " +
              std::to_string(column) + ")"),
        line_(line),
        column_(column) {}

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Thrown when a dataflow network specification is malformed: unknown
/// filters, arity mismatches, component-count violations, cycles, or
/// references to unbound fields.
class NetworkError : public Error {
 public:
  using Error::Error;
};

/// Thrown by the kernel layer: malformed bytecode, register exhaustion,
/// buffer-binding mismatches.
class KernelError : public Error {
 public:
  using Error::Error;
};

}  // namespace dfg
