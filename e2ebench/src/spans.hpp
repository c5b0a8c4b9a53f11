// Span recorder of the traced run.
//
// Every thread that does traced work (the event-loop threads and the driver
// thread) owns one `thread_trace`: a preallocated span buffer, an open-span
// stack for self times, per-name aggregates and the per-wire-kind datagram
// counters. Nothing is shared between threads while the run is live; the
// driver reads a loop's counters from a task posted to that loop and writes
// every buffer out once the threads are gone.
//
// A span records a name, start, end, parent (buffer index) and an id. A
// receive upcall gets a fresh id that the sends it triggers inherit; all
// spans of one kill's failover carry the kill's id. A span's self time is
// its duration minus the durations of its direct children.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Steady-clock nanoseconds: the one timeline every thread stamps.
inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class span_name : std::uint8_t {
  rx_alive,
  rx_accuse,
  rx_hello,
  rx_hello_ack,
  rx_leave,
  rx_rate_request,
  rx_malformed,
  timer,
  tx,
  kill,
  restart,
  failover,
  detect,
  converge,
  window,
  count_
};

std::string_view to_string(span_name name);

/// Wire kinds as indexed by the per-kind counters: proto::msg_kind values
/// 1..6, with 0 for datagrams whose envelope does not parse.
inline constexpr std::size_t kWireKinds = 7;

struct span {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  // buffer index of the parent, kNoParent if none
  span_name name = span_name::count_;
};

class thread_trace {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  thread_trace(std::uint32_t index, std::size_t capacity);

  /// A fresh span id unique to this thread.
  std::uint64_t new_id() { return (std::uint64_t{index_ + 1} << 48) | ++seq_; }

  /// Opens a span. `id == 0` inherits the enclosing span's id (a fresh one
  /// when there is none).
  void begin(span_name name, std::uint64_t id = 0);
  /// Closes the innermost open span.
  void end();
  /// Records an already closed span (post-hoc failover phases); returns its
  /// buffer index (kNoParent when the buffer is full).
  std::uint32_t record(span_name name, std::uint64_t id, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent = kNoParent);

  struct aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  [[nodiscard]] const aggregate& totals(span_name name) const {
    return agg_[static_cast<std::size_t>(name)];
  }

  /// Per-wire-kind datagram counters; tx_bytes counts payload bytes.
  struct wire_counts {
    std::array<std::uint64_t, kWireKinds> tx_dgrams{};
    std::array<std::uint64_t, kWireKinds> tx_bytes{};
    std::array<std::uint64_t, kWireKinds> rx_dgrams{};
  };
  wire_counts wire;

  /// Timer lateness samples (fire minus due, microseconds).
  std::vector<std::int32_t> timer_late_us;

  /// Up to `kSamplesPerKind` sent datagrams per wire kind captured while
  /// `sampling`, for the encode/decode replays.
  static constexpr std::size_t kSamplesPerKind = 64;
  std::array<std::vector<std::vector<std::byte>>, kWireKinds> samples;
  bool sampling = false;

  /// While false the decorators on this thread pass every call straight
  /// through and record nothing; the traced run switches it per chunk to
  /// measure the tracing overhead.
  bool recording = true;

  /// Starts the measured window: zeroes the aggregates, counters and
  /// lateness samples and turns sampling on.
  void begin_window();

  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct open_span {
    span_name name;
    std::uint32_t slot;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::uint32_t index_;
  std::uint64_t seq_ = 0;
  std::size_t capacity_;
  std::vector<span> spans_;
  std::uint64_t dropped_ = 0;
  std::vector<open_span> stack_;
  std::array<aggregate, static_cast<std::size_t>(span_name::count_)> agg_{};
};

/// Hands each thread its own preallocated `thread_trace`.
class tracer {
 public:
  tracer(std::size_t threads, std::size_t capacity_per_thread);

  tracer(const tracer&) = delete;
  tracer& operator=(const tracer&) = delete;

  /// The calling thread's buffer (bound on first use).
  thread_trace& local();

  /// Writes every span as CSV (thread,index,name,id,parent,start_ns,end_ns).
  /// Call once no other thread records any more. Returns false on I/O error.
  bool write(const std::string& path) const;

  [[nodiscard]] std::uint64_t spans_recorded() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<thread_trace>> slots_;
  std::size_t bound_ = 0;
};

}  // namespace e2e
