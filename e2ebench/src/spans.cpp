#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace e2e {

std::string_view to_string(span_name name) {
  switch (name) {
    case span_name::rx_alive: return "rx_alive";
    case span_name::rx_accuse: return "rx_accuse";
    case span_name::rx_hello: return "rx_hello";
    case span_name::rx_hello_ack: return "rx_hello_ack";
    case span_name::rx_leave: return "rx_leave";
    case span_name::rx_rate_request: return "rx_rate_request";
    case span_name::rx_malformed: return "rx_malformed";
    case span_name::timer: return "timer";
    case span_name::tx: return "tx";
    case span_name::kill: return "kill";
    case span_name::restart: return "restart";
    case span_name::failover: return "failover";
    case span_name::detect: return "detect";
    case span_name::converge: return "converge";
    case span_name::window: return "window";
    case span_name::count_: break;
  }
  return "?";
}

thread_trace::thread_trace(std::uint32_t index, std::size_t capacity)
    : index_(index), capacity_(capacity) {
  spans_.reserve(capacity_);
  stack_.reserve(64);
  timer_late_us.reserve(1 << 20);
  for (auto& s : samples) s.reserve(kSamplesPerKind);
}

void thread_trace::begin_window() {
  agg_ = {};
  wire = {};
  timer_late_us.clear();
  sampling = true;
}

void thread_trace::begin(span_name name, std::uint64_t id) {
  if (id == 0) id = stack_.empty() ? new_id() : stack_.back().id;
  std::uint32_t slot = kNoParent;
  if (spans_.size() < capacity_) {
    slot = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back().slot;
    spans_.push_back(span{id, 0, 0, parent, name});
  } else {
    ++dropped_;
  }
  stack_.push_back(open_span{name, slot, id, steady_ns(), 0});
}

void thread_trace::end() {
  const std::int64_t now = steady_ns();
  const open_span top = stack_.back();
  stack_.pop_back();
  const std::int64_t took = now - top.start_ns;
  aggregate& a = agg_[static_cast<std::size_t>(top.name)];
  ++a.count;
  a.total_ns += took;
  a.self_ns += took - top.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += took;
  if (top.slot != kNoParent) {
    spans_[top.slot].start_ns = top.start_ns;
    spans_[top.slot].end_ns = now;
  }
}

std::uint32_t thread_trace::record(span_name name, std::uint64_t id,
                                   std::int64_t start_ns, std::int64_t end_ns,
                                   std::uint32_t parent) {
  aggregate& a = agg_[static_cast<std::size_t>(name)];
  ++a.count;
  a.total_ns += end_ns - start_ns;
  a.self_ns += end_ns - start_ns;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back(span{id, start_ns, end_ns, parent, name});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

tracer::tracer(std::size_t threads, std::size_t capacity_per_thread) {
  for (std::size_t i = 0; i < threads; ++i) {
    slots_.push_back(std::make_unique<thread_trace>(
        static_cast<std::uint32_t>(i), capacity_per_thread));
  }
}

thread_trace& tracer::local() {
  struct binding {
    const tracer* owner = nullptr;
    thread_trace* trace = nullptr;
  };
  thread_local binding tls;
  if (tls.owner != this) {
    std::lock_guard lock(mu_);
    if (bound_ == slots_.size()) {
      throw std::runtime_error("tracer: more traced threads than slots");
    }
    tls = binding{this, slots_[bound_++].get()};
  }
  return *tls.trace;
}

bool tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "thread,index,name,id,parent,start_ns,end_ns\n";
  for (const auto& t : slots_) {
    const auto& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const span& s = spans[i];
      out << t->index() << ',' << i << ',' << to_string(s.name) << ',' << s.id
          << ','
          << (s.parent == thread_trace::kNoParent
                  ? std::int64_t{-1}
                  : static_cast<std::int64_t>(s.parent))
          << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

std::uint64_t tracer::spans_recorded() const {
  std::uint64_t n = 0;
  for (const auto& t : slots_) n += t->spans().size();
  return n;
}

std::uint64_t tracer::spans_dropped() const {
  std::uint64_t n = 0;
  for (const auto& t : slots_) n += t->dropped();
  return n;
}

}  // namespace e2e
