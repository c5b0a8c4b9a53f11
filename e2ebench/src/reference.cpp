#include "reference.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory_resource>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "spans.hpp"

namespace e2e {

namespace {

// Every container of the reference lives in a private arena: the global
// heap's state depends on the program, and a reference timed against it
// would slow down when the program's heap grows.
//
// Both kinds start with hash-map churn (insert, find, erase), like the
// protocol's tables. sockets adds loopback datagram rounds through the
// kernel's UDP path, like the live runtime.
constexpr std::size_t kHashKeys = 4'000;
constexpr int kHashRounds = 3;
constexpr std::size_t kHashArenaBytes = std::size_t{1} << 20;
constexpr int kUdpRounds = 12;
constexpr unsigned kUdpBatch = 32;
constexpr std::size_t kUdpBytes = 64;
// simulation adds a small discrete-event simulation shaped like the
// program's simulator: an event heap, per-node peer tables and a fresh
// payload per event, ~12 MiB in all.
constexpr std::uint32_t kSimNodes = 120;
constexpr std::uint32_t kSimPeers = 60;
constexpr std::size_t kSimPending = 4'000;
constexpr std::size_t kSimEvents = 100'000;
constexpr std::size_t kSimPayloadBytes = 96;
constexpr std::size_t kSimArenaBytes = std::size_t{16} << 20;

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

host_reference::host_reference(reference_kind kind)
    : kind_(kind),
      arena_(kind == reference_kind::sockets ? kHashArenaBytes : kSimArenaBytes) {
  if (kind_ == reference_kind::simulation) {
    simulate();  // faults the arena's pages in
    return;
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd_ < 0 || ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd_ >= 0) ::close(fd_);
    throw std::runtime_error("host reference: cannot open a loopback UDP socket");
  }
}

host_reference::~host_reference() {
  if (fd_ >= 0) ::close(fd_);
}

void host_reference::hash() {
  for (int r = 0; r < kHashRounds; ++r) {
    std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::uint64_t, std::uint64_t> table(&arena);
    std::uint64_t s = static_cast<std::uint64_t>(r);
    for (std::size_t i = 0; i < kHashKeys; ++i) table[splitmix(s)] = i;
    s = static_cast<std::uint64_t>(r);
    for (std::size_t i = 0; i < kHashKeys; ++i) {
      const auto it = table.find(splitmix(s));
      sink_ += it->second;
      if (i % 2 == 0) table.erase(it);
    }
    sink_ += table.size();
  }
}

void host_reference::udp() {
  std::array<std::array<unsigned char, kUdpBytes>, kUdpBatch> bufs{};
  std::array<iovec, kUdpBatch> iovs{};
  std::array<mmsghdr, kUdpBatch> msgs{};
  for (int r = 0; r < kUdpRounds; ++r) {
    for (unsigned i = 0; i < kUdpBatch; ++i) {
      iovs[i] = iovec{bufs[i].data(), bufs[i].size()};
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int sent = ::sendmmsg(fd_, msgs.data(), kUdpBatch, 0);
    for (int got = 0; sent > 0 && got < sent;) {
      const int n = ::recvmmsg(fd_, msgs.data(), kUdpBatch, MSG_DONTWAIT, nullptr);
      if (n <= 0) break;
      got += n;
    }
  }
}

void host_reference::simulate() {
  struct event {
    std::uint64_t at;
    std::uint32_t node;
  };
  using table = std::pmr::unordered_map<std::uint32_t, std::uint64_t>;
  std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::vector<table> tables(&arena);
  tables.reserve(kSimNodes);
  for (std::uint32_t n = 0; n < kSimNodes; ++n) {
    table& t = tables.emplace_back();
    for (std::uint32_t p = 0; p < kSimPeers; ++p) t[(n * 7 + p * 13) % kSimNodes] = 0;
  }
  const auto later = [](const event& a, const event& b) { return a.at > b.at; };
  std::pmr::vector<event> heap(&arena);
  heap.reserve(kSimPending + 1);
  std::uint64_t s = 11;
  for (std::size_t i = 0; i < kSimPending; ++i) {
    heap.push_back({splitmix(s) % 100'000, static_cast<std::uint32_t>(i % kSimNodes)});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  for (std::size_t i = 0; i < kSimEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const event e = heap.back();
    heap.pop_back();
    table& t = tables[e.node];
    const auto peer = static_cast<std::uint32_t>(splitmix(s) % kSimNodes);
    if (const auto it = t.find(peer); it != t.end()) {
      sink_ += it->second;
      it->second = e.at;
    } else {
      t[peer] = e.at;
    }
    auto* payload = static_cast<std::uint64_t*>(arena.allocate(kSimPayloadBytes, 8));
    payload[0] = e.at;
    payload[kSimPayloadBytes / 8 - 1] = sink_;
    heap.push_back({e.at + 1'000 + splitmix(s) % 50'000,
                    static_cast<std::uint32_t>(splitmix(s) % kSimNodes)});
    std::push_heap(heap.begin(), heap.end(), later);
  }
}

reference_sample host_reference::run() {
  // An untimed pass first, so that the timed one finds the same caches
  // whatever work ran on the thread before it.
  hash();
  if (kind_ == reference_kind::sockets) {
    udp();
    const std::int64_t w0 = steady_ns();
    const std::int64_t c0 = thread_cpu_ns();
    hash();
    udp();
    return {steady_ns() - w0, thread_cpu_ns() - c0};
  }
  // The hash-map churn is bound by the core, the simulation mostly by the
  // caches and memory; the simulator slows down with both. Each part
  // counts equally through the geometric mean of their times.
  const std::int64_t w0 = steady_ns();
  const std::int64_t c0 = thread_cpu_ns();
  hash();
  const std::int64_t w1 = steady_ns();
  const std::int64_t c1 = thread_cpu_ns();
  simulate();
  const std::int64_t w2 = steady_ns();
  const std::int64_t c2 = thread_cpu_ns();
  const auto geo = [](std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(
        std::sqrt(static_cast<double>(a) * static_cast<double>(b)));
  };
  return {geo(w1 - w0, w2 - w1), geo(c1 - c0, c2 - c1)};
}

}  // namespace e2e
