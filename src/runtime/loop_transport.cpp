#include "runtime/loop_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "obs/trace.hpp"

namespace omega::runtime {

namespace {

sockaddr_in to_sockaddr(const udp_endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &sa.sin_addr) != 1) {
    throw std::system_error(EINVAL, std::generic_category(),
                            "loop_udp_transport: bad host " + ep.host);
  }
  return sa;
}

}  // namespace

loop_udp_transport::loop_udp_transport(event_loop& loop, node_id self,
                                       udp_roster roster)
    : loop_(loop), self_(self) {
  auto it = roster.find(self_);
  if (it == roster.end()) {
    throw std::system_error(EINVAL, std::generic_category(),
                            "loop_udp_transport: self not in roster");
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  sockaddr_in self_addr = to_sockaddr(it->second);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&self_addr),
             sizeof(self_addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::system_error(err, std::generic_category(), "bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  queue_.reserve(event_loop::kBatch);
  set_roster(std::move(roster));
  loop_.add_socket(fd_, this);
}

loop_udp_transport::~loop_udp_transport() {
  loop_.remove_socket(fd_);  // syncs onto the loop: no drain can be running
  ::close(fd_);
}

void loop_udp_transport::set_roster(udp_roster roster) {
  roster_ = std::move(roster);
  peers_.clear();
  peer_addrs_.clear();
  for (const auto& [node, ep] : roster_) {
    const sockaddr_in sa = to_sockaddr(ep);
    peers_.emplace(peer_key(sa.sin_addr.s_addr, ntohs(sa.sin_port)), node);
    peer_addrs_.emplace(node, sa);
  }
}

void loop_udp_transport::set_receive_handler(net::receive_handler handler) {
  handler_ = std::move(handler);
}

node_id loop_udp_transport::classify_sender(std::uint32_t addr,
                                            std::uint16_t port) const {
  auto it = peers_.find(peer_key(addr, port));
  return it != peers_.end() ? it->second : node_id::invalid();
}

// ---- send paths -------------------------------------------------------------

void loop_udp_transport::send(node_id dst, std::span<const std::byte> payload) {
  auto it = peer_addrs_.find(dst);
  if (it == peer_addrs_.end()) return;  // unknown destination: drop (UDP-like)
  if (!loop_.opts().batching) {
    send_now(it->second, payload);
    return;
  }
  // The ring must own the bytes until the flush syscall: one copy into the
  // pool (recycled capacity, no allocation in steady state).
  enqueue(it->second, pool().copy(payload));
}

void loop_udp_transport::send(node_id dst, net::shared_payload payload) {
  auto it = peer_addrs_.find(dst);
  if (it == peer_addrs_.end()) return;
  if (!loop_.opts().batching) {
    send_now(it->second, payload.bytes());
    return;
  }
  enqueue(it->second, std::move(payload));  // zero-copy: reference rides
}

void loop_udp_transport::multicast(std::span<const node_id> dsts,
                                   net::shared_payload payload) {
  for (node_id dst : dsts) send(dst, payload);
}

void loop_udp_transport::multicast(std::span<const node_id> dsts,
                                   std::span<const std::byte> payload) {
  if (dsts.empty()) return;
  if (!loop_.opts().batching) {
    for (node_id dst : dsts) send(dst, payload);
    return;
  }
  // Copy once into the pool, then fan out by reference.
  multicast(dsts, pool().copy(payload));
}

void loop_udp_transport::send_now(const sockaddr_in& to,
                                  std::span<const std::byte> bytes) {
  ++loop_.stats_.sendto_calls;
  const ssize_t n =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  if (n < 0) {
    stats_.count_send_errno(errno);
    return;
  }
  ++stats_.datagrams_sent;
  stats_.bytes_sent += bytes.size();
  ++loop_.stats_.datagrams_sent;
  loop_.stats_.bytes_sent += bytes.size();
}

void loop_udp_transport::enqueue(const sockaddr_in& to,
                                 net::shared_payload payload) {
  if (queue_.size() >= max_queue) {
    flush();
    if (queue_.size() >= max_queue) {
      // Still backpressured after a flush attempt: UDP drops, but counted.
      ++stats_.send_queue_drops;
      return;
    }
  }
  queue_.push_back(pending{to, std::move(payload)});
  if (queue_.size() > stats_.send_queue_hwm) {
    stats_.send_queue_hwm = queue_.size();
  }
}

void loop_udp_transport::flush() {
  if (queue_.empty()) return;
  std::size_t done = 0;
  while (done < queue_.size()) {
    const std::size_t n = std::min(event_loop::kBatch, queue_.size() - done);
    mmsghdr msgs[event_loop::kBatch];
    iovec iovs[event_loop::kBatch];
    for (std::size_t i = 0; i < n; ++i) {
      pending& p = queue_[done + i];
      const std::span<const std::byte> bytes = p.payload.bytes();
      iovs[i].iov_base = const_cast<std::byte*>(bytes.data());
      iovs[i].iov_len = bytes.size();
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &p.to;
      msgs[i].msg_hdr.msg_namelen = sizeof(p.to);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    ++loop_.stats_.sendmmsg_calls;
    const int sent = ::sendmmsg(fd_, msgs, static_cast<unsigned>(n), 0);
    if (sent < 0) {
      const int err = errno;
      stats_.count_send_errno(err);
      if (err == EAGAIN || err == EWOULDBLOCK) {
        // Socket buffer full: keep the remainder queued for the next tick.
        break;
      }
      // A poison head entry (e.g. EMSGSIZE): count it, drop it, carry on.
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(done));
      continue;
    }
    for (int i = 0; i < sent; ++i) {
      ++stats_.datagrams_sent;
      stats_.bytes_sent += iovs[i].iov_len;
      loop_.stats_.bytes_sent += iovs[i].iov_len;
    }
    loop_.stats_.datagrams_sent += static_cast<std::uint64_t>(sent);
    done += static_cast<std::size_t>(sent);
    // On a partial batch the failing message's errno surfaces on the next
    // sendmmsg call, which the loop issues immediately.
  }
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(done));
}

// ---- receive path -----------------------------------------------------------

void loop_udp_transport::drain_rx() {
  const bool batching = loop_.opts().batching;
  if (!batching) {
    // Per-datagram baseline: one recvfrom(2) per datagram, until EAGAIN.
    // MSG_TRUNC makes it return the datagram's full length, so an
    // oversized one is detected like recvmmsg's msg_flags report it.
    for (;;) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      ++loop_.stats_.recvfrom_calls;
      const ssize_t n = ::recvfrom(fd_, loop_.rx_buf_.data(),
                                   event_loop::rx_slot_bytes, MSG_TRUNC,
                                   reinterpret_cast<sockaddr*>(&from),
                                   &from_len);
      if (n < 0) return;  // EAGAIN: drained (or socket gone)
      const auto len = static_cast<std::size_t>(n);
      deliver(from,
              std::span<const std::byte>(
                  loop_.rx_buf_.data(),
                  std::min(len, event_loop::rx_slot_bytes)),
              len > event_loop::rx_slot_bytes);
    }
  }
  for (;;) {
    mmsghdr msgs[event_loop::kBatch];
    iovec iovs[event_loop::kBatch];
    const std::size_t n = event_loop::kBatch;
    for (std::size_t i = 0; i < n; ++i) {
      iovs[i].iov_base = loop_.rx_buf_.data() + i * event_loop::rx_slot_bytes;
      iovs[i].iov_len = event_loop::rx_slot_bytes;
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &loop_.rx_addrs_[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    ++loop_.stats_.recvmmsg_calls;
    const int got = ::recvmmsg(fd_, msgs, static_cast<unsigned>(n),
                               MSG_DONTWAIT, nullptr);
    if (got <= 0) return;  // EAGAIN: drained
    for (int i = 0; i < got; ++i) {
      const bool truncated = (msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0;
      deliver(loop_.rx_addrs_[static_cast<std::size_t>(i)],
              std::span<const std::byte>(
                  static_cast<const std::byte*>(iovs[i].iov_base),
                  msgs[i].msg_len),
              truncated);
    }
    if (static_cast<std::size_t>(got) < n) return;  // short batch: drained
  }
}

void loop_udp_transport::deliver(const sockaddr_in& from,
                                 std::span<const std::byte> bytes,
                                 bool truncated) {
  ++stats_.datagrams_received;
  stats_.bytes_received += bytes.size();
  ++loop_.stats_.datagrams_received;
  loop_.stats_.bytes_received += bytes.size();
  if (truncated) {
    ++stats_.rx_truncated;
    return;
  }
  const node_id sender =
      classify_sender(from.sin_addr.s_addr, ntohs(from.sin_port));
  if (!sender.valid()) {
    // Not a roster peer: drop, but leave a trail (the transport-level twin
    // of the service's unknown-group accounting).
    ++stats_.rx_unknown_peer;
    if (sink_ != nullptr) {
      obs::trace_event ev;
      ev.kind = obs::event_kind::unknown_peer_drop;
      ev.at = loop_.now();
      ev.node = self_;
      ev.value = static_cast<double>(bytes.size());
      sink_->record(ev);
    }
    return;
  }
  if (handler_) handler_(net::datagram{sender, bytes});
}

}  // namespace omega::runtime
