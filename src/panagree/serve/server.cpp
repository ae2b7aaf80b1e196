#include "panagree/serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <utility>

#include "panagree/obs/metrics.hpp"

namespace panagree::serve {

namespace {

// Server-level metrics: connection/queue behavior (request-level
// accounting lives in QueryEngine::handle_line, shared with --direct).
struct ServerMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& accepts = reg.counter("server.accepts");
  obs::Counter& backpressure_waits = reg.counter("server.backpressure_waits");
  obs::Counter& send_drops = reg.counter("server.send_drops");
  obs::Counter& oversize_drops = reg.counter("server.oversize_drops");
  obs::Gauge& queue_depth = reg.gauge("server.queue_depth");
  obs::Gauge& queue_depth_hwm = reg.gauge("server.queue_depth_hwm");
};

[[nodiscard]] ServerMetrics& server_metrics() {
  static ServerMetrics metrics;
  return metrics;
}

/// A request line longer than this is rejected and its connection
/// dropped: the protocol's objects are small, so an unbounded line is a
/// broken or hostile client, not a big request.
constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Pooled reader threads; the accept loop deals connections round-robin
/// across them. 2 keeps one shard making progress while the other blocks
/// on queue backpressure.
constexpr std::size_t kReaderThreads = 2;

/// Per-send() blocking bound (SO_SNDTIMEO): a client that stops reading
/// its responses costs a worker at most this long per write attempt
/// before the connection is dropped, so a wedged client can delay the
/// graceful drain but never hang it.
constexpr time_t kSendTimeoutSeconds = 30;

[[noreturn]] void fail(const char* what) {
  throw ServeError(std::string("serve: ") + what + ": " +
                   std::strerror(errno));
}

void validate(const ServerConfig& config) {
  util::require(config.worker_threads > 0,
                "Server: need at least one worker thread");
  util::require(config.max_queue > 0, "Server: need a non-empty queue");
}

/// False when the peer is gone or stopped reading (send timeout): the
/// caller drops the connection and the drain continues for the others.
/// EINTR retries: panagree-serve's signal handlers run without
/// SA_RESTART, and a SIGTERM landing on a worker mid-send must not
/// truncate the in-flight response (the drain guarantee).
[[nodiscard]] bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the server.
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

struct Server::Connection {
  explicit Connection(int descriptor) : fd(descriptor) {}
  ~Connection() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd = -1;
  /// Serializes response writes from concurrent workers.
  std::mutex write_mutex;
};

struct Server::ReaderShard {
  ~ReaderShard() {
    if (wake_fds[0] >= 0) {
      ::close(wake_fds[0]);
    }
    if (wake_fds[1] >= 0) {
      ::close(wake_fds[1]);
    }
  }

  /// Wakes the reader out of poll(). Best effort: the pipe is
  /// non-blocking, and a full pipe already guarantees a pending wakeup.
  void notify() const {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds[1], &byte, 1);
  }

  /// wake_fds[0] sits in the reader's poll set; everyone else writes a
  /// byte to wake_fds[1] after touching `pending` or `stopping_`.
  int wake_fds[2] = {-1, -1};
  std::thread thread;
  std::mutex mutex;
  /// Dealt by the accept loop, adopted by the reader at its next wakeup.
  std::vector<std::shared_ptr<Connection>> pending;
  /// Mirror of the reader's adopted connections, for stop()'s SHUT_RD
  /// sweep (the reader's own tracking state stays thread-private).
  std::vector<std::shared_ptr<Connection>> live;
};

Server::Server(QueryEngine& engine, ServerConfig config)
    : engine_(&engine), config_(config) {
  validate(config_);
}

Server::~Server() { stop(); }

void Server::start() {
  util::require(!running_, "Server: already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    fail("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  stopping_ = false;
  draining_ = false;
  next_shard_ = 0;
  reader_shards_.reserve(kReaderThreads);
  for (std::size_t i = 0; i < kReaderThreads; ++i) {
    auto shard = std::make_unique<ReaderShard>();
    // Non-blocking both ways: the reader drains the pipe without
    // blocking, and notify() never stalls an accept or stop on a full
    // pipe (a full pipe is already a pending wakeup).
    if (::pipe2(shard->wake_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
      const int saved = errno;
      reader_shards_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      errno = saved;
      fail("pipe2");
    }
    reader_shards_.push_back(std::move(shard));
  }
  workers_.reserve(config_.worker_threads);
  try {
    for (const std::unique_ptr<ReaderShard>& shard : reader_shards_) {
      ReaderShard* raw = shard.get();
      raw->thread = std::thread([this, raw] { reader_loop(*raw); });
    }
    for (std::size_t i = 0; i < config_.worker_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    // Spawned last: on a throw above there is no accept thread to stop.
    accept_thread_ = std::thread([this] { accept_loop(); });
  } catch (...) {
    // Thread spawn failed (resource pressure): release the readers and
    // workers that did start and surface the error instead of
    // terminating on a joinable-thread destructor.
    stopping_ = true;
    for (const std::unique_ptr<ReaderShard>& shard : reader_shards_) {
      shard->notify();
    }
    for (const std::unique_ptr<ReaderShard>& shard : reader_shards_) {
      if (shard->thread.joinable()) {
        shard->thread.join();
      }
    }
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      draining_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
    workers_.clear();
    reader_shards_.clear();
    stopping_ = false;
    draining_ = false;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw;
  }
  running_ = true;
}

void Server::stop() {
  if (!running_) {
    return;
  }
  stopping_ = true;
  // Unblock accept(); the loop exits on the resulting error. After this
  // join no new connections can be dealt to a reader shard.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  // Shut only the read half of every connection (dealt or adopted):
  // readers see EOF, enqueue any trailing lines, and retire the
  // connections, while pending responses still flush.
  for (const std::unique_ptr<ReaderShard>& shard : reader_shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const std::shared_ptr<Connection>& conn : shard->pending) {
      ::shutdown(conn->fd, SHUT_RD);
    }
    for (const std::shared_ptr<Connection>& conn : shard->live) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  // Readers blocked on a full queue release on stopping_ (the queue may
  // overshoot its bound by at most one line per reader during the drain).
  space_cv_.notify_all();
  for (const std::unique_ptr<ReaderShard>& shard : reader_shards_) {
    shard->notify();
  }
  for (const std::unique_ptr<ReaderShard>& shard : reader_shards_) {
    shard->thread.join();
  }
  // Every request line is enqueued; let the workers drain the queue.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  reader_shards_.clear();  // closes wake pipes and remaining descriptors
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_ = false;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      if (errno == EBADF || errno == EINVAL) {
        return;  // listening socket gone; drain what we have
      }
      // Everything else (EMFILE/ENFILE fd pressure, ENOBUFS/ENOMEM,
      // network errnos accept(2) says to retry) must not kill the
      // accept loop silently: say so, shed load briefly, keep going.
      std::cerr << "[serve] accept: " << std::strerror(errno)
                << "; retrying\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (stopping_) {
      ::close(fd);
      return;
    }
    server_metrics().accepts.increment();
    // Bound how long a worker can block writing to a client that
    // stopped reading (see kSendTimeoutSeconds).
    const timeval timeout{.tv_sec = kSendTimeoutSeconds, .tv_usec = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    // Deal round-robin: connection counts stay balanced across readers
    // without any shared load accounting.
    ReaderShard& shard = *reader_shards_[next_shard_];
    next_shard_ = (next_shard_ + 1) % reader_shards_.size();
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.pending.push_back(std::make_shared<Connection>(fd));
    }
    shard.notify();
  }
}

void Server::reader_loop(ReaderShard& shard) {
  /// The reader's private per-connection state; `shard.live` mirrors the
  /// conn pointers so stop() can reach the fds without racing us.
  struct Tracked {
    std::shared_ptr<Connection> conn;
    std::string buffer;
  };
  std::vector<Tracked> conns;
  std::vector<pollfd> pfds;
  char chunk[4096];
  const auto drop = [&](std::size_t index) {
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      auto& live = shard.live;
      live.erase(std::remove(live.begin(), live.end(), conns[index].conn),
                 live.end());
    }
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(index));
  };
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      for (std::shared_ptr<Connection>& conn : shard.pending) {
        conns.push_back(Tracked{std::move(conn), {}});
        shard.live.push_back(conns.back().conn);
      }
      shard.pending.clear();
    }
    if (stopping_.load(std::memory_order_relaxed) && conns.empty()) {
      return;
    }
    pfds.clear();
    pfds.push_back(pollfd{shard.wake_fds[0], POLLIN, 0});
    for (const Tracked& tracked : conns) {
      pfds.push_back(pollfd{tracked.conn->fd, POLLIN, 0});
    }
    const int ready = ::poll(pfds.data(),
                             static_cast<nfds_t>(pfds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;  // a signal mid-poll is not an error
      }
      std::cerr << "[serve] poll: " << std::strerror(errno)
                << "; retrying\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (pfds[0].revents != 0) {
      char drained[64];
      while (::read(shard.wake_fds[0], drained, sizeof(drained)) > 0) {
      }
    }
    // Backwards so drop(index) never shifts a conns[i] <-> pfds[i + 1]
    // pairing we have yet to visit.
    for (std::size_t index = conns.size(); index-- > 0;) {
      if (pfds[index + 1].revents == 0) {
        continue;
      }
      Tracked& tracked = conns[index];
      // One recv per readiness: poll() said POLLIN (or HUP/ERR, where
      // recv reports the condition), so a single blocking recv cannot
      // stall the shard's other connections.
      const ssize_t n = ::recv(tracked.conn->fd, chunk, sizeof(chunk), 0);
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)) {
        continue;
      }
      if (n <= 0) {
        // EOF or error. NDJSON convenience first: serve a trailing
        // request the client forgot to newline-terminate before closing
        // its write half.
        if (!tracked.buffer.empty() && tracked.buffer != "\r") {
          enqueue(WorkItem{tracked.conn, std::move(tracked.buffer),
                           stage_now_ns()});
        }
        drop(index);
        continue;
      }
      tracked.buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (;;) {
        const std::size_t newline = tracked.buffer.find('\n', begin);
        if (newline == std::string::npos) {
          break;
        }
        std::string line = tracked.buffer.substr(begin, newline - begin);
        begin = newline + 1;
        if (!line.empty() && line != "\r") {
          enqueue(WorkItem{tracked.conn, std::move(line), stage_now_ns()});
        }
      }
      tracked.buffer.erase(0, begin);
      if (tracked.buffer.size() > kMaxLineBytes) {
        server_metrics().oversize_drops.increment();
        std::string out;
        append_error_response(out, 0, "request line too long");
        {
          const std::lock_guard<std::mutex> lock(tracked.conn->write_mutex);
          (void)send_all(tracked.conn->fd, out);
        }
        // Read half only: responses for lines already enqueued still
        // flush; the fd closes when the last queued WorkItem releases it.
        ::shutdown(tracked.conn->fd, SHUT_RD);
        drop(index);
      }
    }
  }
}

void Server::enqueue(WorkItem item) {
  ServerMetrics& metrics = server_metrics();
  std::unique_lock<std::mutex> lock(queue_mutex_);
  if (queue_.size() >= config_.max_queue &&
      !stopping_.load(std::memory_order_relaxed)) {
    // The queue bound is backpressure, not a drop: the reader (and with
    // it the shard's clients' TCP windows) stalls until a worker makes
    // room.
    metrics.backpressure_waits.increment();
  }
  space_cv_.wait(lock, [this] {
    return queue_.size() < config_.max_queue ||
           stopping_.load(std::memory_order_relaxed);
  });
  queue_.push_back(std::move(item));
  const auto depth = static_cast<std::int64_t>(queue_.size());
  lock.unlock();
  metrics.queue_depth.set(depth);
  metrics.queue_depth_hwm.update_max(depth);
  queue_cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
    if (queue_.empty()) {
      return;  // draining and nothing left
    }
    WorkItem item = std::move(queue_.front());
    queue_.pop_front();
    server_metrics().queue_depth.set(
        static_cast<std::int64_t>(queue_.size()));
    lock.unlock();
    space_cv_.notify_one();

    std::string out;
    RequestStages stages;
    stages.enqueue_ns = item.enqueue_ns;
    engine_->handle_line(item.line, out, &stages);
    {
      const std::lock_guard<std::mutex> write(item.conn->write_mutex);
      const std::uint64_t send_start_ns = stage_now_ns();
      if (!send_all(item.conn->fd, out)) {
        // Peer gone or not reading (send timeout): drop the connection
        // so its reader retires it and later responses fail fast instead
        // of blocking more workers.
        server_metrics().send_drops.increment();
        ::shutdown(item.conn->fd, SHUT_RDWR);
      }
      stages.send_ns = stage_now_ns() - send_start_ns;
    }
    handled_.fetch_add(1, std::memory_order_relaxed);
    // Observation completes only after the response bytes are on the
    // socket: the send stage is real, and a slowlog request can never
    // observe itself.
    finish_request_observation(stages);
  }
}

}  // namespace panagree::serve
