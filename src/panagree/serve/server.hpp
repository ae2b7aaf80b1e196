// serve::Server - the network front end of the query engine.
//
// One accept loop on a loopback TCP socket, a FIXED pool of reader
// threads multiplexing all accepted connections through poll()
// readiness, and a pool of worker threads draining a bounded request
// queue. The accept loop deals connections round-robin to the reader
// shards; each reader owns its connections' read buffers and splits the
// byte streams into newline-delimited request lines. Serving thousands
// of idle clients therefore costs table entries, not a blocked thread
// stack per connection (the old thread-per-connection readers). When the
// queue is full a reader blocks (backpressure on the socket - stalling
// one reader stalls its shard of connections, never unbounded memory).
// Workers hand each line to QueryEngine::handle_line and write the
// response back under the connection's write lock - responses carry the
// request id, so clients that pipeline match them by id rather than by
// stream order.
//
// stop() is a graceful drain: stop accepting, shut the read half of
// every connection, finish every request already queued, flush the
// responses, then join. The panagree-serve tool wires SIGTERM/SIGINT to
// exactly this, so an orchestrator's TERM never drops an accepted
// request.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "panagree/serve/query_engine.hpp"

namespace panagree::serve {

/// Socket-layer failure (bind, listen, accept loop setup).
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Worker threads draining the request queue.
  std::size_t worker_threads = 2;
  /// Bounded request queue; readers block when it is full.
  std::size_t max_queue = 1024;
};

class Server {
 public:
  /// `engine` must be primed and outlive the server; `rebase` requests
  /// commit to it.
  Server(QueryEngine& engine, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept loop + reader pool + workers.
  /// Throws ServeError if the socket cannot be set up.
  void start();

  /// The bound port (after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Graceful drain (see the header comment). Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  /// Requests answered so far (including error responses).
  [[nodiscard]] std::size_t handled_requests() const {
    return handled_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  /// One pooled reader: a poll() loop over the connections the accept
  /// loop dealt to it, plus a wakeup pipe for handoffs and stop().
  struct ReaderShard;
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    std::string line;
    /// Reader-side enqueue timestamp (stage_now_ns clock): the queue
    /// stage of the request's stage clock starts here. 0 under
    /// PANAGREE_OBS_OFF.
    std::uint64_t enqueue_ns = 0;
  };

  void accept_loop();
  void reader_loop(ReaderShard& shard);
  void worker_loop();
  void enqueue(WorkItem item);

  QueryEngine* engine_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool running_ = false;

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<ReaderShard>> reader_shards_;
  /// Round-robin dealing cursor; only the accept thread touches it.
  std::size_t next_shard_ = 0;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable space_cv_;
  std::deque<WorkItem> queue_;
  bool draining_ = false;

  std::atomic<std::size_t> handled_{0};
};

}  // namespace panagree::serve
