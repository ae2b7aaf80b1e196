// `drive`: the timed phase. Sends the workload to a running daemon over
// loopback for --millis, records every request, then scrapes `stats`.
// Only this phase runs while the daemon is up; parsing and checking the
// answers happen in `check`. run.py drives one run's workload against
// several daemons in turn, one segment each; --first-unit continues the
// closed-loop stream where the previous segment stopped.
#include "common.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/// Blocking newline-framed loopback connection. Unlike the library's
/// ClientConnection it receives into a large buffer and scans only new
/// bytes for the frame end, so reading a 100 KB paths answer costs the
/// client a few recv calls and no rescans; with TCP_NODELAY the client
/// never holds back a request line.
class LineConnection {
 public:
  explicit LineConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string message =
          std::string("connect: ") + std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error(message);
    }
    buffer_.resize(1 << 20);
  }
  ~LineConnection() { ::close(fd_); }
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  /// Sends `line` plus its '\n' frame. Throws when the connection is
  /// lost.
  void send_line(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("connection lost while sending");
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The next response line without its '\n'. Throws when the server
  /// closed the connection first.
  std::string read_line() {
    for (;;) {
      const char* start = buffer_.data() + begin_;
      const void* newline = std::memchr(start + scanned_, '\n',
                                        end_ - begin_ - scanned_);
      if (newline != nullptr) {
        const std::size_t length =
            static_cast<std::size_t>(static_cast<const char*>(newline) -
                                     start);
        std::string line(start, length);
        begin_ += length + 1;
        scanned_ = 0;
        return line;
      }
      scanned_ = end_ - begin_;
      if (end_ == buffer_.size()) {
        if (begin_ > 0) {
          std::memmove(buffer_.data(), buffer_.data() + begin_,
                       end_ - begin_);
          end_ -= begin_;
          begin_ = 0;
        } else {
          buffer_.resize(buffer_.size() * 2);
        }
      }
      const ssize_t n =
          ::recv(fd_, buffer_.data() + end_, buffer_.size() - end_, 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("connection closed before response");
      }
      end_ += static_cast<std::size_t>(n);
    }
  }

  /// Half-closes the sending side (the daemon then ends the session
  /// after answering what it already read).
  void shutdown_send() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t scanned_ = 0;
};

[[nodiscard]] std::uint64_t uint_field(std::string_view text,
                                       std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) {
    return 0;
  }
  std::uint64_t value = 0;
  const char* first = text.data() + at + needle.size();
  std::from_chars(first, text.data() + text.size(), value);
  return value;
}

[[nodiscard]] std::string raw_field(std::string_view text,
                                    std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) {
    return "-";
  }
  const std::size_t first = at + needle.size();
  const std::size_t last = text.find_first_of(",}", first);
  return std::string(text.substr(first, last - first));
}

/// Number of [src,mid,dst] triples in a path array that starts at
/// `text[at]` ('[') - counted as the opening brackets inside it.
[[nodiscard]] std::uint64_t count_paths(std::string_view text,
                                        std::size_t at) {
  const std::size_t close = text.find(']', at + 1) == at + 1
                                ? at + 1
                                : text.find("]]", at) + 1;
  return static_cast<std::uint64_t>(
      std::count(text.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                 text.begin() + static_cast<std::ptrdiff_t>(close), '['));
}

/// Reads the fields `check` needs out of one response. Runs after the
/// receive timestamp, so it never counts toward a latency.
void read_response(const std::string& line, Record& record) {
  const std::string head = "{\"v\":1,\"id\":" + std::to_string(record.id) +
                           ",\"ok\":true,\"kind\":\"";
  record.ok = line.compare(0, head.size(), head) == 0;
  if (!record.ok) {
    return;
  }
  const std::string_view text(line);
  switch (record.kind) {
    case 'p': {
      const std::size_t grc = text.find("\"grc\":[");
      const std::size_t ma = text.find(",\"ma\":[");
      record.ok = grc != std::string_view::npos &&
                  ma != std::string_view::npos;
      if (record.ok) {
        record.grc = count_paths(text, grc + 6);
        record.ma = count_paths(text, ma + 6);
      }
      break;
    }
    case 'd':
      record.grc = uint_field(text, "grc_paths");
      record.ma = uint_field(text, "ma_paths");
      break;
    case 'w':
      record.recomputed = uint_field(text, "recomputed_sources");
      record.cached = uint_field(text, "cached_sources");
      record.ball = uint_field(text, "ball_size");
      record.utility = raw_field(text, "utility");
      break;
    case 'r':
      record.epoch = uint_field(text, "epoch");
      break;
    default:
      record.ok = false;
  }
}

/// A request and, for golden-subset requests, where to keep its answer.
struct Pending {
  Record record;
  std::string line;
  bool keep_answer = false;
};

/// Output of one connection's loop.
struct ConnectionLog {
  std::vector<Record> records;
  std::vector<std::pair<std::string, std::string>> golden;
};

/// One closed-loop exchange: send, wait for the answer, record. A lost
/// connection fails this request and reconnects for the next one.
void exchange(std::uint16_t port, std::unique_ptr<LineConnection>& conn,
              Pending pending, ConnectionLog& log) {
  Record& record = pending.record;
  std::string answer;
  record.sent = now_ns();
  try {
    if (!conn) {
      conn = std::make_unique<LineConnection>(port);
    }
    conn->send_line(pending.line);
    answer = conn->read_line();
    record.received = now_ns();
    read_response(answer, record);
  } catch (const std::exception&) {
    record.received = now_ns();
    record.ok = false;
    conn.reset();
  }
  if (pending.keep_answer && record.ok) {
    log.golden.emplace_back(std::move(pending.line), std::move(answer));
  }
  log.records.push_back(record);
}

/// The golden subset kept for the byte-identity check: one what-if in
/// 16, picked by a hash of the stream position (the stream is ordered by
/// cost quantile, so a plain stride would pick one cost band), and every
/// 64th lookup unit, capped because paths answers are ~100 KB.
[[nodiscard]] bool golden_whatif(std::size_t unit) {
  return ((unit + 1) * 0x9E3779B97F4A7C15ULL) >> 60 == 0;
}
constexpr std::size_t kGoldenLookupStride = 64;
constexpr std::size_t kGoldenLookupCap = 128;

/// whatif_scan and lookup_read: two connections, each a closed loop over
/// units drawn from one shared cursor that starts at `first_unit`, so the
/// completed requests are a contiguous piece of the stream. Returns the
/// first unit not sent.
std::size_t drive_closed_loop(Workload workload, const Stream& stream,
                              std::uint16_t port, std::size_t first_unit,
                              std::uint64_t deadline,
                              std::vector<ConnectionLog>& logs,
                              bool& exhausted) {
  std::atomic<std::size_t> cursor{first_unit};
  std::atomic<bool> ran_out{false};
  const auto loop = [&](ConnectionLog& log) {
    std::unique_ptr<LineConnection> conn;
    try {
      conn = std::make_unique<LineConnection>(port);
    } catch (const std::exception&) {
      // Counted as failed requests by exchange().
    }
    while (now_ns() < deadline) {
      const std::size_t unit = cursor.fetch_add(1);
      if (workload == Workload::kWhatIfScan) {
        if (unit >= stream.deltas.size()) {
          ran_out = true;
          return;
        }
        const auto [a, b] = stream.deltas[unit];
        Pending pending;
        pending.record.id = unit + 1;
        pending.record.kind = 'w';
        pending.record.a = a;
        pending.record.b = b;
        pending.line = delta_request(unit + 1, "whatif", a, b);
        pending.keep_answer = golden_whatif(unit);
        exchange(port, conn, std::move(pending), log);
      } else {
        const std::uint32_t src =
            stream.sources[unit % stream.sources.size()];
        const bool golden = unit % kGoldenLookupStride == 0 &&
                            unit / kGoldenLookupStride < kGoldenLookupCap;
        for (const char kind : {'p', 'd'}) {
          Pending pending;
          pending.record.id = 2 * unit + (kind == 'p' ? 1 : 2);
          pending.record.kind = kind;
          pending.record.source = src;
          pending.line = source_request(
              pending.record.id, kind == 'p' ? "paths" : "diversity", src);
          pending.keep_answer = golden;
          exchange(port, conn, std::move(pending), log);
        }
      }
    }
  };
  logs.resize(2);
  std::thread second(loop, std::ref(logs[1]));
  loop(logs[0]);
  second.join();
  exhausted = ran_out;
  return cursor.load();
}

/// First wire id of rebase_read's open-loop reads (rebases use 1..K).
constexpr std::uint64_t kReadIdBase = 1'000'000;

/// rebase_read: this thread commits the deployment program with a fixed
/// think time between commits (closed loop); a sender thread issues
/// reads on a fixed schedule over a second connection and a receiver
/// thread collects their answers (open loop).
void drive_rebase_read(const Stream& stream, std::uint16_t port,
                       std::uint64_t start, std::uint64_t deadline,
                       std::vector<ConnectionLog>& logs,
                       std::vector<double>& lateness_ms, bool& exhausted) {
  logs.resize(2);
  const std::uint64_t period =
      1'000'000'000ULL / std::max<std::uint64_t>(stream.read_rate_hz, 1);
  const std::size_t reads = (deadline - start) / period;
  // The schedule is filled in before the threads start; afterwards the
  // sender writes only `sent` and the receiver only the answer fields.
  std::vector<Record> read_records(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    Record& record = read_records[i];
    record.id = kReadIdBase + i;
    record.kind = i % 2 == 0 ? 'p' : 'd';
    record.source = stream.sources[(i / 2) % stream.sources.size()];
    record.due = start + i * period;
  }
  std::atomic<std::size_t> sent_count{0};
  std::atomic<bool> sending_done{false};
  std::unique_ptr<LineConnection> reader;
  try {
    reader = std::make_unique<LineConnection>(port);
  } catch (const std::exception&) {
    reader.reset();
  }

  std::thread sender([&] {
    for (std::size_t i = 0; i < reads; ++i) {
      Record& record = read_records[i];
      const std::string line = source_request(
          record.id, record.kind == 'p' ? "paths" : "diversity",
          record.source);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(record.due)));
      record.sent = now_ns();
      lateness_ms.push_back(static_cast<double>(record.sent - record.due) /
                            1e6);
      bool sent = false;
      if (reader) {
        try {
          reader->send_line(line);
          sent = true;
        } catch (const std::exception&) {
        }
      }
      if (!sent) {
        break;  // this read and the rest count as failed
      }
      sent_count.store(i + 1);
    }
    sending_done = true;
    if (reader) {
      reader->shutdown_send();
    }
  });

  // The receiver blocks on the socket. It ends once the sender is done
  // and every read it sent is answered, or when the daemon closes the
  // connection - which it does after answering everything sent before
  // the sender's half-close.
  std::thread receiver([&] {
    std::size_t received = 0;
    while (reader && !(sending_done.load() && received == sent_count.load())) {
      std::string line;
      try {
        line = reader->read_line();
      } catch (const std::exception&) {
        break;  // the rest stay unanswered, counted as failed below
      }
      const std::uint64_t at = now_ns();
      const std::uint64_t id = uint_field(line, "id");
      if (id < kReadIdBase || id - kReadIdBase >= reads) {
        continue;  // id 0: an error answer that lost its id
      }
      Record& record = read_records[id - kReadIdBase];
      record.received = at;
      read_response(line, record);
      ++received;
    }
  });

  std::unique_ptr<LineConnection> admin;
  std::size_t step = 0;
  while (now_ns() < deadline) {
    if (step >= stream.deltas.size()) {
      exhausted = true;
      break;
    }
    const auto [a, b] = stream.deltas[step];
    Pending pending;
    pending.record.id = step + 1;
    pending.record.kind = 'r';
    pending.record.a = a;
    pending.record.b = b;
    pending.line = delta_request(step + 1, "rebase", a, b);
    exchange(port, admin, std::move(pending), logs[0]);
    ++step;
    const std::uint64_t wake =
        std::min<std::uint64_t>(deadline,
                                 now_ns() + stream.think_ms * 1'000'000);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(wake)));
  }
  sender.join();
  receiver.join();
  // Reads the sender could not issue (lost connection) and reads never
  // answered count as failed.
  const std::size_t issued = sent_count.load();
  for (std::size_t i = 0; i < reads; ++i) {
    Record& record = read_records[i];
    if (i >= issued || record.received == 0) {
      record.sent = std::max(record.sent, record.due);
      record.received = record.sent;
      record.ok = false;
    }
    logs[1].records.push_back(record);
  }
}

}  // namespace

int cmd_drive(const Flags& flags) {
  const Workload workload = parse_workload(flags.str("workload"));
  const auto port = static_cast<std::uint16_t>(flags.num("port"));
  const std::uint64_t millis = flags.num("millis");
  const std::size_t first_unit =
      flags.has("first-unit") ? flags.num("first-unit") : 0;
  const Stream stream = read_stream(flags.str("stream"));
  const std::string out_dir = flags.str("out");
  if (stream.sources.empty() && workload != Workload::kWhatIfScan) {
    die("stream has no sources");
  }

  std::vector<ConnectionLog> logs;
  std::vector<double> lateness_ms;
  bool exhausted = false;
  std::size_t next_unit = 0;
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + millis * 1'000'000ULL;
  if (workload == Workload::kRebaseRead) {
    drive_rebase_read(stream, port, start, deadline, logs, lateness_ms,
                      exhausted);
  } else {
    next_unit = drive_closed_loop(workload, stream, port, first_unit,
                                  deadline, logs, exhausted);
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;

  // The stats scrape comes after the timed phase: peak RSS, memo and
  // queue counters as the daemon saw the run.
  std::string stats;
  try {
    LineConnection conn(port);
    conn.send_line("{\"v\":1,\"id\":999999999,\"kind\":\"stats\"}");
    stats = conn.read_line();
  } catch (const std::exception& e) {
    stats = std::string("error: ") + e.what();
  }

  std::vector<Record> records;
  std::ofstream golden(out_dir + "/golden.txt");
  for (ConnectionLog& log : logs) {
    records.insert(records.end(), log.records.begin(), log.records.end());
    for (const auto& [request, answer] : log.golden) {
      golden << request << "\n" << answer << "\n";
    }
  }
  std::sort(records.begin(), records.end(),
            [](const Record& x, const Record& y) { return x.id < y.id; });
  write_records(out_dir + "/records.txt", records);

  std::ofstream summary(out_dir + "/summary.txt");
  // Requests the daemon should count at its drain: every record that
  // reached a send, plus the stats scrape.
  std::size_t sent = 1;
  for (const Record& record : records) {
    sent += record.sent != 0 ? 1 : 0;
  }
  summary << "sent " << sent << "\nwall_s " << wall_s << "\nexhausted "
          << exhausted << "\nnext_unit " << next_unit << "\nlate_p95_ms "
          << (lateness_ms.empty() ? 0.0 : percentile(lateness_ms, 95))
          << "\nlate_max_ms "
          << (lateness_ms.empty()
                  ? 0.0
                  : *std::max_element(lateness_ms.begin(),
                                      lateness_ms.end()))
          << "\n";
  std::ofstream(out_dir + "/stats.txt") << stats << "\n";
  if (!summary || !golden) {
    die("cannot write the drive output under " + out_dir);
  }
  return 0;
}

}  // namespace perfbench
