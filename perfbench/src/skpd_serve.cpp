// skpd_serve: one spawned skpd daemon driven by a single-threaded,
// poll-driven open-loop generator over at most kLanes connections.
//
// Step i of a phase at rate R is due at t0 + i / R and is sent on the
// next connection whose session still needs steps (pipelined: any number
// in flight). Latency runs from the due time to the STEP_RESULT, so a
// stall anywhere is charged to every step queued behind it; the
// generator's own lateness (send - due) is recorded, and a phase whose
// generator fell behind (lag p99 over kLagLimitUs) is invalid: it is not
// scored (a ladder rung that is invalid does not pass).
//
// Sessions are oracle netsim_des specs with seeded, heavy-tailed lengths
// (many short, few long), so HELLO -> WELCOME session creation and
// STATS / BYE teardown run beside the STEPs. Each connection carries one
// session; after its STATS_RESULT the connection closes and the lane
// opens the next session.
//
// Phases: warm-up, the reference rate (step and session-open latency),
// then the rate ladder and a bisection for max_steps_per_s. Afterwards
// every STEP_RESULT is compared with an in-process shadow NetsimStepper
// and every STATS_RESULT with run_sim(spec).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/catalog.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/skpd_protocol.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace skp;

constexpr std::size_t kLanes = 4;
constexpr std::size_t kSetupReps = 5;
// The reference rate for step latency, the p99 limit a ladder rate must
// meet, the rate ladder itself and the generator-lag validity limit. The
// limit sits above the scheduling noise of a shared 4-vCPU VM (sleeping
// threads there wake up to ~5 ms late at p99), so the ladder finds the
// daemon's saturation knee rather than the host's jitter.
constexpr double kRefRate = 24'000.0;
constexpr double kLimitUs = 10'000.0;
constexpr double kLagLimitUs = 2'500.0;
constexpr double kLadder[] = {8'000.0,  16'000.0, 24'000.0, 32'000.0,
                              40'000.0, 48'000.0, 56'000.0, 64'000.0};
constexpr int kBisections = 3;
// Tail percentiles are medians over windows of this many consecutive
// samples (steps, session opens), so one burst of host noise moves one
// window, not the figure; each window still has >= 10 samples past p99.
constexpr std::size_t kWindow = 2'000;
constexpr std::size_t kOpenWindow = 1'000;
constexpr std::int64_t kSpinNs = 2'000'000;

// ---- The daemon ----------------------------------------------------------

class Daemon {
 public:
  explicit Daemon(const std::string& bin) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(bin.c_str(), bin.c_str(), "--port=0", "--keepalive=600",
              "--session-linger=600", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    pid_ = pid;
    ::close(out[1]);
    std::string line;
    char c = 0;
    while (::read(out[0], &c, 1) == 1) {
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      if (line.rfind("SKPD_PORT=", 0) == 0) {
        port_ = std::atoi(line.c_str() + 10);
        break;
      }
      line.clear();
    }
    ::close(out[0]);
    if (port_ <= 0) {
      kill_now();
      throw std::runtime_error("skpd '" + bin + "' did not announce a port");
    }
  }
  ~Daemon() { kill_now(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }

  // SIGTERM drain; true when the daemon exited 0.
  bool terminate() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  // utime + stime in seconds, from /proc/<pid>/stat.
  double cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int i = 3; i <= 15 && (rest >> field); ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  // VmHWM of the daemon, MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        in >> kb;
        return kb / 1024.0;
      }
      std::string skip;
      std::getline(in, skip);
    }
    return 0.0;
  }

 private:
  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// ---- Sessions ------------------------------------------------------------

SimSpec session_spec(std::uint64_t seed, std::size_t k) {
  const std::uint64_t h = mix_seed(seed, 2'000'000 + k);
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.kind = SimWorkloadKind::Markov;
  spec.workload.n_items = 100;
  spec.seed = mix_seed(seed, 3'000'000 + h % 3) >> 1;  // three groups
  // Pareto(x_m = 4, alpha = 1.3) lengths, capped at 400 cycles.
  const double u =
      (static_cast<double>((h >> 11) & ((1ULL << 40) - 1)) + 0.5) /
      static_cast<double>(1ULL << 40);
  spec.requests = static_cast<std::size_t>(
      std::min(400.0, std::floor(4.0 / std::pow(u, 1.0 / 1.3))));
  static constexpr std::size_t kCaches[] = {5, 10, 20};
  spec.cache_size = kCaches[(h >> 3) % 3];
  spec.policy = (h >> 6) % 4 == 0 ? PrefetchPolicy::KP : PrefetchPolicy::SKP;
  return spec;
}

struct Session {
  SimSpec spec;
  std::vector<NetsimStepSnapshot> snaps;
  std::string stats;
  bool complete = false;
};

// Counters of one phase.
struct Phase {
  Phase(double rate, std::int64_t t0) : book(rate, t0) {}
  OpenLoopBook book;
  std::vector<double> open_us;
  std::vector<double> inflight;
  std::uint64_t total = 0;      // steps scheduled
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::int64_t last_done = 0;
  std::uint64_t backlog_end = 0;  // due but unanswered at schedule end
  double round_trip_ns = 0.0;     // sum of send -> STEP_RESULT times
};

struct InFlight {
  Phase* phase;  // nullptr for unscored tail steps
  std::uint64_t index;
  std::int64_t sent;
};

struct Lane {
  enum State { kIdle, kOpening, kActive, kFinishing };
  State state = kIdle;
  int fd = -1;
  std::size_t session = 0;
  std::uint64_t sent_seq = 0, recv_seq = 0;
  std::int64_t open_start = 0;
  Phase* open_phase = nullptr;
  std::deque<InFlight> inflight;
  std::string rx, tx;
  std::size_t rx_off = 0, tx_off = 0;
};

class Generator {
 public:
  Generator(const RunArgs& args, int port, Report& rep)
      : args_(args), port_(port), rep_(rep) {}
  ~Generator() {
    for (Lane& l : lanes_) {
      if (l.fd >= 0) ::close(l.fd);
    }
  }

  std::vector<Session>& sessions() noexcept { return sessions_; }
  std::uint64_t wire_bytes() const noexcept { return wire_bytes_; }
  std::uint64_t steps() const noexcept { return steps_; }
  double codec_ns() const noexcept { return codec_ns_; }

  // Runs one open-loop phase; nullptr phase = finish every open session
  // with unscored steps.
  void run(Phase* phase, double seconds) {
    const std::uint64_t total =
        phase ? static_cast<std::uint64_t>(phase->book.rate() * seconds) : 0;
    if (phase) phase->total = total;
    std::uint64_t released = 0;
    std::deque<std::uint64_t> pending;
    const std::int64_t end_due = phase ? phase->book.due(total) : now_ns();
    const std::int64_t hard_end = end_due + 3'000'000'000LL;
    bool backlog_taken = phase == nullptr;
    for (;;) {
      const std::int64_t now = now_ns();
      if (phase) {
        const std::uint64_t due = std::min(total, phase->book.due_by(now));
        // The generator's own lateness: how long after its due time the
        // loop got to a step (waiting for a connection is not counted
        // here; it is part of the step's latency).
        while (released < due) {
          phase->book.released(released, now);
          pending.push_back(released++);
        }
        if (!backlog_taken && now >= end_due) {
          backlog_taken = true;
          phase->backlog_end = total - phase->completed;
        }
      }
      const bool more = phase ? released < total || !pending.empty()
                              : any_unfinished();
      for (Lane& l : lanes_) {
        if (l.state == Lane::kIdle && more && phase) open(l, phase);
      }
      dispatch(phase, pending);
      if (!phase) finish_open_sessions();
      for (Lane& l : lanes_) flush(l);
      const bool idle = !more && inflight() == 0 &&
                        (phase || !any_unfinished());
      if (idle || now > hard_end) {
        if (now > hard_end) fail_inflight("phase deadline passed");
        break;
      }
      wait_and_read(phase && released < total ? phase->book.due(released)
                                              : now + 1'000'000);
    }
  }

 private:
  std::size_t inflight() const {
    std::size_t n = 0;
    for (const Lane& l : lanes_) n += l.inflight.size();
    return n;
  }

  bool any_unfinished() const {
    for (const Lane& l : lanes_) {
      if (l.state != Lane::kIdle) return true;
    }
    return false;
  }

  void frame(Lane& l, SkpdFrameType type, const std::string& payload) {
    append_skpd_frame(l.tx, type, payload);
  }

  void open(Lane& l, Phase* phase) {
    const std::size_t k = sessions_.size();
    sessions_.push_back({session_spec(args_.seed, k), {}, {}, false});
    l.open_start = now_ns();
    l.open_phase = phase;
    l.fd = connect_loopback(port_);
    rep_.check(l.fd >= 0, "skpd_serve: connect failed");
    if (l.fd < 0) return;
    l.session = k;
    l.sent_seq = l.recv_seq = 0;
    l.rx.clear();
    l.tx.clear();
    l.rx_off = l.tx_off = 0;
    SkpdHello hello;
    hello.spec_text = encode_sim_spec(sessions_[k].spec);
    frame(l, SkpdFrameType::kHello, encode_hello(hello));
    l.state = Lane::kOpening;
  }

  // Sends every pending step on an active lane, round robin.
  void dispatch(Phase* phase, std::deque<std::uint64_t>& pending) {
    if (phase == nullptr) return;  // tail mode schedules nothing
    while (!pending.empty()) {
      Lane* lane = nullptr;
      for (std::size_t k = 0; k < kLanes; ++k) {
        Lane& l = lanes_[(rr_ + k) % kLanes];
        if (l.state == Lane::kActive) {
          lane = &l;
          rr_ = (rr_ + k + 1) % kLanes;
          break;
        }
      }
      if (lane == nullptr) return;
      const std::uint64_t i = pending.front();
      pending.pop_front();
      const std::int64_t now = now_ns();
      send_step(*lane, phase, i, now);
      phase->inflight.push_back(static_cast<double>(inflight()));
    }
  }

  void send_step(Lane& l, Phase* phase, std::uint64_t index,
                 std::int64_t now) {
    SkpdStep step;
    step.seq = ++l.sent_seq;
    step.ack = l.recv_seq;
    const std::int64_t c0 = args_.trace ? now_ns() : 0;
    frame(l, SkpdFrameType::kStep, encode_step(step));
    if (args_.trace) codec_ns_ += static_cast<double>(now_ns() - c0);
    l.inflight.push_back({phase, index, now});
    if (l.sent_seq == sessions_[l.session].spec.requests) {
      frame(l, SkpdFrameType::kStats, "");
      frame(l, SkpdFrameType::kBye, "");
      l.state = Lane::kFinishing;
    }
  }

  // Tail mode: drive every open session to its end without scoring.
  void finish_open_sessions() {
    for (Lane& l : lanes_) {
      while (l.state == Lane::kActive) send_step(l, nullptr, 0, now_ns());
    }
  }

  void flush(Lane& l) {
    while (l.fd >= 0 && l.tx_off < l.tx.size()) {
      const ssize_t n = ::send(l.fd, l.tx.data() + l.tx_off,
                               l.tx.size() - l.tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        l.tx_off += static_cast<std::size_t>(n);
        wire_bytes_ += static_cast<std::uint64_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      drop(l, "send failed");
      return;
    }
    if (l.tx_off == l.tx.size()) {
      l.tx.clear();
      l.tx_off = 0;
    }
  }

  void wait_and_read(std::int64_t until) {
    pollfd pfds[kLanes];
    nfds_t n = 0;
    Lane* owners[kLanes];
    for (Lane& l : lanes_) {
      if (l.fd < 0) continue;
      pfds[n].fd = l.fd;
      pfds[n].events = POLLIN;
      if (l.tx_off < l.tx.size()) pfds[n].events |= POLLOUT;
      pfds[n].revents = 0;
      owners[n++] = &l;
    }
    // A sleeping vCPU wakes late (tens of us, sometimes ms), so the
    // generator spins when the next step is due within kSpinNs.
    std::int64_t wait = std::max<std::int64_t>(0, until - now_ns());
    if (wait < kSpinNs) wait = 0;
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(pfds, n, &ts, nullptr) <= 0) return;
    for (nfds_t k = 0; k < n; ++k) {
      if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) read(*owners[k]);
    }
  }

  void read(Lane& l) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(l.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        wire_bytes_ += static_cast<std::uint64_t>(n);
        l.rx.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      drop(l, "connection closed by the daemon");
      return;
    }
    const std::int64_t now = now_ns();
    for (;;) {
      const std::int64_t c0 = args_.trace ? now_ns() : 0;
      std::optional<SkpdFrame> f;
      try {
        f = parse_skpd_frame(l.rx, l.rx_off);
      } catch (const std::exception& e) {
        drop(l, e.what());
        return;
      }
      if (!f) break;
      if (f->type == SkpdFrameType::kStepResult) {
        const NetsimStepSnapshot snap = decode_step_result(f->payload);
        if (args_.trace) codec_ns_ += static_cast<double>(now_ns() - c0);
        on_result(l, snap, now);
      } else if (f->type == SkpdFrameType::kWelcome) {
        decode_welcome(f->payload);
        if (l.open_phase) {
          l.open_phase->open_us.push_back(
              static_cast<double>(now - l.open_start) / 1e3);
        }
        l.state = Lane::kActive;
      } else if (f->type == SkpdFrameType::kStatsResult) {
        Session& s = sessions_[l.session];
        s.stats = std::string(f->payload);
        s.complete = true;
        ::close(l.fd);
        l.fd = -1;
        l.state = Lane::kIdle;
        return;
      } else if (f->type == SkpdFrameType::kPing) {
        frame(l, SkpdFrameType::kPong,
              encode_ping(decode_ping(f->payload)));
      } else {
        drop(l, "unexpected " + std::string(to_string(f->type)) + " frame: " +
                    std::string(f->payload));
        return;
      }
    }
    if (l.rx_off == l.rx.size()) {
      l.rx.clear();
      l.rx_off = 0;
    }
  }

  void on_result(Lane& l, const NetsimStepSnapshot& snap, std::int64_t now) {
    if (l.inflight.empty()) {
      drop(l, "unsolicited STEP_RESULT");
      return;
    }
    const InFlight f = l.inflight.front();
    l.inflight.pop_front();
    l.recv_seq = snap.seq;
    sessions_[l.session].snaps.push_back(snap);
    ++steps_;
    rep_.check(snap.seq == sessions_[l.session].snaps.size(),
               "skpd_serve: STEP_RESULT out of sequence");
    if (f.phase) {
      f.phase->book.done(f.index, now);
      ++f.phase->completed;
      f.phase->last_done = now;
      f.phase->round_trip_ns += static_cast<double>(now - f.sent);
    }
  }

  void fail_inflight(const std::string& why) {
    for (Lane& l : lanes_) {
      if (l.state != Lane::kIdle) drop(l, why);
    }
  }

  // A broken connection: every step it still owed fails.
  void drop(Lane& l, const std::string& why) {
    for (const InFlight& f : l.inflight) {
      rep_.check(false, "skpd_serve: step lost (" + why + ")");
      if (f.phase) ++f.phase->failed;
    }
    if (l.inflight.empty()) rep_.check(false, "skpd_serve: " + why);
    l.inflight.clear();
    if (l.fd >= 0) ::close(l.fd);
    l.fd = -1;
    l.state = Lane::kIdle;
  }

  const RunArgs& args_;
  int port_;
  Report& rep_;
  Lane lanes_[kLanes];
  std::size_t rr_ = 0;
  std::vector<Session> sessions_;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t steps_ = 0;
  double codec_ns_ = 0.0;
};

struct Rung {
  double rate;
  bool valid, pass;
  double p99_us, lag_p99_us;
  std::uint64_t backlog;
};

Rung score(Phase& p) {
  Rung r{};
  r.rate = p.book.rate();
  r.lag_p99_us = windowed_quantile(p.book.lag_us(), kWindow, 99.0).value;
  r.p99_us = windowed_quantile(p.book.latency_us(), kWindow, 99.0).value;
  r.backlog = p.backlog_end;
  r.valid = r.lag_p99_us <= kLagLimitUs;
  const double drainable = std::max(8.0, r.rate * kLimitUs / 1e6);
  r.pass = r.valid && p.failed == 0 && p.completed == p.total &&
           r.p99_us <= kLimitUs && static_cast<double>(r.backlog) <= drainable;
  return r;
}

}  // namespace

Report run_skpd_serve(const RunArgs& args) {
  Report rep;
  if (args.skpd_bin.empty() || ::access(args.skpd_bin.c_str(), X_OK) != 0) {
    throw std::runtime_error("skpd binary not found: '" + args.skpd_bin + "'");
  }
  // Fine-grained ppoll wake-ups for the open-loop schedule.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // Set-up: daemon spawn until every connection is up, repeated; the last
  // daemon serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    if (daemon) rep.check(daemon->terminate(), "skpd_serve: drain failed");
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(args.skpd_bin);
    int fds[kLanes];
    bool up = true;
    for (int& fd : fds) {
      fd = connect_loopback(daemon->port());
      up = up && fd >= 0;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
    rep.check(up, "skpd_serve: connections did not come up");
  }
  rep.values["setup_s"] = median(setup_s);

  Generator gen(args, daemon->port(), rep);
  const double s = args.seconds;
  std::vector<std::unique_ptr<Phase>> phases;
  const auto phase = [&](double rate) {
    phases.push_back(std::make_unique<Phase>(rate, now_ns() + 1'000'000));
    return phases.back().get();
  };

  gen.run(phase(kRefRate), 0.05 * s);  // warm-up, unscored
  const double cpu0 = daemon->cpu_seconds();
  const std::int64_t w0 = now_ns();
  Phase* ref = phase(kRefRate);
  gen.run(ref, 0.4 * s);
  const double util = (daemon->cpu_seconds() - cpu0) /
                      (static_cast<double>(now_ns() - w0) / 1e9);
  const Rung ref_score = score(*ref);
  rep.check(ref_score.valid,
            "skpd_serve: the generator fell behind at the reference rate "
            "(lag p99 " + format_number(ref_score.lag_p99_us) +
                " us); run invalid");
  rep.values["requests_per_s"] =
      static_cast<double>(ref->completed) /
      (static_cast<double>(ref->last_done - ref->book.due(0)) / 1e9);
  std::vector<double> ref_latency = ref->book.latency_us();
  rep.quantile("step_p50_us", ref_latency, 50.0);
  rep.quantile("step_p99_us", ref_latency, 99.0, kWindow);
  rep.quantile("session_open_p50_us", ref->open_us, 50.0);
  rep.quantile("session_open_p99_us", ref->open_us, 99.0, kOpenWindow);

  // Ladder: climb until two consecutive rungs fail (one failing rung can
  // be a scheduling hiccup of the host), then bisect between the highest
  // passing rung and the rung above it. max_steps_per_s is the highest
  // rate that passed.
  const double rung_s = 0.06 * s;
  const auto try_rate = [&](double rate, const char* what) {
    Phase* p = phase(rate);
    const double c0 = daemon->cpu_seconds();
    const std::int64_t t0 = now_ns();
    gen.run(p, rung_s);
    const double busy = (daemon->cpu_seconds() - c0) /
                        (static_cast<double>(now_ns() - t0) / 1e9);
    const Rung r = score(*p);
    rep.notes.push_back(std::string(what) + " " + format_number(rate) +
                        "/s: p99 " + format_number(r.p99_us) + " us, lag p99 " +
                        format_number(r.lag_p99_us) + " us, backlog " +
                        std::to_string(r.backlog) + ", daemon cpu " +
                        format_number(busy) +
                        (r.valid ? "" : " (invalid: generator behind)") +
                        (r.pass ? " pass" : " FAIL"));
    return r.pass;
  };
  double best = 0.0, above = 0.0;
  int fails = 0;
  for (const double rate : kLadder) {
    if (try_rate(rate, "rung")) {
      best = rate;
      above = 0.0;
      fails = 0;
    } else {
      if (above == 0.0) above = rate;
      if (++fails == 2) break;
    }
  }
  for (int b = 0; b < kBisections && above > 0.0; ++b) {
    const double rate = 0.5 * (best + above);
    (try_rate(rate, "bisect") ? best : above) = rate;
  }
  rep.values["max_steps_per_s"] = best;
  gen.run(nullptr, 0.0);  // finish open sessions, unscored

  std::vector<double> inflight = ref->inflight;
  const double inflight_p99 = windowed_quantile(inflight, kWindow, 99.0).value;
  const double lag_p99 =
      windowed_quantile(ref->book.lag_us(), kWindow, 99.0).value;
  rep.values["peak_rss_mb"] = daemon->peak_rss_mb();
  rep.check(daemon->terminate(), "skpd_serve: daemon drain failed");
  for (const auto& p : phases) {
    rep.attempted += p->total;
    rep.failed += p->failed;
  }

  // Verification against in-process shadows; the shadows also give the
  // server-side step time and the per-session footprint.
  std::vector<std::shared_ptr<const SharedCatalog>> keep;  // one per group
  double acquire_us = 0.0, construct_us = 0.0, step_ns = 0.0;
  std::vector<double> bytes;
  std::uint64_t shadow_steps = 0;
  SimResult total;
  for (const Session& sess : gen.sessions()) {
    const std::int64_t t0 = now_ns();
    std::shared_ptr<const SharedCatalog> cat =
        SharedCatalog::acquire(sess.spec);
    const std::int64_t t1 = now_ns();
    const std::uint64_t live0 = live_bytes();
    NetsimStepper shadow(sess.spec, cat);
    const std::int64_t t2 = now_ns();
    acquire_us += static_cast<double>(t1 - t0) / 1e3;
    construct_us += static_cast<double>(t2 - t1) / 1e3;
    bool match = true;
    for (const NetsimStepSnapshot& got : sess.snaps) {
      const std::int64_t a = now_ns();
      const NetsimStepSnapshot want = shadow.step();
      step_ns += static_cast<double>(now_ns() - a);
      match = match && want == got;
    }
    shadow_steps += sess.snaps.size();
    bytes.push_back(static_cast<double>(live_bytes() - live0));
    rep.check(match, "skpd_serve: STEP_RESULT differs from the shadow "
                     "stepper");
    rep.check(sess.complete, "skpd_serve: session did not complete");
    if (sess.complete) {
      const SimResult want = run_sim(sess.spec);
      rep.check(sess.stats == result_text(want),
                "skpd_serve: STATS_RESULT differs from run_sim");
      total.metrics.merge(want.metrics);
      total.plan_cache.merge(want.plan_cache);
    }
    bool known = false;
    for (const auto& k : keep) known = known || k == cat;
    if (!known) keep.push_back(std::move(cat));
  }
  const double n_sessions = static_cast<double>(gen.sessions().size());
  rep.values["bytes_per_session"] = median(bytes);
  rep.notes.push_back(std::to_string(gen.sessions().size()) + " sessions, " +
                      std::to_string(gen.steps()) + " steps; limit p99 <= " +
                      format_number(kLimitUs) + " us at reference rate " +
                      format_number(kRefRate) + "/s");

  if (args.trace) {
    const double server_step_us =
        shadow_steps ? step_ns / static_cast<double>(shadow_steps) / 1e3 : 0.0;
    const double steps = static_cast<double>(gen.steps());
    rep.values["skpd.codec_ns_per_step"] = gen.codec_ns() / steps;
    rep.values["skpd.wire_bytes_per_step"] =
        static_cast<double>(gen.wire_bytes()) / steps;
    rep.values["skpd.server_step_us"] = server_step_us;
    const double mean_rt =  // us, at the reference rate
        ref->completed ? ref->round_trip_ns /
                             static_cast<double>(ref->completed) / 1e3
                       : 0.0;
    rep.values["skpd.wire_share"] =
        mean_rt > 0.0 ? 1.0 - server_step_us / mean_rt : 0.0;
    rep.values["skpd.daemon_cpu_util"] = util;
    rep.values["skpd.inflight_p99"] = inflight_p99;
    rep.values["skpd.gen_lag_p99_us"] = lag_p99;
    rep.values["sim.catalog.acquire_us"] = acquire_us / n_sessions;
    rep.values["sim.stepper_construct_us"] = construct_us / n_sessions;
    counter_layers(total, rep);
  }
  return rep;
}

}  // namespace pb
