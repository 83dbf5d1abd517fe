#include "gangd.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "checks.hpp"
#include "gang/solver.hpp"
#include "json/json.hpp"
#include "phase/builders.hpp"
#include "serve/canonical.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {

using gs::gang::SystemParams;
using gs::json::Json;

namespace {

enum Kind { kHit, kWarm, kCold, kBurst, kSweep };

// Shares of the mix's send events, exact in every run (the seed orders
// them): mostly cache hits, then warm-started misses, and a few new
// structures, bursts of identical misses (three requests per burst) and
// small sweeps. At the default 45 events/s this keeps the daemon's two
// workers under a fifth busy, so a hit seldom queues behind two solves.
constexpr double kWarmShare = 0.05;
constexpr double kColdShare = 0.005;
constexpr double kBurstShare = 0.01;
constexpr double kSweepShare = 0.01;
// One connection each for hits, solves and sweeps, plus one for bursts.
// The daemon answers a connection's requests one at a time, so a burst's
// copies go out on three different connections to meet in flight.
constexpr int kConnections = 4;
constexpr int kBurstConns[] = {3, 1, 2};

SystemParams make_system(double lambda, double quantum,
                         const std::vector<int>& stages) {
  const double ladder[4] = {0.5, 1.0, 2.0, 4.0};
  std::vector<gs::gang::ClassParams> cls;
  for (std::size_t p = 0; p < 4; ++p) {
    cls.push_back(gs::gang::ClassParams{
        gs::phase::exponential(lambda), gs::phase::exponential(ladder[p]),
        gs::phase::erlang(stages[p], quantum),
        gs::phase::exponential(100.0), std::size_t{1} << p,
        "class" + std::to_string(p)});
  }
  return SystemParams(8, std::move(cls));
}

/// Every arrival rate multiplied by `f` (what the service's
/// vary_system does for arrival_rate, applied to all classes).
SystemParams scale_arrivals(const SystemParams& sys, double f) {
  auto classes = sys.classes();
  for (auto& c : classes) c.arrival = c.arrival.scaled(1.0 / f);
  return SystemParams(sys.processors(), std::move(classes));
}

/// The quantum_mean sweep point exactly as the service builds it.
SystemParams vary_quantum(const SystemParams& base, double x) {
  auto classes = base.classes();
  for (auto& c : classes) c.quantum = c.quantum.scaled(x / c.quantum.mean());
  return SystemParams(base.processors(), std::move(classes));
}

/// Every Erlang-order structure (orders 1..3 per class) the working set
/// does not use, in a fixed order: the cold misses take them in turn, so
/// their cost and memory do not depend on the seed.
std::vector<SystemParams> new_structures(const MixPool& pool) {
  const gs::gang::GangSolveOptions defaults;
  std::set<std::uint64_t> seen;
  for (const auto& s : pool.working_set)
    seen.insert(gs::serve::structure_hash(s, defaults));
  std::vector<SystemParams> out;
  for (int code = 0; code < 81; ++code) {
    std::vector<int> stages;
    for (int c = code, p = 0; p < 4; ++p, c /= 3) stages.push_back(1 + c % 3);
    SystemParams s = make_system(0.4, 1.0, stages);
    if (seen.insert(gs::serve::structure_hash(s, defaults)).second)
      out.push_back(std::move(s));
  }
  gs::util::Rng rng(0x636f6c64ull);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.uniform_int(i)]);
  return out;
}

struct Request {
  double due_s = 0.0;
  Kind kind = kHit;
  int conn = 0;
  std::string line;
  std::vector<SystemParams> scenarios;  // one per answered scenario
};

constexpr double kSweepValues[4] = {0.5, 0.7, 0.9, 1.1};

std::vector<Request> make_mix(const MixPool& pool, std::uint64_t seed,
                              double seconds, double rate) {
  // The seed orders the events and draws each hit's scenario. The misses
  // and sweeps draw from a fixed stream, so every run solves the same
  // set of new scenarios, only in another order: their latency median
  // then moves with the program and the host, not with which scenarios a
  // seed happened to pick.
  gs::util::Rng rng(seed ^ 0x6d69785f67616e67ull);
  gs::util::Rng fixed(0x6d69737365730aull);
  const std::vector<SystemParams> cold_structures = new_structures(pool);
  std::size_t cold = 0;

  const auto events = static_cast<std::size_t>(seconds * rate);
  std::vector<Kind> kinds;
  for (const auto& [kind, share] :
       {std::pair{kWarm, kWarmShare}, {kCold, kColdShare}, {kBurst, kBurstShare},
        {kSweep, kSweepShare}}) {
    const auto n = static_cast<std::size_t>(std::lround(share * events));
    kinds.insert(kinds.end(), std::max<std::size_t>(n, 1), kind);
  }
  kinds.resize(std::max(kinds.size(), events), kHit);
  for (std::size_t i = kinds.size(); i > 1; --i)
    std::swap(kinds[i - 1], kinds[rng.uniform_int(i)]);

  std::vector<Request> out;
  for (std::size_t e = 0; e < kinds.size(); ++e) {
    const double due = static_cast<double>(e) / rate;
    Request r;
    r.due_s = due;
    r.kind = kinds[e];
    gs::util::Rng& draw = r.kind == kHit ? rng : fixed;
    const auto& base =
        pool.working_set[draw.uniform_int(pool.working_set.size())];
    if (r.kind == kHit) {
      r.scenarios = {base};
    } else if (r.kind == kWarm) {
      r.scenarios = {scale_arrivals(base, 0.85 + 0.13 * fixed.uniform())};
    } else if (r.kind == kCold) {
      const SystemParams& s = cold_structures[cold++ % cold_structures.size()];
      auto classes = s.classes();
      for (std::size_t p = 0; p < classes.size(); ++p) {
        classes[p].arrival = base.cls(p).arrival;
        classes[p].quantum = classes[p].quantum.scaled(
            base.cls(p).quantum.mean() / classes[p].quantum.mean());
      }
      r.scenarios = {scale_arrivals(SystemParams(8, std::move(classes)),
                                    0.85 + 0.13 * fixed.uniform())};
    } else if (r.kind == kBurst) {
      r.scenarios = {scale_arrivals(base, 0.85 + 0.13 * fixed.uniform())};
    } else {
      const auto& sb =
          pool.sweep_bases[fixed.uniform_int(pool.sweep_bases.size())];
      for (const double x : kSweepValues) r.scenarios.push_back(vary_quantum(sb, x));
      Json vary = Json::object();
      vary.set("param", "quantum_mean");
      Json values = Json::array();
      for (const double x : kSweepValues) values.push_back(x);
      vary.set("values", std::move(values));
      Json req = Json::object();
      req.set("op", "sweep");
      req.set("id", out.size());
      req.set("system", gs::serve::params_to_json(sb));
      req.set("vary", std::move(vary));
      r.conn = 2;
      r.line = req.dump();
      out.push_back(std::move(r));
      continue;
    }
    r.conn = r.kind == kHit ? 0 : 1;
    const std::size_t copies = r.kind == kBurst ? std::size(kBurstConns) : 1;
    for (std::size_t k = 0; k < copies; ++k) {
      if (r.kind == kBurst) r.conn = kBurstConns[k];
      Json req = Json::object();
      req.set("op", "solve");
      req.set("id", out.size());
      req.set("system", gs::serve::params_to_json(r.scenarios[0]));
      Request copy = r;
      copy.line = req.dump();
      out.push_back(std::move(copy));
    }
  }
  return out;
}

std::uint64_t key_of(const SystemParams& s) {
  return gs::serve::scenario_hash(s, gs::gang::GangSolveOptions{});
}

// ----------------------------------------------------------- processes

int file_port(const std::string& path) {
  std::ifstream in(path);
  int port = 0;
  in >> port;
  return port;
}

/// A started daemon process. The destructor kills and reaps one that is
/// still running, so an error between start and shutdown cannot leave it
/// behind.
class Daemon {
 public:
  Daemon() = default;
  explicit Daemon(pid_t pid) : pid_(pid) {}
  Daemon(Daemon&& o) noexcept
      : pid_(std::exchange(o.pid_, -1)), port_(o.port_) {}
  Daemon& operator=(Daemon&& o) noexcept {
    if (this != &o) {
      kill_now();
      pid_ = std::exchange(o.pid_, -1);
      port_ = o.port_;
    }
    return *this;
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { kill_now(); }

  int port() const { return port_; }
  void set_port(int port) { port_ = port; }

  /// Reap it if it has already exited.
  bool exited() {
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) pid_ = -1;
    return pid_ <= 0;
  }

  /// Wait for it to exit, killing it after `grace_s`; returns its
  /// resource usage. `clean` says whether it exited by itself with 0.
  struct rusage reap(double grace_s, bool* clean) {
    struct rusage ru {};
    int status = 0;
    const auto t0 = Clock::now();
    *clean = false;
    while (pid_ > 0) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
      if (r == pid_) {
        *clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
      } else if (r < 0 && errno != EINTR) {
        pid_ = -1;
      } else if (ms_since(t0) > grace_s * 1000.0) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &ru);
        pid_ = -1;
      } else {
        ::usleep(1000);
      }
    }
    return ru;
  }

 private:
  void kill_now() {
    if (pid_ <= 0) return;
    int status = 0;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

/// Start the daemon on `daemon_cpus` and wait, on `client_cpus`, until it
/// listens.
Daemon spawn_daemon(const SessionOptions& o, const std::string& snapshot,
                    const std::string& trace_out,
                    const std::vector<int>& daemon_cpus,
                    const std::vector<int>& client_cpus, double* ready_s) {
  const std::string port_file = o.work_dir + "/port";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {
      o.gangd,          "--port",       "auto",         "--port-file",
      port_file,        "--cache-load", snapshot,       "--workers",
      "2",              "--threads",    "1",            "--obs",
      o.traced ? "1" : "0"};
  if (!trace_out.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_out);
  }
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  const std::string log = o.work_dir + "/gangd.log";
  posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  const auto t0 = Clock::now();
  pid_t pid = -1;
  pin_to(daemon_cpus);  // the daemon inherits the set
  const int rc =
      posix_spawn(&pid, o.gangd.c_str(), &fa, nullptr, argv.data(), environ);
  pin_to(client_cpus);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw gs::Error("cannot start " + o.gangd);
  Daemon d(pid);
  struct stat st;
  while (::stat(port_file.c_str(), &st) != 0) {
    if (d.exited()) throw gs::Error("gangd exited before listening; see " + log);
    if (ms_since(t0) > 60000.0) throw gs::Error("gangd did not listen within 60 s");
    ::usleep(100);
  }
  *ready_s = ms_since(t0) / 1000.0;
  d.set_port(file_port(port_file));
  return d;
}

// --------------------------------------------------------------- client

struct Conn {
  int fd = -1;
  std::string in;
  std::vector<std::size_t> waiting;  // request indices, send order
  std::size_t head = 0;
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw gs::Error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw gs::Error(std::string("connect() failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_line(int fd, const std::string& line) {
  const std::string buf = line + "\n";
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw gs::Error("send() to gangd failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Read whatever is available; append complete lines to `lines`.
/// Returns false on EOF or error.
bool pump(Conn& c, std::vector<std::string>& lines) {
  char buf[65536];
  const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
  if (n == 0) return false;
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  c.in.append(buf, static_cast<std::size_t>(n));
  std::size_t start = 0, nl;
  while ((nl = c.in.find('\n', start)) != std::string::npos) {
    lines.push_back(c.in.substr(start, nl - start));
    start = nl + 1;
  }
  c.in.erase(0, start);
  return true;
}

/// One blocking request/response on a fresh connection (control ops).
Json control(int port, const std::string& op) {
  Conn c;
  c.fd = connect_to(port);
  send_line(c.fd, "{\"op\":\"" + op + "\",\"id\":\"" + op + "\"}");
  std::vector<std::string> lines;
  const auto t0 = Clock::now();
  while (lines.empty() && ms_since(t0) < 30000.0) {
    pollfd pfd{c.fd, POLLIN, 0};
    ::poll(&pfd, 1, 100);
    if (!pump(c, lines)) break;
  }
  ::close(c.fd);
  if (lines.empty()) throw gs::Error("no answer to '" + op + "' from gangd");
  return Json::parse(lines.front());
}

// --------------------------------------------------------- verification

/// Cold library solves of every distinct scenario, on three threads
/// once the daemon is gone.
std::map<std::uint64_t, gs::gang::SolveReport> cold_references(
    const std::vector<Request>& reqs, RunResult& out) {
  std::map<std::uint64_t, const SystemParams*> todo;
  for (const auto& r : reqs)
    for (const auto& s : r.scenarios) todo.emplace(key_of(s), &s);
  std::vector<std::pair<std::uint64_t, const SystemParams*>> items(
      todo.begin(), todo.end());
  std::vector<gs::gang::SolveReport> reports(items.size());
  std::vector<std::string> errors(items.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < items.size();) {
      try {
        const SystemParams& sys = *items[i].second;
        reports[i] = gs::gang::GangSolver(sys, reference_options(sys)).solve();
      } catch (const gs::Error& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  std::map<std::uint64_t, gs::gang::SolveReport> refs;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!errors[i].empty()) {
      out.fail_check("gangd mix scenario is unstable: " + errors[i]);
      continue;
    }
    if (const std::string why = check_report(*items[i].second, reports[i]);
        !why.empty() && reports[i].converged)
      out.fail_check("gangd mix reference: " + why);
    refs.emplace(items[i].first, std::move(reports[i]));
  }

  // The mean check and the checker's self-test on the converged scenario
  // whose queue distribution needs the fewest levels.
  std::size_t best = items.size(), best_levels = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto it = refs.find(items[i].first);
    if (it == refs.end() || !it->second.converged) continue;
    const std::size_t levels = mean_check_levels(*items[i].second, it->second);
    if (best == items.size() || levels < best_levels) {
      best = i;
      best_levels = levels;
    }
  }
  if (best == items.size()) {
    out.fail_check("gangd mix: no converged scenario to self-test on");
    return refs;
  }
  const SystemParams& sys = *items[best].second;
  const gs::gang::SolveReport& rep = refs.at(items[best].first);
  if (auto why = check_mean_jobs(sys, rep); !why.empty())
    out.fail_check("gangd mix mean check: " + why);
  std::vector<double> n_ht;
  for (std::size_t p = 0; p < sys.num_classes(); ++p)
    n_ht.push_back(gs::gang::solve_class_heavy_traffic(sys, p).mean_jobs);
  if (auto why = self_test(sys, rep, n_ht); !why.empty())
    out.fail_check("checker self-test: " + why);
  return refs;
}

std::vector<double> mean_jobs_of(const Json& per_class) {
  std::vector<double> n;
  for (const auto& c : per_class.as_array())
    n.push_back(c.at("mean_jobs").as_double());
  return n;
}

std::vector<double> numbers_of(const Json& array) {
  std::vector<double> n;
  for (const auto& v : array.as_array()) n.push_back(v.as_double());
  return n;
}

}  // namespace

MixPool gangd_pool() {
  // The working set is fixed, like the paper's figures: its heaviest
  // scenarios set the daemon's peak memory, which would otherwise swing
  // with the seed. The seed drives the request mix over it.
  gs::util::Rng rng(0x706f6f6c5f67616eull);
  MixPool pool;
  // Four structures (Erlang orders of the four quanta), six rate/quantum
  // settings each. Loads stay at rho = 0.25 .. 0.5 and quanta
  // at 0.4 .. 1.2, where the fixed point converges well inside its 60
  // iterations even after the mix scales the rates down by up to 15%.
  const std::vector<std::vector<int>> structures = {
      {2, 2, 2, 2}, {1, 2, 3, 2}, {3, 1, 2, 1}, {2, 3, 1, 3}};
  for (const auto& stages : structures) {
    for (int i = 0; i < 6; ++i) {
      pool.working_set.push_back(make_system(0.25 + 0.25 * rng.uniform(),
                                             0.4 + 0.8 * rng.uniform(),
                                             stages));
    }
  }
  // The sweeps all take the first structure (the paper's Erlang-2 quanta):
  // the lock-step batch behind a sweep request holds most of the daemon's
  // memory, and with one structure its high-water mark does not depend on
  // which worker ran which sweep.
  pool.sweep_bases.assign(pool.working_set.begin(), pool.working_set.begin() + 6);
  return pool;
}

std::vector<std::string> mix_lines(const MixPool& pool, std::uint64_t seed,
                                   double seconds, double rate) {
  std::vector<std::string> lines;
  for (auto& r : make_mix(pool, seed, seconds, rate)) lines.push_back(r.line);
  return lines;
}

std::string make_snapshot(const MixPool& pool) {
  gs::serve::EvalService service;
  for (const auto& s : pool.working_set) {
    Json req = Json::object();
    req.set("op", "solve");
    req.set("system", gs::serve::params_to_json(s));
    service.handle_line(req.dump());
  }
  std::ostringstream out;
  service.save_cache(out);
  return out.str();
}

SessionReport run_session(const MixPool& pool, const SessionOptions& o,
                          RunResult& out) {
  SessionReport rep;
  const std::vector<Request> reqs = make_mix(pool, o.seed, o.seconds, o.rate);
  rep.requests = static_cast<long>(reqs.size());

  const std::string snapshot = o.work_dir + "/snapshot.ndjson";
  {
    std::ofstream f(snapshot);
    f << make_snapshot(pool);
  }
  rep.trace_file = o.traced ? o.work_dir + "/trace.json" : "";

  // The daemon runs on two CPUs, each with an idle-priority speed probe,
  // and the client on the others; a host with fewer than three CPUs
  // shares them all.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> daemon_cpus = cpus, client_cpus = cpus;
  if (cpus.size() >= 3) {
    daemon_cpus.assign(cpus.begin(), cpus.begin() + 2);
    client_cpus.assign(cpus.begin() + 2, cpus.end());
  }
  const SpeedProbe probe(daemon_cpus);

  // Timed starts; the last one serves the load.
  Daemon d;
  for (int i = 0; i < o.setup_spawns; ++i) {
    double ready = 0.0;
    const bool last = i + 1 == o.setup_spawns;
    d = spawn_daemon(o, snapshot, last ? rep.trace_file : "", daemon_cpus,
                     client_cpus, &ready);
    rep.setup_s.push_back(ready);
    if (!last) {
      control(d.port(), "shutdown");
      bool clean = true;
      d.reap(20.0, &clean);
      if (!clean) out.fail_check("gangd did not shut down cleanly");
    }
  }

  const SpeedProbe::Mark load0 = probe.mark();

  std::vector<Conn> conns(kConnections);
  for (auto& c : conns) c.fd = connect_to(d.port());
  std::vector<double> due_ms(reqs.size()), done_ms(reqs.size(), -1.0);
  std::vector<std::string> answers(reqs.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  std::size_t next = 0, outstanding = 0;
  const double deadline_ms = o.seconds * 1000.0 + 120000.0;
  bool lost = false;
  while (next < reqs.size() || outstanding > 0) {
    const double now = ms_between(t0, Clock::now());
    if (now > deadline_ms) {
      lost = true;
      break;
    }
    while (next < reqs.size() && reqs[next].due_s * 1000.0 <= now) {
      const auto& r = reqs[next];
      due_ms[next] = r.due_s * 1000.0;
      rep.late_ms.push_back(ms_between(t0, Clock::now()) - due_ms[next]);
      send_line(conns[r.conn].fd, r.line);
      conns[r.conn].waiting.push_back(next);
      ++next;
      ++outstanding;
    }
    pollfd pfds[kConnections];
    for (int i = 0; i < kConnections; ++i) pfds[i] = {conns[i].fd, POLLIN, 0};
    // Spin only when a send is due within a millisecond, so sends leave on
    // time; otherwise block until then (an answer wakes the poll). A client
    // spinning while answers are outstanding takes a core from the
    // daemon's three threads, and its latency then follows host load.
    const double idle_ms =
        next < reqs.size() ? reqs[next].due_s * 1000.0 - now - 1.0 : 100.0;
    timespec ts{0, 0};
    if (idle_ms > 0.0)
      ts.tv_nsec = static_cast<long>(std::min(idle_ms, 100.0) * 1e6);
    if (::ppoll(pfds, kConnections, &ts, nullptr) <= 0) continue;
    for (int i = 0; i < kConnections; ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::vector<std::string> lines;
      if (!pump(conns[i], lines)) {
        lost = true;
        next = reqs.size();
        outstanding = 0;
        break;
      }
      const double t = ms_between(t0, Clock::now());
      for (auto& line : lines) {
        Conn& c = conns[i];
        if (c.head >= c.waiting.size()) {
          out.fail_check("gangd sent an unrequested line");
          continue;
        }
        const std::size_t idx = c.waiting[c.head++];
        done_ms[idx] = t;
        answers[idx] = std::move(line);
        --outstanding;
      }
    }
  }
  rep.speed = SpeedProbe::speed(load0, probe.mark());
  pin_to(cpus);
  for (auto& c : conns) ::close(c.fd);
  if (lost) out.fail_check("gangd lost responses or the connection");

  try {
    const Json stats = control(d.port(), "stats");
    const double hits = stats.at("cache").at("hits").as_double();
    const double misses = stats.at("cache").at("misses").as_double();
    rep.cache_hit_share = hits / std::max(1.0, hits + misses);
    const auto& solver = stats.at("solver");
    rep.warm_share = solver.at("warm_starts").as_double() /
                     std::max(1.0, solver.at("solves_executed").as_double());
    const auto& net = stats.at("net");
    rep.coalesced = net.at("coalesced").as_double();
    if (net.at("shed").as_int() != 0) out.fail_check("gangd shed requests");
    control(d.port(), "shutdown");
  } catch (const gs::Error& e) {
    out.fail_check(std::string("gangd control op failed: ") + e.what());
  }
  bool clean = true;
  const struct rusage ru = d.reap(30.0, &clean);
  if (!clean) out.fail_check("gangd did not exit cleanly");
  rep.daemon_cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                ru.ru_stime.tv_usec);
  rep.daemon_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Verify every answer against the benchmark's own cold solve.
  const auto refs = cold_references(reqs, out);
  double last_done = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (done_ms[i] < 0.0) continue;
    last_done = std::max(last_done, done_ms[i]);
    const auto& r = reqs[i];
    Json a;
    try {
      a = Json::parse(answers[i]);
    } catch (const gs::Error&) {
      out.fail_check("gangd answered with malformed JSON");
      continue;
    }
    if (a.find("error") != nullptr || !a.find("id") ||
        a.at("id").as_int() != static_cast<std::int64_t>(i)) {
      out.fail_check("gangd answer " + std::to_string(i) +
                     " is an error or out of order: " + answers[i].substr(0, 200));
      continue;
    }
    const double lat = done_ms[i] - due_ms[i];
    rep.scenarios += static_cast<long>(r.scenarios.size());
    if (r.kind == kSweep) {
      rep.sweep_ms.push_back(lat);
      const auto& pts = a.at("points").as_array();
      if (pts.size() != r.scenarios.size()) {
        out.fail_check("gangd sweep returned the wrong point count");
        continue;
      }
      for (std::size_t k = 0; k < pts.size(); ++k) {
        const auto it = refs.find(key_of(r.scenarios[k]));
        if (pts[k].find("error") != nullptr || it == refs.end()) {
          out.fail_check("gangd sweep point failed");
          continue;
        }
        if (!it->second.converged) ++rep.unconverged;
        std::vector<double> want;
        for (const auto& c : it->second.per_class) want.push_back(c.mean_jobs);
        if (auto why = check_agree(numbers_of(pts[k].at("mean_jobs")), want);
            !why.empty())
          out.fail_check("gangd sweep point: " + why);
      }
      continue;
    }
    (a.at("cached").as_bool() ? rep.hit_ms : rep.solve_ms).push_back(lat);
    if (!a.at("converged").as_bool()) ++rep.unconverged;
    const auto it = refs.find(key_of(r.scenarios[0]));
    if (it == refs.end()) continue;  // reported by cold_references
    std::vector<double> want;
    for (const auto& c : it->second.per_class) want.push_back(c.mean_jobs);
    if (auto why = check_agree(mean_jobs_of(a.at("result").at("per_class")), want);
        !why.empty())
      out.fail_check("gangd answer " + std::to_string(i) + ": " + why);
  }
  rep.window_s = last_done / 1000.0;
  return rep;
}

}  // namespace perfbench
