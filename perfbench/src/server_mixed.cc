// server_mixed: the streamhulld daemon in its own process, driven over its
// Unix socket by an open-loop generator. Two tenants of 128 streams each;
// 3/4 of the DATA frames go to the first tenant, carried on three of the
// four connections, the rest on the fourth. Every frame is a pre-encoded
// r=64 v3 delta (or the first-contact v2 frame) of a varied-size batch, made
// before anything is timed. Beside the writes the generator sends QUERYs at
// a fixed rate: extents, and separations over overlapping pairs. The
// server_mixed_diameter variant makes 3/5 of them diameter queries instead;
// it is not listed in BENCHMARK.json because Diameter()'s rotating calipers
// can end short of the outer polygon's diameter, so some of its runs fail
// their brute-force check (perfbench/README.md, "Findings").
// The daemon runs with --threads 2 and prints its metrics line every
// second, standing in for an operator's scrape.
//
// The generator and the daemon each run on a CPU of their own, so neither
// preempts the other. Latencies run from each request's due time, so a
// stall also charges the requests queued behind it. Every reply is
// checked: an ACK must carry the frame's generation, a NAK or ERROR fails,
// and each certified interval must contain the brute-force answer at the
// exact point of the stream the query saw (replies on one connection come back in request order, and a
// query rides the connection of its streams).
//
// The traced run also replays the run's frames and queries through the
// daemon's own layers in this process (FrameDecoder/DecodeSessionMessage,
// StreamGroup::UpdateRemoteStream, View, the Certified* queries) to split
// the ack latency into decode, apply and the residual transport + pump +
// strand queueing.

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <fcntl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/hull_engine.h"
#include "multi/stream_group.h"
#include "queries/certified.h"
#include "server/delta_sender.h"
#include "server/transport.h"
#include "server/wire.h"
#include "stream/generators.h"

namespace perfbench {
namespace {

using streamhull::Certainty;
using streamhull::DeltaSender;
using streamhull::EngineKind;
using streamhull::EngineOptions;
using streamhull::FrameDecoder;
using streamhull::HullEngine;
using streamhull::Rng;
using streamhull::ServerQueryKind;
using streamhull::SessionMessage;
using streamhull::SessionMessageType;
using streamhull::UnixSocketTransport;

constexpr int kTenants = 2;
constexpr int kStreamsPerTenant = 128;
constexpr int kStreams = kTenants * kStreamsPerTenant;
constexpr int kConns = 4;  // 0..2: first tenant, 3: second tenant.
/// Offered DATA frame rate: about a third of the daemon's capacity on one
/// CPU, ~120 000 frames/s at the default seed (README.md, "server_mixed
/// capacity").
constexpr double kOfferedFramesPerSec = 40000;
constexpr double kQueriesPerSec = 1000;
constexpr size_t kWarmPoints = 512;
constexpr double kMaxBatch = 64;  // Batch sizes are log-uniform in [1, 64].
constexpr int kSetupRepeats = 9;
/// A run is invalid when the generator itself ran this late at p99.
constexpr double kMaxGeneratorLateMs = 1.0;
/// Requests in flight per connection. Far below what the socket buffers
/// hold, so neither side ever blocks in a send (the daemon itself stops
/// reading a session at 64 pending).
constexpr size_t kSendWindow = 128;
/// Longest nap of the generator between polls of its connections.
constexpr int kMaxNapUs = 50;
constexpr double kTwoPi = 6.283185307179586476925286766559;

const char* const kTenantNames[kTenants] = {"north", "south"};
const char* const kTokens[kTenants] = {"north-token", "south-token"};

int TenantOf(int gs) { return gs / kStreamsPerTenant; }
int ConnOf(int gs) { return TenantOf(gs) == 0 ? gs % 3 : 3; }
std::string StreamName(int gs) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%c%03d", TenantOf(gs) == 0 ? 'a' : 'b',
                gs % kStreamsPerTenant);
  return buf;
}
// Streams s and s^3-within-six share a centre and a connection, so their
// hulls overlap and a separation query sees both at a known point.
int PartnerOf(int gs) {
  const int s = gs % kStreamsPerTenant, base = gs - s;
  const int partner = s % 6 < 3 ? s + 3 : s - 3;
  return base + (partner < kStreamsPerTenant ? partner : s);
}

// A producer stream: disk, orbit or drift walk around its group centre.
// Every pair (s, PartnerOf(s)) holds a disk or orbit covering the centre.
struct StreamSim {
  int kind = 0;  // 0 disk, 1 orbit, 2 drift.
  Point2 center;
  Rng rng{0};
  std::unique_ptr<streamhull::DriftWalkGenerator> drift;
  uint64_t i = 0;

  Point2 Next() {
    switch (kind) {
      case 0: {
        const double r = std::sqrt(rng.NextDouble()), t = kTwoPi * rng.NextDouble();
        return center + Point2{r * std::cos(t), r * std::sin(t)};
      }
      case 1: {
        const double t = kTwoPi * static_cast<double>(i++) / 509.0;
        return center + Point2{std::cos(t), std::sin(t)} * (1 + 1e-3 * rng.NextDouble());
      }
      default:
        return center + drift->Next();
    }
  }
};

// One pre-encoded DATA session frame; its bytes live in a shared arena.
struct Frame {
  uint64_t offset = 0;
  uint32_t size = 0;
  uint32_t points = 0;
  uint64_t generation = 0;
};

struct Query {
  ServerQueryKind kind;
  int a, b;             // Global stream indices (b: separation only).
  Point2 dir;           // Extent only.
  uint32_t prefix_a = 0, prefix_b = 0;  // Frames of a / b sent before it.
  std::string wire;
  double truth = 0;
  std::vector<Point2> hull_a, hull_b;  // Separation only.
};

struct Op {
  int64_t due_ns;
  bool is_query;
  int stream;   // DATA: global stream; QUERY: unused.
  uint32_t idx; // DATA: frame index in the stream's chain; QUERY: query id.
};

struct Expect {
  enum Kind { kHelloOk, kOpenOk, kAck, kQueryResult } kind;
  int64_t op = -1;  // Index into the schedule (timed phase only).
  uint64_t generation = 0;
  Clock::time_point sent;
};

struct Conn {
  std::unique_ptr<UnixSocketTransport> link;
  FrameDecoder decoder;
  std::deque<Expect> pending;
  std::string inbox;
};

// One daemon process and its four connections.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, const std::string& dir, int instance,
             const cpu_set_t& cpus) {
    sock_ = dir + "/d" + std::to_string(instance) + ".sock";
    log_ = dir + "/daemon" + std::to_string(instance) + ".log";
    std::vector<std::string> argv_s = {binary, "--socket", sock_, "--threads", "2",
                                       "--metrics-every", "1"};
    for (int t = 0; t < kTenants; ++t) {
      argv_s.push_back("--tenant");
      argv_s.push_back(std::string(kTenantNames[t]) + ":" + kTokens[t]);
    }
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    // The benchmark is single-threaded here, so fork is safe; the daemon
    // gets SIGTERM should the benchmark die first.
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      sched_setaffinity(0, sizeof cpus, &cpus);
      const int fd = open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
      }
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    if (pid_ < 0) return false;
    started_ = Clock::now();
    for (int c = 0; c < kConns; ++c) {
      const auto deadline = Clock::now() + std::chrono::seconds(20);
      while (!UnixSocketTransport::Connect(sock_, &conns[c].link).ok()) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;  // Exited before listening.
          return false;
        }
        if (Clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    return true;
  }

  /// SIGTERM, wait, and return the daemon's log (its final metrics lines).
  std::string Stop() {
    if (pid_ < 0) return "";
    for (Conn& c : conns) {
      if (c.link) c.link->Close();
    }
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    lifetime_s_ = SecondsSince(started_);
    pid_ = -1;
    std::ifstream in(log_);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  double lifetime_s() const { return lifetime_s_; }

  Conn conns[kConns];

 private:
  pid_t pid_ = -1;
  std::string sock_, log_;
  Clock::time_point started_;
  double lifetime_s_ = 0;
};

// Reads every connection once and hands each reply, with the request it
// answers, to on_reply. A reply with no request pending is a failure.
template <typename OnReply>
void PumpReplies(Daemon& d, Result& res, Tracer& tracer, OnReply on_reply) {
  for (int c = 0; c < kConns; ++c) {
    Conn& conn = d.conns[c];
    conn.inbox.clear();
    if (!conn.link->Recv(&conn.inbox).ok()) {
      if (!conn.pending.empty()) {
        res.Fail("transport failure: connection closed with replies owed");
        conn.pending.clear();
      }
      continue;
    }
    if (conn.inbox.empty()) continue;
    const auto now = Clock::now();
    conn.decoder.Feed(conn.inbox);
    for (;;) {
      std::string payload;
      bool got = false;
      if (!conn.decoder.Next(&payload, &got).ok()) {
        res.Fail("reply stream unframeable");
        conn.pending.clear();
        break;
      }
      if (!got) break;
      SessionMessage msg;
      bool ok;
      {
        ScopedSpan span(tracer, "server.DecodeSessionMessage");
        ok = streamhull::DecodeSessionMessage(payload, &msg).ok();
      }
      if (!ok || conn.pending.empty()) {
        res.Fail("undecodable or unsolicited reply");
        continue;
      }
      const Expect e = conn.pending.front();
      conn.pending.pop_front();
      on_reply(e, msg, now);
    }
  }
}

// The daemon's receive path for one complete frame: FrameDecoder, then
// DecodeSessionMessage.
bool DecodeWire(std::string_view wire, SessionMessage* m) {
  FrameDecoder decoder;
  decoder.Feed(wire);
  std::string payload;
  bool got = false;
  return decoder.Next(&payload, &got).ok() && got &&
         streamhull::DecodeSessionMessage(payload, m).ok();
}

// The first CPU this process may use for the daemon, the last for the
// generator, so neither preempts the other; with a single CPU both get it.
// The other CPUs stay idle: on a shared host every busy vCPU adds to the
// time the host steals from the VM, and one CPU holds the daemon's three
// threads at the offered rate.
void SplitCpus(cpu_set_t* generator, cpu_set_t* daemon) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) CPU_SET(c, &allowed);
  }
  *generator = allowed;
  *daemon = allowed;
  if (CPU_COUNT(&allowed) < 2) return;
  int first = 0, last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(first, &allowed)) ++first;
  while (!CPU_ISSET(last, &allowed)) --last;
  CPU_ZERO(generator);
  CPU_SET(last, generator);
  CPU_ZERO(daemon);
  CPU_SET(first, daemon);
}

bool AllAnswered(const Daemon& d) {
  for (const Conn& c : d.conns) {
    if (!c.pending.empty()) return false;
  }
  return true;
}

std::string TypeName(const SessionMessage& m) {
  std::string s = streamhull::SessionMessageTypeName(m.type);
  if (m.type == SessionMessageType::kError) s += " " + m.payload;
  return s;
}

// "key=value" from the last daemon line starting with \p prefix.
double LogValue(const std::string& log, const std::string& prefix,
                const std::string& key) {
  double value = 0;
  std::istringstream lines(log);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const size_t at = line.find(" " + key + "=");
    if (at != std::string::npos) value = std::atof(line.c_str() + at + key.size() + 2);
  }
  return value;
}

}  // namespace

void RunServerMixed(const Args& args, Result* result) {
  signal(SIGPIPE, SIG_IGN);
  Tracer tracer(args.trace);
  Result& res = *result;
  const bool with_diameter = args.workload == "server_mixed_diameter";
  // diam_rel_width comes from the diameter answers, or from the extent
  // answers (each a diameter of the stream projected on a direction) when
  // no diameters are asked.
  const ServerQueryKind width_kind =
      with_diameter ? ServerQueryKind::kDiameter : ServerQueryKind::kExtent;

  // ---- Inputs: the schedule, then every frame and query answer. ----------
  const auto inputs_start = Clock::now();
  Rng rng(args.seed);
  const int64_t span_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Op> ops;
  std::vector<uint32_t> frames_of(kStreams, 1);  // Frame 0 is first contact.
  std::vector<Query> queries;
  {
    const int64_t frame_gap = static_cast<int64_t>(1e9 / kOfferedFramesPerSec);
    const int64_t query_gap = static_cast<int64_t>(1e9 / kQueriesPerSec);
    int64_t tf = 0, tq = query_gap / 2;
    while (tf < span_ns || tq < span_ns) {
      if (tf <= tq) {
        const int tenant = rng.NextDouble() < 0.75 ? 0 : 1;
        const int gs = tenant * kStreamsPerTenant +
                       static_cast<int>(rng.UniformInt(kStreamsPerTenant));
        ops.push_back(Op{tf, false, gs, frames_of[static_cast<size_t>(gs)]++});
        tf += frame_gap;
      } else {
        const int tenant = rng.NextDouble() < 0.75 ? 0 : 1;
        const int gs = tenant * kStreamsPerTenant +
                       static_cast<int>(rng.UniformInt(kStreamsPerTenant));
        Query q;
        const size_t j = queries.size() % 20;
        q.kind = with_diameter && j < 12 ? ServerQueryKind::kDiameter
                 : j < 15                ? ServerQueryKind::kExtent
                                         : ServerQueryKind::kSeparation;
        q.a = gs;
        q.b = q.kind == ServerQueryKind::kSeparation ? PartnerOf(gs) : gs;
        const double t = rng.Uniform(0, kTwoPi);
        q.dir = Point2{std::cos(t), std::sin(t)};
        q.prefix_a = frames_of[static_cast<size_t>(q.a)];
        q.prefix_b = frames_of[static_cast<size_t>(q.b)];
        SessionMessage m;
        m.type = SessionMessageType::kQuery;
        m.query = q.kind;
        m.stream = StreamName(q.a);
        if (q.kind == ServerQueryKind::kSeparation) m.stream_b = StreamName(q.b);
        m.dir_x = q.dir.x;
        m.dir_y = q.dir.y;
        q.wire = streamhull::EncodeSessionFrame(m);
        ops.push_back(Op{tq, true, -1, static_cast<uint32_t>(queries.size())});
        queries.push_back(std::move(q));
        tq += query_gap;
      }
    }
  }
  // Per stream: which query needs the reference hull after which frame.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> needs(kStreams);
  for (uint32_t qi = 0; qi < queries.size(); ++qi) {
    needs[static_cast<size_t>(queries[qi].a)].push_back({queries[qi].prefix_a, qi});
    if (queries[qi].kind == ServerQueryKind::kSeparation) {
      needs[static_cast<size_t>(queries[qi].b)].push_back({queries[qi].prefix_b, qi | 0x80000000u});
    }
  }

  std::vector<std::vector<Frame>> chains(kStreams);
  std::string arena;
  auto wire_of = [&](int gs, uint32_t k) {
    const Frame& f = chains[static_cast<size_t>(gs)][k];
    return std::string_view(arena).substr(f.offset, f.size);
  };
  EngineOptions producer;
  producer.hull.r = 64;
  for (int gs = 0; gs < kStreams; ++gs) {
    const int s = gs % kStreamsPerTenant;
    StreamSim sim;
    sim.kind = s % 6 == 0 || s % 6 >= 4 ? 0 : s % 6 == 1 ? 1 : 2;
    sim.center = Point2{(s / 6) * 3.0, TenantOf(gs) * 100.0};
    sim.rng.Seed(args.seed * 6151u + static_cast<uint64_t>(gs));
    sim.drift = std::make_unique<streamhull::DriftWalkGenerator>(
        args.seed * 3571u + static_cast<uint64_t>(gs), 0.01);
    std::unique_ptr<HullEngine> engine = streamhull::MakeEngine(EngineKind::kAdaptive, producer);
    DeltaSender sender(engine.get());
    std::vector<Point2> ref, pending, batch;
    auto& need = needs[static_cast<size_t>(gs)];
    std::sort(need.begin(), need.end());
    size_t next_need = 0;
    auto& chain = chains[static_cast<size_t>(gs)];
    for (uint32_t k = 0; k < frames_of[static_cast<size_t>(gs)]; ++k) {
      const size_t n = k == 0 ? kWarmPoints
                              : static_cast<size_t>(std::exp(rng.Uniform(0, std::log(kMaxBatch))));
      batch.resize(n);
      for (Point2& p : batch) p = sim.Next();
      engine->InsertBatch(batch);
      DeltaSender::Frame f;
      (void)sender.NextFrame(&f);
      sender.OnAck(f.generation);
      SessionMessage m;
      m.type = SessionMessageType::kData;
      m.stream = StreamName(gs);
      m.payload = std::move(f.bytes);
      const std::string wire = streamhull::EncodeSessionFrame(m);
      chain.push_back(Frame{arena.size(), static_cast<uint32_t>(wire.size()),
                            static_cast<uint32_t>(n), f.generation});
      arena += wire;
      // The reference hull is brought up to date lazily: at query
      // checkpoints, or when enough points have piled up.
      pending.insert(pending.end(), batch.begin(), batch.end());
      const bool checkpoint = next_need < need.size() && need[next_need].first == k + 1;
      if (checkpoint || pending.size() > 4096) {
        ref = ExtendHull(ref, pending);
        pending.clear();
      }
      for (; next_need < need.size() && need[next_need].first == k + 1; ++next_need) {
        const uint32_t tag = need[next_need].second;
        Query& q = queries[tag & 0x7fffffffu];
        if (tag & 0x80000000u) {
          q.hull_b = ref;
        } else if (q.kind == ServerQueryKind::kDiameter) {
          q.truth = BruteDiameter(ref);
        } else if (q.kind == ServerQueryKind::kExtent) {
          q.truth = BruteExtent(ref, q.dir.Normalized());
        } else {
          q.hull_a = ref;
        }
      }
    }
  }
  for (Query& q : queries) {
    if (q.kind == ServerQueryKind::kSeparation) {
      q.truth = BruteSeparation(q.hull_a, q.hull_b);
      q.hull_a.clear();
      q.hull_b.clear();
    }
  }

  res.notes.push_back("inputs: " + std::to_string(ops.size()) + " requests pre-encoded in " +
                      std::to_string(SecondsSince(inputs_start)) + " s (" +
                      std::to_string(arena.size() >> 20) + " MiB of frames)");

  // ---- Set-up: daemon start to every first-contact frame acked. ---------
  const std::string run_dir = ".bench_build/perfbench-run/" + std::to_string(getpid());
  {
    std::error_code ec;
    std::filesystem::create_directories(run_dir, ec);
  }
  cpu_set_t generator_cpus, daemon_cpus;
  SplitCpus(&generator_cpus, &daemon_cpus);
  sched_setaffinity(0, sizeof generator_cpus, &generator_cpus);
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  auto setup_reply = [&](const Expect& e, const SessionMessage& m, Clock::time_point) {
    const SessionMessageType want = e.kind == Expect::kHelloOk ? SessionMessageType::kHelloOk
                                    : e.kind == Expect::kOpenOk ? SessionMessageType::kOpenOk
                                                                : SessionMessageType::kAck;
    res.Check(m.type == want && (want != SessionMessageType::kAck || m.generation == e.generation),
              std::string("set-up reply: got ") + TypeName(m));
  };
  auto await = [&](Daemon& d) {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (!AllAnswered(d) && Clock::now() < deadline) {
      PumpReplies(d, res, tracer, setup_reply);
    }
    res.Check(AllAnswered(d), "set-up timed out");
    return AllAnswered(d);
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    daemon.reset();  // Stops the previous set-up's daemon.
    daemon = std::make_unique<Daemon>();
    const auto t0 = Clock::now();
    ++res.attempted;
    if (!daemon->Start(args.daemon, run_dir, rep, daemon_cpus)) {
      res.Fail("streamhulld did not start");
      return;
    }
    Daemon& d = *daemon;
    for (int c = 0; c < kConns; ++c) {
      SessionMessage hello;
      hello.type = SessionMessageType::kHello;
      hello.version = streamhull::kServerProtocolVersion;
      hello.token = kTokens[c < 3 ? 0 : 1];
      (void)d.conns[c].link->Send(streamhull::EncodeSessionFrame(hello));
      d.conns[c].pending.push_back(Expect{Expect::kHelloOk, -1, 0, {}});
    }
    bool ok = await(d);
    for (int gs = 0; gs < kStreams && ok; ++gs) {
      SessionMessage open;
      open.type = SessionMessageType::kOpen;
      open.stream = StreamName(gs);
      Conn& c = d.conns[ConnOf(gs)];
      ok = c.link->Send(streamhull::EncodeSessionFrame(open)).ok();
      c.pending.push_back(Expect{Expect::kOpenOk, -1, 0, {}});
    }
    ok = ok && await(d);
    for (int gs = 0; gs < kStreams && ok; ++gs) {
      Conn& c = d.conns[ConnOf(gs)];
      ok = c.link->Send(wire_of(gs, 0)).ok();
      c.pending.push_back(Expect{Expect::kAck, -1, chains[static_cast<size_t>(gs)][0].generation, {}});
    }
    ok = ok && await(d);
    setup_s.push_back(SecondsSince(t0));
    res.attempted += kConns + 2 * kStreams;
    if (!ok) return;
  }
  Daemon& d = *daemon;

  // ---- The open-loop run. -----------------------------------------------
  const size_t n_ops = ops.size();
  std::vector<double> latency_ms(n_ops, -1), late_ms, late_own_ms;
  std::vector<char> traced_op(n_ops, 0);
  std::vector<double> rtt_us(n_ops, -1), query_ms, rel_width, ack_traced, ack_untraced;
  uint64_t acked = 0, acked_points = 0, naks = 0, unknown = 0, separations = 0;
  uint64_t wire_bytes = 0, data_sent = 0;
  bool inject_ack = args.inject == "ack_generation";
  bool inject_nak = args.inject == "nak";
  // "diameter_ulp" / "extent_ulp": the first such answer, nudged inside.
  bool inject_interval = args.inject == "diameter_ulp" || args.inject == "extent_ulp";
  const ServerQueryKind inject_kind =
      args.inject == "extent_ulp" ? ServerQueryKind::kExtent : ServerQueryKind::kDiameter;
  std::vector<char> skipped(n_ops, 0);
  Clock::time_point last_ack;

  // A 1 us timer slack makes the generator's short naps precise; set only
  // now, so the daemon (forked earlier) keeps the default.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  rusage gen_usage0{};
  getrusage(RUSAGE_SELF, &gen_usage0);
  const double gen_cpu0_s =
      static_cast<double>(gen_usage0.ru_utime.tv_sec + gen_usage0.ru_stime.tv_sec) +
      static_cast<double>(gen_usage0.ru_utime.tv_usec + gen_usage0.ru_stime.tv_usec) / 1e6;
  const auto t0 = Clock::now();
  auto due_of = [&](size_t i) { return t0 + std::chrono::nanoseconds(ops[i].due_ns); };
  auto reply = [&](const Expect& e, SessionMessage m, Clock::time_point now) {
    const Op& op = ops[static_cast<size_t>(e.op)];
    latency_ms[static_cast<size_t>(e.op)] = Us(due_of(static_cast<size_t>(e.op)), now) / 1e3;
    if (!op.is_query) {
      if (inject_ack && m.type == SessionMessageType::kAck) {
        m.generation += 1;
        inject_ack = false;
      }
      if (m.type == SessionMessageType::kNak) ++naks;
      res.Check(m.type == SessionMessageType::kAck && m.generation == e.generation,
                "DATA " + StreamName(op.stream) + " #" + std::to_string(op.idx) +
                    ": got " + TypeName(m) + " generation " + std::to_string(m.generation) +
                    ", want ACK " + std::to_string(e.generation));
      ++acked;
      acked_points += chains[static_cast<size_t>(op.stream)][op.idx].points;
      rtt_us[static_cast<size_t>(e.op)] = Us(e.sent, now);
      last_ack = now;
      return;
    }
    const Query& q = queries[op.idx];
    if (m.type != SessionMessageType::kQueryResult || m.query != q.kind) {
      res.Fail("QUERY on " + StreamName(q.a) + ": got " + TypeName(m));
      return;
    }
    if (q.kind == inject_kind && inject_interval) {
      m.hi = std::nextafter(q.truth, -INFINITY);
      inject_interval = false;
    }
    bool ok = m.lo <= q.truth && q.truth <= m.hi;
    if (q.kind == ServerQueryKind::kSeparation) {
      ++separations;
      const auto c = static_cast<Certainty>(m.certainty);
      if (c == Certainty::kUnknown) ++unknown;
      ok = ok && !(q.truth == 0 && c == Certainty::kTrue) &&
           !(q.truth > 0 && c == Certainty::kFalse);
    }
    if (q.kind == width_kind && m.hi > 0) {
      rel_width.push_back((m.hi - m.lo) / m.hi);
    }
    res.Check(ok, std::string("certified ") +
                      (q.kind == ServerQueryKind::kDiameter ? "diameter"
                       : q.kind == ServerQueryKind::kExtent ? "extent" : "separation") +
                      " on " + StreamName(q.a) + " misses brute force: " +
                      Bracket(m.lo, q.truth, m.hi));
  };

  size_t next = 0;
  const auto hard_deadline = t0 + std::chrono::nanoseconds(span_ns) + std::chrono::seconds(20);
  // Requests wait in their connection's queue while its window is full, so
  // the generator never blocks in a send; time spent there is the daemon's
  // backpressure, not the generator's lateness.
  std::deque<size_t> queued[kConns];
  auto send = [&](size_t i, Conn& c, bool own) {
    const Op& op = ops[i];
    const bool traced = tracer.on() && i % 2 == 1;
    tracer.set_enabled(traced);
    traced_op[i] = traced;
    const auto sent = Clock::now();
    const double late = Us(due_of(i), sent) / 1e3;
    late_ms.push_back(late);
    if (own) late_own_ms.push_back(late);
    const std::string_view wire =
        op.is_query ? std::string_view(queries[op.idx].wire) : wire_of(op.stream, op.idx);
    bool ok;
    {
      ScopedSpan span(tracer, "server.Transport::Send");
      ok = c.link->Send(wire).ok();
    }
    if (!ok) {
      res.Fail("transport failure on send");
      return;
    }
    c.pending.push_back(Expect{op.is_query ? Expect::kQueryResult : Expect::kAck,
                               static_cast<int64_t>(i),
                               op.is_query ? 0 : chains[static_cast<size_t>(op.stream)][op.idx].generation,
                               sent});
    if (!op.is_query) {
      wire_bytes += wire.size();
      ++data_sent;
    }
  };
  auto idle = [&] {
    for (const auto& q : queued) {
      if (!q.empty()) return false;
    }
    return next == n_ops && AllAnswered(d);
  };
  while (!idle()) {
    const auto now = Clock::now();
    if (now > hard_deadline) {
      res.Fail("run did not drain: replies still owed 20 s after the schedule");
      break;
    }
    for (; next < n_ops && due_of(next) <= now; ++next) {
      const Op& op = ops[next];
      const int conn_id = op.is_query ? ConnOf(queries[op.idx].a) : ConnOf(op.stream);
      Conn& c = d.conns[conn_id];
      ++res.attempted;
      if (!op.is_query && inject_nak && op.idx > 0) {
        inject_nak = false;  // Drop this frame: the stream's next one NAKs.
        skipped[next] = 1;
        continue;
      }
      if (queued[conn_id].empty() && c.pending.size() < kSendWindow) {
        send(next, c, true);
      } else {
        queued[conn_id].push_back(next);
      }
    }
    for (int c = 0; c < kConns; ++c) {
      while (!queued[c].empty() && d.conns[c].pending.size() < kSendWindow) {
        send(queued[c].front(), d.conns[c], false);
        queued[c].pop_front();
      }
    }
    tracer.set_enabled(tracer.on());
    PumpReplies(d, res, tracer, reply);
    // Sleep until the next request is due rather than spin, leaving the
    // cores to the daemon; at most kMaxNapUs, so replies are still read and
    // timestamped within that much of their arrival.
    const auto wake = std::min(next < n_ops ? due_of(next) : hard_deadline,
                               Clock::now() + std::chrono::microseconds(kMaxNapUs));
    if (std::all_of(std::begin(queued), std::end(queued),
                    [](const std::deque<size_t>& q) { return q.empty(); })) {
      std::this_thread::sleep_until(wake);
    }
  }
  const double run_s = std::chrono::duration<double>(last_ack - t0).count();
  rusage gen_usage{};
  getrusage(RUSAGE_SELF, &gen_usage);
  const double gen_cpu_s = static_cast<double>(gen_usage.ru_utime.tv_sec + gen_usage.ru_stime.tv_sec) +
                           static_cast<double>(gen_usage.ru_utime.tv_usec + gen_usage.ru_stime.tv_usec) / 1e6 -
                           gen_cpu0_s;
  tracer.set_enabled(false);
  const std::string log = d.Stop();
  const double lifetime_s = d.lifetime_s();
  daemon.reset();
  const double daemon_rss_mb = ChildrenPeakRssMb();

  // Per-request latencies and open-loop validity.
  std::vector<double> ack_ms, reply_ms, update_us;
  for (size_t i = 0; i < n_ops; ++i) {
    if (skipped[i] || latency_ms[i] < 0) continue;
    reply_ms.push_back(latency_ms[i]);
    if (ops[i].is_query) {
      query_ms.push_back(latency_ms[i]);
    } else {
      ack_ms.push_back(latency_ms[i]);
      update_us.push_back(rtt_us[i]);
      (traced_op[i] ? ack_traced : ack_untraced).push_back(latency_ms[i]);
    }
  }
  std::vector<double> late_all = late_ms;
  const double late_p99 = Quantile(late_all, 0.99);
  const double own_late_p99 = Quantile(late_own_ms, 0.99);
  if (own_late_p99 > kMaxGeneratorLateMs) res.valid = false;
  const double frames_per_s = static_cast<double>(acked) / run_s;
  char note[256];
  std::snprintf(note, sizeof note,
                "open loop: offered %.0f frames/s + %.0f queries/s; acked %.1f frames/s; "
                "generator late p99 %.3f ms (own %.3f ms, limit %.1f), busy %.0f%% of a core",
                kOfferedFramesPerSec, kQueriesPerSec, frames_per_s, late_p99, own_late_p99,
                kMaxGeneratorLateMs, 100 * gen_cpu_s / run_s);
  res.notes.push_back(note);
  const double rejected = LogValue(log, "tenant north:", "rejected") +
                          LogValue(log, "tenant south:", "rejected");
  res.Check(rejected == 0, "daemon rejected frames");

  res.Set("loadgen.update_p99_us", Quantile(update_us, 0.99), update_us.size());
  res.Set("loadgen.tick_p99_ms", Quantile(reply_ms, 0.99), reply_ms.size());
  res.Set("loadgen.ack_p99_ms", Quantile(ack_ms, 0.99), ack_ms.size());
  res.Set("loadgen.query_p99_ms", Quantile(query_ms, 0.99), query_ms.size());
  if (!args.trace) {
    res.Set("setup_s", Quantile(setup_s, 0.5), setup_s.size());
    res.Set("ingest_pts_per_s", static_cast<double>(acked_points) / run_s);
    res.Set("tick_p50_ms", Quantile(reply_ms, 0.5), reply_ms.size());
    res.Set("ack_p50_ms", Quantile(ack_ms, 0.5), ack_ms.size());
    res.Set("query_p50_ms", Quantile(query_ms, 0.5), query_ms.size());
    res.Set("frames_per_s", frames_per_s);
    res.Set("rss_mb", daemon_rss_mb);
    res.Set("diam_rel_width", Mean(rel_width), rel_width.size());
    return;
  }

  // ---- Traced run: per-layer ledger. -------------------------------------
  // Replay the run's messages, in send order, through the daemon's layers.
  std::vector<double> decode_us, apply_us, view_us, diam_us, extent_us, sep_us, residual_ms;
  {
    std::vector<std::unique_ptr<streamhull::StreamGroup>> groups;
    for (int t = 0; t < kTenants; ++t) {
      groups.push_back(std::make_unique<streamhull::StreamGroup>(EngineOptions{}));
      for (int s = 0; s < kStreamsPerTenant; ++s) {
        const int gs = t * kStreamsPerTenant + s;
        SessionMessage first;
        res.Check(DecodeWire(wire_of(gs, 0), &first) &&
                      groups.back()->AddRemoteStream(first.stream).ok() &&
                      groups.back()->UpdateRemoteStream(first.stream, first.payload).ok(),
                  "replay: first-contact frame does not apply");
      }
    }
    for (size_t i = 0; i < n_ops; ++i) {
      if (skipped[i]) continue;
      const Op& op = ops[i];
      const std::string_view wire =
          op.is_query ? std::string_view(queries[op.idx].wire) : wire_of(op.stream, op.idx);
      auto a = Clock::now();
      SessionMessage m;
      const bool decoded = DecodeWire(wire, &m);
      auto b = Clock::now();
      decode_us.push_back(Us(a, b));
      res.Check(decoded, "replay: frame does not decode");
      if (!decoded) continue;
      const int tenant = TenantOf(op.is_query ? queries[op.idx].a : op.stream);
      streamhull::StreamGroup& g = *groups[static_cast<size_t>(tenant)];
      if (!op.is_query) {
        a = Clock::now();
        res.Check(g.UpdateRemoteStream(m.stream, m.payload).ok(), "replay: apply failed");
        const auto c = Clock::now();
        apply_us.push_back(Us(a, c));
        if (latency_ms[i] >= 0) {
          residual_ms.push_back(latency_ms[i] - (Us(a, c) + decode_us.back()) / 1e3);
        }
        continue;
      }
      streamhull::SummaryView va, vb;
      a = Clock::now();
      (void)g.View(m.stream, &va);
      const auto c = Clock::now();
      view_us.push_back(Us(a, c));
      if (m.query == ServerQueryKind::kSeparation) (void)g.View(m.stream_b, &vb);
      a = Clock::now();
      switch (m.query) {
        case ServerQueryKind::kDiameter:
          (void)streamhull::CertifiedDiameter(va);
          diam_us.push_back(Us(a, Clock::now()));
          break;
        case ServerQueryKind::kExtent:
          (void)streamhull::CertifiedExtent(va, Point2{m.dir_x, m.dir_y});
          extent_us.push_back(Us(a, Clock::now()));
          break;
        case ServerQueryKind::kSeparation:
          (void)streamhull::CertifiedSeparation(va, vb);
          sep_us.push_back(Us(a, Clock::now()));
          break;
      }
    }
  }
  res.Set("queries.diameter_us_p50", Quantile(diam_us, 0.5), diam_us.size());
  res.Set("queries.extent_us_p50", Quantile(extent_us, 0.5), extent_us.size());
  res.Set("queries.separation_us_p50", Quantile(sep_us, 0.5), sep_us.size());
  res.Set("queries.separation_us_p99", Quantile(sep_us, 0.99), sep_us.size());
  res.Set("queries.unknown_ratio",
          separations > 0 ? static_cast<double>(unknown) / static_cast<double>(separations) : 0);
  res.Set("multi.apply_us_p50", Quantile(apply_us, 0.5), apply_us.size());
  res.Set("multi.apply_us_p99", Quantile(apply_us, 0.99), apply_us.size());
  res.Set("multi.view_us_p50", Quantile(view_us, 0.5), view_us.size());
  res.Set("server.frame_decode_us_p50", Quantile(decode_us, 0.5), decode_us.size());
  res.Set("server.pump_avg_us", LogValue(log, "streamhulld: tenants=", "avg_poll_us"));
  res.Set("server.polls_per_s", LogValue(log, "streamhulld: tenants=", "polls") / lifetime_s);
  res.Set("server.wire_bytes_per_frame",
          data_sent > 0 ? static_cast<double>(wire_bytes) / static_cast<double>(data_sent) : 0);
  res.Set("server.nak_count", static_cast<double>(naks));
  res.Set("server.rejected_count", rejected);
  res.Set("runtime.ack_residual_ms_p50", Quantile(residual_ms, 0.5), residual_ms.size());
  res.Set("runtime.ack_residual_ms_p99", Quantile(residual_ms, 0.99), residual_ms.size());
  res.Set("loadgen.late_ms_p99", late_p99, late_ms.size());
  res.Set("loadgen.tracing_overhead_ratio",
          Quantile(ack_traced, 0.5) / Quantile(ack_untraced, 0.5));
  tracer.Write(args.workload + "-seed" + std::to_string(args.seed));
}

}  // namespace perfbench
