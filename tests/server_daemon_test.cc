// End-to-end tests of the streamhulld daemon binary: a real process on a
// real Unix socket. They pin the daemon's liveness promises — a frame is
// ACKed over the socket, SIGTERM ends an idle daemon promptly and
// cleanly, and an idle --max-polls run terminates — which a pump that
// waits on socket readiness could break by sleeping past a signal or a
// poll budget. Every wait here has a deadline, so a hung daemon fails the
// test instead of hanging it.

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hull_engine.h"
#include "server/delta_sender.h"
#include "server/transport.h"
#include "server/wire.h"

#ifndef STREAMHULLD_BINARY
#error "STREAMHULLD_BINARY must name the streamhulld executable"
#endif

namespace streamhull {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr const char* kTenantSpec = "acme:acme-token";
constexpr const char* kToken = "acme-token";

// A streamhulld child process with stdout captured to a file. The
// destructor kills and reaps it if a test left it running.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& args, const fs::path& log) {
    std::vector<std::string> argv_storage{STREAMHULLD_BINARY};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_storage) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool started() const { return pid_ > 0; }
  void Signal(int sig) const { ::kill(pid_, sig); }

  // Reaps the process if it exits within \p limit; false on timeout.
  bool WaitExit(milliseconds limit, int* status) {
    const auto deadline = Clock::now() + limit;
    for (;;) {
      const pid_t r = ::waitpid(pid_, status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return true;
      }
      if (r < 0 || Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(milliseconds(2));
    }
  }

 private:
  pid_t pid_ = -1;
};

// A socket client that waits for replies with a deadline.
struct SocketClient {
  std::unique_ptr<UnixSocketTransport> link;
  FrameDecoder replies;

  void Send(const SessionMessage& msg) {
    ASSERT_TRUE(link->Send(EncodeSessionFrame(msg)).ok());
  }

  bool Await(SessionMessage* out, milliseconds limit = milliseconds(5000)) {
    const auto deadline = Clock::now() + limit;
    for (;;) {
      std::string frame;
      bool got = false;
      if (!replies.Next(&frame, &got).ok()) return false;
      if (got) return DecodeSessionMessage(frame, out).ok();
      if (Clock::now() >= deadline) return false;
      pollfd pfd{link->pollable_fd(), POLLIN, 0};
      (void)::poll(&pfd, 1, 50);
      std::string bytes;
      if (!link->Recv(&bytes).ok()) return false;
      replies.Feed(bytes);
    }
  }
};

class StreamHullDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("streamhulld_daemon_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Log() const {
    std::ifstream in(dir_ / "stdout.log");
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  fs::path dir_;
};

TEST_F(StreamHullDaemonTest, AcksOverTheSocketThenExitsCleanlyOnSigterm) {
  const std::string socket_path = (dir_ / "d.sock").string();
  Daemon daemon({"--socket", socket_path, "--tenant", kTenantSpec,
                 "--metrics-every", "0"},
                dir_ / "stdout.log");
  ASSERT_TRUE(daemon.started());

  // The socket exists once the daemon is listening.
  SocketClient c;
  const auto deadline = Clock::now() + milliseconds(5000);
  while (!UnixSocketTransport::Connect(socket_path, &c.link).ok()) {
    ASSERT_LT(Clock::now(), deadline) << "daemon never listened";
    std::this_thread::sleep_for(milliseconds(5));
  }

  SessionMessage msg;
  msg.type = SessionMessageType::kHello;
  msg.version = kServerProtocolVersion;
  msg.token = kToken;
  c.Send(msg);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&reply));
  ASSERT_EQ(reply.type, SessionMessageType::kHelloOk);

  msg = SessionMessage{};
  msg.type = SessionMessageType::kOpen;
  msg.stream = "s0";
  c.Send(msg);
  ASSERT_TRUE(c.Await(&reply));
  ASSERT_EQ(reply.type, SessionMessageType::kOpenOk);

  EngineOptions engine_options;
  engine_options.hull.r = 16;
  auto engine = MakeEngine(EngineKind::kAdaptive, engine_options);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) engine->Insert({rng.Normal(), rng.Normal()});
  DeltaSender sender(engine.get());
  DeltaSender::Frame frame;
  ASSERT_TRUE(sender.NextFrame(&frame).ok());
  msg = SessionMessage{};
  msg.type = SessionMessageType::kData;
  msg.stream = "s0";
  msg.payload = frame.bytes;
  c.Send(msg);
  ASSERT_TRUE(c.Await(&reply));
  ASSERT_EQ(reply.type, SessionMessageType::kAck);
  EXPECT_EQ(reply.stream, "s0");
  EXPECT_EQ(reply.generation, frame.generation);

  // The client stays connected and quiet: the daemon sits in its idle
  // wait when the signal lands.
  std::this_thread::sleep_for(milliseconds(20));
  daemon.Signal(SIGTERM);
  int status = 0;
  ASSERT_TRUE(daemon.WaitExit(milliseconds(2000), &status))
      << "streamhulld ignored SIGTERM for 2 s";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(Log().find("streamhulld: bye"), std::string::npos) << Log();
}

TEST_F(StreamHullDaemonTest, IdleMaxPollsRunEndsPromptly) {
  const auto start = Clock::now();
  Daemon daemon({"--socket", (dir_ / "d.sock").string(), "--tenant",
                 kTenantSpec, "--max-polls", "50"},
                dir_ / "stdout.log");
  ASSERT_TRUE(daemon.started());
  int status = 0;
  ASSERT_TRUE(daemon.WaitExit(milliseconds(1000), &status))
      << "an idle --max-polls 50 run outlived 1 s";
  EXPECT_LT(Clock::now() - start, milliseconds(1000));
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(Log().find("polls=50 "), std::string::npos) << Log();
  EXPECT_NE(Log().find("streamhulld: bye"), std::string::npos) << Log();
}

}  // namespace
}  // namespace streamhull
