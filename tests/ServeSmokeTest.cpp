//===- ServeSmokeTest.cpp - end-to-end daemon smoke test ------------------===//
//
// Spawns the real `dfence serve` binary over pipes and walks the whole
// lifecycle the service contract promises: hello line on startup, inline
// ping, an accepted synthesis request answered with a canonical result,
// a request whose deadline expires answered with `timeout` (not a hang,
// not a dropped connection), and a SIGTERM that drains gracefully —
// every admitted request answered, exit code 0.
//
// A second daemon listens on a unix socket only and is driven through the
// tools/dfence_client library: one pipelined connection, answers matched
// by id, and the socket file removed on SIGTERM. A third listens on
// localhost TCP with a Prometheus metrics port, and its scrape must
// count the executions its answer reports.
//
// This is the tier-1 gate for the serve subsystem (also run under the
// tsan preset; see CMakePresets.json / scripts/verify-all.cmake).
//
//===----------------------------------------------------------------------===//

#include "dfence_client/Client.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dfence;

namespace {

const char *PubSource = R"(global int FLAG = 0;
global int PTR = 0;
int writer() {
  int p = malloc(2);
  *p = 5;
  PTR = p;
  FLAG = 1;
  return 0;
}
int reader() {
  int f = FLAG;
  if (f == 1) {
    int p = PTR;
    return *p;
  }
  return 0;
}
)";

/// A spawned daemon with pipes on stdin/stdout.
struct Daemon {
  pid_t Pid = -1;
  int In = -1;  ///< Write end: daemon's stdin.
  int Out = -1; ///< Read end: daemon's stdout.
  std::string Buf;

  bool start(std::vector<std::string> Args) {
    int ToChild[2], FromChild[2];
    if (::pipe(ToChild) != 0 || ::pipe(FromChild) != 0)
      return false;
    Pid = ::fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      ::dup2(ToChild[0], STDIN_FILENO);
      ::dup2(FromChild[1], STDOUT_FILENO);
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      ::close(FromChild[0]);
      ::close(FromChild[1]);
      std::vector<char *> Argv;
      Argv.push_back(const_cast<char *>(DFENCE_BIN));
      Argv.push_back(const_cast<char *>("serve"));
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(DFENCE_BIN, Argv.data());
      _exit(127);
    }
    ::close(ToChild[0]);
    ::close(FromChild[1]);
    In = ToChild[1];
    Out = FromChild[0];
    return true;
  }

  void send(const std::string &Line) {
    std::string L = Line + "\n";
    size_t Off = 0;
    while (Off < L.size()) {
      ssize_t N = ::write(In, L.data() + Off, L.size() - Off);
      ASSERT_GT(N, 0) << "write to daemon failed";
      Off += static_cast<size_t>(N);
    }
  }

  /// Reads one line, waiting up to \p TimeoutMs. Empty on timeout/EOF.
  std::string readLine(int TimeoutMs = 60000) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      pollfd P{Out, POLLIN, 0};
      int R = ::poll(&P, 1, TimeoutMs);
      if (R <= 0)
        return "";
      char Tmp[8192];
      ssize_t Got = ::read(Out, Tmp, sizeof(Tmp));
      if (Got <= 0)
        return "";
      Buf.append(Tmp, static_cast<size_t>(Got));
    }
  }

  /// SIGTERM + waitpid; returns the exit status (-1 on failure).
  int terminate() {
    if (Pid < 0)
      return -1;
    ::kill(Pid, SIGTERM);
    return wait();
  }

  int wait() {
    int Status = 0;
    if (::waitpid(Pid, &Status, 0) != Pid)
      return -1;
    Pid = -1;
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (In >= 0)
      ::close(In);
    if (Out >= 0)
      ::close(Out);
  }
};

Json parseLine(const std::string &Line) {
  std::string Error;
  auto J = Json::parse(Line, Error);
  EXPECT_TRUE(J) << "bad JSON from daemon: " << Line << " (" << Error
                 << ")";
  return J ? *J : Json();
}

std::string synthRequest(const std::string &Id, const std::string &Extra) {
  return "{\"op\":\"synth\",\"id\":\"" + Id +
         "\",\"source\":" + Json::string(PubSource).dump() +
         ",\"client\":\"writer()|reader()\",\"spec\":\"safety\"" + Extra +
         "}";
}

TEST(ServeSmoke, FullLifecycleWithDeadlineAndGracefulDrain) {
  Daemon D;
  ASSERT_TRUE(D.start({"--jobs", "2", "--queue", "8"}));

  // Readiness: the hello line announces the protocol.
  Json Hello = parseLine(D.readLine());
  EXPECT_EQ(Hello.find("proto")->asString(), "dfence-serve-v1");

  // Three requests: a ping, a normal synthesis, and one whose deadline
  // is so tight it must time out rather than complete (or hang). The
  // stall fault sleeps 5 ms per execution, so the deadline fires however
  // fast the machine runs the 20,000 executions.
  D.send("{\"op\":\"ping\",\"id\":\"p1\"}");
  D.send(synthRequest("work", ",\"k\":60,\"rounds\":3"));
  D.send(synthRequest("hurry", ",\"k\":20000,\"rounds\":16,"
                               "\"deadlineMs\":50,"
                               "\"faults\":{\"stallMs\":5}"));

  std::vector<Json> Resps;
  for (int I = 0; I != 3; ++I) {
    std::string Line = D.readLine();
    ASSERT_FALSE(Line.empty()) << "daemon stopped answering";
    Resps.push_back(parseLine(Line));
  }
  auto ById = [&](const std::string &Id) -> Json {
    for (const Json &J : Resps)
      if (const Json *I = J.find("id"); I && I->asString() == Id)
        return J;
    return Json();
  };

  Json Pong = ById("p1");
  ASSERT_FALSE(Pong.isNull());
  EXPECT_EQ(Pong.find("status")->asString(), "ok");
  EXPECT_TRUE(Pong.find("pong")->asBool(false));

  Json Work = ById("work");
  ASSERT_FALSE(Work.isNull());
  EXPECT_EQ(Work.find("status")->asString(), "ok");
  ASSERT_NE(Work.find("result"), nullptr);
  EXPECT_NE(Work.find("result")->find("rounds"), nullptr);
  // Canonical-result rule: cache stats live outside "result".
  EXPECT_EQ(Work.find("result")->dump().find("execHits"),
            std::string::npos);
  ASSERT_NE(Work.find("cache"), nullptr);

  Json Hurry = ById("hurry");
  ASSERT_FALSE(Hurry.isNull());
  EXPECT_EQ(Hurry.find("status")->asString(), "timeout");

  // Graceful drain: SIGTERM, no further admissions, clean exit 0.
  EXPECT_EQ(D.terminate(), 0);
}

TEST(ServeSmoke, StdinEofDrainsAdmittedWork) {
  Daemon D;
  ASSERT_TRUE(D.start({"--jobs", "2"}));
  EXPECT_EQ(parseLine(D.readLine()).find("proto")->asString(),
            "dfence-serve-v1");

  // Submit and immediately close stdin: the admitted request must still
  // be answered during the drain, then the daemon exits 0.
  D.send(synthRequest("tail", ",\"k\":40,\"rounds\":2"));
  ::close(D.In);
  D.In = -1;

  std::string Line = D.readLine();
  ASSERT_FALSE(Line.empty()) << "drain dropped an admitted request";
  Json R = parseLine(Line);
  EXPECT_EQ(R.find("id")->asString(), "tail");
  EXPECT_EQ(R.find("status")->asString(), "ok");
  EXPECT_EQ(D.wait(), 0);
}

/// A `bench` request on LIFO WSQ: cheap, or bounded by a 50 ms wall
/// budget that a 5 ms stall per execution always exhausts.
Json lifoRequest(const std::string &Id, bool Bounded) {
  Json J = Json::object();
  J.set("op", Json::string("bench"));
  J.set("id", Json::string(Id));
  J.set("bench", Json::string("LIFO WSQ"));
  J.set("model", Json::string("pso"));
  if (Bounded) {
    J.set("k", Json::number(static_cast<uint64_t>(20000)));
    J.set("rounds", Json::number(static_cast<uint64_t>(16)));
    J.set("totalMs", Json::number(static_cast<uint64_t>(50)));
    J.set("cache", Json::string("off"));
    Json Faults = Json::object();
    Faults.set("stallMs", Json::number(static_cast<uint64_t>(5)));
    J.set("faults", std::move(Faults));
  } else {
    J.set("k", Json::number(static_cast<uint64_t>(60)));
    J.set("rounds", Json::number(static_cast<uint64_t>(2)));
  }
  return J;
}

TEST(ServeSmoke, UnixSocketClientRoundTrip) {
  std::string Path = ::testing::TempDir() + "dfence_smoke_" +
                     std::to_string(::getpid()) + ".sock";
  ::unlink(Path.c_str());
  Daemon D;
  ASSERT_TRUE(D.start({"--socket", Path, "--no-stdio", "--slots", "2",
                       "--jobs-per-slot", "1"}));
  struct stat St;
  for (int I = 0; I != 6000 && ::stat(Path.c_str(), &St) != 0; ++I)
    ::usleep(5000);
  ASSERT_EQ(::stat(Path.c_str(), &St), 0) << "daemon never listened";

  std::string Error;
  auto C = client::ServeClient::connectUnix(Path, Error);
  ASSERT_TRUE(C) << Error;
  EXPECT_EQ(C->hello().find("proto")->asString(), "dfence-serve-v1");

  // Everything pipelined on one connection; answers may come in any
  // order, so they are matched by id.
  Json Ping = Json::object();
  Ping.set("op", Json::string("ping"));
  Ping.set("id", Json::string("p1"));
  ASSERT_TRUE(C->send(Ping, Error)) << Error;
  ASSERT_TRUE(C->send(lifoRequest("bounded", true), Error)) << Error;
  ASSERT_TRUE(C->send(lifoRequest("cheap1", false), Error)) << Error;
  ASSERT_TRUE(C->send(lifoRequest("cheap2", false), Error)) << Error;

  const std::pair<const char *, const char *> Expected[] = {
      {"p1", "ok"}, {"cheap1", "ok"}, {"cheap2", "ok"}, {"bounded", "timeout"}};
  for (auto [Id, Status] : Expected) {
    auto Resp = C->waitFor(Id, Error);
    ASSERT_TRUE(Resp) << Id << " unanswered: " << Error;
    EXPECT_EQ(Resp->find("status")->asString(), Status) << Id;
  }

  // Graceful drain: exit 0, and the listening socket is unlinked.
  EXPECT_EQ(D.terminate(), 0);
  bool Gone = ::stat(Path.c_str(), &St) != 0 && errno == ENOENT;
  EXPECT_TRUE(Gone) << "socket file left behind: " << Path;
}

/// Two distinct loopback TCP ports that were free a moment ago: each
/// bound to port 0 and read back, both held until both are read, then
/// released. -1 for a port that could not be reserved.
std::pair<int, int> freeLoopbackPorts() {
  int Ports[2] = {-1, -1}, Fds[2];
  for (int I = 0; I != 2; ++I) {
    Fds[I] = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t Len = sizeof(Addr);
    if (Fds[I] >= 0 &&
        ::bind(Fds[I], reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
            0 &&
        ::getsockname(Fds[I], reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
      Ports[I] = ntohs(Addr.sin_port);
  }
  for (int Fd : Fds)
    if (Fd >= 0)
      ::close(Fd);
  return {Ports[0], Ports[1]};
}

/// The body of `GET /metrics` on localhost \p Port; empty on failure.
std::string scrapeMetrics(int Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  std::string Resp;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
      0) {
    std::string Req = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::write(Fd, Req.data(), Req.size()) ==
        static_cast<ssize_t>(Req.size())) {
      char Tmp[8192];
      ssize_t Got;
      while ((Got = ::read(Fd, Tmp, sizeof(Tmp))) > 0)
        Resp.append(Tmp, static_cast<size_t>(Got));
    }
  }
  ::close(Fd);
  size_t Body = Resp.find("\r\n\r\n");
  return Body == std::string::npos ? "" : Resp.substr(Body + 4);
}

TEST(ServeSmoke, TcpListenAndMetricsPortRoundTrip) {
  auto [Port, MetricsPort] = freeLoopbackPorts();
  ASSERT_GT(Port, 0);
  ASSERT_GT(MetricsPort, 0);
  Daemon D;
  ASSERT_TRUE(D.start({"--no-stdio", "--listen", std::to_string(Port),
                       "--metrics-port", std::to_string(MetricsPort)}));

  // Readiness: the first connect that succeeds (the daemon binds both
  // ports before it accepts anything).
  std::string Error;
  std::optional<client::ServeClient> C;
  for (int I = 0; I != 6000 && !C; ++I) {
    C = client::ServeClient::connectTcp(Port, Error);
    if (!C)
      ::usleep(5000);
  }
  ASSERT_TRUE(C) << "daemon never listened: " << Error;
  EXPECT_EQ(C->hello().find("proto")->asString(), "dfence-serve-v1");

  Json Ping = Json::object();
  Ping.set("op", Json::string("ping"));
  Ping.set("id", Json::string("p1"));
  ASSERT_TRUE(C->send(Ping, Error)) << Error;
  ASSERT_TRUE(C->send(lifoRequest("cheap", false), Error)) << Error;
  auto Pong = C->waitFor("p1", Error);
  ASSERT_TRUE(Pong) << Error;
  EXPECT_TRUE(Pong->find("pong")->asBool(false));
  auto Cheap = C->waitFor("cheap", Error);
  ASSERT_TRUE(Cheap) << Error;
  ASSERT_EQ(Cheap->find("status")->asString(), "ok");
  uint64_t Executions =
      Cheap->find("result")->find("totalExecutions")->asU64();
  EXPECT_GT(Executions, 0u);

  // Counters are published as each round finishes, so once the answer
  // is out the scrape counts every execution it reports.
  std::string Metrics = scrapeMetrics(MetricsPort);
  std::string Want =
      "\ndfence_synth_executions_total " + std::to_string(Executions) + "\n";
  EXPECT_NE(Metrics.find(Want), std::string::npos) << Metrics;

  EXPECT_EQ(D.terminate(), 0);
}

} // namespace
