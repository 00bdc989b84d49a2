//===- Client.h - Minimal dfence serve client library -----------*- C++ -*-===//
//
// A small synchronous client for the `dfence serve` daemon's JSON-lines
// protocol (serve/Protocol.h) over a unix-domain socket or localhost
// TCP. One connection, blocking I/O, and response correlation by the
// caller-chosen "id" — which matters now that the daemon dispatches
// concurrently: with several requests pipelined on one connection their
// responses may arrive in any order, and call()/waitFor() reorder them
// for the caller by stashing non-matching lines.
//
// Intended consumers: tests (ServeSmoke.UnixSocketClientRoundTrip) and
// ad-hoc tooling. Deliberately not a general RPC framework — no TLS, no
// reconnect, no timeouts beyond the socket's, exactly one in-flight
// reader thread (the caller's).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_TOOLS_CLIENT_H
#define DFENCE_TOOLS_CLIENT_H

#include "support/Json.h"

#include <map>
#include <optional>
#include <string>

namespace dfence::client {

class ServeClient {
public:
  /// Connects to a daemon on a unix-domain socket / localhost TCP port
  /// and consumes the hello line. Returns nullopt with \p Error set on
  /// connect failure or a malformed hello.
  static std::optional<ServeClient> connectUnix(const std::string &Path,
                                                std::string &Error);
  static std::optional<ServeClient> connectTcp(int Port,
                                               std::string &Error);

  ServeClient(ServeClient &&O) noexcept;
  ServeClient &operator=(ServeClient &&O) noexcept;
  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;
  ~ServeClient();

  /// The server's hello object ({"proto":..., "hello":true}).
  const Json &hello() const { return Hello; }

  /// Sends one request object as one JSON line. Does not wait for the
  /// response — pipelining requests is how a caller keeps every
  /// dispatcher slot busy.
  bool send(const Json &Request, std::string &Error);

  /// Blocks for the next response line in arrival order, skipping any
  /// lines already claimed by waitFor(). Returns nullopt on EOF (clean
  /// shutdown) or error (\p Error set; empty on clean EOF).
  std::optional<Json> recv(std::string &Error);

  /// Blocks until the response whose "id" equals \p Id arrives; other
  /// responses arriving first are stashed for their own waiters.
  std::optional<Json> waitFor(const std::string &Id, std::string &Error);

  /// send + waitFor(request.id): the simple synchronous round trip.
  std::optional<Json> call(const Json &Request, std::string &Error);

private:
  explicit ServeClient(int Fd) : Fd(Fd) {}
  bool readHello(std::string &Error);
  /// One framed line off the socket (blocking, buffered).
  std::optional<std::string> readLine(std::string &Error);

  int Fd = -1;
  std::string Buf;                  ///< Unconsumed read-ahead bytes.
  std::map<std::string, Json> Stash; ///< Responses awaiting their waiter.
  Json Hello;
};

} // namespace dfence::client

#endif // DFENCE_TOOLS_CLIENT_H
