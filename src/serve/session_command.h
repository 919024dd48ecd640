// The unified session mutation/resolve command (api_redesign tentpole).
//
// A SessionCommand is a tagged variant describing exactly one operation on
// a live serving Session. It is THE canonical representation shared by
//
//   * the framed wire protocol (serve/wire.h carries one encoded command
//     per apply frame),
//   * the binary command log,
//   * the replay stream generator (GenerateEventStream below),
//   * `svgic_cli serve` / `svgic_cli genevents`, and
//   * the in-process entry point Session::Apply(const SessionCommand&).
//
// The binary encoding is canonical: Encode(Decode(bytes)) == bytes and
// Decode(Encode(cmd)) == cmd bit-exactly (doubles are transported as their
// IEEE-754 bit pattern, ids as fixed-width little-endian), so a serving
// trace captured once replays bit-identically everywhere and logs can be
// diffed byte-for-byte.
//
// Layout of one encoded command (little-endian):
//
//   tag : u8                       CommandType
//   then, per tag:
//     kPref        u  i32, c  i32, value u64 (IEEE-754 bits)
//     kTau         u  i32, v  i32, c i32, value u64
//     kLambda      value u64
//     kFriend      u  i32, v  i32
//     kLeave       u  i32
//     kRetireItem  c  i32
//     kJoin / kAddItem / kResolve   (no payload)
//
// Command log file format:
//
//   "SVGB" magic | u32 version | u64 command count | encoded commands
//
// The same log drives bench_online_sessions, `svgic_cli serve`, and the
// incremental-vs-cold equivalence tests, so a serving trace captured once
// replays bit-identically everywhere (all randomness is session-seeded).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/problem.h"
#include "util/status.h"

namespace savg {

enum class CommandType : uint8_t {
  kPref = 1,        ///< set p(u, c) = value
  kTau = 2,         ///< set tau(u, v, c) = value (befriends u, v)
  kLambda = 3,      ///< set the preference/social trade-off
  kJoin = 4,        ///< a new user joins (id = current n)
  kFriend = 5,      ///< adds the friendship {u, v}
  kLeave = 6,       ///< user u leaves (utilities zeroed)
  kAddItem = 7,     ///< a new item appears (id = current m)
  kRetireItem = 8,  ///< item c retired (utilities zeroed)
  kResolve = 9,     ///< re-optimize the configuration
};

/// "pref", "tau", ... (stable telemetry labels).
const char* CommandTypeName(CommandType type);

/// One mutation (or resolve trigger) of a live session.
struct SessionCommand {
  CommandType type = CommandType::kResolve;
  UserId u = -1;
  UserId v = -1;
  ItemId c = -1;
  double value = 0.0;

  bool operator==(const SessionCommand& o) const {
    return type == o.type && u == o.u && v == o.v && c == o.c &&
           value == o.value;
  }
  bool operator!=(const SessionCommand& o) const { return !(*this == o); }
};

// --- Constructors (the idiomatic way to build commands) --------------------

SessionCommand MakePref(UserId u, ItemId c, double value);
SessionCommand MakeTau(UserId u, UserId v, ItemId c, double value);
SessionCommand MakeLambda(double value);
SessionCommand MakeJoin();
SessionCommand MakeFriend(UserId u, UserId v);
SessionCommand MakeLeave(UserId u);
SessionCommand MakeAddItem();
SessionCommand MakeRetireItem(ItemId c);
SessionCommand MakeResolve();

using CommandLog = std::vector<SessionCommand>;

// --- Canonical binary codec ------------------------------------------------

/// Appends the canonical encoding of `cmd` to `out`.
void EncodeCommand(const SessionCommand& cmd, std::string* out);

/// Decodes one command from the front of [data, data + size). On success
/// sets `*consumed` to the number of bytes read. Truncated or unknown-tag
/// input yields InvalidArgument without reading past `size`.
Result<SessionCommand> DecodeCommand(const char* data, size_t size,
                                     size_t* consumed);

/// Encoded size of `cmd` in bytes (== what EncodeCommand appends).
size_t EncodedCommandSize(const SessionCommand& cmd);

// --- Binary command log ----------------------------------------------------

Status WriteCommandLog(const CommandLog& log, std::ostream* out);
Status WriteCommandLogToFile(const CommandLog& log, const std::string& path);

/// Reads a binary command log; anything not starting with the "SVGB"
/// magic is InvalidArgument.
Result<CommandLog> ReadCommandLog(std::istream* in);
Result<CommandLog> ReadCommandLogFromFile(const std::string& path);

// --- Synthetic mutation streams --------------------------------------------

/// Knobs of the synthetic mutation-stream generator used by the benches and
/// the property tests. Probabilities are relative weights.
struct EventStreamParams {
  int num_mutations = 100;
  /// A resolve command is inserted after every this many mutations (and
  /// once at the end).
  int resolve_every = 5;
  uint64_t seed = 1;
  double w_pref = 0.55;
  double w_tau = 0.25;
  double w_friend = 0.08;
  double w_join = 0.04;
  double w_leave = 0.03;
  double w_lambda = 0.02;
  double w_add_item = 0.02;
  double w_retire_item = 0.01;
};

/// Generates a valid command stream against `instance` (tracking the user /
/// item counts its own join/additem commands grow).
CommandLog GenerateEventStream(const SvgicInstance& instance,
                               const EventStreamParams& params);

}  // namespace savg
