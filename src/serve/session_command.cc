#include "serve/session_command.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "util/byte_codec.h"
#include "util/random.h"

namespace savg {

namespace {

constexpr char kLogMagic[4] = {'S', 'V', 'G', 'B'};
constexpr uint32_t kLogVersion = 1;
// A count limit keeps a corrupt header from driving a multi-gigabyte
// reserve; real logs are a few thousand commands.
constexpr uint64_t kMaxLogCommands = 1ull << 32;

/// Payload bytes following the tag, or -1 for an unknown tag.
int PayloadSize(uint8_t tag) {
  switch (static_cast<CommandType>(tag)) {
    case CommandType::kPref:
      return 4 + 4 + 8;
    case CommandType::kTau:
      return 4 + 4 + 4 + 8;
    case CommandType::kLambda:
      return 8;
    case CommandType::kFriend:
      return 4 + 4;
    case CommandType::kLeave:
    case CommandType::kRetireItem:
      return 4;
    case CommandType::kJoin:
    case CommandType::kAddItem:
    case CommandType::kResolve:
      return 0;
  }
  return -1;
}

}  // namespace

const char* CommandTypeName(CommandType type) {
  switch (type) {
    case CommandType::kPref:
      return "pref";
    case CommandType::kTau:
      return "tau";
    case CommandType::kLambda:
      return "lambda";
    case CommandType::kJoin:
      return "join";
    case CommandType::kFriend:
      return "friend";
    case CommandType::kLeave:
      return "leave";
    case CommandType::kAddItem:
      return "additem";
    case CommandType::kRetireItem:
      return "retireitem";
    case CommandType::kResolve:
      return "resolve";
  }
  return "?";
}

SessionCommand MakePref(UserId u, ItemId c, double value) {
  SessionCommand cmd;
  cmd.type = CommandType::kPref;
  cmd.u = u;
  cmd.c = c;
  cmd.value = value;
  return cmd;
}

SessionCommand MakeTau(UserId u, UserId v, ItemId c, double value) {
  SessionCommand cmd;
  cmd.type = CommandType::kTau;
  cmd.u = u;
  cmd.v = v;
  cmd.c = c;
  cmd.value = value;
  return cmd;
}

SessionCommand MakeLambda(double value) {
  SessionCommand cmd;
  cmd.type = CommandType::kLambda;
  cmd.value = value;
  return cmd;
}

SessionCommand MakeJoin() {
  SessionCommand cmd;
  cmd.type = CommandType::kJoin;
  return cmd;
}

SessionCommand MakeFriend(UserId u, UserId v) {
  SessionCommand cmd;
  cmd.type = CommandType::kFriend;
  cmd.u = u;
  cmd.v = v;
  return cmd;
}

SessionCommand MakeLeave(UserId u) {
  SessionCommand cmd;
  cmd.type = CommandType::kLeave;
  cmd.u = u;
  return cmd;
}

SessionCommand MakeAddItem() {
  SessionCommand cmd;
  cmd.type = CommandType::kAddItem;
  return cmd;
}

SessionCommand MakeRetireItem(ItemId c) {
  SessionCommand cmd;
  cmd.type = CommandType::kRetireItem;
  cmd.c = c;
  return cmd;
}

SessionCommand MakeResolve() { return SessionCommand{}; }

void EncodeCommand(const SessionCommand& cmd, std::string* out) {
  PutU8(static_cast<uint8_t>(cmd.type), out);
  switch (cmd.type) {
    case CommandType::kPref:
      PutI32(cmd.u, out);
      PutI32(cmd.c, out);
      PutF64(cmd.value, out);
      break;
    case CommandType::kTau:
      PutI32(cmd.u, out);
      PutI32(cmd.v, out);
      PutI32(cmd.c, out);
      PutF64(cmd.value, out);
      break;
    case CommandType::kLambda:
      PutF64(cmd.value, out);
      break;
    case CommandType::kFriend:
      PutI32(cmd.u, out);
      PutI32(cmd.v, out);
      break;
    case CommandType::kLeave:
      PutI32(cmd.u, out);
      break;
    case CommandType::kRetireItem:
      PutI32(cmd.c, out);
      break;
    case CommandType::kJoin:
    case CommandType::kAddItem:
    case CommandType::kResolve:
      break;
  }
}

size_t EncodedCommandSize(const SessionCommand& cmd) {
  return 1 + static_cast<size_t>(PayloadSize(static_cast<uint8_t>(cmd.type)));
}

Result<SessionCommand> DecodeCommand(const char* data, size_t size,
                                     size_t* consumed) {
  ByteReader in(data, size);
  uint8_t tag = 0;
  if (!in.ReadU8(&tag)) {
    return Status::InvalidArgument("empty command buffer");
  }
  const int payload = PayloadSize(tag);
  if (payload < 0) {
    return Status::InvalidArgument("unknown command tag " +
                                   std::to_string(tag));
  }
  if (in.remaining() < static_cast<size_t>(payload)) {
    return Status::InvalidArgument(
        "truncated command: tag " + std::string(CommandTypeName(
                                        static_cast<CommandType>(tag))) +
        " needs " + std::to_string(payload) + " payload bytes, have " +
        std::to_string(in.remaining()));
  }
  // Past the payload check every read below succeeds.
  SessionCommand cmd;
  cmd.type = static_cast<CommandType>(tag);
  switch (cmd.type) {
    case CommandType::kPref:
      in.ReadI32(&cmd.u);
      in.ReadI32(&cmd.c);
      in.ReadF64(&cmd.value);
      break;
    case CommandType::kTau:
      in.ReadI32(&cmd.u);
      in.ReadI32(&cmd.v);
      in.ReadI32(&cmd.c);
      in.ReadF64(&cmd.value);
      break;
    case CommandType::kLambda:
      in.ReadF64(&cmd.value);
      break;
    case CommandType::kFriend:
      in.ReadI32(&cmd.u);
      in.ReadI32(&cmd.v);
      break;
    case CommandType::kLeave:
      in.ReadI32(&cmd.u);
      break;
    case CommandType::kRetireItem:
      in.ReadI32(&cmd.c);
      break;
    case CommandType::kJoin:
    case CommandType::kAddItem:
    case CommandType::kResolve:
      break;
  }
  if (consumed != nullptr) *consumed = 1 + static_cast<size_t>(payload);
  return cmd;
}

Status WriteCommandLog(const CommandLog& log, std::ostream* out) {
  std::string buffer;
  buffer.append(kLogMagic, sizeof(kLogMagic));
  PutU32(kLogVersion, &buffer);
  PutU64(static_cast<uint64_t>(log.size()), &buffer);
  for (const SessionCommand& cmd : log) EncodeCommand(cmd, &buffer);
  out->write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!*out) return Status::Unknown("command log write failed");
  return Status::OK();
}

Status WriteCommandLogToFile(const CommandLog& log, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  return WriteCommandLog(log, &out);
}

Result<CommandLog> ReadCommandLog(std::istream* in) {
  char magic[4] = {0, 0, 0, 0};
  in->read(magic, sizeof(magic));
  if (in->gcount() < static_cast<std::streamsize>(sizeof(magic))) {
    return Status::InvalidArgument("command log shorter than its magic");
  }
  if (std::memcmp(magic, kLogMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a binary command log (no SVGB magic)");
  }
  std::string rest((std::istreambuf_iterator<char>(*in)),
                   std::istreambuf_iterator<char>());
  ByteReader header(rest.data(), rest.size());
  uint32_t version = 0;
  uint64_t count = 0;
  if (!header.ReadU32(&version) || !header.ReadU64(&count)) {
    return Status::InvalidArgument("binary command log header truncated");
  }
  if (version != kLogVersion) {
    return Status::InvalidArgument("unsupported binary command log version " +
                                   std::to_string(version));
  }
  if (count > kMaxLogCommands) {
    return Status::InvalidArgument("implausible command count " +
                                   std::to_string(count));
  }
  CommandLog log;
  log.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, 1 << 20)));  // cap pre-reserve
  size_t offset = rest.size() - header.remaining();
  for (uint64_t i = 0; i < count; ++i) {
    size_t consumed = 0;
    auto cmd = DecodeCommand(rest.data() + offset, rest.size() - offset,
                             &consumed);
    if (!cmd.ok()) {
      return Status::InvalidArgument(
          "command " + std::to_string(i) + " of " + std::to_string(count) +
          ": " + cmd.status().message());
    }
    log.push_back(*cmd);
    offset += consumed;
  }
  if (offset != rest.size()) {
    return Status::InvalidArgument(
        std::to_string(rest.size() - offset) +
        " trailing bytes after the last command");
  }
  return log;
}

Result<CommandLog> ReadCommandLogFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return ReadCommandLog(&in);
}

CommandLog GenerateEventStream(const SvgicInstance& instance,
                               const EventStreamParams& params) {
  Rng rng(params.seed);
  int n = instance.num_users();
  int m = instance.num_items();
  const std::vector<double> weights = {
      params.w_pref,  params.w_tau,    params.w_friend,
      params.w_join,  params.w_leave,  params.w_lambda,
      params.w_add_item, params.w_retire_item};

  CommandLog log;
  for (int i = 0; i < params.num_mutations; ++i) {
    SessionCommand e;
    switch (rng.Discrete(weights)) {
      case 0:
        e.type = CommandType::kPref;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        e.c = static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(m)));
        e.value = rng.Uniform();
        break;
      case 1:
        e.type = CommandType::kTau;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        do {
          e.v = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        } while (e.v == e.u);
        e.c = static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(m)));
        e.value = rng.Uniform();
        break;
      case 2:
        e.type = CommandType::kFriend;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        do {
          e.v = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        } while (e.v == e.u);
        break;
      case 3:
        e.type = CommandType::kJoin;
        ++n;
        break;
      case 4:
        e.type = CommandType::kLeave;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        break;
      case 5:
        e.type = CommandType::kLambda;
        e.value = rng.Uniform(0.2, 0.8);
        break;
      case 6:
        e.type = CommandType::kAddItem;
        ++m;
        break;
      default:
        e.type = CommandType::kRetireItem;
        e.c = static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(m)));
        break;
    }
    log.push_back(e);
    if (params.resolve_every > 0 && (i + 1) % params.resolve_every == 0) {
      log.push_back(MakeResolve());
    }
  }
  if (log.empty() || log.back().type != CommandType::kResolve) {
    log.push_back(MakeResolve());
  }
  return log;
}

}  // namespace savg
