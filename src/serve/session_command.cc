#include "serve/session_command.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "util/random.h"

namespace savg {

namespace {

constexpr char kLogMagic[4] = {'S', 'V', 'G', 'B'};
constexpr uint32_t kLogVersion = 1;
// A count limit keeps a corrupt header from driving a multi-gigabyte
// reserve; real logs are a few thousand commands.
constexpr uint64_t kMaxLogCommands = 1ull << 32;

void AppendU8(uint8_t x, std::string* out) {
  out->push_back(static_cast<char>(x));
}

void AppendU32(uint32_t x, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((x >> (8 * i)) & 0xff));
  }
}

void AppendU64(uint64_t x, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((x >> (8 * i)) & 0xff));
  }
}

void AppendI32(int32_t x, std::string* out) {
  AppendU32(static_cast<uint32_t>(x), out);
}

void AppendDouble(double x, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x), "double must be 64-bit");
  std::memcpy(&bits, &x, sizeof(bits));
  AppendU64(bits, out);
}

uint32_t ReadU32(const char* p) {
  uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return x;
}

uint64_t ReadU64(const char* p) {
  uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return x;
}

int32_t ReadI32(const char* p) { return static_cast<int32_t>(ReadU32(p)); }

double ReadDouble(const char* p) {
  const uint64_t bits = ReadU64(p);
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

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
  AppendU8(static_cast<uint8_t>(cmd.type), out);
  switch (cmd.type) {
    case CommandType::kPref:
      AppendI32(cmd.u, out);
      AppendI32(cmd.c, out);
      AppendDouble(cmd.value, out);
      break;
    case CommandType::kTau:
      AppendI32(cmd.u, out);
      AppendI32(cmd.v, out);
      AppendI32(cmd.c, out);
      AppendDouble(cmd.value, out);
      break;
    case CommandType::kLambda:
      AppendDouble(cmd.value, out);
      break;
    case CommandType::kFriend:
      AppendI32(cmd.u, out);
      AppendI32(cmd.v, out);
      break;
    case CommandType::kLeave:
      AppendI32(cmd.u, out);
      break;
    case CommandType::kRetireItem:
      AppendI32(cmd.c, out);
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
  if (size < 1) return Status::InvalidArgument("empty command buffer");
  const uint8_t tag = static_cast<uint8_t>(data[0]);
  const int payload = PayloadSize(tag);
  if (payload < 0) {
    return Status::InvalidArgument("unknown command tag " +
                                   std::to_string(tag));
  }
  if (size < 1 + static_cast<size_t>(payload)) {
    return Status::InvalidArgument(
        "truncated command: tag " + std::string(CommandTypeName(
                                        static_cast<CommandType>(tag))) +
        " needs " + std::to_string(payload) + " payload bytes, have " +
        std::to_string(size - 1));
  }
  SessionCommand cmd;
  cmd.type = static_cast<CommandType>(tag);
  const char* p = data + 1;
  switch (cmd.type) {
    case CommandType::kPref:
      cmd.u = ReadI32(p);
      cmd.c = ReadI32(p + 4);
      cmd.value = ReadDouble(p + 8);
      break;
    case CommandType::kTau:
      cmd.u = ReadI32(p);
      cmd.v = ReadI32(p + 4);
      cmd.c = ReadI32(p + 8);
      cmd.value = ReadDouble(p + 12);
      break;
    case CommandType::kLambda:
      cmd.value = ReadDouble(p);
      break;
    case CommandType::kFriend:
      cmd.u = ReadI32(p);
      cmd.v = ReadI32(p + 4);
      break;
    case CommandType::kLeave:
      cmd.u = ReadI32(p);
      break;
    case CommandType::kRetireItem:
      cmd.c = ReadI32(p);
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
  AppendU32(kLogVersion, &buffer);
  AppendU64(static_cast<uint64_t>(log.size()), &buffer);
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
  if (rest.size() < 4 + 8) {
    return Status::InvalidArgument("binary command log header truncated");
  }
  const uint32_t version = ReadU32(rest.data());
  if (version != kLogVersion) {
    return Status::InvalidArgument("unsupported binary command log version " +
                                   std::to_string(version));
  }
  const uint64_t count = ReadU64(rest.data() + 4);
  if (count > kMaxLogCommands) {
    return Status::InvalidArgument("implausible command count " +
                                   std::to_string(count));
  }
  CommandLog log;
  log.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, 1 << 20)));  // cap pre-reserve
  size_t offset = 4 + 8;
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
