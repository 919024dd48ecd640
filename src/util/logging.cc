#include "util/logging.h"

#include <iostream>

namespace savg {

namespace {
LogLevel g_level = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= g_level), level_(level) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level_) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) std::cerr << stream_.str() << std::endl;
}

}  // namespace internal
}  // namespace savg
