// File-system helpers shared by the durability writers and readers.

#pragma once

#include <cstddef>
#include <string>

#include "util/status.h"

namespace savg {

/// The whole file at `path`. A file that cannot be opened is kNotFound
/// ("cannot open <what> <path>"); a read error (EIO, or EISDIR for a
/// directory) is an error Status, never an exception.
Result<std::string> ReadWholeFile(const std::string& path,
                                  const std::string& what);

/// write()s the whole buffer to `fd`, retrying short writes and EINTR;
/// errors name `path`.
Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path);

/// The directory part of `path` ("." when it has none).
std::string DirnameOf(const std::string& path);

/// fsyncs directory `dir`, making the entries created or renamed in it
/// durable.
Status SyncDirectory(const std::string& dir);

}  // namespace savg
