#include "durability/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace savg {

Result<std::string> ReadWholeFile(const std::string& path,
                                  const std::string& what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + what + " " + path);
  std::string data;
  char buf[1 << 16];
  while (true) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Unknown("read(" + path + "): " +
                                            std::strerror(errno));
      ::close(fd);
      return status;
    }
    data.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return data;
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unknown("write(" + path + "): " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::string DirnameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Unknown("open(" + dir + "): " + std::strerror(errno));
  }
  Status result = Status::OK();
  if (::fsync(fd) != 0) {
    result = Status::Unknown("fsync(" + dir + "): " + std::strerror(errno));
  }
  ::close(fd);
  return result;
}

}  // namespace savg
