#include "storage/spill_file.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace supmr::storage {

StatusOr<std::string> write_spill_file(
    const std::string& dir, const std::string& stem,
    const std::function<bool(std::FILE*)>& write) {
  std::string path = dir + "/" + stem + "-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    return Status::IoError("cannot create spill file in " + dir + ": " +
                           std::strerror(errno));
  }
  auto close = [](std::FILE* file) { std::fclose(file); };
  std::unique_ptr<std::FILE, decltype(close)> f(::fdopen(fd, "wb"), close);
  if (f == nullptr) {
    ::close(fd);
    ::unlink(path.c_str());
    return Status::IoError("cannot open spill " + path);
  }
  const bool written = write(f.get());
  const bool closed = std::fclose(f.release()) == 0;
  if (!written || !closed) {
    ::unlink(path.c_str());
    return Status::IoError("short write to spill " + path);
  }
  return path;
}

}  // namespace supmr::storage
