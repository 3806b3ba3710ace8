#include "persist/atomic_file.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/archive.hpp"  // PersistError
#include "common/check.hpp"

namespace msim::persist {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

/// write(2) until all of `data` is out, retrying EINTR; false (errno set)
/// on any other error.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ::ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory containing `path` so a completed rename is durable.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;  // best-effort: some filesystems refuse O_RDONLY dirs
  (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create", tmp);
  if (!write_all(fd, reinterpret_cast<const char*>(bytes.data()),
                 bytes.size())) {
    (void)::close(fd);
    (void)::unlink(tmp.c_str());
    fail("write failed for", tmp);
  }
  if (::fsync(fd) != 0) {
    (void)::close(fd);
    (void)::unlink(tmp.c_str());
    fail("fsync failed for", tmp);
  }
  if (::close(fd) != 0) {
    (void)::unlink(tmp.c_str());
    fail("close failed for", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    fail("rename failed onto", path);
  }
  sync_parent_dir(path);
}

void write_text_atomic(const std::string& path, std::string_view text) {
  write_file_atomic(path,
                    {reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw std::runtime_error("read failed for '" + path + "'");
  return std::move(buf).str();
}

std::optional<std::string> AppendLog::replay(
    const std::string& path,
    const std::function<void(std::string_view)>& header,
    const std::function<bool(std::string_view)>& record) {
  std::string content;
  try {
    content = read_file(path);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  bool have_header = false;
  std::size_t kept = 0;
  // Only '\n'-terminated lines count: a line without one is a torn tail.
  for (std::size_t eol; (eol = content.find('\n', kept)) != std::string::npos;) {
    const std::string_view line(content.data() + kept, eol - kept);
    if (!line.empty()) {
      if (!have_header) {
        header(line);
        have_header = true;
      } else if (!record(line)) {
        break;
      }
    }
    kept = eol + 1;
  }
  if (!have_header) {
    throw PersistError("'" + path + "' is empty or has no header line");
  }
  content.resize(kept);
  return content;
}

AppendLog::AppendLog(std::string path, std::string_view content)
    : path_(std::move(path)) {
  write_text_atomic(path_, content);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) fail("cannot open for appending", path_);
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) (void)::close(fd_);
}

void AppendLog::append(std::string_view line) {
  MSIM_CHECK(fd_ >= 0);
  if (!write_all(fd_, line.data(), line.size())) fail("append failed for", path_);
}

void AppendLog::sync() {
  MSIM_CHECK(fd_ >= 0);
  if (::fsync(fd_) != 0) fail("fsync failed for", path_);
}

void AppendLog::seal(const std::string& final_path) {
  sync();
  if (::close(std::exchange(fd_, -1)) != 0) fail("close failed for", path_);
  if (::rename(path_.c_str(), final_path.c_str()) != 0) {
    fail("rename failed onto", final_path);
  }
  sync_parent_dir(final_path);
}

}  // namespace msim::persist
